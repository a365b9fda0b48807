"""Smoke test of the benchmark itself (short runs, about a minute in all).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every declared metric is printed for every workload, that the
traced runs confirm what each workload claims to stress, that one flipped
byte in an origin reply fails the correctness gate, that a traced run whose
workload does not stress what it claims fails, and that the command fails
cleanly where the stack's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Long enough that each traced slice of lossy-browse's loaded phase (0.05
# of this) sees 300 ms retransmission timers fire.
SECONDS = {"lossy-browse": "8"}


def run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", SECONDS.get(workload, "2"),
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = {line.split()[1] for line in lines if line.startswith("# ")}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in table
    if trace:
        claims = [line for line in lines if line.startswith("# claim ")]
        assert claims and all(line.endswith(": ok") for line in claims), claims


@pytest.mark.parametrize("workload", ["wml-browse", "secure-udp"])
def test_flipped_byte_fails_the_gate(workload):
    proc = run(workload, 0, "--fault", "flip-byte")
    assert proc.returncode == 1, proc.stdout
    assert "wrong replies" in proc.stderr
    assert not proc.stdout.strip().endswith("}")


def test_failed_claim_fails_the_run():
    proc = run("lossy-browse", 1, "--fault", "no-loss")
    assert proc.returncode == 1, proc.stdout
    assert "claims failed: wtp.retransmissions_per_fetch" in proc.stderr
    assert not proc.stdout.strip().endswith("}")


def test_fails_without_the_stack_sources():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
