"""Handset-loop benchmark for the wapstack stack.

    python3 perfbench/run.py --workload wml-browse --seed 1 --seconds 12 --trace 0

One run builds the stack from ``src/`` in this checkout, sets it up several
times (``setup_s`` is the mean of the middle half), runs a serial phase (one handset, blocking
``UserAgent.fetch`` calls) and a closed-loop loaded phase (every handset
keeps one fetch outstanding), checks every reply, and prints the metrics
named in ``BENCHMARK.json``: end-to-end with ``--trace 0``, per-layer with
``--trace 1``.  The last line of standard output is one JSON object.

A wrong reply ends the run with exit code 1 and no result, and so does a
traced run whose workload does not stress what it claims.  Failed,
timed-out or non-200 fetches are counted, not hidden: ``failed`` over
``attempted`` is the fetch failure ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

BEARERS = {
    "sim": "sim: in-process SimBearer on one RealClock thread",
    "udp": "udp: host loopback 127.0.0.1, not a real link",
}


def _proc_stat() -> list[int]:
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _steal_share(before: list[int], after: list[int]) -> float | None:
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user time
    return delta[7] / total if len(delta) > 7 and total > 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("flip-byte", "no-loss"),
                        default=None,
                        help="self-test: flip-byte makes the origin corrupt "
                             "some replies, which must fail the run; "
                             "no-loss clears the bearer loss, which must fail "
                             "a traced run of a lossy workload on its claims")
    return parser.parse_args(argv)


# Traced run: the loaded phase is cut into slices, traced (True) or not,
# ordered so that a steady drift of the host cancels out of the traced minus
# untraced comparison of the pairs below.
TRACED_SLICES = (True, False, False, True, True, False)
PAIRS = ((0, 1), (3, 2), (4, 5))


def _trace_overhead(loop) -> float | None:
    """Median over the slice pairs of traced minus untraced CPU per fetch."""
    diffs = []
    for traced, plain in PAIRS:
        (n_t, cpu_t), (n_u, cpu_u) = (loop.slice_stats(traced),
                                      loop.slice_stats(plain))
        if not (n_t and n_u):
            return None
        diffs.append(cpu_t / n_t - cpu_u / n_u)
    return statistics.median(diffs)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``.

    Set-up times on a lossy bearer fall on 300 ms retransmission steps, so
    their median jumps by a whole step from one run to the next; the mean of
    the middle half moves smoothly and still ignores outliers.
    """
    ordered = sorted(values)
    k = len(ordered) // 4
    middle = ordered[k:len(ordered) - k]
    return sum(middle) / len(middle)


def _write_psk_file(wl, psk: bytes) -> Path:
    path = OUT / f"psk-{wl.name}-{os.getpid()}.txt"
    path.write_text("".join(f"handset{i}:{psk.hex()}\n"
                            for i in range(wl.users)), encoding="ascii")
    return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "wapstack" / "__init__.py").is_file():
        print(f"perfbench: no wapstack sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads
    from tracing import Tracer

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cpu = None
    if workloads.WORKLOADS[args.workload].pin_cpu:
        # Before any thread starts, so every thread inherits it.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    stat_before = _proc_stat()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    psk = hashlib.sha256(b"perfbench psk %d" % args.seed).digest()
    psk_file = _write_psk_file(wl, psk)
    origin = wl.origin
    if args.fault == "flip-byte":
        origin = workloads.flip_one_byte(origin)
    elif args.fault == "no-loss":
        wl.loss = 0.0
    tracer = Tracer() if args.trace else None
    if tracer:
        origin = tracer.wrap_origin(origin)
    serial_s = args.seconds * wl.serial_share
    loaded_s = args.seconds - serial_s

    ids = itertools.count()
    tally = harness.Tally()
    fetches = 0
    if tracer:
        tracer.install()
    try:
        setup_times, rig = harness.setup(wl, origin, str(psk_file), psk, ids,
                                         tracer)
        try:
            serial = harness.serial_phase(wl, rig, ids, serial_s, tally, tracer)
            loop = harness.ClosedLoop(wl, rig, ids, tally, tracer)
            if tracer:
                # The first slice is traced; switch at each later one.
                loop.run(loaded_s, len(TRACED_SLICES),
                         lambda i: (tracer.install if TRACED_SLICES[i]
                                    else tracer.uninstall)())
            else:
                loop.run(loaded_s)
            fetches = loop.verified()
        finally:
            rig.close()
    except harness.WrongReply as exc:
        tally.add(harness.WRONG, str(exc))
    except harness.SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer:
            tracer.uninstall()
        psk_file.unlink(missing_ok=True)
    stat_after = _proc_stat()

    if tally.wrong:
        print(f"perfbench: {tally.wrong} wrong replies, e.g. "
              f"{tally.wrong_examples}", file=sys.stderr)
        return 1
    if not fetches:
        print("perfbench: no verified fetch in the loaded phase",
              file=sys.stderr)
        return 1

    # Reported, but not in BENCHMARK.json: the failure ratio is 0 on the
    # clean workloads; the loaded p50 (on lossy-browse), the loaded p99 (on
    # wml-browse), the serial p50 (on both CPU-bound workloads) and the
    # serial mean (on lossy-browse) varied too much from run to run to hold
    # any bound that BENCHMARK.json allows.
    info = {"fetch_fail_ratio": (tally.failed / max(tally.attempted, 1),
                                 "ratio", tally.attempted)}
    if args.trace:
        traced = [i for i, on in enumerate(TRACED_SLICES) if on]
        fetches = sum(loop.slice_stats(i)[0] for i in traced)
        overhead = _trace_overhead(loop)
        if overhead is None or not fetches:
            print("perfbench: a slice of the traced run verified no fetch",
                  file=sys.stderr)
            return 1
        layer = tracer.layer_metrics(
            [(loop.marks[i][0], loop.marks[i + 1][0]) for i in traced],
            fetches, tally.deadline_aborts)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        layer["trace.cpu_ms_per_fetch"] = (
            sum(loop.slice_stats(i)[1] for i in traced) * 1e3 / fetches)
        layer["trace.overhead_ms_per_fetch"] = overhead * 1e3
        values = {name: (value, fetches) for name, value in layer.items()}
    else:
        loaded = harness.loaded_metrics(loop)
        for name in ("fetch_p50_ms", "fetch_p99_ms"):
            info[name] = (loaded.pop(name), "ms", fetches)
        info["serial_p50_ms"] = (harness.percentile(serial, 50) * 1e3, "ms",
                                 len(serial))
        info["serial_mean_ms"] = (statistics.fmean(serial) * 1e3, "ms",
                                  len(serial))
        values = {name: (value, fetches) for name, value in loaded.items()}
        values.update({
            "setup_s": (interquartile_mean(setup_times), len(setup_times)),
            "serial_p95_ms": (harness.percentile(serial, 95) * 1e3,
                              len(serial)),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        })
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json "
              f"declares {sorted(names)}", file=sys.stderr)
        return 2

    env = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "cpu_model": _cpu_model(),
        "steal_share": _steal_share(stat_before, stat_after),
        "bearer": BEARERS[wl.bearer], "users": wl.users,
        "commit": _git_commit(),
        "deadline_aborts": tally.deadline_aborts,
        "callback_errors": tally.callback_errors,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("# env " + json.dumps(env))
    print(f"# {'metric':34} {'value':>14} {'unit':6} samples")
    for m in declared:
        value, samples = values[m["name"]]
        print(f"# {m['name']:34} {value:14.6g} {m['unit']:6} {samples}")
    print("# not in BENCHMARK.json:")
    for name, (value, unit, samples) in info.items():
        print(f"# {name:34} {value:14.6g} {unit:6} {samples}")
    failed_claims = []
    if args.trace:
        for name, op, bound in wl.claims:
            value = values[name][0]
            holds = {"<": value < bound, ">": value > bound,
                     "==": value == bound}[op]
            print(f"# claim {name} {op} {bound}: "
                  f"{'ok' if holds else f'FAILED ({value:.6g})'}")
            if not holds:
                failed_claims.append(name)
    if failed_claims:
        # The run did not stress what the workload claims to: its per-layer
        # figures would describe another workload.
        print(f"perfbench: claims failed: {', '.join(failed_claims)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in declared}
    result = {"correct": True, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, env=env,
                  samples={n: s for n, (_, s) in values.items()},
                  not_gated={n: {"value": v, "unit": u, "samples": k}
                             for n, (v, u, k) in info.items()})
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
