"""Seeded differential guard for the WTP state machines.

Each scenario runs two handsets against one responder on a VirtualClock,
over a simulated bearer with loss (0-30%), duplication, reordering and
jitter.  Every bearer has some jitter, so no two events share an instant:
at a shared instant the order of a record being forgotten and a PDU
arriving follows the order in which their timers were armed, which is the
clock's tie-break and not a protocol rule.  Handsets mix classes 0/1/2;
responders answer at once, late, by Abort, or never; some initiators abort;
one handset may be closed mid-run.  Copies of finished Invokes and
Results are replayed just before and just after ``linger_ms`` runs out.

The whole run is reduced to one SHA-256: every datagram put on a bearer
(time, source, destination, bytes), every ``TraceEvent``, every indication
and every handle outcome.  Any change to what WTP sends, when it sends it,
or how a transaction ends changes the digest.  A refactor that keeps the
protocol's behaviour must keep it; a deliberate behaviour change updates
the digests and says why.

Two digests are pinned.  ``EXPECTED`` is the reference: every retry
interval is pinned to ``retry_interval_ms`` (``WtpProvider._retry_delay``
is patched), as before round-trip estimation, so it shows whether a change
moves outcomes or only timing.  ``EXPECTED_ADAPTIVE`` is the provider as it
ships, with per-peer round-trip estimates.  ``python
tests/test_wtp_differential.py`` (with ``src`` on ``PYTHONPATH``) prints
both; with ``--scenarios`` it prints one short digest per scenario for each
run, then each run's handle outcomes.  The scenarios touch only what every
tree's WTP has, so this file can be run against another tree's source::

    PYTHONPATH=<tree>/src python tests/test_wtp_differential.py --scenarios

Diffing that output for two trees names the scenarios a change moved.
"""

import hashlib
import random
import sys
from collections import Counter
from unittest import mock

from wapstack import wdp, wtp
from wapstack.bearer import ImpairmentProfile, SimNetwork
from wapstack.clock import VirtualClock
from wapstack.wdp import WdpAddress, WdpStack

SCENARIOS = 90
EXPECTED = "0750855def4592e852fd917a0aecbeacd3623eae9d08681dc1574e12004e96d3"
EXPECTED_ADAPTIVE = (
    "0a2382752fd4794b8ad32988fc94292bb2f887bcd94b0e3a71369e044a15b9c4")

SRV = WdpAddress("srv", 2000)
CLIENTS = ("cli0", "cli1")


def _pdu_of(payload: bytes) -> wtp.WtpPdu:
    return wtp.decode_pdu(wdp.decode_datagram(payload).payload)


class Scenario:
    def __init__(self, seed: int):
        rng = self.rng = random.Random(seed)
        self.clock = clock = VirtualClock()
        self.net = SimNetwork(clock)
        self.log: list[tuple] = []
        self.sent: list[tuple[float, tuple[str, str, bytes]]] = []
        policy = wtp.RetransmissionPolicy(
            retry_interval_ms=rng.choice([100, 300]),
            max_retrans=rng.choice([3, 8]),
            linger_ms=rng.choice([400, 3000]))
        self.linger = policy.linger_ms / 1000.0
        self.providers = {}
        for index, name in enumerate(("srv",) + CLIENTS):
            profile = ImpairmentProfile(
                loss_prob=rng.choice([0.0, 0.1, 0.2, 0.3]),
                dup_prob=rng.choice([0.0, 0.1, 0.3]),
                reorder_prob=rng.choice([0.0, 0.2]),
                delay_ms=rng.choice([1.0, 20.0, 150.0]),
                jitter_ms=rng.choice([5.0, 30.0]),
                seed=seed * 10 + index)
            bearer = self.net.endpoint(name, profile)
            bearer.send = self._recording(bearer)
            endpoint = WdpStack(bearer).bind(2000 if name == "srv" else 1000)
            self.providers[name] = wtp.WtpProvider(
                endpoint, clock, policy,
                trace=lambda e, n=name: self.log.append(
                    ("trace", n, clock.now(), e.direction, e.pdu_type, e.tid,
                     e.rid, e.tclass)))
        self.providers["srv"].on_invoke = self._on_invoke
        self.providers["srv"].on_abort = lambda src, tid, reason: self.log.append(
            ("on_abort", clock.now(), src, tid, reason))
        self.handles: list[tuple[str, wtp.TransactionHandle]] = []

    def _recording(self, bearer):
        send = bearer.send

        def recording_send(dst, payload):
            self.sent.append((self.clock.now(),
                              (bearer.local_addr, dst, payload)))
            self.log.append(("dgram", self.clock.now(), bearer.local_addr, dst,
                             payload.hex()))
            send(dst, payload)
        return recording_send

    def _call(self, what, fn, *args):
        """Run a user call whose target may have moved on meanwhile."""
        try:
            fn(*args)
        except wtp.WtpError as exc:
            self.log.append(("refused", self.clock.now(), what,
                             type(exc).__name__, str(exc)))

    def _on_invoke(self, inv: wtp.Invocation) -> None:
        self.log.append(("indication", self.clock.now(), inv.src, inv.tid,
                         inv.tclass, inv.payload))
        if inv.tclass != 2:
            return
        mode = inv.payload[0] % 6
        later = self.clock.call_later
        if mode in (0, 1, 2):
            self._call("respond", inv.respond, b"R:" + inv.payload)
        elif mode == 3:
            later(self.rng.uniform(0.05, 0.8), self._call, "respond",
                  inv.respond, b"late:" + inv.payload)
        elif mode == 4:
            later(self.rng.uniform(0.0, 0.3), self._call, "abort", inv.abort,
                  0x44)
        # mode 5: never answered; the initiator's retries run out

    def _invoke(self, client: str, n: int) -> None:
        rng = self.rng
        tclass = rng.choice([0, 1, 2, 2, 2])
        provider = self.providers[client]
        try:
            handle = provider.invoke(SRV, tclass, bytes([n, rng.randrange(256)]))
        except wtp.WtpError as exc:
            self.log.append(("refused", self.clock.now(), "invoke",
                             type(exc).__name__, str(exc)))
            return
        self.handles.append((client, handle))
        handle.add_done_callback(
            lambda h, c=client: self._on_done(c, h))
        if rng.random() < 0.1:
            self.clock.call_later(rng.uniform(0.0, 0.5), self._call,
                                  "initiator abort", handle.abort, 0x33)

    def _on_done(self, client: str, handle: wtp.TransactionHandle) -> None:
        """Replay this transaction's last Invoke and Result around the end
        of its linger."""
        now = self.clock.now()
        last = {}
        for _, raw in self.sent:
            src, dst, payload = raw
            if {src, dst} == {client, "srv"}:
                pdu = _pdu_of(payload)
                if pdu.tid == handle.tid and pdu.pdu_type in (wtp.PDU_INVOKE,
                                                              wtp.PDU_RESULT):
                    last[pdu.pdu_type] = raw
        for raw in last.values():
            for offset in (-0.03, -0.001, 0.001, 0.03):
                self.clock.call_later(self.linger + offset, self.net._deliver,
                                      *raw)
        self.log.append(("done", now, client, handle.tid, handle.state))

    def run(self) -> None:
        rng = self.rng
        for n in range(14):
            client = rng.choice(CLIENTS)
            self.clock.call_later(rng.uniform(0.0, 2.0), self._invoke, client, n)
        if rng.random() < 0.2:
            self.clock.call_later(rng.uniform(1.0, 3.0),
                                  self.providers["cli1"].close)
        self.clock.run_until_idle(limit=120.0)
        for client, h in self.handles:
            self.log.append(("outcome", client, h.tid, h.state, h.result,
                             type(h.error).__name__, str(h.error)))
        self.log.append(("pending", self.clock.pending()))


def run_scenarios(count: int = SCENARIOS, each=None) -> str:
    """The digest over every scenario's log; ``each(log_bytes, scenario)``
    is called after each scenario if given."""
    digest = hashlib.sha256()
    for seed in range(count):
        scenario = Scenario(seed)
        scenario.run()
        log = b"".join(repr(entry).encode() + b"\n" for entry in scenario.log)
        digest.update(log)
        if each is not None:
            each(log, scenario)
    return digest.hexdigest()


def _fixed_delay(provider, txn, peer):
    return provider.policy.retry_interval_ms / 1000.0


def reference_digest(count: int = SCENARIOS, each=None) -> str:
    """The digest with every retry interval pinned to
    ``retry_interval_ms``."""
    with mock.patch.object(wtp.WtpProvider, "_retry_delay", _fixed_delay):
        return run_scenarios(count, each)


def test_wtp_differential_digest_is_pinned():
    assert reference_digest() == EXPECTED


def test_wtp_differential_adaptive_digest_is_pinned():
    assert run_scenarios() == EXPECTED_ADAPTIVE


def _per_scenario(run) -> tuple[list[str], Counter]:
    """Run ``run`` and return a 12-digit digest per scenario and a count of
    how its handles ended: a state, or the error's type."""
    digests, outcomes = [], Counter()

    def each(log, scenario):
        digests.append(hashlib.sha256(log).hexdigest()[:12])
        outcomes.update(type(h.error).__name__ if h.error else h.state
                        for _, h in scenario.handles)
    run(each=each)
    return digests, outcomes


if __name__ == "__main__":
    if "--scenarios" in sys.argv[1:]:
        reference, ref_outcomes = _per_scenario(reference_digest)
        adaptive, outcomes = _per_scenario(run_scenarios)
        for seed, (ref, ada) in enumerate(zip(reference, adaptive)):
            print(f"scenario {seed:2d} reference {ref} adaptive {ada}")
        for name, counts in (("reference", ref_outcomes),
                             ("adaptive ", outcomes)):
            print("outcomes", name, " ".join(
                f"{key} {n}" for key, n in sorted(counts.items())))
    else:
        print("reference", reference_digest())
        print("adaptive ", run_scenarios())
