"""The whole stack on one VirtualClock: a gateway and a user agent, with the
gateway's WSP handlers run inline, so every blocking call runs the clock on
the caller's thread.  The runs start no thread and are seeded.

``python tests/test_whole_stack.py --loss-sweep``, with ``src`` on
``PYTHONPATH``, prints one line per seed pair of a lossy browsing run:
fetches, failures, virtual p50/p95 fetch latency and WTP PDUs per fetch.  A
change to the retry timers or the fetch path can quote it before and after;
two runs print the same bytes.
"""

import threading
import time

import pytest

from wapstack import gateway as gw, wsp, wtls, wtp
from wapstack.bearer import ImpairmentProfile, SimNetwork
from wapstack.clock import VirtualClock
from wapstack.useragent import UserAgent, render
from wapstack.wdp import WdpAddress

PSK = bytes(range(32))
PAGES = {
    "/index": ("text/vnd.wap.wml",
               b'<wml><card><p><a href="next">Next</a></p></card></wml>'),
    "/next": ("text/vnd.wap.wml", b"<wml><card><p>You made it</p></card></wml>"),
    "/plain": ("text/plain", b"not a deck"),
}
STACK_THREADS = ("wapstack-clock", "udp-bearer-", "wapgw-fetch")


class Stack:
    """A sim-bearer gateway and one user agent on one VirtualClock.  Every
    WTP PDU either end sends is counted in ``pdus``."""

    def __init__(self, security=wtls.MODE_OFF, psk_file=None, loss=0.0,
                 seeds=(0, 0)):
        self.clock = VirtualClock()
        self.pdus = 0
        net = SimNetwork(self.clock)
        impaired = [ImpairmentProfile(loss_prob=loss, delay_ms=1, seed=seed)
                    for seed in seeds]
        self.gateway = gw.Gateway(
            gw.GatewayConfig(security=security, psk_file=psk_file,
                             impairments=impaired[1]),
            clock=self.clock, network=net, fetch=gw.local_content_fetch(PAGES))
        self.gateway.wsp_server._executor = None
        self.gateway.connectionless._executor = None
        self.gateway.provider.trace = self._count
        self.ua = UserAgent(WdpAddress("gateway", 9201),
                            net.endpoint("handset", impaired[0]),
                            clock=self.clock, security=security, psk=PSK,
                            identity=b"handset", trace=self._count)

    def _count(self, event):
        self.pdus += event.direction == "snd"

    def close(self):
        self.ua.close()
        self.gateway.close()


def _stack_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith(STACK_THREADS)]


@pytest.mark.parametrize("security", [wtls.MODE_OFF, wtls.MODE_FULL])
def test_a_user_agent_browses_a_gateway_on_one_virtual_clock(security,
                                                             tmp_path):
    psk_file = tmp_path / "psk"
    psk_file.write_text("handset:" + PSK.hex() + "\n")
    started, threads = time.monotonic(), threading.active_count()
    stack = Stack(security, str(psk_file))
    try:
        result = stack.ua.fetch("http://site/index")
        assert result.reply.status == 200
        result, deck = stack.ua.navigate(result, render(result.document), 1)
        assert result.url == "http://site/next"
        assert deck.lines == ["You made it"]
        plain = stack.ua.fetch("http://site/plain", connectionless=True)
        assert plain.reply.body == b"not a deck"
        assert stack.gateway.session_count() == 1
        assert (security == wtls.MODE_OFF) == (stack.ua._transport
                                               is stack.ua._endpoint)
        # 1 ms each way: the Connect, two Gets and the connectionless Get
        # each take one round trip, and the handshake two
        round_trips = 6 if security == wtls.MODE_FULL else 4
        assert stack.clock.now() == pytest.approx(0.002 * round_trips)
    finally:
        stack.close()
    assert threading.active_count() == threads
    assert _stack_threads() == []
    assert time.monotonic() - started < 2.0


# Seed pairs (user agent, gateway) for the lossy runs below.
LOSS_SEEDS = [(seed, seed + 1) for seed in range(61, 77, 2)]


def lossy_run(ua_seed, gw_seed, count=60):
    """Fetch ``count`` pages in turn over one session at 20% loss each way
    and 1 ms delay.  Return each fetch's ``(status or exception name,
    virtual seconds)`` and the WTP PDUs both ends sent."""
    stack = Stack(loss=0.2, seeds=(ua_seed, gw_seed))
    trace = []
    try:
        for n in range(count):
            started = stack.clock.now()
            try:
                outcome = stack.ua.fetch(
                    "http://site/" + ("index", "next", "plain")[n % 3]
                ).reply.status
            except (wtp.WtpError, wsp.WspError) as exc:
                outcome = type(exc).__name__
            trace.append((outcome, stack.clock.now() - started))
    finally:
        stack.close()
    return trace, stack.pdus


def test_a_lossy_run_repeats_exactly_and_starts_no_thread():
    threads = threading.active_count()
    trace, pdus = lossy_run(*LOSS_SEEDS[0])
    assert lossy_run(*LOSS_SEEDS[0]) == (trace, pdus)
    assert len(trace) == 60
    assert [status for status, _ in trace].count(200) >= 55
    assert pdus >= 3 * 60  # Invoke, Result and Ack, and the resends
    assert threading.active_count() == threads
    assert _stack_threads() == []


if __name__ == "__main__":
    import sys
    if "--loss-sweep" in sys.argv[1:]:
        print("seeds   fetches  failures  p50_ms  p95_ms  pdus/fetch")
        for ua_seed, gw_seed in LOSS_SEEDS:
            trace, pdus = lossy_run(ua_seed, gw_seed)
            took = sorted(seconds for _, seconds in trace)
            failures = sum(1 for status, _ in trace if status != 200)
            print(f"{ua_seed}/{gw_seed}  {len(trace):7d}  {failures:8d}"
                  f"  {took[len(took) // 2] * 1000:6.1f}"
                  f"  {took[int(0.95 * len(took))] * 1000:6.1f}"
                  f"  {pdus / len(trace):10.2f}")
