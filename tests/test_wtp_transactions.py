"""Transaction state machines on a virtual clock: deterministic and fast."""

import logging
import threading
import time
import weakref

import pytest

from wapstack import wtp
from wapstack.bearer import ImpairmentProfile, SimNetwork
from wapstack.clock import VirtualClock
from wapstack.wdp import WdpAddress, WdpDatagram, WdpStack, encode_datagram

SRV = WdpAddress("srv", 2000)
CLI = WdpAddress("cli", 1000)


class Pair:
    """Two providers joined by a simulated network, with trace capture."""

    def __init__(self, cli_policy=None, srv_policy=None,
                 cli_profile=None, srv_profile=None):
        self.clock = VirtualClock()
        self.net = SimNetwork(self.clock)
        self.cli_bearer = self.net.endpoint("cli", cli_profile)
        self.srv_bearer = self.net.endpoint("srv", srv_profile)
        self.events = []
        self.cli = wtp.WtpProvider(
            WdpStack(self.cli_bearer).bind(1000), self.clock, cli_policy,
            trace=lambda e: self.events.append(("cli",) + self._sig(e)))
        self.srv = wtp.WtpProvider(
            WdpStack(self.srv_bearer).bind(2000), self.clock, srv_policy,
            trace=lambda e: self.events.append(("srv",) + self._sig(e)))
        self.indications = []
        self.srv.on_invoke = self._indicate
        self.responder = None  # fn(Invocation) or None

    @staticmethod
    def _sig(e):
        return (e.direction, e.pdu_type, e.rid)

    def _indicate(self, inv):
        self.indications.append(inv)
        if self.responder is not None:
            self.responder(inv)

    def node_events(self, node):
        return [e[1:] for e in self.events if e[0] == node]


def test_class0_completes_immediately_and_indicates_once():
    pair = Pair()
    handle = pair.cli.invoke(SRV, 0, b"notify")
    assert handle.done and handle.state == wtp.DONE
    pair.clock.run_until_idle(limit=1.0)
    assert len(pair.indications) == 1
    assert pair.indications[0].payload == b"notify"
    assert pair.node_events("cli") == [("snd", "Invoke", False)]


def test_class1_completes_on_provider_ack():
    pair = Pair()
    handle = pair.cli.invoke(SRV, 1, b"reliable push")
    assert not handle.done
    pair.clock.advance(0.01)
    assert handle.done and handle.result is None
    assert pair.node_events("srv") == [("rcv", "Invoke", False),
                                       ("snd", "Ack", False)]


def test_class2_round_trip_runs_straight_on_a_bearer():
    # a bearer speaks the transport duck type too, so WTP needs no WDP layer
    clock = VirtualClock()
    net = SimNetwork(clock)
    cli = wtp.WtpProvider(net.endpoint("cli"), clock)
    srv = wtp.WtpProvider(net.endpoint("srv"), clock)
    sources = []

    def respond(inv):
        sources.append(inv.src)
        inv.respond(b"R:" + inv.payload)

    srv.on_invoke = respond
    handle = cli.invoke("srv", 2, b"q")
    clock.advance(0.01)
    assert handle.done and handle.result == b"R:q"
    assert sources == ["cli"]
    cli.close()
    srv.close()


def test_class2_prompt_result_piggybacks_the_ack():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"R:" + inv.payload)
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    assert handle.done and handle.result == b"R:q"
    # no standalone Ack from the responder: the Result carried it
    assert pair.node_events("srv") == [("rcv", "Invoke", False),
                                       ("snd", "Result", False),
                                       ("rcv", "Ack", False)]
    pair.clock.run_until_idle(limit=10.0)
    assert pair.node_events("srv").count(("snd", "Ack", False)) == 0


def test_class2_slow_responder_triggers_standalone_ack():
    pair = Pair()
    pair.responder = lambda inv: pair.clock.call_later(
        0.25, inv.respond, b"late answer")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.15)
    assert not handle.done
    assert ("snd", "Ack", False) in pair.node_events("srv")
    # the standalone Ack stops invoke retransmission
    pair.clock.advance(0.05)
    assert pair.node_events("cli").count(("snd", "Invoke", True)) == 0
    pair.clock.advance(0.2)
    assert handle.done and handle.result == b"late answer"


def test_a_result_long_after_the_ack_still_completes():
    # The application may answer long after the standalone Ack: a gateway
    # waits up to http_timeout_ms (5 s) on its origin.  WTP must wait too.
    pair = Pair()
    pair.responder = lambda inv: pair.clock.call_later(
        3.6, inv.respond, b"slow origin")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.run_until_idle(limit=60.0)
    assert handle.state == wtp.DONE and handle.result == b"slow origin"
    assert pair.node_events("srv") == [
        ("rcv", "Invoke", False), ("snd", "Ack", False),
        ("snd", "Result", False), ("rcv", "Ack", False)]
    assert pair.clock.pending() == 0


def test_results_lost_after_the_ack_are_resent_until_one_arrives():
    pair = Pair()
    pair.responder = lambda inv: pair.clock.call_later(
        0.25, inv.respond, b"late answer")
    # the standalone Ack arrives, the first two Results are lost, and the
    # third gets through
    pair.srv_bearer.set_delivery_script(
        lambda dgram, index: [] if index in (1, 2) else [1])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.run_until_idle(limit=60.0)
    assert handle.state == wtp.DONE and handle.result == b"late answer"
    assert pair.clock.pending() == 0


def test_invoke_retransmits_then_exhausts():
    policy = wtp.RetransmissionPolicy(retry_interval_ms=100, max_retrans=3)
    pair = Pair(cli_policy=policy,
                cli_profile=ImpairmentProfile(loss_prob=1.0))
    handle = pair.cli.invoke(SRV, 2, b"into the void")
    pair.clock.run_until_idle(limit=30.0)
    assert handle.done and handle.state == wtp.ABORTED
    with pytest.raises(wtp.TransactionTimeout):
        handle.wait(0)
    sends = [e for e in pair.node_events("cli") if e[:2] == ("snd", "Invoke")]
    assert len(sends) == 4  # original plus max_retrans
    assert [rid for _, _, rid in sends] == [False, True, True, True]


def test_result_retransmits_until_acked():
    # lose the client's first Ack so the server must repeat its Result
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"answer")

    def script(dgram, index):
        # index 0 is the Invoke; index 1 the first Ack, which we drop
        return [] if index == 1 else [0.1]

    pair.cli_bearer.set_delivery_script(script)
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    assert handle.done
    pair.clock.advance(0.5)
    srv_sends = [e for e in pair.node_events("srv") if e[0] == "snd"]
    assert srv_sends == [("snd", "Result", False), ("snd", "Result", True)]
    # second Result was answered by a repeated Ack; retransmission stops
    pair.clock.run_until_idle(limit=10.0)
    assert [e for e in pair.node_events("srv") if e[0] == "snd"] == srv_sends


def test_result_retransmits_then_exhausts():
    policy = wtp.RetransmissionPolicy(max_retrans=2)
    pair = Pair(srv_policy=policy)
    pair.responder = lambda inv: inv.respond(b"answer")
    # the Invoke gets through; every Ack after it is lost
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [0.01] if index == 0 else [])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.run_until_idle()
    assert handle.done and handle.result == b"answer"
    srv_sends = [e for e in pair.node_events("srv") if e[0] == "snd"]
    assert srv_sends == [("snd", "Result", False), ("snd", "Result", True),
                         ("snd", "Result", True)]
    assert pair.clock.pending() == 0


def test_duplicate_invoke_never_reindicated():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"once")
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [0.1, 0.1] if index == 0 else [0.1])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.run_until_idle(limit=10.0)
    assert handle.done and handle.result == b"once"
    assert len(pair.indications) == 1


@pytest.mark.parametrize("tclass, answer", [
    (1, [("snd", "Ack", False)]),
    (2, [("snd", "Result", False), ("rcv", "Ack", False)]),
], ids=["class1", "class2"])
def test_an_invoke_asking_for_a_user_ack_gets_the_providers_answer(tclass,
                                                                   answer):
    # Bit 2 of byte 0 asks for a user acknowledgement, which this stack
    # never gives: the bit is ignored, so the peer is answered at once
    # rather than retrying until it gives up.
    pair = Pair()
    if tclass == 2:
        pair.responder = lambda inv: inv.respond(b"R")
    peer = WdpStack(pair.net.endpoint("peer")).bind(1000)
    received = []

    def on_datagram(src, data):
        received.append(data)
        if data[0] >> 4 == wtp.PDU_RESULT:
            peer.send(SRV, bytes.fromhex("300007"))  # Ack, tid 7
    peer.set_receiver(on_datagram)
    peer.send(SRV, bytes([0x14, 0x00, 0x07, tclass]) + b"q")
    pair.clock.run_until_idle(limit=10.0)
    assert [inv.payload for inv in pair.indications] == [b"q"]
    assert pair.indications[0].state == wtp.DONE
    assert pair.node_events("srv") == [("rcv", "Invoke", False), *answer]
    assert received == [bytes.fromhex("300007") if tclass == 1
                        else bytes.fromhex("200007") + b"R"]


def test_initiator_abort_reaches_responder():
    pair = Pair()
    aborts = []
    pair.srv.on_abort = lambda src, tid, reason: aborts.append((tid, reason))
    handle = pair.cli.invoke(SRV, 2, b"cancel me")
    pair.clock.advance(0.01)
    handle.abort(reason=0x33)
    pair.clock.advance(0.01)
    assert aborts == [(handle.tid, 0x33)]
    with pytest.raises(wtp.Aborted):
        handle.wait(0)
    with pytest.raises(wtp.AlreadyCompleted):
        handle.abort()


def test_responder_abort_reaches_initiator():
    pair = Pair()
    pair.responder = lambda inv: inv.abort(reason=0x44)
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    with pytest.raises(wtp.Aborted) as exc:
        handle.wait(0)
    assert exc.value.reason == 0x44


def test_respond_requires_class2_and_known_tid():
    pair = Pair()
    handle = pair.cli.invoke(SRV, 1, b"class one")
    pair.clock.advance(0.01)
    inv = pair.indications[0]
    with pytest.raises(wtp.WrongClass):
        inv.respond(b"not allowed")
    with pytest.raises(wtp.UnknownTid):
        pair.srv.respond(WdpAddress("cli", 1000), 9999, b"never invoked")
    assert handle.done


def test_distinct_transactions_progress_concurrently():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"R:" + inv.payload)
    handles = [pair.cli.invoke(SRV, 2, bytes([i])) for i in range(10)]
    assert len({h.tid for h in handles}) == 10
    pair.clock.advance(0.05)
    assert all(h.done and h.result == b"R:" + bytes([i])
               for i, h in enumerate(handles))


def test_malformed_datagrams_counted_not_fatal():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"still fine")
    from wapstack import wdp as wdp_mod
    raw = wdp_mod.encode_datagram(wdp_mod.WdpDatagram(1000, 2000, b"\x12\x00"))
    pair.cli_bearer.send("srv", raw)
    pair.clock.advance(0.01)
    assert pair.srv.malformed_count == 1
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    assert handle.done


@pytest.mark.parametrize("data", [
    b"",
    # two class-0 Invokes behind the old concatenation marker
    bytes.fromhex("00" "0004" "10000100" "0004" "10000200"),
], ids=["empty", "led-by-0x00"])
def test_one_pdu_per_datagram_so_these_are_malformed(data):
    pair = Pair()
    pair.cli_bearer.send("srv", encode_datagram(WdpDatagram(1000, 2000, data)))
    pair.clock.run_until_idle()
    assert pair.srv.malformed_count == 1
    assert pair.indications == [] and pair.node_events("srv") == []


def test_oversize_payload_rejected_up_front():
    pair = Pair()
    with pytest.raises(wtp.OversizePayload):
        pair.cli.invoke(SRV, 2, b"x" * 5000)


def test_trace_includes_class_on_invokes():
    seen = []
    clock = VirtualClock()
    net = SimNetwork(clock)
    cli = wtp.WtpProvider(WdpStack(net.endpoint("cli")).bind(1000), clock,
                          trace=seen.append)
    cli.invoke(WdpAddress("nowhere", 1), 0, b"x")
    assert seen[0].pdu_type == "Invoke" and seen[0].tclass == 0


def test_close_cancels_outstanding_work():
    pair = Pair(cli_profile=ImpairmentProfile(loss_prob=1.0))
    pair.cli.invoke(SRV, 2, b"doomed")
    pair.cli.close()
    with pytest.raises(wtp.WtpError):
        pair.cli.invoke(SRV, 2, b"after close")


def test_close_completes_pending_handles():
    pair = Pair(cli_profile=ImpairmentProfile(loss_prob=1.0))
    handle = pair.cli.invoke(SRV, 2, b"stranded")
    calls = []
    handle.add_done_callback(calls.append)
    pair.cli.close()
    with pytest.raises(wtp.WtpError, match="provider closed"):
        handle.wait(1.0)
    assert handle.state == wtp.ABORTED
    pair.cli.close()
    handle.add_done_callback(calls.append)
    assert calls == [handle, handle]  # once at close, once when added late


def test_wait_wakes_when_another_thread_completes_the_handle():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"woken")
    handle = pair.cli.invoke(SRV, 2, b"q")
    outcome = []
    waiter = threading.Thread(
        target=lambda: outcome.append(handle.wait(5.0).result))
    waiter.start()
    time.sleep(0.05)  # let the waiter block
    assert outcome == []
    pair.clock.advance(0.01)
    waiter.join(timeout=2.0)
    assert not waiter.is_alive()
    assert outcome == [b"woken"]


def test_wait_on_a_finished_handle_returns_at_once():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"early")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    assert handle.done
    started = time.monotonic()
    assert handle.wait() is handle
    assert handle.wait(0) is handle
    assert time.monotonic() - started < 0.5
    assert handle.result == b"early"
    fire_and_forget = pair.cli.invoke(SRV, 0, b"n")
    assert fire_and_forget.wait() is fire_and_forget


def test_wait_with_timeout_on_a_pending_handle_raises():
    pair = Pair(cli_profile=ImpairmentProfile(loss_prob=1.0))
    handle = pair.cli.invoke(SRV, 2, b"q")
    started = time.monotonic()
    with pytest.raises(wtp.TransactionTimeout):
        handle.wait(timeout=0.05)
    assert time.monotonic() - started >= 0.04
    assert not handle.done
    # the handle still completes, and wait then returns
    pair.clock.run_until_idle(limit=30.0)
    with pytest.raises(wtp.TransactionTimeout, match="retransmissions"):
        handle.wait(0)


def test_duplicate_invoke_after_done_gets_ack_not_result():
    pair = Pair()
    # slow enough that the responder sends a standalone Ack first
    pair.responder = lambda inv: pair.clock.call_later(
        0.25, inv.respond, b"late answer")
    # the Invoke arrives twice: at once, and again after the transaction ends
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [0.1, 600] if index == 0 else [0.1])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.5)
    assert handle.done and handle.result == b"late answer"
    assert pair.indications[0].state == wtp.DONE
    pair.clock.run_until_idle(limit=10.0)
    assert [e for e in pair.node_events("srv") if e[0] == "snd"] == [
        ("snd", "Ack", False), ("snd", "Result", False), ("snd", "Ack", True)]
    assert len(pair.indications) == 1


# --- lingering records ------------------------------------------------------------

def test_finished_handle_is_freed_while_its_tid_lingers():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"a result to free")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    assert handle.done
    tid, ref = handle.tid, weakref.ref(handle)
    del handle
    # past the cancelled retry timer, which still names the handle until
    # the clock drops it
    pair.clock.advance(0.5)
    assert ref() is None
    assert tid in pair.cli._initiator  # still lingering


def test_duplicate_result_after_handle_dropped_gets_ack():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"answer")
    # lose the client's first Ack, so the server repeats its Result
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [] if index == 1 else [0.1])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.01)
    assert handle.done and handle.result == b"answer"
    del handle
    pair.clock.run_until_idle(limit=10.0)
    assert pair.node_events("cli") == [
        ("snd", "Invoke", False), ("rcv", "Result", False),
        ("snd", "Ack", False), ("rcv", "Result", True), ("snd", "Ack", True)]
    srv_sends = [e for e in pair.node_events("srv") if e[0] == "snd"]
    assert srv_sends == [("snd", "Result", False), ("snd", "Result", True)]


def test_each_record_is_forgotten_linger_ms_after_it_finished():
    # Class-2 transactions over a link with no delay finish at the instant
    # they are invoked.  Times are multiples of 1/64 s, so the clock's sums
    # are exact.  While a record lingers, a replayed Result gets Ack(rid)
    # and a late respond() or abort() finds it finished; once it is
    # forgotten, the Result is dropped and both raise UnknownTid.
    linger = 0.5
    policy = wtp.RetransmissionPolicy(linger_ms=int(linger * 1000))
    pair = Pair(cli_policy=policy, srv_policy=policy)
    pair.responder = lambda inv: inv.respond(b"R")
    starts, t = [], 0.0
    for n in range(20):  # staggered, and spanning several lingers
        starts.append(t)
        t += (1 + n % 3) / 16
    timeline = sorted([(t0, "invoke", n) for n, t0 in enumerate(starts)]
                      + [(t0 + linger - 1 / 64, "lingers", n)
                         for n, t0 in enumerate(starts)]
                      + [(t0 + linger, "forgotten", n)
                         for n, t0 in enumerate(starts)])
    tids, finished = {}, {}
    for when, what, n in timeline:
        pair.clock.advance(when - pair.clock.now())
        assert pair.clock.pending() == 0  # lingering records hold no timer
        if what == "invoke":
            handle = pair.cli.invoke(SRV, 2, bytes([n]))
            handle.add_done_callback(
                lambda h: finished.setdefault(h.tid, pair.clock.now()))
            tids[n] = handle.tid
            continue
        tid = tids[n]
        assert finished[tid] == starts[n]
        lingering = what == "lingers"
        pair.events.clear()
        pair.cli._on_datagram(SRV, wtp.encode_pdu(
            wtp.WtpPdu(wtp.PDU_RESULT, tid, rid=True, payload=b"R")))
        assert pair.events == [("cli", "rcv", "Result", True)] + (
            [("cli", "snd", "Ack", True)] if lingering else [])
        # respond() and abort() take turns, so each is the first to read
        # the responder table after some record's deadline
        with pytest.raises(wtp.UnknownTid if not lingering else
                           wtp.AlreadyCompleted if n % 2 else wtp.WrongState):
            if n % 2:
                pair.indications[n].abort()
            else:
                pair.srv.respond(CLI, tid, b"late")
    assert pair.clock.pending() == 0
    assert len(pair.indications) == 20


def test_close_during_linger_leaves_no_timer():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"R")
    handles = [pair.cli.invoke(SRV, 2, bytes([i])) for i in range(5)]
    pair.clock.advance(1.0)
    assert all(h.done for h in handles)
    assert pair.clock.pending() == 0  # lingering records hold no timer
    with pytest.raises(wtp.WrongState):  # the records still linger
        pair.srv.respond(CLI, handles[0].tid, b"late")
    pair.cli.close()
    pair.srv.close()
    assert pair.clock.pending() == 0
    assert not pair.cli._initiator and not pair.srv._responder


# --- round-trip estimation ----------------------------------------------------
# Delays are hand-set by delivery scripts (milliseconds per datagram); the
# estimate is RFC 6298's: a first sample R gives SRTT = R, RTTVAR = R/2, and a
# later R' gives RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R'|, SRTT = 7/8 SRTT + 1/8 R'.


def test_rtt_estimate_after_the_first_and_second_sample():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"R")
    # each Result takes 4 ms; the first Invoke and its Ack 4 ms, the second
    # Invoke and its Ack 12 ms
    pair.srv_bearer.set_delivery_script(lambda dgram, index: [4])
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [4] if index < 2 else [12])
    first = pair.cli.invoke(SRV, 2, b"1")
    pair.clock.advance(1.0)
    # Invoke at 0 -> Result at 4 ms -> back at 8 ms -> Ack in at 12 ms
    assert first.result == b"R"
    assert pair.cli._rtt[SRV] == pytest.approx((8.0, 4.0, 1))
    assert pair.srv._rtt[CLI] == pytest.approx((8.0, 4.0, 1))
    second = pair.cli.invoke(SRV, 2, b"2")
    pair.clock.advance(1.0)
    # both ends sample 16 ms: RTTVAR = 3 + 2 = 5, SRTT = 7 + 2 = 9
    assert second.result == b"R"
    assert pair.cli._rtt[SRV] == pytest.approx((9.0, 5.0, 1))
    assert pair.srv._rtt[CLI] == pytest.approx((9.0, 5.0, 1))
    # RTO: the initiator's max(9 + 4*5, 2 x MIN_RTO_MS + 9) = 29; the
    # responder's max(9 + 4*5, MIN_RTO_MS) = 29
    assert pair.cli._retry_delay(second, SRV) == pytest.approx(0.029)
    assert pair.srv._retry_delay(pair.indications[-1], CLI) == \
        pytest.approx(0.029)


@pytest.mark.parametrize("cli_script, srv_script, sampled_by", [
    # the first Invoke is lost and resent; the Result goes once
    (lambda dgram, index: [] if index == 0 else [1], None, {"srv"}),
    # the first Result is lost and resent; the Invoke goes once
    (None, lambda dgram, index: [] if index == 0 else [1], {"cli"}),
    # the Invoke arrives twice, and the copy is answered with the Result again
    (lambda dgram, index: [1, 2] if index == 0 else [1], None, {"cli"}),
], ids=["invoke-resent", "result-resent", "result-answers-duplicate"])
def test_no_sample_from_a_pdu_sent_more_than_once(cli_script, srv_script,
                                                  sampled_by):
    # the server retries first, so a lost Result is not also re-asked for
    pair = Pair(cli_policy=wtp.RetransmissionPolicy(retry_interval_ms=500),
                srv_policy=wtp.RetransmissionPolicy(retry_interval_ms=200))
    pair.responder = lambda inv: inv.respond(b"R")
    pair.cli_bearer.set_delivery_script(cli_script or (lambda d, i: [1]))
    pair.srv_bearer.set_delivery_script(srv_script or (lambda d, i: [1]))
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.run_until_idle(limit=10.0)
    assert handle.result == b"R"
    assert {name for name, provider in (("cli", pair.cli), ("srv", pair.srv))
            if provider._rtt} == sampled_by


def test_retry_intervals_double_and_stop_at_retry_interval_ms():
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"R")
    sends = []

    def cli_script(dgram, index):
        if index < 2:  # the first Invoke and its Ack: 1 ms each way
            return [1]
        sends.append(pair.clock.now())
        return []  # every later Invoke is lost

    pair.cli_bearer.set_delivery_script(cli_script)
    pair.srv_bearer.set_delivery_script(lambda dgram, index: [1])
    pair.cli.invoke(SRV, 2, b"sample")
    pair.clock.advance(1.0)
    # one 2 ms sample: SRTT 2, RTTVAR 1, RTO max(2 + 4, 2 x MIN_RTO_MS + 2)
    # = 22
    assert pair.cli._rtt[SRV] == pytest.approx((2.0, 1.0, 1))
    handle = pair.cli.invoke(SRV, 2, b"lost")
    pair.clock.run_until_idle(limit=10.0)
    gaps = [b - a for a, b in zip(sends, sends[1:])]
    # 22, 44, 88, 176, then capped at 300 until the retry due at 2730 ms,
    # past the (max_retrans + 1) x 300 = 2700 ms deadline, gives up: 11
    # resends; the peer's backoff stops doubling at 64, where half of it
    # takes even MIN_RTO_MS past the cap
    assert gaps == pytest.approx([0.022, 0.044, 0.088, 0.176] + [0.3] * 7)
    assert pair.cli._rtt[SRV] == pytest.approx((2.0, 1.0, 64))
    assert handle.state == wtp.ABORTED
    with pytest.raises(wtp.TransactionTimeout):
        handle.wait(0)


def _converged_pair():
    """A Pair whose ends have both sampled 40 round trips of 1 ms: SRTT 1,
    RTTVAR = 0.5 * 0.75**39, backoff 1."""
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"prompt")
    for bearer in (pair.cli_bearer, pair.srv_bearer):
        bearer.set_delivery_script(lambda dgram, index: [0.5])
    for n in range(40):
        pair.cli.invoke(SRV, 2, bytes([n]))
        pair.clock.advance(0.01)
    srtt, rttvar, backoff = pair.cli._rtt[SRV]
    assert srtt == pytest.approx(1.0) and rttvar < 1e-4 and backoff == 1
    assert pair.srv._rtt[CLI][0] == pytest.approx(1.0)
    pair.events.clear()
    return pair


def test_converged_initiator_resends_a_lost_invoke_after_two_min_rto_plus_srtt():
    pair = _converged_pair()
    sends = []

    def cli_script(dgram, index):
        sends.append(pair.clock.now())
        return [] if len(sends) == 1 else [0.5]  # the first Invoke is lost

    pair.cli_bearer.set_delivery_script(cli_script)
    started = pair.clock.now()
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.5)
    assert handle.result == b"prompt"
    # RTO max(1 + 4 RTTVAR, 2 x MIN_RTO_MS + SRTT) = 21 ms
    assert sends[1] - started == pytest.approx((2 * wtp.MIN_RTO_MS + 1) / 1000)


def test_a_responder_answering_at_90_ms_costs_one_resent_invoke_and_one_ack():
    # The initiator's RTO of 21 ms runs out inside the responder's 100 ms
    # Ack hold.  The resent Invoke gets the Ack at once, which stops the
    # retries; the Result follows when the application answers.
    pair = _converged_pair()
    pair.responder = lambda inv: pair.clock.call_later(0.09, inv.respond,
                                                       b"slow")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.5)
    assert handle.result == b"slow"
    assert pair.node_events("cli") == [
        ("snd", "Invoke", False), ("snd", "Invoke", True),
        ("rcv", "Ack", True), ("rcv", "Result", False), ("snd", "Ack", False)]
    assert len(pair.indications) == 41


def test_a_resent_invoke_during_the_ack_hold_gets_one_ack_at_once():
    # 1 ms each way and a 30 ms retry interval to a new peer: the resent
    # Invoke reaches the responder at 31 ms, inside its 100 ms Ack hold.
    pair = Pair(cli_policy=wtp.RetransmissionPolicy(retry_interval_ms=30))
    pair.cli_bearer.set_delivery_script(lambda dgram, index: [1])
    acks = []
    pair.srv_bearer.set_delivery_script(
        lambda dgram, index: acks.append(pair.clock.now()) or [1])
    pair.responder = lambda inv: pair.clock.call_later(0.3, inv.respond,
                                                       b"late")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.2)  # past the end of the hold, at 101 ms
    assert acks == [pytest.approx(0.031)]
    assert pair.node_events("srv") == [
        ("rcv", "Invoke", False), ("rcv", "Invoke", True),
        ("snd", "Ack", True)]
    assert pair.node_events("cli").count(("snd", "Invoke", True)) == 1
    pair.clock.run_until_idle(limit=10.0)
    assert handle.result == b"late"
    assert len(pair.indications) == 1
    assert pair.node_events("srv")[3:] == [
        ("snd", "Result", False), ("rcv", "Ack", False)]


def test_no_hold_on_ack_for_class1_invokes():
    # A class-1 Invoke is acknowledged on arrival, so no Ack is held and no
    # Invoke is resent.
    pair = Pair(cli_policy=wtp.RetransmissionPolicy(retry_interval_ms=30))
    for bearer in (pair.cli_bearer, pair.srv_bearer):
        bearer.set_delivery_script(lambda dgram, index: [1])
    handle = pair.cli.invoke(SRV, 1, b"q")
    pair.clock.advance(0.058)
    assert pair.node_events("srv") == [("rcv", "Invoke", False),
                                       ("snd", "Ack", False)]
    assert len(pair.indications) == 1
    pair.clock.advance(0.01)
    assert handle.state == wtp.DONE


@pytest.mark.parametrize("end", ["initiator", "responder"])
def test_a_converged_peer_gives_up_at_the_fixed_schedules_deadline(end):
    # Short first intervals must not make a converged peer give up sooner:
    # both ends give up (max_retrans + 1) x retry_interval_ms = 2.7 s after
    # the first send, as with the fixed schedule, and no later than one
    # interval after that.
    pair = _converged_pair()
    if end == "initiator":  # every Invoke is lost
        pair.cli_bearer.set_delivery_script(lambda dgram, index: [])
    else:  # the Invoke arrives; every Ack is lost
        sent = []

        def cli_script(dgram, index):
            sent.append(dgram)
            return [0.5] if len(sent) == 1 else []
        pair.cli_bearer.set_delivery_script(cli_script)
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(0.001)
    record = handle if end == "initiator" else pair.indications[-1]
    pair.clock.advance(2.698)
    assert record.state in (wtp.INVOKE_SENT, wtp.RESULT_SENT)
    pair.clock.advance(0.3)
    assert record.state == wtp.ABORTED


def test_backoff_relearns_a_round_trip_that_grows():
    # Converge at a 1 ms round trip, then make it 200 ms.  Both ends'
    # converged RTOs (21 and 10 ms) are now short, so every transaction
    # resends its Invoke and its Result and gives no sample.  The backoff
    # is kept across transactions until one gives a sample, so the estimate
    # learns the new round trip and the resends stop.
    pair = Pair()
    pair.responder = lambda inv: inv.respond(b"R")
    one_way_ms = [0.5]
    for bearer in (pair.cli_bearer, pair.srv_bearer):
        bearer.set_delivery_script(lambda dgram, index: [one_way_ms[0]])
    for n in range(40):
        pair.cli.invoke(SRV, 2, bytes([n]))
        pair.clock.advance(0.01)
    assert pair.cli._rtt[SRV][0] == pytest.approx(1.0)
    one_way_ms[0] = 100
    resent = []
    for n in range(10):
        before = len(pair.events)
        handle = pair.cli.invoke(SRV, 2, bytes([n]))
        pair.clock.advance(1.0)
        assert handle.result == b"R"
        resent.append(sum(1 for node, direction, _, rid in pair.events[before:]
                          if direction == "snd" and rid))
    assert resent[0] > 0
    assert resent[3:] == [0] * 7, resent
    assert pair.cli._rtt[SRV][0] > 50 and pair.srv._rtt[CLI][0] > 50
    assert len(pair.indications) == 50  # and no duplicate indication


# Seed pairs (client, server) for the lossy runs below: a timer change
# quotes ``python tests/test_wtp_transactions.py --loss-sweep`` before and
# after, with ``src`` on ``PYTHONPATH``.
LOSS_SEEDS = [(seed, seed + 1) for seed in range(61, 77, 2)]


def lossy_run(cli_seed, srv_seed, count=300):
    """Run ``count`` sequential class-2 transactions at 10% loss each way
    and 1 ms delay.  Return each transaction's time in seconds, sorted, the
    rid-flagged PDUs both ends sent per transaction, and the duplicate
    indications; assert that every transaction got its own Result."""
    pair = Pair(cli_profile=ImpairmentProfile(loss_prob=0.1, delay_ms=1,
                                              seed=cli_seed),
                srv_profile=ImpairmentProfile(loss_prob=0.1, delay_ms=1,
                                              seed=srv_seed))
    pair.responder = lambda inv: inv.respond(b"R:" + inv.payload)
    took = []

    def launch(n):
        started = pair.clock.now()
        handle = pair.cli.invoke(SRV, 2, b"%d" % n)

        def done(h):
            took.append((pair.clock.now() - started, h.result))
            if n + 1 < count:
                pair.clock.call_later(0.0, launch, n + 1)
        handle.add_done_callback(done)

    launch(0)
    pair.clock.run_until_idle(limit=600.0)
    assert [result for _, result in took] == [b"R:%d" % n
                                              for n in range(count)]
    resent = sum(1 for _, direction, _, rid in pair.events
                 if direction == "snd" and rid)
    tids = [inv.tid for inv in pair.indications]
    return (sorted(t for t, _ in took), resent / count,
            len(tids) - len(set(tids)))


def test_measured_round_trip_cuts_the_lossy_tail():
    # With a fixed 300 ms retry interval the 95th percentile sits near
    # 300 ms.  A lost Invoke is resent after 2 x MIN_RTO_MS + SRTT and a
    # lost Result after MIN_RTO_MS, so one loss costs about 25 ms, and the
    # initiator's retry falls due after the resent Result has come.
    for cli_seed, srv_seed in LOSS_SEEDS:
        took, resent, duplicates = lossy_run(cli_seed, srv_seed)
        p95 = took[int(0.95 * len(took))]
        assert p95 <= 0.030, (cli_seed, f"p95 {p95 * 1000:.1f} ms")
        assert resent <= 0.55, (cli_seed, f"{resent:.3f} resent PDUs")
        assert duplicates == 0, cli_seed


class _Sink:
    """A transport that drops what it is given; tests feed the receiver."""

    max_payload = 1400

    def set_receiver(self, fn):
        self.receive = fn

    def send(self, dst, payload):
        pass


def test_round_trip_estimates_are_bounded_per_provider():
    transport = _Sink()
    provider = wtp.WtpProvider(transport, VirtualClock())
    provider.on_invoke = lambda inv: inv.respond(b"R")
    sources = [f"handset{n}" for n in range(10_000)]
    for src in sources:  # Invoke, Result, Ack: one sample per source
        transport.receive(src, wtp.encode_pdu(
            wtp.WtpPdu(wtp.PDU_INVOKE, 7, tclass=2)))
        transport.receive(src, wtp.encode_pdu(wtp.WtpPdu(wtp.PDU_ACK, 7)))
    # the least recently sampled are evicted first
    assert list(provider._rtt) == sources[-wtp.MAX_PEERS:]
    provider.close()



# --- sends that raise -------------------------------------------------------------

class _FailingSink(_Sink):
    """A sink whose ``send`` raises ``OSError`` while ``failing`` is set."""

    failing = False

    def send(self, dst, payload):
        if self.failing:
            raise OSError("network is unreachable")


def test_an_invoke_whose_send_raises_ends_aborted_and_frees_its_tid():
    transport = _FailingSink()
    transport.failing = True
    clock = VirtualClock()
    cli = wtp.WtpProvider(transport, clock,
                          wtp.RetransmissionPolicy(linger_ms=500))
    with pytest.raises(OSError):
        cli.invoke("srv", 2, b"q")
    assert clock.pending() == 0
    assert [h.state for h in cli._initiator.values()] == [wtp.ABORTED]
    # the tid is held for linger_ms, as any finished transaction's is
    clock.advance(0.5)
    transport.failing = False
    handle = cli.invoke("srv", 2, b"q")
    assert list(cli._initiator) == [handle.tid]
    cli.close()


def test_a_respond_whose_send_raises_ends_aborted_and_drops_resent_invokes():
    transport = _FailingSink()
    clock = VirtualClock()
    srv = wtp.WtpProvider(transport, clock)
    invocations = []
    srv.on_invoke = invocations.append
    invoke = wtp.WtpPdu(wtp.PDU_INVOKE, 7, tclass=2)
    transport.receive("cli", wtp.encode_pdu(invoke))
    [inv] = invocations
    transport.failing = True
    with pytest.raises(OSError):
        inv.respond(b"R")
    assert inv.state == wtp.ABORTED
    assert clock.pending() == 0  # neither the Ack hold nor a retry is left
    transport.failing = False
    sent = []
    transport.send = lambda dst, payload: sent.append(payload)
    invoke.rid = True
    transport.receive("cli", wtp.encode_pdu(invoke))  # the initiator's retry
    assert sent == [] and invocations == [inv]
    srv.close()


def test_a_resend_that_raises_counts_as_lost_and_the_deadline_still_aborts(
        caplog):
    transport = _FailingSink()
    clock = VirtualClock()
    cli = wtp.WtpProvider(transport, clock, wtp.RetransmissionPolicy(
        retry_interval_ms=50, max_retrans=3))
    handle = cli.invoke("srv", 2, b"q")
    transport.failing = True
    with caplog.at_level(logging.WARNING, logger="wapstack.wtp"):
        clock.advance(2.0)
    assert handle.state == wtp.ABORTED
    assert isinstance(handle.error, wtp.TransactionTimeout)
    assert handle.retransmits == 3
    assert clock.pending() == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"tid {handle.tid}: resend to srv failed: network is unreachable"] * 3
    cli.close()


if __name__ == "__main__":
    import sys
    if "--loss-sweep" in sys.argv[1:]:
        print("seeds   p95_ms  mean_ms  resent/txn  duplicates")
        for cli_seed, srv_seed in LOSS_SEEDS:
            took, resent, duplicates = lossy_run(cli_seed, srv_seed)
            p95 = took[int(0.95 * len(took))]
            mean = sum(took) / len(took)
            print(f"{cli_seed}/{srv_seed}  {p95 * 1000:6.1f}  {mean * 1000:7.2f}"
                  f"  {resent:10.3f}  {duplicates:10d}")
