"""Simulated impaired bearer and the UDP adapter."""

import logging
import time
from types import SimpleNamespace

import pytest

from wapstack.bearer import (BearerClosed, ImpairmentProfile, InvalidProfile,
                             OversizeDatagram, SimNetwork, UdpBearer)
from wapstack.clock import VirtualClock
from wapstack.wdp import EndpointClosed, WdpAddress, WdpStack

from conftest import collect


def make_pair(clock, a_profile=None, b_profile=None):
    net = SimNetwork(clock)
    return net, net.endpoint("a", a_profile), net.endpoint("b", b_profile)


def wait_for(got, count):
    """Wait up to 2 s for a UDP reader to deliver ``count`` arrivals."""
    deadline = time.monotonic() + 2.0
    while len(got) < count and time.monotonic() < deadline:
        time.sleep(0.005)


@pytest.mark.parametrize("bad", [
    ImpairmentProfile(loss_prob=1.5),
    ImpairmentProfile(dup_prob=-0.1),
    ImpairmentProfile(reorder_prob=2.0),
    ImpairmentProfile(delay_ms=-1),
    ImpairmentProfile(jitter_ms=-1),
    ImpairmentProfile(mtu_bytes=63),
])
def test_profile_validation(bad):
    with pytest.raises(InvalidProfile):
        bad.validate()


def test_clean_delivery_preserves_bytes_and_addresses():
    clock = VirtualClock()
    _, a, b = make_pair(clock)
    got = collect(b)
    a.send("b", b"\x00\xffpayload")
    clock.run_until_idle()
    assert got == [("a", b"\x00\xffpayload")]


def test_delay_and_jitter_schedule_in_window():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(delay_ms=50, jitter_ms=20))
    got = collect(b)
    a.send("b", b"x")
    clock.advance(0.049)
    assert got == []
    clock.advance(0.021)
    assert got == [("a", b"x")]


def test_total_loss_drops_everything():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(loss_prob=1.0))
    got = collect(b)
    for _ in range(20):
        a.send("b", b"x")
    clock.run_until_idle()
    assert got == []


def test_duplication_delivers_two_copies():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(dup_prob=1.0))
    got = collect(b)
    a.send("b", b"x")
    clock.run_until_idle()
    assert got == [("a", b"x"), ("a", b"x")]


def test_reordering_swaps_adjacent_datagrams():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(reorder_prob=1.0))
    got = collect(b)
    a.send("b", b"1")
    clock.run_until_idle()
    assert got == []  # held until the next send
    a.send("b", b"2")
    clock.run_until_idle()
    assert got == [("a", b"2"), ("a", b"1")]


def test_close_releases_held_datagram():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(reorder_prob=1.0))
    got = collect(b)
    a.send("b", b"1")
    a.close()
    clock.run_until_idle()
    assert got == [("a", b"1")]


def test_seed_determines_delivery_trace():
    def run():
        clock = VirtualClock()
        profile = ImpairmentProfile(loss_prob=0.3, dup_prob=0.2,
                                    reorder_prob=0.2, delay_ms=5,
                                    jitter_ms=10, seed=7)
        _, a, b = make_pair(clock, profile)
        got = collect(b)
        for i in range(50):
            a.send("b", bytes([i]))
        a.close()
        clock.run_until_idle()
        return got

    assert run() == run()


def test_delivery_script_overrides_randomness():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(loss_prob=1.0))
    got = collect(b)
    a.set_delivery_script(lambda payload, index: [] if index == 0 else [5, 5])
    a.send("b", b"dropped")
    a.send("b", b"doubled")
    clock.run_until_idle()
    assert got == [("a", b"doubled"), ("a", b"doubled")]
    a.set_delivery_script(None)
    a.send("b", b"lost again")
    clock.run_until_idle()
    assert got == [("a", b"doubled"), ("a", b"doubled")]


def test_oversize_and_closed_errors():
    clock = VirtualClock()
    _, a, _ = make_pair(clock, ImpairmentProfile(mtu_bytes=64))
    with pytest.raises(OversizeDatagram):
        a.send("b", b"x" * 65)
    a.close()
    with pytest.raises(BearerClosed):
        a.send("b", b"x")


def test_duplicate_address_rejected():
    net = SimNetwork(VirtualClock())
    net.endpoint("a")
    with pytest.raises(ValueError):
        net.endpoint("a")


def test_udp_loopback_round_trip():
    a = UdpBearer()
    b = UdpBearer()
    try:
        at_a, at_b = collect(a), collect(b)
        a.send(b.local_addr, b"ping")
        wait_for(at_b, 1)
        assert at_b == [(a.local_addr, b"ping")]
        b.send(at_b[0][0], b"pong")
        wait_for(at_a, 1)
        assert at_a == [(b.local_addr, b"pong")]
    finally:
        a.close()
        b.close()


def test_udp_reader_survives_a_raising_receiver(caplog):
    a, b = UdpBearer(), UdpBearer()
    seen = []

    def receiver(src, payload):
        seen.append(payload)
        if len(seen) == 1:
            raise RuntimeError("receiver bug")

    b.set_receiver(receiver)
    try:
        a.send(b.local_addr, b"1")
        a.send(b.local_addr, b"2")
        wait_for(seen, 2)
        assert seen == [b"1", b"2"]
        logged = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(logged) == 1
        assert str(logged[0].exc_info[1]) == "receiver bug"
    finally:
        a.close()
        b.close()


def test_udp_oversize_and_close():
    a = UdpBearer(mtu=64)
    with pytest.raises(OversizeDatagram):
        a.send("127.0.0.1:1", b"x" * 65)
    a.close()
    with pytest.raises(BearerClosed):
        a.send("127.0.0.1:1", b"x")


def test_udp_close_frees_the_reader_and_the_port():
    a = UdpBearer()
    reader = a._thread
    host, port = a.local_addr.split(":")
    a.close()
    assert not reader.is_alive()
    again = UdpBearer((host, int(port)))
    again.close()


def test_udp_empty_and_largest_datagrams_arrive_whole():
    a, b = UdpBearer(mtu=65507), UdpBearer()
    try:
        got = collect(b)
        a.send(b.local_addr, b"")
        wait_for(got, 1)
        assert got == [(a.local_addr, b"")]
        # the reader is still running after the empty datagram
        largest = bytes(range(256)) * 255 + b"x" * 227  # 65,507 B, UDP's limit
        a.send(b.local_addr, largest)
        wait_for(got, 2)
        assert got == [(a.local_addr, b""), (a.local_addr, largest)]
    finally:
        a.close()
        b.close()


# --- the receive inbox, on each of its three users ----------------------------

def _sim_inbox():
    clock = VirtualClock()
    _, a, b = make_pair(clock)
    return SimpleNamespace(send=lambda p: a.send("b", p), target=b, src="a",
                           settle=lambda got: clock.run_until_idle(),
                           closed_error=BearerClosed, owned=[a, b])


def _udp_inbox():
    a, b = UdpBearer(), UdpBearer()
    return SimpleNamespace(send=lambda p: a.send(b.local_addr, p), target=b,
                           src=a.local_addr,
                           settle=lambda got: wait_for(got, 1),
                           closed_error=BearerClosed, owned=[a, b])


def _wdp_inbox():
    clock = VirtualClock()
    net = SimNetwork(clock)
    a = WdpStack(net.endpoint("a")).bind(100)
    b = WdpStack(net.endpoint("b")).bind(200)
    return SimpleNamespace(send=lambda p: a.send(WdpAddress("b", 200), p),
                           target=b, src=WdpAddress("a", 100),
                           settle=lambda got: clock.run_until_idle(),
                           closed_error=EndpointClosed, owned=[a, b])


@pytest.mark.parametrize("make", [_sim_inbox, _udp_inbox, _wdp_inbox],
                         ids=["sim", "udp", "wdp"])
def test_a_closed_inbox_refuses_sends_and_drops_arrivals(make):
    case = make()
    try:
        got = collect(case.target)
        case.send(b"open")
        case.settle(got)
        assert got == [(case.src, b"open")]
        case.target.close()
        errors = []
        for _ in range(2):
            with pytest.raises(case.closed_error) as info:
                case.target.send(case.src, b"x")
            errors.append(info.value)
        assert errors[0] is not errors[1]
        case.send(b"closed")
        case.target._arrive(case.src, b"raced close")  # delivery mid-close
        case.settle(got)
        assert got == [(case.src, b"open")]
    finally:
        for obj in case.owned:
            obj.close()
