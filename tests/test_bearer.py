"""Simulated impaired bearer and the UDP adapter."""

import logging
import time
from types import SimpleNamespace

import pytest

from wapstack.bearer import (BearerClosed, ImpairmentProfile, InvalidProfile,
                             OversizeDatagram, SimNetwork, UdpBearer)
from wapstack.clock import VirtualClock
from wapstack.wdp import EndpointClosed, WdpAddress, WdpStack


def make_pair(clock, a_profile=None, b_profile=None):
    net = SimNetwork(clock)
    return net, net.endpoint("a", a_profile), net.endpoint("b", b_profile)


def drain(clock, bearer):
    clock.run_until_idle()
    out = []
    while True:
        item = bearer.recv(timeout=0)
        if item is None:
            return out
        out.append(item)


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
    a.send("b", b"\x00\xffpayload")
    got = drain(clock, b)
    assert got == [("a", b"\x00\xffpayload")]


def test_delay_and_jitter_schedule_in_window():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(delay_ms=50, jitter_ms=20))
    a.send("b", b"x")
    clock.advance(0.049)
    assert b.recv(timeout=0) is None
    clock.advance(0.021)
    assert b.recv(timeout=0) is not None


def test_total_loss_drops_everything():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(loss_prob=1.0))
    for _ in range(20):
        a.send("b", b"x")
    assert drain(clock, b) == []


def test_duplication_delivers_two_copies():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(dup_prob=1.0))
    a.send("b", b"x")
    got = drain(clock, b)
    assert got == [("a", b"x"), ("a", b"x")]


def test_reordering_swaps_adjacent_datagrams():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(reorder_prob=1.0))
    a.send("b", b"1")
    clock.run_until_idle()
    assert b.recv(timeout=0) is None  # held until the next send
    a.send("b", b"2")
    got = drain(clock, b)
    assert got == [("a", b"2"), ("a", b"1")]


def test_close_releases_held_datagram():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(reorder_prob=1.0))
    a.send("b", b"1")
    a.close()
    got = drain(clock, b)
    assert got == [("a", b"1")]


def test_seed_determines_delivery_trace():
    def run():
        clock = VirtualClock()
        profile = ImpairmentProfile(loss_prob=0.3, dup_prob=0.2,
                                    reorder_prob=0.2, delay_ms=5,
                                    jitter_ms=10, seed=7)
        _, a, b = make_pair(clock, profile)
        for i in range(50):
            a.send("b", bytes([i]))
        a.close()
        return drain(clock, b)

    assert run() == run()


def test_delivery_script_overrides_randomness():
    clock = VirtualClock()
    _, a, b = make_pair(clock, ImpairmentProfile(loss_prob=1.0))
    a.set_delivery_script(lambda payload, index: [] if index == 0 else [5, 5])
    a.send("b", b"dropped")
    a.send("b", b"doubled")
    got = drain(clock, b)
    assert got == [("a", b"doubled"), ("a", b"doubled")]
    a.set_delivery_script(None)
    a.send("b", b"lost again")
    assert drain(clock, b) == []


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


def test_set_receiver_drains_backlog():
    clock = VirtualClock()
    _, a, b = make_pair(clock)
    a.send("b", b"1")
    a.send("b", b"2")
    clock.run_until_idle()
    seen = []
    b.set_receiver(lambda src, payload: seen.append((src, payload)))
    assert seen == [("a", b"1"), ("a", b"2")]
    a.send("b", b"3")
    clock.run_until_idle()
    assert seen == [("a", b"1"), ("a", b"2"), ("a", b"3")]


def test_udp_loopback_round_trip():
    a = UdpBearer()
    b = UdpBearer()
    try:
        a.send(b.local_addr, b"ping")
        got = b.recv(timeout=2.0)
        assert got == (a.local_addr, b"ping")
        b.send(got[0], b"pong")
        assert a.recv(timeout=2.0) == (b.local_addr, b"pong")
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
        deadline = time.monotonic() + 2.0
        while len(seen) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
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
        a.send(b.local_addr, b"")
        assert b.recv(timeout=2.0) == (a.local_addr, b"")
        # the reader is still running after the empty datagram
        largest = bytes(range(256)) * 255 + b"x" * 227  # 65,507 B, UDP's limit
        a.send(b.local_addr, largest)
        assert b.recv(timeout=2.0) == (a.local_addr, largest)
    finally:
        a.close()
        b.close()


# --- the receive inbox, on each of its three users ----------------------------

def _sim_inbox():
    clock = VirtualClock()
    _, a, b = make_pair(clock)
    return SimpleNamespace(send=lambda p: a.send("b", p), target=b,
                           settle=clock.run_until_idle,
                           closed_error=BearerClosed, owned=[a, b])


def _udp_inbox():
    a, b = UdpBearer(), UdpBearer()

    def settle():  # the reader thread queues arrivals asynchronously
        deadline = time.monotonic() + 2.0
        while b._backlog.qsize() < 3 and time.monotonic() < deadline:
            time.sleep(0.005)

    return SimpleNamespace(send=lambda p: a.send(b.local_addr, p), target=b,
                           settle=settle, closed_error=BearerClosed, owned=[a, b])


def _wdp_inbox():
    clock = VirtualClock()
    net = SimNetwork(clock)
    a = WdpStack(net.endpoint("a")).bind(100)
    b = WdpStack(net.endpoint("b")).bind(200)
    return SimpleNamespace(send=lambda p: a.send(WdpAddress("b", 200), p),
                           target=b, settle=clock.run_until_idle,
                           closed_error=EndpointClosed, owned=[a, b])


@pytest.mark.parametrize("make", [_sim_inbox, _udp_inbox, _wdp_inbox],
                         ids=["sim", "udp", "wdp"])
def test_inbox_backlog_recv_and_close(make):
    case = make()
    try:
        for payload in (b"1", b"2", b"3"):
            case.send(payload)
        case.settle()
        assert case.target.recv(timeout=0)[1] == b"1"
        seen = []
        case.target.set_receiver(lambda src, payload: seen.append(payload))
        assert seen == [b"2", b"3"]
        case.target.set_receiver(None)
        assert case.target.recv(timeout=0) is None
        case.target.close()
        errors = []
        for _ in range(2):
            with pytest.raises(case.closed_error) as info:
                case.target.recv(timeout=0)
            errors.append(info.value)
        assert errors[0] is not errors[1]
    finally:
        for obj in case.owned:
            obj.close()
