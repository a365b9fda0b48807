"""Datagram service framing and port multiplexing."""

import pytest
from hypothesis import given, strategies as st

from wapstack import wdp
from wapstack.bearer import ImpairmentProfile, OversizeDatagram, SimNetwork
from wapstack.clock import VirtualClock

from conftest import collect


def test_header_worked_example():
    data = wdp.encode_datagram(wdp.WdpDatagram(9200, 9201, b"AB"))
    assert data == bytes.fromhex("23f023f100024142")
    back = wdp.decode_datagram(data)
    assert (back.src_port, back.dst_port, back.payload) == (9200, 9201, b"AB")


@given(src=st.integers(1, 65535), dst=st.integers(1, 65535),
       payload=st.binary(max_size=512))
def test_codec_round_trip(src, dst, payload):
    back = wdp.decode_datagram(
        wdp.encode_datagram(wdp.WdpDatagram(src, dst, payload)))
    assert (back.src_port, back.dst_port, back.payload) == (src, dst, payload)


def test_port_zero_rejected():
    with pytest.raises(wdp.InvalidPort):
        wdp.encode_datagram(wdp.WdpDatagram(0, 1, b""))


def test_truncated_header_rejected():
    with pytest.raises(wdp.TruncatedDatagram):
        wdp.decode_datagram(b"\x00\x01\x00\x02")


def test_length_field_mismatches_rejected():
    good = wdp.encode_datagram(wdp.WdpDatagram(1, 2, b"abcd"))
    with pytest.raises(wdp.TruncatedDatagram):
        wdp.decode_datagram(good[:-1])     # shorter than length claims
    with pytest.raises(wdp.LengthMismatch):
        wdp.decode_datagram(good + b"x")   # longer than length claims


def make_stacks():
    clock = VirtualClock()
    net = SimNetwork(clock)
    return clock, wdp.WdpStack(net.endpoint("a")), wdp.WdpStack(net.endpoint("b"))


def test_port_demultiplexing():
    clock, sa, sb = make_stacks()
    a1 = sa.bind(100)
    b1 = sb.bind(200)
    b2 = sb.bind(201)
    at_200, at_201 = collect(b1), collect(b2)
    a1.send(wdp.WdpAddress("b", 200), b"to-200")
    a1.send(wdp.WdpAddress("b", 201), b"to-201")
    clock.run_until_idle()
    assert at_200 == [(wdp.WdpAddress("a", 100), b"to-200")]
    assert at_201 == [(wdp.WdpAddress("a", 100), b"to-201")]
    assert sb.dropped_count == 0


def test_unbound_port_and_malformed_count_as_dropped():
    clock, sa, sb = make_stacks()
    a1 = sa.bind(100)
    a1.send(wdp.WdpAddress("b", 999), b"nobody home")
    sa.bearer.send("b", b"\x01\x02")  # shorter than a WDP header
    clock.run_until_idle()
    assert sb.dropped_count == 2


def test_bind_conflicts_and_ephemeral_ports():
    _, sa, _ = make_stacks()
    sa.bind(100)
    with pytest.raises(wdp.PortInUse):
        sa.bind(100)
    with pytest.raises(wdp.InvalidPort):
        sa.bind(0)
    e1 = sa.bind_ephemeral()
    e2 = sa.bind_ephemeral()
    assert e1.port != e2.port and e1.port >= 49152


def test_max_payload_accounts_for_header():
    clock = VirtualClock()
    net = SimNetwork(clock)
    stack = wdp.WdpStack(net.endpoint("a", ImpairmentProfile(mtu_bytes=100)))
    ep = stack.bind(1)
    assert ep.max_payload == 94
    with pytest.raises(OversizeDatagram):
        ep.send(wdp.WdpAddress("b", 1), b"x" * 95)


def test_endpoint_close_unbinds_and_blocks_send():
    clock, sa, sb = make_stacks()
    a1 = sa.bind(100)
    b1 = sb.bind(200)
    b1.close()
    a1.send(wdp.WdpAddress("b", 200), b"late")
    clock.run_until_idle()
    assert sb.dropped_count == 1
    with pytest.raises(wdp.EndpointClosed):
        b1.send(wdp.WdpAddress("a", 100), b"x")
    sb.bind(200)  # port is free again


def test_receiver_callback_gets_source_address():
    clock, sa, sb = make_stacks()
    a1 = sa.bind(100)
    b1 = sb.bind(200)
    seen = collect(b1)
    a1.send(wdp.WdpAddress("b", 200), b"hello")
    clock.run_until_idle()
    assert seen == [(wdp.WdpAddress("a", 100), b"hello")]
