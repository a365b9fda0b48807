"""Record security: codec, key schedule, replay window, PSK handshake."""

import hashlib
import hmac
import random
import re
import struct
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from wapstack import wtls
from wapstack.bearer import SimNetwork
from wapstack.clock import RealClock, VirtualClock
from wapstack.wdp import WdpAddress, WdpStack

PSK = bytes(range(32))
CN = b"c" * wtls.NONCE_LEN
SN = b"s" * wtls.NONCE_LEN


def session_pair(suite):
    return (wtls.SecureSession(PSK, CN, SN, suite, "client"),
            wtls.SecureSession(PSK, CN, SN, suite, "server"))


def test_record_codec_round_trip():
    rec = wtls.WtlsRecord(wtls.CONTENT_APPDATA, 7, b"body", b"m" * 32)
    back = wtls.decode_record(wtls.encode_record(rec), with_mac=True)
    assert back == rec
    plain = wtls.WtlsRecord(wtls.CONTENT_HANDSHAKE, 0, b"hello")
    assert wtls.decode_record(wtls.encode_record(plain), with_mac=False) == plain


def test_structural_damage_classified_by_protection():
    with pytest.raises(wtls.MalformedRecord):
        wtls.decode_record(b"\x01\x00", with_mac=False)
    with pytest.raises(wtls.MacFailure):
        wtls.decode_record(b"\x01\x00", with_mac=True)
    good = wtls.encode_record(wtls.WtlsRecord(3, 0, b"x", b"m" * 32))
    with pytest.raises(wtls.MacFailure):
        wtls.decode_record(good + b"y", with_mac=True)
    with pytest.raises(wtls.MacFailure):
        wtls.decode_record(good[:-1], with_mac=True)


def test_key_schedule_separates_labels_and_nonces():
    keys = {wtls.derive_key(PSK, label, CN, SN)
            for label in (b"c-mac", b"s-mac", b"c-key", b"s-key")}
    assert len(keys) == 4
    assert wtls.derive_key(PSK, b"c-mac", CN, SN) != \
        wtls.derive_key(PSK, b"c-mac", SN, CN)
    assert wtls.derive_key(PSK, b"c-mac", CN, SN) != \
        wtls.derive_key(b"other psk", b"c-mac", CN, SN)


def test_keystream_is_deterministic_and_seq_dependent():
    key = b"k" * 32
    assert wtls.keystream(key, 1, 100) == wtls.keystream(key, 1, 100)
    assert wtls.keystream(key, 1, 100) != wtls.keystream(key, 2, 100)
    assert len(wtls.keystream(key, 1, 7)) == 7



def test_keystream_matches_one_hmac_per_block():
    def reference(traffic_key, seq, length):
        return b"".join(
            hmac.digest(traffic_key, b"ks" + struct.pack("!II", seq, block),
                        "sha256")
            for block in range((length + 31) // 32))[:length]

    key = bytes(range(32))
    for seq in (0, 1000, wtls.MAX_SEQ):
        for length in [*range(1301), 4096, 65462]:
            assert wtls.keystream(key, seq, length) == \
                reference(key, seq, length), (seq, length)


# SHA-256 of the sealed record, at seq 1000, for plaintexts on either side of
# the 32-byte keystream block, and up to 65,462 bytes: the largest body a
# 65,507-byte UDP datagram carries after the WDP header, record header and MAC
@pytest.mark.parametrize("suite, length, digest", [
    (wtls.SUITE_STREAM_MAC, 0, "6b2841b7eec0a1974b5bea4c890531ac47f019a21df850655d60169cdde1f1fb"),
    (wtls.SUITE_STREAM_MAC, 31, "ed5b97ccff1ca0aaf49a09cb8318f02fd884074d692e77457123dde3c25e2694"),
    (wtls.SUITE_STREAM_MAC, 32, "85eaeda2b1abc4a7431835fe85cdd561152a8df7cbb4d6ee96aa0368c70c90f9"),
    (wtls.SUITE_STREAM_MAC, 33, "85887420a8f8873bd70bd9dc90664f270881458f3f4610807043a937193ce76a"),
    (wtls.SUITE_STREAM_MAC, 64, "8b258a3ddef0d872d9afcca41e82ff215b193456bfcbc54906ae9533af36f18f"),
    (wtls.SUITE_STREAM_MAC, 65, "bbbdbd7a759eac772875dcfd8e7db860a9b362fbd9fb8b44c663faaf95015b24"),
    (wtls.SUITE_STREAM_MAC, 1300, "c5d2b8530685c3a631fb2490689a6698fb883987821415fa0e27e0bc7f748654"),
    (wtls.SUITE_STREAM_MAC, 65462, "19efc6670625f94452880ec0546a8fe5149698fd0e2ccd20c67979beb36c2fcd"),
    (wtls.SUITE_NULL_MAC, 0, "6b2841b7eec0a1974b5bea4c890531ac47f019a21df850655d60169cdde1f1fb"),
    (wtls.SUITE_NULL_MAC, 31, "c3a8eceb6230013ff51d3a645a1691de372ee388bb47f89b739fb764edf4d0dc"),
    (wtls.SUITE_NULL_MAC, 32, "d7275aad8bd8749e8a67cb3eb59949ea8552f93ef2e5bf974e4e589f16d17144"),
    (wtls.SUITE_NULL_MAC, 33, "230184b82d956be4fa5c5cb16d68b01408e4486c4f65f1847059995665e4b73e"),
    (wtls.SUITE_NULL_MAC, 64, "92a339f1c5535cf7d331a570536bc22aaafa5c233651775b784d886d0edea0b8"),
    (wtls.SUITE_NULL_MAC, 65, "5253e710d997b14de7fdd2b5c7efa26af8bc0e0a06bcd03886af3595cd8c86dc"),
    (wtls.SUITE_NULL_MAC, 1300, "17b787f4e8fb6e43a1cce9864a282ec860eeb64df802f3242cf064703e3423b3"),
    (wtls.SUITE_NULL_MAC, 65462, "3753f2168cc2947b2ab0883120194fee314be4839f1bd00e9b82bc107a67c2ac"),
])
def test_sealed_record_known_answer(suite, length, digest):
    client, server = session_pair(suite)
    client.send_seq = 1000
    plaintext = bytes(i * 7 % 256 for i in range(length))
    record = wtls.encode_record(client.seal(wtls.CONTENT_APPDATA, plaintext))
    assert len(record) == wtls.HEADER_SIZE + length + wtls.MAC_LEN
    assert hashlib.sha256(record).hexdigest() == digest
    assert server.open_bytes(record) == plaintext


def test_replay_window_semantics():
    win = wtls.ReplayWindow(size=8)
    assert win.accept(0) and win.accept(1) and win.accept(5)
    assert not win.accept(1)          # exact replay
    assert win.accept(3)              # in-window, first sight
    assert win.accept(100)
    assert not win.accept(92)         # older than the window
    assert win.accept(93)             # oldest slot still inside


def test_a_far_sequence_jump_costs_no_more_than_a_near_one():
    # the window is a bitmask of `size` bits, so a jump of 2^24 must not
    # build a 2^24-bit integer on the way
    client, server = session_pair(wtls.SUITE_STREAM_MAC)
    assert server.open(client.seal(wtls.CONTENT_APPDATA, b"first")) == b"first"
    client.send_seq = 1 << 24
    far = client.seal(wtls.CONTENT_APPDATA, b"far")
    tracemalloc.start()
    try:
        assert server.open(far) == b"far"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    win = server.window  # the jump left only the new record's bit set
    assert not win.accept(1 << 24) and not win.accept(0)
    assert win.accept((1 << 24) - 1) and win.accept((1 << 24) - win.size + 1)
    assert not win.accept((1 << 24) - win.size)


@pytest.mark.parametrize("suite", [wtls.SUITE_NULL_MAC, wtls.SUITE_STREAM_MAC])
def test_seal_open_identity(suite):
    client, server = session_pair(suite)
    for i in range(20):
        payload = bytes([i]) * (i * 7 % 50)
        rec = client.seal(wtls.CONTENT_APPDATA, payload)
        assert server.open_bytes(wtls.encode_record(rec)) == payload


def test_stream_suite_hides_plaintext():
    client, _ = session_pair(wtls.SUITE_STREAM_MAC)
    rec = client.seal(wtls.CONTENT_APPDATA, b"top secret payload")
    assert rec.body != b"top secret payload"
    null_client, _ = session_pair(wtls.SUITE_NULL_MAC)
    assert null_client.seal(wtls.CONTENT_APPDATA, b"visible").body == b"visible"


@pytest.mark.parametrize("suite", [wtls.SUITE_NULL_MAC, wtls.SUITE_STREAM_MAC])
def test_any_single_byte_flip_fails_the_mac(suite):
    client, server = session_pair(suite)
    wire = wtls.encode_record(client.seal(wtls.CONTENT_APPDATA, b"hello mac"))
    for pos in range(len(wire)):
        mutated = bytearray(wire)
        mutated[pos] ^= 0x01
        with pytest.raises(wtls.MacFailure):
            server.open_bytes(bytes(mutated))
    # the untouched record still opens: failed attempts poison nothing
    assert server.open_bytes(wire) == b"hello mac"


def test_exact_replay_detected():
    client, server = session_pair(wtls.SUITE_NULL_MAC)
    wire = wtls.encode_record(client.seal(wtls.CONTENT_APPDATA, b"once"))
    assert server.open_bytes(wire) == b"once"
    with pytest.raises(wtls.ReplayDetected):
        server.open_bytes(wire)


def test_cross_psk_records_rejected():
    client, _ = session_pair(wtls.SUITE_NULL_MAC)
    other = wtls.SecureSession(b"different", CN, SN, wtls.SUITE_NULL_MAC,
                               "server")
    wire = wtls.encode_record(client.seal(wtls.CONTENT_APPDATA, b"x"))
    with pytest.raises(wtls.MacFailure):
        other.open_bytes(wire)


def test_sequence_exhaustion():
    client, _ = session_pair(wtls.SUITE_NULL_MAC)
    client.send_seq = wtls.MAX_SEQ
    client.seal(wtls.CONTENT_APPDATA, b"last one")
    with pytest.raises(wtls.SequenceExhausted):
        client.seal(wtls.CONTENT_APPDATA, b"one too many")


@given(payload=st.binary(max_size=300),
       suite=st.sampled_from([wtls.SUITE_NULL_MAC, wtls.SUITE_STREAM_MAC]))
def test_open_seal_identity_property(payload, suite):
    client, server = session_pair(suite)
    assert server.open(client.seal(wtls.CONTENT_APPDATA, payload)) == payload


def test_psk_file_parsing(tmp_path):
    path = tmp_path / "psk"
    path.write_text("# clients\nalice:00ff\n\nbob:a1b2c3\n")
    table = wtls.load_psk_file(str(path))
    assert table == {b"alice": b"\x00\xff", b"bob": b"\xa1\xb2\xc3"}
    bad = tmp_path / "bad"
    bad.write_text("alice=00ff\n")
    with pytest.raises(ValueError):
        wtls.load_psk_file(str(bad))
    bad.write_text("alice:zz\n")
    with pytest.raises(ValueError):
        wtls.load_psk_file(str(bad))
    bad.write_text("bob:a1b2c3\nalice:\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(bad))}:2: empty secret$"):
        wtls.load_psk_file(str(bad))


# --- handshake over a simulated network ------------------------------------

def handshake_fixture(real_clock, mode=wtls.MODE_FULL, client_psk=PSK,
                      allowed=None, drop_first_hello=False):
    net = SimNetwork(real_clock)
    server_bearer = net.endpoint("server")
    client_bearer = net.endpoint("client")
    if drop_first_hello:
        client_bearer.set_delivery_script(
            lambda dgram, index: [] if index == 0 else [0.1])
    server_stack = WdpStack(server_bearer)
    client_stack = WdpStack(client_bearer)
    server = wtls.WtlsServerTransport(
        server_stack.bind(9201), {b"alice": PSK},
        allowed or (wtls.SUITE_NULL_MAC, wtls.SUITE_STREAM_MAC))
    client = wtls.WtlsClientTransport(
        client_stack.bind_ephemeral(), WdpAddress("server", 9201),
        b"alice", client_psk, mode, real_clock,
        rng=random.Random(1))
    return server, client


@pytest.mark.parametrize("mode", [wtls.MODE_INTEGRITY, wtls.MODE_FULL])
def test_handshake_establishes_both_sides(real_clock, mode):
    server, client = handshake_fixture(real_clock, mode)
    client.handshake(timeout=5.0)
    assert client.established
    assert server.session_count() == 1
    # data flows both ways through the established session
    got = []
    server.set_receiver(lambda src, data: (got.append(data),
                                           server.send(src, b"pong")))
    back = []
    client.set_receiver(lambda src, data: back.append(data))
    client.send(WdpAddress("server", 9201), b"ping")
    import time
    deadline = time.monotonic() + 2.0
    while not back and time.monotonic() < deadline:
        time.sleep(0.01)
    assert got == [b"ping"] and back == [b"pong"]


def test_handshake_survives_lost_client_hello(real_clock):
    server, client = handshake_fixture(real_clock, drop_first_hello=True)
    client.handshake(timeout=5.0)
    assert client.established


def test_wrong_psk_fails_authentication(real_clock):
    server, client = handshake_fixture(real_clock, client_psk=b"not the key")
    with pytest.raises(wtls.AuthenticationFailure):
        client.handshake(timeout=5.0)
    assert server.handshake_failures == 1
    assert server.session_count() == 0


def test_unknown_identity_fails_authentication(real_clock):
    net = SimNetwork(real_clock)
    server_stack = WdpStack(net.endpoint("server"))
    wtls.WtlsServerTransport(server_stack.bind(9201), {b"alice": PSK})
    client_stack = WdpStack(net.endpoint("client"))
    client = wtls.WtlsClientTransport(
        client_stack.bind_ephemeral(), WdpAddress("server", 9201),
        b"mallory", PSK, wtls.MODE_FULL, real_clock)
    with pytest.raises(wtls.AuthenticationFailure):
        client.handshake(timeout=5.0)


def test_suite_mismatch_alert(real_clock):
    server, client = handshake_fixture(real_clock, mode=wtls.MODE_FULL,
                                       allowed=(wtls.SUITE_NULL_MAC,))
    with pytest.raises(wtls.SuiteMismatch):
        client.handshake(timeout=5.0)
    assert server.handshake_failures == 1


class _RecordingEndpoint:
    max_payload = 1394

    def __init__(self):
        self.sent = []
        self.deliver = None

    def set_receiver(self, cb):
        self.deliver = cb

    def send(self, dst, data):
        self.sent.append(data)


@pytest.mark.parametrize("identity, suites, alert", [
    (b"mallory", [wtls.SUITE_NULL_MAC], wtls.ALERT_AUTH_FAILURE),
    (b"alice", [0x7F], wtls.ALERT_SUITE_MISMATCH),
], ids=["unknown-identity", "no-common-suite"])
def test_refused_hello_alert_wire_bytes(identity, suites, alert):
    endpoint = _RecordingEndpoint()
    server = wtls.WtlsServerTransport(endpoint, {b"alice": PSK})
    hello = wtls.encode_record(wtls.WtlsRecord(
        wtls.CONTENT_HANDSHAKE, 0,
        wtls.build_client_hello(identity, b"n" * 16, suites)))
    for _ in range(2):  # no peer state is kept: each refusal is seq 0
        endpoint.deliver(WdpAddress("client", 1), hello)
    assert endpoint.sent == [bytes([wtls.CONTENT_ALERT, 0, 0, 0, 0, 0, 1,
                                    alert])] * 2
    assert server.handshake_failures == 2


def test_tampered_appdata_counts_as_drop(real_clock):
    server, client = handshake_fixture(real_clock)
    client.handshake(timeout=5.0)
    got = []
    server.set_receiver(lambda src, data: got.append(data))
    rec = client.session.seal(wtls.CONTENT_APPDATA, b"data")
    wire = bytearray(wtls.encode_record(rec))
    wire[-1] ^= 0xFF
    # bypass the transport and inject the damaged record directly
    client._endpoint.send(WdpAddress("server", 9201), bytes(wire))
    import time
    time.sleep(0.1)
    assert got == []
    assert server.drop_count == 1


class _WireEnd:
    max_payload = 1394

    def __init__(self, wire, addr):
        self.wire, self.addr, self.deliver = wire, addr, None

    def set_receiver(self, cb):
        self.deliver = cb

    def send(self, dst, data):
        self.wire.sent.append((self.addr.host, int.from_bytes(data[1:5], "big"),
                               data.hex()))
        if self.wire.clock is not None:
            self.wire.sent_at.append(self.wire.clock.now())
        self.wire.queue.append((self.addr, dst, data))

    def close(self):
        pass


class _Wire:
    """Endpoints joined by one queue that the test pumps; every send is kept,
    and timed on ``clock`` when one is given."""

    def __init__(self, clock=None):
        self.clock = clock
        self.sent_at = []  # clock.now() at each send
        self.sent = []     # (sender host, record seq, record hex) in send order
        self.queue = []
        self.nodes = {}

    def endpoint(self, addr):
        self.nodes[addr] = _WireEnd(self, addr)
        return self.nodes[addr]

    def pump(self, drop=()):
        """Deliver until quiet; skip the records whose hex is in ``drop``."""
        while self.queue:
            src, dst, data = self.queue.pop(0)
            if data.hex() not in drop:
                self.nodes[dst].deliver(src, data)

    def take(self):
        sent, self.sent = self.sent, []
        return sent


def _record(content_type, seq, body_hex):
    body = bytes.fromhex(body_hex)
    return (bytes([content_type]) + seq.to_bytes(4, "big")
            + len(body).to_bytes(2, "big") + body).hex()


# seeds 1 and 2 give the client nonces; both handsets offer the full suite
_HELLO = {seed: _record(wtls.CONTENT_HANDSHAKE, 0, "0105616c696365" + nonce
                        + "0101")
          for seed, nonce in ((1, "f5b165224a58b791df6af1d8303e61cd"),
                              (2, "73a9bef499bbf4dc7bd2a4f2c8af5bd9"))}
_SERVER_HELLO = "02" + "53" * 16 + "01"
_CLIENT_FINISHED = ("03" "2185e5574e76fbcaf945144e5d38e7ad"
                    "35726c116007b8fe1a8aae4fd81b6c54")
_SERVER_FINISHED = ("03" "644650603c2898d165e862dc7003faa5"
                    "7904ac1797155d878b6bcc548dc49d55")


def test_handshake_record_bytes(monkeypatch):
    # the server nonce is os.urandom's; the client's comes from its rng
    monkeypatch.setattr(wtls.os, "urandom", lambda n: b"S" * n)
    clock = VirtualClock()
    wire = _Wire()
    server_addr = WdpAddress("server", 9201)
    server = wtls.WtlsServerTransport(wire.endpoint(server_addr),
                                      {b"alice": PSK})

    def client(host, psk, seed):
        return wtls.WtlsClientTransport(
            wire.endpoint(WdpAddress(host, 49152)), server_addr, b"alice",
            psk, wtls.MODE_FULL, clock, rng=random.Random(seed))

    hs = wtls.CONTENT_HANDSHAKE
    # a clean handshake: hello, hello, and one Finished each way
    alice = client("c1", PSK, 1)
    alice.handshake(wait=False)
    wire.pump()
    assert alice.established and server.session_count() == 1
    assert wire.take() == [
        ("c1", 0, _HELLO[1]),
        ("server", 0, _record(hs, 0, _SERVER_HELLO)),
        ("c1", 1, _record(hs, 1, _CLIENT_FINISHED)),
        ("server", 1, _record(hs, 1, _SERVER_FINISHED)),
    ]
    # a retransmitted ClientHello gets the same ServerHello at the next seq
    wire.queue.append((WdpAddress("c1", 49152), server_addr,
                       bytes.fromhex(_HELLO[1])))
    wire.pump()
    assert wire.take() == [("server", 2, _record(hs, 2, _SERVER_HELLO))]

    # the server's Finished is lost: the timer that the ClientHello armed
    # resends the client's Finished 0.5 s after the hello
    bob = client("c2", PSK, 1)
    bob.handshake(wait=False)
    wire.pump(drop={_record(hs, 1, _SERVER_FINISHED)})
    assert [(host, seq) for host, seq, _ in wire.take()] == [
        ("c2", 0), ("server", 0), ("c2", 1), ("server", 1)]
    assert not bob.established
    clock.advance(0.49)
    assert wire.sent == []
    clock.advance(0.01)
    wire.pump()
    assert wire.take() == [("c2", 2, _record(hs, 2, _CLIENT_FINISHED)),
                           ("server", 2, _record(hs, 2, _SERVER_FINISHED))]
    assert bob.established and server.session_count() == 2

    # a Finished under the wrong psk is answered by an alert at the peer's
    # next handshake seq, and the peer is forgotten
    mallory = client("c3", b"not the key", 2)
    mallory.handshake(wait=False)
    wire.pump()
    assert wire.take() == [
        ("c3", 0, _HELLO[2]),
        ("server", 0, _record(hs, 0, _SERVER_HELLO)),
        ("c3", 1, _record(hs, 1, "03" "ae43da1619f246c8632740a9ec88b50b"
                                 "09c574ccbc216e1ffe9d46c03050b2bc")),
        ("server", 1, _record(wtls.CONTENT_ALERT, 1, "01")),
    ]
    assert not mallory.established
    assert server.handshake_failures == 1 and server.session_count() == 2


def test_client_opens_records_only_from_its_gateway():
    wire = _Wire()
    server_addr, client_addr = WdpAddress("server", 9201), WdpAddress("c1", 1)
    server = wtls.WtlsServerTransport(wire.endpoint(server_addr),
                                      {b"alice": PSK})
    client = wtls.WtlsClientTransport(
        wire.endpoint(client_addr), server_addr, b"alice", PSK,
        wtls.MODE_FULL, VirtualClock(), rng=random.Random(1))
    got = []
    client.set_receiver(lambda src, data: got.append((src, data)))
    client.handshake(wait=False)
    wire.pump()
    hello = bytes.fromhex(wire.take()[0][2])
    # a record sealed under the session, but from another address, is dropped
    server.send(client_addr, b"one")
    server.send(client_addr, b"two")
    (_, _, forged), (_, _, sent) = wire.queue
    wire.queue = [(WdpAddress("elsewhere", 9201), client_addr, forged),
                  (server_addr, client_addr, sent)]
    wire.pump()
    assert got == [(server_addr, b"two")] and client.drop_count == 1
    # once established, a repeated ServerHello is ignored, not counted
    wire.queue.append((client_addr, server_addr, hello))
    wire.pump()
    assert client.established and client.drop_count == 1


def test_close_wakes_a_waiting_handshake(real_clock):
    wire = _Wire()  # nothing answers the hello
    client = wtls.WtlsClientTransport(
        wire.endpoint(WdpAddress("c1", 1)), WdpAddress("server", 9201),
        b"alice", PSK, wtls.MODE_FULL, real_clock, rng=random.Random(1))
    raised = []

    def run():
        try:
            client.handshake(timeout=5.0)
        except wtls.WtlsError as exc:
            raised.append(exc)

    waiter = threading.Thread(target=run)
    waiter.start()
    deadline = time.monotonic() + 2.0
    while not wire.sent and time.monotonic() < deadline:
        time.sleep(0.01)
    client.close()
    waiter.join(timeout=2.0)
    assert not waiter.is_alive()
    assert [str(exc) for exc in raised] == ["transport closed"]
    assert not client.established


def test_an_unanswered_handshake_gives_up_after_four_retries():
    clock = VirtualClock()
    wire = _Wire(clock)  # nothing answers the hello
    client = wtls.WtlsClientTransport(
        wire.endpoint(WdpAddress("c1", 1)), WdpAddress("server", 9201),
        b"alice", PSK, wtls.MODE_FULL, clock, rng=random.Random(1))
    with pytest.raises(wtls.WtlsError) as raised:
        client.handshake(timeout=5.0)  # runs the clock on this thread
    assert (type(raised.value), str(raised.value)) == (
        wtls.HandshakeTimeout, "no response after 4 retries")
    assert wire.sent_at == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert clock.now() == 2.5  # it gave up at 2.5 s
    assert clock.pending() == 0  # and armed nothing more
    assert not client.established


def test_half_open_peers_are_bounded_and_sessions_survive_a_hello_flood():
    wire = _Wire()
    server_addr, client_addr = WdpAddress("server", 9201), WdpAddress("c1", 1)
    server = wtls.WtlsServerTransport(wire.endpoint(server_addr),
                                      {b"alice": PSK})
    client = wtls.WtlsClientTransport(
        wire.endpoint(client_addr), server_addr, b"alice", PSK,
        wtls.MODE_FULL, VirtualClock(), rng=random.Random(1))
    client.handshake(wait=False)
    wire.pump()
    assert client.established
    # 10,000 hellos for a known identity from distinct addresses, none of
    # which ever sends its Finished
    deliver = wire.nodes[server_addr].deliver
    for n in range(10_000):
        deliver(WdpAddress(f"flood{n}", 1), wtls.encode_record(wtls.WtlsRecord(
            wtls.CONTENT_HANDSHAKE, 0, wtls.build_client_hello(
                b"alice", n.to_bytes(wtls.NONCE_LEN, "big"),
                [wtls.SUITE_STREAM_MAC]))))
    wire.queue.clear()
    half_open = [addr for addr, peer in server._peers.items()
                 if peer.session is None]
    # the oldest are evicted first, and each eviction is counted
    assert half_open == [WdpAddress(f"flood{n}", 1)
                         for n in range(10_000 - wtls.MAX_HALF_OPEN, 10_000)]
    assert server.half_open_evictions == 10_000 - wtls.MAX_HALF_OPEN
    assert server.session_count() == 1
    got = []
    server.set_receiver(lambda src, data: got.append((src, data)))
    client.send(server_addr, b"still here")
    wire.pump()
    assert got == [(client_addr, b"still here")]
