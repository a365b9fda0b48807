"""End-to-end acceptance checks for the full stack.

Each test prints one PASS line so the suite doubles as a checklist:

 1. reliable fetching through the gateway over a lossy simulated bearer
 2. hand-computed retransmission trace oracles on a virtual clock
 3. exactly-once delivery under randomized impairments at scale
 4. class-0 transactions never retransmit
 5. record security: MAC coverage, replay rejection, PSK authentication
 6. content codec identities and compactness
 7. session header codec and suspend/resume identity preservation
 8. simulated and UDP bearers are behaviorally interchangeable
 9. every layer runs standalone and the layers compose unmodified
"""

import random
import string
import time

import pytest

from wapstack import wml, wsp, wtls, wtp
from wapstack.bearer import ImpairmentProfile, SimNetwork, UdpBearer
from wapstack.clock import RealClock, VirtualClock
from wapstack.gateway import Gateway, GatewayConfig, local_content_fetch
from wapstack.useragent import UserAgent
from wapstack.wdp import WdpAddress, WdpStack

from conftest import (StubOrigin, collect, count_elements, document_corpus,
                      random_document)


def ok(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


# --- 1. reliable fetching over a lossy bearer ---------------------------------

def _fetch_run(origin_url, pages, loss, n_fetches):
    clock = RealClock()
    policy = wtp.RetransmissionPolicy(retry_interval_ms=120, max_retrans=8)
    assert policy.max_retrans == 8
    net = SimNetwork(clock)
    config = GatewayConfig(
        impairments=ImpairmentProfile(loss_prob=loss, seed=1001))
    service = Gateway(config, clock=clock, network=net, policy=policy)
    ua = UserAgent(WdpAddress("gateway", 9201),
                   net.endpoint("handset",
                                ImpairmentProfile(loss_prob=loss, seed=2002)),
                   clock=clock, policy=policy, timeout=10.0)
    paths = sorted(pages)
    successes = 0
    try:
        for i in range(n_fetches):
            path = paths[i % len(paths)]
            try:
                result = ua.fetch(origin_url + path)
            except Exception:
                continue
            if (result.reply.status == 200
                    and result.document == wml.parse(pages[path])):
                successes += 1
    finally:
        ua.close()
        service.close()
        clock.close()
    return successes


def test_criterion_1_reliable_fetch_through_gateway():
    rng = random.Random(42)
    pages = {f"/page{i}": wml.serialize(random_document(rng, min_elements=5))
             for i in range(5)}
    origin = StubOrigin({path: ("text/vnd.wap.wml", text.encode())
                         for path, text in pages.items()})
    started = time.monotonic()
    try:
        clean = _fetch_run(origin.url, pages, loss=0.0, n_fetches=100)
        assert clean == 100, f"only {clean}/100 clean fetches matched"
        lossy = _fetch_run(origin.url, pages, loss=0.20, n_fetches=100)
        assert lossy >= 99, f"only {lossy}/100 fetches succeeded at 20% loss"
    finally:
        origin.close()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    ok(1, f"reliable-fetch (100/100 clean, {lossy}/100 at 20% loss, "
          f"{elapsed:.1f}s)")


# --- 2. retransmission trace oracles ------------------------------------------

SRV = WdpAddress("srv", 2000)


class TracedPair:
    def __init__(self, cli_policy=None, srv_policy=None):
        self.clock = VirtualClock()
        net = SimNetwork(self.clock)
        delay = ImpairmentProfile(delay_ms=10)
        self.cli_bearer = net.endpoint("cli", delay)
        self.srv_bearer = net.endpoint("srv", ImpairmentProfile(delay_ms=10))
        self.events = []
        self.cli = wtp.WtpProvider(
            WdpStack(self.cli_bearer).bind(1000), self.clock, cli_policy,
            trace=lambda e: self.events.append(
                ("cli", e.direction, e.pdu_type, e.rid)))
        self.srv = wtp.WtpProvider(
            WdpStack(self.srv_bearer).bind(2000), self.clock, srv_policy,
            trace=lambda e: self.events.append(
                ("srv", e.direction, e.pdu_type, e.rid)))

    def node(self, name):
        return [e[1:] for e in self.events if e[0] == name]


def test_criterion_2_trace_oracles():
    # Scenario A: the first Invoke is lost; one retransmission recovers.
    pair = TracedPair()
    pair.srv.on_invoke = lambda inv: inv.respond(b"R")
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [] if index == 0 else [10])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(1.0)
    assert handle.done and handle.result == b"R"
    assert pair.node("cli") == [
        ("snd", "Invoke", False),   # t=0, lost
        ("snd", "Invoke", True),    # t=300ms retry
        ("rcv", "Result", False),
        ("snd", "Ack", False),
    ]
    assert pair.node("srv") == [
        ("rcv", "Invoke", True),
        ("snd", "Result", False),
        ("rcv", "Ack", False),
    ]

    # Scenario B: the first Result is lost; the responder retransmits it.
    # Asymmetric retry intervals keep the timeline unambiguous: the server
    # retries at 200ms, well before the client would retry at 500ms.
    pair = TracedPair(
        cli_policy=wtp.RetransmissionPolicy(retry_interval_ms=500),
        srv_policy=wtp.RetransmissionPolicy(retry_interval_ms=200))
    pair.srv.on_invoke = lambda inv: inv.respond(b"R")
    pair.srv_bearer.set_delivery_script(
        lambda dgram, index: [] if index == 0 else [10])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(1.0)
    assert handle.done and handle.result == b"R"
    assert pair.node("cli") == [
        ("snd", "Invoke", False),
        ("rcv", "Result", True),    # the retransmitted copy
        ("snd", "Ack", False),
    ]
    assert pair.node("srv") == [
        ("rcv", "Invoke", False),
        ("snd", "Result", False),   # t=10ms, lost
        ("snd", "Result", True),    # t=210ms retry
        ("rcv", "Ack", False),
    ]

    # Scenario C: the Invoke is duplicated in flight; the responder answers
    # both copies but indicates only once.
    pair = TracedPair()
    indications = []
    pair.srv.on_invoke = lambda inv: (indications.append(inv),
                                      inv.respond(b"R"))
    pair.cli_bearer.set_delivery_script(
        lambda dgram, index: [10, 10] if index == 0 else [10])
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(1.0)
    assert handle.done and len(indications) == 1
    assert pair.node("cli") == [
        ("snd", "Invoke", False),
        ("rcv", "Result", False),
        ("snd", "Ack", False),
        ("rcv", "Result", True),    # answer to the duplicate
        ("snd", "Ack", True),       # repeated ack, flagged
    ]
    assert pair.node("srv") == [
        ("rcv", "Invoke", False),
        ("snd", "Result", False),
        ("rcv", "Invoke", False),   # the duplicate copy
        ("snd", "Result", True),
        ("rcv", "Ack", False),
        ("rcv", "Ack", True),
    ]

    # Scenario D: the responder answers after ack_delay, so a standalone
    # Ack holds off invoke retransmission until the Result arrives.
    pair = TracedPair()
    pair.srv.on_invoke = lambda inv: pair.clock.call_later(
        0.25, inv.respond, b"R")
    handle = pair.cli.invoke(SRV, 2, b"q")
    pair.clock.advance(1.0)
    assert handle.done and handle.result == b"R"
    assert pair.node("cli") == [
        ("snd", "Invoke", False),
        ("rcv", "Ack", False),      # standalone ack at ack_delay
        ("rcv", "Result", False),
        ("snd", "Ack", False),
    ]
    assert pair.node("srv") == [
        ("rcv", "Invoke", False),
        ("snd", "Ack", False),
        ("snd", "Result", False),
        ("rcv", "Ack", False),
    ]
    ok(2, "trace-oracles (4 scenarios, exact match)")


# --- 3. exactly-once delivery under randomized impairments --------------------

def test_criterion_3_exactly_once_at_scale():
    clock = VirtualClock()
    net = SimNetwork(clock)
    profile_a = ImpairmentProfile(loss_prob=0.25, dup_prob=0.15,
                                  reorder_prob=0.15, delay_ms=5, jitter_ms=10,
                                  seed=31)
    profile_b = ImpairmentProfile(loss_prob=0.25, dup_prob=0.15,
                                  reorder_prob=0.15, delay_ms=5, jitter_ms=10,
                                  seed=32)
    cli = wtp.WtpProvider(WdpStack(net.endpoint("cli", profile_a)).bind(1000),
                          clock)
    srv = wtp.WtpProvider(WdpStack(net.endpoint("srv", profile_b)).bind(2000),
                          clock)

    indications = {}
    completions = {}

    def on_invoke(inv):
        indications[inv.tid] = indications.get(inv.tid, 0) + 1
        if inv.tclass == 2:
            inv.respond(b"R" + inv.payload)

    srv.on_invoke = on_invoke
    rng = random.Random(99)
    handles = []

    def launch(i):
        tclass = rng.choice([1, 2])
        handle = cli.invoke(SRV, tclass, b"%d" % i)
        handle.add_done_callback(
            lambda h: completions.update({h.tid: completions.get(h.tid, 0) + 1}))
        handles.append((i, tclass, handle))

    for i in range(1000):
        clock.call_later(i * 0.002, launch, i)
    clock.run_until_idle(limit=120.0)

    assert len(handles) == 1000
    assert all(h.done for _, _, h in handles)
    dup_indications = {tid: n for tid, n in indications.items() if n > 1}
    dup_completions = {tid: n for tid, n in completions.items() if n > 1}
    assert dup_indications == {}, f"duplicate indications: {dup_indications}"
    assert dup_completions == {}, f"duplicate completions: {dup_completions}"
    succeeded = sum(1 for _, _, h in handles if h.error is None)
    for i, tclass, handle in handles:
        if handle.error is None and tclass == 2:
            assert handle.result == b"R%d" % i
    assert succeeded > 900  # impairments may exhaust a few, never duplicate
    ok(3, f"exactly-once ({succeeded}/1000 completed, 0 duplicates)")


# --- 4. class 0 never retransmits ----------------------------------------------

def test_criterion_4_class0_fire_and_forget():
    clock = VirtualClock()
    net = SimNetwork(clock)
    events = []
    cli = wtp.WtpProvider(
        WdpStack(net.endpoint("cli", ImpairmentProfile(loss_prob=1.0))).bind(1000),
        clock, trace=events.append)
    handles = [cli.invoke(SRV, 0, b"%d" % i) for i in range(100)]
    assert all(h.done for h in handles)
    clock.run_until_idle(limit=60.0)
    sends = [e for e in events if e.direction == "snd"]
    assert len(sends) == 100, f"{len(sends)} sends for 100 class-0 invokes"
    assert all(e.pdu_type == "Invoke" and not e.rid for e in sends)
    ok(4, "class0-fire-and-forget (100 invokes, exactly 100 sends)")


# --- 5. record security ---------------------------------------------------------

def test_criterion_5_record_security():
    psk = bytes(range(32))
    cn, sn = b"c" * 16, b"s" * 16

    # every single-byte mutation of 100 sealed records must fail the MAC
    client = wtls.SecureSession(psk, cn, sn, wtls.SUITE_STREAM_MAC, "client")
    server = wtls.SecureSession(psk, cn, sn, wtls.SUITE_STREAM_MAC, "server")
    rng = random.Random(5)
    mutations = failures = 0
    for i in range(100):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        wire = wtls.encode_record(client.seal(wtls.CONTENT_APPDATA, payload))
        for pos in range(len(wire)):
            mutated = bytearray(wire)
            mutated[pos] ^= rng.randrange(1, 256)
            mutations += 1
            try:
                server.open_bytes(bytes(mutated))
            except wtls.MacFailure:
                failures += 1
        assert server.open_bytes(wire) == payload
    assert failures == mutations, \
        f"{mutations - failures} of {mutations} mutations were not caught"

    # exact replays are rejected
    client2 = wtls.SecureSession(psk, cn, sn, wtls.SUITE_NULL_MAC, "client")
    server2 = wtls.SecureSession(psk, cn, sn, wtls.SUITE_NULL_MAC, "server")
    wires = [wtls.encode_record(client2.seal(wtls.CONTENT_APPDATA, b"%d" % i))
             for i in range(50)]
    for wire in wires:
        server2.open_bytes(wire)
    replays_caught = 0
    for wire in wires:
        with pytest.raises(wtls.ReplayDetected):
            server2.open_bytes(wire)
        replays_caught += 1
    assert replays_caught == 50

    # a wrong PSK fails the handshake, 10 out of 10 times
    clock = RealClock()
    try:
        auth_failures = 0
        for i in range(10):
            net = SimNetwork(clock)
            wtls.WtlsServerTransport(
                WdpStack(net.endpoint("server")).bind(9201), {b"alice": psk})
            transport = wtls.WtlsClientTransport(
                WdpStack(net.endpoint("client")).bind_ephemeral(),
                WdpAddress("server", 9201), b"alice", b"wrong-" + bytes([i]),
                wtls.MODE_FULL, clock)
            with pytest.raises(wtls.AuthenticationFailure):
                transport.handshake(timeout=5.0)
            auth_failures += 1
        assert auth_failures == 10
    finally:
        clock.close()

    # open(seal(p)) is the identity for 1000 payloads on both suites
    checked = 0
    for suite in (wtls.SUITE_NULL_MAC, wtls.SUITE_STREAM_MAC):
        tx = wtls.SecureSession(psk, cn, sn, suite, "client")
        rx = wtls.SecureSession(psk, cn, sn, suite, "server")
        for _ in range(500):
            payload = bytes(rng.randrange(256)
                            for _ in range(rng.randrange(0, 200)))
            assert rx.open(tx.seal(wtls.CONTENT_APPDATA, payload)) == payload
            checked += 1
    assert checked == 1000
    ok(5, f"record-security ({mutations} mutations all caught, 50 replays, "
          f"10/10 bad-psk failures, 1000 identities)")


# --- 6. content codec ------------------------------------------------------------

def test_criterion_6_content_codec():
    # worked byte examples
    assert wml.encode(wml.parse("<wml></wml>")) == bytes.fromhex("01000005")
    assert wml.encode(wml.parse('<wml><card id="c1"><p>Hi</p></card></wml>')) \
        == bytes.fromhex("01000045c60503633100014703486900010101")

    rng = random.Random(6)
    for _ in range(1000):
        doc = random_document(rng)
        assert wml.decode(wml.encode(doc)) == doc
        assert wml.parse(wml.serialize(doc)) == doc

    smaller = 0
    corpus = document_corpus(n=50, min_elements=10, seed=66)
    for doc in corpus:
        assert count_elements(doc.root) >= 10
        if len(wml.encode(doc)) < len(wml.serialize(doc).encode("ascii")):
            smaller += 1
    assert smaller >= 50
    ok(6, f"content-codec (1000 identities, byte examples exact, "
          f"{smaller}/50 corpus docs smaller in binary)")


# --- 7. session codec and suspend/resume -----------------------------------------

def test_criterion_7_session_layer():
    # >= 1000 mixed header lists round-trip
    rng = random.Random(77)
    names = sorted(wsp.WELL_KNOWN_HEADERS)
    values = sorted(wsp.WELL_KNOWN_VALUES)
    alphabet = string.ascii_letters + string.digits + "-./;= "
    for _ in range(1000):
        headers = []
        for _ in range(rng.randint(0, 8)):
            name = (rng.choice(names) if rng.random() < 0.5 else
                    "".join(rng.choice(alphabet.strip())
                            for _ in range(rng.randint(1, 12))))
            value = (rng.choice(values) if rng.random() < 0.5 else
                     "".join(rng.choice(alphabet)
                             for _ in range(rng.randint(0, 20))))
            headers.append((name, value))
        assert wsp.decode_headers(wsp.encode_headers(headers)) == headers

    # status spot checks, including the escape form
    for code, wire in [(200, b"\x20"), (404, b"\x44"), (502, b"\x52"),
                       (416, b"\xff\x01\xa0")]:
        assert wsp.compact_status(code) == wire
        assert wsp.expand_status(wire, 0)[0] == code

    # 50 suspend/resume cycles preserve (session_id, negotiated_headers)
    clock = RealClock()
    try:
        net = SimNetwork(clock)
        provider = wtp.WtpProvider(WdpStack(net.endpoint("gw")).bind(9201),
                                   clock)
        wsp.WspServer(provider, lambda *a: (200, [], b"ok"), clock)
        cycles = 0
        for i in range(50):
            cli = wsp.WspClient(
                wtp.WtpProvider(
                    WdpStack(net.endpoint(f"cli{i}")).bind_ephemeral(), clock),
                WdpAddress("gw", 9201))
            session = cli.connect([("User-Agent", f"ua/{i}"),
                                   ("Accept", "text/vnd.wap.wml")])
            before = (session.session_id, list(session.negotiated_headers))
            session.suspend()
            session.resume(timeout=5.0)
            assert (session.session_id,
                    list(session.negotiated_headers)) == before
            assert session.get("/x", timeout=5.0).status == 200
            cycles += 1
        assert cycles == 50
    finally:
        clock.close()
    ok(7, "session-layer (1000 header round-trips, statuses exact, "
          "50/50 suspend-resume preserved)")


# --- 8. bearer interchangeability -------------------------------------------------

class RecordingTransport:
    """Duck-typed wrapper logging (direction, port, payload) around a WDP
    endpoint, so two bearers can be compared byte for byte."""

    def __init__(self, endpoint, log):
        self._endpoint = endpoint
        self._log = log

    @property
    def max_payload(self):
        return self._endpoint.max_payload

    def send(self, dst, payload):
        self._log.append(("snd", dst.port, payload))
        self._endpoint.send(dst, payload)

    def set_receiver(self, cb):
        self._endpoint.set_receiver(
            lambda src, payload: (self._log.append(("rcv", src.port, payload)),
                                  cb(src, payload)))


def _scripted_exchange(clock, gw_transport_factory, cli_transport_factory,
                       gw_addr):
    log = []
    srv_provider = wtp.WtpProvider(gw_transport_factory(), clock)
    wsp.WspServer(srv_provider,
                  lambda msg, ctx:
                      (200, [("Content-Type", "text/plain")],
                       f"{msg.method} {msg.uri}".encode()),
                  clock)
    cli_provider = wtp.WtpProvider(cli_transport_factory(log), clock)
    client = wsp.WspClient(cli_provider, gw_addr)
    session = client.connect([("User-Agent", "diff/1")], timeout=5.0)
    session.get("/a", timeout=5.0)
    session.post("/b", body=b"payload", timeout=5.0)
    session.suspend()
    time.sleep(0.05)  # let the class-0 Suspend land before the Resume
    session.resume(timeout=5.0)
    session.get("/a", timeout=5.0)
    session.disconnect()
    time.sleep(0.1)  # allow trailing acks to flow
    return log


def test_criterion_8_bearer_differential():
    clock = RealClock()
    gw_bearer, cli_bearer = UdpBearer(), UdpBearer()
    try:
        # run 1: simulated bearer
        net = SimNetwork(clock)
        sim_log = _scripted_exchange(
            clock,
            lambda: WdpStack(net.endpoint("gw")).bind(9201),
            lambda log: RecordingTransport(
                WdpStack(net.endpoint("cli")).bind_ephemeral(), log),
            WdpAddress("gw", 9201))

        # run 2: UDP loopback
        udp_log = _scripted_exchange(
            clock,
            lambda: WdpStack(gw_bearer).bind(9201),
            lambda log: RecordingTransport(
                WdpStack(cli_bearer).bind_ephemeral(), log),
            WdpAddress(gw_bearer.local_addr, 9201))
    finally:
        clock.close()
        gw_bearer.close()
        cli_bearer.close()

    assert sim_log == udp_log, "bearers produced different WDP-level traffic"
    assert len(sim_log) > 10
    ok(8, f"bearer-differential ({len(sim_log)} WDP events identical)")


# --- 9. layer independence ---------------------------------------------------------

def _run_wtp_transaction(clock, cli_transport, srv_transport):
    """The same transaction code, whatever the transport underneath."""
    srv = wtp.WtpProvider(srv_transport, clock)
    srv.on_invoke = lambda inv: inv.respond(b"R:" + inv.payload)
    cli = wtp.WtpProvider(cli_transport, clock)
    handle = cli.invoke(WdpAddress("srv", 9201), 2, b"probe")
    return handle.wait(5.0).result


def test_criterion_9_layer_independence(tmp_path):
    psk = bytes(range(32))
    clock = RealClock()
    try:
        # WDP alone
        net = SimNetwork(clock)
        a = WdpStack(net.endpoint("a")).bind(10)
        b = WdpStack(net.endpoint("b")).bind(20)
        bare = collect(b)
        a.send(WdpAddress("b", 20), b"bare datagram")
        deadline = time.monotonic() + 2.0
        while not bare and time.monotonic() < deadline:
            time.sleep(0.01)
        assert bare == [(WdpAddress("a", 10), b"bare datagram")]

        # WTLS alone over WDP
        server = wtls.WtlsServerTransport(
            WdpStack(net.endpoint("tls-srv")).bind(9201), {b"id": psk})
        client = wtls.WtlsClientTransport(
            WdpStack(net.endpoint("tls-cli")).bind_ephemeral(),
            WdpAddress("tls-srv", 9201), b"id", psk, wtls.MODE_FULL, clock)
        client.handshake(timeout=5.0)
        got = []
        server.set_receiver(lambda src, data: got.append(data))
        client.send(WdpAddress("tls-srv", 9201), b"secured")
        deadline = time.monotonic() + 2.0
        while not got and time.monotonic() < deadline:
            time.sleep(0.01)
        assert got == [b"secured"]

        # WTP over plain WDP and over WTLS, same code both times
        plain = _run_wtp_transaction(
            clock,
            WdpStack(net.endpoint("wtp-cli")).bind_ephemeral(),
            WdpStack(net.endpoint("srv")).bind(9201))
        assert plain == b"R:probe"

        net2 = SimNetwork(clock)
        tls_srv = wtls.WtlsServerTransport(
            WdpStack(net2.endpoint("srv")).bind(9201), {b"id": psk})
        tls_cli = wtls.WtlsClientTransport(
            WdpStack(net2.endpoint("wtp-cli")).bind_ephemeral(),
            WdpAddress("srv", 9201), b"id", psk, wtls.MODE_FULL, clock)
        tls_cli.handshake(timeout=5.0)
        secured = _run_wtp_transaction(clock, tls_cli, tls_srv)
        assert secured == plain == b"R:probe"

        # WSP over WTP without any gateway above it
        net3 = SimNetwork(clock)
        provider = wtp.WtpProvider(WdpStack(net3.endpoint("gw")).bind(9201),
                                   clock)
        wsp.WspServer(provider, lambda *a: (200, [], b"standalone"), clock)
        client3 = wsp.WspClient(
            wtp.WtpProvider(WdpStack(net3.endpoint("cli")).bind_ephemeral(),
                            clock),
            WdpAddress("gw", 9201))
        session = client3.connect(timeout=5.0)
        assert session.get("/x", timeout=5.0).body == b"standalone"
    finally:
        clock.close()

    # full composition: the same fetch succeeds with security off and full,
    # with identical content coming back
    page = "<wml><card><p>composed</p></card></wml>"
    pages = {"/p": ("text/vnd.wap.wml", page.encode())}
    psk_path = tmp_path / "psk"
    psk_path.write_text("handset:" + psk.hex() + "\n")
    bodies = []
    for security in ("off", "full"):
        clock = RealClock()
        net = SimNetwork(clock)
        config = GatewayConfig(security=security,
                               psk_file=str(psk_path) if security != "off"
                               else None)
        service = Gateway(config, clock=clock, network=net,
                          fetch=local_content_fetch(pages))
        ua = UserAgent(WdpAddress("gateway", 9201), net.endpoint("handset"),
                       clock=clock, security=security, psk=psk,
                       identity=b"handset")
        try:
            result = ua.fetch("http://site/p")
            assert result.reply.status == 200
            assert result.document == wml.parse(page)
            bodies.append(result.reply.body)
        finally:
            ua.close()
            service.close()
            clock.close()
    assert bodies[0] == bodies[1]
    ok(9, "layer-independence (each layer standalone, stack composes)")
