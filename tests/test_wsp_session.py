"""Session lifecycle against a live in-process server on a clean sim
network.  Most tests run on a VirtualClock, where each blocking call runs the
clock on the test's own thread; one per client path runs on a RealClock."""

import logging

import pytest

from wapstack import wsp, wtp
from wapstack.bearer import SimNetwork
from wapstack.clock import VirtualClock
from wapstack.wdp import WdpAddress, WdpStack

GW = WdpAddress("gw", 9201)


def echo_handler(msg, ctx):
    return 200, [("Content-Type", "text/plain")], \
        f"{msg.method} {msg.uri}".encode() + b"|" + msg.body


class Rig:
    """A WSP server and a ``WspClient`` handset at ``cli``, on ``clock`` or
    else a VirtualClock, with the server's handlers run inline."""

    def __init__(self, clock=None, handler=echo_handler, ttl=300.0):
        self.clock = clock or VirtualClock()
        self.net = SimNetwork(self.clock)
        self.srv_provider = wtp.WtpProvider(
            WdpStack(self.net.endpoint("gw")).bind(9201), self.clock)
        self.server = wsp.WspServer(self.srv_provider, handler, self.clock,
                                    session_ttl_s=ttl)
        self.cli_provider = self.handset("cli")
        self.client = wsp.WspClient(self.cli_provider, GW)

    def handset(self, addr):
        return wtp.WtpProvider(
            WdpStack(self.net.endpoint(addr)).bind_ephemeral(), self.clock)


class VirtualRig(Rig):
    """Handsets on a VirtualClock that each send one WSP message at a time.
    The clean sim network delivers at once, so an exchange takes no virtual
    time."""

    TTL = 8.0  # with the step below, every instant is exact in binary
    STEP = 1 / 1024

    def __init__(self):
        super().__init__(ttl=self.TTL)
        self._handsets = {"cli": self.cli_provider}

    def send(self, addr, pdu_type, **fields):
        """Send one message from handset ``addr``: a Suspend on class 0,
        anything else on class 2, whose decoded reply is returned."""
        if addr not in self._handsets:
            self._handsets[addr] = self.handset(addr)
        tclass = 0 if pdu_type == wsp.PDU_SUSPEND else 2
        handle = self._handsets[addr].invoke(
            GW, tclass, wsp.encode_message(wsp.WspMessage(pdu_type, **fields)))
        self.clock.advance(0)
        return wsp.decode_message(handle.result) if tclass == 2 else None

    def connect(self, addr):
        return self.send(addr, wsp.PDU_CONNECT).session_id


def test_connect_assigns_session_and_negotiates_headers():
    rig = Rig()
    session = rig.client.connect([("User-Agent", "t/1"), ("Accept", "text/plain")])
    assert session.session_id > 0
    assert session.negotiated_headers == [("User-Agent", "t/1"),
                                          ("Accept", "text/plain")]
    assert rig.server.session_count() == 1


def test_get_and_post_round_trip(real_clock):
    rig = Rig(real_clock)
    session = rig.client.connect()
    reply = session.get("/page", [("Accept", "text/plain")])
    assert reply.status == 200
    assert reply.body == b"GET /page|"
    reply = session.post("/form", body=b"k=v")
    assert reply.body == b"POST /form|k=v"


def test_suspend_resume_preserves_identity():
    rig = Rig()
    session = rig.client.connect([("User-Agent", "t/1")])
    sid = session.session_id
    negotiated = list(session.negotiated_headers)
    session.suspend()
    assert session.state == wsp.SUSPENDED
    with pytest.raises(wsp.SessionNotConnected):
        session.get("/while-suspended")
    session.resume()
    assert session.state == wsp.CONNECTED
    assert session.session_id == sid
    assert session.negotiated_headers == negotiated
    assert session.get("/after").status == 200


def test_methods_without_a_session_get_refused():
    rig = Rig()
    msg = wsp.WspMessage(wsp.PDU_GET, uri="/nope")
    handle = rig.cli_provider.invoke(GW, 2, wsp.encode_message(msg))
    reply = wsp.decode_message(handle.wait(5.0).result)
    assert reply.pdu_type == wsp.PDU_REPLY and reply.status == 400


def test_resume_of_unknown_session_refused():
    rig = Rig()
    session = rig.client.connect()
    session.suspend()
    session.session_id = 9999  # simulate a gateway that lost our state
    with pytest.raises(wsp.ResumeRefused):
        session.resume(timeout=5.0)


def test_idle_suspended_sessions_are_evicted():
    rig = Rig(ttl=0.1)
    session = rig.client.connect()
    session.suspend()
    rig.clock.advance(0.1)
    assert rig.server.session_count() == 0
    with pytest.raises(wsp.ResumeRefused):
        session.resume(timeout=5.0)


def test_the_server_arms_no_timer():
    assert VirtualRig().clock.pending() == 0


def test_a_suspended_session_is_forgotten_exactly_at_the_ttl():
    rig = VirtualRig()
    sid = rig.connect("cli")
    rig.send("cli", wsp.PDU_SUSPEND, session_id=sid)
    rig.clock.advance(rig.TTL - rig.STEP)
    assert rig.server.session_count() == 1
    rig.clock.advance(rig.STEP)
    assert rig.server.session_count() == 0
    assert rig.clock.pending() == 0


@pytest.mark.parametrize("early", [True, False], ids=["before-ttl", "at-ttl"])
def test_a_resume_at_the_ttl_is_refused(early):
    # the Resume's own Invoke forgets the session: no session_count() first
    rig = VirtualRig()
    sid = rig.connect("cli")
    rig.send("cli", wsp.PDU_SUSPEND, session_id=sid)
    rig.clock.advance(rig.TTL - rig.STEP if early else rig.TTL)
    reply = rig.send("cli", wsp.PDU_RESUME, session_id=sid)
    if early:
        assert (reply.pdu_type, reply.session_id) == (wsp.PDU_CONNECT_REPLY,
                                                      sid)
    else:
        assert (reply.pdu_type, reply.status) == (wsp.PDU_REPLY, 404)


def test_a_session_suspended_again_outlives_its_first_suspend():
    rig = VirtualRig()
    sid = rig.connect("cli")
    rig.send("cli", wsp.PDU_SUSPEND, session_id=sid)
    rig.clock.advance(rig.TTL / 2)
    assert rig.send("cli", wsp.PDU_RESUME, session_id=sid).session_id == sid
    rig.send("cli", wsp.PDU_SUSPEND, session_id=sid)
    rig.clock.advance(rig.TTL / 2)  # the first Suspend's entry falls due
    assert rig.server.session_count() == 1
    rig.clock.advance(rig.TTL / 2)
    assert rig.server.session_count() == 0


def test_connected_sessions_survive_the_ttl():
    rig = Rig(ttl=0.1)
    rig.client.connect()
    rig.clock.advance(0.4)
    assert rig.server.session_count() == 1


def test_disconnect_forgets_the_session():
    rig = Rig()
    session = rig.client.connect()
    session.disconnect()
    assert session.state == wsp.CLOSED
    rig.clock.advance(0)  # the class-0 Disconnect arrives
    assert rig.server.session_count() == 0
    with pytest.raises(wsp.SessionNotConnected):
        session.get("/after-close")
    with pytest.raises(wsp.WrongState):
        session.disconnect()


def test_state_checks_on_suspend_resume():
    rig = Rig()
    session = rig.client.connect()
    with pytest.raises(wsp.WrongState):
        session.resume()
    session.suspend()
    with pytest.raises(wsp.WrongState):
        session.suspend()


def test_two_clients_get_distinct_sessions():
    rig = Rig()
    s1 = rig.client.connect()
    s2 = wsp.WspClient(rig.handset("cli2"), GW).connect()
    assert s1.session_id != s2.session_id
    assert rig.server.session_count() == 2


def test_a_second_connect_forgets_the_peer_s_connected_session():
    rig = Rig()
    rig.client.connect()
    rig.client.connect()
    assert rig.server.session_count() == 1


def test_a_suspended_session_outlives_a_new_connect():
    rig = VirtualRig()
    first = rig.connect("cli")
    rig.send("cli", wsp.PDU_SUSPEND, session_id=first)
    rig.connect("cli")
    assert rig.server.session_count() == 2
    assert rig.send("cli", wsp.PDU_RESUME, session_id=first).session_id == first
    # the peer's second session can no longer be reached
    assert rig.server.session_count() == 1


def test_only_the_session_s_peer_can_suspend_it():
    rig = VirtualRig()
    sid = rig.connect("cli")
    rig.send("cli2", wsp.PDU_SUSPEND, session_id=sid)
    assert rig.send("cli", wsp.PDU_GET, uri="/a").status == 200
    # a Resume may come from a new address: that is what it is for
    rig.send("cli", wsp.PDU_SUSPEND, session_id=sid)
    assert rig.send("cli2", wsp.PDU_RESUME, session_id=sid).session_id == sid
    assert rig.send("cli2", wsp.PDU_GET, uri="/b").status == 200


def test_handler_exception_maps_to_500(caplog):
    def broken(msg, ctx):
        raise RuntimeError("boom")

    rig = Rig(handler=broken)
    session = rig.client.connect()
    assert session.get("/kaboom").status == 500
    logged = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(logged) == 1 and "/kaboom" in logged[0].getMessage()
    assert str(logged[0].exc_info[1]) == "boom"


class _QueuedExecutor:
    """An executor whose work runs only when the test calls it."""

    def __init__(self):
        self.queued = []

    def submit(self, fn):
        self.queued.append(fn)


def _get_in_the_handler():
    """A server on a VirtualClock whose handler runs on a queued executor,
    and a handset whose Get of http://o/x, tid 2, reached the handler:
    return the clock, the server's provider, the Get's handle and the
    queued work."""
    clock = VirtualClock()
    net = SimNetwork(clock)
    executor = _QueuedExecutor()
    srv_provider = wtp.WtpProvider(WdpStack(net.endpoint("gw")).bind(9201),
                                   clock)
    wsp.WspServer(srv_provider, echo_handler, clock, executor=executor)
    cli_provider = wtp.WtpProvider(
        WdpStack(net.endpoint("cli")).bind_ephemeral(), clock)
    cli_provider.invoke(GW, 2, wsp.encode_message(
        wsp.WspMessage(wsp.PDU_CONNECT)))
    clock.advance(0)
    handle = cli_provider.invoke(GW, 2, wsp.encode_message(
        wsp.WspMessage(wsp.PDU_GET, uri="http://o/x")))
    clock.advance(0)
    [work] = executor.queued
    return clock, srv_provider, handle, work


def test_a_reply_to_a_method_the_handset_aborted_is_one_info_line(caplog):
    clock, _, handle, work = _get_in_the_handler()
    handle.abort()
    clock.advance(0)
    with caplog.at_level(logging.INFO, logger="wapstack.wsp"):
        work()
    assert [(r.levelname, r.getMessage(), r.exc_info)
            for r in caplog.records] == [
        ("INFO", "reply to GET http://o/x not sent: tid 2 in state ABORTED",
         None)]


def test_a_reply_after_the_aborted_method_was_forgotten_is_one_info_line(
        caplog):
    # the handler outlasts the aborted record's 3 s linger, so the Reply's
    # read of the responder table forgets the record
    clock, _, handle, work = _get_in_the_handler()
    handle.abort()
    clock.advance(3.5)
    with caplog.at_level(logging.INFO, logger="wapstack.wsp"):
        work()
    assert [(r.levelname, r.getMessage(), r.exc_info)
            for r in caplog.records] == [
        ("INFO", "reply to GET http://o/x not sent: tid 2 from "
                 "WdpAddress(host='cli', port=49152)", None)]


def test_failed_reply_send_is_logged(caplog):
    # The gateway's provider closes while the handler runs, so sending the
    # Reply raises "provider closed", which no caller reads: it must reach
    # the log with its traceback.
    _, srv_provider, _, work = _get_in_the_handler()
    srv_provider.close()
    work()
    logged = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(logged) == 1
    assert logged[0].getMessage() == \
        "sending the reply to GET http://o/x failed"
    error = logged[0].exc_info[1]
    assert type(error) is wtp.WtpError and str(error) == "provider closed"


def test_method_past_its_timeout_aborts_the_transaction():
    # The gateway acknowledges the Get but answers after the caller's
    # timeout.  WTP alone would keep the handle pending after that Ack; the
    # session aborts it, so its tid is freed and the gateway is told.
    rig = Rig()
    rig.server._executor = executor = _QueuedExecutor()  # run by the test
    session = rig.client.connect(timeout=5.0)
    with pytest.raises(wtp.TransactionTimeout):
        session.get("/slow", timeout=0.3)
    assert rig.clock.now() == 0.3
    assert [h for h in rig.cli_provider._initiator.values()
            if h.state not in (wtp.DONE, wtp.ABORTED)] == []
    rig.clock.advance(0)  # the Abort arrives
    [work] = executor.queued
    work()  # the late reply is refused
    assert sorted(inv.state for inv in rig.srv_provider._responder.values()) \
        == [wtp.ABORTED, wtp.DONE]


def test_malformed_wsp_payload_gets_400():
    rig = Rig()
    handle = rig.cli_provider.invoke(GW, 2, b"\x7f junk")
    reply = wsp.decode_message(handle.wait(5.0).result)
    assert reply.status == 400


def test_connectionless_get(real_clock):
    rig = Rig(real_clock)
    cl_server = WdpStack(rig.net.endpoint("gw-cl")).bind(9200)
    wsp.ConnectionlessResponder(cl_server, echo_handler)
    cl_client = WdpStack(rig.net.endpoint("cli-cl")).bind_ephemeral()
    reply = wsp.connectionless_get(cl_client, WdpAddress("gw-cl", 9200),
                                   "/quick", real_clock, timeout=5.0)
    assert reply.status == 200 and reply.body == b"GET /quick|"


def test_handlers_get_the_decoded_message(monkeypatch):
    monkeypatch.setattr(wsp.os, "urandom", lambda n: bytes([7] * n))
    seen = []

    def recording(msg, ctx):
        seen.append((msg, ctx))
        return echo_handler(msg, ctx)

    headers = [("User-Agent", "t/1"), ("X-Zeta", "z"), ("Accept", "text/plain"),
               ("X-Alpha", "a")]
    rig = Rig(handler=recording)
    session = rig.client.connect()
    session.get("/g?q=1", headers)
    session.post("/p", headers[::-1], body=b"\x00k=v\xff")
    cl_server = WdpStack(rig.net.endpoint("gw-cl")).bind(9200)
    wsp.ConnectionlessResponder(cl_server, recording)
    cl_client = WdpStack(rig.net.endpoint("cli-cl")).bind_ephemeral()
    wsp.connectionless_get(cl_client, WdpAddress("gw-cl", 9200), "/c",
                           rig.clock, headers, timeout=5.0)
    got = [(type(msg), msg.pdu_type, msg.method, msg.uri, msg.headers,
            msg.body, ctx) for msg, ctx in seen]
    sid = session.session_id
    assert got[0][:6] == (wsp.WspMessage, wsp.PDU_GET, "GET", "/g?q=1",
                          headers, b"")
    assert got[1][:6] == (wsp.WspMessage, wsp.PDU_POST, "POST", "/p",
                          headers[::-1], b"\x00k=v\xff")
    assert [ctx["session_id"] for *_, ctx in got[:2]] == [sid, sid]
    assert got[2] == (wsp.WspMessage, wsp.PDU_GET, "GET", "/c", headers, b"",
                      {"session_id": 0, "tid": 7})


def test_method_names_come_from_one_table():
    assert wsp.METHODS == {wsp.PDU_GET: "GET", wsp.PDU_POST: "POST"}
    for pdu_type in (wsp.PDU_CONNECT, wsp.PDU_REPLY, wsp.PDU_DISCONNECT,
                     wsp.PDU_SUSPEND, wsp.PDU_RESUME):
        assert wsp.WspMessage(pdu_type).method is None


def test_connectionless_timeout_when_unanswered():
    rig = Rig()
    cl_client = WdpStack(rig.net.endpoint("cli-cl")).bind_ephemeral()
    with pytest.raises(wsp.RequestTimeout):
        wsp.connectionless_get(cl_client, WdpAddress("nobody", 9200),
                               "/void", rig.clock, timeout=0.2)
    assert rig.clock.now() == 0.2


def test_connectionless_get_leaves_its_endpoint_without_a_receiver():
    rig = Rig()
    cl_server = WdpStack(rig.net.endpoint("gw-cl")).bind(9200)
    wsp.ConnectionlessResponder(cl_server, echo_handler)
    cl_client = WdpStack(rig.net.endpoint("cli-cl")).bind_ephemeral()
    wsp.connectionless_get(cl_client, WdpAddress("gw-cl", 9200), "/a",
                           rig.clock, timeout=5.0)
    assert cl_client._receiver is None
    with pytest.raises(wsp.RequestTimeout):
        wsp.connectionless_get(cl_client, WdpAddress("nobody", 9200), "/b",
                               rig.clock, timeout=0.05)
    assert cl_client._receiver is None
