"""Gateway translation units and end-to-end fetches through the stack."""

import logging
import time

import pytest

from wapstack import gateway as gw, wml, wsp
from wapstack.bearer import ImpairmentProfile, SimNetwork, UdpBearer
from wapstack.useragent import UserAgent
from wapstack.wdp import WdpAddress, WdpStack
from wapstack.wtp import WtpProvider

WML_PAGE = '<wml><card id="c1"><p>Hi</p></card></wml>'


# --- translation units -------------------------------------------------------

def test_translate_request_expands_and_adds_via():
    msg = wsp.WspMessage(wsp.PDU_GET, uri="http://h/x",
                         headers=[("Accept", "text/vnd.wap.wml")])
    ex = gw.translate_request(msg)
    assert ex.method == "GET" and ex.url == "http://h/x"
    assert ("Via", "wap-gateway/1") in ex.request_headers
    assert ("Accept", "text/vnd.wap.wml") in ex.request_headers


@pytest.mark.parametrize("uri", ["ftp://h/x", "/relative", "http://", "junk"])
def test_translate_request_rejects_non_http_urls(uri):
    with pytest.raises(gw.BadUri):
        gw.translate_request(wsp.WspMessage(wsp.PDU_GET, uri=uri))


def test_translate_request_rejects_non_methods():
    with pytest.raises(gw.BadUri):
        gw.translate_request(wsp.WspMessage(wsp.PDU_CONNECT))


def test_translate_response_reencodes_wml():
    ex = gw.HttpExchange("GET", "http://h/x", [], status=200,
                         response_headers=[("Content-Type",
                                            "text/vnd.wap.wml; charset=ascii"),
                                           ("Content-Length", "41"),
                                           ("Connection", "keep-alive")],
                         response_body=WML_PAGE.encode())
    ex.status = 200
    status, headers, body = gw.translate_response(ex)
    assert status == 200
    assert body == wml.encode(wml.parse(WML_PAGE))
    assert ("Content-Type", "application/wmlc") in headers
    assert ("Content-Length", str(len(body))) in headers
    assert not any(n == "Connection" for n, _ in headers)


def test_translate_response_passes_other_content_through():
    ex = gw.HttpExchange("GET", "http://h/x", [], status=200,
                         response_headers=[("Content-Type", "text/plain")],
                         response_body=b"as-is \xff bytes")
    _, headers, body = gw.translate_response(ex)
    assert body == b"as-is \xff bytes"
    assert ("Content-Type", "text/plain") in headers


def test_translate_response_flags_bad_wml():
    ex = gw.HttpExchange("GET", "http://h/x", [], status=200,
                         response_headers=[("Content-Type", "text/vnd.wap.wml")],
                         response_body=b"<bogus/>")
    with pytest.raises(gw.ContentEncodeFailure):
        gw.translate_response(ex)


def test_fetch_origin_round_trip(stub_origin):
    origin = stub_origin({"/a": ("text/plain", b"hello origin")})
    ex = gw.fetch_origin(gw.HttpExchange("GET", origin.url + "/a",
                                         [("Via", "wap-gateway/1")]), 2.0)
    assert ex.status == 200 and ex.response_body == b"hello origin"
    assert origin.requests[0][2].get("Via") == "wap-gateway/1"


def test_fetch_origin_timeout_and_unreachable(stub_origin):
    origin = stub_origin({"/sleep": ("text/plain", b"late")})
    with pytest.raises(gw.OriginTimeout):
        gw.fetch_origin(gw.HttpExchange("GET", origin.url + "/sleep?s=1", []),
                        0.2)
    with pytest.raises(gw.OriginUnreachable):
        gw.fetch_origin(gw.HttpExchange("GET", "http://127.0.0.1:1/x", []), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        gw.GatewayConfig(listen_port=9201, connectionless_port=9201).validate()
    with pytest.raises(ValueError):
        gw.GatewayConfig(bearer="carrier-pigeon").validate()
    with pytest.raises(ValueError):
        gw.GatewayConfig(security="full").validate()  # psk_file missing
    with pytest.raises(ValueError):
        gw.GatewayConfig(http_timeout_ms=0).validate()
    gw.GatewayConfig().validate()


def test_parse_config_file(tmp_path):
    path = tmp_path / "gw.conf"
    path.write_text("# gateway\nlisten_port = 9301\nsecurity = off\n\n")
    assert gw.parse_config_file(str(path)) == {"listen_port": "9301",
                                               "security": "off"}
    path.write_text("no equals sign\n")
    with pytest.raises(ValueError):
        gw.parse_config_file(str(path))


# --- end to end over the simulated bearer -------------------------------------

def make_rig(real_clock, fetch=None, profile=None, config=None, timeout=15.0):
    cfg = config or gw.GatewayConfig()
    net = SimNetwork(real_clock)
    service = gw.Gateway(cfg, clock=real_clock, network=net, fetch=fetch)
    ua = UserAgent(WdpAddress("gateway", cfg.listen_port),
                   net.endpoint("handset", profile), clock=real_clock,
                   timeout=timeout)
    return service, ua


def test_end_to_end_wml_fetch(real_clock, stub_origin):
    origin = stub_origin({"/deck": ("text/vnd.wap.wml", WML_PAGE.encode())})
    service, ua = make_rig(real_clock)
    try:
        result = ua.fetch(origin.url + "/deck")
        assert result.reply.status == 200
        assert result.content_type == "application/wmlc"
        assert result.document == wml.parse(WML_PAGE)
    finally:
        ua.close()
        service.close()


def test_end_to_end_plain_content_passthrough(real_clock, stub_origin):
    origin = stub_origin({"/t": ("text/plain", b"just text")})
    service, ua = make_rig(real_clock)
    try:
        result = ua.fetch(origin.url + "/t")
        assert result.reply.status == 200
        assert result.document is None
        assert result.reply.body == b"just text"
    finally:
        ua.close()
        service.close()


def test_end_to_end_error_mapping(real_clock, stub_origin):
    origin = stub_origin({"/bad": ("text/vnd.wap.wml", b"<broken")})
    service, ua = make_rig(real_clock)
    try:
        assert ua.fetch(origin.url + "/missing").reply.status == 404
        assert ua.fetch("ftp://nope/x").reply.status == 400
        assert ua.fetch("http://127.0.0.1:1/x").reply.status == 502
        assert ua.fetch(origin.url + "/bad").reply.status == 502
    finally:
        ua.close()
        service.close()


def test_origin_timeout_maps_to_504(real_clock, stub_origin):
    origin = stub_origin({"/sleep": ("text/plain", b"late")})
    cfg = gw.GatewayConfig(http_timeout_ms=200)
    service, ua = make_rig(real_clock, config=cfg)
    try:
        assert ua.fetch(origin.url + "/sleep?s=1").reply.status == 504
    finally:
        ua.close()
        service.close()


def test_local_fetch_mode_and_log_line(real_clock, caplog):
    pages = {"/p": ("text/vnd.wap.wml", WML_PAGE.encode())}
    service, ua = make_rig(real_clock, fetch=gw.local_content_fetch(pages))
    try:
        with caplog.at_level(logging.INFO, logger="wapgw"):
            result = ua.fetch("http://local/p")
        assert result.reply.status == 200
        assert result.document == wml.parse(WML_PAGE)
        line = next(r.message for r in caplog.records
                    if "method=GET" in r.message)
        assert "session=" in line and "tid=" in line and "status=200" in line
        assert "uri=http://local/p" in line and "dur_ms=" in line
        assert ua.fetch("http://local/other").reply.status == 404
    finally:
        ua.close()
        service.close()


def test_oversize_reply_gets_prompt_502(real_clock, caplog):
    # 3000 B cannot ride one datagram: the client must get a status long
    # before its own 2 s timeout, on both the session and connectionless paths.
    pages = {"/big": ("text/plain", b"x" * 3000)}
    service, ua = make_rig(real_clock, fetch=gw.local_content_fetch(pages),
                           timeout=2.0)
    try:
        for connectionless in (False, True):
            start = time.monotonic()
            reply = ua.fetch("http://local/big",
                             connectionless=connectionless).reply
            assert time.monotonic() - start < 1.0
            assert reply.status == 502
            assert reply.headers == [("Content-Type", "text/plain")]
        warned = [r for r in caplog.records if r.levelno == logging.WARNING
                  and "too large" in r.getMessage()]
        assert len(warned) == 2
    finally:
        ua.close()
        service.close()


def test_fetch_over_lossy_link_still_succeeds(real_clock):
    pages = {"/p": ("text/plain", b"persistent")}
    from wapstack.wtp import RetransmissionPolicy
    policy = RetransmissionPolicy(retry_interval_ms=60, max_retrans=8)
    cfg = gw.GatewayConfig(
        impairments=ImpairmentProfile(loss_prob=0.3, seed=3))
    net = SimNetwork(real_clock)
    service = gw.Gateway(cfg, clock=real_clock, network=net,
                         fetch=gw.local_content_fetch(pages), policy=policy)
    ua = UserAgent(WdpAddress("gateway", 9201),
                   net.endpoint("handset", ImpairmentProfile(loss_prob=0.3,
                                                             seed=4)),
                   clock=real_clock, policy=policy)
    try:
        for _ in range(5):
            assert ua.fetch("http://local/p").reply.body == b"persistent"
    finally:
        ua.close()
        service.close()


def test_connectionless_service_through_gateway(real_clock):
    pages = {"/p": ("text/plain", b"one shot")}
    service, ua = make_rig(real_clock, fetch=gw.local_content_fetch(pages))
    try:
        result = ua.fetch("http://local/p", connectionless=True)
        assert result.reply.status == 200 and result.reply.body == b"one shot"
    finally:
        ua.close()
        service.close()


def test_secured_gateway_end_to_end(real_clock, tmp_path):
    psk_path = tmp_path / "psk"
    psk_path.write_text("handset:" + "ab" * 32 + "\n")
    pages = {"/p": ("text/vnd.wap.wml", WML_PAGE.encode())}
    cfg = gw.GatewayConfig(security="full", psk_file=str(psk_path))
    net = SimNetwork(real_clock)
    service = gw.Gateway(cfg, clock=real_clock, network=net,
                         fetch=gw.local_content_fetch(pages))
    ua = UserAgent(WdpAddress("gateway", 9201), net.endpoint("handset"),
                   clock=real_clock, security="full", psk=bytes.fromhex("ab" * 32),
                   identity=b"handset")
    try:
        result = ua.fetch("http://local/p")
        assert result.reply.status == 200
        assert result.document == wml.parse(WML_PAGE)
    finally:
        ua.close()
        service.close()


@pytest.mark.parametrize("request_msg", [
    wsp.WspMessage(wsp.PDU_CONNECT),
    wsp.WspMessage(wsp.PDU_RESUME, session_id=7),
    wsp.WspMessage(wsp.PDU_GET, uri="http://local/p"),
], ids=["connect", "resume", "get"])
@pytest.mark.parametrize("tclass", [0, 1])
def test_request_off_class_2_is_ignored(real_clock, tclass, request_msg):
    # Only a class-2 Invoke can carry the reply back.  The gateway must drop
    # the request, keep its UDP reader running and keep no session.
    service = gw.Gateway(gw.GatewayConfig(), clock=real_clock,
                         bearer=UdpBearer(), fetch=gw.local_content_fetch({}))
    bearer = UdpBearer()
    provider = WtpProvider(WdpStack(bearer).bind_ephemeral(), real_clock)
    gw_addr = WdpAddress(service.bearer_addr, service.config.listen_port)
    try:
        provider.invoke(gw_addr, tclass, wsp.encode_message(request_msg))
        session = wsp.WspClient(provider, gw_addr).connect(timeout=2.0)
        assert session.session_id > 0
        assert service.session_count() == 1
    finally:
        provider.close()
        bearer.close()
        service.close()


def test_deeply_nested_deck_gets_502(real_clock):
    # far past wml.MAX_DEPTH, and deep enough to exhaust Python's recursion
    # limit in a parser that recursed without a bound
    deck = "<wml>" + "<p>" * 995 + "x" + "</p>" * 995 + "</wml>"
    pages = {"/deep": ("text/vnd.wap.wml", deck.encode()),
             "/p": ("text/vnd.wap.wml", WML_PAGE.encode())}
    service, ua = make_rig(real_clock, fetch=gw.local_content_fetch(pages))
    try:
        reply = ua.fetch("http://local/deep").reply
        assert reply.status == 502
        assert b"nested deeper than" in reply.body
        assert ua.fetch("http://local/p").reply.status == 200
    finally:
        ua.close()
        service.close()
