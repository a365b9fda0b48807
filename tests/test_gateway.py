"""Gateway translation units and end-to-end fetches through the stack."""

import functools
import logging
import sys
import threading
import time

import pytest

from wapstack import gateway as gw, wml, wsp
from wapstack.bearer import ImpairmentProfile, SimNetwork, UdpBearer
from wapstack.useragent import UserAgent
from wapstack.wdp import WdpAddress, WdpStack
from wapstack.wtp import WtpProvider

from conftest import free_udp_port

WML_PAGE = '<wml><card id="c1"><p>Hi</p></card></wml>'


# --- translation units -------------------------------------------------------

def test_translate_request_expands_and_adds_via():
    msg = wsp.WspMessage(wsp.PDU_GET, uri="http://h/x",
                         headers=[("Accept", "text/vnd.wap.wml")])
    ex = gw.translate_request(msg)
    assert ex.method == "GET" and ex.url == "http://h/x"
    assert ("Via", "wap-gateway/1") in ex.request_headers
    assert ("Accept", "text/vnd.wap.wml") in ex.request_headers


@pytest.mark.parametrize("uri", ["ftp://h/x", "/relative", "http://", "junk",
                                 "http://[::1/x", "http://h:99999/x",
                                 "http://h:abc/x", "http://:80/x"])
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
    with pytest.raises(ValueError, match="log_level"):
        gw.GatewayConfig(log_level="root").validate()
    for name in ("DEBUG", "Info", "warning", "ERROR", "critical"):
        gw.GatewayConfig(log_level=name).validate()
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
        for uri in ("ftp://nope/x", "http://[::1/x", "http://h:99999/x",
                    "http://h:abc/x"):
            assert ua.fetch(uri).reply.status == 400
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


def test_udp_gateway_restarts_on_its_port(real_clock):
    config = gw.GatewayConfig(bearer="udp", listen_port=free_udp_port())
    for _ in range(2):
        service = gw.Gateway(config, clock=real_clock,
                             fetch=gw.local_content_fetch({}))
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


# --- the compile cache ----------------------------------------------------------

DECKS = [f'<wml><card id="c{i}"><p>deck {i}</p><p>{"x" * (8 * i)}</p>'
         f'<p><a href="/d{(i + 1) % 6}">next</a></p></card></wml>'
         for i in range(6)]


@pytest.fixture
def parses(monkeypatch):
    """A fresh, empty compile cache; counts the WML sources parsed."""
    gw._compile_cached.cache_clear()
    seen = []
    parse = wml.parse

    def counting_parse(text):
        seen.append(text)
        return parse(text)
    monkeypatch.setattr(wml, "parse", counting_parse)
    return seen


def small_cache(monkeypatch, maxsize):
    """Swap in a compile cache of ``maxsize`` decks over the same function."""
    cache = functools.lru_cache(maxsize=maxsize)(gw._compile_cached.__wrapped__)
    monkeypatch.setattr(gw, "_compile_cached", cache)
    return cache


def wml_exchange(source: bytes, ctype: str = "text/vnd.wap.wml"):
    return gw.HttpExchange("GET", "http://h/x", [], status=200,
                           response_headers=[("Content-Type", ctype)],
                           response_body=source)


def test_compile_cache_hit_is_the_fresh_encoding(parses):
    fresh = wml.encode(wml.parse(WML_PAGE))
    parses.clear()
    first = gw.translate_response(wml_exchange(WML_PAGE.encode()))
    second = gw.translate_response(wml_exchange(WML_PAGE.encode()))
    assert first == second
    assert second[2] == fresh
    assert ("Content-Type", "application/wmlc") in second[1]
    assert parses == [WML_PAGE]  # the second fetch was not parsed


def test_bad_deck_gets_502_every_time_and_is_not_cached(real_clock, parses):
    pages = {"/bad": ("text/vnd.wap.wml", b"<bogus/>"),
             "/binary": ("text/vnd.wap.wml", b"<wml>\xff</wml>")}
    service, ua = make_rig(real_clock, fetch=gw.local_content_fetch(pages))
    try:
        for _ in range(2):
            assert ua.fetch("http://local/bad").reply.status == 502
            assert ua.fetch("http://local/binary").reply.status == 502
    finally:
        ua.close()
        service.close()
    # "<bogus/>" is parsed on both fetches; the non-ASCII deck never decodes
    assert parses == ["<bogus/>", "<bogus/>"]
    assert gw._compile_cached.cache_info().currsize == 0


def test_compile_cache_evicts_least_recently_used(monkeypatch, parses):
    a, b, c = (deck.encode() for deck in DECKS[:3])
    cache = small_cache(monkeypatch, 2)
    for src in (a, b, a, c):  # the hit on a leaves b least recently used
        gw.translate_response(wml_exchange(src))
    assert parses == [DECKS[0], DECKS[1], DECKS[2]]
    assert cache.cache_info().currsize == 2
    parses.clear()
    gw.translate_response(wml_exchange(a))
    assert parses == []
    gw.translate_response(wml_exchange(b))
    assert parses == [DECKS[1]]


def test_deck_larger_than_the_bound_is_served_not_stored(monkeypatch, parses):
    fresh = wml.encode(wml.parse(WML_PAGE))
    parses.clear()
    monkeypatch.setattr(gw, "_WMLC_CACHE_MAX_SOURCE", len(WML_PAGE) - 1)
    for _ in range(2):
        _, _, body = gw.translate_response(wml_exchange(WML_PAGE.encode()))
        assert body == fresh
    assert parses == [WML_PAGE, WML_PAGE]
    assert gw._compile_cached.cache_info().currsize == 0
    # a deck of exactly the bound is stored
    monkeypatch.setattr(gw, "_WMLC_CACHE_MAX_SOURCE", len(WML_PAGE))
    for _ in range(2):
        assert gw.translate_response(wml_exchange(WML_PAGE.encode()))[2] == fresh
    assert parses == [WML_PAGE] * 3
    assert gw._compile_cached.cache_info().currsize == 1


def test_non_wml_bodies_bypass_the_compile_cache(parses):
    for ctype in ("text/plain", "application/wmlc", "text/html"):
        _, _, body = gw.translate_response(wml_exchange(WML_PAGE.encode(),
                                                        ctype))
        assert body == WML_PAGE.encode()
    assert parses == []
    assert gw._compile_cached.cache_info() == (0, 0, gw._WMLC_CACHE_DECKS, 0)


def test_concurrent_fetches_of_mixed_decks(real_clock, monkeypatch, parses):
    # room for two of the six decks, so the eight executor threads also
    # evict concurrently
    cache = small_cache(monkeypatch, 2)
    trees = [wml.parse(deck) for deck in DECKS]
    parses.clear()
    pages = {f"/d{i}": ("text/vnd.wap.wml", deck.encode())
             for i, deck in enumerate(DECKS)}
    net = SimNetwork(real_clock)
    service = gw.Gateway(gw.GatewayConfig(), clock=real_clock, network=net,
                         fetch=gw.local_content_fetch(pages))
    agents = [UserAgent(WdpAddress("gateway", 9201),
                        net.endpoint(f"handset{n}"), clock=real_clock)
              for n in range(8)]
    failures = []

    def browse(n, ua):
        try:
            for k in range(12):
                i = (n + k * (n + 1)) % len(DECKS)
                result = ua.fetch(f"http://local/d{i}")
                if result.document != trees[i]:
                    failures.append((n, i, result.reply.status))
        except Exception as exc:  # reported below, not lost on the thread
            failures.append((n, exc))

    threads = [threading.Thread(target=browse, args=(n, ua))
               for n, ua in enumerate(agents)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the cache
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        info = cache.cache_info()
        assert info.hits + info.misses == 8 * 12  # every fetch was compiled
        assert info.misses == len(parses)  # and only a miss parses
        assert info.currsize <= 2
    finally:
        sys.setswitchinterval(interval)
        for ua in agents:
            ua.close()
        service.close()


def test_all_miss_traffic_keeps_the_cache_bounded(parses):
    for i in range(200):
        source = f'<wml><card id="c{i}"><p>one-off {i}</p></card></wml>'
        gw.translate_response(wml_exchange(source.encode()))
    info = gw._compile_cached.cache_info()
    assert info.misses == len(parses) == 200
    assert info.currsize <= gw._WMLC_CACHE_DECKS
