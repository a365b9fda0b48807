"""Deck rendering rules and browsing behavior of the user agent."""

import logging
import threading
import time

import pytest

from wapstack import gateway as gw, wml, wsp, wtls
from wapstack.bearer import ImpairmentProfile, SimNetwork, UdpBearer
from wapstack.clock import VirtualClock
from wapstack.useragent import (EmptyDeck, FetchResult, NoSuchLink,
                                RenderedDeck, UserAgent, render)
from wapstack.wdp import WdpAddress

from conftest import free_udp_port


def rendered(text):
    return render(wml.parse(text))


def test_render_paragraphs_and_breaks():
    deck = rendered("<wml><card><p>one</p><p>two<br/>three</p></card></wml>")
    assert deck.lines == ["one", "two", "three"]


def test_render_only_first_card():
    deck = rendered("<wml><card><p>first</p></card>"
                    "<card><p>second</p></card></wml>")
    assert deck.lines == ["first"]


def test_render_links_are_numbered_in_order():
    deck = rendered('<wml><card><p><a href="/a">A</a> and '
                    '<a href="/b">B</a></p></card></wml>')
    assert deck.lines == ["[1] A and [2] B"]
    assert deck.links == [(1, "/a", "A"), (2, "/b", "B")]


def test_render_do_and_template_become_action_lines():
    deck = rendered('<wml><card><p>x</p><do title="Reload"/>'
                    "<template>fallback</template></card></wml>")
    assert deck.lines == ["x", "(do) Reload", "(template) fallback"]


def test_render_id_labels_nested_link_labels_and_card_level_text():
    deck = rendered('<wml><card>see <a href="/x">the <p>big</p> one</a> now'
                    '<do id="back"/><template id="t">text</template>'
                    "</card></wml>")
    # an action without a title is labelled by its id before its text; a
    # link's label is all the text under it; card-level text joins the line
    assert deck.lines == ["see [1] the big one now", "(do) back", "(template) t"]
    assert deck.links == [(1, "/x", "the big one")]


def test_render_requires_a_card():
    with pytest.raises(EmptyDeck):
        rendered("<wml><p>cardless</p></wml>")


def test_render_drops_blank_lines():
    deck = rendered("<wml><card><p>  </p><p>real</p></card></wml>")
    assert deck.lines == ["real"]


def test_fetch_result_content_type():
    reply = wsp.WspMessage(wsp.PDU_REPLY, status=200,
                           headers=[("Content-Type",
                                     "application/wmlc; v=1")])
    assert FetchResult("u", reply, None).content_type == "application/wmlc"
    assert FetchResult("u", wsp.WspMessage(wsp.PDU_REPLY), None).content_type == ""


PAGES = {
    "/index": ("text/vnd.wap.wml",
               b'<wml><card><p><a href="next">Next</a></p></card></wml>'),
    "/next": ("text/vnd.wap.wml",
              b"<wml><card><p>You made it</p></card></wml>"),
    "/plain": ("text/plain", b"not a deck"),
}


def make_ua(real_clock):
    net = SimNetwork(real_clock)
    service = gw.Gateway(gw.GatewayConfig(), clock=real_clock, network=net,
                         fetch=gw.local_content_fetch(PAGES))
    ua = UserAgent(WdpAddress("gateway", 9201), net.endpoint("handset"),
                   clock=real_clock)
    return service, ua


def test_navigate_resolves_relative_links(real_clock):
    service, ua = make_ua(real_clock)
    try:
        result = ua.fetch("http://site/index")
        deck = render(result.document)
        result2, deck2 = ua.navigate(result, deck, 1)
        assert result2.url == "http://site/next"
        assert deck2.lines == ["You made it"]
        with pytest.raises(NoSuchLink):
            ua.navigate(result, deck, 9)
    finally:
        ua.close()
        service.close()


def test_session_is_reused_across_fetches(real_clock):
    service, ua = make_ua(real_clock)
    try:
        ua.fetch("http://site/index")
        sid = ua.session.session_id
        ua.fetch("http://site/next")
        assert ua.session.session_id == sid
        assert service.session_count() == 1
    finally:
        ua.close()
        service.close()


def test_suspend_and_resume_keep_browsing(real_clock):
    service, ua = make_ua(real_clock)
    try:
        ua.fetch("http://site/index")
        sid = ua.session.session_id
        ua.suspend()
        ua.resume()
        assert ua.session.session_id == sid
        assert ua.fetch("http://site/next").reply.status == 200
    finally:
        ua.close()
        service.close()


def test_close_logs_a_failed_disconnect(real_clock, caplog):
    service, ua = make_ua(real_clock)
    try:
        ua.fetch("http://site/index")
        sid = ua.session.session_id
        ua.provider.close()  # the Disconnect can no longer be sent
        with caplog.at_level(logging.WARNING, logger="wapstack.useragent"):
            ua.close()
        [record] = [r for r in caplog.records
                    if r.name == "wapstack.useragent"]
        assert record.getMessage() == f"disconnect of session {sid} failed"
        assert "provider closed" in str(record.exc_info[1])
    finally:
        ua.close()
        service.close()


def test_failed_disconnect_still_closes_the_session(real_clock, caplog):
    service, ua = make_ua(real_clock)
    try:
        ua.fetch("http://site/index")
        session = ua.session
        ua.provider.close()
        with caplog.at_level(logging.WARNING, logger="wapstack.useragent"):
            ua.close()
            ua.close()  # the session is closed: no second Disconnect
        logged = [r for r in caplog.records if r.name == "wapstack.useragent"]
        assert len(logged) == 1
        assert session.state == wsp.CLOSED
        with pytest.raises(wsp.WrongState):
            session.disconnect()
    finally:
        service.close()


def test_navigate_to_non_deck_content_is_an_error(real_clock):
    service, ua = make_ua(real_clock)
    try:
        result = ua.fetch("http://site/index")
        deck = RenderedDeck(["[1] x"], [(1, "/plain", "x")])
        with pytest.raises(Exception) as exc:
            ua.navigate(result, deck, 1)
        assert "did not return a WML deck" in str(exc.value)
    finally:
        ua.close()
        service.close()


def test_failed_handshake_leaves_no_thread_or_socket(real_clock, tmp_path):
    psk_file = tmp_path / "psk"
    psk_file.write_text("handset:" + "ab" * 32 + "\n")
    config = gw.GatewayConfig(security="full", psk_file=str(psk_file),
                              bearer="udp", listen_port=free_udp_port())
    service = gw.Gateway(config, clock=real_clock,
                         fetch=gw.local_content_fetch(PAGES))
    before = set(threading.enumerate())
    try:
        # the user agent's own clock and its UDP reader are both stopped
        with pytest.raises(wtls.AuthenticationFailure):
            UserAgent(WdpAddress(service.bearer_addr, config.listen_port),
                      UdpBearer(), security="full", psk=bytes(32),
                      identity=b"handset")
        assert set(threading.enumerate()) <= before
    finally:
        service.close()


def test_concurrent_connectionless_gets_each_get_their_own_reply(real_clock):
    serve = gw.local_content_fetch({"/1": ("text/plain", b"1"),
                                    "/2": ("text/plain", b"2")})

    def slow_fetch(exchange):  # the replies cross: /1 takes longer than /2
        time.sleep(0.2 if exchange.url.endswith("/1") else 0.05)
        return serve(exchange)

    net = SimNetwork(real_clock)
    service = gw.Gateway(gw.GatewayConfig(), clock=real_clock, network=net,
                         fetch=slow_fetch)
    ua = UserAgent(WdpAddress("gateway", 9201), net.endpoint("handset"),
                   clock=real_clock, timeout=2.0)
    got = {}

    def get(path):
        try:
            got[path] = ua.fetch("http://site" + path,
                                 connectionless=True).reply.body
        except Exception as exc:
            got[path] = exc

    threads = [threading.Thread(target=get, args=(path,))
               for path in ("/1", "/2")]
    try:
        for thread in threads:
            thread.start()
            time.sleep(0.01)
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {"/1": b"1", "/2": b"2"}
    finally:
        ua.close()
        service.close()


def test_a_late_connectionless_reply_is_counted_as_dropped():
    # the Get's endpoint is closed when the Get times out, so the Reply
    # finds no port bound and the WDP stack counts it
    clock = VirtualClock()
    net = SimNetwork(clock)
    service = gw.Gateway(
        gw.GatewayConfig(impairments=ImpairmentProfile(delay_ms=200)),
        clock=clock, network=net, fetch=gw.local_content_fetch(PAGES))
    service.connectionless._executor = None  # the handler runs inline
    ua = UserAgent(WdpAddress("gateway", 9201), net.endpoint("handset"),
                   clock=clock, timeout=0.05)
    try:
        with pytest.raises(wsp.RequestTimeout):
            ua.fetch("http://site/plain", connectionless=True)
        clock.advance(1.0)  # past the Reply's arrival at 0.2 s
        assert ua._stack.dropped_count == 1
        assert clock.now() == 1.05  # the Get waited out its 0.05 s
    finally:
        ua.close()
        service.close()
