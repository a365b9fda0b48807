"""Micro-browser client: fetch URLs through the stack, render decks as text.

Rendering is a pure function of the document tree: only the first card is
shown; ``p`` starts a paragraph line, ``br`` breaks a line, ``a`` becomes
``[n] label`` and is collected as a numbered link; ``do``/``template``
elements are listed as labeled actions but never executed.
"""

from __future__ import annotations

import logging
import urllib.parse
from dataclasses import dataclass

from . import wml, wsp, wtls
from .clock import RealClock
from .wdp import WSP_CONNECTIONLESS_PORT, WdpAddress, WdpStack
from .wtp import RetransmissionPolicy, WtpProvider

log = logging.getLogger(__name__)


class UserAgentError(Exception):
    pass


class EmptyDeck(UserAgentError):
    pass


class NoSuchLink(UserAgentError):
    pass


@dataclass
class RenderedDeck:
    lines: list[str]
    links: list[tuple[int, str, str]]  # (index, href, label)


@dataclass
class FetchResult:
    url: str
    reply: wsp.WspMessage
    document: wml.Document | None  # decoded when the body is tokenized WML

    @property
    def content_type(self) -> str:
        return wsp.content_type(self.reply.headers)


def _collect_text(el: wml.Element) -> str:
    parts = []
    for child in el.children:
        if isinstance(child, wml.Text):
            parts.append(child.text)
        else:
            parts.append(_collect_text(child))
    return "".join(parts)


def _attr(el: wml.Element, name: str) -> str:
    for n, v in el.attrs:
        if n == name:
            return v
    return ""


def render(doc: wml.Document) -> RenderedDeck:
    card = next((c for c in doc.root.children
                 if isinstance(c, wml.Element) and c.tag == "card"), None)
    if card is None:
        raise EmptyDeck("document has no card")
    lines: list[str] = []
    current: list[str] = []  # text of the line being built
    links: list[tuple[int, str, str]] = []

    def flush() -> None:
        line = "".join(current).strip()
        current.clear()
        if line:
            lines.append(line)

    def visit(node) -> None:
        if isinstance(node, wml.Text):
            current.append(node.text)
            return
        if node.tag == "br":
            flush()
        elif node.tag == "p":
            flush()
            for child in node.children:
                visit(child)
            flush()
        elif node.tag == "a":
            index = len(links) + 1
            label = _collect_text(node)
            links.append((index, _attr(node, "href"), label))
            current.append(f"[{index}] {label}")
        elif node.tag in ("do", "template"):
            flush()
            label = _attr(node, "title") or _attr(node, "id") or _collect_text(node)
            lines.append(f"({node.tag}) {label}".strip())
        else:
            for child in node.children:
                visit(child)

    for child in card.children:
        visit(child)
    flush()
    return RenderedDeck(lines, links)


class UserAgent:
    """One logical user driving the full client stack against a gateway."""

    def __init__(self, gateway_addr: WdpAddress, bearer, clock=None,
                 security: str = wtls.MODE_OFF, psk: bytes = b"",
                 identity: bytes = b"client", timeout: float = 15.0,
                 policy: RetransmissionPolicy | None = None, trace=None):
        self._own_clock = clock is None
        self.clock = clock or RealClock()
        self.gateway_addr = gateway_addr
        self.timeout = timeout
        self._stack = WdpStack(bearer)
        self._endpoint = self._stack.bind_ephemeral()
        if security != wtls.MODE_OFF:
            self._transport = wtls.WtlsClientTransport(
                self._endpoint, gateway_addr, identity, psk, security, self.clock)
            self._transport.handshake(timeout=timeout)
        else:
            self._transport = self._endpoint
        self.provider = WtpProvider(self._transport, self.clock, policy,
                                    trace=trace)
        self._client = wsp.WspClient(self.provider, gateway_addr)
        self.session: wsp.WspSession | None = None
        self._cl_endpoint = None

    def _ensure_session(self) -> wsp.WspSession:
        if self.session is None or self.session.state == wsp.CLOSED:
            self.session = self._client.connect(
                [("User-Agent", "wapstack-ua/1")], timeout=self.timeout)
        return self.session

    def fetch(self, url: str, headers=None, connectionless: bool = False) -> FetchResult:
        """Fetch a URL; reuses one session unless connectionless."""
        if connectionless:
            if self._cl_endpoint is None:
                self._cl_endpoint = self._stack.bind_ephemeral()
            cl_addr = WdpAddress(self.gateway_addr.host, WSP_CONNECTIONLESS_PORT)
            reply = wsp.connectionless_get(self._cl_endpoint, cl_addr, url,
                                           headers, timeout=self.timeout)
        else:
            reply = self._ensure_session().get(url, headers,
                                               timeout=self.timeout)
        result = FetchResult(url, reply, None)
        if result.content_type == "application/wmlc":
            result.document = wml.decode(reply.body)
        return result

    def navigate(self, current: FetchResult, deck: RenderedDeck,
                 link_index: int) -> tuple[FetchResult, RenderedDeck]:
        """Follow link n of a rendered deck over the existing session."""
        match = next((l for l in deck.links if l[0] == link_index), None)
        if match is None:
            raise NoSuchLink(f"deck has no link {link_index}")
        target = urllib.parse.urljoin(current.url, match[1])
        result = self.fetch(target)
        if result.document is None:
            raise UserAgentError(f"{target} did not return a WML deck")
        return result, render(result.document)

    def suspend(self) -> None:
        if self.session is None:
            raise wsp.WrongState("no session")
        self.session.suspend()

    def resume(self) -> None:
        if self.session is None:
            raise wsp.WrongState("no session")
        self.session.resume(timeout=self.timeout)

    def close(self) -> None:
        if self.session is not None and self.session.state == wsp.CONNECTED:
            try:
                self.session.disconnect()
            except Exception:  # closing goes on; the gateway's TTL ends it
                log.warning("disconnect of session %d failed",
                            self.session.session_id, exc_info=True)
        self.provider.close()
        self._stack.close()
        if self._own_clock:
            self.clock.close()
