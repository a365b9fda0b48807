"""The WAP gateway: terminates WDP/WTLS/WTP/WSP on the wireless side,
translates methods to HTTP/1.1 against origin servers, and token-encodes
WML response bodies.

Request path: compact WSP method -> expanded HTTP request (plus a
``Via: wap-gateway/1`` header) -> origin fetch -> compact WSP Reply.  A
``text/vnd.wap.wml`` response body is parsed and re-encoded as
``application/wmlc``; everything else passes through byte-identically.

Compile cache: the WMLC of each WML body is kept in one LRU map keyed on
the exact source bytes and bounded by ``_WMLC_CACHE_BYTES`` (1 MiB of
source plus WMLC), so a deck served again is encoded once.  The origin is
still fetched every time, so a reply is correct by construction.  Decks that
fail to compile are not kept, and a deck larger than the bound is compiled
and not stored.

Failure classification: bad or non-http URL -> 400, origin unreachable or
WML encode failure -> 502, origin timeout -> 504.

The gateway can also run with no HTTP hop (``fetch`` override) so WSP
server semantics are testable in-process.
"""

from __future__ import annotations

import http.client
import logging
import socket
import threading
import time
import urllib.parse
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import wml, wsp, wtls
from .bearer import ImpairmentProfile, SimNetwork, UdpBearer
from .clock import RealClock
from .wdp import WSP_CONNECTIONLESS_PORT, WSP_SESSION_PORT, WdpStack
from .wtp import RetransmissionPolicy, WtpProvider

log = logging.getLogger("wapgw")

VIA_HEADER = ("Via", "wap-gateway/1")
WML_MIME = "text/vnd.wap.wml"
WMLC_MIME = "application/wmlc"

# the logging level names; logging.getLevelNamesMapping needs Python 3.11
_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

_HOP_BY_HOP = {"connection", "keep-alive", "transfer-encoding",
               "proxy-connection", "upgrade", "te", "trailer"}


class GatewayError(Exception):
    pass


class BadUri(GatewayError):
    pass


class OriginUnreachable(GatewayError):
    pass


class OriginTimeout(GatewayError):
    pass


class ContentEncodeFailure(GatewayError):
    pass


_ERROR_STATUS = {BadUri: 400, OriginUnreachable: 502,
                 ContentEncodeFailure: 502, OriginTimeout: 504}


@dataclass
class GatewayConfig:
    listen_host: str = "127.0.0.1"
    listen_port: int = WSP_SESSION_PORT
    connectionless_port: int = WSP_CONNECTIONLESS_PORT
    bearer: str = "sim"               # "sim" | "udp"
    security: str = wtls.MODE_OFF     # "off" | "mac" | "full"
    psk_file: str | None = None
    http_timeout_ms: int = 5000
    session_ttl_s: int = 300
    impairments: ImpairmentProfile = field(default_factory=ImpairmentProfile)
    log_level: str = "info"

    def validate(self) -> "GatewayConfig":
        for name in ("listen_port", "connectionless_port"):
            port = getattr(self, name)
            if not 1 <= port <= 65535:
                raise ValueError(f"{name} must be in 1-65535, got {port}")
        if self.listen_port == self.connectionless_port:
            raise ValueError("listen_port and connectionless_port must differ")
        if self.bearer not in ("sim", "udp"):
            raise ValueError(f"bearer must be sim or udp, got {self.bearer!r}")
        if self.security not in (wtls.MODE_OFF, wtls.MODE_INTEGRITY, wtls.MODE_FULL):
            raise ValueError(f"security must be off, mac or full, got {self.security!r}")
        if self.security != wtls.MODE_OFF and not self.psk_file:
            raise ValueError("psk_file is required unless security=off")
        if self.http_timeout_ms <= 0 or self.session_ttl_s <= 0:
            raise ValueError("http_timeout_ms and session_ttl_s must be positive")
        if self.log_level.lower() not in _LOG_LEVELS:
            raise ValueError(f"log_level must be one of {', '.join(_LOG_LEVELS)}"
                             f", got {self.log_level!r}")
        return self


@dataclass
class HttpExchange:
    method: str
    url: str
    request_headers: list[tuple[str, str]]
    request_body: bytes = b""
    status: int | None = None
    response_headers: list[tuple[str, str]] = field(default_factory=list)
    response_body: bytes = b""


def translate_request(msg: wsp.WspMessage) -> HttpExchange:
    """Expand a compact Get/Post into the HTTP request half."""
    method = {wsp.PDU_GET: "GET", wsp.PDU_POST: "POST"}.get(msg.pdu_type)
    if method is None:
        raise BadUri(f"pdu type {msg.pdu_type:#04x} is not a method")
    parts = urllib.parse.urlsplit(msg.uri)
    if parts.scheme != "http" or not parts.netloc:
        raise BadUri(f"need an absolute http URL, got {msg.uri!r}")
    headers = list(msg.headers) + [VIA_HEADER]
    return HttpExchange(method, msg.uri, headers, msg.body)


def fetch_origin(exchange: HttpExchange, timeout_s: float) -> HttpExchange:
    """Run the HTTP/1.1 hop; classify connect failures and timeouts."""
    parts = urllib.parse.urlsplit(exchange.url)
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    conn = http.client.HTTPConnection(parts.hostname, parts.port or 80,
                                      timeout=timeout_s)
    headers = dict(exchange.request_headers)
    headers.setdefault("Host", parts.netloc)
    if exchange.request_body:
        headers.setdefault("Content-Length", str(len(exchange.request_body)))
    try:
        conn.request(exchange.method, path, body=exchange.request_body or None,
                     headers=headers)
        response = conn.getresponse()
        exchange.status = response.status
        exchange.response_headers = list(response.getheaders())
        exchange.response_body = response.read()
    except socket.timeout as exc:
        raise OriginTimeout(f"{exchange.url}: {exc}") from exc
    except (OSError, http.client.HTTPException) as exc:
        raise OriginUnreachable(f"{exchange.url}: {exc}") from exc
    finally:
        conn.close()
    return exchange


_WMLC_CACHE_BYTES = 1 << 20  # source plus WMLC bytes kept by _WmlcCache


class _WmlcCache:
    """WML source bytes -> WMLC bytes, least recently used evicted first
    once the bytes held pass ``_WMLC_CACHE_BYTES``.

    One instance serves every gateway in the process: a key is the whole
    source, and WMLC is a function of the source alone, so sharing can
    change what is computed again, never what is served.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        self._size = 0

    def compile(self, source: bytes) -> bytes:
        """The WMLC of ``source``; raises ``WmlError`` or
        ``UnicodeDecodeError`` for a bad deck, which is not kept."""
        with self._lock:
            wmlc = self._entries.get(source)
            if wmlc is not None:
                self._entries.move_to_end(source)
                return wmlc
        # compiled outside the lock; two threads may race on a new deck and
        # both compile it, which costs time, not correctness
        wmlc = wml.encode(wml.parse(source.decode("ascii")))
        cost = len(source) + len(wmlc)
        if cost > _WMLC_CACHE_BYTES:
            return wmlc
        with self._lock:
            if source not in self._entries:
                self._entries[source] = wmlc
                self._size += cost
                while self._size > _WMLC_CACHE_BYTES:
                    old_source, old_wmlc = self._entries.popitem(last=False)
                    self._size -= len(old_source) + len(old_wmlc)
        return wmlc


_wmlc_cache = _WmlcCache()


def translate_response(exchange: HttpExchange) -> tuple[int, list[tuple[str, str]], bytes]:
    """Compact the response half; WML bodies become tokenized binary."""
    body = exchange.response_body
    headers: list[tuple[str, str]] = []
    rewrite_wml = wsp.content_type(exchange.response_headers) == WML_MIME
    if rewrite_wml:
        try:
            body = _wmlc_cache.compile(exchange.response_body)
        except (wml.WmlError, UnicodeDecodeError) as exc:
            raise ContentEncodeFailure(f"{exchange.url}: {exc}") from exc
    for name, value in exchange.response_headers:
        lower = name.lower()
        if lower in _HOP_BY_HOP:
            continue
        if rewrite_wml and lower == "content-type":
            value = WMLC_MIME
        elif rewrite_wml and lower == "content-length":
            value = str(len(body))
        headers.append((name, value))
    return exchange.status, headers, body


class Gateway:
    """Running gateway service; one per process or per test."""

    def __init__(self, config: GatewayConfig, clock=None, bearer=None,
                 network: SimNetwork | None = None, fetch=None,
                 policy: RetransmissionPolicy | None = None):
        config.validate()
        self.config = config
        # read first, so a bad PSK file leaves no bearer or clock thread
        psk_table = (wtls.load_psk_file(config.psk_file)
                     if config.security != wtls.MODE_OFF else None)
        if bearer is None and config.bearer == "udp":
            # before the clock, so a failed bind leaves no clock thread
            try:
                bearer = UdpBearer((config.listen_host, config.listen_port))
            except OSError as exc:
                raise GatewayError(f"cannot bind UDP bearer: {exc}") from exc
        self._own_clock = clock is None
        self.clock = clock or RealClock()
        self._fetch = fetch or (lambda ex: fetch_origin(
            ex, config.http_timeout_ms / 1000.0))
        if bearer is not None:
            self._bearer = bearer
        else:
            if network is None:
                network = SimNetwork(self.clock)
            self.network = network
            self._bearer = network.endpoint("gateway", config.impairments)
        self._stack = WdpStack(self._bearer)
        session_ep = self._stack.bind(config.listen_port)
        if config.security != wtls.MODE_OFF:
            allowed = ((wtls.SUITE_NULL_MAC,)
                       if config.security == wtls.MODE_INTEGRITY
                       else (wtls.SUITE_NULL_MAC, wtls.SUITE_STREAM_MAC))
            self._transport = wtls.WtlsServerTransport(session_ep, psk_table,
                                                       allowed)
        else:
            self._transport = session_ep
        self._executor = ThreadPoolExecutor(max_workers=8,
                                            thread_name_prefix="wapgw-fetch")
        self.provider = WtpProvider(self._transport, self.clock, policy)
        self.wsp_server = wsp.WspServer(self.provider, self._handle_method,
                                        self.clock,
                                        session_ttl_s=config.session_ttl_s,
                                        executor=self._executor)
        cl_ep = self._stack.bind(config.connectionless_port)
        self.connectionless = wsp.ConnectionlessResponder(
            cl_ep, self._handle_method, executor=self._executor)

    @property
    def bearer_addr(self) -> str:
        return self._bearer.local_addr

    def session_count(self) -> int:
        return self.wsp_server.session_count()

    def _handle_method(self, method, uri, headers, body, ctx):
        start = time.monotonic()
        msg = wsp.WspMessage(wsp.PDU_GET if method == "GET" else wsp.PDU_POST,
                             uri=uri, headers=headers, body=body)
        try:
            exchange = self._fetch(translate_request(msg))
            status, out_headers, out_body = translate_response(exchange)
        except GatewayError as exc:
            status, out_headers = _ERROR_STATUS[type(exc)], wsp.TEXT_PLAIN
            out_body = str(exc).encode("ascii", "replace")
        dur_ms = (time.monotonic() - start) * 1000.0
        log.info("session=%d tid=%d method=%s uri=%s status=%d dur_ms=%.1f",
                 ctx["session_id"], ctx["tid"], method, uri, status, dur_ms)
        return status, out_headers, out_body

    def close(self, drain_s: float = 0.0) -> None:
        if drain_s > 0:
            time.sleep(drain_s)
        self.wsp_server.close()
        self.provider.close()
        self._executor.shutdown(wait=False)
        self._stack.close()
        if self._own_clock:
            self.clock.close()


def local_content_fetch(pages: dict[str, tuple[str, bytes]]):
    """No-HTTP-hop fetch: serve responses from an in-memory path map.

    Deploys the gateway with WSP server semantics only, for loopback tests.
    """
    def fetch(exchange: HttpExchange) -> HttpExchange:
        path = urllib.parse.urlsplit(exchange.url).path or "/"
        page = pages.get(path)
        if page is None:
            exchange.status = 404
            exchange.response_headers = [("Content-Type", "text/plain")]
            exchange.response_body = b"not found"
        else:
            ctype, body = page
            exchange.status = 200
            exchange.response_headers = [("Content-Type", ctype),
                                         ("Content-Length", str(len(body)))]
            exchange.response_body = body
        return exchange
    return fetch


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` format; # starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            values[key.strip()] = value.strip()
    return values
