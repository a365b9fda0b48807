"""Session layer: compact HTTP-like semantics over WTP, plus a
connectionless mode straight over WDP.

Message layout:

    pdu_type(1)
    session_id(4, big-endian)        Connect/ConnectReply/Suspend/Resume only
    status(compact, see below)       Reply only
    uri, NUL-terminated              Get/Post only
    headers block length (uint16) + encoded headers
    body = remainder

Compact headers: a well-known name or value is one byte ``0x80 | code``;
anything else is NUL-terminated ASCII text (first byte < 0x80).  Order is
preserved.

Status compaction: ``(code // 100) << 4 | code % 100`` when the remainder
fits a nibble (200 -> 0x20, 404 -> 0x44, 502 -> 0x52); otherwise the escape
byte 0xFF followed by the literal uint16 code.

Transaction mapping: Connect/Resume/Get/Post ride WTP class 2, and the
server ignores them on any other class, which cannot carry a reply;
Suspend/Disconnect ride class 0.  The connectionless service prefixes one
id byte to a Get/Reply pair on the dedicated WDP port and never
retransmits.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass, field

from . import wtp
from .bearer import OversizeDatagram
from .wdp import WdpAddress

log = logging.getLogger(__name__)

PDU_CONNECT = 0x01
PDU_CONNECT_REPLY = 0x02
PDU_REPLY = 0x04
PDU_DISCONNECT = 0x05
PDU_SUSPEND = 0x07
PDU_RESUME = 0x08
PDU_GET = 0x40
PDU_POST = 0x60

_ALL_PDU_TYPES = {PDU_CONNECT, PDU_CONNECT_REPLY, PDU_REPLY, PDU_DISCONNECT,
                  PDU_SUSPEND, PDU_RESUME, PDU_GET, PDU_POST}
_WITH_SESSION_ID = {PDU_CONNECT, PDU_CONNECT_REPLY, PDU_SUSPEND, PDU_RESUME}
METHODS = {PDU_GET: "GET", PDU_POST: "POST"}

WELL_KNOWN_HEADERS = {
    "Accept": 0x00,
    "Content-Type": 0x01,
    "Content-Length": 0x02,
    "Host": 0x03,
    "User-Agent": 0x04,
    "Location": 0x05,
}
WELL_KNOWN_VALUES = {
    "text/plain": 0x01,
    "text/vnd.wap.wml": 0x02,
    "application/wmlc": 0x03,
}
_HEADER_BY_CODE = {v: k for k, v in WELL_KNOWN_HEADERS.items()}
_VALUE_BY_CODE = {v: k for k, v in WELL_KNOWN_VALUES.items()}

STATUS_ESCAPE = 0xFF

# session states (client view)
CONNECTED = "CONNECTED"
SUSPENDED = "SUSPENDED"
CLOSED = "CLOSED"


class WspError(Exception):
    pass


class MalformedHeaders(WspError):
    pass


class MalformedMessage(WspError):
    pass


class ConnectRefused(WspError):
    pass


class ResumeRefused(WspError):
    pass


class SessionNotConnected(WspError):
    pass


class WrongState(WspError):
    pass


class MethodAborted(WspError):
    pass


class RequestTimeout(WspError):
    """Connectionless request got no Reply within the fixed timeout."""


# --- compact header codec ---------------------------------------------------

def _check_text(text: str, what: str) -> bytes:
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        raise MalformedHeaders(f"{what} {text!r} is not ASCII") from None
    if b"\x00" in raw:
        raise MalformedHeaders(f"{what} {text!r} contains NUL")
    return raw


def encode_headers(headers: list[tuple[str, str]]) -> bytes:
    out = bytearray()
    for name, value in headers:
        if not name:
            raise MalformedHeaders("empty header name")
        code = WELL_KNOWN_HEADERS.get(name)
        if code is not None:
            out.append(0x80 | code)
        else:
            out += _check_text(name, "header name") + b"\x00"
        vcode = WELL_KNOWN_VALUES.get(value)
        if vcode is not None:
            out.append(0x80 | vcode)
        else:
            out += _check_text(value, "header value") + b"\x00"
    return bytes(out)


def _read_token(data: bytes, pos: int, table: dict[int, str],
                what: str) -> tuple[str, int]:
    if pos >= len(data):
        raise MalformedHeaders(f"truncated {what}")
    first = data[pos]
    if first >= 0x80:
        text = table.get(first & 0x7F)
        if text is None:
            raise MalformedHeaders(f"unknown well-known {what} code {first & 0x7F:#04x}")
        return text, pos + 1
    end = data.find(b"\x00", pos)
    if end < 0:
        raise MalformedHeaders(f"unterminated {what} text")
    raw = data[pos:end]
    if not raw.isascii():
        raise MalformedHeaders(f"byte >= 0x80 inside {what} text")
    return raw.decode("ascii"), end + 1


def decode_headers(data: bytes) -> list[tuple[str, str]]:
    headers = []
    pos = 0
    while pos < len(data):
        name, pos = _read_token(data, pos, _HEADER_BY_CODE, "header name")
        if not name:
            raise MalformedHeaders("empty header name")
        value, pos = _read_token(data, pos, _VALUE_BY_CODE, "header value")
        headers.append((name, value))
    return headers


# --- status compaction -------------------------------------------------------

def compact_status(code: int) -> bytes:
    if not 100 <= code <= 999:
        raise MalformedMessage(f"status {code} out of range")
    if code % 100 <= 15:
        return bytes([(code // 100) << 4 | code % 100])
    return bytes([STATUS_ESCAPE]) + struct.pack("!H", code)


def expand_status(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise MalformedMessage("missing status byte")
    b = data[pos]
    if b == STATUS_ESCAPE:
        if pos + 3 > len(data):
            raise MalformedMessage("truncated escaped status")
        return struct.unpack_from("!H", data, pos + 1)[0], pos + 3
    return (b >> 4) * 100 + (b & 0x0F), pos + 1


# --- message codec ------------------------------------------------------------

@dataclass
class WspMessage:
    pdu_type: int
    session_id: int = 0
    status: int = 0                 # full HTTP code; compacted on the wire
    uri: str = ""
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    @property
    def method(self) -> str | None:
        """The HTTP method of a Get or Post; None for any other PDU."""
        return METHODS.get(self.pdu_type)


def encode_message(msg: WspMessage) -> bytes:
    if msg.pdu_type not in _ALL_PDU_TYPES:
        raise MalformedMessage(f"unknown pdu type {msg.pdu_type:#04x}")
    out = bytearray([msg.pdu_type])
    if msg.pdu_type in _WITH_SESSION_ID:
        out += struct.pack("!I", msg.session_id)
    if msg.pdu_type == PDU_REPLY:
        out += compact_status(msg.status)
    if msg.pdu_type in METHODS:
        try:
            raw_uri = msg.uri.encode("ascii")
        except UnicodeEncodeError:
            raise MalformedMessage(f"uri {msg.uri!r} is not ASCII") from None
        if b"\x00" in raw_uri or not raw_uri:
            raise MalformedMessage("uri empty or contains NUL")
        out += raw_uri + b"\x00"
    header_block = encode_headers(msg.headers)
    out += struct.pack("!H", len(header_block)) + header_block
    out += msg.body
    return bytes(out)


def decode_message(data: bytes) -> WspMessage:
    if not data:
        raise MalformedMessage("empty message")
    pdu_type = data[0]
    if pdu_type not in _ALL_PDU_TYPES:
        raise MalformedMessage(f"unknown pdu type {pdu_type:#04x}")
    msg = WspMessage(pdu_type)
    pos = 1
    if pdu_type in _WITH_SESSION_ID:
        if pos + 4 > len(data):
            raise MalformedMessage("truncated session id")
        msg.session_id = struct.unpack_from("!I", data, pos)[0]
        pos += 4
    if pdu_type == PDU_REPLY:
        msg.status, pos = expand_status(data, pos)
    if pdu_type in METHODS:
        end = data.find(b"\x00", pos)
        if end < 0:
            raise MalformedMessage("unterminated uri")
        try:
            msg.uri = data[pos:end].decode("ascii")
        except UnicodeDecodeError:
            raise MalformedMessage("uri is not ASCII") from None
        pos = end + 1
    if pos + 2 > len(data):
        raise MalformedMessage("truncated header block length")
    (header_len,) = struct.unpack_from("!H", data, pos)
    pos += 2
    if pos + header_len > len(data):
        raise MalformedMessage("truncated header block")
    msg.headers = decode_headers(data[pos:pos + header_len])
    msg.body = data[pos + header_len:]
    return msg


def content_type(headers: list[tuple[str, str]]) -> str:
    """Media type of the first Content-Type header, parameters stripped."""
    for name, value in headers:
        if name.lower() == "content-type":
            return value.split(";", 1)[0].strip()
    return ""


# --- client ------------------------------------------------------------------

class WspSession:
    """Client-side session; control operations are serialized by a lock,
    methods on a CONNECTED session may run concurrently."""

    def __init__(self, client: "WspClient", session_id: int,
                 negotiated_headers: list[tuple[str, str]]):
        self._client = client
        self.session_id = session_id
        self.negotiated_headers = negotiated_headers
        self.state = CONNECTED
        self._lock = threading.Lock()

    def get(self, uri: str, headers=None, timeout: float = 30.0) -> WspMessage:
        return self._method(PDU_GET, uri, headers or [], b"", timeout)

    def post(self, uri: str, headers=None, body: bytes = b"",
             timeout: float = 30.0) -> WspMessage:
        return self._method(PDU_POST, uri, headers or [], body, timeout)

    def _method(self, pdu_type, uri, headers, body, timeout) -> WspMessage:
        if self.state != CONNECTED:
            raise SessionNotConnected(f"session {self.session_id} is {self.state}")
        msg = WspMessage(pdu_type, uri=uri, headers=list(headers), body=body)
        try:
            reply = self._client._round_trip(msg, timeout)
        except wtp.Aborted as exc:
            raise MethodAborted(str(exc)) from exc
        if reply.pdu_type != PDU_REPLY:
            raise MalformedMessage(f"expected Reply, got {reply.pdu_type:#04x}")
        return reply

    def suspend(self) -> None:
        with self._lock:
            if self.state != CONNECTED:
                raise WrongState(f"cannot suspend from {self.state}")
            msg = WspMessage(PDU_SUSPEND, session_id=self.session_id)
            self._client._provider.invoke(self._client._gateway, 0,
                                          encode_message(msg))
            self.state = SUSPENDED

    def resume(self, timeout: float = 30.0) -> None:
        with self._lock:
            if self.state != SUSPENDED:
                raise WrongState(f"cannot resume from {self.state}")
            reply = self._client._round_trip(
                WspMessage(PDU_RESUME, session_id=self.session_id), timeout)
            if reply.pdu_type != PDU_CONNECT_REPLY or reply.session_id != self.session_id:
                raise ResumeRefused(
                    f"server would not resume session {self.session_id}")
            self.negotiated_headers = reply.headers
            self.state = CONNECTED

    def disconnect(self) -> None:
        with self._lock:
            if self.state == CLOSED:
                raise WrongState("session already closed")
            self.state = CLOSED  # even if the Disconnect cannot be sent
            self._client._provider.invoke(
                self._client._gateway, 0, encode_message(WspMessage(PDU_DISCONNECT)))


class WspClient:
    """Connection-oriented WSP over a WTP provider."""

    def __init__(self, provider: wtp.WtpProvider, gateway_addr: WdpAddress):
        self._provider = provider
        self._gateway = gateway_addr

    def _round_trip(self, msg: WspMessage, timeout: float) -> WspMessage:
        """Send ``msg`` on a class-2 transaction; return the decoded Result.
        Each caller checks the reply's PDU type, because each maps a wrong
        one to its own exception.  When ``timeout`` runs out first the
        transaction is aborted, so its tid is freed even if WTP itself would
        wait on for a Result."""
        handle = self._provider.invoke(self._gateway, 2, encode_message(msg))
        try:
            handle.wait(timeout)
        except wtp.TransactionTimeout:
            with contextlib.suppress(wtp.AlreadyCompleted):
                handle.abort()
            raise
        return decode_message(handle.result)

    def connect(self, capability_headers=None, timeout: float = 30.0) -> WspSession:
        reply = self._round_trip(WspMessage(
            PDU_CONNECT, headers=list(capability_headers or [])), timeout)
        if reply.pdu_type == PDU_REPLY and reply.status >= 400:
            raise ConnectRefused(f"gateway replied status {reply.status}")
        if reply.pdu_type != PDU_CONNECT_REPLY or reply.session_id == 0:
            raise MalformedMessage("bad connect reply")
        return WspSession(self, reply.session_id, reply.headers)


# --- server ------------------------------------------------------------------

TEXT_PLAIN = (("Content-Type", "text/plain"),)


def _encode_reply(status: int, headers, body: bytes) -> bytes:
    return encode_message(WspMessage(PDU_REPLY, status=status, headers=headers,
                                     body=body))


def _run_handler(handler, executor, msg: WspMessage, ctx, send) -> None:
    """Run ``handler`` (on ``executor`` when given) and ``send`` the encoded
    Reply.  A failing handler is logged and answered 500; a Reply too large
    for one datagram is answered 502, so the client never waits it out.  A
    Reply to a method the handset aborted is refused by WTP and logged as
    one line; a send that fails otherwise is logged with its traceback,
    since no caller reads the result."""
    def work():
        try:
            reply = _encode_reply(*handler(msg, ctx))
        except Exception:
            log.exception("handler failed: %s %s", msg.method, msg.uri)
            reply = _encode_reply(500, TEXT_PLAIN, b"internal handler error")
        try:
            try:
                send(reply)
            except (wtp.OversizePayload, OversizeDatagram) as exc:
                log.warning("reply to %s %s too large: %s", msg.method,
                            msg.uri, exc)
                send(_encode_reply(502, TEXT_PLAIN,
                                   b"reply too large for one datagram"))
        except (wtp.WrongState, wtp.UnknownTid) as exc:
            # an unanswered method's record leaves INVOKE_RCVD only by an
            # Abort, and is forgotten once that has lingered
            log.info("reply to %s %s not sent: %s", msg.method, msg.uri, exc)
        except Exception:
            log.exception("sending the reply to %s %s failed", msg.method,
                          msg.uri)

    if executor is not None:
        executor.submit(work)
    else:
        work()


class _SessionRecord:
    __slots__ = ("session_id", "peer", "state", "negotiated_headers",
                 "suspended_at")

    def __init__(self, session_id, peer, headers):
        self.session_id = session_id
        self.peer = peer
        self.state = CONNECTED
        self.negotiated_headers = headers  # suspended_at: set by a Suspend


class WspServer:
    """Session service: answers Connect/Resume, routes methods to a handler.

    ``handler(msg, ctx)`` gets the decoded Get or Post ``WspMessage`` and
    returns ``(status_code, headers, body)``; ``ctx`` is a dict with
    ``session_id`` and ``tid`` for logging.  When an executor is given the
    handler runs on a worker thread so slow origin fetches never stall the
    protocol stack.

    A session that stays suspended for ``session_ttl_s`` is forgotten at
    the first Invoke or ``session_count()`` from then on; no timer runs, so
    an idle server keeps it until then.  Connected sessions are kept.
    """

    def __init__(self, provider: wtp.WtpProvider, handler, clock,
                 session_ttl_s: float = 300.0, executor=None):
        self._provider = provider
        self._handler = handler
        self._clock = clock
        self._ttl = session_ttl_s
        self._executor = executor
        self._sessions: dict[int, _SessionRecord] = {}
        self._by_peer: dict[WdpAddress, _SessionRecord] = {}
        self._idle: deque[tuple[float, int]] = deque()
        self._next_sid = itertools.count(1)
        self._lock = threading.Lock()
        provider.on_invoke = self._on_invoke

    def session_count(self) -> int:
        with self._lock:
            self._forget_idle()
            return len(self._sessions)

    def _forget_idle(self) -> None:
        """Forget each session whose TTL has run since its last Suspend;
        under the lock, before any read of the session tables.  ``_idle``
        holds ``(suspended_at + ttl, session_id)`` per Suspend, in time
        order, and an entry is stale once its session was resumed."""
        idle = self._idle
        while idle and idle[0][0] <= (now := self._clock.now()):
            rec = self._sessions.get(idle.popleft()[1])
            if rec is not None and rec.state == SUSPENDED \
                    and rec.suspended_at + self._ttl <= now:
                del self._sessions[rec.session_id]
                if self._by_peer.get(rec.peer) is rec:
                    del self._by_peer[rec.peer]

    def _on_invoke(self, inv: wtp.Invocation) -> None:
        if self._idle:  # unlocked peek: an entry it misses waits one Invoke
            with self._lock:
                self._forget_idle()
        try:
            msg = decode_message(inv.payload)
        except WspError:
            if inv.tclass == 2:
                self._reply(inv, 400, b"malformed WSP message")
            return
        if msg.pdu_type == PDU_SUSPEND:
            self._handle_suspend(inv, msg)
        elif msg.pdu_type == PDU_DISCONNECT:
            self._handle_disconnect(inv)
        elif inv.tclass != 2:
            # every other request is answered, and only class 2 has a Result
            log.warning("pdu %#04x on class %d from %s ignored",
                        msg.pdu_type, inv.tclass, inv.src)
        elif msg.pdu_type == PDU_CONNECT:
            self._handle_connect(inv, msg)
        elif msg.pdu_type in METHODS:
            self._handle_method(inv, msg)
        elif msg.pdu_type == PDU_RESUME:
            self._handle_resume(inv, msg)
        else:
            self._reply(inv, 400, b"unexpected pdu type")

    def _reply(self, inv, status, body) -> None:
        inv.respond(_encode_reply(status, [], body))

    def _bind(self, peer, rec) -> None:
        """Make ``rec`` the session of ``peer``.  A session the peer had
        that is still CONNECTED could no longer be reached, so it is
        forgotten; a SUSPENDED one stays resumable by its id."""
        old = self._by_peer.get(peer)
        if old is not None and old is not rec and old.state == CONNECTED:
            del self._sessions[old.session_id]
        self._by_peer[peer] = rec

    def _handle_connect(self, inv, msg) -> None:
        with self._lock:
            sid = next(self._next_sid)
            rec = self._sessions[sid] = _SessionRecord(sid, inv.src, msg.headers)
            self._bind(inv.src, rec)
        reply = WspMessage(PDU_CONNECT_REPLY, session_id=sid, headers=msg.headers)
        inv.respond(encode_message(reply))

    def _handle_suspend(self, inv, msg) -> None:
        with self._lock:
            rec = self._sessions.get(msg.session_id)
            # only from its own peer: session ids are easy to guess
            if rec is not None and rec.state == CONNECTED and rec.peer == inv.src:
                rec.state = SUSPENDED
                rec.suspended_at = self._clock.now()
                self._idle.append((rec.suspended_at + self._ttl, rec.session_id))

    def _handle_resume(self, inv, msg) -> None:
        with self._lock:
            rec = self._sessions.get(msg.session_id)
            if rec is not None:
                if self._by_peer.get(rec.peer) is rec:
                    del self._by_peer[rec.peer]
                rec.peer = inv.src
                rec.state = CONNECTED
                self._bind(inv.src, rec)
        if rec is None:
            self._reply(inv, 404, b"no such session")
        else:
            reply = WspMessage(PDU_CONNECT_REPLY, session_id=rec.session_id,
                               headers=rec.negotiated_headers)
            inv.respond(encode_message(reply))

    def _handle_disconnect(self, inv) -> None:
        with self._lock:
            rec = self._by_peer.pop(inv.src, None)
            if rec is not None:
                self._sessions.pop(rec.session_id, None)

    def _handle_method(self, inv, msg) -> None:
        with self._lock:
            rec = self._by_peer.get(inv.src)
            connected = rec is not None and rec.state == CONNECTED
        if not connected:
            self._reply(inv, 400, b"no connected session")
            return
        ctx = {"session_id": rec.session_id, "tid": inv.tid}
        _run_handler(self._handler, self._executor, msg, ctx, inv.respond)


# --- connectionless service ---------------------------------------------------

def connectionless_get(endpoint, gateway_addr: WdpAddress, uri: str,
                       headers=None, timeout: float = 3.0,
                       request_id: int | None = None) -> WspMessage:
    """One-shot Get over the connectionless port; unreliable by design.
    The first Reply that echoes the id byte, or a malformed one, ends it.
    The Get holds ``endpoint``'s receiver while it waits, so run one at a
    time per endpoint; a reply that arrives when none waits is dropped."""
    rid = request_id if request_id is not None else os.urandom(1)[0]
    msg = WspMessage(PDU_GET, uri=uri, headers=list(headers or []))
    got = []
    arrived = threading.Event()

    def on_datagram(src, data: bytes) -> None:
        if got or not data or data[0] != rid:
            return
        try:
            reply = decode_message(data[1:])
            if reply.pdu_type != PDU_REPLY:
                return
        except WspError as exc:
            reply = exc  # raised to the caller
        got.append(reply)
        arrived.set()

    endpoint.set_receiver(on_datagram)
    try:
        endpoint.send(gateway_addr, bytes([rid]) + encode_message(msg))
        if not arrived.wait(timeout):
            raise RequestTimeout(f"no reply for request id {rid} within {timeout}s")
    finally:
        endpoint.set_receiver(None)
    if isinstance(got[0], WspError):
        raise got[0]
    return got[0]


class ConnectionlessResponder:
    """Server half of the connectionless service: echoes the id byte."""

    def __init__(self, endpoint, handler, executor=None):
        self._endpoint = endpoint
        self._handler = handler
        self._executor = executor
        self.malformed_count = 0
        endpoint.set_receiver(self._on_datagram)

    def _on_datagram(self, src: WdpAddress, data: bytes) -> None:
        try:
            msg = decode_message(data[1:])  # empty data fails here too
        except WspError:
            msg = None
        if msg is None or msg.pdu_type != PDU_GET:
            self.malformed_count += 1
            return
        rid = data[0]
        _run_handler(self._handler, self._executor, msg,
                     {"session_id": 0, "tid": rid},
                     lambda reply: self._endpoint.send(src, bytes([rid]) + reply))
