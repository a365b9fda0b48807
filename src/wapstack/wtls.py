"""Record security above WDP: integrity, privacy, mutual PSK auth, replay.

Record wire format (header is exactly 7 bytes):

    type(1) | seq(4, big-endian) | body_len(2) | body | [mac(32)]

The MAC tag trails application records; handshake and alert records carry
no trailing tag (the Finished message embeds its MAC in the body).

Key schedule: the four traffic keys are
``HMAC-SHA256(psk, label || client_nonce || server_nonce)`` with labels
``c-mac``, ``s-mac``, ``c-key``, ``s-key``.  Suite 0x00 is null-cipher
plus MAC; suite 0x01 XORs an HMAC-derived keystream over the plaintext.

Duplicate-rejection is a 64-entry sliding replay window per direction,
checked only after the MAC verifies, so forged records cannot poison it.
Structural damage to a MAC-protected record is reported as MacFailure:
the framing of a sealed record is part of what the layer protects.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import struct
import threading
from dataclasses import dataclass

from .wdp import WdpAddress

MAC_LEN = 32
HEADER_FORMAT = "!BIH"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)  # 7 bytes
MAX_SEQ = 0xFFFFFFFF
REPLAY_WINDOW = 64

CONTENT_HANDSHAKE = 1
CONTENT_ALERT = 2
CONTENT_APPDATA = 3

SUITE_NULL_MAC = 0x00
SUITE_STREAM_MAC = 0x01

MODE_OFF = "off"
MODE_INTEGRITY = "mac"
MODE_FULL = "full"

_MODE_SUITES = {MODE_INTEGRITY: SUITE_NULL_MAC, MODE_FULL: SUITE_STREAM_MAC}

HS_CLIENT_HELLO = 0x01
HS_SERVER_HELLO = 0x02
HS_FINISHED = 0x03

ALERT_AUTH_FAILURE = 0x01
ALERT_SUITE_MISMATCH = 0x02

NONCE_LEN = 16


class WtlsError(Exception):
    pass


class MacFailure(WtlsError):
    pass


class ReplayDetected(WtlsError):
    pass


class UnknownContentType(WtlsError):
    pass


class SequenceExhausted(WtlsError):
    pass


class MalformedRecord(WtlsError):
    pass


class HandshakeTimeout(WtlsError):
    pass


class AuthenticationFailure(WtlsError):
    pass


class SuiteMismatch(WtlsError):
    pass


@dataclass
class WtlsRecord:
    content_type: int
    seq: int
    body: bytes
    mac: bytes | None = None


def encode_record(rec: WtlsRecord) -> bytes:
    header = struct.pack(HEADER_FORMAT, rec.content_type, rec.seq, len(rec.body))
    return header + rec.body + (rec.mac or b"")


def decode_record(data: bytes, with_mac: bool) -> WtlsRecord:
    error = MacFailure if with_mac else MalformedRecord
    if len(data) < HEADER_SIZE:
        raise error(f"record shorter than {HEADER_SIZE}-byte header")
    content_type, seq, body_len = struct.unpack_from(HEADER_FORMAT, data)
    expected = HEADER_SIZE + body_len + (MAC_LEN if with_mac else 0)
    if len(data) != expected:
        raise error(f"record length {len(data)}, header implies {expected}")
    body = data[HEADER_SIZE:HEADER_SIZE + body_len]
    mac = data[HEADER_SIZE + body_len:] if with_mac else None
    return WtlsRecord(content_type, seq, body, mac)


def derive_key(psk: bytes, label: bytes, client_nonce: bytes,
               server_nonce: bytes) -> bytes:
    return hmac.new(psk, label + client_nonce + server_nonce,
                    hashlib.sha256).digest()


def record_mac(mac_key: bytes, seq: int, content_type: int,
               plaintext: bytes) -> bytes:
    msg = struct.pack("!IBH", seq, content_type, len(plaintext)) + plaintext
    return hmac.new(mac_key, msg, hashlib.sha256).digest()


def keystream(traffic_key: bytes, seq: int, length: int) -> bytes:
    blocks = (length + 31) // 32  # HMAC-SHA256 gives 32 bytes a block
    return b"".join(
        hmac.digest(traffic_key, b"ks" + struct.pack("!II", seq, block), "sha256")
        for block in range(blocks))[:length]


def _xor(data: bytes, pad: bytes) -> bytes:
    """XOR ``data`` with ``pad``, which is as long as ``data``."""
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(pad, "big")).to_bytes(len(data), "big")


def finished_mac(mac_key: bytes, transcript: bytes) -> bytes:
    return hmac.new(mac_key, b"finished" + transcript, hashlib.sha256).digest()


class ReplayWindow:
    """Sliding window admitting each sequence number at most once."""

    def __init__(self, size: int = REPLAY_WINDOW):
        self.size = size
        self._highest = -1
        self._mask = 0

    def accept(self, seq: int) -> bool:
        if seq > self._highest:
            shift = seq - self._highest
            self._mask = ((self._mask << shift) | 1) & ((1 << self.size) - 1)
            self._highest = seq
            return True
        offset = self._highest - seq
        if offset >= self.size:
            return False  # older than the window
        bit = 1 << offset
        if self._mask & bit:
            return False
        self._mask |= bit
        return True


class SecureSession:
    """Established keys plus per-direction sequence and replay state.

    Single-writer per direction: one sealer and one opener; the counters
    and window are not safe for concurrent mutation by multiple callers.
    """

    def __init__(self, psk: bytes, client_nonce: bytes, server_nonce: bytes,
                 suite: int, role: str):
        if suite not in (SUITE_NULL_MAC, SUITE_STREAM_MAC):
            raise SuiteMismatch(f"unknown suite {suite:#04x}")
        if role not in ("client", "server"):
            raise ValueError(f"role must be client or server, got {role!r}")
        self.suite = suite
        self.role = role
        self.client_nonce = client_nonce
        self.server_nonce = server_nonce
        c_mac = derive_key(psk, b"c-mac", client_nonce, server_nonce)
        s_mac = derive_key(psk, b"s-mac", client_nonce, server_nonce)
        c_key = derive_key(psk, b"c-key", client_nonce, server_nonce)
        s_key = derive_key(psk, b"s-key", client_nonce, server_nonce)
        if role == "client":
            self.send_mac_key, self.send_key = c_mac, c_key
            self.recv_mac_key, self.recv_key = s_mac, s_key
        else:
            self.send_mac_key, self.send_key = s_mac, s_key
            self.recv_mac_key, self.recv_key = c_mac, c_key
        self.send_seq = 0
        self.window = ReplayWindow()

    def seal(self, content_type: int, plaintext: bytes) -> WtlsRecord:
        if self.send_seq > MAX_SEQ:
            raise SequenceExhausted("send sequence would wrap")
        seq = self.send_seq
        self.send_seq += 1
        mac = record_mac(self.send_mac_key, seq, content_type, plaintext)
        if self.suite == SUITE_STREAM_MAC:
            body = _xor(plaintext, keystream(self.send_key, seq, len(plaintext)))
        else:
            body = plaintext
        return WtlsRecord(content_type, seq, body, mac)

    def open(self, rec: WtlsRecord) -> bytes:
        if self.suite == SUITE_STREAM_MAC:
            plaintext = _xor(rec.body, keystream(self.recv_key, rec.seq,
                                                 len(rec.body)))
        else:
            plaintext = rec.body
        expected = record_mac(self.recv_mac_key, rec.seq, rec.content_type,
                              plaintext)
        if rec.mac is None or not hmac.compare_digest(rec.mac, expected):
            raise MacFailure(f"bad MAC on record seq {rec.seq}")
        if rec.content_type not in (CONTENT_HANDSHAKE, CONTENT_ALERT,
                                    CONTENT_APPDATA):
            raise UnknownContentType(f"content type {rec.content_type}")
        if not self.window.accept(rec.seq):
            raise ReplayDetected(f"record seq {rec.seq} seen before or too old")
        return plaintext

    def open_bytes(self, data: bytes) -> bytes:
        return self.open(decode_record(data, with_mac=True))


def load_psk_file(path: str) -> dict[bytes, bytes]:
    """Parse ``identity:hex-secret`` lines; blank lines and # comments ok."""
    table: dict[bytes, bytes] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            identity, sep, secret = line.partition(":")
            if not sep or not identity:
                raise ValueError(f"{path}:{lineno}: expected identity:hex-secret")
            try:
                psk = bytes.fromhex(secret)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad hex secret") from None
            table[identity.encode("ascii")] = psk
    return table


# --- handshake message bodies (carried in CONTENT_HANDSHAKE records) -------

def build_client_hello(identity: bytes, nonce: bytes, suites: list[int]) -> bytes:
    if len(identity) > 255:
        raise ValueError("identity too long")
    return (bytes([HS_CLIENT_HELLO, len(identity)]) + identity + nonce +
            bytes([len(suites)]) + bytes(suites))


def parse_client_hello(body: bytes) -> tuple[bytes, bytes, list[int]]:
    if len(body) < 2 or body[0] != HS_CLIENT_HELLO:
        raise MalformedRecord("not a ClientHello")
    ident_len = body[1]
    pos = 2 + ident_len
    identity = body[2:pos]
    nonce = body[pos:pos + NONCE_LEN]
    pos += NONCE_LEN
    if len(identity) != ident_len or len(nonce) != NONCE_LEN or pos >= len(body):
        raise MalformedRecord("truncated ClientHello")
    n_suites = body[pos]
    suites = list(body[pos + 1:pos + 1 + n_suites])
    if len(suites) != n_suites or pos + 1 + n_suites != len(body):
        raise MalformedRecord("bad suite list")
    return identity, nonce, suites


def build_server_hello(nonce: bytes, suite: int) -> bytes:
    return bytes([HS_SERVER_HELLO]) + nonce + bytes([suite])


def parse_server_hello(body: bytes) -> tuple[bytes, int]:
    if len(body) != 1 + NONCE_LEN + 1 or body[0] != HS_SERVER_HELLO:
        raise MalformedRecord("not a ServerHello")
    return body[1:1 + NONCE_LEN], body[-1]


def build_finished(mac: bytes) -> bytes:
    return bytes([HS_FINISHED]) + mac


def parse_finished(body: bytes) -> bytes:
    if len(body) != 1 + MAC_LEN or body[0] != HS_FINISHED:
        raise MalformedRecord("not a Finished")
    return body[1:]


class _HandshakeChannel:
    """Shared plumbing for sending unMAC'd handshake/alert records."""

    def __init__(self, endpoint):
        self._endpoint = endpoint
        self._hs_seq = 0

    def _send_plain(self, dst: WdpAddress, content_type: int, body: bytes) -> None:
        rec = WtlsRecord(content_type, self._hs_seq, body)
        self._hs_seq += 1
        self._endpoint.send(dst, encode_record(rec))


class WtlsClientTransport(_HandshakeChannel):
    """Client side: handshake once, then seal/open datagrams to one peer.

    Satisfies the transport duck type used by WTP, so the transaction layer
    runs unmodified above either a bare WDP endpoint or this wrapper.
    """

    RETRY_INTERVAL = 0.5
    MAX_RETRIES = 4

    def __init__(self, endpoint, peer: WdpAddress, identity: bytes, psk: bytes,
                 mode: str, clock, rng=None):
        super().__init__(endpoint)
        if mode not in _MODE_SUITES:
            raise ValueError(f"mode must be {MODE_INTEGRITY!r} or {MODE_FULL!r}")
        self._peer = peer
        self._identity = identity
        self._psk = psk
        self._suites = [_MODE_SUITES[mode]]
        self._clock = clock
        self._rng = rng
        self._nonce = rng.randbytes(NONCE_LEN) if rng else os.urandom(NONCE_LEN)
        self._receiver = None
        self._lock = threading.RLock()
        self._state = "idle"
        self._client_hello = b""
        self._server_hello = b""
        self._retries = 0
        self._timer = None
        self._done = threading.Event()
        self._error: Exception | None = None
        self.session: SecureSession | None = None
        self.drop_count = 0  # records rejected after establishment
        endpoint.set_receiver(self._on_datagram)

    @property
    def max_payload(self) -> int:
        return self._endpoint.max_payload - HEADER_SIZE - MAC_LEN

    @property
    def established(self) -> bool:
        return self._state == "established"

    def handshake(self, wait: bool = True, timeout: float = 10.0):
        with self._lock:
            if self._state != "idle":
                raise WtlsError("handshake already started")
            self._client_hello = build_client_hello(self._identity, self._nonce,
                                                    self._suites)
            self._state = "wait_server_hello"
            self._send_plain(self._peer, CONTENT_HANDSHAKE, self._client_hello)
            self._timer = self._clock.call_later(self.RETRY_INTERVAL,
                                                 self._on_retry_timer)
        if not wait:
            return self
        if not self._done.wait(timeout):
            self._fail(HandshakeTimeout("handshake did not complete"))
        if self._error is not None:
            raise self._error
        return self

    def _on_retry_timer(self) -> None:
        with self._lock:
            if self._state not in ("wait_server_hello", "wait_finished"):
                return
            if self._retries >= self.MAX_RETRIES:
                self._fail(HandshakeTimeout(
                    f"no response after {self._retries} retries"))
                return
            self._retries += 1
            if self._state == "wait_server_hello":
                self._send_plain(self._peer, CONTENT_HANDSHAKE, self._client_hello)
            else:
                self._send_finished()
            self._timer = self._clock.call_later(self.RETRY_INTERVAL,
                                                 self._on_retry_timer)

    def _send_finished(self) -> None:
        transcript = self._client_hello + self._server_hello
        mac = finished_mac(self.session.send_mac_key, transcript)
        self._send_plain(self._peer, CONTENT_HANDSHAKE, build_finished(mac))

    def _fail(self, exc: Exception) -> None:
        with self._lock:
            if self._state in ("established", "failed"):
                return
            self._state = "failed"
            self._error = exc
            if self._timer:
                self._timer.cancel()
        self._done.set()

    def _on_datagram(self, src: WdpAddress, data: bytes) -> None:
        with self._lock:
            if self._state == "established":
                try:
                    plaintext = self.session.open_bytes(data)
                except WtlsError:
                    self.drop_count += 1
                    return
                receiver = self._receiver
                if receiver is None:
                    return
            else:
                self._handshake_step(data)
                return
        receiver(src, plaintext)

    def _handshake_step(self, data: bytes) -> None:
        try:
            rec = decode_record(data, with_mac=False)
        except MalformedRecord:
            return
        if rec.content_type == CONTENT_ALERT:
            code = rec.body[0] if rec.body else 0
            if code == ALERT_SUITE_MISMATCH:
                self._fail(SuiteMismatch("server rejected offered suites"))
            else:
                self._fail(AuthenticationFailure("server alert during handshake"))
            return
        if rec.content_type != CONTENT_HANDSHAKE or not rec.body:
            return
        msg_type = rec.body[0]
        if msg_type == HS_SERVER_HELLO and self._state == "wait_server_hello":
            server_nonce, suite = parse_server_hello(rec.body)
            if suite not in self._suites:
                self._fail(SuiteMismatch(f"server chose unoffered suite {suite:#04x}"))
                return
            self._server_hello = rec.body
            self.session = SecureSession(self._psk, self._nonce, server_nonce,
                                         suite, "client")
            self._state = "wait_finished"
            self._retries = 0
            self._send_finished()
        elif msg_type == HS_FINISHED and self._state == "wait_finished":
            transcript = self._client_hello + self._server_hello
            expected = finished_mac(self.session.recv_mac_key, transcript)
            if not hmac.compare_digest(parse_finished(rec.body), expected):
                self._fail(AuthenticationFailure("server Finished MAC mismatch"))
                return
            self._state = "established"
            if self._timer:
                self._timer.cancel()
            self._done.set()

    # transport duck type -------------------------------------------------

    def send(self, dst: WdpAddress, payload: bytes) -> None:
        with self._lock:
            if self._state != "established":
                raise WtlsError("session not established")
            rec = self.session.seal(CONTENT_APPDATA, payload)
        self._endpoint.send(dst, encode_record(rec))

    def set_receiver(self, cb) -> None:
        with self._lock:
            self._receiver = cb

    def close(self) -> None:
        with self._lock:
            if self._timer:
                self._timer.cancel()
            self._state = "failed"
        self._endpoint.close()


class _ServerPeer(_HandshakeChannel):
    def __init__(self, endpoint):
        super().__init__(endpoint)
        self.client_hello = b""
        self.server_hello = b""
        self.session: SecureSession | None = None
        self.pending: SecureSession | None = None


class WtlsServerTransport:
    """Server side: accepts handshakes from many peers on one endpoint."""

    def __init__(self, endpoint, psk_table: dict[bytes, bytes],
                 allowed_suites=(SUITE_NULL_MAC, SUITE_STREAM_MAC), rng=None):
        self._endpoint = endpoint
        self._psk_table = psk_table
        self._allowed = tuple(allowed_suites)
        self._rng = rng
        self._peers: dict[WdpAddress, _ServerPeer] = {}
        self._receiver = None
        self._lock = threading.RLock()
        self.drop_count = 0
        self.handshake_failures = 0
        endpoint.set_receiver(self._on_datagram)

    @property
    def max_payload(self) -> int:
        return self._endpoint.max_payload - HEADER_SIZE - MAC_LEN

    def session_count(self) -> int:
        with self._lock:
            return sum(1 for p in self._peers.values() if p.session is not None)

    def set_receiver(self, cb) -> None:
        with self._lock:
            self._receiver = cb

    def send(self, dst: WdpAddress, payload: bytes) -> None:
        with self._lock:
            peer = self._peers.get(dst)
            if peer is None or peer.session is None:
                raise WtlsError(f"no established session with {dst}")
            rec = peer.session.seal(CONTENT_APPDATA, payload)
        self._endpoint.send(dst, encode_record(rec))

    def _nonce(self) -> bytes:
        return self._rng.randbytes(NONCE_LEN) if self._rng else os.urandom(NONCE_LEN)

    def _on_datagram(self, src: WdpAddress, data: bytes) -> None:
        if not data:
            return
        content_type = data[0]
        if content_type == CONTENT_HANDSHAKE:
            with self._lock:
                try:
                    self._handle_handshake(src, decode_record(data, with_mac=False))
                except MalformedRecord:
                    self.drop_count += 1
            return
        with self._lock:
            peer = self._peers.get(src)
            if peer is None or peer.session is None:
                self.drop_count += 1
                return
            try:
                plaintext = peer.session.open_bytes(data)
            except WtlsError:
                self.drop_count += 1
                return
            receiver = self._receiver
        if receiver is not None:
            receiver(src, plaintext)

    def _handle_handshake(self, src: WdpAddress, rec: WtlsRecord) -> None:
        if not rec.body:
            raise MalformedRecord("empty handshake body")
        msg_type = rec.body[0]
        peer = self._peers.get(src)
        if msg_type == HS_CLIENT_HELLO:
            if peer is not None and peer.client_hello == rec.body:
                # retransmitted hello: repeat our answer
                peer._send_plain(src, CONTENT_HANDSHAKE, peer.server_hello)
                return
            identity, client_nonce, suites = parse_client_hello(rec.body)
            psk = self._psk_table.get(identity)
            chosen = next((s for s in suites if s in self._allowed), None)
            if psk is None or chosen is None:
                self.handshake_failures += 1
                alert = ALERT_AUTH_FAILURE if psk is None else ALERT_SUITE_MISMATCH
                # no peer state is kept, so the alert record is seq 0
                self._endpoint.send(src, encode_record(
                    WtlsRecord(CONTENT_ALERT, 0, bytes([alert]))))
                return
            server_nonce = self._nonce()
            peer = _ServerPeer(self._endpoint)
            peer.client_hello = rec.body
            peer.server_hello = build_server_hello(server_nonce, chosen)
            # keys derivable now, but the session is only installed once the
            # client's Finished proves it holds the psk
            peer.pending = SecureSession(psk, client_nonce, server_nonce,
                                         chosen, "server")
            self._peers[src] = peer
            peer._send_plain(src, CONTENT_HANDSHAKE, peer.server_hello)
        elif msg_type == HS_FINISHED and peer is not None:
            transcript = peer.client_hello + peer.server_hello
            pending = peer.pending or peer.session
            if pending is None:
                return
            expected = finished_mac(pending.recv_mac_key, transcript)
            if not hmac.compare_digest(parse_finished(rec.body), expected):
                self.handshake_failures += 1
                peer._send_plain(src, CONTENT_ALERT, bytes([ALERT_AUTH_FAILURE]))
                self._peers.pop(src, None)
                return
            peer.session = pending
            peer.pending = None
            peer._send_plain(src, CONTENT_HANDSHAKE, build_finished(
                finished_mac(peer.session.send_mac_key, transcript)))

    def close(self) -> None:
        self._endpoint.close()
