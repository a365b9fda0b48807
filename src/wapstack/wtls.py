"""Record security above WDP: integrity, privacy, mutual PSK auth, replay.

Record wire format (header is exactly 7 bytes):

    type(1) | seq(4, big-endian) | body_len(2) | body | [mac(32)]

The MAC tag trails application records; handshake and alert records carry
no trailing tag (the Finished message embeds its MAC in the body).

Key schedule: the four traffic keys are
``HMAC-SHA256(psk, label || client_nonce || server_nonce)`` with labels
``c-mac``, ``s-mac``, ``c-key``, ``s-key``.  Suite 0x00 is null-cipher
plus MAC; suite 0x01 XORs a keystream over the plaintext whose 32-byte
block n is ``HMAC-SHA256(key, "ks" || seq || n)``, n counting from 0.
Blocks 1 onward are exactly one-iteration PBKDF2-HMAC-SHA256 with salt
``"ks" || seq`` (RFC 8018 section 5.2 defines its block i as
``HMAC(P, S || INT(i))``), so hashlib computes them in one call.  PBKDF2
serves here only as a counter-mode HMAC, not as a password KDF.  Each
session hashes its keys' HMAC pad blocks once; a record MAC then copies
two hash states.

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
MAX_HALF_OPEN = 1024  # server peers with no session yet; the oldest go first


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


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class _HmacKey:
    """An HMAC-SHA256 key whose inner and outer pad blocks (RFC 2104) are
    hashed once, so each MAC costs two hash-state copies."""

    __slots__ = ("key", "_inner", "_outer")

    def __init__(self, key: bytes):
        self.key = key
        block = (hashlib.sha256(key).digest() if len(key) > 64
                 else key).ljust(64, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def digest(self, msg: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(msg)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def keystream(self, seq: int, length: int) -> bytes:
        salt = b"ks" + struct.pack("!I", seq)
        block0 = self.digest(salt + b"\0\0\0\0")
        if length <= 32:
            return block0[:length]
        # PBKDF2's block i, counting from 1, is HMAC(key, salt || i)
        return block0 + hashlib.pbkdf2_hmac("sha256", self.key, salt, 1,
                                            length - 32)


def record_mac(mac_key: _HmacKey, seq: int, content_type: int,
               plaintext: bytes) -> bytes:
    return mac_key.digest(struct.pack("!IBH", seq, content_type,
                                      len(plaintext)) + plaintext)


def keystream(traffic_key: bytes, seq: int, length: int) -> bytes:
    """The first ``length`` bytes of suite 0x01's keystream for ``seq``."""
    return _HmacKey(traffic_key).keystream(seq, length)


def _xor(data: bytes, pad: bytes) -> bytes:
    """XOR ``data`` with ``pad``, which is as long as ``data``."""
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(pad, "big")).to_bytes(len(data), "big")


def finished_mac(mac_key: _HmacKey, transcript: bytes) -> bytes:
    return mac_key.digest(b"finished" + transcript)


class ReplayWindow:
    """Sliding window admitting each sequence number at most once."""

    def __init__(self, size: int = REPLAY_WINDOW):
        self.size = size
        self._highest = -1
        self._mask = 0

    def accept(self, seq: int) -> bool:
        if seq > self._highest:
            shift = seq - self._highest
            # a jump past the window clears it without building a number
            # as wide as the jump
            self._mask = (((self._mask << shift) | 1) & ((1 << self.size) - 1)
                          if shift < self.size else 1)
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
        c_mac, s_mac, c_key, s_key = (
            _HmacKey(derive_key(psk, label, client_nonce, server_nonce))
            for label in (b"c-mac", b"s-mac", b"c-key", b"s-key"))
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
            body = _xor(plaintext, self.send_key.keystream(seq, len(plaintext)))
        else:
            body = plaintext
        return WtlsRecord(content_type, seq, body, mac)

    def open(self, rec: WtlsRecord) -> bytes:
        if self.suite == SUITE_STREAM_MAC:
            plaintext = _xor(rec.body, self.recv_key.keystream(rec.seq,
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
    """Parse ``identity:hex-secret`` lines; blank lines and # comments ok.

    A malformed line, bad hex or an empty secret raises ``ValueError``
    naming ``path:line``."""
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
            if not psk:
                raise ValueError(f"{path}:{lineno}: empty secret")
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


class _Peer:
    """One peer's handshake state and, once its Finished checks, session."""

    __slots__ = ("hs_seq", "client_hello", "server_hello", "pending", "session")

    def __init__(self, client_hello: bytes = b"", server_hello: bytes = b""):
        self.hs_seq = 0  # sequence number of the next handshake/alert record
        self.client_hello = client_hello
        self.server_hello = server_hello
        self.pending: SecureSession | None = None  # keys awaiting a Finished
        self.session: SecureSession | None = None

    @property
    def transcript(self) -> bytes:
        return self.client_hello + self.server_hello


class _RecordTransport:
    """The transport duck type over one endpoint, for either end.

    Handshake and alert records go to the subclass's ``_handshake``; every
    other record must open under its source peer's session, and a record
    that does not counts in ``drop_count``.  The transaction layer runs
    unmodified above either a bare WDP endpoint or this wrapper.
    """

    def __init__(self, endpoint):
        self._endpoint = endpoint
        self._peers: dict[WdpAddress, _Peer] = {}
        self._receiver = None
        self._lock = threading.RLock()
        self.drop_count = 0
        endpoint.set_receiver(self._on_datagram)

    @property
    def max_payload(self) -> int:
        return self._endpoint.max_payload - HEADER_SIZE - MAC_LEN

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

    def _on_datagram(self, src: WdpAddress, data: bytes) -> None:
        with self._lock:
            if data and data[0] in (CONTENT_HANDSHAKE, CONTENT_ALERT):
                try:
                    self._handshake(src, decode_record(data, with_mac=False))
                except MalformedRecord:
                    self.drop_count += 1
                return
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

    def _send_plain(self, dst: WdpAddress, peer: _Peer, content_type: int,
                    body: bytes) -> None:
        rec = WtlsRecord(content_type, peer.hs_seq, body)
        peer.hs_seq += 1
        self._endpoint.send(dst, encode_record(rec))

    def _send_finished(self, dst: WdpAddress, peer: _Peer) -> None:
        keys = peer.session or peer.pending
        self._send_plain(dst, peer, CONTENT_HANDSHAKE, build_finished(
            finished_mac(keys.send_mac_key, peer.transcript)))

    def _check_finished(self, peer: _Peer, body: bytes) -> bool:
        """Install the peer's session if its Finished proves the psk."""
        keys = peer.pending or peer.session
        expected = finished_mac(keys.recv_mac_key, peer.transcript)
        if not hmac.compare_digest(parse_finished(body), expected):
            return False
        peer.session, peer.pending = keys, None
        return True

    def close(self) -> None:
        with self._lock:
            self._peers.clear()
        self._endpoint.close()


class WtlsClientTransport(_RecordTransport):
    """Client side: handshake once, then seal/open datagrams to one peer."""

    RETRY_INTERVAL = 0.5
    MAX_RETRIES = 4

    def __init__(self, endpoint, peer: WdpAddress, identity: bytes, psk: bytes,
                 mode: str, clock, rng=None):
        if mode not in _MODE_SUITES:
            raise ValueError(f"mode must be {MODE_INTEGRITY!r} or {MODE_FULL!r}")
        super().__init__(endpoint)
        self._addr = peer
        self._peer = self._peers[peer] = _Peer()
        self._identity = identity
        self._psk = psk
        self._suite = _MODE_SUITES[mode]
        self._clock = clock
        self._nonce = rng.randbytes(NONCE_LEN) if rng else os.urandom(NONCE_LEN)
        self._retries = 0
        self._timer = None
        self._done = threading.Event()  # set once established or failed
        self._error: Exception | None = None

    @property
    def session(self) -> SecureSession | None:
        peer = self._peers.get(self._addr)  # none once closed
        return peer.session if peer else None

    @property
    def established(self) -> bool:
        return self.session is not None

    def handshake(self, wait: bool = True, timeout: float = 10.0):
        """Send the hello; with ``wait``, block on it through the clock."""
        with self._lock:
            if self._peer.client_hello or self._done.is_set():
                raise WtlsError("handshake already started")
            self._peer.client_hello = build_client_hello(
                self._identity, self._nonce, [self._suite])
            self._send_plain(self._addr, self._peer, CONTENT_HANDSHAKE,
                             self._peer.client_hello)
            # one timer runs from the hello to the end, across the ServerHello
            self._timer = self._clock.call_later(self.RETRY_INTERVAL,
                                                 self._on_retry_timer)
        if wait and not self._clock.wait(self._done, timeout):
            self._fail(HandshakeTimeout("handshake did not complete"))
        if wait and self._error is not None:
            raise self._error
        return self

    def _on_retry_timer(self) -> None:
        with self._lock:
            if self._done.is_set():
                return
            if self._retries >= self.MAX_RETRIES:
                self._fail(HandshakeTimeout(
                    f"no response after {self._retries} retries"))
                return
            self._retries += 1
            if self._peer.pending is None:
                self._send_plain(self._addr, self._peer, CONTENT_HANDSHAKE,
                                 self._peer.client_hello)
            else:
                self._send_finished(self._addr, self._peer)
            self._timer = self._clock.call_later(self.RETRY_INTERVAL,
                                                 self._on_retry_timer)

    def _fail(self, exc: Exception) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._error = exc
            if self._timer:
                self._timer.cancel()
            self._done.set()

    def _handshake(self, src: WdpAddress, rec: WtlsRecord) -> None:
        peer = self._peer
        if not peer.client_hello or self._done.is_set():
            return  # before the hello, or after the handshake ended
        kind = rec.body[0] if rec.body else 0  # alert code or message type
        if rec.content_type == CONTENT_ALERT:
            if kind == ALERT_SUITE_MISMATCH:
                self._fail(SuiteMismatch("server rejected offered suites"))
            else:
                self._fail(AuthenticationFailure("server alert during handshake"))
        elif kind == HS_SERVER_HELLO and not peer.server_hello:
            server_nonce, suite = parse_server_hello(rec.body)
            if suite != self._suite:
                self._fail(SuiteMismatch(f"server chose unoffered suite {suite:#04x}"))
                return
            peer.server_hello = rec.body
            peer.pending = SecureSession(self._psk, self._nonce, server_nonce,
                                         suite, "client")
            self._retries = 0
            self._send_finished(self._addr, peer)
        elif kind == HS_FINISHED and peer.pending is not None:
            if not self._check_finished(peer, rec.body):
                self._fail(AuthenticationFailure("server Finished MAC mismatch"))
                return
            self._timer.cancel()
            self._done.set()

    def close(self) -> None:
        self._fail(WtlsError("transport closed"))
        super().close()


class WtlsServerTransport(_RecordTransport):
    """Server side: accepts handshakes from many peers on one endpoint."""

    def __init__(self, endpoint, psk_table: dict[bytes, bytes],
                 allowed_suites=(SUITE_NULL_MAC, SUITE_STREAM_MAC)):
        super().__init__(endpoint)
        self._psk_table = psk_table
        self._allowed = tuple(allowed_suites)
        self._half_open: dict[WdpAddress, None] = {}  # oldest hello first
        self.handshake_failures = 0
        self.half_open_evictions = 0

    def session_count(self) -> int:
        with self._lock:
            return sum(1 for p in self._peers.values() if p.session is not None)

    def _handshake(self, src: WdpAddress, rec: WtlsRecord) -> None:
        if rec.content_type != CONTENT_HANDSHAKE or not rec.body:
            raise MalformedRecord("not a handshake message")
        msg_type = rec.body[0]
        peer = self._peers.get(src)
        if msg_type == HS_CLIENT_HELLO:
            if peer is not None and peer.client_hello == rec.body:
                # retransmitted hello: repeat our answer
                self._send_plain(src, peer, CONTENT_HANDSHAKE, peer.server_hello)
                return
            identity, client_nonce, suites = parse_client_hello(rec.body)
            psk = self._psk_table.get(identity)
            chosen = next((s for s in suites if s in self._allowed), None)
            if psk is None or chosen is None:
                self.handshake_failures += 1
                alert = ALERT_AUTH_FAILURE if psk is None else ALERT_SUITE_MISMATCH
                # no peer state is kept, so the alert record is seq 0
                self._send_plain(src, _Peer(), CONTENT_ALERT, bytes([alert]))
                return
            self._half_open.pop(src, None)
            if len(self._half_open) >= MAX_HALF_OPEN:
                oldest = next(iter(self._half_open))
                del self._half_open[oldest]
                self._peers.pop(oldest, None)  # gone if the transport closed
                self.half_open_evictions += 1
            self._half_open[src] = None
            server_nonce = os.urandom(NONCE_LEN)
            peer = self._peers[src] = _Peer(
                rec.body, build_server_hello(server_nonce, chosen))
            # keys derivable now, but the session is only installed once the
            # client's Finished proves it holds the psk
            peer.pending = SecureSession(psk, client_nonce, server_nonce,
                                         chosen, "server")
            self._send_plain(src, peer, CONTENT_HANDSHAKE, peer.server_hello)
        elif msg_type == HS_FINISHED and peer is not None:
            self._half_open.pop(src, None)
            if not self._check_finished(peer, rec.body):
                self.handshake_failures += 1
                self._send_plain(src, peer, CONTENT_ALERT,
                                 bytes([ALERT_AUTH_FAILURE]))
                del self._peers[src]
                return
            self._send_finished(src, peer)
