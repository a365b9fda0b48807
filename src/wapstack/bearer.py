"""Datagram bearers beneath WDP: a simulated impaired channel and UDP.

A bearer speaks the transport duck type of every layer above it: its
receiver gets ``(src, payload)``, with a string address, and its
``max_payload`` is the MTU.

The simulated bearer applies loss, duplication, pairwise reordering and
delay/jitter from a seeded RNG, so a fixed seed plus a fixed send schedule
yields a fixed delivery trace.  Bit errors are modeled as whole-datagram
loss; delivered payloads are always bit-identical to what was sent.

Reordering model: with probability ``reorder_prob`` a datagram is held and
swapped with its immediate successor.  A held datagram is released by the
next send from the same endpoint (or by ``close``).

The UDP adapter puts the payload bytes on a real socket with no extra
framing; its bearer address is an ``"ip:port"`` string.  One reader thread
per bearer receives into a buffer it allocates once and runs the receiver
callback, so receivers run on that thread.  ``close()`` wakes the reader,
joins it and closes the socket, so the thread and the port are free before
it returns (unless a receiver holds the reader past a 2 s join).
"""

from __future__ import annotations

import errno
import logging
import random
import socket
import threading
from dataclasses import dataclass

log = logging.getLogger(__name__)

DEFAULT_MTU = 1400


class BearerError(Exception):
    pass


class BearerClosed(BearerError):
    pass


class OversizeDatagram(BearerError):
    pass


class InvalidProfile(BearerError):
    pass


@dataclass
class ImpairmentProfile:
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    mtu_bytes: int = DEFAULT_MTU
    seed: int = 0

    def validate(self) -> "ImpairmentProfile":
        for name in ("loss_prob", "dup_prob", "reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidProfile(f"{name} must be in [0, 1], got {p}")
        if self.delay_ms < 0 or self.jitter_ms < 0:
            raise InvalidProfile("delay_ms and jitter_ms must be >= 0")
        if self.mtu_bytes < 64:
            raise InvalidProfile(f"mtu_bytes must be >= 64, got {self.mtu_bytes}")
        return self


class Inbox:
    """Receive half of the transport duck type, shared by the bearers and
    WDP endpoints.

    Each arrival goes to ``receiver(src, payload)``.  An arrival with no
    receiver set, or after ``close``, is dropped.  A send after ``close``
    raises ``closed_error(name)``, a fresh instance each time.
    """

    def __init__(self, closed_error: type[Exception], name: str):
        self._closed_error = closed_error
        self._name = name
        self._receiver = None
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise self._closed_error(self._name)

    def _arrive(self, src, payload: bytes) -> None:
        receiver = self._receiver
        if receiver is not None and not self._closed:
            receiver(src, payload)

    def set_receiver(self, cb) -> None:
        """Deliver to ``cb(src, payload)``; ``None`` drops arrivals."""
        self._receiver = cb


class SimNetwork:
    """In-process mesh of simulated bearer endpoints keyed by address."""

    def __init__(self, clock):
        self.clock = clock
        self._nodes: dict[str, "SimBearer"] = {}
        self._lock = threading.Lock()

    def endpoint(self, addr: str, profile: ImpairmentProfile | None = None) -> "SimBearer":
        if not addr:
            raise ValueError("bearer address must be non-empty")
        with self._lock:
            if addr in self._nodes:
                raise ValueError(f"address {addr!r} already attached")
            node = SimBearer(self, addr, profile)
            self._nodes[addr] = node
            return node

    def _detach(self, addr: str) -> None:
        with self._lock:
            self._nodes.pop(addr, None)

    def _deliver(self, src: str, dst: str, payload: bytes) -> None:
        with self._lock:
            node = self._nodes.get(dst)
        if node is not None:
            node._arrive(src, payload)


class SimBearer(Inbox):
    """One endpoint on a :class:`SimNetwork`; impairments apply on egress."""

    def __init__(self, network: SimNetwork, addr: str,
                 profile: ImpairmentProfile | None = None):
        super().__init__(BearerClosed, addr)
        self._network = network
        self.local_addr = addr
        self._profile = (profile or ImpairmentProfile()).validate()
        self.max_payload = self._profile.mtu_bytes
        self._rng = random.Random(self._profile.seed)
        self._lock = threading.Lock()
        self._held: tuple[str, bytes, list[float]] | None = None
        self._send_index = 0
        self._script = None

    def set_delivery_script(self, fn) -> None:
        """Override random impairments with ``fn(payload, send_index)``.

        The script returns an iterable of delivery delays in milliseconds;
        an empty iterable drops the datagram.  Used for hand-computed trace
        oracles.  Pass ``None`` to restore the random profile.
        """
        with self._lock:
            self._script = fn

    def send(self, dst: str, payload: bytes) -> None:
        with self._lock:
            self._check_open()
            profile = self._profile
            if len(payload) > self.max_payload:
                raise OversizeDatagram(
                    f"payload {len(payload)} exceeds MTU {self.max_payload}")
            payload = bytes(payload)
            index = self._send_index
            self._send_index += 1

            held = None
            if self._script is not None:
                delays = self._script(payload, index)
            else:
                # Draw order is fixed (loss, dup, reorder, delays) so that a
                # seed fully determines the trace.
                copies = 0
                if self._rng.random() >= profile.loss_prob:
                    copies = 2 if self._rng.random() < profile.dup_prob else 1
                reorder = self._rng.random() < profile.reorder_prob
                delays = [profile.delay_ms
                          + self._rng.uniform(0.0, profile.jitter_ms)
                          for _ in range(copies)]
                held, self._held = self._held, None
                if held is None and delays and reorder:
                    self._held = (dst, payload, delays)
                    return
        self._schedule(dst, payload, delays)
        if held:
            self._schedule(*held)

    def _schedule(self, dst: str, payload: bytes, delays) -> None:
        for delay_ms in delays:
            self._network.clock.call_later(delay_ms / 1000.0,
                                           self._network._deliver,
                                           self.local_addr, dst, payload)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            held, self._held = self._held, None
        if held:
            self._schedule(*held)
        self._network._detach(self.local_addr)


def _parse_udp_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad UDP bearer address {addr!r}, expected ip:port")
    return host, int(port)


class UdpBearer(Inbox):
    """UDP adapter: one socket per endpoint, payload bytes are the wire.
    The reader thread hands each datagram to the receiver, and drops it
    while none is set."""

    def __init__(self, bind: tuple[str, int] = ("127.0.0.1", 0),
                 mtu: int = DEFAULT_MTU):
        self.max_payload = mtu
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind(bind)
        except OSError:
            self._sock.close()
            raise
        host, port = self._sock.getsockname()
        self.local_addr = f"{host}:{port}"
        super().__init__(BearerClosed, self.local_addr)
        self._thread = threading.Thread(target=self._read_loop, daemon=True,
                                        name=f"udp-bearer-{port}")
        self._thread.start()

    def send(self, dst: str, payload: bytes) -> None:
        self._check_open()
        if len(payload) > self.max_payload:
            raise OversizeDatagram(
                f"payload {len(payload)} exceeds MTU {self.max_payload}")
        self._sock.sendto(payload, _parse_udp_addr(dst))

    def _read_loop(self) -> None:
        buf = bytearray(65535)  # above any UDP payload, so none is cut short
        view = memoryview(buf)
        while True:
            try:
                n, addr = self._sock.recvfrom_into(buf)
            except OSError:
                return
            if addr is None:  # close() shut the socket down; a datagram,
                return        # even an empty one, has a source address
            host, port = addr
            try:
                self._arrive(f"{host}:{port}", view[:n].tobytes())
            except Exception:  # a receiver bug costs one datagram, not the reader
                log.exception("receiver failed on a datagram from %s:%d",
                              host, port)

    def close(self) -> None:
        """Stop the reader and close the socket.  From another thread this
        waits up to 2 s for a receiver that is still running."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError as exc:
            # an unconnected UDP socket raises ENOTCONN, but the blocked
            # reader still wakes
            if exc.errno != errno.ENOTCONN:
                self._sock.close()
                raise
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=2.0)
        self._sock.close()
