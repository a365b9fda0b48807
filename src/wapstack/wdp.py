"""Uniform datagram service with port multiplexing above any bearer.

Wire format (always present, even over UDP, so bearers stay
byte-interchangeable):

    0       2       4       6
    +-------+-------+-------+----------+
    | src   | dst   | length| payload  |
    | port  | port  |       |          |
    +-------+-------+-------+----------+

All three header fields are big-endian uint16; ``length`` is the payload
byte count.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import NamedTuple

from .bearer import Inbox, OversizeDatagram, RawDatagram

HEADER_FORMAT = "!HHH"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)  # 6 bytes

# Well-known gateway ports (definitional constants of this stack).
WSP_SESSION_PORT = 9201
WSP_CONNECTIONLESS_PORT = 9200

_EPHEMERAL_BASE = 49152


class WdpError(Exception):
    pass


class InvalidPort(WdpError):
    pass


class PortInUse(WdpError):
    pass


class TruncatedDatagram(WdpError):
    pass


class LengthMismatch(WdpError):
    pass


class EndpointClosed(WdpError):
    pass


class WdpAddress(NamedTuple):
    host: str   # bearer address
    port: int


@dataclass
class WdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes


def encode_datagram(dgram: WdpDatagram) -> bytes:
    for port in (dgram.src_port, dgram.dst_port):
        if not 1 <= port <= 65535:
            raise InvalidPort(f"port {port} out of range")
    if len(dgram.payload) > 65535:
        raise LengthMismatch("payload longer than length field can carry")
    header = struct.pack(HEADER_FORMAT, dgram.src_port, dgram.dst_port,
                         len(dgram.payload))
    return header + dgram.payload


def decode_datagram(data: bytes) -> WdpDatagram:
    if len(data) < HEADER_SIZE:
        raise TruncatedDatagram(f"need {HEADER_SIZE} header bytes, got {len(data)}")
    src_port, dst_port, length = struct.unpack_from(HEADER_FORMAT, data)
    payload = data[HEADER_SIZE:]
    if len(payload) < length:
        raise TruncatedDatagram(
            f"length field {length} exceeds {len(payload)} payload bytes")
    if len(payload) > length:
        raise LengthMismatch(
            f"{len(payload)} payload bytes but length field {length}")
    return WdpDatagram(src_port, dst_port, payload)


class WdpStack:
    """Binds ports on one bearer and demultiplexes inbound datagrams."""

    def __init__(self, bearer):
        self._bearer = bearer
        self._endpoints: dict[int, "WdpEndpoint"] = {}
        self._lock = threading.Lock()
        self.dropped_count = 0  # malformed or no endpoint bound
        bearer.set_receiver(self._on_datagram)

    @property
    def bearer(self):
        return self._bearer

    def bind(self, port: int) -> "WdpEndpoint":
        if not 1 <= port <= 65535:
            raise InvalidPort(f"port {port} out of range [1, 65535]")
        with self._lock:
            if port in self._endpoints:
                raise PortInUse(f"port {port} already bound")
            endpoint = WdpEndpoint(self, port)
            self._endpoints[port] = endpoint
            return endpoint

    def bind_ephemeral(self) -> "WdpEndpoint":
        with self._lock:
            port = _EPHEMERAL_BASE
            while port in self._endpoints:
                port += 1
                if port > 65535:
                    raise PortInUse("no ephemeral ports left")
            endpoint = WdpEndpoint(self, port)
            self._endpoints[port] = endpoint
            return endpoint

    def _unbind(self, port: int) -> None:
        with self._lock:
            self._endpoints.pop(port, None)

    def _on_datagram(self, raw: RawDatagram) -> None:
        try:
            dgram = decode_datagram(raw.payload)
        except WdpError:
            self.dropped_count += 1
            return
        with self._lock:
            endpoint = self._endpoints.get(dgram.dst_port)
        if endpoint is None:
            self.dropped_count += 1
            return
        endpoint._arrive((WdpAddress(raw.src, dgram.src_port), dgram.payload))

    def close(self) -> None:
        with self._lock:
            endpoints = list(self._endpoints.values())
        for endpoint in endpoints:
            endpoint.close()
        self._bearer.close()


class WdpEndpoint(Inbox):
    """One bound port; safe for concurrent send and receive.  ``recv``
    returns ``(src, payload)``."""

    def __init__(self, stack: WdpStack, port: int):
        super().__init__(EndpointClosed, f"port {port}")
        self._stack = stack
        self.port = port

    @property
    def max_payload(self) -> int:
        return self._stack.bearer.mtu - HEADER_SIZE

    def send(self, dst: WdpAddress, payload: bytes) -> None:
        self._check_open()
        if len(payload) > self.max_payload:
            raise OversizeDatagram(
                f"payload {len(payload)} exceeds {self.max_payload} "
                f"(MTU minus WDP header)")
        data = encode_datagram(WdpDatagram(self.port, dst.port, bytes(payload)))
        self._stack.bearer.send(dst.host, data)

    def set_receiver(self, cb) -> None:
        """Deliver via ``cb(src, payload)``; drains the backlog."""
        super().set_receiver(None if cb is None else lambda item: cb(*item))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stack._unbind(self.port)
