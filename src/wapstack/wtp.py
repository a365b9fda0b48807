"""Transaction layer: classes 0/1/2 over (optionally secured) WDP.

PDU wire format:

    byte 0   bits 7..4 pdu type (Invoke=0x1 Result=0x2 Ack=0x3 Abort=0x4)
             bit 3 rid (retransmission), bits 1..0 must be zero; bit 2, a
             peer's request for a user acknowledgement (uak), is ignored,
             so such an Invoke gets the provider's Ack or Result
    bytes 1-2  tid, big-endian
    Invoke:  byte 3 = class, payload follows
    Result:  payload from byte 3
    Ack:     nothing after the tid (exactly 3 bytes)
    Abort:   byte 3 = reason (exactly 4 bytes)

Concatenation: a leading 0x00 marker followed by repeated
``{uint16 length, pdu}`` groups; any other first byte is a single bare PDU
(possible because a valid PDU's first byte is always >= 0x10).

State machines (class 2): the initiator retransmits Invoke until it sees a
standalone Ack or the Result; the Result is acknowledged with an Ack.  The
responder delays its automatic Ack by ``ACK_DELAY_MS`` so a prompt Result
acknowledges the Invoke implicitly, but a resent Invoke (rid set) that
arrives during that hold is answered with the Ack at once, the hold-on Ack,
and none follows when the hold ends.  The responder retransmits the Result
until the initiator's Ack arrives.  Class 1 completes on Ack; class 0 is
fire-and-forget.

Each end keeps one record per transaction: the initiator's is the
``TransactionHandle`` returned by ``invoke``, the responder's is the
``Invocation`` passed to ``on_invoke``.  Both ends share one retry path: the
Invoke or Result is sent, its rid-flagged copy is kept on the record and
resent after each retry interval until the record's timer is stopped or a
retry falls due (``max_retrans`` + 1) x ``retry_interval_ms`` or more after
the first send, which aborts the transaction.  That deadline does not
depend on the intervals, so a peer with short measured ones gives up when a
peer on the fixed schedule does.  A duplicate Invoke gets that stored
Result again until the transaction finishes; a finished record keeps no
PDU.

Retry intervals follow the measured round trip (RFC 6298).  Each provider
keeps one SRTT/RTTVAR estimate per peer address, at most ``MAX_PEERS`` of
them, the least recently sampled evicted first.  The initiator samples from
its Invoke to the first Ack or Result, the responder from its Result to the
Ack; a PDU sent more than once gives no sample (Karn's rule).  The RTO is
SRTT + 4 RTTVAR, at least ``MIN_RTO_MS`` on the responder and
2 x ``MIN_RTO_MS`` + SRTT on the initiator.  A lost Invoke is so resent
after about one round trip plus 2 x ``MIN_RTO_MS``, without waiting out
the responder's Ack hold, which answers the resent copy.  A lost Result is resent by the responder
``MIN_RTO_MS`` after it was sent, so the copy reaches the initiator about
SRTT + ``MIN_RTO_MS`` after its Invoke, and the initiator's retry falls due
at least ``MIN_RTO_MS`` later: one lost Result costs one resent Result, not
a resent Invoke as well, answered by the Result yet again.  On a 1 ms path
a lost PDU so costs about 10-20 ms more.  Every retry to a peer doubles
its backoff, a multiplier on its RTO that the next sample resets (RFC 6298
5.5).  A record's retries wait the full backoff; its first send waits half
of it, so one lost PDU does not slow the next transaction, while a round
trip that grew past the RTO, which makes every transaction retry, still
doubles it until a PDU sent once is answered and sampled.  No interval is
longer than ``retry_interval_ms``, which is also what a peer with no sample
gets.  So the whole schedule fits inside the fixed one's deadline, and a
responder's linger still outlasts every retransmitted Invoke.

Completed records linger for ``linger_ms`` so duplicate PDUs re-trigger
retransmissions but never a second user indication.  Records finish in time
order and all linger equally long, so each provider keeps one FIFO of
``(deadline, table, key)`` in finishing order and no timer: each entry point
that reads the tables first forgets every record whose deadline has come.
So an idle provider keeps its last ``linger_ms`` of records until its next
event or ``close()``, as much as it holds under load.  A finished initiator
record is swapped for a slim ``_Finished`` entry (tid, class, peer, state),
which is all a duplicate Result needs to be answered with Ack(rid); the
user's ``TransactionHandle``, and the result it holds, are not kept alive by
the provider.  A finished responder record is likewise swapped for a
``_FinishedInvocation``, without the Invoke payload.
"""

from __future__ import annotations

import logging
import struct
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

PDU_INVOKE = 0x1
PDU_RESULT = 0x2
PDU_ACK = 0x3
PDU_ABORT = 0x4

PDU_NAMES = {PDU_INVOKE: "Invoke", PDU_RESULT: "Result",
             PDU_ACK: "Ack", PDU_ABORT: "Abort"}

# transaction states
NULL = "NULL"
INVOKE_SENT = "INVOKE_SENT"
INVOKE_RCVD = "INVOKE_RCVD"
RESULT_SENT = "RESULT_SENT"
DONE = "DONE"
ABORTED = "ABORTED"

ABORT_USER = 0x01

ACK_DELAY_MS = 100  # the responder's hold on its automatic Ack (see above)
MIN_RTO_MS = 10     # the responder's floor on a measured retry interval;
                    # an initiator's is 2 x MIN_RTO_MS + SRTT
MAX_PEERS = 1024    # round-trip estimates kept; the least recently sampled go

log = logging.getLogger(__name__)


class WtpError(Exception):
    pass


class MalformedPdu(WtpError):
    pass


class MalformedConcat(WtpError):
    pass


class TransactionTimeout(WtpError):
    pass


class Aborted(WtpError):
    def __init__(self, reason: int):
        super().__init__(f"transaction aborted, reason {reason}")
        self.reason = reason


class UnknownTid(WtpError):
    pass


class WrongClass(WtpError):
    pass


class WrongState(WtpError):
    pass


class AlreadyCompleted(WtpError):
    pass


class OversizePayload(WtpError):
    pass


@dataclass
class WtpPdu:
    pdu_type: int
    tid: int
    rid: bool = False
    tclass: int | None = None      # Invoke only
    abort_reason: int | None = None  # Abort only
    payload: bytes = b""           # Invoke/Result


def encode_pdu(pdu: WtpPdu) -> bytes:
    if pdu.pdu_type not in PDU_NAMES:
        raise MalformedPdu(f"unknown pdu type {pdu.pdu_type}")
    if not 0 <= pdu.tid <= 65535:
        raise MalformedPdu(f"tid {pdu.tid} out of range")
    b0 = (pdu.pdu_type << 4) | (0x08 if pdu.rid else 0)
    out = bytes([b0]) + struct.pack("!H", pdu.tid)
    if pdu.pdu_type == PDU_INVOKE:
        if pdu.tclass not in (0, 1, 2):
            raise MalformedPdu(f"invoke class {pdu.tclass} invalid")
        return out + bytes([pdu.tclass]) + pdu.payload
    if pdu.pdu_type == PDU_RESULT:
        return out + pdu.payload
    if pdu.pdu_type == PDU_ACK:
        return out
    # Abort
    if pdu.abort_reason is None or not 0 <= pdu.abort_reason <= 255:
        raise MalformedPdu("abort needs a reason byte")
    return out + bytes([pdu.abort_reason])


def decode_pdu(data: bytes) -> WtpPdu:
    if len(data) < 3:
        raise MalformedPdu(f"pdu shorter than 3 bytes ({len(data)})")
    b0 = data[0]
    if b0 & 0x03:
        raise MalformedPdu("reserved bits set")
    pdu_type = b0 >> 4
    if pdu_type not in PDU_NAMES:
        raise MalformedPdu(f"unknown pdu type {pdu_type}")
    rid = bool(b0 & 0x08)
    tid = struct.unpack_from("!H", data, 1)[0]
    if pdu_type == PDU_INVOKE:
        if len(data) < 4:
            raise MalformedPdu("invoke missing class byte")
        tclass = data[3]
        if tclass not in (0, 1, 2):
            raise MalformedPdu(f"invoke class {tclass} invalid")
        return WtpPdu(pdu_type, tid, rid, tclass=tclass, payload=data[4:])
    if pdu_type == PDU_RESULT:
        return WtpPdu(pdu_type, tid, rid, payload=data[3:])
    if pdu_type == PDU_ACK:
        if len(data) != 3:
            raise MalformedPdu("ack must be exactly 3 bytes")
        return WtpPdu(pdu_type, tid, rid)
    if len(data) != 4:
        raise MalformedPdu("abort must be exactly 4 bytes")
    return WtpPdu(pdu_type, tid, rid, abort_reason=data[3])


def concat_pdus(chunks: list[bytes]) -> bytes:
    out = bytearray([0x00])
    for chunk in chunks:
        if len(chunk) > 65535:
            raise MalformedConcat(f"pdu of {len(chunk)} bytes too long to concat")
        out += struct.pack("!H", len(chunk)) + chunk
    return bytes(out)


def split_pdus(data: bytes) -> list[bytes]:
    if not data:
        raise MalformedConcat("empty datagram")
    if data[0] != 0x00:
        return [data]
    parts = []
    pos = 1
    while pos < len(data):
        if pos + 2 > len(data):
            raise MalformedConcat("truncated length prefix")
        (length,) = struct.unpack_from("!H", data, pos)
        pos += 2
        if pos + length > len(data):
            raise MalformedConcat("pdu extends past datagram")
        parts.append(data[pos:pos + length])
        pos += length
    return parts


@dataclass
class RetransmissionPolicy:
    # the first retry interval to a peer with no round-trip sample yet, and
    # the longest interval to any peer
    retry_interval_ms: int = 300
    # a record gives up at its first retry due (max_retrans + 1) x
    # retry_interval_ms or more after its first send: after max_retrans
    # resends on the fixed schedule, more on a measured one
    max_retrans: int = 8
    linger_ms: int = 3000  # how long completed state answers duplicates

    def validate(self) -> "RetransmissionPolicy":
        for name in ("retry_interval_ms", "max_retrans", "linger_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        return self


def _stop(txn) -> None:
    """Cancel and drop ``txn``'s timer.  A callback that RealClock has
    already taken off its heap still runs; ``txn.timer is None`` tells it
    that the timer was stopped."""
    if txn.timer is not None:
        txn.timer.cancel()
        txn.timer = None


class TraceEvent(NamedTuple):
    direction: str   # "snd" | "rcv"
    pdu_type: str
    tid: int
    rid: bool
    tclass: int | None


class TransactionHandle:
    """Initiator-side view of one transaction, and the provider's record of
    it while it runs.

    The ``threading.Event`` that ``wait`` blocks on is created by the first
    ``wait`` on a pending handle, under the provider lock, so a handle that
    is only used through ``add_done_callback`` never builds one.
    """

    __slots__ = ("tid", "tclass", "dst", "state", "result", "error", "timer",
                 "resend", "retransmits", "sent_at", "first_sent", "_provider",
                 "_event", "_callbacks", "__weakref__")

    def __init__(self, provider: "WtpProvider", tid: int, tclass: int, dst):
        self.tid = tid
        self.tclass = tclass
        self.dst = dst
        self.state = NULL
        self.result: bytes | None = None
        self.error: Exception | None = None
        self.timer = None        # retry timer
        self.resend: WtpPdu | None = None  # rid-flagged Invoke to repeat
        self.retransmits = 0
        self.sent_at: float | None = None  # round-trip sample start
        self.first_sent = 0.0  # when the give-up deadline started
        self._provider = provider
        self._event: threading.Event | None = None
        self._callbacks: list[Callable[["TransactionHandle"], None]] = []

    @property
    def done(self) -> bool:
        return self.state in (DONE, ABORTED)

    def wait(self, timeout: float | None = None) -> "TransactionHandle":
        with self._provider._lock:
            if not self.done and self._event is None:
                self._event = threading.Event()
        if not self.done and not self._event.wait(timeout):
            raise TransactionTimeout(f"tid {self.tid} still pending after wait")
        if self.error is not None:
            raise self.error
        return self

    def add_done_callback(self, fn) -> None:
        run_now = False
        with self._provider._lock:
            if self.done:
                run_now = True
            else:
                self._callbacks.append(fn)
        if run_now:
            fn(self)

    def abort(self, reason: int = ABORT_USER) -> None:
        self._provider._abort_initiator(self, reason)

    def _complete(self, state: str, error: Exception | None = None) -> None:
        # under the provider lock; error first, since state makes it done
        self.error = error
        self.state = state
        if self._event is not None:
            self._event.set()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Finished:
    """What a finished initiator record leaves behind while it lingers."""

    __slots__ = ("tid", "tclass", "dst", "state")

    def __init__(self, handle: TransactionHandle):
        self.tid = handle.tid
        self.tclass = handle.tclass
        self.dst = handle.dst
        self.state = handle.state


class Invocation:
    """Responder-side indication of a received Invoke, delivered once; also
    the provider's record of that transaction while it runs and lingers."""

    __slots__ = ("_provider", "src", "tid", "tclass", "payload", "state",
                 "timer", "resend", "retransmits", "sent_at", "first_sent",
                 "acked_standalone")

    def __init__(self, provider: "WtpProvider", src, tid: int, tclass: int,
                 payload: bytes):
        self._provider = provider
        self.src = src
        self.tid = tid
        self.tclass = tclass
        self.payload = payload
        self.state = INVOKE_RCVD
        self.timer = None        # delayed-Ack timer, then retry timer
        self.resend: WtpPdu | None = None  # rid-flagged Result to repeat
        self.retransmits = 0
        self.sent_at: float | None = None  # round-trip sample start
        self.first_sent = 0.0  # when the give-up deadline started
        self.acked_standalone = False

    def respond(self, payload: bytes) -> None:
        self._provider.respond(self.src, self.tid, payload)

    def abort(self, reason: int = ABORT_USER) -> None:
        self._provider._abort_responder(self.src, self.tid, reason)

    def _complete(self, state: str, error: Exception | None = None) -> None:
        self.state = state


class _FinishedInvocation:
    """What a finished responder record leaves behind while it lingers: what
    a duplicate Invoke is answered from, and what ``respond`` and ``abort``
    check before they raise."""

    __slots__ = ("src", "tid", "tclass", "state", "acked_standalone", "timer")

    def __init__(self, txn: Invocation):
        self.src = txn.src
        self.tid = txn.tid
        self.tclass = txn.tclass
        self.state = txn.state
        self.acked_standalone = txn.acked_standalone
        self.timer = None


class WtpProvider:
    """Event-driven transaction machine over one datagram transport.

    Datagram arrivals, timer expirations and user calls are serialized by
    one re-entrant lock; distinct tids progress concurrently.
    """

    def __init__(self, transport, clock, policy: RetransmissionPolicy | None = None,
                 trace: Callable[[TraceEvent], None] | None = None):
        self._transport = transport
        self._clock = clock
        self.policy = (policy or RetransmissionPolicy()).validate()
        self.trace = trace
        self._lock = threading.RLock()
        self._next_tid = 1
        self._initiator: dict[int, TransactionHandle | _Finished] = {}
        self._responder: dict[tuple, Invocation | _FinishedInvocation] = {}
        self._lingering: deque[tuple[float, dict, object]] = deque()
        # peer -> (SRTT, RTTVAR in ms, RTO backoff), least recently sampled
        # first
        self._rtt: dict[object, tuple[float, float, int]] = {}
        self.on_invoke: Callable[[Invocation], None] | None = None
        self.on_abort = None  # optional: fn(src, tid, reason)
        self.malformed_count = 0
        self._closed = False
        transport.set_receiver(self._on_datagram)

    # --- helpers ----------------------------------------------------------

    def _emit(self, direction: str, pdu: WtpPdu) -> None:
        if self.trace is not None:
            self.trace(TraceEvent(direction, PDU_NAMES[pdu.pdu_type], pdu.tid,
                                  pdu.rid, pdu.tclass))

    def _send(self, dst, pdu: WtpPdu) -> None:
        self._transport.send(dst, encode_pdu(pdu))
        self._emit("snd", pdu)

    def _alloc_tid(self) -> int:
        for _ in range(65535):
            tid = self._next_tid
            self._next_tid = self._next_tid % 65535 + 1
            if tid not in self._initiator:
                return tid
        raise WtpError("no free tids")

    def _retry_delay(self, txn, peer) -> float:
        """Seconds until ``txn``'s next retry: RFC 6298's SRTT + 4 RTTVAR
        for ``peer`` times its backoff, at most ``retry_interval_ms``.  The
        floor is ``MIN_RTO_MS``, or 2 x ``MIN_RTO_MS`` + SRTT on an
        initiator, so that the responder's resent Result arrives at least
        ``MIN_RTO_MS`` before the initiator's retry falls due; a PDU not yet
        resent waits half the backoff (see the module docstring); a peer
        with no sample gets ``retry_interval_ms``.  Runs for every Invoke
        and Result, so it avoids helper calls."""
        cap = self.policy.retry_interval_ms
        estimate = self._rtt.get(peer)
        if estimate is None:
            return cap / 1000.0
        srtt, rttvar, backoff = estimate
        rto = srtt + 4 * rttvar
        floor = (2 * MIN_RTO_MS + srtt if isinstance(txn, TransactionHandle)
                 else MIN_RTO_MS)
        if rto < floor:
            rto = floor
        if not txn.retransmits:
            backoff = backoff // 2 or 1
        rto *= backoff
        return (rto if rto < cap else cap) / 1000.0

    def _back_off(self, peer) -> None:
        """Double ``peer``'s backoff after a retry (RFC 6298 5.5), until even
        half of it takes every RTO past ``retry_interval_ms``; the next
        sample resets it."""
        estimate = self._rtt.get(peer)
        if estimate is not None:
            srtt, rttvar, backoff = estimate
            if backoff * MIN_RTO_MS < 2 * self.policy.retry_interval_ms:
                self._rtt[peer] = (srtt, rttvar, backoff * 2)

    def _sample(self, txn, peer) -> None:
        """Fold the time since ``txn``'s PDU was sent into ``peer``'s
        estimate (RFC 6298).  A PDU sent more than once gives no sample
        (Karn), since its answer may be to any copy."""
        if txn.sent_at is None:
            return
        rtt = (self._clock.now() - txn.sent_at) * 1000.0
        txn.sent_at = None
        estimate = self._rtt.pop(peer, None)
        if estimate is None:
            if len(self._rtt) >= MAX_PEERS:
                del self._rtt[next(iter(self._rtt))]
            self._rtt[peer] = (rtt, rtt / 2, 1)
        else:
            srtt, rttvar, _ = estimate
            self._rtt[peer] = (0.875 * srtt + 0.125 * rtt,
                               0.75 * rttvar + 0.25 * abs(srtt - rtt), 1)

    def _transmit(self, txn, dst, pdu: WtpPdu) -> None:
        """Send ``pdu``, keep its rid-flagged copy on ``txn`` and resend that
        after each retry delay until ``txn``'s timer is stopped or, at a
        retry, (``max_retrans`` + 1) x ``retry_interval_ms`` have passed
        since this first send, which aborts ``txn``.  If this first send
        raises, ``txn`` is aborted with that error, which is raised again."""
        try:
            self._send(dst, pdu)
        except Exception as exc:
            self._finish(txn, ABORTED, exc)
            raise
        txn.first_sent = txn.sent_at = self._clock.now()
        pdu.rid = True  # the trace event above has the first-send flag
        txn.resend = pdu
        txn.timer = self._clock.call_later(
            self._retry_delay(txn, dst), self._on_retry, txn, dst)

    def _on_retry(self, txn, dst) -> None:
        with self._lock:
            # RealClock runs this outside the lock: the timer may have been
            # stopped after it fell due
            if txn.timer is None:
                return
            # in whole milliseconds, so float rounding cannot move the
            # fixed schedule's last firing past the deadline
            policy = self.policy
            if round((self._clock.now() - txn.first_sent) * 1000) >= (
                    policy.max_retrans + 1) * policy.retry_interval_ms:
                self._finish(txn, ABORTED, TransactionTimeout(
                    f"tid {txn.tid}: {txn.retransmits} retransmissions exhausted"))
                return
            txn.retransmits += 1
            txn.sent_at = None
            self._back_off(dst)
            try:
                self._send(dst, txn.resend)
            except Exception as exc:  # as good as lost: the deadline stands
                log.warning("tid %d: resend to %s failed: %s", txn.tid, dst,
                            exc, exc_info=True)
            txn.timer = self._clock.call_later(
                self._retry_delay(txn, dst), self._on_retry, txn, dst)

    def _finish(self, txn, state: str, error: Exception | None = None) -> None:
        """Stop ``txn``'s timer, complete it, swap its table entry for a
        slim one and forget that after ``linger_ms``; until then duplicates
        of it are still answered.  The stored PDU is dropped: once finished,
        a duplicate Invoke is answered with an Ack at most, never the Result
        again."""
        _stop(txn)
        txn.resend = None
        txn._complete(state, error)
        if isinstance(txn, TransactionHandle):
            table, key = self._initiator, txn.tid
            table[key] = _Finished(txn)
        else:
            table, key = self._responder, (txn.src, txn.tid)
            table[key] = _FinishedInvocation(txn)
        self._lingering.append(
            (self._clock.now() + self.policy.linger_ms / 1000.0, table, key))

    def _forget_due(self) -> None:
        """Forget every lingering record whose deadline has come; under the
        lock, before any read of ``_initiator`` or ``_responder``."""
        lingering, now = self._lingering, self._clock.now()
        while lingering and lingering[0][0] <= now:
            _, table, key = lingering.popleft()
            table.pop(key, None)

    # --- initiator API ------------------------------------------------------

    def invoke(self, dst, tclass: int, payload: bytes) -> TransactionHandle:
        if tclass not in (0, 1, 2):
            raise ValueError(f"class must be 0, 1 or 2, got {tclass}")
        if len(payload) + 4 > self._transport.max_payload:
            raise OversizePayload(
                f"invoke payload {len(payload)} exceeds transport budget")
        with self._lock:
            if self._closed:
                raise WtpError("provider closed")
            self._forget_due()
            tid = self._alloc_tid()
            handle = TransactionHandle(self, tid, tclass, dst)
            pdu = WtpPdu(PDU_INVOKE, tid, tclass=tclass, payload=payload)
            if tclass == 0:
                self._send(dst, pdu)
                handle._complete(DONE)
                return handle
            self._initiator[tid] = handle
            handle.state = INVOKE_SENT
            self._transmit(handle, dst, pdu)
            return handle

    def _abort_initiator(self, handle: TransactionHandle, reason: int) -> None:
        with self._lock:
            if handle.done:
                raise AlreadyCompleted(f"tid {handle.tid} already completed")
            if self._initiator.get(handle.tid) is not handle:
                raise UnknownTid(f"tid {handle.tid}")
            self._send(handle.dst, WtpPdu(PDU_ABORT, handle.tid,
                                          abort_reason=reason))
            self._finish(handle, ABORTED, Aborted(reason))

    # --- responder API ------------------------------------------------------

    def respond(self, src, tid: int, payload: bytes) -> None:
        if len(payload) + 3 > self._transport.max_payload:
            raise OversizePayload(
                f"result payload {len(payload)} exceeds transport budget")
        with self._lock:
            self._forget_due()
            txn = self._responder.get((src, tid))
            if txn is None:
                raise UnknownTid(f"tid {tid} from {src}")
            if txn.tclass != 2:
                raise WrongClass(f"tid {tid} is class {txn.tclass}, result needs class 2")
            if txn.state != INVOKE_RCVD:
                raise WrongState(f"tid {tid} in state {txn.state}")
            _stop(txn)  # the Result acknowledges the Invoke
            txn.state = RESULT_SENT
            self._transmit(txn, src, WtpPdu(PDU_RESULT, tid, payload=payload))

    def _abort_responder(self, src, tid: int, reason: int) -> None:
        with self._lock:
            self._forget_due()
            txn = self._responder.get((src, tid))
            if txn is None:
                raise UnknownTid(f"tid {tid} from {src}")
            if txn.state in (DONE, ABORTED):
                raise AlreadyCompleted(f"tid {tid} already completed")
            self._send(src, WtpPdu(PDU_ABORT, tid, abort_reason=reason))
            self._finish(txn, ABORTED)

    def _on_ack_delay(self, txn: Invocation) -> None:
        with self._lock:
            # a Result or an Abort moves the state on; close() stops the timer
            if txn.state != INVOKE_RCVD or txn.timer is None:
                return
            txn.acked_standalone = True
            self._send(txn.src, WtpPdu(PDU_ACK, txn.tid))

    # --- datagram dispatch --------------------------------------------------

    def _on_datagram(self, src, data: bytes) -> None:
        with self._lock:
            if self._closed:
                return
            self._forget_due()
            try:
                parts = split_pdus(data)
            except MalformedConcat:
                self.malformed_count += 1
                return
            for part in parts:
                try:
                    pdu = decode_pdu(part)
                except MalformedPdu:
                    self.malformed_count += 1
                    continue
                self._emit("rcv", pdu)
                self._dispatch(src, pdu)

    def _dispatch(self, src, pdu: WtpPdu) -> None:
        if pdu.pdu_type == PDU_INVOKE:
            self._on_invoke_pdu(src, pdu)
            return
        handle = self._initiator.get(pdu.tid)
        if handle is not None and handle.dst == src:
            self._on_initiator_pdu(handle, pdu)
            return
        txn = self._responder.get((src, pdu.tid))
        if txn is not None:
            self._on_responder_pdu(txn, pdu)
        # else: stale PDU for a forgotten transaction; drop silently

    def _on_initiator_pdu(self, handle: TransactionHandle | _Finished,
                          pdu: WtpPdu) -> None:
        if pdu.pdu_type == PDU_ACK:
            if handle.state != INVOKE_SENT:
                return
            self._sample(handle, handle.dst)
            if handle.tclass == 1:
                self._finish(handle, DONE)
            else:
                _stop(handle)  # now wait for the Result
        elif pdu.pdu_type == PDU_RESULT:
            if handle.tclass != 2:
                return
            if handle.state == INVOKE_SENT:
                self._sample(handle, handle.dst)
                handle.result = pdu.payload
                self._send(handle.dst, WtpPdu(PDU_ACK, handle.tid))
                self._finish(handle, DONE)
            elif handle.state == DONE:
                # duplicate Result: our Ack was lost, repeat it
                self._send(handle.dst, WtpPdu(PDU_ACK, handle.tid, rid=True))
        elif pdu.pdu_type == PDU_ABORT:
            if handle.state == INVOKE_SENT:
                self._finish(handle, ABORTED, Aborted(pdu.abort_reason))

    def _on_invoke_pdu(self, src, pdu: WtpPdu) -> None:
        key = (src, pdu.tid)
        txn = self._responder.get(key)
        if txn is not None:
            self._on_duplicate_invoke(txn, pdu.rid)
            return
        txn = Invocation(self, src, pdu.tid, pdu.tclass, pdu.payload)
        self._responder[key] = txn
        if pdu.tclass == 0:
            self._finish(txn, DONE)
        elif pdu.tclass == 1:
            txn.acked_standalone = True
            self._send(src, WtpPdu(PDU_ACK, pdu.tid))
            self._finish(txn, DONE)
        else:  # class 2
            txn.timer = self._clock.call_later(
                ACK_DELAY_MS / 1000.0, self._on_ack_delay, txn)
        if self.on_invoke is not None:
            self.on_invoke(txn)

    def _on_duplicate_invoke(self, txn: Invocation | _FinishedInvocation,
                             rid: bool) -> None:
        # never a second indication; re-trigger whatever answer we last gave
        if txn.state == RESULT_SENT:
            txn.sent_at = None
            self._send(txn.src, txn.resend)
        elif txn.acked_standalone and txn.state in (INVOKE_RCVD, DONE):
            self._send(txn.src, WtpPdu(PDU_ACK, txn.tid, rid=True))
        elif rid and txn.state == INVOKE_RCVD:
            # the initiator's retry ran out during our Ack hold (class 2): the
            # hold-on Ack goes now, and none at the hold's end
            _stop(txn)
            txn.acked_standalone = True
            self._send(txn.src, WtpPdu(PDU_ACK, txn.tid, rid=True))

    def _on_responder_pdu(self, txn: Invocation | _FinishedInvocation,
                          pdu: WtpPdu) -> None:
        if pdu.pdu_type == PDU_ACK:
            if txn.state == RESULT_SENT:
                self._sample(txn, txn.src)
                self._finish(txn, DONE)
        elif pdu.pdu_type == PDU_ABORT:
            if txn.state in (DONE, ABORTED):
                return
            self._finish(txn, ABORTED)
            if self.on_abort is not None:
                self.on_abort(txn.src, txn.tid, pdu.abort_reason)
        # Invoke handled earlier; Result to a responder is nonsense, drop

    def close(self) -> None:
        """Stop every timer; pending handles fail with "provider closed"."""
        with self._lock:
            self._closed = True
            handles = [h for h in self._initiator.values()
                       if isinstance(h, TransactionHandle)]
            for txn in (*handles, *self._responder.values()):
                _stop(txn)
            self._lingering.clear()
            self._initiator.clear()
            self._responder.clear()
            # after the teardown, so a callback that raises leaves no timer
            for handle in handles:
                handle._complete(ABORTED, WtpError("provider closed"))
