"""Timer scheduling and blocking, shared by every layer of the stack.

Two clocks implement one interface (``now()`` / ``call_later()`` /
``wait(event, timeout)``), and every blocking call waits through it:

- ``RealClock`` runs callbacks on a background thread against wall time.
- ``VirtualClock`` is advanced manually, so timer-driven protocol behavior
  (retransmission, delayed acks, impairment delays) is deterministic and
  runs as fast as the test can pump it.  Its ``wait`` fires the timers
  itself, so a blocking call runs the whole stack on the caller's thread.
  Only that thread may drive the clock, and what sets the event must run
  inline (a gateway's handlers with ``executor=None``).

Callbacks scheduled for the same instant fire in scheduling order on both
clocks, which makes delivery traces reproducible.
"""

from __future__ import annotations

import heapq
import logging
import threading
import time

log = logging.getLogger(__name__)


class TimerHandle:
    """Cancelable handle returned by ``call_later``."""

    __slots__ = ("deadline", "seq", "fn", "args", "cancelled")

    def __init__(self, deadline: float, seq: int, fn, args):
        self.deadline = deadline
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        # Drop the callback and its arguments now, not at the deadline, so
        # what they refer to is freed.  cancelled goes first: RealClock's
        # worker reads fn and args before it checks cancelled.
        self.cancelled = True
        self.fn = self.args = None


class VirtualClock:
    """Manually advanced clock for deterministic single-threaded runs."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    def call_later(self, delay: float, fn, *args) -> TimerHandle:
        handle = TimerHandle(self._now + max(delay, 0.0), self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (handle.deadline, handle.seq, handle))
        return handle

    def advance(self, dt: float) -> None:
        """Move time forward, firing every timer that comes due."""
        self.wait(threading.Event(), dt)

    def wait(self, event, timeout: float | None = None) -> bool:
        """Fire timers in order until ``event`` is set or ``timeout``
        seconds have passed, and return whether it is set.  A wait that
        times out leaves ``now`` at its horizon.  With no timer left to run
        it returns at once, since nothing else could set the event."""
        horizon = float("inf") if timeout is None else self._now + timeout
        while (not event.is_set() and self._heap
               and self._heap[0][0] <= horizon):
            deadline, _, handle = heapq.heappop(self._heap)
            self._now = max(self._now, deadline)
            if not handle.cancelled:
                handle.fn(*handle.args)
        if not event.is_set() and timeout is not None:
            self._now = max(self._now, horizon)
        return event.is_set()

    def run_until_idle(self, limit: float = 60.0) -> None:
        """Advance until no timers remain or ``limit`` seconds have elapsed."""
        horizon = self._now + limit
        while self._heap and self._heap[0][0] <= horizon:
            self.advance(self._heap[0][0] - self._now)

    def pending(self) -> int:
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def close(self) -> None:
        self._heap.clear()


class RealClock:
    """Wall-time clock; callbacks run sequentially on one worker thread."""

    def __init__(self):
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._seq = 0
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="wapstack-clock")
        self._thread.start()

    def now(self) -> float:
        return time.monotonic()

    def wait(self, event, timeout: float | None = None) -> bool:
        """Block on ``event`` in wall time; return whether it is set."""
        return event.wait(timeout)

    def call_later(self, delay: float, fn, *args) -> TimerHandle:
        with self._cond:
            if self._closed:
                raise RuntimeError("clock is closed")
            now = time.monotonic()
            handle = TimerHandle(now + max(delay, 0.0), self._seq, fn, args)
            self._seq += 1
            heapq.heappush(self._heap, (handle.deadline, handle.seq, handle))
            # A timer behind a head that is not yet due cannot move the
            # wake-up.  A due head may still wait for the end of a timed
            # wait, which a notify cuts short.
            head_deadline, _, head = self._heap[0]
            if head is handle or head_deadline <= now:
                self._cond.notify()
        return handle

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                # drop cancelled heads, so the wait is for a timer that runs
                while self._heap and self._heap[0][2].cancelled:
                    heapq.heappop(self._heap)
                if not self._heap:
                    self._cond.wait()
                    continue
                deadline = self._heap[0][0]
                now = time.monotonic()
                if deadline > now:
                    self._cond.wait(deadline - now)
                    continue
                _, _, handle = heapq.heappop(self._heap)
                fn, args = handle.fn, handle.args
            if handle.cancelled:
                continue
            try:
                fn(*args)
            except Exception:
                log.exception("timer callback failed")

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._heap.clear()
            self._cond.notify()
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=2.0)
