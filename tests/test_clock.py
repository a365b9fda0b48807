"""Timer scheduling: ordering, cancellation, both clock implementations."""

import logging
import sys
import threading
import time
import weakref

from wapstack.clock import RealClock, VirtualClock


def test_virtual_clock_fires_in_deadline_order():
    clock = VirtualClock()
    out = []
    clock.call_later(0.2, out.append, "b")
    clock.call_later(0.1, out.append, "a")
    clock.call_later(0.3, out.append, "c")
    clock.advance(0.3)
    assert out == ["a", "b", "c"]
    assert clock.now() == 0.3


def test_virtual_clock_same_instant_fires_in_scheduling_order():
    clock = VirtualClock()
    out = []
    for name in "abcd":
        clock.call_later(0.1, out.append, name)
    clock.advance(0.1)
    assert out == ["a", "b", "c", "d"]


def test_virtual_clock_cancel():
    clock = VirtualClock()
    out = []
    handle = clock.call_later(0.1, out.append, "x")
    clock.call_later(0.1, out.append, "y")
    handle.cancel()
    clock.advance(1.0)
    assert out == ["y"]


def test_virtual_clock_cancel_frees_the_callback_arguments():
    class Record:
        pass

    clock = VirtualClock()
    record = Record()
    freed = weakref.ref(record)
    handle = clock.call_later(1.0, lambda r: None, record)
    del record
    handle.cancel()
    assert freed() is None  # at the cancel, not at the deadline
    clock.advance(2.0)
    assert clock.pending() == 0


def test_virtual_clock_callback_can_reschedule():
    clock = VirtualClock()
    out = []

    def tick():
        out.append(clock.now())
        if len(out) < 3:
            clock.call_later(0.5, tick)

    clock.call_later(0.5, tick)
    clock.advance(2.0)
    assert out == [0.5, 1.0, 1.5]


def test_virtual_clock_run_until_idle_and_pending():
    clock = VirtualClock()
    out = []
    clock.call_later(1.0, out.append, 1)
    clock.call_later(2.0, out.append, 2)
    assert clock.pending() == 2
    clock.run_until_idle()
    assert out == [1, 2]
    assert clock.pending() == 0


def test_real_clock_fires_and_orders():
    clock = RealClock()
    try:
        out = []
        done = threading.Event()
        clock.call_later(0.01, out.append, "a")
        clock.call_later(0.03, lambda: (out.append("b"), done.set()))
        assert done.wait(2.0)
        assert out == ["a", "b"]
    finally:
        clock.close()


def test_real_clock_cancel_and_close():
    clock = RealClock()
    fired = threading.Event()
    handle = clock.call_later(0.05, fired.set)
    handle.cancel()
    assert not fired.wait(0.2)
    clock.close()
    try:
        clock.call_later(0.01, fired.set)
        raised = False
    except RuntimeError:
        raised = True
    assert raised


def test_real_clock_survives_callback_exception():
    clock = RealClock()
    try:
        done = threading.Event()
        clock.call_later(0.0, lambda: 1 / 0)
        clock.call_later(0.02, done.set)
        assert done.wait(2.0)
    finally:
        clock.close()


def test_real_clock_sleeps_through_cancelled_timers():
    clock = RealClock()
    waits = []
    wait = clock._cond.wait

    def counted_wait(timeout=None):
        waits.append(timeout)
        return wait(timeout)

    clock._cond.wait = counted_wait
    try:
        handles = []
        for i in range(10):
            handles.append(clock.call_later(0.05 * (i + 1), lambda: None))
            time.sleep(0.002)  # the worker is back in its wait
        for handle in handles:
            handle.cancel()
        time.sleep(0.6)  # past every deadline
    finally:
        clock.close()
    # one wait for the first deadline and one on the emptied heap, not one
    # per armed timer and another per deadline
    assert len(waits) <= 3, waits


def test_real_clock_wakes_its_worker_for_a_timer_behind_a_due_head():
    clock = RealClock()
    notifies = []
    notify = clock._cond.notify

    def counted_notify(n=1):
        notifies.append(n)
        return notify(n)

    clock._cond.notify = counted_notify
    fired = threading.Event()
    try:
        with clock._cond:  # the worker cannot run the first timer meanwhile
            clock.call_later(0.0, lambda: None)
            clock.call_later(0.0, fired.set)
        # the worker's wait for a due head can end late; a notify ends it
        assert len(notifies) == 2
        assert fired.wait(2.0)
    finally:
        clock.close()


def test_real_clock_never_runs_a_timer_cancelled_from_another_thread(caplog):
    clock = RealClock()
    ran = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker and the canceller
    try:
        # cancelled before it is due: it never runs
        armed = clock.call_later(0.05, ran.append, "late")
        canceller = threading.Thread(target=armed.cancel)
        canceller.start()
        canceller.join(2.0)
        # due at once, so the worker may pop each one just as it is
        # cancelled: it runs the callback it was given or nothing, never the
        # dropped one
        handles = [clock.call_later(0.0, ran.append, i) for i in range(500)]
        canceller = threading.Thread(
            target=lambda: [handle.cancel() for handle in handles])
        with caplog.at_level(logging.ERROR, logger="wapstack.clock"):
            canceller.start()
            canceller.join(2.0)
            time.sleep(0.1)  # past the first timer's deadline
    finally:
        sys.setswitchinterval(switch)
        clock.close()
    assert not canceller.is_alive()
    assert "late" not in ran
    assert set(ran) <= set(range(500))
    assert not [r for r in caplog.records
                if r.getMessage() == "timer callback failed"]
