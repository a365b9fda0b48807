"""Spans around the public functions of every layer, and per-layer metrics.

The tracer wraps the layers from the benchmark's side only: module
functions and class methods are swapped for timing wrappers while tracing is
installed, and restored afterwards.  A span holds its name, start, end,
parent span on the same thread, self time and fetch id.  Spans stay in
memory and are written out when the run ends.  Tracing can be installed and
removed several times in a run; spans are recorded only while installed.

Fetch ids reach spans three ways: the benchmark sets them around its own
calls, the gateway's Invoke indication and the origin read them from the
request, and ``translate_request`` sets them for the rest of the executor
work item that it starts.
"""

from __future__ import annotations

import array
import gzip
import itertools
import threading
import time
from collections import defaultdict

from wapstack import (bearer, clock, gateway, useragent, wdp, wml, wsp, wtls,
                      wtp)

from harness import percentile
from workloads import fetch_id_in_payload, fetch_id_of

_SUITES = {wtls.SUITE_STREAM_MAC: "full", wtls.SUITE_NULL_MAC: "mac"}


class _FetchScope:
    __slots__ = ("tls", "fid", "prev")

    def __init__(self, tls, fid):
        self.tls = tls
        self.fid = fid

    def __enter__(self):
        self.prev = getattr(self.tls, "fid", None)
        self.tls.fid = self.fid

    def __exit__(self, *exc):
        self.tls.fid = self.prev


class Tracer:
    def __init__(self):
        self.enabled = False
        self.pdus: list[tuple] = []             # (time, pdu type, rid) sent
        self.scheduled = array.array("d")       # deadline of every timer
        self.fired = array.array("d")           # deadline, fire time, ...
        # Per thread: spans as (seq, parent seq or 0, thread index, name,
        # start, end, self seconds, fetch id or None, bytes, error).
        self._threads: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._seq = itertools.count(1)
        self._patched: list[tuple] = []
        self._providers: list[tuple] = []       # (provider, gateway side)
        self._on_invoke: dict[int, object] = {}  # id(provider) -> original

    # --- recording -----------------------------------------------------------

    def fetch_scope(self, fid: int) -> _FetchScope:
        return _FetchScope(self._tls, fid)

    def _thread_spans(self) -> list[tuple]:
        tls = self._tls
        with self._lock:
            tls.index = len(self._threads)
            tls.spans = []
            self._threads.append(tls.spans)
        tls.stack = []
        return tls.spans

    def wrap(self, name, fn, fid_of=None, sticky=False, size_of=None,
             name_of=None):
        """A timing wrapper around ``fn`` that records one span per call.

        ``fid_of(args)`` may supply the fetch id; with ``sticky`` it stays
        set on the thread after the call returns.  ``name_of(args)`` picks
        the span name per call.
        """
        tracer, tls, seq, now = self, self._tls, self._seq, time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = getattr(tls, "spans", None)
            if spans is None:
                spans = tracer._thread_spans()
            stack = tls.stack
            prev = getattr(tls, "fid", None)
            fid = fid_of(args) if fid_of is not None else None
            if fid is None:
                fid = prev
            tls.fid = fid
            frame = [next(seq), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            error = False
            start = now()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], parent, tls.index,
                              name_of(args) if name_of else name,
                              start, end, duration - frame[1], fid,
                              size_of(args) if size_of else 0, error))
                if not sticky:
                    tls.fid = prev
        return wrapper

    def span(self, name: str, start: float, end: float) -> None:
        """Record a root span timed by the caller, such as a transaction
        that starts on one thread and completes on another."""
        if not self.enabled:
            return
        spans = getattr(self._tls, "spans", None)
        if spans is None:
            spans = self._thread_spans()
        spans.append((next(self._seq), 0, self._tls.index, name, start, end,
                      end - start, getattr(self._tls, "fid", None), 0, False))

    def spans(self):
        """Every recorded span, as the tuples described in ``__init__``."""
        for spans in self._threads:
            # A copy: a late span may still be appended meanwhile.
            yield from list(spans)

    def _on_pdu(self, event) -> None:
        if self.enabled and event.direction == "snd":
            self.pdus.append((time.perf_counter(), event.pdu_type, event.rid))

    # --- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper and start recording."""
        if self.enabled:
            return
        seal_name = lambda a: "wtls.seal." + _SUITES[a[0].suite]  # noqa: E731
        open_name = lambda a: "wtls.open." + _SUITES[a[0].suite]  # noqa: E731
        send_size = lambda a: len(a[2])  # noqa: E731
        targets = [
            (wdp, "encode_datagram", "wdp.encode", {}),
            (wdp, "decode_datagram", "wdp.decode", {}),
            (wtp, "encode_pdu", "wtp.encode", {}),
            (wtp, "decode_pdu", "wtp.decode", {}),
            (wsp, "encode_message", "wsp.encode", {}),
            (wsp, "decode_message", "wsp.decode", {}),
            (wtls.SecureSession, "seal", None, {"name_of": seal_name}),
            (wtls.SecureSession, "open", None, {"name_of": open_name}),
            (wtls.WtlsClientTransport, "handshake", "wtls.handshake", {}),
            (wml, "parse", "wml.parse", {}),
            (wml, "encode", "wml.encode", {}),
            (wml, "decode", "wml.decode", {}),
            (gateway, "translate_request", "gateway.translate_request",
             {"fid_of": lambda a: fetch_id_of(a[0].headers), "sticky": True}),
            (gateway, "translate_response", "gateway.translate_response", {}),
            (useragent, "render", "useragent.render", {}),
            (useragent.UserAgent, "fetch", "useragent.fetch", {}),
            (bearer.SimBearer, "send", "bearer.send", {"size_of": send_size}),
            (bearer.UdpBearer, "send", "bearer.send", {"size_of": send_size}),
        ]
        for owner, attr, name, options in targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, **options))
        original = clock.RealClock.call_later
        self._patched.append((clock.RealClock, "call_later", original))
        clock.RealClock.call_later = self.wrap("clock.call_later",
                                               self._call_later(original))
        for provider, gateway_side in self._providers:
            self._hook(provider, gateway_side)
        self.enabled = True

    def _call_later(self, original):
        tracer, tls = self, self._tls
        run = self.wrap("clock.callback", lambda fn, args: fn(*args))

        def call_later(clock_self, delay, fn, *args):
            # Deadlines on the perf_counter scale, like every other time here.
            deadline = time.perf_counter() + max(delay, 0.0)

            def fire(*fire_args):
                # Recorded even once tracing is removed, so that a timer
                # scheduled while traced is never taken for a cancelled one.
                tracer.fired.extend((deadline, time.perf_counter()))
                tls.fid = None  # each timer callback starts a fresh chain
                return run(fn, fire_args)

            tracer.scheduled.append(deadline)
            return original(clock_self, delay, fire, *args)
        return call_later

    def attach(self, provider, gateway_side: bool = False) -> None:
        """Hook one WTP provider's trace events (and the gateway's Invokes)
        now and whenever tracing is installed."""
        self._providers.append((provider, gateway_side))
        if self.enabled:
            self._hook(provider, gateway_side)

    def _hook(self, provider, gateway_side: bool) -> None:
        provider.trace = self._on_pdu
        if gateway_side:
            original = provider.on_invoke
            self._on_invoke[id(provider)] = original
            provider.on_invoke = self.wrap(
                "gateway.on_invoke", original,
                fid_of=lambda a: fetch_id_in_payload(a[0].payload))

    def wrap_origin(self, origin):
        return self.wrap("gateway.origin", origin,
                         fid_of=lambda a: fetch_id_of(a[0].request_headers))

    def uninstall(self) -> None:
        """Stop recording and restore every original function and hook."""
        if not self.enabled:
            return
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for provider, gateway_side in self._providers:
            provider.trace = None
            if gateway_side:
                provider.on_invoke = self._on_invoke.pop(id(provider))

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("seq\tparent\tthread\tname\tstart\tend\tself\tfid\t"
                     "bytes\terror\n")
            for span in self.spans():
                fh.write("\t".join(map(str, span)) + "\n")

    # --- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, windows: list[tuple[float, float]], fetches: int,
                      deadline_aborts: int) -> dict[str, float]:
        """Per-layer metrics; per-fetch counts, ratios and p99s use only the
        traced slices of the loaded phase, ``windows``."""
        def inside(t):
            return any(lo <= t <= hi for lo, hi in windows)

        calls = defaultdict(int)           # whole run, per name
        self_total = defaultdict(float)
        duration_total = defaultdict(float)
        in_window = defaultdict(int)       # calls inside the windows
        window_bytes = 0
        errors = defaultdict(int)
        invoked_at, origin_at = {}, {}
        for _, _, _, name, start, end, self_s, fid, nbytes, error in self.spans():
            calls[name] += 1
            self_total[name] += self_s
            duration_total[name] += end - start
            if error:
                errors[name] += 1
            if inside(start):
                in_window[name] += 1
                window_bytes += nbytes
            if name == "gateway.on_invoke" and fid is not None:
                invoked_at[fid] = start
            elif name == "gateway.origin" and fid is not None:
                origin_at[fid] = start

        def per_fetch(*names):
            return sum(in_window[n] for n in names) / fetches

        def mean_us(name, totals=self_total):
            return totals[name] / calls[name] * 1e6 if calls[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        # A timer due inside a window has fired or been cancelled by now.
        due = sum(1 for d in self.scheduled if inside(d))
        fired = [(d, t) for d, t in zip(self.fired[::2], self.fired[1::2])
                 if inside(d)]
        lags = [t - d for d, t in fired]
        sent = [(kind, rid) for t, kind, rid in self.pdus if inside(t)]
        first_tx = [rid for kind, rid in sent if kind in ("Invoke", "Result")]
        waits = [origin_at[f] - invoked_at[f] for f in origin_at
                 if f in invoked_at and inside(origin_at[f])]
        sends = in_window["bearer.send"]
        return {
            "clock.timers_per_fetch": per_fetch("clock.call_later"),
            "clock.cancelled_ratio": ratio(due - len(fired), due),
            "clock.lag_p99_ms": percentile(lags, 99) * 1e3,
            "bearer.datagrams_per_fetch": per_fetch("bearer.send"),
            "bearer.bytes_per_fetch": window_bytes / fetches,
            "bearer.send_us": mean_us("bearer.send"),
            "bearer.delivered_ratio": ratio(in_window["wdp.decode"], sends),
            "wdp.encode_us": mean_us("wdp.encode"),
            "wdp.decode_us": mean_us("wdp.decode"),
            "wtls.seal_us.full": mean_us("wtls.seal.full"),
            "wtls.open_us.full": mean_us("wtls.open.full"),
            "wtls.seal_us.mac": mean_us("wtls.seal.mac"),
            "wtls.open_us.mac": mean_us("wtls.open.mac"),
            "wtls.records_per_fetch": per_fetch("wtls.seal.full",
                                                "wtls.seal.mac"),
            "wtls.handshake_ms": mean_us("wtls.handshake", duration_total) / 1e3,
            "wtls.rejected": errors["wtls.open.full"] + errors["wtls.open.mac"],
            "wtp.encode_us": mean_us("wtp.encode"),
            "wtp.decode_us": mean_us("wtp.decode"),
            "wtp.pdus_per_fetch": len(sent) / fetches,
            "wtp.retransmissions_per_fetch": sum(r for _, r in sent) / fetches,
            "wtp.first_tx_ratio": ratio(first_tx.count(False), len(first_tx)),
            "wtp.deadline_aborts": deadline_aborts,
            "wsp.encode_us": mean_us("wsp.encode"),
            "wsp.decode_us": mean_us("wsp.decode"),
            "wsp.connect_ms": mean_us("wsp.connect", duration_total) / 1e3,
            "wml.parse_us": mean_us("wml.parse"),
            "wml.encode_us": mean_us("wml.encode"),
            "wml.decode_us": mean_us("wml.decode"),
            "wml.calls_per_fetch": per_fetch("wml.parse", "wml.encode",
                                             "wml.decode"),
            "gateway.translate_request_us": mean_us(
                "gateway.translate_request"),
            "gateway.translate_response_self_us": mean_us(
                "gateway.translate_response"),
            "gateway.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
            "gateway.origin_us": mean_us("gateway.origin", duration_total),
            "useragent.render_us": mean_us("useragent.render"),
            "useragent.fetch_self_us": mean_us("useragent.fetch"),
        }
