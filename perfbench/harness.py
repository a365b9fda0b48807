"""Set-up, serial phase and closed-loop loaded phase of one workload run.

The benchmark's own code runs on the main thread only.  Simulated handsets
are in-memory objects driven by the one ``RealClock`` thread; each UDP
handset owns one socket and one reader thread.  Completion callbacks run on
those stack threads, so every callback catches and counts its own errors,
and the main thread aborts any fetch that outlives its deadline.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
import traceback
from dataclasses import dataclass, field

from wapstack import useragent, wml, wsp, wtp
from wapstack.bearer import ImpairmentProfile, SimNetwork, UdpBearer
from wapstack.clock import RealClock
from wapstack.gateway import Gateway, GatewayConfig
from wapstack.useragent import UserAgent
from wapstack.wdp import WdpAddress

from workloads import FETCH_ID_HEADER, WMLC_MIME, Request, Workload

# A fetch still outstanding this long after issue is aborted and counted
# as failed.  Above WTP's own give-up time (8 retries x 300 ms).
DEADLINE_S = 5.0
# The main thread wakes rarely: each wake-up competes for the interpreter
# lock with the stack's threads and would show in their latencies.
SUPERVISE_EVERY_S = 0.25

OK, FAILED, WRONG = "ok", "failed", "wrong"


class WrongReply(Exception):
    pass


class SetupFailed(Exception):
    pass


@dataclass
class Rig:
    """One set-up: clock, gateway and attached, connected handsets."""
    clock: RealClock
    gateway: Gateway
    gateway_addr: WdpAddress
    handsets: list[UserAgent]

    def close(self) -> None:
        for ua in self.handsets:
            ua.close()
        self.gateway.close()
        self.clock.close()


@dataclass
class Tally:
    """Outcomes of timed fetches.  Updated from several threads."""
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    deadline_aborts: int = 0
    callback_errors: int = 0
    wrong_examples: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, outcome: str, detail: str = "") -> None:
        with self.lock:
            self.attempted += 1
            if outcome == FAILED:
                self.failed += 1
            elif outcome == WRONG:
                self.wrong += 1
                if len(self.wrong_examples) < 5:
                    self.wrong_examples.append(detail)


def _fetch_headers(fid: int) -> list[tuple[str, str]]:
    return [(FETCH_ID_HEADER, str(fid))]


def check_reply(wl: Workload, fid: int, req: Request, reply: wsp.WspMessage,
                document: wml.Document | None = None) -> int | None:
    """Verify one reply; returns the body bytes it carried.

    Raises ``WrongReply`` for a 200 reply whose content is wrong.  A non-200
    status is not a wrong answer but a failed fetch, reported as ``None``.
    """
    if reply.pdu_type != wsp.PDU_REPLY:
        raise WrongReply(f"fetch {fid}: pdu type {reply.pdu_type:#04x}")
    if reply.status != 200:
        return None
    expected = wl.expected(fid, req)
    if req.wml_reply:
        ctype = next((v for n, v in reply.headers if n == "Content-Type"), "")
        if ctype != WMLC_MIME:
            raise WrongReply(f"fetch {fid}: content type {ctype!r}")
        if document is None:
            try:
                document = wml.decode(reply.body)
            except wml.WmlError as exc:
                raise WrongReply(f"fetch {fid}: {exc}") from None
        if document != expected:
            raise WrongReply(f"fetch {fid}: decoded deck differs from source")
    elif reply.body != expected:
        raise WrongReply(f"fetch {fid}: body differs ({len(reply.body)} B "
                         f"received, {len(expected)} B expected)")
    return len(req.body) + len(reply.body)


def build_rig(wl: Workload, index: int, origin, psk_file: str, psk: bytes,
              tracer=None) -> Rig:
    """Start a gateway, attach the workload's handsets and connect them all.

    The WSP connects run concurrently, one transaction per handset, as when
    many handsets attach to a gateway at once; the main thread waits for
    each reply in turn.
    """
    clock = RealClock()
    config = GatewayConfig(security=wl.security, bearer=wl.bearer,
                           psk_file=psk_file if wl.security != "off" else None)
    # Impairment seeds differ per set-up and per endpoint, all from the seed.
    seeds = itertools.count(wl.seed * 1000 + index * 100)
    if wl.bearer == "udp":
        gw_bearer = UdpBearer(("127.0.0.1", 0))
        gateway = Gateway(config, clock=clock, bearer=gw_bearer, fetch=origin)
        gateway_addr = WdpAddress(gw_bearer.local_addr, config.listen_port)
        attach = lambda i: UdpBearer(("127.0.0.1", 0))  # noqa: E731
    else:
        network = SimNetwork(clock)
        config.impairments = ImpairmentProfile(loss_prob=wl.loss,
                                               seed=next(seeds))
        gateway = Gateway(config, clock=clock, network=network, fetch=origin)
        gateway_addr = WdpAddress(gateway.bearer_addr, config.listen_port)
        attach = lambda i: network.endpoint(  # noqa: E731
            f"handset{i}", ImpairmentProfile(loss_prob=wl.loss,
                                             seed=next(seeds)))
    if tracer is not None:
        tracer.attach(gateway.provider, gateway_side=True)
    handsets = []
    for i, mode in enumerate(wl.handset_modes):
        ua = UserAgent(gateway_addr, attach(i), clock=clock, security=mode,
                       psk=psk, identity=f"handset{i}".encode("ascii"),
                       timeout=DEADLINE_S)
        if tracer is not None:
            tracer.attach(ua.provider)
        handsets.append(ua)
    rig = Rig(clock, gateway, gateway_addr, handsets)
    try:
        _connect_all(rig, tracer)
    except BaseException:
        rig.close()
        raise
    return rig


def _connect_all(rig: Rig, tracer=None) -> None:
    payload = wsp.encode_message(wsp.WspMessage(
        wsp.PDU_CONNECT, session_id=0, headers=[("User-Agent", "perfbench/1")]))
    pending = []
    for ua in rig.handsets:
        start = time.perf_counter()
        handle = ua.provider.invoke(rig.gateway_addr, 2, payload)
        done = []
        handle.add_done_callback(
            lambda h, done=done: done.append(time.perf_counter()))
        pending.append((ua, start, handle, done))
    for ua, start, handle, done in pending:
        try:
            reply = wsp.decode_message(handle.wait(DEADLINE_S).result)
        except (wtp.WtpError, wsp.WspError) as exc:
            raise SetupFailed(f"WSP connect failed: {exc!r}") from None
        if reply.pdu_type != wsp.PDU_CONNECT_REPLY or reply.session_id == 0:
            raise SetupFailed(f"bad WSP connect reply {reply.pdu_type:#04x}")
        ua.session = wsp.WspSession(wsp.WspClient(ua.provider,
                                                  rig.gateway_addr),
                                    reply.session_id, reply.headers)
        if tracer is not None:
            # The handle wakes its waiters just before it runs its callbacks.
            end = done[0] if done else time.perf_counter()
            tracer.span("wsp.connect", start, end)


def serial_fetch(wl: Workload, ua: UserAgent, fid: int, req: Request,
                 tracer=None) -> tuple[str, float]:
    """One blocking fetch (rendered if WML); returns outcome and seconds."""
    scope = tracer.fetch_scope(fid) if tracer else contextlib.nullcontext()
    with scope:
        start = time.perf_counter()
        try:
            if req.method == "GET":
                result = ua.fetch(req.url, headers=_fetch_headers(fid))
                reply, document = result.reply, result.document
                if document is not None:
                    # Looked up at call time, so a traced run sees its wrapper.
                    useragent.render(document)
            else:
                reply = ua.session.post(req.url, _fetch_headers(fid), req.body,
                                        timeout=ua.timeout)
                document = None
        except (wtp.WtpError, wsp.WspError):
            return FAILED, time.perf_counter() - start
        except wml.WmlError as exc:
            raise WrongReply(f"fetch {fid}: {exc}") from None
        elapsed = time.perf_counter() - start
    if check_reply(wl, fid, req, reply, document) is None:
        return FAILED, elapsed
    return OK, elapsed


def setup(wl: Workload, origin, psk_file: str, psk: bytes, ids,
          tracer=None) -> tuple[list[float], Rig]:
    """Set up ``wl.setups`` times; keep the last rig, time every one.

    Each set-up ends with a closed-loop warm-up of ``wl.warmup`` verified
    fetches per handset.  A wrong reply there fails the run like any other.
    """
    times = []
    rig = None
    for index in range(wl.setups):
        if rig is not None:
            rig.close()
        start = time.perf_counter()
        rig = build_rig(wl, index, origin, psk_file, psk, tracer)
        warm = Tally()
        ClosedLoop(wl, rig, ids, warm, tracer).warm_up(wl.warmup * wl.users)
        times.append(time.perf_counter() - start)
        if warm.wrong:
            rig.close()
            raise WrongReply(warm.wrong_examples[0])
    return times, rig


def serial_phase(wl: Workload, rig: Rig, ids, seconds: float, tally: Tally,
                 tracer=None) -> list[float]:
    """One handset, blocking fetches on an otherwise idle gateway."""
    latencies = []
    ua = rig.handsets[0]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        fid = next(ids)
        try:
            outcome, elapsed = serial_fetch(wl, ua, fid, wl.request(fid),
                                            tracer)
        except WrongReply as exc:
            tally.add(WRONG, str(exc))
            continue
        tally.add(outcome)
        if outcome == OK:
            latencies.append(elapsed)
    return latencies


class ClosedLoop:
    """``U`` handsets, each keeping exactly one fetch outstanding."""

    def __init__(self, wl: Workload, rig: Rig, ids, tally: Tally, tracer=None):
        self.wl = wl
        self.rig = rig
        self.ids = ids
        self.tally = tally
        self.tracer = tracer
        self.lock = threading.Lock()
        self.running = False
        self.budget = None        # fetches left to issue, when limited
        self.idle = threading.Event()  # set once the last fetch is done
        self.inflight: dict[int, tuple[int, float, object]] = {}
        # (issue time, verified time, body bytes) of every verified fetch.
        self.done: list[tuple[float, float, int]] = []
        # (time, process CPU seconds) at the start and end of every slice.
        self.marks: list[tuple[float, float]] = []

    @property
    def window(self) -> tuple[float, float]:
        return self.marks[0][0], self.marks[-1][0]

    @property
    def cpu_seconds(self) -> float:
        """Process CPU, all threads, over the window."""
        return self.marks[-1][1] - self.marks[0][1]

    def run(self, seconds: float, slices: int = 1, on_slice=None) -> None:
        """Keep every handset busy for ``seconds``, then drain.

        The time is cut into ``slices`` equal slices; ``on_slice(i)`` runs
        on the main thread as slice ``i`` starts, for every slice but the
        first.
        """
        self.running = True
        self.marks = [(time.perf_counter(), time.process_time())]
        t0 = self.marks[0][0]
        for slot in range(self.wl.users):
            self._issue(slot)
        for i in range(1, slices + 1):
            end = t0 + seconds * i / slices
            while (left := end - time.perf_counter()) > 0:
                time.sleep(min(SUPERVISE_EVERY_S, left))
                self._supervise()
            self.marks.append((time.perf_counter(), time.process_time()))
            if on_slice is not None and i < slices:
                on_slice(i)
        self.running = False
        self._drain()

    def warm_up(self, fetches: int) -> None:
        """Issue ``fetches`` fetches in all, as a closed loop, and wait for
        every one of them."""
        self.budget = fetches
        self.running = True
        for slot in range(min(self.wl.users, fetches)):
            self._issue(slot)
        while not self.idle.wait(SUPERVISE_EVERY_S):
            self._supervise()

    def slice_stats(self, i: int) -> tuple[int, float]:
        """Fetches verified in slice ``i`` and the process CPU it used."""
        (lo, cpu_lo), (hi, cpu_hi) = self.marks[i], self.marks[i + 1]
        return (sum(1 for _, end, _ in self.done if lo <= end <= hi),
                cpu_hi - cpu_lo)

    def verified(self) -> int:
        """Fetches verified inside the window."""
        lo, hi = self.window
        return sum(1 for _, end, _ in self.done if lo <= end <= hi)

    def _issue(self, slot: int) -> None:
        if self.budget is not None:
            with self.lock:
                self.budget -= 1
                if self.budget <= 0:
                    self.running = False
        fid = next(self.ids)
        req = self.wl.request(fid)
        scope = (self.tracer.fetch_scope(fid) if self.tracer
                 else contextlib.nullcontext())
        with scope:
            start = time.perf_counter()
            payload = wsp.encode_message(wsp.WspMessage(
                wsp.PDU_POST if req.method == "POST" else wsp.PDU_GET,
                uri=req.url, headers=_fetch_headers(fid), body=req.body))
            handle = self.rig.handsets[slot].provider.invoke(
                self.rig.gateway_addr, 2, payload)
        with self.lock:
            self.inflight[slot] = (fid, start, handle)
        handle.add_done_callback(
            lambda h: self._done(slot, fid, req, start, h))

    def _done(self, slot: int, fid: int, req: Request, start: float,
              handle) -> None:
        # Runs on a stack thread: never let an exception escape.
        try:
            self._record(fid, req, start, handle)
        except Exception:
            self.tally.add(FAILED)
            self._callback_error()
        # The slot keeps its finished entry until the re-issue replaces it,
        # so the main thread never sees it empty and issues a second fetch.
        if self.running:
            try:
                self._issue(slot)
                return
            except Exception:
                self._callback_error()
        with self.lock:
            if self.inflight.get(slot, (None,))[0] == fid:
                del self.inflight[slot]
            if not self.inflight and not self.running:
                self.idle.set()

    def _callback_error(self) -> None:
        with self.tally.lock:
            self.tally.callback_errors += 1
        traceback.print_exc()

    def _record(self, fid: int, req: Request, start: float, handle) -> None:
        scope = (self.tracer.fetch_scope(fid) if self.tracer
                 else contextlib.nullcontext())
        outcome, nbytes, detail = FAILED, 0, ""
        if handle.error is None:
            with scope:
                try:
                    reply = wsp.decode_message(handle.result)
                    nbytes = check_reply(self.wl, fid, req, reply)
                    outcome = OK if nbytes is not None else FAILED
                except (WrongReply, wsp.WspError) as exc:
                    outcome, detail = WRONG, str(exc)
        end = time.perf_counter()
        self.tally.add(outcome, detail)
        if outcome == OK:
            self.done.append((start, end, nbytes))

    def _supervise(self) -> None:
        now = time.perf_counter()
        with self.lock:
            overdue = [h for _, t, h in self.inflight.values()
                       if now - t > DEADLINE_S and not h.done]
            empty = ([s for s in range(self.wl.users) if s not in self.inflight]
                     if self.running else [])
        for handle in overdue:
            try:
                handle.abort()
            except wtp.WtpError:
                continue  # completed meanwhile
            with self.tally.lock:
                self.tally.deadline_aborts += 1
        for slot in empty:
            try:
                self._issue(slot)
            except Exception:
                self._callback_error()

    def _drain(self) -> None:
        """Let the last fetches finish; abort what outlives its deadline."""
        limit = time.perf_counter() + DEADLINE_S + 1.0
        while (not self.idle.wait(0.01)
               and time.perf_counter() < limit):
            self._supervise()


def percentile(values: list[float], q: float) -> float:
    """Percentile ``q`` (0-100) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def loaded_metrics(loop: ClosedLoop) -> dict[str, float]:
    """End-to-end metrics of one loaded phase.

    Rates count fetches verified inside the window.  Latencies are those of
    the fetches issued inside it, however late they finish, so slow fetches
    are not cut off at the window's end.
    """
    lo, hi = loop.window
    width = hi - lo
    finished = [n for _, end, n in loop.done if lo <= end <= hi]
    issued = [end - start for start, end, _ in loop.done if lo <= start <= hi]
    return {
        "fetch_per_s": len(finished) / width,
        "goodput_kBps": sum(finished) / 1e3 / width,
        "fetch_p50_ms": percentile(issued, 50) * 1e3,
        "fetch_p95_ms": percentile(issued, 95) * 1e3,
        "fetch_p99_ms": percentile(issued, 99) * 1e3,
        "cpu_ms_per_fetch": loop.cpu_seconds * 1e3 / len(finished),
    }
