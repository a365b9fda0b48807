"""The benchmark's three workloads: generated inputs, origin, expected replies.

Every input derives from the workload seed.  The gateway and the handsets
only ever see the generated requests and the origin's replies; the expected
value of each reply is kept on the benchmark side and checked there.

Every request and every reply fits one datagram.  That is the stack's present
limit: WTP has no segmentation and reassembly, and a reply over the budget
hangs the client.  Large-deck workloads belong here once WTP gains SAR.
"""

from __future__ import annotations

import random
import urllib.parse
import zlib
from dataclasses import dataclass

from wapstack import bearer, wdp, wml, wsp, wtls

FETCH_ID_HEADER = "X-Fetch-Id"
ORIGIN = "http://origin.bench"
WML_MIME = "text/vnd.wap.wml"
WMLC_MIME = "application/wmlc"
BINARY_MIME = "application/octet-stream"

# One request plan per fetch id, repeating after this many ids.
PLAN_LENGTH = 1 << 16

_WORDS = ("alpha bravo cargo delta echo field gamma harbor index jungle kilo "
          "lemon metro north ocean pilot quartz river signal tango umbra "
          "vector whisky xenon yankee zulu amber basalt cedar dune ember "
          "fjord glacier heron iris jasper kestrel lotus marble nectar "
          "opal prairie quill raven saffron tundra").split()


class InputError(Exception):
    """Generated inputs break one of the workload's own invariants."""


@dataclass(frozen=True)
class Request:
    method: str          # "GET" or "POST"
    url: str
    body: bytes = b""
    wml_reply: bool = False


def fetch_id_of(headers) -> int | None:
    for name, value in headers:
        if name == FETCH_ID_HEADER:
            return int(value)
    return None


def fetch_id_in_payload(payload: bytes) -> int | None:
    """Fetch id from an encoded WSP method, without decoding the message."""
    key = FETCH_ID_HEADER.encode("ascii") + b"\x00"
    start = payload.find(key)
    if start < 0:
        return None
    start += len(key)
    end = payload.find(b"\x00", start)
    return int(payload[start:end]) if end > start else None


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def _paragraph(rng: random.Random, n_links: int) -> wml.Element:
    # Never two adjacent text nodes: the parser would merge them.
    children: list = [wml.Text(_words(rng, 3, 9))]
    if rng.random() < 0.5:
        href = f"/deck/{rng.randrange(n_links)}"
        children.append(wml.Element("a", [("href", href)],
                                    [wml.Text(_words(rng, 1, 3))]))
        children.append(wml.Text(" " + _words(rng, 1, 4)))
    if rng.random() < 0.3:
        children.append(wml.Element("br"))
        children.append(wml.Text(_words(rng, 2, 6)))
    return wml.Element("p", [], children)


def _deck(rng: random.Random, target: int, card_id: str, title: str,
          n_links: int) -> wml.Document:
    """A one-card deck whose source is just over ``target`` bytes."""
    card = wml.Element("card", [("id", card_id), ("title", title)], [])
    doc = wml.Document(wml.Element("wml", [], [card]))
    while len(wml.serialize(doc)) < target:
        card.children.append(_paragraph(rng, n_links))
    if rng.random() < 0.5:
        card.children.append(wml.Element("do", [("title", "Back")]))
    return doc


def _zipf_plan(rng: random.Random, n: int, s: float = 1.0) -> list[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    return rng.choices(range(n), weights=weights, k=PLAN_LENGTH)


def _budget(transport_overhead: int) -> int:
    """Largest WTP payload one datagram carries above the given transport."""
    return bearer.DEFAULT_MTU - wdp.HEADER_SIZE - transport_overhead


def _largest_body(budget: int, wtp_header: int, message) -> int:
    """Largest body ``n`` for which ``message(n)`` still fits the budget."""
    n = budget
    while n > 0 and wtp_header + len(wsp.encode_message(message(n))) > budget:
        n -= 1
    return n


class Workload:
    """One traffic mix; subclasses generate the inputs from the seed."""

    name = ""
    bearer = "sim"                 # "sim" or "udp"
    security = wtls.MODE_OFF       # gateway security
    handset_modes: tuple = ()      # per handset: "off", "mac" or "full"
    loss = 0.0                     # loss probability on every sim endpoint
    # Set-ups per run, all timed for setup_s.  On the clean workloads one
    # takes 5 to 30 ms; 40 of them, under a second in all, left setup_s
    # 30% apart between two ten-seed sets as the host's speed drifted.
    setups = 150
    warmup = 4                     # warm-up fetches per handset per set-up
    serial_share = 0.3             # share of the run for the serial phase
    # Run the whole process on one CPU.  Under the interpreter lock only one
    # thread runs Python at a time anyway; chosen per workload by measured
    # run-to-run spread on a shared 2-CPU host.
    pin_cpu = True
    # What the workload claims to stress, checked on the traced run's
    # per-layer metrics: (metric, "<" | ">" | "==", value).
    claims: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def users(self) -> int:
        return len(self.handset_modes)

    def request(self, fid: int) -> Request:
        raise NotImplementedError

    def origin(self, exchange):
        """The origin ``fetch=`` callable handed to the gateway."""
        raise NotImplementedError

    def expected(self, fid: int, req: Request):
        """Expected reply: a WML document tree, or the exact body bytes."""
        raise NotImplementedError


_NO_WTLS = tuple((f"wtls.{m}", "==", 0) for m in (
    "seal_us.full", "open_us.full", "seal_us.mac", "open_us.mac",
    "records_per_fetch", "handshake_ms"))


def _reply(exchange, status: int, ctype: str, body: bytes):
    exchange.status = status
    exchange.response_headers = [("Content-Type", ctype),
                                 ("Content-Length", str(len(body)))]
    exchange.response_body = body
    return exchange


def _not_found(exchange):
    return _reply(exchange, 404, "text/plain", b"not found")


class WmlBrowse(Workload):
    """Static WML decks with Zipf popularity, clean sim bearer, no WTLS."""

    name = "wml-browse"
    handset_modes = ("off",) * 4
    n_decks = 24
    claims = (("wml.calls_per_fetch", ">", 0),
              ("wtp.retransmissions_per_fetch", "<", 0.01)) + _NO_WTLS

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.sources: list[bytes] = []
        self.trees: list[wml.Document] = []
        fits = _largest_body(_budget(0), 3, lambda n: wsp.WspMessage(
            wsp.PDU_REPLY, status=200,
            headers=[("Content-Type", WMLC_MIME),
                     ("Content-Length", str(n))], body=b"\0" * n))
        for rank in range(self.n_decks):
            # Sizes follow a fixed schedule over popularity ranks, jittered
            # by the seed, so the popularity-weighted mix stays the same
            # from seed to seed while the content changes.
            share = (rank * 0.6180339887) % 1.0
            target = int((300 + 1050 * share) * rng.uniform(0.96, 1.04))
            doc = _deck(rng, target, f"d{rank}", _words(rng, 1, 3),
                        self.n_decks)
            source = wml.serialize(doc).encode("ascii")
            tree = wml.parse(source.decode("ascii"))
            if tree != doc:
                raise InputError(f"deck {rank} does not survive parse")
            if len(wml.encode(tree)) > fits:
                raise InputError(f"deck {rank} does not fit one datagram")
            self.sources.append(source)
            self.trees.append(tree)
        self.plan = _zipf_plan(rng, self.n_decks)

    def request(self, fid: int) -> Request:
        deck = self.plan[fid % PLAN_LENGTH]
        return Request("GET", f"{ORIGIN}/deck/{deck}", wml_reply=True)

    def origin(self, exchange):
        path = urllib.parse.urlsplit(exchange.url).path
        if path.startswith("/deck/"):
            deck = int(path[6:])
            if 0 <= deck < self.n_decks:
                return _reply(exchange, 200, WML_MIME, self.sources[deck])
        return _not_found(exchange)

    def expected(self, fid: int, req: Request):
        return self.trees[self.plan[fid % PLAN_LENGTH]]


class SecureUdp(Workload):
    """Binary GETs and POST uploads over UDP loopback under WTLS."""

    name = "secure-udp"
    bearer = "udp"
    security = wtls.MODE_FULL
    handset_modes = (wtls.MODE_FULL, wtls.MODE_INTEGRITY)
    claims = (("wml.calls_per_fetch", "==", 0),
              ("wtls.records_per_fetch", ">", 0),
              ("wtp.retransmissions_per_fetch", "<", 0.01))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        budget = _budget(wtls.HEADER_SIZE + wtls.MAC_LEN)
        self.max_get = _largest_body(budget, 3, lambda n: wsp.WspMessage(
            wsp.PDU_REPLY, status=200,
            headers=[("Content-Type", BINARY_MIME),
                     ("Content-Length", str(n))], body=b"\0" * n))
        self.max_post = _largest_body(budget, 4, lambda n: wsp.WspMessage(
            wsp.PDU_POST, uri=f"{ORIGIN}/upload",
            headers=[(FETCH_ID_HEADER, str(PLAN_LENGTH * 10 ** 6)),
                     ("Content-Type", BINARY_MIME)], body=b"\0" * n))
        size_cap = max(self.max_get, self.max_post)
        self.pool = rng.randbytes(2 * size_cap)
        self.plan = []
        for _ in range(PLAN_LENGTH):
            post = rng.random() < 0.5
            size = rng.randint(0, self.max_post if post else self.max_get)
            self.plan.append((post, rng.randrange(size_cap), size))

    def request(self, fid: int) -> Request:
        post, offset, size = self.plan[fid % PLAN_LENGTH]
        if post:
            return Request("POST", f"{ORIGIN}/upload",
                           self.pool[offset:offset + size])
        return Request("GET", f"{ORIGIN}/blob/{offset}/{size}")

    @staticmethod
    def upload_receipt(body: bytes) -> bytes:
        return b"stored %d crc %08x" % (len(body), zlib.crc32(body))

    def origin(self, exchange):
        path = urllib.parse.urlsplit(exchange.url).path
        if exchange.method == "POST" and path == "/upload":
            return _reply(exchange, 200, "text/plain",
                          self.upload_receipt(exchange.request_body))
        if exchange.method == "GET" and path.startswith("/blob/"):
            offset, size = (int(part) for part in path[6:].split("/"))
            return _reply(exchange, 200, BINARY_MIME,
                          self.pool[offset:offset + size])
        return _not_found(exchange)

    def expected(self, fid: int, req: Request):
        if req.method == "POST":
            return self.upload_receipt(req.body)
        post, offset, size = self.plan[fid % PLAN_LENGTH]
        return self.pool[offset:offset + size]


class LossyBrowse(Workload):
    """Small per-request decks over a sim bearer losing 10% everywhere."""

    name = "lossy-browse"
    handset_modes = ("off",) * 32
    loss = 0.10
    # Each set-up waits out retransmissions, about 1.3 s in all: the
    # concurrent connects take 0.3, 0.6 or 0.9 s (the slowest of 32, each
    # lost try costs a 300 ms retry), the warm-up 0.6 to 1 s.
    setups = 16
    # Serial fetches wait out retransmission timers (about 45 ms on average)
    # and about 3% of them need two retries, close to the 5% beyond p95.  A
    # long serial phase keeps that share reliably under 5%, so p95 stays in
    # the one-retry cluster near 300 ms.
    serial_share = 0.7
    # Not CPU-bound: on one CPU its median latency switched between about
    # 1.8 and 3.7 ms from run to run; on two it varies far less.
    pin_cpu = False
    claims = (("wml.calls_per_fetch", ">", 0),
              ("wtp.retransmissions_per_fetch", ">", 0.1)) + _NO_WTLS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected_trees: dict[int, wml.Document] = {}
        for fid in range(50):
            doc = self._deck(fid)
            if wml.parse(wml.serialize(doc)) != doc:
                raise InputError(f"generated deck {fid} does not survive parse")

    def _deck(self, fid: int) -> wml.Document:
        rng = random.Random(self.seed * PLAN_LENGTH + fid)
        doc = _deck(rng, rng.randint(75, 375), f"f{fid}", "news", 8)
        card = doc.root.children[0]
        card.children.insert(
            0, wml.Element("p", [], [wml.Text(f"fetch {fid}")]))
        return doc

    def request(self, fid: int) -> Request:
        return Request("GET", f"{ORIGIN}/gen/{fid}", wml_reply=True)

    def origin(self, exchange):
        path = urllib.parse.urlsplit(exchange.url).path
        if not path.startswith("/gen/"):
            return _not_found(exchange)
        fid = int(path[5:])
        doc = self._deck(fid)
        self.expected_trees[fid] = doc
        return _reply(exchange, 200, WML_MIME,
                      wml.serialize(doc).encode("ascii"))

    def expected(self, fid: int, req: Request):
        return self.expected_trees.pop(fid, None)


WORKLOADS = {cls.name: cls for cls in (WmlBrowse, SecureUdp, LossyBrowse)}


def flip_one_byte(origin, every: int = 50):
    """An origin that corrupts one byte of every ``every``-th reply.

    The flip keeps a WML source well-formed (it swaps the case of a letter
    in text), so the gateway still answers 200 and only the correctness gate
    can notice.
    """
    def fetch(exchange):
        exchange = origin(exchange)
        fid = fetch_id_of(exchange.request_headers)
        body = bytearray(exchange.response_body)
        if fid is None or fid % every != every - 1 or not body:
            return exchange
        if exchange.response_headers[0][1] == WML_MIME:
            in_tag = False
            for i, ch in enumerate(body):
                if ch == ord("<"):
                    in_tag = True
                elif ch == ord(">"):
                    in_tag = False
                elif not in_tag and chr(ch).isalpha():
                    body[i] ^= 0x20
                    break
        else:
            body[len(body) // 2] ^= 0xFF
        exchange.response_body = bytes(body)
        return exchange
    return fetch
