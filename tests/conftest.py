"""Shared fixtures: random WML documents, a stub HTTP origin, clocks, a
free UDP port, a receiver that collects arrivals, and a guard against
leaked UDP reader and clock threads."""

import http.server
import random
import socket
import string
import threading
import time
import urllib.parse

import pytest

from wapstack import wml
from wapstack.clock import RealClock

_TEXT_ALPHABET = string.ascii_letters + string.digits + " <>&\"'.,!?-_/:"


def random_text(rng: random.Random) -> str:
    while True:
        text = "".join(rng.choice(_TEXT_ALPHABET)
                       for _ in range(rng.randint(1, 12)))
        if text.strip():
            return text


def _random_element(rng: random.Random, tag: str, depth: int) -> wml.Element:
    attrs = []
    for name in ("id", "title", "href"):
        if rng.random() < 0.3:
            attrs.append((name, random_text(rng)))
    element = wml.Element(tag, attrs)
    if tag == "br" or depth >= 4:
        return element
    n_children = rng.randint(0, 3)
    last_was_text = False
    for _ in range(n_children):
        # never two adjacent text nodes: parse would merge them
        if not last_was_text and rng.random() < 0.4:
            element.children.append(wml.Text(random_text(rng)))
            last_was_text = True
        else:
            child_tag = rng.choice(["card", "p", "br", "a", "do", "template"])
            element.children.append(_random_element(rng, child_tag, depth + 1))
            last_was_text = False
    return element


def count_elements(node) -> int:
    if isinstance(node, wml.Text):
        return 0
    return 1 + sum(count_elements(c) for c in node.children)


def random_document(rng: random.Random, min_elements: int = 1) -> wml.Document:
    root = _random_element(rng, "wml", 0)
    while count_elements(root) < min_elements:
        root.children.append(_random_element(rng, "card", 1))
    return wml.Document(root)


def document_corpus(n: int = 50, min_elements: int = 10,
                    seed: int = 20260823) -> list:
    rng = random.Random(seed)
    return [random_document(rng, min_elements) for _ in range(n)]


def collect(inbox) -> list:
    """Set a receiver on ``inbox`` that appends each ``(src, payload)`` to
    the returned list."""
    got = []
    inbox.set_receiver(lambda src, payload: got.append((src, payload)))
    return got


def free_udp_port():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _stack_threads():
    return {t for t in threading.enumerate()
            if t.name == "wapstack-clock" or t.name.startswith("udp-bearer-")}


@pytest.fixture(autouse=True)
def no_leaked_stack_thread():
    """Fail a test that leaves a UDP bearer's reader thread or a
    ``RealClock``'s thread running: a reader holds a socket and its port
    until the process exits, and a clock keeps every timer's callback."""
    before = _stack_threads()
    yield
    leaked = _stack_threads() - before
    deadline = time.monotonic() + 0.5  # a thread that is just finishing
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(t.name for t in leaked if t.is_alive())
    if alive:
        pytest.fail(f"stack threads left running: {alive}")


@pytest.fixture
def real_clock():
    clock = RealClock()
    yield clock
    clock.close()


class StubOrigin:
    """Tiny HTTP origin: serves a page map, plus /sleep for timeout tests."""

    def __init__(self, pages: dict):
        self.pages = pages  # path -> (content_type, bytes)
        self.requests = []  # (method, path, headers dict)
        origin = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _serve(self, method):
                parsed = urllib.parse.urlsplit(self.path)
                origin.requests.append((method, parsed.path, dict(self.headers)))
                if parsed.path == "/sleep":
                    seconds = float(urllib.parse.parse_qs(parsed.query)["s"][0])
                    time.sleep(seconds)
                body_in = b""
                length = self.headers.get("Content-Length")
                if length:
                    body_in = self.rfile.read(int(length))
                page = origin.pages.get(parsed.path)
                if page is None:
                    self._reply(404, "text/plain", b"not found")
                elif callable(page):
                    status, ctype, body = page(method, body_in)
                    self._reply(status, ctype, body)
                else:
                    self._reply(200, page[0], page[1])

            def _reply(self, status, ctype, body):
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                self._serve("GET")

            def do_POST(self):
                self._serve("POST")

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_origin():
    origins = []

    def make(pages):
        origin = StubOrigin(pages)
        origins.append(origin)
        return origin

    yield make
    for origin in origins:
        origin.close()
