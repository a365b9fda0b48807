"""WML-subset markup: parser, canonical serializer, tokenized binary codec.

The grammar is closed-world: seven tags (wml, card, p, br, a, do, template),
three attributes (id, title, href), double-quoted attribute values, and the
escapes ``&lt; &amp; &quot;`` in text and attribute values.  Text is ASCII;
whitespace-only text nodes between elements are dropped at parse time.
Elements nest at most ``MAX_DEPTH`` deep, in text and in binary alike.

Binary form:

    version 0x01, string-table length uint16 (always 0x0000 in v1), then a
    pre-order token stream.  An element token is its tag code OR'd with
    HAS_ATTRS (0x80) and/or HAS_CONTENT (0x40); attributes are emitted as
    attribute code, STR_I value, and the list is terminated by END; children
    follow, terminated by END when HAS_CONTENT is set.  Text is
    STR_I + NUL-terminated bytes.

Both directions are pure functions; ``decode(encode(d)) == d`` as trees and
``parse(serialize(d)) == d``.

The parser is a recursive descent over compiled patterns: each run of
whitespace, a name, character data or an attribute value is matched in one
step, and only the character that ends a run is looked at on its own (an
escape, a NUL, a quote, a non-ASCII letter).  Positions are plain string
offsets; a ``ParseError`` turns its offset into a line (one more than the
``\n`` before it) and a column (characters since the last ``\n``, plus one).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

VERSION = 0x01
TOKEN_END = 0x01
TOKEN_STR_I = 0x03
FLAG_HAS_CONTENT = 0x40
FLAG_HAS_ATTRS = 0x80

TAG_CODES = {"wml": 0x05, "card": 0x06, "p": 0x07, "br": 0x08,
             "a": 0x09, "do": 0x0A, "template": 0x0B}
ATTR_CODES = {"id": 0x05, "title": 0x06, "href": 0x07}
_TAG_BY_CODE = {v: k for k, v in TAG_CODES.items()}
_ATTR_BY_CODE = {v: k for k, v in ATTR_CODES.items()}

_ENTITIES = {"lt": "<", "amp": "&", "quot": '"'}

MAX_DEPTH = 64  # deepest element nesting that parse and decode accept


class WmlError(Exception):
    pass


class ParseError(WmlError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class MalformedBinary(WmlError):
    pass


class UnencodableText(WmlError):
    pass


@dataclass
class Text:
    text: str


@dataclass
class Element:
    tag: str
    attrs: list[tuple[str, str]] = field(default_factory=list)
    children: list = field(default_factory=list)


@dataclass
class Document:
    root: Element


# --- parser -------------------------------------------------------------------

_WS = re.compile(r"[ \t\r\n]*")
_NAME = re.compile(r"[A-Za-z0-9_-]*")
_TEXT = re.compile(r"[^<&\x00]*")     # character data up to "<", "&" or a NUL
_VALUE = re.compile(r'[^"&]*')        # attribute value up to its end or an escape
_ENTITY = re.compile(r"&(lt|amp|quot);")
_BAD_ENTITY = re.compile(r"&([^;]{0,9})")  # a bad escape's name, as reported
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _check_ascii(text: str, start: int, end: int) -> None:
    match = _NON_ASCII.search(text, start, end)
    if match:
        raise _error(text, match.start(), f"non-ASCII character {match[0]!r}")


def _expect(text: str, pos: int, s: str) -> int:
    if not text.startswith(s, pos):
        raise _error(text, pos, f"expected {s!r}")
    return pos + len(s)


def _name(text: str, pos: int) -> tuple[str, int]:
    end = _NAME.match(text, pos).end()
    if end < len(text) and text[end].isalnum():  # a non-ASCII letter or digit
        raise _error(text, end, f"non-ASCII character {text[end]!r}")
    if end == pos:
        raise _error(text, pos, "expected a name")
    return text[pos:end], end


def _entity(text: str, pos: int) -> tuple[str, int]:
    match = _ENTITY.match(text, pos)
    if match:
        return _ENTITIES[match[1]], match.end()
    name = _BAD_ENTITY.match(text, pos)[1]
    end = pos + 1 + len(name)
    _check_ascii(text, pos + 1, end)
    raise _error(text, end, f"bad escape &{name}")


def _chars(text: str, pos: int, run: re.Pattern) -> tuple[str, int]:
    """Read runs of ``run`` and the escapes between them; return the
    unescaped string and the offset of the character that ended it."""
    out = []
    while True:
        end = run.match(text, pos).end()
        chunk = text[pos:end]
        if not chunk.isascii():
            _check_ascii(text, pos, end)
        out.append(chunk)
        if not text.startswith("&", end):
            return "".join(out), end
        value, pos = _entity(text, end)
        out.append(value)


def _element(text: str, pos: int, depth: int = 1) -> tuple[Element, int]:
    """Read the element whose name starts at ``pos``, just after its "<"."""
    if depth > MAX_DEPTH:
        raise _error(text, pos - 1, f"elements nested deeper than {MAX_DEPTH}")
    tag, pos = _name(text, pos)
    if tag not in TAG_CODES:
        raise _error(text, pos, f"unknown tag <{tag}>")
    element = Element(tag)
    attrs = element.attrs
    while True:
        start = _WS.match(text, pos).end()
        if start == len(text) or text[start] in ">/":
            pos = start
            break
        if start == pos:
            raise _error(text, pos, "expected whitespace before attribute")
        name, pos = _name(text, start)
        if name not in ATTR_CODES:
            raise _error(text, pos, f"unknown attribute {name!r}")
        if any(n == name for n, _ in attrs):
            raise _error(text, pos, f"duplicate attribute {name!r}")
        pos = _expect(text, _expect(text, pos, "="), '"')
        value, pos = _chars(text, pos, _VALUE)
        if pos == len(text):
            raise _error(text, pos, "unterminated attribute value")
        attrs.append((name, value))
        pos += 1
    if text.startswith("/>", pos):
        return element, pos + 2
    pos = _expect(text, pos, ">")
    children = element.children
    while True:
        if pos == len(text):
            raise _error(text, pos, f"unclosed <{tag}>")
        if text.startswith("</", pos):
            closing, pos = _name(text, pos + 2)
            if closing != tag:
                raise _error(text, pos,
                             f"mismatched tag: <{tag}> closed by </{closing}>")
            pos = _expect(text, pos, ">")
            break
        if text[pos] == "<":
            child, pos = _element(text, pos + 1, depth + 1)
            children.append(child)
            continue
        value, pos = _chars(text, pos, _TEXT)
        if text.startswith("\x00", pos):
            raise _error(text, pos + 1, "NUL in text")
        if value.strip():
            children.append(Text(value))
        # whitespace-only text between elements is dropped
    if tag == "br" and children:
        raise _error(text, pos, "<br> must be empty")
    return element, pos


def parse(text: str) -> Document:
    pos = _expect(text, _WS.match(text).end(), "<")
    root, pos = _element(text, pos)
    pos = _WS.match(text, pos).end()
    if pos != len(text):
        raise _error(text, pos, "content after the root element")
    if root.tag != "wml":
        raise ParseError("root element must be <wml>", 1, 1)
    return Document(root)


# --- canonical serializer -------------------------------------------------------

def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;")


def _escape_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace('"', "&quot;")


def _serialize_element(el: Element, out: list[str]) -> None:
    out.append(f"<{el.tag}")
    for name, value in el.attrs:
        out.append(f' {name}="{_escape_attr(value)}"')
    if not el.children:
        out.append("/>")
        return
    out.append(">")
    for child in el.children:
        if isinstance(child, Text):
            out.append(_escape_text(child.text))
        else:
            _serialize_element(child, out)
    out.append(f"</{el.tag}>")


def serialize(doc: Document) -> str:
    out: list[str] = []
    _serialize_element(doc.root, out)
    return "".join(out)


# --- binary codec ----------------------------------------------------------------

def _encode_string(text: str) -> bytes:
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        raise UnencodableText(f"non-ASCII text {text!r}") from None
    if b"\x00" in raw:
        raise UnencodableText("embedded NUL in text")
    return bytes([TOKEN_STR_I]) + raw + b"\x00"


def _encode_element(el: Element, out: bytearray) -> None:
    token = TAG_CODES[el.tag]
    if el.attrs:
        token |= FLAG_HAS_ATTRS
    if el.children:
        token |= FLAG_HAS_CONTENT
    out.append(token)
    if el.attrs:
        for name, value in el.attrs:
            out.append(ATTR_CODES[name])
            out += _encode_string(value)
        out.append(TOKEN_END)
    for child in el.children:
        if isinstance(child, Text):
            out += _encode_string(child.text)
        else:
            _encode_element(child, out)
    if el.children:
        out.append(TOKEN_END)


def encode(doc: Document) -> bytes:
    out = bytearray([VERSION, 0x00, 0x00])  # version, empty string table
    _encode_element(doc.root, out)
    return bytes(out)


class _BinCursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise MalformedBinary("truncated token stream")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def peek(self) -> int:
        if self.pos >= len(self.data):
            raise MalformedBinary("truncated token stream")
        return self.data[self.pos]

    def cstring(self) -> str:
        end = self.data.find(b"\x00", self.pos)
        if end < 0:
            raise MalformedBinary("unterminated string")
        raw = self.data[self.pos:end]
        self.pos = end + 1
        if not raw.isascii():
            raise MalformedBinary("non-ASCII byte in string")
        return raw.decode("ascii")


def _decode_element(cur: _BinCursor, depth: int = 1) -> Element:
    if depth > MAX_DEPTH:
        raise MalformedBinary(f"elements nested deeper than {MAX_DEPTH}")
    token = cur.byte()
    code = token & 0x3F
    tag = _TAG_BY_CODE.get(code)
    if tag is None:
        raise MalformedBinary(f"unknown tag token {token:#04x}")
    element = Element(tag)
    if token & FLAG_HAS_ATTRS:
        while True:
            b = cur.byte()
            if b == TOKEN_END:
                break
            name = _ATTR_BY_CODE.get(b)
            if name is None:
                raise MalformedBinary(f"unknown attribute token {b:#04x}")
            if cur.byte() != TOKEN_STR_I:
                raise MalformedBinary("attribute value must be STR_I")
            element.attrs.append((name, cur.cstring()))
    if token & FLAG_HAS_CONTENT:
        while True:
            b = cur.peek()
            if b == TOKEN_END:
                cur.byte()
                break
            if b == TOKEN_STR_I:
                cur.byte()
                element.children.append(Text(cur.cstring()))
            else:
                element.children.append(_decode_element(cur, depth + 1))
        if not element.children:
            raise MalformedBinary("HAS_CONTENT set but no children")
    return element


def decode(data: bytes) -> Document:
    if len(data) < 4:
        raise MalformedBinary("shorter than header plus one token")
    if data[0] != VERSION:
        raise MalformedBinary(f"unsupported version {data[0]:#04x}")
    strtbl_len = int.from_bytes(data[1:3], "big")
    if strtbl_len != 0:
        raise MalformedBinary("v1 string table must be empty")
    cur = _BinCursor(data)
    cur.pos = 3
    root = _decode_element(cur)
    if cur.pos != len(data):
        raise MalformedBinary("trailing bytes after the document")
    if root.tag != "wml":
        raise MalformedBinary("root element must be wml")
    return Document(root)
