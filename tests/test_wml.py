"""WML parser, canonical serializer and tokenized binary codec."""

import random
import re

import pytest

from wapstack import wml
from conftest import count_elements, document_corpus, random_document


def test_minimal_deck_worked_example():
    assert wml.encode(wml.parse("<wml></wml>")) == bytes.fromhex("01000005")


def test_single_card_worked_example():
    text = '<wml><card id="c1"><p>Hi</p></card></wml>'
    expected = bytes.fromhex("01000045c60503633100014703486900010101")
    assert wml.encode(wml.parse(text)) == expected
    doc = wml.decode(expected)
    assert wml.serialize(doc) == text


def test_parse_basics():
    doc = wml.parse('<wml><card title="a&amp;b"><p>x &lt; y</p><br/></card></wml>')
    card = doc.root.children[0]
    assert card.attrs == [("title", "a&b")]
    p, br = card.children
    assert p.children == [wml.Text("x < y")]
    assert br.tag == "br" and br.children == []


def test_whitespace_only_text_dropped_but_mixed_kept():
    doc = wml.parse("<wml>\n  <card>\n    <p> hi </p>\n  </card>\n</wml>")
    assert len(doc.root.children) == 1
    card = doc.root.children[0]
    assert card.children[0].children == [wml.Text(" hi ")]


@pytest.mark.parametrize("text,fragment", [
    ("<xml></xml>", "unknown tag"),
    ("<wml foo=\"1\"></wml>", "unknown attribute"),
    ('<wml id="a" id="b"></wml>', "duplicate attribute"),
    ("<wml><card></wml>", "mismatched tag"),
    ("<wml>&nbsp;</wml>", "bad escape"),
    ("<wml><br>x</br></wml>", "<br> must be empty"),
    ("<card></card>", "root element must be <wml>"),
    ("<wml></wml><wml></wml>", "content after the root"),
    ("<wml>café</wml>", "non-ASCII"),
    ("<wml", "expected '>'"),
    ("<wml><p>dangling", "unclosed <p>"),
    ('<wml id=nope></wml>', "expected"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(wml.ParseError) as exc:
        wml.parse(text)
    assert fragment in str(exc.value)


def test_parse_error_reports_line_and_column():
    with pytest.raises(wml.ParseError) as exc:
        wml.parse("<wml>\n<card>\n<bogus/>\n</card>\n</wml>")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_serializer_is_canonical():
    doc = wml.parse('<wml>\n  <card id="c">\n  </card>\n</wml>')
    assert wml.serialize(doc) == '<wml><card id="c"/></wml>'
    doc2 = wml.parse('<wml><p>a &amp; b &lt; c "q"</p></wml>')
    assert wml.serialize(doc2) == '<wml><p>a &amp; b &lt; c "q"</p></wml>'
    doc3 = wml.parse('<wml><a href="x?a=1&amp;b=&quot;2&quot;"/></wml>')
    assert wml.serialize(doc3) == '<wml><a href="x?a=1&amp;b=&quot;2&quot;"/></wml>'


def test_parse_serialize_identity_over_random_documents():
    rng = random.Random(11)
    for _ in range(200):
        doc = random_document(rng)
        assert wml.parse(wml.serialize(doc)) == doc


def test_decode_encode_identity_over_random_documents():
    rng = random.Random(12)
    for _ in range(200):
        doc = random_document(rng)
        assert wml.decode(wml.encode(doc)) == doc


def test_binary_is_smaller_than_canonical_text():
    for doc in document_corpus(n=20, min_elements=10, seed=5):
        assert count_elements(doc.root) >= 10
        assert len(wml.encode(doc)) < len(wml.serialize(doc).encode("ascii"))


# each malformed input, with the message decode must reject it with
_MALFORMED_BINARY = {
    b"": "shorter than header plus one token",
    bytes.fromhex("02000005"): "unsupported version 0x02",
    bytes.fromhex("01000105"): "v1 string table must be empty",
    bytes.fromhex("01000004"): "unknown tag token 0x04",
    # flags promise more
    bytes.fromhex("010000c5"): "truncated token stream",
    bytes.fromhex("0100004501"): "HAS_CONTENT set but no children",
    bytes.fromhex("0100000505"): "trailing bytes after the document",
    bytes.fromhex("01000006"): "root element must be wml",
    bytes.fromhex("010000850403616200"): "unknown attribute token 0x04",
    bytes.fromhex("0100008505616200"): "attribute value must be STR_I",
    bytes.fromhex("010000450361"): "unterminated string",
    # truncated inside an attribute list: no END after the last value
    bytes.fromhex("010000850503616200"): "truncated token stream",
    # truncated after an attribute code, before its STR_I
    bytes.fromhex("0100008505"): "truncated token stream",
    # truncated inside content: no END after the last child
    bytes.fromhex("01000045036100"): "truncated token stream",
    bytes.fromhex("0100004503e90001"): "non-ASCII byte in string",
}


@pytest.mark.parametrize("data", list(_MALFORMED_BINARY))
def test_malformed_binary_rejected(data):
    message = _MALFORMED_BINARY[data]
    with pytest.raises(wml.MalformedBinary, match=f"^{re.escape(message)}$"):
        wml.decode(data)


def _mutate_binary(rng: random.Random, data: bytes) -> bytes:
    i = rng.randrange(len(data))
    op = rng.randrange(4)
    if op == 0:  # truncate
        return data[:i]
    if op == 1:  # flip one bit
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if op == 2:  # insert
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    return data[:i] + data[i + 1:]  # delete


def test_mutated_binary_decodes_or_raises_malformed_binary():
    rng = random.Random(43)
    decks = [wml.encode(doc) for doc in document_corpus(n=50, min_elements=10)]
    outcomes = {"decoded": 0, "rejected": 0}
    for _ in range(2000):
        data = _mutate_binary(rng, rng.choice(decks))
        try:
            doc = wml.decode(data)
        except wml.MalformedBinary:
            outcomes["rejected"] += 1
        else:
            assert wml.decode(wml.encode(doc)) == doc, data
            outcomes["decoded"] += 1
    # both branches are exercised, not one alone
    assert min(outcomes.values()) >= 200, outcomes


def test_unencodable_text_rejected():
    doc = wml.Document(wml.Element("wml", children=[wml.Text("café")]))
    with pytest.raises(wml.UnencodableText):
        wml.encode(doc)
    doc = wml.Document(wml.Element("wml", children=[wml.Text("a\x00b")]))
    with pytest.raises(wml.UnencodableText):
        wml.encode(doc)


# Message, line and column of each error, as the parser reports them.  Line
# and column count from 1; a column counts every character since the last
# "\n", "\r" included.
@pytest.mark.parametrize("text,message,line,col", [
    ("<caré>", "non-ASCII character 'é'", 1, 5),
    ('<wml><card tïtle="x"/></wml>', "non-ASCII character 'ï'", 1, 13),
    ("<wml><card></cérd></wml>", "non-ASCII character 'é'", 1, 15),
    ("<wml>café</wml>", "non-ASCII character 'é'", 1, 9),
    ('<wml title="é"/>', "non-ASCII character 'é'", 1, 13),
    ('<wml title="a&quoé;"/>', "non-ASCII character 'é'", 1, 18),
    ("<wml→>", "expected whitespace before attribute", 1, 5),
    ("<wml>\n<p>a\x00b</p></wml>", "NUL in text", 2, 6),
    ("<wml>\n\x00</wml>", "NUL in text", 2, 2),
    ("<wml>&abcdefghijk;</wml>", "bad escape &abcdefghi", 1, 16),
    ("<wml>&abcdefghi;</wml>", "bad escape &abcdefghi", 1, 16),
    ("<wml>&amp", "bad escape &amp", 1, 10),
    ("<wml>&lt</wml>", "bad escape &lt</wml>", 1, 15),
    ("<wml>\r\n<card>\r\n<bogus/>\r\n</card>\r\n</wml>",
     "unknown tag <bogus>", 3, 7),
    ("<wml", "expected '>'", 1, 5),
    ('<wml><card title="abc', "unterminated attribute value", 1, 22),
    ('<wml><card title="a\nb', "unterminated attribute value", 2, 2),
    ('<wml id="a"title="b"/>', "expected whitespace before attribute", 1, 12),
    ("<wml id></wml>", "expected '='", 1, 8),
    ("<wml id=nope></wml>", "expected '\"'", 1, 9),
    ('<wml foo="1"/>', "unknown attribute 'foo'", 1, 9),
    ('<wml id="a" id="b"/>', "duplicate attribute 'id'", 1, 15),
    ("<wml><br>x</br></wml>", "<br> must be empty", 1, 16),
    ("<wml>\n</wml>\n<wml/>", "content after the root element", 3, 1),
    ("<card/>", "root element must be <wml>", 1, 1),
    ("<wml>\n  <p>dangling", "unclosed <p>", 2, 14),
    ("<wml><card>\n</wml>", "mismatched tag: <card> closed by </wml>", 2, 6),
    ("  ", "expected '<'", 1, 3),
    ("< wml/>", "expected a name", 1, 2),
    ("<wml></>", "expected a name", 1, 8),
    ("<wml/x>", "expected '>'", 1, 5),
])
def test_parse_error_message_line_and_column(text, message, line, col):
    with pytest.raises(wml.ParseError) as exc:
        wml.parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{message} at line {line}, column {col}"


_MUTATIONS = ["<", ">", "&", '"', "/", "=", ";", " ", "\n", "\r\n", "\x00",
              "é", "&amp;", "&lt", "</p>", "<br/>", ' id="x"', "p"]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:  # insert
            text = text[:i] + rng.choice(_MUTATIONS) + text[i:]
        elif op == 1:  # delete
            text = text[:i] + text[i + 1:]
        else:  # replace
            text = text[:i] + rng.choice(_MUTATIONS) + text[i + 1:]
    return text


def test_mutated_documents_parse_or_raise_parse_error():
    rng = random.Random(41)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(2000):
        text = _mutate(rng, wml.serialize(random_document(rng)))
        try:
            doc = wml.parse(text)
        except wml.ParseError as exc:
            assert 1 <= exc.line <= text.count("\n") + 1, (text, exc)
            assert exc.col >= 1, (text, exc)
            outcomes["rejected"] += 1
        else:
            assert wml.parse(wml.serialize(doc)) == doc, text
            outcomes["parsed"] += 1
    # both branches are exercised, not one alone
    assert min(outcomes.values()) >= 200, outcomes


def _nested(depth: int) -> str:
    """A deck of <wml> and ``depth - 1`` nested <p>, innermost holding text."""
    return "<wml>" + "<p>" * (depth - 1) + "x" + "</p>" * (depth - 1) + "</wml>"


def _nested_binary(depth: int) -> bytes:
    opening = [wml.TAG_CODES["wml"] | wml.FLAG_HAS_CONTENT]
    opening += [wml.TAG_CODES["p"] | wml.FLAG_HAS_CONTENT] * (depth - 2)
    return bytes([wml.VERSION, 0, 0, *opening, wml.TAG_CODES["p"],
                  *[wml.TOKEN_END] * (depth - 1)])


@pytest.mark.parametrize("depth", [wml.MAX_DEPTH + 1, 995, 5000])
def test_parse_rejects_nesting_past_max_depth(depth):
    assert wml.parse(_nested(wml.MAX_DEPTH)).root.tag == "wml"
    with pytest.raises(wml.ParseError) as err:
        wml.parse(_nested(depth))
    assert "nested deeper than" in str(err.value)
    # the error points at the "<" of the first element past the bound
    assert (err.value.line, err.value.col) == (1, 6 + 3 * (wml.MAX_DEPTH - 1))


@pytest.mark.parametrize("depth", [wml.MAX_DEPTH + 1, 995, 5000])
def test_decode_rejects_nesting_past_max_depth(depth):
    deepest = wml.decode(_nested_binary(wml.MAX_DEPTH))
    assert deepest == wml.parse("<wml>" + "<p>" * (wml.MAX_DEPTH - 2)
                                + "<p/>" + "</p>" * (wml.MAX_DEPTH - 2)
                                + "</wml>")
    with pytest.raises(wml.MalformedBinary, match="nested deeper than"):
        wml.decode(_nested_binary(depth))
