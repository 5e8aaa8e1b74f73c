import enum
import gc
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from datetime import date
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsx import (
    Diagnostic,
    EdcUsage,
    IdentifierType,
    QosMetrics,
    Severity,
    Span,
    Target,
    TokenKind,
    generate_all,
    parse,
    print_canonical,
    tokenize,
    validate,
)
from dsx import model as model_module
from dsx import parser as parser_module
from dsx.codegen import _unsupported
from dsx.model import NAME_RE, Record
from dsx.parser import _ROWS, SourceMap, Token, _lex

from conftest import FIXTURE_TODAY, fixture_text
from modelgen import build_model
from test_golden import groups
from test_model import TABLES
from test_roundtrip import models as roundtrip_models


FLAGSHIPS = ("production-machine.dsx", "machine-opcua.dsx", "sensor-idlink.dsx")


def kinds(tokens):
    return [t.kind for t in tokens]


def errors(result):
    return [d for d in result.diagnostics if d.severity is Severity.ERROR]


def codes(result):
    return [d.code for d in result.diagnostics]


_E002_CTRL = "control character in string literal"
_E002_ENV = "malformed env() reference (expected env(UPPER_CASE_NAME))"
_E001 = ("E001", "unterminated string literal")
_X_COLON = [("IDENT", "x", "x", 1, 1, 1), ("COLON", ":", None, 1, 2, 1)]

# Lexer edge cases: source -> tokens as (kind, lexeme, value, line, column,
# length) and diagnostics as (code, message, line, column, length), in the
# order tokenize reports them.
LEX_CASES = {
    "backslash-before-other-char-stays-literal": (
        'x: "a\\qb\\\\c\\"d"',
        _X_COLON
        + [("STRING", '"a\\qb\\\\c\\"d"', 'a\\qb\\c"d', 1, 4, 12), ("EOF", "", None, 1, 16, 0)],
        [],
    ),
    "backslash-at-end-of-input": (
        'x: "ab\\',
        _X_COLON + [("EOF", "", None, 1, 8, 0)],
        [(*_E001, 1, 4, 1)],
    ),
    "escaped-quote-then-newline-is-unterminated": (
        'x: "abc\\"\ny: 1',
        _X_COLON
        + [
            ("IDENT", "y", "y", 2, 1, 1),
            ("COLON", ":", None, 2, 2, 1),
            ("INTEGER", "1", 1, 2, 4, 1),
            ("EOF", "", None, 2, 5, 0),
        ],
        [(*_E001, 1, 4, 1)],
    ),
    "lone-cr-ends-a-string": (
        'x: "a\rb"\n',
        _X_COLON + [("IDENT", "b", "b", 1, 7, 1), ("EOF", "", None, 2, 1, 0)],
        [(*_E001, 1, 4, 1), (*_E001, 1, 8, 1)],
    ),
    "unterminated-string-then-tokens-on-next-line": (
        'x: "open\ny: [1, 2]',
        _X_COLON
        + [
            ("IDENT", "y", "y", 2, 1, 1),
            ("COLON", ":", None, 2, 2, 1),
            ("LBRACKET", "[", None, 2, 4, 1),
            ("INTEGER", "1", 1, 2, 5, 1),
            ("COMMA", ",", None, 2, 6, 1),
            ("INTEGER", "2", 2, 2, 8, 1),
            ("RBRACKET", "]", None, 2, 9, 1),
            ("EOF", "", None, 2, 10, 0),
        ],
        [(*_E001, 1, 4, 1)],
    ),
    "control-characters-in-string": (
        'x: "a\x01b\tc\x7fd\x1f"',
        _X_COLON
        + [("STRING", '"a\x01b\tc\x7fd\x1f"', "abcd", 1, 4, 10), ("EOF", "", None, 1, 14, 0)],
        [("E002", _E002_CTRL, 1, column, 1) for column in (6, 8, 10, 12)],
    ),
    "control-character-in-unterminated-string": (
        'x: "a\x01b\n}',
        _X_COLON + [("RBRACE", "}", None, 2, 1, 1), ("EOF", "", None, 2, 2, 0)],
        [("E002", _E002_CTRL, 1, 6, 1), (*_E001, 1, 4, 1)],
    ),
    "bare-minus-and-negative-integer": (
        "a: - b: -7",
        [
            ("IDENT", "a", "a", 1, 1, 1),
            ("COLON", ":", None, 1, 2, 1),
            ("IDENT", "b", "b", 1, 6, 1),
            ("COLON", ":", None, 1, 7, 1),
            ("INTEGER", "-7", -7, 1, 9, 2),
            ("EOF", "", None, 1, 11, 0),
        ],
        [("E002", "illegal character '-'", 1, 4, 1)],
    ),
    "date-with-extra-digit-lexes-as-integers": (
        "d: 2025-01-011",
        [
            ("IDENT", "d", "d", 1, 1, 1),
            ("COLON", ":", None, 1, 2, 1),
            ("INTEGER", "2025", 2025, 1, 4, 4),
            ("INTEGER", "-01", -1, 1, 8, 3),
            ("INTEGER", "-011", -11, 1, 11, 4),
            ("EOF", "", None, 1, 15, 0),
        ],
        [],
    ),
    "malformed-env-references": (
        "s: env(FOO\nt: env(x)",
        [
            ("IDENT", "s", "s", 1, 1, 1),
            ("COLON", ":", None, 1, 2, 1),
            ("IDENT", "FOO", "FOO", 1, 8, 3),
            ("IDENT", "t", "t", 2, 1, 1),
            ("COLON", ":", None, 2, 2, 1),
            ("IDENT", "x", "x", 2, 8, 1),
            ("EOF", "", None, 2, 10, 0),
        ],
        [
            ("E002", _E002_ENV, 1, 4, 3),
            ("E002", _E002_ENV, 2, 4, 3),
            ("E002", "illegal character ')'", 2, 9, 1),
        ],
    ),
    "tabs-and-bom-before-tokens": (
        "\ufeff\ta:\t\ufeff1\n\t\tb",
        [
            ("IDENT", "a", "a", 1, 3, 1),
            ("COLON", ":", None, 1, 4, 1),
            ("INTEGER", "1", 1, 1, 7, 1),
            ("IDENT", "b", "b", 2, 3, 1),
            ("EOF", "", None, 2, 4, 0),
        ],
        [],
    ),
    "non-ascii-and-astral-outside-strings": (
        "é x \U0001f600 y",
        [
            ("IDENT", "x", "x", 1, 3, 1),
            ("IDENT", "y", "y", 1, 7, 1),
            ("EOF", "", None, 1, 8, 0),
        ],
        [
            ("E002", "illegal character 'é'", 1, 1, 1),
            ("E002", "illegal character '\U0001f600'", 1, 5, 1),
        ],
    ),
    # Integers longer than the lexer's digit bound are reported, not converted.
    "integer-longer-than-the-digit-bound": (
        "x: " + "9" * 641 + " -" + "1" * 640,
        _X_COLON
        + [
            ("INTEGER", "-" + "1" * 640, -int("1" * 640), 1, 646, 641),
            ("EOF", "", None, 1, 1287, 0),
        ],
        [("E002", "integer literal too long", 1, 4, 641)],
    ),
    # 99 control characters fill the budget, the 100th becomes E099, the
    # rest of the string is still read and nothing after it is.
    "e099-cap-reached-inside-one-string": (
        'x: "' + "\x01" * 120 + '" y',
        _X_COLON
        + [("STRING", '"' + "\x01" * 120 + '"', "", 1, 4, 122), ("EOF", "", None, 1, 126, 0)],
        [("E002", _E002_CTRL, 1, column, 1) for column in range(5, 104)]
        + [("E099", "too many errors", 1, 104, 1)],
    ),
    # Closed strings that are not printable but hold no C0 control and no DEL
    # are decoded by the rare path, whole and without a diagnostic.
    **{
        f"unprintable-{name}-in-closed-string": (
            f'x: "a{char}b"',
            _X_COLON
            + [("STRING", f'"a{char}b"', f"a{char}b", 1, 4, 5), ("EOF", "", None, 1, 9, 0)],
            [],
        )
        for name, char in (("nbsp", "\xa0"), ("u2028", "\u2028"), ("ufeff", "\ufeff"))
    },
}


class TestTokenize:
    def test_smallest_statement(self):
        tokens, diagnostics = tokenize('title: "Mill"')
        assert diagnostics == []
        assert kinds(tokens) == [
            TokenKind.IDENT,
            TokenKind.COLON,
            TokenKind.STRING,
            TokenKind.EOF,
        ]
        assert tokens[0].lexeme == "title"
        assert tokens[2].value == "Mill"

    def test_token_knows_its_file_and_describes_itself(self):
        tokens, _ = tokenize('title: "Mill"', "mill.dsx")
        assert tokens[0].file == "mill.dsx"
        assert [t.describe() for t in tokens] == ["'title'", "':'", "string", "end of file"]
        assert repr(tokens[2]) == "Token(STRING, '\"Mill\"', 1:8)"

    def test_date_lexing(self):
        tokens, diagnostics = tokenize("created: 2025-07-01")
        assert diagnostics == []
        assert tokens[2].kind is TokenKind.DATE
        assert tokens[2].lexeme == "2025-07-01"
        assert tokens[2].value == date(2025, 7, 1)

    def test_impossible_date_lexes_with_no_value(self):
        # The parser reports E014 where it expects a value, not the lexer.
        tokens, diagnostics = tokenize("created: 2025-02-30")
        assert diagnostics == []
        assert tokens[2].kind is TokenKind.DATE
        assert (tokens[2].lexeme, tokens[2].value) == ("2025-02-30", None)

    def test_env_ref_lexing(self):
        tokens, diagnostics = tokenize("secret: env(IDP_SECRET)")
        assert diagnostics == []
        assert tokens[2].kind is TokenKind.ENV_REF
        assert tokens[2].value == "IDP_SECRET"

    def test_spans_cover_lexemes(self):
        tokens, _ = tokenize('  title: "ab"\n  x: 42')
        title = tokens[0]
        assert (title.span.line, title.span.column, title.span.length) == (1, 3, 5)
        string = tokens[2]
        assert (string.span.line, string.span.column, string.span.length) == (1, 10, 4)
        number = tokens[5]
        assert (number.span.line, number.span.column) == (2, 6)

    def test_comments_and_crlf_are_skipped(self):
        tokens, diagnostics = tokenize('// intro\r\ntitle: "x" // trailing\r\n')
        assert diagnostics == []
        assert kinds(tokens) == [
            TokenKind.IDENT,
            TokenKind.COLON,
            TokenKind.STRING,
            TokenKind.EOF,
        ]

    def test_string_escapes_are_decoded(self):
        tokens, _ = tokenize(r'x: "a \"b\" c\\d"')
        assert tokens[2].value == 'a "b" c\\d'

    def test_unterminated_string_points_at_opening_quote(self):
        _, diagnostics = tokenize('title: "never closed\nnext: 1')
        assert [d.code for d in diagnostics] == ["E001"]
        assert (diagnostics[0].span.line, diagnostics[0].span.column) == (1, 8)

    def test_illegal_character(self):
        _, diagnostics = tokenize("a: 1 $ b: 2")
        assert [d.code for d in diagnostics] == ["E002"]
        assert "$" in diagnostics[0].message

    def test_malformed_env_ref(self):
        _, diagnostics = tokenize("secret: env(lower)")
        assert diagnostics and diagnostics[0].code == "E002"

    def test_keywords_are_reserved(self):
        tokens, _ = tokenize("usage edc plain foo")
        assert kinds(tokens)[:4] == [
            TokenKind.KEYWORD,
            TokenKind.KEYWORD,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
        ]

    def test_integer_bound_holds_under_the_lowest_conversion_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the lowest nonzero limit Python accepts
        try:
            tokens, diagnostics = tokenize("x: " + "7" * 640 + " " + "7" * 641)
        finally:
            sys.set_int_max_str_digits(limit)
        assert tokens[2].value == int("7" * 640)
        assert [(d.code, d.span.column) for d in diagnostics] == [("E002", 645)]

    def test_booleans(self):
        tokens, _ = tokenize("cloudPush: true x: false")
        assert tokens[2].kind is TokenKind.BOOLEAN and tokens[2].value is True
        assert tokens[5].value is False

    @pytest.mark.parametrize("source, tokens, diagnostics", LEX_CASES.values(), ids=LEX_CASES)
    def test_lexer_edge_cases(self, source, tokens, diagnostics):
        got_tokens, got_diagnostics = tokenize(source, "t.dsx")
        assert [
            (t.kind.name, t.lexeme, t.value, t.span.line, t.span.column, t.span.length)
            for t in got_tokens
        ] == tokens
        assert all(t.span.file == "t.dsx" for t in got_tokens)
        assert [
            (d.code, d.message, d.span.line, d.span.column, d.span.length)
            for d in got_diagnostics
        ] == diagnostics


# Pieces of source text for the position oracle: every blank, comment and
# quoting character the lexer treats specially, an unterminated env(, and a
# control character.
_PIECES = (
    "\n", "\r", "\t", " ", "\ufeff", "//", '"', "\\", "0", "7", "-", "a", "Z", "_",
    "{", "}", "[", "]", ":", ",", "env(", "env(X)", ")", "\x01", "$",
)


def _naive_position(source, offset):
    """Line and column of an offset, counted the slow, obvious way."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _naive_offset(source, line, column):
    lines = source.split("\n")
    assert 1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1
    return sum(len(text) + 1 for text in lines[: line - 1]) + column - 1


# What each lexer diagnostic points at: the text its span covers must satisfy this.
_POINTS_AT = {
    "unterminated string literal": lambda text: text == '"',
    "control character in string literal": lambda text: len(text) == 1 and not text.isprintable(),
    "malformed env() reference (expected env(UPPER_CASE_NAME))": lambda text: text == "env",
    "integer literal too long": lambda text: text.lstrip("-").isdigit(),
}


class TestPositionsOnDemand:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=60).map("".join))
    def test_positions_equal_a_naive_oracle(self, source):
        tokens, diagnostics = tokenize(source, "p.dsx")
        assert tokens[-1].kind is TokenKind.EOF
        for tok in tokens:
            assert source[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme
            assert (tok.line, tok.column) == _naive_position(source, tok.offset)
            assert tok.span == Span("p.dsx", tok.line, tok.column, len(tok.lexeme))
        for d in diagnostics:
            offset = _naive_offset(source, d.span.line, d.span.column)
            assert (d.span.line, d.span.column) == _naive_position(source, offset)
            text = source[offset : offset + d.span.length]
            if d.message.startswith("illegal character"):
                assert d.message == f"illegal character {text!r}"
            else:
                assert _POINTS_AT[d.message](text), (d, text)

    # The DSL-heavy pieces plus one non-ASCII character, after an optional
    # flood of illegal characters that brings the cap within reach, so the
    # token that fills it may be followed by a same-line punctuation mark.
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(st.just(0), st.integers(90, 100)),
        st.lists(st.sampled_from((*_PIECES, "\u00e9")), max_size=60).map("".join),
    )
    def test_offsets_increase_and_eof_ends_the_source(self, flood, text):
        source = "@" * flood + text
        tokens, diagnostics = tokenize(source)
        for tok in tokens:
            assert source[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme
        offsets = [tok.offset for tok in tokens]
        assert all(a < b for a, b in zip(offsets, offsets[1:])), offsets
        assert tokens[-1].kind is TokenKind.EOF
        if not diagnostics or diagnostics[-1].code != "E099":
            assert tokens[-1].offset == len(source)
        else:  # no token after the one that hit the cap, and EOF right after it
            cap = diagnostics[-1].span
            cap_offset = _naive_offset(source, cap.line, cap.column)
            assert all(tok.offset <= cap_offset for tok in tokens[:-1])
            assert tokens[-1].offset > cap_offset

    # The map counts from the offset it was last asked or from a mark, so an
    # offset may fall before that offset, on it, or past it.
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_spans_asked_in_any_order_equal_a_naive_oracle(self, data):
        pieces = st.lists(st.sampled_from(("\n", "\r\n", "a", "bc ")), max_size=80)
        source = data.draw(pieces.map("".join))
        offsets = data.draw(st.lists(st.integers(0, len(source)), max_size=20))
        smap = SourceMap("s.dsx", source)
        for offset in offsets:
            line, column = _naive_position(source, offset)
            assert smap.span(offset, 1) == Span("s.dsx", line, column, 1), offset

    def test_eof_follows_the_token_that_hit_the_cap(self):
        source = "a $\n" * 150
        tokens, diagnostics = tokenize(source)
        assert [d.code for d in diagnostics] == ["E002"] * 99 + ["E099"]
        cap = diagnostics[-1].span  # the 100th '$', on line 100
        assert (cap.line, cap.column) == (100, 3)
        eof = tokens[-1]
        assert eof.kind is TokenKind.EOF
        assert eof.offset == 99 * 4 + 3
        assert (eof.line, eof.column) == (100, 4)
        assert len(tokens) == 101  # one 'a' per line up to the cap, then EOF


# Sources for the comment property: every fixture without an unterminated
# string, since a comment after one on its line would be string text.
_COMMENTABLE = [
    text
    for _, text in next(groups())[1]
    if all(d.code != "E001" for d in tokenize(text)[1])
]
_PUNCTUATION = {
    TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.LBRACKET, TokenKind.RBRACKET,
    TokenKind.COLON, TokenKind.COMMA,
}


@st.composite
def commented_pairs(draw):
    """A source with `//` comments inserted at line ends, on lines of their
    own, after punctuation marks and at the end of input without a newline,
    and the same source with each comment replaced by spaces."""
    source = draw(
        st.sampled_from(_COMMENTABLE)
        | st.integers(0, 599).map(lambda i: print_canonical(build_model(i)))
    )
    line_ends = [i for i, char in enumerate(source) if char == "\n"]
    marks = [t.offset + 1 for t in tokenize(source)[0] if t.kind in _PUNCTUATION]
    places = st.sampled_from(
        [(end, " ", "") for end in line_ends]  # at a line end
        + [(end + 1, "  ", "\n") for end in line_ends]  # on a line of its own
        + [(mark, " ", "\n") for mark in marks]  # after a mark: `key: // c`
    )
    inserts = draw(st.lists(places, min_size=1, max_size=6))
    if draw(st.booleans()):
        inserts.append((len(source), "", ""))  # at the end, with no newline after it
    commented, spaced, last = [], [], 0
    for offset, before, after in sorted(inserts, key=lambda insert: insert[0]):
        comment = "//" + draw(st.text(st.characters(blacklist_characters="\n"), max_size=8))
        commented += [source[last:offset], before, comment, after]
        spaced += [source[last:offset], before, " " * len(comment), after]
        last = offset
    return "".join([*commented, source[last:]]), "".join([*spaced, source[last:]])


class TestComments:
    """A comment is a match of its own that the lexer drops: it lexes and
    parses as spaces of the same length would."""

    @settings(max_examples=150, deadline=None)
    @given(commented_pairs())
    def test_comments_lex_and_parse_as_spaces(self, pair):
        commented, spaced = pair
        assert commented != spaced
        results = [tokenize(text, "c.dsx") for text in pair]
        (tokens, diagnostics), (space_tokens, space_diagnostics) = results
        assert [(t.kind, t.lexeme, t.value, t.offset) for t in tokens] == [
            (t.kind, t.lexeme, t.value, t.offset) for t in space_tokens
        ]
        assert diagnostics == space_diagnostics
        assert parse(commented, "c.dsx") == parse(spaced, "c.dsx")

    @pytest.mark.parametrize(
        "source", ["//", "// c", "x: 1 // c", "x: // c\n1", "a //", "a\n//\n//x"]
    )
    def test_a_comment_is_no_token_and_no_diagnostic(self, source):
        tokens, diagnostics = tokenize(source)
        spaced, _ = tokenize(re.sub(r"//[^\n]*", lambda m: " " * len(m[0]), source))
        assert diagnostics == []
        assert [(t.kind, t.lexeme, t.offset) for t in tokens] == [
            (t.kind, t.lexeme, t.offset) for t in spaced
        ]
        assert tokens[-1].offset == len(source)

    def test_a_single_slash_is_an_illegal_character(self):
        tokens, diagnostics = tokenize("a / b /")
        assert [d.message for d in diagnostics] == ["illegal character '/'"] * 2
        assert [t.lexeme for t in tokens] == ["a", "b", ""]


class TestSpansOnDemand:
    """A valid file builds no Span; readers build exactly the spans they read."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = Span.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Span, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("name", FLAGSHIPS)
    def test_parsing_a_flagship_builds_no_span(self, built, name):
        result = parse(fixture_text(name), name)
        assert result.model is not None
        assert built == []
        spans = result.source_map.spans
        assert len(built) == len(spans) > 0

    def test_validate_builds_only_the_spans_of_its_findings(self, built):
        name = "invalid/w204-expired.dsx"
        result = parse(fixture_text(name), name)
        assert result.model is not None and built == []
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert [d.code for d in report.diagnostics] == ["W204"]
        assert built == [tuple(report.diagnostics[0].span.__getstate__())]


class TestSpanFor:
    """span_for returns the span recorded for a path, and has no walk-up to an
    enclosing path: the binder records every path the validator asks for."""

    def test_the_validator_asks_only_for_recorded_paths(self, monkeypatch):
        asked = []
        span_for = SourceMap.span_for

        def recording(self, path):
            asked.append((path, path in self._offsets))
            return span_for(self, path)

        monkeypatch.setattr(SourceMap, "span_for", recording)
        models = 0
        for _, inputs in groups():  # fixtures, modelgen 0-599, mutations, capped inputs
            for file, source in inputs:
                result = parse(source, file)
                if result.model is not None:
                    models += 1
                    validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert models > 600 and len(asked) > 100
        assert sorted({path for path, recorded in asked if not recorded}) == []

    def test_a_path_not_recorded_gets_the_header_span(self):
        name = "production-machine.dsx"
        smap = parse(fixture_text(name), name).source_map
        header = smap.spans[""]
        assert header.length == len("connector")
        assert smap.span_for("") == header
        assert smap.span_for("access.roles[nobody]") == header
        # A recorded path's child falls back to the header too, not to the parent.
        assert "access.roles[operator]" in smap.spans
        assert smap.span_for("access.roles[operator].permissions[9]") == header

    def test_a_path_at_offset_zero_gets_its_own_span(self):
        header = Span("t.dsx", 2, 3, len("connector"))
        smap = SourceMap("t.dsx", '"quoted"\n  connector')
        smap.record("name", 0)
        assert smap.span_for("name") == Span("t.dsx", 1, 1, len('"quoted"'))
        smap.record("", 11)
        assert smap.span_for("name") == Span("t.dsx", 1, 1, len('"quoted"'))
        assert smap.span_for("metadata.title") == header
        # A header at offset 0 is still the fallback.
        smap = parse(fixture_text("production-machine.dsx")).source_map
        assert smap._offsets[""] == 0
        assert smap.span_for("access.roles[nobody]") == Span("<input>", 1, 1, len("connector"))

    def test_an_empty_map_gives_line_one_column_one(self):
        assert SourceMap("<model>").span_for("metadata.title") == Span("<model>", 1, 1, 0)
        model = parse(fixture_text("invalid/w204-expired.dsx")).model
        report = validate(model, today=FIXTURE_TODAY)
        assert [(d.code, d.span) for d in report.diagnostics] == [
            ("W204", Span("<model>", 1, 1, 0))
        ]


class TestOffsetMap:
    """The source map keeps one character offset per path and finds each
    token's length again when a span is read."""

    def test_each_recorded_span_is_the_span_of_the_token_at_its_offset(self):
        paths = 0
        for _, inputs in groups():  # fixtures, modelgen 0-599, mutations, capped inputs
            for file, source in inputs:
                smap = parse(source, file).source_map
                tokens = {t.offset: t for t in tokenize(source, file)[0]}
                offsets = smap._offsets
                assert smap.spans == {path: tokens[offset].span for path, offset in offsets.items()}
                paths += len(offsets)
        assert paths > 50_000

    def test_the_map_holds_no_token_and_no_container_the_collector_tracks(self):
        for source in [fixture_text(name) for name in FLAGSHIPS] + [_roles_file(100)]:
            smap = parse(source).source_map
            assert smap.spans and smap._at[0] > 0  # reading the spans moved the last position
            assert not gc.is_tracked(smap._offsets)
            assert type(smap._at) is tuple and [type(n) for n in smap._at] == [int] * 3
            assert all(type(mark) is tuple and len(mark) == 2 for mark in smap._marks)
            reachable = [smap.file, smap.source, smap._at, smap._marks, smap._offsets]
            for obj in reachable:
                reachable += gc.get_referents(obj)
            assert {type(obj) for obj in reachable} == {str, int, tuple, list, dict}

    def test_parse_keeps_few_bytes_per_role(self):
        # On CPython 3.11 a parse keeps ≈612 bytes per role (≈659 in some runs),
        # against ≈884 when the map held each path's token tuple.  The bound
        # leaves ≈24% headroom over 612.
        source = _roles_file(2048)
        parse(source)  # fills the caches built on first use
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = parse(source)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.model.access.roles) == 2050
        assert kept / 2048 < 760


class TestPositionsByCounting:
    """The map counts newlines from the position it was last asked or from a
    mark at most 1 KiB before the offset, so reads in any order take linear
    time, threads that share a map read true positions, and nothing is
    stored per line."""

    # Marks a few characters apart make the reads of short sources count
    # from marks too, and from the last position.
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 8))
    def test_spans_counted_from_close_marks_equal_a_naive_oracle(self, data, mark):
        pieces = st.lists(st.sampled_from(("\n", "\r\n", "a", "bc ")), max_size=80)
        source = data.draw(pieces.map("".join))
        offsets = data.draw(st.lists(st.integers(0, len(source)), max_size=20))
        smap = SourceMap("s.dsx", source)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser_module, "_MARK", mark)
            for offset in offsets:
                line, column = _naive_position(source, offset)
                assert smap.span(offset, 1) == Span("s.dsx", line, column, 1), offset

    def test_an_offset_past_the_end_lies_on_the_last_line(self):
        source = "a\n" * 2000 + "b"
        smap = SourceMap("s.dsx", source)
        for offset in (len(source) + 5000, 10, len(source) + 1, len(source) + 3000):
            assert smap.span(offset, 1) == Span("s.dsx", *_naive_position(source, offset), 1)

    def test_threads_sharing_a_map_read_the_positions_of_a_naive_oracle(self):
        source = "".join("x" * (1 + i * 7 % 40) + "\n" for i in range(20_000))
        offsets = range(0, len(source), 211)
        expected = [Span("t.dsx", *_naive_position(source, offset), 1) for offset in offsets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                smap = SourceMap("t.dsx", source)
                read = [None] * 4

                def read_all(index):
                    read[index] = [smap.span(offset, 1) for offset in offsets]

                threads = [threading.Thread(target=read_all, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert read == [expected] * 4, trial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("line", ["  x: 1\n", "// c\n"], ids=["field-lines", "comment-lines"])
    def test_a_late_finding_holds_no_table_of_lines(self, line):
        source = 'connector "c" {\n' + line * ((1 << 20) // len(line))
        parse(fixture_text("production-machine.dsx"))  # fills the caches built on first use
        tracemalloc.start()
        try:
            result = parse(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics[-1].span.line > 1
        assert peak < 4 << 20

    @pytest.mark.parametrize("unit", ["ab\n", "ab "], ids=["lines", "one-line"])
    @pytest.mark.parametrize("order", [1, -1], ids=["source-order", "reverse-order"])
    def test_every_token_span_reads_in_linear_time(self, unit, order):
        texts = [unit * (1 << 14), unit * (1 << 16)]
        tokens = [tokenize(text, "t.dsx")[0][::order] for text in texts]
        best = [float("inf"), float("inf")]
        # The collector is paused while timing: the spans promote enough
        # objects to start full collections of every object the test run
        # holds, which land in the larger text's runs more often.
        gc.disable()
        try:
            for _ in range(3):
                for index, text in enumerate(texts):
                    smap = SourceMap("t.dsx", text)
                    start = time.perf_counter()
                    spans = [smap.span(tok.offset, len(tok.lexeme)) for tok in tokens[index]]
                    best[index] = min(best[index], time.perf_counter() - start)
                    for tok, span in zip(tokens[index][:: 1 << 10], spans[:: 1 << 10]):
                        assert (span.line, span.column) == _naive_position(text, tok.offset)
        finally:
            gc.enable()
        assert best[1] / best[0] < 8

    # A repeated role name keeps its first place among the paths and the
    # offset of its later block, and the validator reports the duplicate
    # permissions of each role at that path: with the later blocks in the
    # order r0, r2, r4, ..., r5, r3, r1, both read r0, r1, r2, ... between
    # the two ends of the later half.
    def test_spans_and_findings_read_out_of_order_in_linear_time(self):
        role = "      role r{} {{\n        permissions: [READ, READ]\n      }}\n"
        results = []
        for count in (1 << 11, 1 << 13):
            later = [*range(0, count, 2), *reversed(range(1, count, 2))]
            roles = "".join(role.format(n) for n in [*range(count), *later])
            source = fixture_text("production-machine.dsx").replace(
                "    roles {\n", "    roles {\n" + roles
            )
            result = parse(source, "roles.dsx")
            assert not result.diagnostics
            results.append((source, result))
        best = [float("inf"), float("inf")]
        for _ in range(3):
            for index, (source, result) in enumerate(results):
                start = time.perf_counter()
                spans = result.source_map.spans
                findings = validate(result.model, result.source_map, today=FIXTURE_TODAY)
                best[index] = min(best[index], time.perf_counter() - start)
        offsets = result.source_map._offsets
        for path in list(spans)[::97]:
            assert (spans[path].line, spans[path].column) == _naive_position(source, offsets[path])
        assert len(findings.diagnostics) == 3 * count
        assert {d.span for d in findings.diagnostics} <= set(spans.values())
        assert best[1] / best[0] < 8


class TestTokensOnDemand:
    """The parser holds the lexer's tuples; only tokenize() builds Tokens."""

    def test_parse_builds_no_token_and_tokenize_wraps_the_lexer_tuples(self, monkeypatch):
        built = []
        init = Token.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Token, "__init__", counting_init)
        for name in FLAGSHIPS:
            assert parse(fixture_text(name), name).model is not None
        assert built == []
        for source, _, _ in LEX_CASES.values():
            lexed = []
            assert _lex(SourceMap("t.dsx", source), [], lexed, 0) == -1
            tokens, _ = tokenize(source, "t.dsx")
            assert [(t.kind, t.lexeme, t.value, t.offset) for t in tokens] == lexed
            assert len(built) == len(tokens)  # the count sees tokenize's Tokens
            built.clear()


class TestNoEnumCalls:
    """Parsing, validating, printing and generating call no code of enum.py."""

    def test_the_flagship_pipeline_makes_no_call_into_enum(self):
        calls = {"parse": [], "validate": [], "print": [], "generate": []}

        def traced(layer, step, *args):
            def hook(frame, event, arg):
                if event == "call" and frame.f_code.co_filename == enum.__file__:
                    calls[layer].append(frame.f_code.co_name)

            sys.setprofile(hook)
            try:
                return step(*args)
            finally:
                sys.setprofile(None)

        for name in FLAGSHIPS:
            result = traced("parse", parse, fixture_text(name), name)
            report = traced("validate", validate, result.model, result.source_map)
            traced("print", print_canonical, result.model)
            # Each flagship with every target it supports.
            targets = {t for t in Target if _unsupported(result.model, t) is None}
            assert targets
            traced("generate", generate_all, result.model, targets, report)
        assert calls == {"parse": [], "validate": [], "print": [], "generate": []}


def records(value):
    """Every record reachable from ``value``, ``value`` included."""
    if isinstance(value, Record):
        yield value
        for item in value.__getstate__():
            yield from records(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from records(item)


def assert_rows_hold(model):
    """Each record of a parsed model passes the checks its public constructor runs."""
    for record in records(model):
        if hasattr(record, "FIELDS"):
            model_module._check_fields(record)
        if hasattr(record, "_check"):
            record._check()


def _roles_file(count):
    role = "      role r{} {{\n        permissions: [READ]\n      }}\n"
    roles = "".join(role.format(n) for n in range(count))
    return fixture_text("production-machine.dsx").replace("    roles {\n", "    roles {\n" + roles)


class TestParsedRecords:
    """The parser builds its records without the constructors' row checks,
    because its binders have enforced every row: the premise, then the
    mechanism."""

    def test_every_parsed_record_keeps_its_rows(self):
        sources = [source for _, inputs in groups() for _, source in inputs]
        # Each list of a flagship emptied, which no golden mutation does in one step.
        for name in FLAGSHIPS:
            text = fixture_text(name)
            lists = re.finditer(r"\[[^\]\n]*\]", text)
            sources += [text[: m.start()] + "[]" + text[m.end() :] for m in lists]
        models = [model for source in sources if (model := parse(source).model) is not None]
        assert len(models) > 700  # the fixtures, modelgen[0:600] and the mutations that parse
        for model in models:
            assert_rows_hold(model)

    @settings(max_examples=100, deadline=None)
    @given(roundtrip_models)
    def test_every_record_of_a_printed_model_keeps_its_rows(self, model):
        assert_rows_hold(parse(print_canonical(model)).model)

    def test_parse_runs_no_row_check_and_a_public_constructor_runs_one(self):
        calls, names = [], []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is model_module._check_fields.__code__:
                calls.append(frame.f_code.co_name)
            elif event == "c_call" and getattr(arg, "__self__", None) is NAME_RE:
                names.append(arg.__name__)

        inputs = [(name, fixture_text(name)) for name in FLAGSHIPS] + [("r.dsx", _roles_file(1000))]
        sys.setprofile(hook)
        try:
            results = [parse(source, name) for name, source in inputs]
        finally:
            sys.setprofile(None)
        assert all(result.model is not None for result in results)
        assert len(results[-1].model.access.roles) == 1002
        assert calls == []
        # The parser matches each role name and the connector name once.
        assert names == ["fullmatch"] * sum(len(r.model.access.roles) + 1 for r in results)
        sys.setprofile(hook)
        try:
            QosMetrics(sampling_rate_ms=1, max_subscriptions=1)
        finally:
            sys.setprofile(None)
        assert calls == ["_check_fields"]

    def test_each_table_class_builds_parsed_records_from_its_constructors_code(self):
        assert len(TABLES) == 13
        for cls in TABLES:
            twin = cls._init_parsed
            assert twin is not cls.__init__ and twin.__code__ is cls.__init__.__code__
            assert twin.__kwdefaults__ == cls.__init__.__kwdefaults__


class TestParseBasics:
    def test_case_study_fixture(self):
        result = parse(fixture_text("production-machine.dsx"), "production-machine.dsx")
        assert result.diagnostics == ()
        model = result.model
        assert isinstance(model.usage.extension, EdcUsage)
        assert [role.role_name for role in model.access.roles] == ["operator", "partner"]
        assert model.access.contract_offers["validUntil"] == "2026-12-31"
        assert model.identification.identifier_type is IdentifierType.URN

    def test_empty_input(self):
        result = parse("", "empty.dsx")
        assert result.model is None
        assert codes(result) == ["E011"]
        assert "expected 'connector'" in result.diagnostics[0].message

    def test_duplicate_usage_block(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            "usage plain {",
            'usage edc {\n    dataAddress: "https://x.example/d"\n  }\n  usage plain {',
            1,
        )
        result = parse(text, "dup.dsx")
        assert result.model is None
        assert any(
            d.code == "E012" and d.message == "duplicate usage block" for d in result.diagnostics
        )

    def test_multiple_connectors_rejected(self):
        text = fixture_text("sensor-idlink.dsx")
        result = parse(text + "\n" + text, "multi.dsx")
        assert result.model is None
        assert "E013" in codes(result)

    def test_sections_accepted_in_any_order(self):
        text = fixture_text("sensor-idlink.dsx")
        lines = text.splitlines(keepends=True)
        # Swap the discovery and metadata sections wholesale.
        header, body, footer = lines[0], lines[1:-1], lines[-1]
        joined = "".join(body)
        discovery = joined[joined.index("  discovery") : joined.index("  metadata")]
        metadata = joined[joined.index("  metadata") : joined.index("  usage")]
        reordered = joined.replace(discovery + metadata, metadata + discovery)
        result = parse(header + reordered + footer, "reordered.dsx")
        assert result.diagnostics == ()
        assert result.model is not None

    def test_trailing_commas_allowed(self):
        text = fixture_text("machine-opcua.dsx").replace(
            "protocols: [OPC_TCP, MQTT]", "protocols: [OPC_TCP, MQTT,]"
        )
        result = parse(text, "trailing.dsx")
        assert result.diagnostics == ()


class TestParseErrors:
    @pytest.mark.parametrize(
        "name, old, new, key, value, tail",
        [
            ("machine-opcua.dsx", "[OPC_TCP, MQTT]", "[]", "protocols", (), "must not be empty"),
            ("production-machine.dsx", '"1.2.0"', '""', "version", "", "must be non-empty"),
            ("machine-opcua.dsx", "Ms: 250", "Ms: 0", "samplingRateMs", 0, "must be >= 1"),
        ],
    )
    def test_a_broken_row_rule_has_the_constructors_message_tail(
        self, name, old, new, key, value, tail
    ):
        result = parse(fixture_text(name).replace(old, new, 1), name)
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E014", f"field '{key}' {tail}")
        ]
        spec = next(row for rows in _ROWS.values() for row in rows.values() if row.key == key)
        with pytest.raises(ValueError) as raised:
            model_module._CHECKS[spec.kind](spec, value)
        assert str(raised.value) == f"{key} {tail}"

    def test_unknown_field_with_key_span(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            'endpoint: "products/flow-sensor"',
            'endpoint: "products/flow-sensor"\n    colour: "blue"',
        )
        result = parse(text, "unknown.dsx")
        assert result.model is None
        finding = next(d for d in result.diagnostics if d.code == "E010")
        assert "colour" in finding.message
        line = text.splitlines()[finding.span.line - 1]
        assert line[finding.span.column - 1 :].startswith("colour")

    def test_unknown_field_in_roles_block(self):
        text = fixture_text("production-machine.dsx").replace(
            "roles {\n", 'roles {\n      bogus: "x"\n', 1
        )
        result = parse(text, "roles.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E010", "unknown field 'bogus' in roles block")
        ]
        span = result.diagnostics[0].span
        line = text.splitlines()[span.line - 1]
        assert line[span.column - 1 :].startswith("bogus")
        assert span.length == len("bogus")

    def test_stray_line_in_contract_block_is_one_error(self):
        text = fixture_text("production-machine.dsx").replace(
            "contract {\n", 'contract {\n      bogus: "x"\n', 1
        )
        result = parse(text, "contract.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E003", "expected a quoted contract key or '}', got 'bogus'")
        ]

    def test_contract_recovery_stops_at_closing_brace(self):
        text = fixture_text("production-machine.dsx").replace(
            '"validUntil": "2026-12-31",\n    }', '"validUntil": "2026-12-31", bogus }', 1
        )
        result = parse(text, "contract.dsx")
        assert [d.code for d in result.diagnostics] == ["E003"]

    def test_contract_recovery_skips_braces_opened_on_the_line(self):
        text = fixture_text("production-machine.dsx").replace(
            "contract {\n", 'contract {\n      bogus { "a": 1 }\n', 1
        )
        result = parse(text, "contract.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E003", "expected a quoted contract key or '}', got 'bogus'")
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"k" "x",', "expected ':' after contract key"),
            ('"k": ]', "expected a value, got ']'"),
            ('"k": {', "expected a value, got '{'"),
        ],
    )
    def test_bad_contract_entry_is_one_error(self, line, message):
        # The entry on the next line is still read: it makes the fixture's own
        # "maxRetentionDays" a duplicate.
        text = fixture_text("production-machine.dsx").replace(
            "contract {\n", f'contract {{\n      {line}\n      "maxRetentionDays": 7,\n', 1
        )
        result = parse(text, "contract.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E003", message),
            ("E015", 'duplicate contract key "maxRetentionDays"'),
        ]

    def test_stray_line_in_field_block_is_one_error(self):
        text = fixture_text("production-machine.dsx").replace(
            "access {\n", 'access {\n    "k": "v",\n', 1
        )
        result = parse(text, "access.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E003", "expected a field name or '}' in access block, got string")
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('bogus "x"', "expected ':' after field name 'bogus'"),
            ('usagePolicy "https://a.example/p"', "expected ':' after field name 'usagePolicy'"),
            ("bogus: ]", "expected a value, got ']'"),
        ],
    )
    def test_bad_field_entry_is_one_error(self, line, message):
        text = fixture_text("production-machine.dsx").replace(
            "access {\n", f"access {{\n    {line}\n", 1
        )
        result = parse(text, "access.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [("E003", message)]

    @pytest.mark.parametrize("end", ["", ":"])
    def test_list_that_lost_its_bracket_stops_at_the_next_line(self, end):
        # Without the ']' the list used to swallow the rest of the metadata
        # block: 14 and 15 diagnostics, one E011 per later required field.
        uri = '"https://admin-shell.io/idta/machinery/1/0/MachineryData"'
        text = fixture_text("production-machine.dsx").replace(f"[{uri}]", f"[{uri}{end}", 1)
        result = parse(text, "list.dsx")
        assert result.model is None
        assert ("E003", "unterminated list (missing ']')") in [
            (d.code, d.message) for d in result.diagnostics
        ]
        assert len(result.diagnostics) <= 4

    def test_end_of_input_inside_a_skipped_unknown_block(self):
        text = 'connector "x" {\n  discovery {\n    qos {\n      samplingRateMs: 1\n'
        result = parse(text, "eof.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics][-3:] == [
            ("E010", "unknown block 'qos' in discovery block"),
            ("E003", "unexpected end of file inside discovery block"),
            ("E003", "unexpected end of file inside connector block"),
        ]

    def test_list_over_two_lines_ends_at_its_bracket_after_a_bad_item(self):
        text = fixture_text("production-machine.dsx").replace(
            "permissions: [READ, WRITE, SUBSCRIBE]",
            "permissions: [READ, :\n          WRITE, SUBSCRIBE]",
            1,
        )
        result = parse(text, "list.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E003", "expected a value, got ':'")
        ]

    def test_missing_required_field_named(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            '    baseUrl: "https://id.sensorworks.example"\n', ""
        )
        result = parse(text, "missing.dsx")
        assert result.model is None
        finding = next(d for d in result.diagnostics if d.code == "E011")
        assert "baseUrl" in finding.message

    def test_invalid_enum_value(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            "identifierType: SIDI", "identifierType: SERIAL"
        )
        result = parse(text, "badenum.dsx")
        assert result.model is None
        finding = next(d for d in result.diagnostics if d.code == "E014")
        assert "SERIAL" in finding.message and "SIDI" in finding.message

    def test_invalid_calendar_date(self):
        text = fixture_text("sensor-idlink.dsx").replace("2025-01-15", "2025-13-40")
        result = parse(text, "baddate.dsx")
        assert result.model is None
        assert any(d.code == "E014" for d in result.diagnostics)

    def test_duplicate_field(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            'title: "Flow sensor calibration records"',
            'title: "Flow sensor calibration records"\n    title: "again"',
        )
        result = parse(text, "dupfield.dsx")
        assert result.model is None
        assert any(d.code == "E015" for d in result.diagnostics)

    def test_duplicate_contract_key(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            '"region": "EU",', '"region": "EU",\n      "region": "US",'
        )
        result = parse(text, "dupkey.dsx")
        assert any(d.code == "E015" for d in result.diagnostics)

    def test_recovery_reports_multiple_errors(self):
        text = fixture_text("sensor-idlink.dsx")
        broken = text.replace("identifierType: SIDI", "identifierType: SERIAL").replace(
            'language: "de"', 'language: 42'
        )
        result = parse(broken, "two-errors.dsx")
        assert result.model is None
        assert len(errors(result)) == 2

    def test_error_budget_caps_at_e099(self):
        for source in ("?" * 500, "@" * 5000, "@\n" * 5000):
            result = parse(source, "spam.dsx")
            assert len(result.diagnostics) == 100
            assert result.diagnostics[-1].code == "E099"
            assert result.model is None

    def test_parser_error_budget_caps_at_e099(self):
        lines = "".join(f'    bogus{i} "x"\n' for i in range(150))
        text = fixture_text("production-machine.dsx").replace("access {\n", "access {\n" + lines)
        result = parse(text, "spam.dsx")
        assert tokenize(text)[1] == []  # every diagnostic comes from the parser
        assert len(result.diagnostics) == 100
        assert result.diagnostics[-1].code == "E099"
        assert result.model is None

    def test_duplicate_block_is_one_error(self):
        text = fixture_text("production-machine.dsx")
        oauth = text[text.index("    oauth {") : text.index("  }\n}")]
        text = text.replace(oauth, oauth + oauth)
        result = parse(text, "dupblock.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E015", "duplicate oauth block")
        ]
        second = text.rindex("    oauth {")
        span = result.diagnostics[0].span
        assert (span.line, span.column) == (text.count("\n", 0, second) + 1, 5)

    def test_invalid_calendar_date_in_contract_is_one_error(self):
        text = fixture_text("production-machine.dsx").replace(
            '"validUntil": "2026-12-31",', '"validUntil": "2026-12-31",\n      "bad": 2025-02-30,'
        )
        result = parse(text, "baddate.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E014", "invalid calendar date '2025-02-30'")
        ]

    def test_missing_value(self):
        result = parse('connector "x" {\n  discovery {\n    baseUrl:\n  }\n}', "novalue.dsx")
        assert result.model is None
        assert any(d.code == "E003" for d in result.diagnostics)

    def test_control_character_in_string(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            'title: "Flow sensor calibration records"', 'title: "tab\there"'
        )
        result = parse(text, "ctrl.dsx")
        assert result.model is None
        finding = next(d for d in result.diagnostics if d.code == "E002")
        assert "control character" in finding.message

    def test_role_name_must_match_identifier_pattern(self):
        text = fixture_text("production-machine.dsx").replace("role partner {", "role _x {")
        result = parse(text, "badrole.dsx")
        assert result.model is None
        finding = next(d for d in result.diagnostics if d.code == "E014")
        assert "_x" in finding.message

    def test_leading_bom_is_tolerated(self):
        result = parse("﻿" + fixture_text("sensor-idlink.dsx"), "bom.dsx")
        assert result.diagnostics == ()

    def test_binding_alone_can_fill_the_budget(self):
        roles = "".join(f"      role r{i:03d} {{ permissions: [NOPE] }}\n" for i in range(150))
        text = fixture_text("production-machine.dsx").replace(
            "    roles {\n", "    roles {\n" + roles, 1
        )
        result = parse(text, "spam.dsx")
        assert tokenize(text)[1] == []
        assert len(result.diagnostics) == 100
        assert {d.code for d in result.diagnostics[:-1]} == {"E014"}
        assert result.diagnostics[-1].code == "E099"
        assert result.model is None

    # The cascade of findings after one mutation of a flagship: 284 of the
    # 1890 inputs get four or more, at most 11, with E011 and E003 leading
    # that tail.  Cascade suppression lowers both bounds.
    def test_one_mutation_reports_a_bounded_cascade(self):
        counts = [
            len(parse(source, file).diagnostics)
            for name, inputs in groups()
            if ":" in name and not name.startswith("modelgen[")
            for file, source in inputs
        ]
        assert len(counts) == 1890
        assert sum(count >= 4 for count in counts) <= 284
        assert max(counts) <= 11


_FLAGSHIP_CONTRACT = '      "maxRetentionDays": 30,\n      "validUntil": "2026-12-31",\n'
_DATE_MESSAGE = "invalid calendar date '{}'"
_VALUE_MESSAGE = "contract values must be a string, integer, date, or boolean"


def _contract_entries(body):
    """The EDC flagship with its contract entries replaced by ``body``, and
    the line number of the body's first line."""
    text = fixture_text("production-machine.dsx")
    assert _FLAGSHIP_CONTRACT in text
    text = text.replace(_FLAGSHIP_CONTRACT, body, 1)
    return text, text.count("\n", 0, text.index("contract {")) + 2


def _contract_spans(result):
    """Each recorded contract path's line, column and length."""
    return {
        path: (span.line, span.column, span.length)
        for path, span in result.source_map.spans.items()
        if path.startswith("access.contract")
    }


class TestContractEntries:
    """Each contract entry's diagnostics, in order, with their spans, and the
    source-map path of each entry that binds: at its value, not its key."""

    def check(self, body, diagnostics, spans):
        # ``diagnostics`` and ``spans`` give lines relative to the body's first.
        text, first = _contract_entries(body)
        result = parse(text, "contract.dsx")
        assert [
            (d.code, d.message, d.span.line - first, d.span.column, d.span.length)
            for d in result.diagnostics
        ] == diagnostics
        contract_line = first - 1
        assert _contract_spans(result) == {
            "access.contract": (contract_line, 5, len("contract")),
            **{
                f"access.contract.{key}": (first + line, column, length)
                for key, (line, column, length) in spans.items()
            },
        }
        return result

    def test_an_invalid_calendar_date_is_reported_and_not_recorded(self):
        body = '      "a": 1,\n      "bad": 2025-02-30,\n      "b": "x"\n'
        result = self.check(
            body,
            [("E014", _DATE_MESSAGE.format("2025-02-30"), 1, 14, 10)],
            {"a": (0, 12, 1), "b": (2, 12, 3)},
        )
        assert result.model is None

    def test_an_identifier_value_is_reported_and_not_recorded(self):
        body = '      "a": 1,\n      "id": bogus,\n      "b": 2\n'
        result = self.check(
            body, [("E014", _VALUE_MESSAGE, 1, 13, 5)], {"a": (0, 12, 1), "b": (2, 12, 1)}
        )
        assert result.model is None

    def test_an_entry_without_a_comma_is_followed_by_the_next(self):
        body = '      "a": 1 "b": "x"\n      "c": 2025-01-02\n      "d": true,\n'
        result = self.check(
            body,
            [],
            {"a": (0, 12, 1), "b": (0, 19, 3), "c": (1, 12, 10), "d": (2, 12, 4)},
        )
        assert result.model.access.contract_offers == {
            "a": 1,
            "b": "x",
            "c": date(2025, 1, 2),
            "d": True,
        }

    def test_a_key_repeated_after_a_bad_value_is_a_duplicate(self):
        # A bad date is reported, and its key is still taken, so a later
        # entry with that key is a duplicate; a duplicate's value is not
        # checked for form.  Findings are presented in source order.
        body = (
            '      "k": 2025-02-30,\n'
            '      "k": 1,\n'
            '      "j": x,\n'
            '      "j": 2025-02-31,\n'
            '      "k": y,\n'
            '      "i": 3,\n'
        )
        result = self.check(
            body,
            [
                ("E014", _DATE_MESSAGE.format("2025-02-30"), 0, 12, 10),
                ("E015", 'duplicate contract key "k"', 1, 7, 3),
                ("E014", _VALUE_MESSAGE, 2, 12, 1),
                ("E015", 'duplicate contract key "j"', 3, 7, 3),
                ("E014", _DATE_MESSAGE.format("2025-02-31"), 3, 12, 10),
                ("E015", 'duplicate contract key "k"', 4, 7, 3),
            ],
            {"i": (5, 12, 1)},
        )
        assert result.model is None

    def test_a_bad_date_counts_toward_the_cap_before_its_duplicate_key(self):
        # The parser stops at its MAX_DIAGNOSTICS-th finding, so the E099
        # lands where the last finding counted lies: at the date of the
        # entry whose date and key are both bad.
        bad = "".join(f'      "x{n}": bogus,\n' for n in range(99))
        body = '      "k": 1,\n' + bad + '      "k": 2025-02-30,\n'
        text, first = _contract_entries(body)
        result = parse(text, "contract.dsx")
        assert [d.code for d in result.diagnostics] == ["E014"] * 99 + ["E099"]
        span = result.diagnostics[-1].span
        assert (span.line - first, span.column, span.length) == (100, 12, 10)

    def test_parsing_makes_no_python_call_per_entry(self):
        forms = ("{}", '"s{}"', "2025-01-{:02d}", "true")

        def calls(count):
            body = "".join(
                f'      "key-{n:05d}": {forms[n % 4].format(1 + n % 28)},\n' for n in range(count)
            )
            names = []

            def hook(frame, event, arg):
                if event == "call" and frame.f_code.co_filename == parser_module.__file__:
                    names.append(frame.f_code.co_name)

            text, _ = _contract_entries(body)
            sys.setprofile(hook)
            try:
                result = parse(text, "contract.dsx")
            finally:
                sys.setprofile(None)
            assert len(result.model.access.contract_offers) == count
            windowed = [name for name in names if name in ("_lex", "refill")]
            return Counter(names) - Counter(windowed), len(windowed)

        calls(1)  # fills the tables that the first parse caches
        (few, few_windows), (many, many_windows) = calls(500), calls(2000)
        assert many_windows > few_windows  # only the lexer's windows grow
        assert few == many


# An unbound body: a wrong-typed value, an unknown key and a key with no value.
_UNBOUND_BODY = '{pad}{typed}\n{pad}bogus: "x"\n{pad}{empty}:\n'
_NO_VALUE = ("E003", "expected a value, got '}'")


class TestUnboundBlocks:
    """Blocks the parser never binds report only syntax errors and record no path."""

    # Each case replaces text of the fixture: the block it inserts, or the
    # block it becomes, is unbound.
    CASES = {
        "second-metadata-section": (
            "  usage plain {\n",
            "  metadata {\n"
            + _UNBOUND_BODY.format(pad="    ", typed="title: 42", empty="version")
            + "  }\n  usage plain {\n",
            [("E012", "duplicate metadata block"), _NO_VALUE],
        ),
        "second-identity-block": (
            "  }\n}\n",
            "    identity {\n"
            + _UNBOUND_BODY.format(pad="      ", typed="endpoint: 42", empty="clientId")
            + "    }\n  }\n}\n",
            [("E015", "duplicate identity block"), _NO_VALUE],
        ),
        "usage-without-variant": (
            '  usage plain {\n    dataAddress: "https://api.sensorworks.example/calibration"\n',
            "  usage {\n"
            + _UNBOUND_BODY.format(pad="    ", typed="dataAddress: 42", empty="schemaAddress"),
            [("E003", "expected usage variant 'edc', 'opcua', or 'plain'"), _NO_VALUE],
        ),
        "push-block-in-plain-usage": (
            "  }\n  access {\n",
            "    push {\n"
            + _UNBOUND_BODY.format(pad="      ", typed="callbackUrl: 42", empty="cloudPush")
            + "    }\n  }\n  access {\n",
            [("E010", "unknown block 'push' in plain usage block"), _NO_VALUE],
        ),
        "invalid-role-name": (
            "      role partner {\n        permissions: [READ, SUBSCRIBE]\n",
            "      role _x {\n"
            + _UNBOUND_BODY.format(pad="        ", typed="permissions: 42", empty="scope"),
            [("E014", "invalid role name '_x'"), _NO_VALUE],
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_an_unbound_body_reports_only_syntax_errors(self, case):
        old, new, expected = self.CASES[case]
        text = fixture_text("sensor-idlink.dsx")
        assert text.count(old) == 1
        text = text.replace(old, new)
        result = parse(text, "unbound.dsx")
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == expected
        block = new.removesuffix(old)
        first = text.count("\n", 0, text.index(block)) + 1
        body = range(first, first + block.count("\n"))
        recorded = result.source_map.spans
        assert recorded and not [path for path, s in recorded.items() if s.line in body]


class TestParseProperties:
    def test_determinism(self):
        text = fixture_text("production-machine.dsx") + "\n?"
        first = parse(text, "a.dsx")
        second = parse(text, "a.dsx")
        assert first.diagnostics == second.diagnostics
        assert first.model == second.model
        assert first == second  # the source maps too

    def test_diagnostics_in_source_order(self):
        text = fixture_text("sensor-idlink.dsx").replace(
            "identifierType: SIDI", "identifierType: SERIAL"
        ).replace('language: "de"', "language: 42")
        result = parse(text, "ordered.dsx")
        positions = [d.span.sort_key() for d in result.diagnostics]
        assert positions == sorted(positions)

    def test_contract_keys_parse_in_linear_time(self):
        # Linear parsing makes 4x the keys take about 4x the time; a
        # quadratic duplicate-key check takes about 16x.
        def source(n):
            entries = "".join(f'      "key-{i:05d}": {i},\n' for i in range(n))
            return fixture_text("production-machine.dsx").replace(
                "    contract {\n", "    contract {\n" + entries, 1
            )

        texts = [source(2000), source(8000)]
        best = [float("inf"), float("inf")]
        for _ in range(3):
            for index, text in enumerate(texts):
                start = time.perf_counter()
                result = parse(text, "contract.dsx")
                best[index] = min(best[index], time.perf_counter() - start)
                assert result.model is not None
        assert best[1] / best[0] < 8

    def test_roles_parse_in_linear_time(self):
        def source(n):
            entries = "".join(f"      role r{i} {{ permissions: [READ] }}\n" for i in range(n))
            return fixture_text("production-machine.dsx").replace(
                "    roles {\n", "    roles {\n" + entries, 1
            )

        texts = [source(1000), source(4000)]
        best = [float("inf"), float("inf")]
        for _ in range(3):
            for index, text in enumerate(texts):
                start = time.perf_counter()
                result = parse(text, "roles.dsx")
                best[index] = min(best[index], time.perf_counter() - start)
                assert result.model is not None
        assert best[1] / best[0] < 8

    # Valid tokens and comments, each a match of its own, are lexed to the
    # end of the file in time linear in its length: the valid tokens follow a
    # connector header, so the connector loop's recovery reads them all, and
    # comments hold no token, so the parser's first read lexes them all.  Each
    # file's last finding lies at its end.  A flood of illegal characters
    # stops at the end of the window that fills the cap, so its time does not
    # grow with its length at all.
    @pytest.mark.parametrize(
        "head, unit, to_end",
        [("", "@", False), ('connector "c" {\n', "a ", True), ("", "//c\n", True)],
        ids=["error-flood", "valid-token-flood", "comment-flood"],
    )
    def test_one_line_floods_parse_in_linear_time(self, head, unit, to_end):
        texts = [head + unit * 20000, head + unit * 80000]
        best = [float("inf"), float("inf")]
        for _ in range(3):
            for index, text in enumerate(texts):
                start = time.perf_counter()
                result = parse(text, "flood.dsx")
                best[index] = min(best[index], time.perf_counter() - start)
                assert result.model is None
                last = result.diagnostics[-1].span
                end = (text.count("\n") + 1, len(text) - text.rfind("\n"))
                assert ((last.line, last.column) == end) == to_end
        assert best[1] / best[0] < 8

    def test_parse_result_compares_by_value_and_does_not_hash(self):
        text = fixture_text("production-machine.dsx")
        first, second = parse(text, "a.dsx"), parse(text, "a.dsx")
        assert first is not second and first == second
        with pytest.raises(TypeError, match="unhashable type: 'SourceMap'"):
            hash(first)

    def test_a_source_map_is_unequal_to_a_string(self):
        smap = SourceMap("t.dsx", "connector")
        for other in ("t.dsx", "connector"):
            assert (smap == other) is False and (other == smap) is False
            assert (smap != other) is True and (other != smap) is True

    @pytest.mark.parametrize("name", FLAGSHIPS)
    def test_every_prefix_parses_within_bounds(self, name):
        # Each cut ends the token stream at a different point of the entry
        # parsers, so none of them may read past EOF.
        text = fixture_text(name)
        for end in range(len(text) + 1):
            result = parse(text[:end], name)
            for d in result.diagnostics:
                assert d.span.line >= 1 and d.span.column >= 1, (end, d)
            has_errors = any(d.severity is Severity.ERROR for d in result.diagnostics)
            assert (result.model is None) == has_errors, end

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "connector",
            'connector "x"',
            'connector "x" {',
            'connector "x" { discovery }',
            "}}}{{{",
            'connector "x" { usage edc { push { } } }',
            '// only a comment',
            'connector "x" { discovery { a: [1, } }',
            pytest.param("x: " + "1" * 5000, id="integer-of-5000-digits"),
        ],
    )
    def test_span_soundness_and_exclusivity(self, source):
        result = parse(source, "bad.dsx")
        line_count = source.count("\n") + 1
        for d in result.diagnostics:
            assert 1 <= d.span.line <= line_count + 1
            assert d.span.column >= 1
        has_errors = any(d.severity is Severity.ERROR for d in result.diagnostics)
        assert (result.model is None) == has_errors

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=300))
    def test_fuzz_text_never_crashes(self, source):
        result = parse(source, "fuzz.dsx")
        has_errors = any(d.severity is Severity.ERROR for d in result.diagnostics)
        assert (result.model is None) == has_errors
        assert len(result.diagnostics) <= 100

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_fuzz_bytes_never_crash(self, blob):
        result = parse(blob.decode("utf-8", errors="replace"), "fuzz.dsx")
        assert result.diagnostics is not None


def _windowed(window, source, file="w.dsx"):
    """What parse and tokenize return for a source lexed in windows of
    ``window`` characters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_module, "_WINDOW", window)
        tokens, lexical = tokenize(source, file)
        return parse(source, file), [(t.kind, t.lexeme, t.value, t.offset) for t in tokens], lexical


# A flagship with its header misspelt and 120 runs of 400 comment lines and
# an '@' line after it: the parser stops at its first token, so no later
# window is lexed and no '@' is reported.
_LATE_ERRORS = fixture_text("production-machine.dsx").replace("connector", "connectr", 1) + (
    "// comment\n" * 400 + "@\n"
) * 120

# A token longer than a window and a flood after it on its line.
_LONG_TOKEN_FLOODS = {
    "long-word-error-flood": "x" * 20000 + " " + "@" * (1 << 20),
    "long-string-brace-flood": '"' + "s" * 20000 + '" ' + "{" * (1 << 20),
    "long-blanks-error-flood": "x" + " " * 20000 + "@" * (1 << 20),
    "long-digits-error-flood": "7" * 20000 + " " + "@" * (1 << 20),
}

# The cap reached with lexical errors after the connector block: the lexer
# alone fills it after the parser has bound the whole connector, or the
# parser's findings and the later lexical ones reach it together, exactly
# or with findings to spare.
_CAP_CASES = {
    "lexer-fills-late": fixture_text("production-machine.dsx") + ("// c\n" * 400 + "@\n") * 120,
    **{
        f"parser-{n}-lexer-50": fixture_text("production-machine.dsx").replace(
            "access {\n", "access {\n" + "".join(f'    bogus{i} "x"\n' for i in range(n))
        )
        + ("// c\n" * 400 + "@\n") * 50
        for n in (50, 60)
    },
}

# Pieces of the long lines the window property writes: dates and env
# references, which fall back to several shorter tokens when a window cuts
# them short, the other token kinds, errors and blanks.
_LINE_PIECES = (
    "2025-01-01", "2025-01-0", "2025-", "env(ABC_D)", "env(", "ABC_D)", "-01", "12", "x-y",
    '"s t"', '"a\\"b"', '"open', "@", "$", "{", "}", "[", "]", ":", ",", "// c", " ", "\t",
    "READ", "role", "true",
)
_VALUES = st.one_of(
    st.dates(date(2000, 1, 1), date(2099, 12, 31)).map(date.isoformat),
    st.integers(-99999, 99999).map(str),
    st.sampled_from(['"v"', "true", "env(ABC)", "2025-02-30"]),
)
_PIECE_RUNS = st.lists(st.sampled_from(_LINE_PIECES), min_size=20, max_size=120).map("".join)
# Tokens longer than a 64-character window, which a window holds alone.
_LONG_TOKENS = st.integers(65, 200).flatmap(
    lambda n: st.sampled_from(["x" * n, '"' + "s" * n + '"', "7" * n, " " * n])
)
_LONG_LINES = st.one_of(
    _PIECE_RUNS,
    st.integers(1, 150).map(lambda n: "@\n" * n),
    st.integers(1, 150).map(lambda n: "@" * n),
    st.integers(1, 30).map(lambda n: "  // a comment line\n" * n),
    st.integers(30, 300).map(lambda n: '    title: "' + "ab " * n + '"'),
    st.integers(65, 400).map(lambda n: "    " + "x" * n + ": 1"),
    st.tuples(_LONG_TOKENS, _PIECE_RUNS).map("".join),
)


@st.composite
def windowed_files(draw):
    """A flagship that crosses many 64-character windows: long contract,
    list and string lines in place of its own, other long lines, errors
    spread over it and past the cap, runs of comment lines that fill whole
    windows, and content after its connector block."""
    text = fixture_text(draw(st.sampled_from(FLAGSHIPS)))
    if draw(st.booleans()):
        text = text.replace("connector", "connectr", 1)
    separator = draw(st.sampled_from([" ", ""]))
    values = draw(st.lists(_VALUES, min_size=1, max_size=40))
    entries = separator.join(f'"k{i}": {value},' for i, value in enumerate(values))
    text = text.replace('"maxRetentionDays": 30,', entries)
    count = draw(st.integers(1, 40))
    text = text.replace("permissions: [READ]", f"permissions: [{', '.join(['READ'] * count)}]")
    text = text.replace("semanticIds: [", "semanticIds: [" + '"https://a.example/i", ' * count)
    lines = text.split("\n")
    for index, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), _LONG_LINES), max_size=8)):
        lines.insert(index, line)
    return "\n".join(lines) + draw(st.one_of(st.just(""), _LONG_LINES))


class TestLexerWindows:
    """A parse lexes the file one window at a time and drops the tokens it
    has read; no output depends on where a window ends."""

    def test_every_golden_input_parses_alike_in_any_window(self):
        inputs = [item for _, group in groups() for item in group]  # capped inputs last
        inputs += [("late.dsx", _LATE_ERRORS)] + [(f"{k}.dsx", v) for k, v in _CAP_CASES.items()]
        inputs += [(f"{name}.dsx", case[0]) for name, case in LEX_CASES.items()]
        assert len(inputs) > 2500
        for file, source in inputs:
            assert _windowed(64, source, file) == _windowed(1 << 30, source, file), file

    def test_a_parser_stopped_at_its_first_token_lexes_no_later_window(self, monkeypatch):
        windows = []
        lex = parser_module._lex

        def counting_lex(smap, sink, tokens, start):
            windows.append(start)
            return lex(smap, sink, tokens, start)

        monkeypatch.setattr(parser_module, "_lex", counting_lex)
        result = parse(_LATE_ERRORS, "late.dsx")
        assert result.diagnostics == (
            Diagnostic("E011", "expected 'connector'", Span("late.dsx", 1, 1, 8)),
        )
        assert len(_LATE_ERRORS) > 30 * parser_module._WINDOW
        assert len(windows) <= 2

    # A window that cuts a line falls back to shorter tokens inside a date or
    # an env reference; shifting the line moves every cut across each of them.
    @pytest.mark.parametrize(
        "entry", ['"k": 2025-01-01,', "s: env(ABC_DEF)"], ids=["date", "env-reference"]
    )
    def test_a_cut_inside_any_token_lexes_alike(self, entry):
        for shift in range(len(entry) + 1):
            source = " " * shift + entry * 20
            assert _windowed(64, source) == _windowed(1 << 30, source), shift

    @pytest.mark.parametrize("name", _CAP_CASES)
    def test_the_cap_keeps_the_first_findings_in_source_order(self, name):
        source = _CAP_CASES[name]
        windowed = _windowed(64, source)
        assert windowed == _windowed(1 << 30, source)
        result, _, lexical = windowed
        head = parse(source[: source.index("// c\n")], "w.dsx")  # the connector alone
        findings = sorted([*head.diagnostics, *lexical], key=lambda d: d.span.sort_key())
        assert len(findings) >= 100
        cap = Diagnostic("E099", "too many errors", findings[99].span)
        assert result.diagnostics == (*findings[:99], cap)
        assert result.source_map == head.source_map  # the parser stopped at the end

    @settings(max_examples=150, deadline=None)
    @given(windowed_files())
    def test_large_files_parse_alike_in_any_window(self, source):
        assert _windowed(64, source) == _windowed(1 << 30, source)

    # Traced peak minus what the result keeps, per input byte, on CPython
    # 3.11: ≈1.5 for the 4096-role file, ≈1.0 for 1 MiB of '@', ≈2.3 for
    # 1 MiB of '{' and ≈1.1 to ≈2.2 for a token longer than a window before a
    # flood on its line, where a parse that built the whole token list first
    # peaked ≈24, ≈80 and ≈152 bytes per byte above what it kept, and one
    # whose window ran on to the end of that line ≈78 to ≈150.
    @pytest.mark.parametrize(
        "source",
        [_roles_file(4096), "@" * (1 << 20), "{" * (1 << 20), *_LONG_TOKEN_FLOODS.values()],
        ids=["4096-roles", "error-flood", "brace-flood", *_LONG_TOKEN_FLOODS],
    )
    def test_a_parse_holds_about_one_window_beyond_what_it_keeps(self, source):
        parse(fixture_text("production-machine.dsx"))  # fills the caches built on first use
        tracemalloc.start()
        try:
            result = parse(source)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.model is None) == (source[0] != "c")
        assert (peak - kept) / len(source) < 4

    # A stand-in for the lexer's pattern records how many characters each
    # findall covers; a token longer than a window is matched alone.
    @pytest.mark.parametrize(
        "window, sources",
        [
            (
                parser_module._WINDOW,
                [
                    *_LONG_TOKEN_FLOODS.values(),
                    _roles_file(4096),
                    'connector "c" {\n  metadata {\n    title: "' + "s" * (1 << 20) + '"\n  }\n}\n',
                ],
            ),
            (64, [fixture_text(name) for name in FLAGSHIPS]),
        ],
        ids=["default-window", "64-character-window"],
    )
    def test_no_findall_covers_more_than_one_window(self, monkeypatch, window, sources):
        covered = []
        pattern = parser_module._TOKEN_RE

        def findall(source, start, end):
            covered.append(min(end, len(source)) - start)
            return pattern.findall(source, start, end)

        stand_in = SimpleNamespace(findall=findall, match=pattern.match)
        monkeypatch.setattr(parser_module, "_TOKEN_RE", stand_in)
        monkeypatch.setattr(parser_module, "_WINDOW", window)
        for source in sources:
            covered.clear()
            parse(source)
            tokenize(source)
            assert 0 < max(covered) <= window

    def test_an_error_flood_stops_lexing_at_the_cap(self):
        source = "@" * (1 << 20)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            result = parse(source, "flood.dsx")
            best = min(best, time.perf_counter() - start)
        illegal = [
            Diagnostic("E002", "illegal character '@'", Span("flood.dsx", 1, column, 1))
            for column in range(1, 100)
        ]
        cap = Diagnostic("E099", "too many errors", Span("flood.dsx", 1, 100, 1))
        assert result.diagnostics == (*illegal, cap)
        assert best < 0.020

    # The lexer reports control characters up to its cap and builds no
    # finding past it; what is left of the closed string is decoding its value.
    @pytest.mark.parametrize(
        "source, line, column, bound",
        [
            ('"' + "\x01" * (1 << 20), 1, 2, 0.020),
            (
                'connector "c" {\n  metadata {\n    title: "' + "\x01" * (1 << 20) + '"\n  }\n}\n',
                3,
                13,
                0.25,
            ),
        ],
        ids=["unterminated", "closed-title"],
    )
    def test_a_control_character_flood_stops_lexing_at_the_cap(self, source, line, column, bound):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            result = parse(source, "flood.dsx")
            best = min(best, time.perf_counter() - start)
        message = "control character in string literal"
        control = [
            Diagnostic("E002", message, Span("flood.dsx", line, first, 1))
            for first in range(column, column + 99)
        ]
        cap = Diagnostic("E099", "too many errors", Span("flood.dsx", line, column + 99, 1))
        assert result.diagnostics == (*control, cap)
        assert best < bound

    # The lexer builds a span for each finding up to the cap, and the E001 of
    # an unterminated string or the parser's own finding at most one or two
    # more; none for a control character past the cap.
    @pytest.mark.parametrize("size", [10**3, 10**5])
    @pytest.mark.parametrize("close", ["", '"'], ids=["unterminated", "closed"])
    def test_no_span_is_built_past_the_cap(self, monkeypatch, size, close):
        calls = []
        span = SourceMap.span

        def counting_span(self, offset, length):
            calls.append(offset)
            return span(self, offset, length)

        monkeypatch.setattr(SourceMap, "span", counting_span)
        source = '"' + "\x01" * size + close
        for read in (tokenize, parse):
            calls.clear()
            read(source)
            assert len(calls) <= parser_module.MAX_DIAGNOSTICS + 2, read.__name__

    # A parser that stops at its first token, or at the EOF that the lexer's
    # cap placed, leaves every later window unlexed, and its findings count
    # lines only as far as they lie.
    @pytest.mark.parametrize(
        "source",
        ["{" * (1 << 20), "x\n" + "@\n" * (1 << 19), "@\n" * (1 << 19), "x: 1\n" * (1 << 18)],
        ids=["brace-flood", "error-lines-after-a-word", "error-lines", "field-lines"],
    )
    def test_a_parse_stops_lexing_where_the_parser_stops(self, source):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            result = parse(source, "flood.dsx")
            best = min(best, time.perf_counter() - start)
        if source[0] == "@":
            illegal = [
                Diagnostic("E002", "illegal character '@'", Span("flood.dsx", line, 1, 1))
                for line in range(1, 100)
            ]
            cap = Diagnostic("E099", "too many errors", Span("flood.dsx", 100, 1, 1))
            assert result.diagnostics == (*illegal, cap)
        else:
            expected = Diagnostic("E011", "expected 'connector'", Span("flood.dsx", 1, 1, 1))
            assert result.diagnostics == (expected,)
        assert best < 0.020
        tracemalloc.start()
        try:
            result = parse(source)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - kept) / len(source) < 4
