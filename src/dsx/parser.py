"""Tokenizer and parser for ``.dsx`` connector description files.

The surface syntax is block-structured::

    connector "name" {
      discovery { ... }
      metadata { ... }
      usage edc|opcua|plain { ... }
      access { ... }
    }

The lexer runs ``findall`` of a compiled regex over one window of at most
16 KiB of the file at a time, or matches a token longer than a window
alone; the parser asks for the next window as it reads, and drops the
tokens it has read.  Each match is one token with the blanks before it and
any punctuation mark after it on the same line, which becomes a token of its
own.  A ``//`` comment is a match of its own, which the lexer drops.  Inside
the parser a token is a plain tuple ``(kind, lexeme, value, offset)``: its
decoded value, dates included (``None`` for an impossible calendar date such
as ``2025-02-30``), and its character offset.  A list value has the same
shape, ``(LBRACKET, "[", items, offset of the '[')``.  One
:class:`SourceMap` per file holds its name and text, and works out line and
column only when a diagnostic or a reader asks, counting newlines from the
offset it was last asked or from a mark at most 1 KiB before the offset.
:func:`tokenize` wraps each tuple in a :class:`Token`, which works out its
``line``, ``column`` and ``span`` from that map on each read.

The parser walks the tokens once and binds each block as it parses it:
each ``key: value`` field, contract entry and role is checked against its
class's rows as soon as its value is read, the row found by key in a table
built at import, and a missing required field is reported when the block
closes.  A block the model has no place for, such as a second section or
sub-block, a usage block without its variant or a block that its variant
lacks, or the body of a role whose name is invalid, is parsed unbound: it
reports only syntax errors and records no path.

``parse`` never raises on malformed input: every problem becomes a
:class:`~dsx.model.Diagnostic` and the parser resynchronizes at block
boundaries so several errors can be reported per run.  A model is only
returned when the file produced zero errors.

Alongside the model, ``parse`` returns that map.  It also maps model paths
(``"metadata.modified"``, ``"access.roles[operator]"``) to the character
offsets of the tokens they were parsed from, and builds their spans when
read; the validator uses it to anchor its findings, and a path never
recorded gets the header's span.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from functools import cache

from .model import (
    BLOCK_KINDS,
    NAME_RE,
    VARIANTS,
    ConnectorModel,
    Diagnostic,
    FieldSpec,
    Record,
    Role,
    SecretEnvVar,
    SecretLiteral,
    Span,
    UsageConfig,
    _CONTROL_RE,
    iso_date,
    pause_gc,
)

MAX_DIAGNOSTICS = 100


class TokenKind(Enum):
    IDENT = "identifier"
    STRING = "string"
    INTEGER = "integer"
    DATE = "date"
    BOOLEAN = "boolean"
    LBRACE = "'{'"
    RBRACE = "'}'"
    LBRACKET = "'['"
    RBRACKET = "']'"
    COLON = "':'"
    COMMA = "','"
    KEYWORD = "keyword"
    ENV_REF = "env reference"
    EOF = "end of file"

    # Enum's own __hash__ is Python code, run by every membership check against
    # a set of kinds.  Members are singletons that compare by identity, and no code
    # iterates a set of kinds, so no output order depends on this hash.
    __hash__ = object.__hash__


_MARK = 1 << 10  # characters from one mark to the next, and the most a read counts over


class SourceMap:
    """One parsed file: its name and text, and the offset of the token each
    model path was parsed from.  A position is counted from the last one
    asked when it lies at most 1 KiB ahead of it, and otherwise from a mark:
    the line and line start at each KiB's first character, found in one pass
    when first needed.  So a read in any order counts over at most 1 KiB,
    reads in source order count over the text once, and nothing is stored
    per line.  The last position is read and replaced as one tuple, so
    threads that share a map each see a true one.  Spans are built when
    read, each token's length by matching the lexer's pattern once at its
    offset: a recorded token starts a match, and the pattern has no
    lookbehind, so that match gives the token's lexeme again."""

    __slots__ = ("file", "source", "_at", "_marks", "_offsets")

    def __init__(self, file: str, source: str = "") -> None:
        self.file = file
        self.source = source
        self._at = (0, 1, 0)  # the offset last asked, its line, and that line's start
        self._marks: list[tuple[int, int]] = []
        self._offsets: dict[str, int] = {}

    def span(self, offset: int, length: int) -> Span:
        """The span of ``length`` characters from a character offset."""
        source = self.source
        at, line, start = self._at
        if not start <= offset <= at + _MARK:
            marks = self._marks or self._mark()
            index = min(offset // _MARK, len(marks) - 1)  # an offset past the end: the last mark
            line, start = marks[index]
            at = index * _MARK
        newline = source.rfind("\n", at, offset)
        if newline >= 0:
            line += source.count("\n", at, newline) + 1
            start = newline + 1
        self._at = (offset, line, start)
        return Span(self.file, line, offset - start + 1, length)

    def _mark(self) -> list[tuple[int, int]]:
        # Threads that share a map may each find the marks: each finds the
        # same list and publishes it whole.
        source, line, start = self.source, 1, 0
        marks = [(line, start)]
        for base in range(_MARK, len(source) + 1, _MARK):
            line += source.count("\n", base - _MARK, base)
            start = max(start, source.rfind("\n", base - _MARK, base) + 1)
            marks.append((line, start))
        self._marks = marks
        return marks

    def span_of(self, tok: _Tok) -> Span:
        return self.span(tok[3], len(tok[1]))

    def _span_at(self, offset: int) -> Span:
        """The span of the recorded token at a character offset."""
        return self.span(offset, _TOKEN_RE.match(self.source, offset).end(2) - offset)

    def line_end(self, offset: int) -> int:
        """The offset of the newline that ends the line holding ``offset``."""
        end = self.source.find("\n", offset)
        return len(self.source) if end < 0 else end

    @property
    def spans(self) -> dict[str, Span]:
        """A new dict of every recorded path's span, built when read.

        Paths come in the order the parser bound them: the header's and the
        name's first, then source order, except that a list's items come
        before the list itself.  A path recorded twice, as a repeated role
        name's is, keeps its first place and the later offset.
        """
        span_at = self._span_at
        return {path: span_at(offset) for path, offset in self._offsets.items()}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SourceMap:
            return NotImplemented
        return self.file == other.file and self.spans == other.spans

    def record(self, path: str, offset: int) -> None:
        self._offsets[path] = offset

    def span_for(self, path: str) -> Span:
        """The span recorded for a path; the connector header's for a path
        not recorded, and 1:1 in a map that recorded nothing."""
        offset = self._offsets.get(path)
        if offset is None:  # not `or`: offset 0 is the header of most files
            offset = self._offsets.get("")
        return Span(self.file, 1, 1, 0) if offset is None else self._span_at(offset)


class Token:
    """One lexeme with its kind, decoded value and character offset, as
    :func:`tokenize` returns it.

    Its position is worked out when ``line``, ``column`` or ``span`` is
    read, since only diagnostics and source-map readers need it.
    """

    __slots__ = ("kind", "lexeme", "value", "offset", "lines")

    def __init__(
        self, kind: TokenKind, lexeme: str, value: object, offset: int, lines: SourceMap
    ) -> None:
        self.kind = kind
        self.lexeme = lexeme
        self.value = value
        self.offset = offset
        self.lines = lines

    @property
    def file(self) -> str:
        return self.lines.file

    @property
    def line(self) -> int:
        return self.span.line

    @property
    def column(self) -> int:
        return self.span.column

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset, len(self.lexeme))

    def describe(self) -> str:
        return _describe((self.kind, self.lexeme))

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r}, {self.line}:{self.column})"


def _block_tables() -> tuple[dict[str, frozenset[str]], dict[str, dict[str, FieldSpec]]]:
    """From one walk over the model's block rows: which keyword blocks each
    block label accepts, and the rows each label's block binds, by key.  A
    usage block binds the shared usage rows and its variant's, which are
    filed under the variant's keyword; a contract or roles block binds no
    `key: value` field."""
    subblocks: dict[str, frozenset[str]] = {}
    tables: dict[str, dict[str, FieldSpec]] = {}
    pending: list[tuple[str, type]] = [("connector", ConnectorModel)]
    while pending:
        label, cls = pending.pop()
        if cls is UsageConfig:
            classes = (UsageConfig, *VARIANTS.values())
            for variant, extension in VARIANTS.items():
                tables[variant] = {row.key: row for row in cls.FIELDS + extension.FIELDS}
        else:
            classes = (cls,)
            tables[label] = {row.key: row for row in cls.FIELDS}
        rows = [row for c in classes for row in c.FIELDS if row.kind in BLOCK_KINDS]
        subblocks[label] = frozenset(row.key for row in rows)
        for row in rows:
            if row.kind == "sub-block":
                pending.append((row.key, row.cls))
            elif row.kind in ("contract", "roles"):
                # A contract block holds `"key": value` entries, a roles block only
                # `role NAME { ... }` entries.
                subblocks[row.key] = frozenset()
                tables[row.key] = {}
                if row.kind == "roles":
                    pending.append(("role", row.cls))
    return subblocks, tables


_SUBBLOCKS, _ROWS = _block_tables()

# Block labels, the connector header and usage variants are reserved words.
KEYWORDS = frozenset({"connector", *VARIANTS, *_SUBBLOCKS})

SECTION_KEYWORDS = tuple(spec.key for spec in ConnectorModel.FIELDS)
_STRUCTURAL = frozenset({"connector", *SECTION_KEYWORDS})

# The lexer: ``findall`` over a window returns a plain tuple per match, so
# no match object is made but for the first match of a window that a long
# token fills.  A match has four groups: the blanks before a token; the
# token, one alternative per token class tried in order, or empty at the end
# of input; a string's closing quote; and the same-line blanks and
# punctuation mark after the token, or nothing, such as the ':' of `key:` or
# the '{' of `section {`, which the lexer appends as a token of its own.  A `//` comment is a token alternative, which the lexer drops.  Every
# character after the blanks matches at least the any-character alternative
# (a newline is a blank), so the matches tile the source and offsets are a
# running sum of group lengths.
# No group around a token repeats or is optional: the blanks are one
# character-class repeat, and an env reference and the mark are alternations.
# The backtracking engine keeps bookkeeping for each repeated or optional
# group a match enters, which a `(?:blanks|comment)*` prefix costs every
# match.  The trade-off: a file without comments lexes faster, and each
# comment costs a match and a `_lex_rare` call of its own, so a file with
# many comments lexes slower (README's lexer paragraph has the costs).
# Only a string's escape loop repeats a group, inside the string
# alternative, since escape pairs are no single-character repeat.
# Possessive quantifiers and atomic groups would save as much, but need
# Python 3.11.
# Cost: lexing is linear in the input for every input.  ``_lex`` matches one
# window of the file at a time, no ``findall`` covers more than one window,
# and a token longer than a window is matched alone, so the lexer's
# diagnostic cap stops the matching at the end of the window that fills it,
# no window is matched after the parser stops, and a match list lives only
# as long as its window.
# Hyphens may follow the first character of a word, so role names such as
# "night-shift" lex as one identifier; '-' only starts a negative integer.
# A string runs to its closing quote or to the end of its line.  Its body is
# an unrolled loop, which keeps a 1 MiB literal linear; a backslash pairs
# only with '"' or '\', and stays literal before any other character.
_TOKEN_RE = re.compile(
    r"""
    ([ \t\r\n\ufeff]*)
    (env\([A-Z][A-Z0-9_]*\)
    |env\(
    |[A-Za-z_][A-Za-z0-9_-]*
    |[{}\[\]:,]
    |"[^"\\\n\r]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n\r]*)*("?)
    |[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9])
    |-?[0-9]+
    |//[^\n]*
    |.
    |\Z)
    ([ \t]*[{}\[\]:,]|)
    """,
    re.VERBOSE,
)
# int() refuses long digit strings above sys.get_int_max_str_digits(), which
# can be set as low as 640; a literal with more digits is an E002 instead.
_MAX_INT_DIGITS = 640
_ESCAPE_RE = re.compile(r'\\(["\\])')

# The lexer and parser read kinds as module globals: an enum class attribute
# lookup costs about ten times as much in their loops.
_IDENT, _STRING, _INTEGER, _DATE, _BOOLEAN, _KEYWORD, _ENV_REF, _EOF = (
    TokenKind.IDENT,
    TokenKind.STRING,
    TokenKind.INTEGER,
    TokenKind.DATE,
    TokenKind.BOOLEAN,
    TokenKind.KEYWORD,
    TokenKind.ENV_REF,
    TokenKind.EOF,
)
_LBRACE, _RBRACE, _LBRACKET, _RBRACKET, _COLON, _COMMA = (
    TokenKind.LBRACE,
    TokenKind.RBRACE,
    TokenKind.LBRACKET,
    TokenKind.RBRACKET,
    TokenKind.COLON,
    TokenKind.COMMA,
)
# Tokens the block loop resumes at after an error in a field entry.
_RESUME_KINDS = frozenset({_IDENT, _KEYWORD, _RBRACE, _EOF})
# Tokens the contract loop resumes at, on the line of a bad entry's key.
_CONTRACT_RESUME_KINDS = frozenset({_KEYWORD, _RBRACE, _EOF})
# Tokens that are a value by themselves.  Of these only a DATE has the value
# None, for an impossible calendar date.
_SCALAR_KINDS = frozenset({_STRING, _INTEGER, _DATE, _BOOLEAN, _IDENT})

# Lexemes whose kind and value are fixed: punctuation marks, keywords and
# booleans.  A closed string is decided first, by its closing quote, before
# this table is read; any other token's kind follows from its first character.
_FIXED = {
    "{": (_LBRACE, None),
    "}": (_RBRACE, None),
    "[": (_LBRACKET, None),
    "]": (_RBRACKET, None),
    ":": (_COLON, None),
    ",": (_COMMA, None),
    "true": (_BOOLEAN, True),
    "false": (_BOOLEAN, False),
    **{word: (_KEYWORD, word) for word in KEYWORDS},
}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")

# A token as the lexer and parser hold it: kind, lexeme, decoded value and
# character offset.  A plain tuple costs a fifth of a Token to build.
_Tok = tuple[TokenKind, str, object, int]


def _describe(tok: tuple) -> str:
    """How a diagnostic names a token: its kind, or an identifier's text."""
    kind = tok[0]
    if kind is _KEYWORD or kind is _IDENT:
        return f"'{tok[1]}'"
    return kind.value


def _capped(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The findings up to the cap: from MAX_DIAGNOSTICS on, the first
    MAX_DIAGNOSTICS - 1 and an E099 at the next."""
    if len(diagnostics) >= MAX_DIAGNOSTICS:
        cap = diagnostics[MAX_DIAGNOSTICS - 1].span
        diagnostics[MAX_DIAGNOSTICS - 1 :] = [Diagnostic("E099", "too many errors", cap)]
    return diagnostics


# Characters per lexer window, the most one ``findall`` covers.  Tests set
# it low, so that every file crosses windows.
_WINDOW = 16384
# Tokens the parser may read between two refill checks.  A check sits at the
# top of every loop that reads any number of tokens, and no path from one
# check to the next reads more than a few.
_MARGIN = 64


def _lex(smap: SourceMap, diagnostics: list[Diagnostic], tokens: list[_Tok], start: int) -> int:
    """Append the tokens of the window from offset ``start`` to ``tokens``,
    and its lexical problems to ``diagnostics``; return where the next
    window starts, or -1 once EOF is appended.

    A window is the ``_WINDOW`` characters from ``start``; its last match is
    the empty one at the window's end, which is EOF at the end of the source.
    Where the source goes on, the window's end and the three matches before
    it are left to the next window: the last may be cut itself, and a date
    or env reference cut short falls back to shorter tokens, at most three
    (``2025``, ``-01``, ``-0``).  A window that holds no more matches than
    those four yields its first match alone, matched to its own end, so a
    token longer than a window, such as a 1 MiB string, is matched once.
    Every window starts where a match of the whole source starts, and a
    match there with no end position is the one ``findall`` over the whole
    source finds.  The lexer stops at its MAX_DIAGNOSTICS-th finding: EOF
    follows at the end of the token that holds it, and ``_capped`` turns
    that finding into the E099.
    """
    source = smap.source
    length = len(source)
    matches = _TOKEN_RE.findall(source, start, start + _WINDOW)
    if start + _WINDOW < length:  # the window cuts the source
        if len(matches) > 4:  # the three matches to leave, and the window's end
            del matches[-4:]
        else:  # no more than those: its first match alone, however long
            matches = [_TOKEN_RE.match(source, start).groups("")]
    append = tokens.append
    fixed = _FIXED.get
    pos = start
    for blanks, text, close, mark in matches:
        start = pos + len(blanks)
        pos = start + len(text)
        if close and text.isprintable():
            # The lexeme keeps the raw source slice; the decoded text is the value.
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            append((_STRING, text, value, start))
        elif (known := fixed(text)) is not None:
            append((known[0], text, known[1], start))
        elif not text:  # blanks up to the end of the source
            break
        else:
            first = text[0]
            if first in _WORD_START and "(" not in text:
                append((_IDENT, text, text, start))
            elif first in _DIGITS and len(text) <= _MAX_INT_DIGITS:
                if text[4:5] == "-":
                    # None for an impossible date; the parser reports it where it expects a value.
                    append((_DATE, text, iso_date(text), start))
                else:
                    append((_INTEGER, text, int(text), start))
            else:
                tok = _lex_rare(text, close, start, smap, diagnostics)
                if tok is not None:
                    append(tok)
                if len(diagnostics) >= MAX_DIAGNOSTICS:
                    break
        if mark:
            pos += len(mark)
            mark = mark[-1]
            append((fixed(mark)[0], mark, None, pos - 1))
    if pos < length and len(diagnostics) < MAX_DIAGNOSTICS:
        return pos
    append((_EOF, "", None, pos))
    return -1


def _lex_rare(
    text: str, close: str, start: int, smap: SourceMap, diagnostics: list[Diagnostic]
) -> _Tok | None:
    """The token, if any, of a lexeme that ``_lex`` does not decode inline: a
    comment, which has none, an env reference, a string with a control
    character or without its closing quote, a negative or long integer, or an
    illegal character.  A string's control characters are reported up to the
    MAX_DIAGNOSTICS-th finding and no further."""
    error = diagnostics.append
    first = text[0]
    if first == "e":  # env(, since every other word is decoded inline
        if text[-1] == ")":
            return (_ENV_REF, text, text[4:-1], start)
        message = "malformed env() reference (expected env(UPPER_CASE_NAME))"
        error(Diagnostic("E002", message, smap.span(start, 3)))
    elif first == '"':
        for bad in _CONTROL_RE.finditer(text):
            span = smap.span(start + bad.start(), 1)
            error(Diagnostic("E002", "control character in string literal", span))
            if len(diagnostics) >= MAX_DIAGNOSTICS:
                break
        if close:  # not printable: the value drops its control characters
            value = _CONTROL_RE.sub("", _ESCAPE_RE.sub(r"\1", text[1:-1]))
            return (_STRING, text, value, start)
        error(Diagnostic("E001", "unterminated string literal", smap.span(start, 1)))
    elif first in _DIGITS or (first == "-" and len(text) > 1):
        if len(text) - (first == "-") <= _MAX_INT_DIGITS:
            return (_INTEGER, text, int(text), start)
        error(Diagnostic("E002", "integer literal too long", smap.span(start, len(text))))
    elif text.startswith("//"):
        return None
    else:
        error(Diagnostic("E002", f"illegal character {text!r}", smap.span(start, 1)))
    return None


@pause_gc
def tokenize(source: str, file: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Split source text into tokens; lexical problems become diagnostics.

    The windows of ``_lex`` are joined into one list, EOF last, so the
    tokens do not depend on where a window ends.  The diagnostics are
    capped as ``_capped`` says.
    """
    diagnostics: list[Diagnostic] = []
    smap = SourceMap(file, source)
    lexed: list[_Tok] = []
    window = 0
    while window >= 0:
        window = _lex(smap, diagnostics, lexed, window)
    return [Token(*tok, smap) for tok in lexed], _capped(diagnostics)


class ParseResult(Record):
    """What :func:`parse` returns: the model or ``None``, the diagnostics, and
    the file's :class:`SourceMap`.

    It compares by value, source map included, but does not hash: its
    ``SourceMap`` is filled while parsing, so the map defines ``__eq__`` and
    no ``__hash__``, and ``hash()`` of a result raises ``TypeError``.
    """

    ATTRS = ("model", "diagnostics", "source_map")


class _Abort(Exception):
    pass


class _Parser:
    # Every parser reads the cursor as ``self.tokens[self.pos]`` and moves
    # ``pos`` past a token only once its kind is known and is not EOF, so the
    # cursor never runs past the EOF token, and where the parser stops is
    # the token at the cursor.  The list holds the tokens of the windows
    # lexed so far that the parser has not read.  Each loop that can read
    # any number of tokens first checks ``pos`` against ``refill_at``, so at
    # least ``_MARGIN`` tokens lie ahead until EOF is in the list.  A refill
    # moves the tokens ahead to the front of the same list, so a
    # ``tokens = self.tokens`` alias stays valid, and no frame may hold an
    # index across a check.
    def __init__(self, smap: SourceMap) -> None:
        self.tokens: list[_Tok] = []
        self.pos = 0
        self.refill_at = -1
        self.window = 0  # where the next window starts; -1 once EOF is lexed
        self.smap = smap
        # The lexer's findings, from the windows lexed so far.
        self.lexical: list[Diagnostic] = []
        # The parser's own findings, kept apart from the lexer's: a block
        # that grows this list reported an error.
        self.diagnostics: list[Diagnostic] = []

    def run(self) -> ConnectorModel | None:
        """The model; None after any diagnostic or once the cap stops the parser."""
        try:
            self.refill()
            return self.parse_document()
        except _Abort:
            return None

    def refill(self) -> None:
        """Drop the tokens already read, then lex windows until more than
        ``_MARGIN`` tokens lie ahead or EOF is in."""
        tokens = self.tokens
        del tokens[: self.pos]
        self.pos = 0
        window = self.window
        while window >= 0 and len(tokens) <= _MARGIN:
            window = _lex(self.smap, self.lexical, tokens, window)
        self.window = window
        self.refill_at = len(tokens) - _MARGIN if window >= 0 else sys.maxsize

    def error(self, code: str, message: str, tok: _Tok) -> None:
        """Report an error at a token (or list), and stop the parser at its
        MAX_DIAGNOSTICS-th finding."""
        diagnostics = self.diagnostics
        diagnostics.append(Diagnostic(code, message, self.smap.span_of(tok)))
        if len(diagnostics) >= MAX_DIAGNOSTICS:
            raise _Abort

    # --- error recovery ---------------------------------------------------

    def sync(self) -> None:
        """Skip tokens until a block boundary: '}' at depth 0, a structural
        keyword, or end of input."""
        tokens = self.tokens
        depth = 0
        while True:
            if self.pos > self.refill_at:
                self.refill()
            tok = tokens[self.pos]
            kind = tok[0]
            if kind is _EOF:
                return
            if not depth and (kind is _RBRACE or kind is _KEYWORD and tok[1] in _STRUCTURAL):
                return
            if kind is _LBRACE:
                depth += 1
            elif kind is _RBRACE:
                depth -= 1
            self.pos += 1

    def skip_balanced_block(self) -> None:
        """Consume tokens up to and including a balanced '{ ... }'."""
        tokens = self.tokens
        while True:
            if self.pos > self.refill_at:
                self.refill()
            tok = tokens[self.pos]
            kind = tok[0]
            if kind is _LBRACE:
                break
            if kind is _EOF or kind is _RBRACE or kind is _KEYWORD and tok[1] in _STRUCTURAL:
                return
            self.pos += 1
        depth = 0
        while True:
            if self.pos > self.refill_at:
                self.refill()
            kind = tokens[self.pos][0]
            if kind is _EOF:
                return
            self.pos += 1
            if kind is _LBRACE:
                depth += 1
            elif kind is _RBRACE:
                depth -= 1
                if not depth:
                    return

    def skip_line(self) -> None:
        """Skip the current token and the rest of its line, stopping before a
        '}' that closes no '{' skipped on that line, a structural keyword or
        end of input.  The current token is neither '}' nor end of input."""
        tokens = self.tokens
        tok = tokens[self.pos]
        line_end = self.smap.line_end(tok[3])
        depth = 0
        while True:
            if self.pos > self.refill_at:
                self.refill()
            if tok[0] is _LBRACE:
                depth += 1
            elif tok[0] is _RBRACE:
                depth -= 1
            self.pos += 1
            tok = tokens[self.pos]
            kind = tok[0]
            if tok[3] > line_end or kind is _EOF or (kind is _RBRACE and not depth):
                return
            if kind is _KEYWORD and tok[1] in _STRUCTURAL:
                return

    def skip_stray(self) -> None:
        """After an error in a field entry, skip the line of the token it
        stopped at, unless the block loop can resume there: at a field name,
        a keyword, '}' or end of input.  At any other token the loop would
        only report a second E003 and skip that line itself."""
        if self.tokens[self.pos][0] not in _RESUME_KINDS:
            self.skip_line()

    def skip_contract_stray(self, key_tok: _Tok) -> None:
        """After an error in a contract entry, skip the rest of its key's line,
        unless the entry stopped at a later line, '}', a keyword or end of
        input.  A contract key is a string, and a string left on the key's
        line would only start a second bad entry."""
        tok = self.tokens[self.pos]
        if tok[3] < self.smap.line_end(key_tok[3]) and tok[0] not in _CONTRACT_RESUME_KINDS:
            self.skip_line()

    # --- blocks -----------------------------------------------------------

    def parse_block(
        self,
        label: str,
        keyword: _Tok,
        rows: dict[str, FieldSpec] | None = None,
        path: str = "",
        what: str = "",
    ) -> object:
        """Parse the block that ``keyword`` opens, binding each entry against
        ``rows``, its block's rows by key, as soon as its value is read.

        A missing required field (E011) is reported when the block closes.
        ``path`` is the block's model path and ``what`` names it in binding
        errors.  Returns a field block's attribute values, a contract block's
        offers or a roles block's roles; None when the block reported an
        error, or when ``rows`` is None: such a block is not bound, so it
        reports only syntax errors and records no path.
        """
        tokens = self.tokens
        diagnostics = self.diagnostics
        reported = len(diagnostics)
        seen: set[str] = set()  # field keys, contract keys and block names read
        values: dict[str, object] = {}
        roles: list[Role] = []
        tok = tokens[self.pos]
        if tok[0] is not _LBRACE:
            self.error(
                "E003", f"expected '{{' to open the {label} block, got {_describe(tok)}", tok
            )
            self.sync()
        else:
            self.pos += 1
            allowed = _SUBBLOCKS[label]
            contract = label == "contract"
            while True:
                if self.pos > self.refill_at:
                    self.refill()
                tok = tokens[self.pos]
                kind = tok[0]
                if kind is _IDENT and not contract:  # most entries are `key: value`
                    self.pos += 1
                    colon = tokens[self.pos]
                    if colon[0] is not _COLON:
                        self.error("E003", f"expected ':' after field name '{tok[1]}'", colon)
                        self.skip_stray()
                        continue
                    self.pos += 1
                    value = self.parse_value()
                    if value is None:
                        self.skip_stray()
                        continue
                    key = tok[1]
                    if key in seen:
                        self.error("E015", f"duplicate field '{key}'", tok)
                        continue
                    seen.add(key)
                    if rows is None:
                        continue
                    spec = rows.get(key)
                    if spec is None:
                        self.error("E010", f"unknown field '{key}' in {what} block", tok)
                        continue
                    value = _BIND[spec.kind](self, spec, value, f"{path}.{key}")
                    if value is not None:
                        values[spec.attr] = value
                    continue
                if kind is _RBRACE:
                    self.pos += 1
                    break
                if kind is _EOF:
                    self.error("E003", f"unexpected end of file inside {label} block", tok)
                    break
                if kind is _KEYWORD:
                    word = tok[1]
                    if word in _STRUCTURAL:
                        self.error("E003", f"missing '}}' before {_describe(tok)}", tok)
                        break
                    if word == "role" and label == "roles":
                        self.pos += 1
                        role = self.parse_role(rows, path)
                        if role is not None:
                            roles.append(role)
                        continue
                    if word in allowed:
                        self.pos += 1
                        if word in seen:
                            self.parse_block(word, tok)
                            self.error("E015", f"duplicate {word} block", tok)
                            continue
                        seen.add(word)
                        spec = None if rows is None else rows.get(word)
                        if spec is None:
                            if rows is not None:
                                self.error(
                                    "E010", f"unknown block '{word}' in {what} block", tok
                                )
                            self.parse_block(word, tok)
                            continue
                        sub_path = f"{path}.{word}"
                        self.smap.record(sub_path, tok[3])
                        value = self.parse_block(word, tok, _ROWS[word], sub_path, word)
                        if value is not None:
                            if spec.kind == "sub-block":
                                value, fields = object.__new__(spec.cls), value
                                spec.cls._init_parsed(value, **fields)
                            values[spec.attr] = value
                        continue
                    if word in _SUBBLOCKS:
                        self.error("E010", f"unknown block '{word}' in {label} block", tok)
                        self.pos += 1
                        self.skip_balanced_block()
                        continue
                if contract:
                    if kind is _STRING:  # a `"key": value` entry, then an optional ','
                        self.pos += 1
                        colon = tokens[self.pos]
                        if colon[0] is not _COLON:
                            self.error("E003", "expected ':' after contract key", colon)
                            self.skip_contract_stray(tok)
                            continue
                        self.pos += 1
                        value = tokens[self.pos]
                        if value[0] not in _SCALAR_KINDS:
                            self.error("E003", f"expected a value, got {_describe(value)}", value)
                            self.skip_contract_stray(tok)
                            continue
                        self.pos += 1
                        term = value[2]
                        if term is None:
                            self.error("E014", f"invalid calendar date '{value[1]}'", value)
                        if tokens[self.pos][0] is _COMMA:
                            self.pos += 1
                        key = tok[2]
                        if key in seen:
                            self.error("E015", f"duplicate contract key \"{key}\"", tok)
                            continue
                        seen.add(key)
                        if rows is None:
                            continue
                        if value[0] is _IDENT:
                            self.error(
                                "E014",
                                "contract values must be a string, integer, date, or boolean",
                                value,
                            )
                        elif term is not None:  # None: an invalid date, reported above
                            values[key] = term
                            self.smap._offsets[f"{path}.{key}"] = value[3]
                        continue
                    self.error(
                        "E003", f"expected a quoted contract key or '}}', got {_describe(tok)}", tok
                    )
                    self.skip_line()
                    continue
                self.error(
                    "E003",
                    f"expected a field name or '}}' in {label} block, got {_describe(tok)}",
                    tok,
                )
                self.skip_line()
        if rows is None:
            return None
        for spec in rows.values():
            if spec.required and spec.key not in seen:
                self.error("E011", f"missing required field '{spec.key}' in {what} block", keyword)
        if len(diagnostics) > reported:
            return None
        return tuple(roles) if label == "roles" else values

    def parse_role(self, rows: dict[str, FieldSpec] | None, path: str) -> Role | None:
        """A `role NAME { ... }` entry after its keyword, in a roles block at
        ``path`` that ``rows`` binds.  The body of a role with an invalid name
        is not bound."""
        name_tok = self.tokens[self.pos]
        if name_tok[0] is not _IDENT:
            self.error(
                "E003", f"expected a role name, got {_describe(name_tok)}", name_tok
            )
            self.skip_balanced_block()
            return None
        self.pos += 1
        name = name_tok[1]
        if rows is not None and not NAME_RE.fullmatch(name):
            self.error("E014", f"invalid role name {name!r}", name_tok)
            rows = None
        if rows is None:
            self.parse_block("role", name_tok)
            return None
        path = f"{path}[{name}]"
        self.smap.record(path, name_tok[3])
        values = self.parse_block("role", name_tok, _ROWS["role"], path, f"role {name}")
        if values is None:
            return None
        role = object.__new__(Role)
        Role._init_parsed(role, role_name=name, **values)
        return role

    def parse_value(self) -> _Tok | None:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind is _LBRACKET:
            return self.parse_list()
        if kind is _ENV_REF:
            self.pos += 1
            return tok
        return self.parse_scalar()

    def parse_scalar(self) -> _Tok | None:
        tok = self.tokens[self.pos]
        if tok[0] in _SCALAR_KINDS:
            self.pos += 1
            if tok[2] is None:
                self.error("E014", f"invalid calendar date '{tok[1]}'", tok)
            return tok
        self.error("E003", f"expected a value, got {_describe(tok)}", tok)
        return None

    def parse_list(self) -> _Tok:
        """A list value up to its ']'.  After a bad item the list also ends
        at a structural keyword, or at a keyword or a field name and ':' on a
        later line, so a list that lost its ']' does not swallow the rest of
        its block, and a list written over several lines still ends at its ']'."""
        tokens = self.tokens
        bracket = tokens[self.pos]
        self.pos += 1
        items: list[_Tok] = []
        bad_line_end = -1  # the end of the first bad item's line, once there is one
        while True:
            if self.pos > self.refill_at:
                self.refill()
            tok = tokens[self.pos]
            kind = tok[0]
            if kind is _RBRACKET:
                self.pos += 1
                break
            if (
                kind is _EOF
                or kind is _RBRACE
                or bad_line_end >= 0
                and (
                    kind is _KEYWORD
                    and tok[1] in _STRUCTURAL
                    or tok[3] > bad_line_end
                    and (kind is _KEYWORD or kind is _IDENT and tokens[self.pos + 1][0] is _COLON)
                )
            ):
                self.error("E003", "unterminated list (missing ']')", bracket)
                break
            item = self.parse_scalar()
            if item is None:
                if bad_line_end < 0:
                    bad_line_end = self.smap.line_end(tok[3])
                self.pos += 1
                continue
            items.append(item)
            if tokens[self.pos][0] is _COMMA:
                self.pos += 1
        return (_LBRACKET, bracket[1], items, bracket[3])

    # --- document ---------------------------------------------------------

    def parse_document(self) -> ConnectorModel | None:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[0] is not _KEYWORD or tok[1] != "connector":
            self.error("E011", "expected 'connector'", tok)
            return None
        connector = tok
        self.smap.record("", connector[3])
        self.pos += 1

        name: str | None = None
        tok = tokens[self.pos]
        if tok[0] is _STRING:
            self.pos += 1
            name = tok[2]
            if not NAME_RE.fullmatch(name):
                self.error("E014", f"invalid connector name {name!r}", tok)
            else:
                self.smap.record("name", tok[3])
        else:
            self.error("E003", f"expected a quoted connector name, got {_describe(tok)}", tok)

        sections = _ROWS["connector"]
        seen: set[str] = set()
        values: dict[str, object] = {}
        tok = tokens[self.pos]
        if tok[0] is _LBRACE:
            self.pos += 1
        else:
            self.error("E003", f"expected '{{', got {_describe(tok)}", tok)
            self.sync()
        closed = False
        while True:
            if self.pos > self.refill_at:
                self.refill()
            tok = tokens[self.pos]
            kind = tok[0]
            if kind is _RBRACE:
                self.pos += 1
                closed = True
                break
            if kind is _EOF:
                self.error("E003", "unexpected end of file inside connector block", tok)
                break
            if kind is _KEYWORD and tok[1] in sections:
                section = tok[1]
                self.pos += 1
                table = what = section  # a usage block binds its variant's table
                if section == "usage":
                    variant_tok = tokens[self.pos]
                    if variant_tok[0] is _KEYWORD and variant_tok[1] in VARIANTS:
                        self.pos += 1
                        table = variant_tok[1]
                        what = f"{table} usage"
                    else:
                        *others, last = map(repr, VARIANTS)
                        expected = f"{', '.join(others)}, or {last}"
                        self.error("E003", f"expected usage variant {expected}", variant_tok)
                        table = None
                if section in seen:
                    self.parse_block(section, tok)
                    self.error("E012", f"duplicate {section} block", tok)
                    continue
                seen.add(section)
                if table is None:
                    self.parse_block(section, tok)
                    continue
                block = self.parse_block(section, tok, _ROWS[table], section, what)
                if block is not None:
                    spec = sections[section]
                    if spec.cls is UsageConfig:
                        variant = VARIANTS[table]
                        ext_values = {
                            row.attr: block.pop(row.attr)
                            for row in variant.FIELDS
                            if row.attr in block
                        }
                        block["extension"] = extension = object.__new__(variant)
                        variant._init_parsed(extension, **ext_values)
                    record = object.__new__(spec.cls)
                    spec.cls._init_parsed(record, **block)
                    values[spec.attr] = record
                continue
            if kind is _KEYWORD and tok[1] == "connector":
                self.error("E003", "missing '}' before 'connector'", tok)
                break
            self.error(
                "E003",
                f"expected a section ({', '.join(SECTION_KEYWORDS)}), got {_describe(tok)}",
                tok,
            )
            self.sync()
            if tokens[self.pos][0] is _RBRACE:
                self.pos += 1
                closed = True
                break

        if closed:
            if self.pos > self.refill_at:
                self.refill()
            trailing = tokens[self.pos]
            if trailing[0] is _KEYWORD and trailing[1] == "connector":
                self.error(
                    "E013", "multiple connector blocks in one file (only one allowed)", trailing
                )
            elif trailing[0] is not _EOF:
                self.error(
                    "E003",
                    f"unexpected content after connector block: {_describe(trailing)}",
                    trailing,
                )

        for section in SECTION_KEYWORDS:
            if section not in seen:
                self.error("E011", f"missing required section '{section}'", connector)

        if self.diagnostics or self.lexical:
            return None
        model = object.__new__(ConnectorModel)
        ConnectorModel._init_parsed(model, name=name, **values)
        return model

    # --- binding ----------------------------------------------------------
    # Each binder checks the value of one `key: value` entry against its row,
    # records the entry's path and returns the model value, or None after
    # reporting why it has none.  They enforce every row, so the parser builds
    # each record with its class's _init_parsed, which checks no row again.

    def bind_scalar(self, spec: FieldSpec, value: _Tok, path: str) -> object:
        token_kind, expects = _SCALARS[spec.kind]
        if value[0] is not token_kind:
            if spec.kind == "enum":
                expects = f"one of: {_enum_values(spec.cls)}"
            return self.error("E014", f"field '{spec.key}' expects {expects}", value)
        result = value[2]
        if result is None:  # an invalid calendar date, already reported
            return None
        if spec.kind == "enum":
            result = _enum_members(spec.cls).get(result)
            if result is None:
                return self.error(
                    "E014",
                    f"invalid value '{value[2]}' for field '{spec.key}' "
                    f"(expected one of: {_enum_values(spec.cls)})",
                    value,
                )
        if (spec.nonempty or spec.minimum is not None) and (fault := spec.fault(result)):
            return self.error("E014", f"field '{spec.key}' {fault}", value)
        self.smap.record(path, value[3])
        return result

    def bind_string_list(self, spec: FieldSpec, value: _Tok, path: str) -> object:
        if value[0] is not _LBRACKET:
            return self.error("E014", f"field '{spec.key}' expects a list of strings", value)
        entries = value[2]
        items: list[str] = []
        for index, item in enumerate(entries):
            if item[0] is not _STRING:
                self.error("E014", f"entries of '{spec.key}' must be quoted strings", item)
                continue
            items.append(item[2])
            self.smap.record(f"{path}[{index}]", item[3])
        if len(items) < len(entries):
            return None
        self.smap.record(path, value[3])
        return tuple(items)

    def bind_enum_list(self, spec: FieldSpec, value: _Tok, path: str) -> object:
        if value[0] is not _LBRACKET:
            return self.error(
                "E014",
                f"field '{spec.key}' expects a list of: {_enum_values(spec.cls)}",
                value,
            )
        entries = value[2]
        by_value = _enum_members(spec.cls)
        members: list[Enum] = []
        bad = False
        for index, item in enumerate(entries):
            if item[0] is not _IDENT:
                self.error(
                    "E014",
                    f"entries of '{spec.key}' must be one of: {_enum_values(spec.cls)}",
                    item,
                )
                bad = True
                continue
            member = by_value.get(item[2])
            if member is None:
                self.error(
                    "E014",
                    f"invalid value '{item[2]}' in '{spec.key}' "
                    f"(expected one of: {_enum_values(spec.cls)})",
                    item,
                )
                bad = True
                continue
            # A unique list holds each member at most once, so this scan is bounded
            # by the size of the enum.
            if spec.unique and member in members:
                self.error("E015", f"duplicate entry '{item[2]}' in '{spec.key}'", item)
                bad = True
                continue
            members.append(member)
            self.smap.record(f"{path}[{index}]", item[3])
        if (spec.nonempty or spec.minimum is not None) and (fault := spec.fault(entries)):
            return self.error("E014", f"field '{spec.key}' {fault}", value)
        if bad:
            return None
        self.smap.record(path, value[3])
        return tuple(members)

    def bind_secret(self, spec: FieldSpec, value: _Tok, path: str) -> object:
        if value[0] is _ENV_REF:
            result = SecretEnvVar(value[2])
        elif value[0] is _STRING:
            result = SecretLiteral(value[2])
        else:
            return self.error(
                "E014",
                f"field '{spec.key}' expects a quoted string or env(NAME) reference",
                value,
            )
        self.smap.record(path, value[3])
        return result


# Scalar kinds: the token kind each accepts and what the E014 message says it expects.
_SCALARS = {
    "str": (_STRING, "a quoted string"),
    "date": (_DATE, "a date (YYYY-MM-DD)"),
    "int": (_INTEGER, "an integer"),
    "bool": (_BOOLEAN, "true or false"),
    "enum": (_IDENT, None),
}

_BIND = {
    **{kind: _Parser.bind_scalar for kind in _SCALARS},
    "str-list": _Parser.bind_string_list,
    "enum-list": _Parser.bind_enum_list,
    "secret": _Parser.bind_secret,
}


@cache
def _enum_members(enum_type: type[Enum]) -> dict[str, Enum]:
    """Each member of an enum class by its value, found without running Enum's Python code."""
    return {member._value_: member for member in enum_type}


def _enum_values(enum_type: type[Enum]) -> str:
    return ", ".join(member.value for member in enum_type)


@pause_gc
def parse(source: str, file: str = "<input>") -> ParseResult:
    """Parse DSL text into a model; all problems are reported as diagnostics.

    The returned model is present exactly when no ERROR-severity diagnostic
    was produced.  Identical input always yields an identical result.

    The parser stops at its MAX_DIAGNOSTICS-th finding, at a first token
    that is not ``connector``, or at EOF, and no window is lexed after it
    stops.  If it stopped at the EOF that the lexer placed at its
    MAX_DIAGNOSTICS-th finding, the diagnostics are the lexer's.  Otherwise
    they are the lexer's findings before the token the parser stopped at
    and the parser's, in source order.  Either list is capped as
    ``_capped`` says, and neither depends on where a window ends.
    """
    smap = SourceMap(file, source)
    parser = _Parser(smap)
    model = parser.run()  # None after any diagnostic, all of them errors
    lexical = parser.lexical
    stop = parser.tokens[parser.pos]
    if len(lexical) >= MAX_DIAGNOSTICS and stop[0] is _EOF:
        diagnostics = lexical
    else:
        diagnostics = parser.diagnostics
        if lexical:
            before = smap.span_of(stop).sort_key()
            diagnostics = [d for d in lexical if d.span.sort_key() < before] + diagnostics
        # A block reports its missing fields when it closes, after the syntax
        # errors of its later lines; present findings in source order.
        diagnostics.sort(key=lambda d: d.span.sort_key())
    return ParseResult(model=model, diagnostics=tuple(_capped(diagnostics)), source_map=smap)
