"""Tokenizer and parser for ``.dsx`` connector description files.

The surface syntax is block-structured::

    connector "name" {
      discovery { ... }
      metadata { ... }
      usage edc|opcua|plain { ... }
      access { ... }
    }

The lexer is one compiled master regex with a named group per token class;
line and column are derived from newline offsets.  Each :class:`Token`
carries its decoded value, dates included (``None`` for an impossible
calendar date such as ``2025-02-30``), and builds its
:class:`~dsx.model.Span` on first access to ``span``.

Blocks are parsed in two steps.  The entry parsers read ``key: value``
entries, lists and sub-blocks on one token cursor into raw blocks that
hold the lexer's own tokens, so a span is built only when a diagnostic or
the source map needs it.  The binder then checks each raw block against
the model's field table.

``parse`` never raises on malformed input: every problem becomes a
:class:`~dsx.model.Diagnostic` and the parser resynchronizes at block
boundaries so several errors can be reported per run.  A model is only
returned when the file produced zero errors.

Alongside the model, ``parse`` returns a :class:`SourceMap` that maps
model paths (``"metadata.modified"``, ``"access.roles[operator]"``) to
source spans, which the validator uses to anchor its findings.
"""

from __future__ import annotations

import re
from datetime import date
from enum import Enum

from .model import (
    BLOCK_KINDS,
    NAME_RE,
    VARIANTS,
    ConnectorModel,
    ContractValue,
    Diagnostic,
    FieldSpec,
    Record,
    Role,
    SecretEnvVar,
    SecretLiteral,
    Severity,
    Span,
    UsageConfig,
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


class Token:
    """One lexeme with its kind, decoded value and source position.

    The :class:`Span` is built on first access to ``span``, because most
    punctuation tokens never need one.
    """

    __slots__ = ("kind", "lexeme", "value", "file", "line", "column", "_span")

    def __init__(
        self, kind: TokenKind, lexeme: str, value: object, file: str, line: int, column: int
    ) -> None:
        self.kind = kind
        self.lexeme = lexeme
        self.value = value
        self.file = file
        self.line = line
        self.column = column
        self._span: Span | None = None

    @property
    def span(self) -> Span:
        if self._span is None:
            self._span = Span(self.file, self.line, self.column, len(self.lexeme))
        return self._span

    def describe(self) -> str:
        if self.kind in (TokenKind.KEYWORD, TokenKind.IDENT):
            return f"'{self.lexeme}'"
        return self.kind.value

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r}, {self.line}:{self.column})"


def _subblock_table() -> dict[str, frozenset[str]]:
    """Which keyword blocks each block label accepts, from the table's block rows."""
    table: dict[str, frozenset[str]] = {}
    pending = [(spec.key, spec.cls) for spec in ConnectorModel.FIELDS]
    while pending:
        label, cls = pending.pop()
        classes = (UsageConfig, *VARIANTS.values()) if cls is UsageConfig else (cls,)
        rows = [row for c in classes for row in c.FIELDS if row.kind in BLOCK_KINDS]
        table[label] = frozenset(row.key for row in rows)
        for row in rows:
            if row.kind == "sub-block":
                pending.append((row.key, row.cls))
                continue
            # A contract block holds `"key": value` entries, a roles block only
            # `role NAME { ... }` entries.
            table[row.key] = frozenset()
            if row.kind == "roles":
                pending.append(("role", row.cls))
    return table


_SUBBLOCKS = _subblock_table()

# Block labels, the connector header and usage variants are reserved words.
KEYWORDS = frozenset({"connector", *VARIANTS, *_SUBBLOCKS})

SECTION_KEYWORDS = tuple(spec.key for spec in ConnectorModel.FIELDS)
_STRUCTURAL = frozenset({"connector", *SECTION_KEYWORDS})

# The lexer: one alternative per token class, tried in order at each offset.
# Every character matches at least ``bad``, so the matches tile the source.
# Hyphens may follow the first character of a word, so role names such as
# "night-shift" lex as one identifier; '-' only starts a negative integer.
# A string runs to its closing quote or to the end of its line.  Its body is
# an unrolled loop, which keeps a 1 MiB literal linear; a backslash pairs
# only with '"' or '\', and stays literal before any other character.
_TOKEN_RE = re.compile(
    r"""
    (?P<space>[ \t\r\ufeff]+|//[^\n]*)
    |(?P<newline>\n[ \t\r\ufeff]*)
    |(?P<env>env\((?:(?P<env_name>[A-Z][A-Z0-9_]*)\))?)
    |(?P<word>[A-Za-z_][A-Za-z0-9_-]*)
    |(?P<punct>[{}\[\]:,])
    |(?P<string>"[^"\\\n\r]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n\r]*)*(?P<close>"?))
    |(?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9]))
    |(?P<integer>-?[0-9]+)
    |(?P<bad>.)
    """,
    re.VERBOSE,
)
# int() refuses long digit strings above sys.get_int_max_str_digits(), which
# can be set as low as 640; a literal with more digits is an E002 instead.
_MAX_INT_DIGITS = 640
_ESCAPE_RE = re.compile(r'\\(["\\])')
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")

# The parser compares kinds as module globals: an enum class attribute
# lookup costs about ten times as much in its loops.
_IDENT, _STRING, _DATE, _KEYWORD, _ENV_REF, _EOF = (
    TokenKind.IDENT,
    TokenKind.STRING,
    TokenKind.DATE,
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
_SCALAR_KINDS = frozenset({_STRING, TokenKind.INTEGER, _DATE, TokenKind.BOOLEAN, _IDENT})

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
}
# Words that are not identifiers: their kind and value.
_WORDS = {
    "true": (TokenKind.BOOLEAN, True),
    "false": (TokenKind.BOOLEAN, False),
    **{word: (TokenKind.KEYWORD, word) for word in KEYWORDS},
}


class _Sink:
    """Collects diagnostics, capping the total per file at MAX_DIAGNOSTICS."""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.full = False

    def error(self, code: str, message: str, span: Span) -> None:
        if self.full:
            return
        if len(self.diagnostics) >= MAX_DIAGNOSTICS - 1:
            self.diagnostics.append(
                Diagnostic(Severity.ERROR, "E099", "too many errors", span)
            )
            self.full = True
            return
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, span))


def _lex(source: str, file: str, sink: _Sink) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "space":
            continue
        start = m.start()
        if group == "newline":
            line += 1
            line_start = start + 1
            continue
        text = m.group()
        column = start - line_start + 1
        if group == "word":
            kind, value = _WORDS.get(text) or (TokenKind.IDENT, text)
            append(Token(kind, text, value, file, line, column))
            continue
        if group == "punct":
            append(Token(_PUNCT[text], text, None, file, line, column))
            continue
        if group == "date":
            try:
                value = date.fromisoformat(text)
            except ValueError:  # the parser reports it where it expects a value
                value = None
            append(Token(TokenKind.DATE, text, value, file, line, column))
            continue
        if group == "integer":
            if len(text) - (text[0] == "-") <= _MAX_INT_DIGITS:
                append(Token(TokenKind.INTEGER, text, int(text), file, line, column))
                continue
            sink.error("E002", "integer literal too long", Span(file, line, column, len(text)))
        elif group == "string":
            printable = text.isprintable()  # false for every control character
            if not printable:
                for bad in _CONTROL_RE.finditer(text):
                    sink.error(
                        "E002",
                        "control character in string literal",
                        Span(file, line, column + bad.start(), 1),
                    )
            if m.group("close"):
                # The lexeme keeps the raw source slice; the decoded text is the value.
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE_RE.sub(r"\1", value)
                if not printable:
                    value = _CONTROL_RE.sub("", value)
                append(Token(TokenKind.STRING, text, value, file, line, column))
            else:
                sink.error("E001", "unterminated string literal", Span(file, line, column, 1))
        elif group == "env":
            name = m.group("env_name")
            if name is not None:
                append(Token(TokenKind.ENV_REF, text, name, file, line, column))
                continue
            sink.error(
                "E002",
                "malformed env() reference (expected env(UPPER_CASE_NAME))",
                Span(file, line, column, 3),
            )
        else:
            sink.error("E002", f"illegal character {text!r}", Span(file, line, column, 1))
        if sink.full:  # stop at the cap; EOF goes right after the token that hit it
            end = m.end()
            break
    else:
        end = len(source)
    tokens.append(Token(TokenKind.EOF, "", None, file, line, end - line_start + 1))
    return tokens


def tokenize(source: str, file: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Split source text into tokens; lexical problems become diagnostics."""
    sink = _Sink()
    tokens = _lex(source, file, sink)
    return tokens, sink.diagnostics


class SourceMap:
    """Maps model paths to the source spans they were parsed from."""

    __slots__ = ("file", "spans")

    def __init__(self, file: str, spans: dict[str, Span] | None = None) -> None:
        self.file = file
        self.spans = {} if spans is None else spans

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SourceMap:
            return NotImplemented
        return self.file == other.file and self.spans == other.spans

    def record(self, path: str, span: Span) -> None:
        self.spans[path] = span

    def span_for(self, path: str) -> Span:
        """Best span for a path, walking up to enclosing constructs."""
        current = path
        while True:
            if current in self.spans:
                return self.spans[current]
            trimmed = re.sub(r"(\.[^.\[\]]+|\[[^\[\]]*\])$", "", current)
            if trimmed == current:
                break
            current = trimmed
        return self.spans.get("", Span(self.file, 1, 1, 0))


class ParseResult(Record):
    ATTRS = ("model", "diagnostics", "source_map")


class _List:
    kind = TokenKind.LBRACKET  # so the binder tells a list from a token by kind
    __slots__ = ("items", "span")

    def __init__(self, items: list[Token], span: Span) -> None:
        self.items = items
        self.span = span


_Value = Token | _List


class _RawBlock:
    __slots__ = ("label", "keyword_span", "fields", "blocks", "roles", "contract")

    def __init__(self, label: str, keyword_span: Span) -> None:
        self.label = label
        self.keyword_span = keyword_span
        self.fields: dict[str, tuple[Token, _Value]] = {}  # key token, value
        self.blocks: dict[str, _RawBlock] = {}
        self.roles: list[tuple[str, Span, _RawBlock]] = []
        self.contract: dict[str, Token] = {}


class _Abort(Exception):
    pass


class _Parser:
    # Every parser reads the cursor as ``self.tokens[self.pos]`` and moves
    # ``pos`` past a token only once its kind is known and is not EOF, so the
    # cursor never runs past the EOF token.
    def __init__(self, tokens: list[Token], file: str, sink: _Sink) -> None:
        self.tokens = tokens
        self.pos = 0
        self.file = file
        self.sink = sink
        self.smap = SourceMap(file)

    def error(self, code: str, message: str, span: Span) -> None:
        self.sink.error(code, message, span)
        if self.sink.full:
            raise _Abort

    # --- error recovery ---------------------------------------------------

    def sync(self) -> None:
        """Skip tokens until a block boundary: '}' at depth 0, a structural
        keyword, or end of input."""
        tokens = self.tokens
        depth = 0
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _EOF:
                return
            if not depth and (kind is _RBRACE or kind is _KEYWORD and tok.lexeme in _STRUCTURAL):
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
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _LBRACE:
                break
            if kind is _EOF or kind is _RBRACE or kind is _KEYWORD and tok.lexeme in _STRUCTURAL:
                return
            self.pos += 1
        depth = 0
        while True:
            kind = tokens[self.pos].kind
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
        line = tok.line
        depth = 0
        while True:
            if tok.kind is _LBRACE:
                depth += 1
            elif tok.kind is _RBRACE:
                depth -= 1
            self.pos += 1
            tok = tokens[self.pos]
            kind = tok.kind
            if tok.line != line or kind is _EOF or (kind is _RBRACE and not depth):
                return
            if kind is _KEYWORD and tok.lexeme in _STRUCTURAL:
                return

    def skip_stray(self) -> None:
        """After an error in a field entry, skip the line of the token it
        stopped at, unless the block loop can resume there: at a field name,
        a keyword, '}' or end of input.  At any other token the loop would
        only report a second E003 and skip that line itself."""
        if self.tokens[self.pos].kind not in _RESUME_KINDS:
            self.skip_line()

    def skip_contract_stray(self, key_line: int) -> None:
        """After an error in a contract entry, skip the rest of its key's line,
        unless the entry stopped at a later line, '}', a keyword or end of
        input.  A contract key is a string, and a string left on the key's
        line would only start a second bad entry."""
        tok = self.tokens[self.pos]
        if tok.line == key_line and tok.kind not in _CONTRACT_RESUME_KINDS:
            self.skip_line()

    # --- raw block parsing ------------------------------------------------

    def parse_raw_block(self, label: str, keyword_span: Span) -> _RawBlock:
        raw = _RawBlock(label, keyword_span)
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind is not _LBRACE:
            self.error(
                "E003", f"expected '{{' to open the {label} block, got {tok.describe()}", tok.span
            )
            self.sync()
            return raw
        self.pos += 1
        allowed = _SUBBLOCKS.get(label, frozenset())
        contract = label == "contract"
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _IDENT and not contract:  # most entries are `key: value`
                self.parse_field_entry(raw)
                continue
            if kind is _RBRACE:
                self.pos += 1
                return raw
            if kind is _EOF:
                self.error("E003", f"unexpected end of file inside {label} block", tok.span)
                return raw
            if kind is _KEYWORD:
                word = tok.lexeme
                if word in _STRUCTURAL:
                    self.error("E003", f"missing '}}' before {tok.describe()}", tok.span)
                    return raw
                if word == "role" and label == "roles":
                    self.pos += 1
                    self.parse_role_entry(raw)
                    continue
                if word in allowed:
                    self.pos += 1
                    sub = self.parse_raw_block(word, tok.span)
                    if word in raw.blocks:
                        self.error("E015", f"duplicate {word} block", tok.span)
                    else:
                        raw.blocks[word] = sub
                    continue
                if word in _SUBBLOCKS:
                    self.error("E010", f"unknown block '{word}' in {label} block", tok.span)
                    self.pos += 1
                    self.skip_balanced_block()
                    continue
            if contract:
                if kind is _STRING:
                    self.parse_contract_entry(raw)
                    continue
                self.error(
                    "E003", f"expected a quoted contract key or '}}', got {tok.describe()}", tok.span
                )
                self.skip_line()
                continue
            self.error(
                "E003",
                f"expected a field name or '}}' in {label} block, got {tok.describe()}",
                tok.span,
            )
            self.skip_line()

    def parse_field_entry(self, raw: _RawBlock) -> None:
        key_tok = self.tokens[self.pos]
        self.pos += 1
        tok = self.tokens[self.pos]
        if tok.kind is not _COLON:
            self.error("E003", f"expected ':' after field name '{key_tok.lexeme}'", tok.span)
            self.skip_stray()
            return
        self.pos += 1
        value = self.parse_value()
        if value is None:
            self.skip_stray()
            return
        key = key_tok.lexeme
        if key in raw.fields:
            self.error("E015", f"duplicate field '{key}'", key_tok.span)
            return
        raw.fields[key] = (key_tok, value)

    def parse_contract_entry(self, raw: _RawBlock) -> None:
        key_tok = self.tokens[self.pos]
        self.pos += 1
        tok = self.tokens[self.pos]
        if tok.kind is not _COLON:
            self.error("E003", "expected ':' after contract key", tok.span)
            self.skip_contract_stray(key_tok.line)
            return
        self.pos += 1
        value = self.parse_scalar()
        if value is None:
            self.skip_contract_stray(key_tok.line)
            return
        if self.tokens[self.pos].kind is _COMMA:
            self.pos += 1
        key = key_tok.value
        if key in raw.contract:
            self.error("E015", f"duplicate contract key \"{key}\"", key_tok.span)
            return
        raw.contract[key] = value

    def parse_role_entry(self, raw: _RawBlock) -> None:
        name_tok = self.tokens[self.pos]
        if name_tok.kind is not _IDENT:
            self.error(
                "E003", f"expected a role name, got {name_tok.describe()}", name_tok.span
            )
            self.skip_balanced_block()
            return
        self.pos += 1
        body = self.parse_raw_block("role", name_tok.span)
        raw.roles.append((name_tok.lexeme, name_tok.span, body))

    def parse_value(self) -> _Value | None:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _LBRACKET:
            return self.parse_list()
        if kind is _ENV_REF:
            self.pos += 1
            return tok
        return self.parse_scalar()

    def parse_scalar(self) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind in _SCALAR_KINDS:
            self.pos += 1
            if tok.value is None:
                self.error("E014", f"invalid calendar date '{tok.lexeme}'", tok.span)
            return tok
        self.error("E003", f"expected a value, got {tok.describe()}", tok.span)
        return None

    def parse_list(self) -> _List | None:
        tokens = self.tokens
        span = tokens[self.pos].span
        self.pos += 1
        items: list[Token] = []
        while True:
            kind = tokens[self.pos].kind
            if kind is _RBRACKET:
                self.pos += 1
                return _List(items, span)
            if kind is _EOF or kind is _RBRACE:
                self.error("E003", "unterminated list (missing ']')", span)
                return _List(items, span)
            item = self.parse_scalar()
            if item is None:
                self.pos += 1
                continue
            items.append(item)
            if tokens[self.pos].kind is _COMMA:
                self.pos += 1

    # --- document ---------------------------------------------------------

    def parse_document(self) -> ConnectorModel | None:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind is not _KEYWORD or tok.lexeme != "connector":
            self.error("E011", "expected 'connector'", tok.span)
            return None
        connector_span = tok.span
        self.smap.record("", connector_span)
        self.pos += 1

        name: str | None = None
        tok = tokens[self.pos]
        if tok.kind is _STRING:
            self.pos += 1
            name = tok.value
            if not NAME_RE.fullmatch(name):
                self.error("E014", f"invalid connector name {name!r}", tok.span)
                name = None
            else:
                self.smap.record("name", tok.span)
        else:
            self.error("E003", f"expected a quoted connector name, got {tok.describe()}", tok.span)

        sections: dict[str, tuple[_RawBlock, str | None]] = {}
        tok = tokens[self.pos]
        if tok.kind is _LBRACE:
            self.pos += 1
        else:
            self.error("E003", f"expected '{{', got {tok.describe()}", tok.span)
            self.sync()
        closed = False
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _RBRACE:
                self.pos += 1
                closed = True
                break
            if kind is _EOF:
                self.error("E003", "unexpected end of file inside connector block", tok.span)
                break
            if kind is _KEYWORD and tok.lexeme in SECTION_KEYWORDS:
                self.pos += 1
                variant = None
                if tok.lexeme == "usage":
                    variant_tok = tokens[self.pos]
                    if variant_tok.kind is _KEYWORD and variant_tok.lexeme in VARIANTS:
                        self.pos += 1
                        variant = variant_tok.lexeme
                    else:
                        self.error(
                            "E003",
                            "expected usage variant 'edc', 'opcua', or 'plain'",
                            variant_tok.span,
                        )
                raw = self.parse_raw_block(tok.lexeme, tok.span)
                if tok.lexeme in sections:
                    self.error("E012", f"duplicate {tok.lexeme} block", tok.span)
                else:
                    sections[tok.lexeme] = (raw, variant)
                continue
            if kind is _KEYWORD and tok.lexeme == "connector":
                self.error("E003", "missing '}' before 'connector'", tok.span)
                break
            self.error(
                "E003",
                f"expected a section (discovery, metadata, usage, access), got {tok.describe()}",
                tok.span,
            )
            self.sync()
            if tokens[self.pos].kind is _RBRACE:
                self.pos += 1
                closed = True
                break

        if closed:
            trailing = tokens[self.pos]
            if trailing.kind is _KEYWORD and trailing.lexeme == "connector":
                self.error(
                    "E013", "multiple connector blocks in one file (only one allowed)", trailing.span
                )
            elif trailing.kind is not _EOF:
                self.error(
                    "E003",
                    f"unexpected content after connector block: {trailing.describe()}",
                    trailing.span,
                )

        for section in SECTION_KEYWORDS:
            if section not in sections:
                self.error("E011", f"missing required section '{section}'", connector_span)

        values: dict[str, object] = {}
        for spec in ConnectorModel.FIELDS:
            if spec.key not in sections:
                continue
            raw, variant = sections[spec.key]
            if spec.cls is UsageConfig:
                values[spec.attr] = self.bind_usage(raw, variant)
            else:
                values[spec.attr] = self.bind(spec.cls, raw, spec.key, spec.key)

        if name is None or len(sections) < len(SECTION_KEYWORDS) or None in values.values():
            return None
        return ConnectorModel(name=name, **values)

    # --- binding ----------------------------------------------------------

    def bind(self, cls: type, raw: _RawBlock, label: str, path: str, **extra: object) -> object:
        """Bind a raw block against the table rows of ``cls``; None on any error."""
        values = _Binder(self, raw, label, path, cls.FIELDS).bind()
        return None if values is None else cls(**extra, **values)

    def bind_usage(self, raw: _RawBlock, variant: str | None) -> UsageConfig | None:
        if variant is None:
            return None
        extension = VARIANTS[variant]
        rows = UsageConfig.FIELDS + extension.FIELDS
        values = _Binder(self, raw, f"{variant} usage", "usage", rows).bind()
        if values is None:
            return None
        ext_values = {
            spec.attr: values.pop(spec.attr) for spec in extension.FIELDS if spec.attr in values
        }
        return UsageConfig(extension=extension(**ext_values), **values)


class _Binder:
    """Binds the fields and blocks of one raw block against table rows.

    Every problem becomes a diagnostic; ``bind`` returns the attribute
    values of the rows present, or None when any of them failed.
    """

    def __init__(
        self, parser: _Parser, raw: _RawBlock, label: str, path: str, rows: tuple[FieldSpec, ...]
    ) -> None:
        self.parser = parser
        self.raw = raw
        self.label = label
        self.path = path
        self.rows = rows
        self.values: dict[str, object] = {}
        self.ok = True

    def bind(self) -> dict[str, object] | None:
        found = 0
        for spec in self.rows:
            if spec.kind in BLOCK_KINDS:
                entry = self.raw.blocks.get(spec.key)
                if entry is not None:
                    self.parser.smap.record(f"{self.path}.{spec.key}", entry.keyword_span)
            else:
                entry = self.raw.fields.get(spec.key)
                if entry is not None:
                    entry = entry[1]
                elif spec.required:
                    self._fail(
                        "E011",
                        f"missing required field '{spec.key}' in {self.label} block",
                        self.raw.keyword_span,
                    )
            if entry is not None:
                found += 1
                _BIND[spec.kind](self, spec, entry)
        if found < len(self.raw.fields) + len(self.raw.blocks):
            self.report_unknown()
        return self.values if self.ok else None

    def _fail(self, code: str, message: str, span: Span) -> None:
        self.parser.error(code, message, span)
        self.ok = False

    def _set(self, spec: FieldSpec, span: Span, value: object) -> None:
        self.parser.smap.record(f"{self.path}.{spec.key}", span)
        self.values[spec.attr] = value

    def scalar(self, spec: FieldSpec, value: _Value) -> None:
        token_kind, expects = _SCALARS[spec.kind]
        if value.kind is not token_kind:
            if spec.kind == "enum":
                expects = f"one of: {_enum_values(spec.cls)}"
            return self._fail("E014", f"field '{spec.key}' expects {expects}", value.span)
        result = value.value
        if spec.kind == "date" and result is None:  # invalid calendar date, already reported
            self.ok = False
            return
        if spec.kind == "enum":
            try:
                result = spec.cls(result)
            except ValueError:
                return self._fail(
                    "E014",
                    f"invalid value '{value.value}' for field '{spec.key}' "
                    f"(expected one of: {_enum_values(spec.cls)})",
                    value.span,
                )
        if spec.nonempty and not result:
            return self._fail("E014", f"field '{spec.key}' must be non-empty", value.span)
        if spec.minimum is not None and result < spec.minimum:
            return self._fail("E014", f"field '{spec.key}' must be >= {spec.minimum}", value.span)
        self._set(spec, value.span, result)

    def string_list(self, spec: FieldSpec, value: _Value) -> None:
        if value.kind is not _LBRACKET:
            return self._fail("E014", f"field '{spec.key}' expects a list of strings", value.span)
        items: list[str] = []
        for index, item in enumerate(value.items):
            if item.kind is not TokenKind.STRING:
                self._fail("E014", f"entries of '{spec.key}' must be quoted strings", item.span)
                continue
            items.append(item.value)
            self.parser.smap.record(f"{self.path}.{spec.key}[{index}]", item.span)
        if len(items) == len(value.items):
            self._set(spec, value.span, tuple(items))

    def enum_list(self, spec: FieldSpec, value: _Value) -> None:
        if value.kind is not _LBRACKET:
            return self._fail(
                "E014",
                f"field '{spec.key}' expects a list of: {_enum_values(spec.cls)}",
                value.span,
            )
        members: list[Enum] = []
        bad = False
        for index, item in enumerate(value.items):
            if item.kind is not TokenKind.IDENT:
                self._fail(
                    "E014",
                    f"entries of '{spec.key}' must be one of: {_enum_values(spec.cls)}",
                    item.span,
                )
                bad = True
                continue
            try:
                member = spec.cls(item.value)
            except ValueError:
                self._fail(
                    "E014",
                    f"invalid value '{item.value}' in '{spec.key}' "
                    f"(expected one of: {_enum_values(spec.cls)})",
                    item.span,
                )
                bad = True
                continue
            # A unique list holds each member at most once, so this scan is bounded
            # by the size of the enum.
            if spec.unique and member in members:
                self._fail("E015", f"duplicate entry '{item.value}' in '{spec.key}'", item.span)
                bad = True
                continue
            members.append(member)
            self.parser.smap.record(f"{self.path}.{spec.key}[{index}]", item.span)
        if spec.nonempty and not value.items:
            return self._fail("E014", f"field '{spec.key}' must not be empty", value.span)
        if not bad:
            self._set(spec, value.span, tuple(members))

    def secret(self, spec: FieldSpec, value: _Value) -> None:
        if value.kind is _ENV_REF:
            self._set(spec, value.span, SecretEnvVar(value.value))
        elif value.kind is _STRING:
            self._set(spec, value.span, SecretLiteral(value.value))
        else:
            self._fail(
                "E014",
                f"field '{spec.key}' expects a quoted string or env(NAME) reference",
                value.span,
            )

    def sub_block(self, spec: FieldSpec, raw: _RawBlock) -> None:
        value = self.parser.bind(spec.cls, raw, spec.key, f"{self.path}.{spec.key}")
        if value is None:
            self.ok = False
        else:
            self.values[spec.attr] = value

    def contract(self, spec: FieldSpec, raw: _RawBlock) -> None:
        offers: dict[str, ContractValue] = {}
        for key, tok in raw.contract.items():
            if tok.kind is _IDENT:
                self._fail(
                    "E014",
                    "contract values must be a string, integer, date, or boolean",
                    tok.span,
                )
                continue
            if tok.value is None:  # invalid calendar date, already reported
                self.ok = False
                continue
            offers[key] = tok.value
            self.parser.smap.record(f"{self.path}.{spec.key}.{key}", tok.span)
        self.values[spec.attr] = offers

    def roles(self, spec: FieldSpec, raw: _RawBlock) -> None:
        roles: list[Role] = []
        for name, name_span, body in raw.roles:
            if not NAME_RE.fullmatch(name):
                self._fail("E014", f"invalid role name {name!r}", name_span)
                continue
            path = f"{self.path}.{spec.key}[{name}]"
            self.parser.smap.record(path, name_span)
            role = self.parser.bind(spec.cls, body, f"role {name}", path, role_name=name)
            if role is None:
                self.ok = False
            else:
                roles.append(role)
        # A roles block holds only `role NAME { ... }` entries.
        for key, (key_tok, _) in raw.fields.items():
            self._fail("E010", f"unknown field '{key}' in {spec.key} block", key_tok.span)
        self.values[spec.attr] = tuple(roles)

    def report_unknown(self) -> None:
        blocks = {spec.key for spec in self.rows if spec.kind in BLOCK_KINDS}
        fields = {spec.key for spec in self.rows} - blocks
        for key, (key_tok, _) in self.raw.fields.items():
            if key not in fields:
                self._fail("E010", f"unknown field '{key}' in {self.label} block", key_tok.span)
        for name, sub in self.raw.blocks.items():
            if name not in blocks:
                self._fail(
                    "E010", f"unknown block '{name}' in {self.label} block", sub.keyword_span
                )


# Scalar kinds: the token kind each accepts and what the E014 message says it expects.
_SCALARS = {
    "str": (TokenKind.STRING, "a quoted string"),
    "date": (TokenKind.DATE, "a date (YYYY-MM-DD)"),
    "int": (TokenKind.INTEGER, "an integer"),
    "bool": (TokenKind.BOOLEAN, "true or false"),
    "enum": (TokenKind.IDENT, None),
}

_BIND = {
    **{kind: _Binder.scalar for kind in _SCALARS},
    "str-list": _Binder.string_list,
    "enum-list": _Binder.enum_list,
    "secret": _Binder.secret,
    "sub-block": _Binder.sub_block,
    "contract": _Binder.contract,
    "roles": _Binder.roles,
}


def _enum_values(enum_type: type[Enum]) -> str:
    return ", ".join(member.value for member in enum_type)


def parse(source: str, file: str = "<input>") -> ParseResult:
    """Parse DSL text into a model; all problems are reported as diagnostics.

    The returned model is present exactly when no ERROR-severity diagnostic
    was produced.  Identical input always yields an identical result.
    """
    sink = _Sink()
    tokens = _lex(source, file, sink)
    parser = _Parser(tokens, file, sink)
    model: ConnectorModel | None = None
    if not sink.full:
        try:
            model = parser.parse_document()
        except _Abort:
            model = None
    if sink.diagnostics:  # the sink holds only errors
        model = None
    diagnostics = sink.diagnostics
    # Binding reports in declaration order; present findings in source order.
    # A trailing E099 marks truncation and stays last.
    tail = []
    if diagnostics and diagnostics[-1].code == "E099":
        tail = [diagnostics[-1]]
        diagnostics = diagnostics[:-1]
    diagnostics = sorted(diagnostics, key=lambda d: d.span.sort_key()) + tail
    return ParseResult(model=model, diagnostics=diagnostics, source_map=parser.smap)
