"""Tokenizer and parser for ``.dsx`` connector description files.

The surface syntax is block-structured::

    connector "name" {
      discovery { ... }
      metadata { ... }
      usage edc|opcua|plain { ... }
      access { ... }
    }

The lexer is one compiled master regex with a named group per token class;
line and column are derived from newline offsets, and each :class:`Token`
builds its :class:`~dsx.model.Span` on first access to ``span``.

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
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Union

from .model import (
    BLOCK_KINDS,
    FIELDS,
    NAME_RE,
    VARIANTS,
    ConnectorModel,
    ContractValue,
    Diagnostic,
    FieldSpec,
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
    pending = [(spec.key, spec.cls) for spec in FIELDS[ConnectorModel]]
    while pending:
        label, cls = pending.pop()
        classes = (UsageConfig, *VARIANTS.values()) if cls is UsageConfig else (cls,)
        rows = [row for c in classes for row in FIELDS.get(c, ()) if row.kind in BLOCK_KINDS]
        table[label] = frozenset(row.key for row in rows)
        for row in rows:
            if row.kind == "roles":  # a roles block holds only `role NAME { ... }` entries
                pending += [(row.key, None), ("role", row.cls)]
            else:
                pending.append((row.key, row.cls))
    return table


_SUBBLOCKS = _subblock_table()

# Block labels, the connector header and usage variants are reserved words.
KEYWORDS = frozenset({"connector", *VARIANTS, *_SUBBLOCKS})

SECTION_KEYWORDS = tuple(spec.key for spec in FIELDS[ConnectorModel])
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
_ESCAPE_RE = re.compile(r'\\(["\\])')
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")

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

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)


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
            append(Token(TokenKind.DATE, text, text, file, line, column))
            continue
        if group == "integer":
            append(Token(TokenKind.INTEGER, text, int(text), file, line, column))
            continue
        if group == "string":
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


@dataclass
class SourceMap:
    """Maps model paths to the source spans they were parsed from."""

    file: str
    spans: dict[str, Span] = field(default_factory=dict)

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


@dataclass
class ParseResult:
    model: ConnectorModel | None
    diagnostics: list[Diagnostic]
    source_map: SourceMap


@dataclass
class _Scalar:
    kind: TokenKind
    value: object
    span: Span


@dataclass
class _List:
    items: list[_Scalar]
    span: Span


@dataclass
class _EnvRef:
    name: str
    span: Span


_Value = Union[_Scalar, _List, _EnvRef]


@dataclass
class _RawBlock:
    label: str
    keyword_span: Span
    fields: dict[str, tuple[Span, _Value]] = field(default_factory=dict)
    blocks: dict[str, "_RawBlock"] = field(default_factory=dict)
    roles: list[tuple[str, Span, "_RawBlock"]] = field(default_factory=list)
    contract: dict[str, tuple[Span, _Scalar]] = field(default_factory=dict)


class _Abort(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[Token], file: str, sink: _Sink) -> None:
        self.tokens = tokens
        self.pos = 0
        self.file = file
        self.sink = sink
        self.smap = SourceMap(file)

    # --- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.lexeme in names

    def error(self, code: str, message: str, span: Span) -> None:
        self.sink.error(code, message, span)
        if self.sink.full:
            raise _Abort

    # --- error recovery ---------------------------------------------------

    def sync(self) -> None:
        """Skip tokens until a block boundary: '}' at depth 0, a structural
        keyword, or end of input."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.EOF:
                return
            if depth == 0:
                if tok.kind is TokenKind.RBRACE:
                    return
                if tok.kind is TokenKind.KEYWORD and tok.lexeme in _STRUCTURAL:
                    return
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
            self.advance()

    def skip_balanced_block(self) -> None:
        """Consume tokens up to and including a balanced '{ ... }'."""
        while not self.at(TokenKind.LBRACE):
            tok = self.peek()
            if tok.kind is TokenKind.EOF or tok.kind is TokenKind.RBRACE:
                return
            if tok.kind is TokenKind.KEYWORD and tok.lexeme in _STRUCTURAL:
                return
            self.advance()
        depth = 0
        while True:
            tok = self.advance()
            if tok.kind is TokenKind.EOF:
                return
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
                if depth == 0:
                    return

    # --- raw block parsing ------------------------------------------------

    def parse_raw_block(self, label: str, keyword_span: Span) -> _RawBlock:
        raw = _RawBlock(label, keyword_span)
        if not self.at(TokenKind.LBRACE):
            self.error(
                "E003",
                f"expected '{{' to open the {label} block, got {self.peek().describe()}",
                self.peek().span,
            )
            self.sync()
            return raw
        self.advance()
        allowed = _SUBBLOCKS.get(label, frozenset())
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.RBRACE:
                self.advance()
                return raw
            if tok.kind is TokenKind.EOF:
                self.error("E003", f"unexpected end of file inside {label} block", tok.span)
                return raw
            if tok.kind is TokenKind.KEYWORD and tok.lexeme in _STRUCTURAL:
                self.error("E003", f"missing '}}' before {tok.describe()}", tok.span)
                return raw
            if tok.kind is TokenKind.KEYWORD and label == "roles" and tok.lexeme == "role":
                self.advance()
                self.parse_role_entry(raw)
                continue
            if tok.kind is TokenKind.KEYWORD and tok.lexeme in allowed:
                self.advance()
                sub = self.parse_raw_block(tok.lexeme, tok.span)
                if tok.lexeme in raw.blocks:
                    self.error("E015", f"duplicate {tok.lexeme} block", tok.span)
                else:
                    raw.blocks[tok.lexeme] = sub
                continue
            if tok.kind is TokenKind.KEYWORD and tok.lexeme in _SUBBLOCKS:
                self.error("E010", f"unknown block '{tok.lexeme}' in {label} block", tok.span)
                self.advance()
                self.skip_balanced_block()
                continue
            if label == "contract":
                if tok.kind is TokenKind.STRING:
                    self.parse_contract_entry(raw)
                    continue
                self.error(
                    "E003",
                    f"expected a quoted contract key or '}}', got {tok.describe()}",
                    tok.span,
                )
                self.advance()
                continue
            if tok.kind is TokenKind.IDENT:
                self.parse_field_entry(raw)
                continue
            self.error(
                "E003",
                f"expected a field name or '}}' in {label} block, got {tok.describe()}",
                tok.span,
            )
            self.advance()

    def parse_field_entry(self, raw: _RawBlock) -> None:
        key_tok = self.advance()
        if not self.at(TokenKind.COLON):
            self.error(
                "E003",
                f"expected ':' after field name '{key_tok.lexeme}'",
                self.peek().span,
            )
            return
        self.advance()
        value = self.parse_value()
        if value is None:
            return
        if key_tok.lexeme in raw.fields:
            self.error("E015", f"duplicate field '{key_tok.lexeme}'", key_tok.span)
            return
        raw.fields[key_tok.lexeme] = (key_tok.span, value)

    def parse_contract_entry(self, raw: _RawBlock) -> None:
        key_tok = self.advance()
        if not self.at(TokenKind.COLON):
            self.error("E003", "expected ':' after contract key", self.peek().span)
            return
        self.advance()
        value = self.parse_scalar()
        if value is None:
            return
        if self.at(TokenKind.COMMA):
            self.advance()
        key = key_tok.value
        if key in raw.contract:
            self.error("E015", f"duplicate contract key \"{key}\"", key_tok.span)
            return
        raw.contract[key] = (key_tok.span, value)

    def parse_role_entry(self, raw: _RawBlock) -> None:
        name_tok = self.peek()
        if name_tok.kind is not TokenKind.IDENT:
            self.error(
                "E003", f"expected a role name, got {name_tok.describe()}", name_tok.span
            )
            self.skip_balanced_block()
            return
        self.advance()
        body = self.parse_raw_block("role", name_tok.span)
        raw.roles.append((name_tok.lexeme, name_tok.span, body))

    def parse_value(self) -> _Value | None:
        tok = self.peek()
        if tok.kind in (
            TokenKind.STRING,
            TokenKind.INTEGER,
            TokenKind.DATE,
            TokenKind.BOOLEAN,
            TokenKind.IDENT,
        ):
            return self.parse_scalar()
        if tok.kind is TokenKind.ENV_REF:
            self.advance()
            return _EnvRef(str(tok.value), tok.span)
        if tok.kind is TokenKind.LBRACKET:
            return self.parse_list()
        self.error("E003", f"expected a value, got {tok.describe()}", tok.span)
        return None

    def parse_scalar(self) -> _Scalar | None:
        tok = self.peek()
        if tok.kind is TokenKind.DATE:
            self.advance()
            try:
                value: object = date.fromisoformat(str(tok.value))
            except ValueError:
                self.error("E014", f"invalid calendar date '{tok.lexeme}'", tok.span)
                value = None
            return _Scalar(TokenKind.DATE, value, tok.span)
        if tok.kind in (TokenKind.STRING, TokenKind.INTEGER, TokenKind.BOOLEAN, TokenKind.IDENT):
            self.advance()
            return _Scalar(tok.kind, tok.value, tok.span)
        self.error("E003", f"expected a value, got {tok.describe()}", tok.span)
        return None

    def parse_list(self) -> _List | None:
        open_tok = self.advance()
        items: list[_Scalar] = []
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.RBRACKET:
                self.advance()
                return _List(items, open_tok.span)
            if tok.kind in (TokenKind.EOF, TokenKind.RBRACE):
                self.error("E003", "unterminated list (missing ']')", open_tok.span)
                return _List(items, open_tok.span)
            scalar = self.parse_scalar()
            if scalar is None:
                self.advance()
                continue
            items.append(scalar)
            if self.at(TokenKind.COMMA):
                self.advance()

    # --- document ---------------------------------------------------------

    def parse_document(self) -> ConnectorModel | None:
        tok = self.peek()
        if not self.at_keyword("connector"):
            self.error("E011", "expected 'connector'", tok.span)
            return None
        connector_span = tok.span
        self.smap.record("", connector_span)
        self.advance()

        name: str | None = None
        if self.at(TokenKind.STRING):
            name_tok = self.advance()
            name = str(name_tok.value)
            if not NAME_RE.fullmatch(name):
                self.error("E014", f"invalid connector name {name!r}", name_tok.span)
                name = None
            else:
                self.smap.record("name", name_tok.span)
        else:
            self.error(
                "E003",
                f"expected a quoted connector name, got {self.peek().describe()}",
                self.peek().span,
            )

        sections: dict[str, tuple[Span, _RawBlock, str | None]] = {}
        if not self.at(TokenKind.LBRACE):
            self.error("E003", f"expected '{{', got {self.peek().describe()}", self.peek().span)
            self.sync()
        else:
            self.advance()
        closed = False
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.RBRACE:
                self.advance()
                closed = True
                break
            if tok.kind is TokenKind.EOF:
                self.error("E003", "unexpected end of file inside connector block", tok.span)
                break
            if tok.kind is TokenKind.KEYWORD and tok.lexeme in SECTION_KEYWORDS:
                self.advance()
                variant = None
                if tok.lexeme == "usage":
                    if self.at_keyword(*VARIANTS):
                        variant = self.advance().lexeme
                    else:
                        self.error(
                            "E003",
                            "expected usage variant 'edc', 'opcua', or 'plain'",
                            self.peek().span,
                        )
                raw = self.parse_raw_block(tok.lexeme, tok.span)
                if tok.lexeme in sections:
                    self.error("E012", f"duplicate {tok.lexeme} block", tok.span)
                else:
                    sections[tok.lexeme] = (tok.span, raw, variant)
                continue
            if tok.kind is TokenKind.KEYWORD and tok.lexeme == "connector":
                self.error("E003", "missing '}' before 'connector'", tok.span)
                break
            self.error(
                "E003",
                f"expected a section (discovery, metadata, usage, access), got {tok.describe()}",
                tok.span,
            )
            self.sync()
            if self.at(TokenKind.RBRACE):
                self.advance()
                closed = True
                break

        if closed:
            trailing = self.peek()
            if trailing.kind is TokenKind.KEYWORD and trailing.lexeme == "connector":
                self.error(
                    "E013", "multiple connector blocks in one file (only one allowed)", trailing.span
                )
            elif trailing.kind is not TokenKind.EOF:
                self.error(
                    "E003",
                    f"unexpected content after connector block: {trailing.describe()}",
                    trailing.span,
                )

        for section in SECTION_KEYWORDS:
            if section not in sections:
                self.error("E011", f"missing required section '{section}'", connector_span)

        values: dict[str, object] = {}
        for spec in FIELDS[ConnectorModel]:
            if spec.key not in sections:
                continue
            _, raw, variant = sections[spec.key]
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
        values = _Binder(self, raw, label, path, FIELDS[cls]).bind()
        return None if values is None else cls(**extra, **values)

    def bind_usage(self, raw: _RawBlock, variant: str | None) -> UsageConfig | None:
        if variant is None:
            return None
        extension = VARIANTS[variant]
        rows = FIELDS[UsageConfig] + FIELDS[extension]
        values = _Binder(self, raw, f"{variant} usage", "usage", rows).bind()
        if values is None:
            return None
        ext_values = {
            spec.attr: values.pop(spec.attr) for spec in FIELDS[extension] if spec.attr in values
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
        if not isinstance(value, _Scalar) or value.kind is not token_kind:
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
        if not isinstance(value, _List):
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
        if not isinstance(value, _List):
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
        if isinstance(value, _EnvRef):
            self._set(spec, value.span, SecretEnvVar(value.name))
        elif isinstance(value, _Scalar) and value.kind is TokenKind.STRING:
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
        for key, (_, scalar) in raw.contract.items():
            if scalar.kind is TokenKind.IDENT:
                self._fail(
                    "E014",
                    "contract values must be a string, integer, date, or boolean",
                    scalar.span,
                )
                continue
            if scalar.value is None:  # invalid calendar date, already reported
                self.ok = False
                continue
            offers[key] = scalar.value
            self.parser.smap.record(f"{self.path}.{spec.key}.{key}", scalar.span)
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
        for key, (key_span, _) in raw.fields.items():
            self._fail("E010", f"unknown field '{key}' in {spec.key} block", key_span)
        self.values[spec.attr] = tuple(roles)

    def report_unknown(self) -> None:
        blocks = {spec.key for spec in self.rows if spec.kind in BLOCK_KINDS}
        fields = {spec.key for spec in self.rows} - blocks
        for key, (key_span, _) in self.raw.fields.items():
            if key not in fields:
                self._fail("E010", f"unknown field '{key}' in {self.label} block", key_span)
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
    if sink.has_errors:
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
