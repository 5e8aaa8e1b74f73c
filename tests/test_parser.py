import sys
import time
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsx import (
    EdcUsage,
    IdentifierType,
    Severity,
    TokenKind,
    parse,
    tokenize,
)

from conftest import fixture_text


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


class TestParseBasics:
    def test_case_study_fixture(self):
        result = parse(fixture_text("production-machine.dsx"), "production-machine.dsx")
        assert result.diagnostics == []
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
        assert result.diagnostics == []
        assert result.model is not None

    def test_trailing_commas_allowed(self):
        text = fixture_text("machine-opcua.dsx").replace(
            "protocols: [OPC_TCP, MQTT]", "protocols: [OPC_TCP, MQTT,]"
        )
        result = parse(text, "trailing.dsx")
        assert result.diagnostics == []


class TestParseErrors:
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
        result = parse("?" * 500, "spam.dsx")
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
        assert result.diagnostics == []


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
