import time

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


def kinds(tokens):
    return [t.kind for t in tokens]


def errors(result):
    return [d for d in result.diagnostics if d.severity is Severity.ERROR]


def codes(result):
    return [d.code for d in result.diagnostics]


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

    def test_booleans(self):
        tokens, _ = tokenize("cloudPush: true x: false")
        assert tokens[2].kind is TokenKind.BOOLEAN and tokens[2].value is True
        assert tokens[5].value is False


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
