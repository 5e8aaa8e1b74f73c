from datetime import date

import pytest

from dsx import Severity, check_single, parse, validate
from modelgen import build_model

from conftest import FIXTURE_TODAY, fixture_text, parse_fixture

ALL_CHECKS = ["E201", "E202", "E203", "E204", "E205", "E206", "E207", "E208", "E209", "W210"]

SEEDED = {
    "invalid/e201-bad-url.dsx": "E201",
    "invalid/e202-bad-bpn.dsx": "E202",
    "invalid/e203-date-order.dsx": "E203",
    "invalid/e204-bad-validuntil.dsx": "E204",
    "invalid/w204-expired.dsx": "W204",
    "invalid/e205-duplicate-role.dsx": "E205",
    "invalid/w206-hosted-client-push.dsx": "W206",
    "invalid/e207-contradictory-security.dsx": "E207",
    "invalid/w207-anonymous-write.dsx": "W207",
    "invalid/e208-bad-language.dsx": "E208",
    "invalid/e209-bad-semantic-id.dsx": "E209",
    "invalid/w210-vague-policy.dsx": "W210",
}


def report_for(name: str):
    result = parse_fixture(name)
    assert result.model is not None, result.diagnostics
    return validate(result.model, result.source_map, today=FIXTURE_TODAY)


@pytest.mark.parametrize(
    "name", ["production-machine.dsx", "machine-opcua.dsx", "sensor-idlink.dsx"]
)
def test_clean_fixtures_have_no_findings(name):
    report = report_for(name)
    assert report.valid
    assert report.diagnostics == ()


@pytest.mark.parametrize("name,code", sorted(SEEDED.items()))
def test_seeded_fixture_triggers_exactly_its_code(name, code):
    report = report_for(name)
    assert [d.code for d in report.diagnostics] == [code]
    expected_severity = Severity.ERROR if code.startswith("E") else Severity.WARNING
    assert report.diagnostics[0].severity is expected_severity
    assert report.valid == code.startswith("W")


def test_findings_point_into_the_source():
    name = "invalid/e203-date-order.dsx"
    report = report_for(name)
    finding = report.diagnostics[0]
    line = fixture_text(name).splitlines()[finding.span.line - 1]
    assert line[finding.span.column - 1 :].startswith("2025-07-01")


def test_w206_points_at_push_block():
    report = report_for("invalid/w206-hosted-client-push.dsx")
    finding = report.diagnostics[0]
    name = "invalid/w206-hosted-client-push.dsx"
    line = fixture_text(name).splitlines()[finding.span.line - 1]
    assert line[finding.span.column - 1 :].startswith("push")


class TestUrlCheck:
    def test_opcua_endpoint_scheme_is_required(self, machine_opcua):
        text = fixture_text("machine-opcua.dsx").replace(
            "opc.tcp://machine-001.factory:4840", "https://machine-001.factory:4840"
        )
        result = parse(text, "wrong-scheme.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert [d.code for d in report.diagnostics] == ["E201"]
        assert "opc.tcp" in report.diagnostics[0].message

    def test_whitespace_breaks_urls(self, production_machine):
        text = fixture_text("production-machine.dsx").replace(
            "https://edc.machinebuilder.example", "https://edc.machine builder.example"
        )
        result = parse(text, "spaced.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert [d.code for d in report.diagnostics] == ["E201"]


class TestValidUntil:
    def test_date_scalar_is_accepted(self, sensor_idlink):
        text = fixture_text("sensor-idlink.dsx").replace('"2030-06-30"', "2030-06-30")
        result = parse(text, "datescalar.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert report.diagnostics == ()

    def test_past_date_warns_relative_to_today(self, sensor_idlink):
        report = validate(
            sensor_idlink.model, sensor_idlink.source_map, today=date(2031, 1, 1)
        )
        assert [d.code for d in report.diagnostics] == ["W204"]
        assert report.valid  # warnings do not invalidate


class TestCheckSingle:
    def test_clean_fixture_single_check_is_empty(self, production_machine):
        assert check_single(production_machine.model, "E202") == []

    def test_bad_bpn_single_check(self):
        result = parse_fixture("invalid/e202-bad-bpn.dsx")
        findings = check_single(result.model, "E202", result.source_map)
        assert [d.code for d in findings] == ["E202"]

    def test_unknown_code_names_valid_ones(self, production_machine):
        with pytest.raises(ValueError) as excinfo:
            check_single(production_machine.model, "E999")
        for code in ALL_CHECKS:
            assert code in str(excinfo.value)

    def test_union_over_codes_equals_validate(self):
        for index in range(50):
            model = build_model(index)
            combined = []
            for code in ALL_CHECKS:
                combined.extend(check_single(model, code, today=FIXTURE_TODAY))
            report = validate(model, today=FIXTURE_TODAY)
            assert sorted(combined, key=lambda d: (d.span.sort_key(), d.code)) == sorted(
                report.diagnostics, key=lambda d: (d.span.sort_key(), d.code)
            )


class TestReportShape:
    def test_reports_are_deterministic(self, production_machine):
        first = validate(production_machine.model, production_machine.source_map, today=FIXTURE_TODAY)
        second = validate(production_machine.model, production_machine.source_map, today=FIXTURE_TODAY)
        assert first == second

    def test_diagnostics_ordered_by_span(self):
        text = (
            fixture_text("production-machine.dsx")
            .replace('language: "en"', 'language: "EN"')
            .replace('"2026-12-31"', '"soon"')
            .replace("BPNL000000000MB7", "BPNL123")
        )
        result = parse(text, "multi.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert [d.code for d in report.diagnostics] == ["E208", "E202", "E204"]
        positions = [d.span.sort_key() for d in report.diagnostics]
        assert positions == sorted(positions)

    def test_valid_flag_matches_errors(self):
        report = report_for("invalid/e202-bad-bpn.dsx")
        assert not report.valid
        assert len(report.errors) == 1
        assert report.warnings == ()

    def test_validate_without_source_map_uses_fallback_spans(self):
        model = parse_fixture("invalid/e203-date-order.dsx").model
        report = validate(model, today=FIXTURE_TODAY)
        assert [d.code for d in report.diagnostics] == ["E203"]
        assert report.diagnostics[0].span.file == "<model>"


def test_space_pattern_matches_str_isspace_on_every_code_point():
    from dsx.validator import _SPACE_RE

    text = "".join(map(chr, range(0x110000)))
    matched = {m.start() for m in _SPACE_RE.finditer(text)}
    assert matched == {index for index, ch in enumerate(text) if ch.isspace()}
