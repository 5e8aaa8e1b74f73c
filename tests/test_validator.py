import re
from datetime import date

import pytest

import dsx.model
from dsx import Severity, check_single, parse, validate
from dsx.validator import _FORMS
from modelgen import build_model

from conftest import FIXTURES, FIXTURE_TODAY, fixture_text, parse_fixture

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

    @pytest.mark.parametrize(
        "name, field, url",
        [
            ("production-machine.dsx", "baseUrl", "https://[assets.example"),
            ("production-machine.dsx", "baseUrl", "https://a]b/"),
            ("production-machine.dsx", "baseUrl", "https://exa\uff03mple.com/x"),
            ("machine-opcua.dsx", "endpointUrl", "opc.tcp://m[1:4840"),
        ],
    )
    def test_url_that_urlsplit_refuses_is_not_absolute(self, name, field, url):
        # urlsplit raises ValueError on an unbalanced bracket and on a host
        # whose NFKC form holds a URL delimiter ('\uff03' becomes '#').
        lines = fixture_text(name).splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if line.lstrip().startswith(f"{field}:"))
        head = lines[index].partition('"')[0]
        lines[index] = f'{head}"{url}"\n'
        result = parse("".join(lines), "bad-url.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert [d.code for d in report.diagnostics] == ["E201"]
        span = report.diagnostics[0].span
        assert (span.line, span.column, span.length) == (index + 1, len(head) + 1, len(url) + 2)


# One case per validator-checked field value: (row class, DSL key, flagship,
# literal to replace, replacement, binder path of the broken value, code).
_PM, _OPC = "production-machine.dsx", "machine-opcua.dsx"
_PM_REGISTRY = '"https://registry.factory-x.example/did"'
_PM_SEMANTIC_ID = '"https://admin-shell.io/idta/machinery/1/0/MachineryData"'
VALUE_CASES = [
    ("IdentificationData", "baseUrl", _PM, '"https://assets.machinebuilder.example"',
     '"assets.machinebuilder.example"', "discovery.baseUrl", "E201"),
    ("AssetMetaData", "semanticIds", _PM, _PM_SEMANTIC_ID, '"MachineryData"',
     "metadata.semanticIds[0]", "E209"),
    ("AssetMetaData", "semanticIds", _PM, _PM_SEMANTIC_ID, f'{_PM_SEMANTIC_ID}, "urn:x", "no iri"',
     "metadata.semanticIds[2]", "E209"),
    ("AssetMetaData", "language", _PM, 'language: "en"', 'language: "eng"',
     "metadata.language", "E208"),
    ("UsageConfig", "dataAddress", _PM, '"https://edge.machinebuilder.example/lines/7/telemetry"',
     '"ftp://edge.machinebuilder.example/telemetry"', "usage.dataAddress", "E201"),
    ("UsageConfig", "schemaAddress", _OPC, '"https://edge.machinebuilder.example/mill-001/schema"',
     '"/mill-001/schema"', "usage.schemaAddress", "E201"),
    ("EdcUsage", "edcAddress", _PM, '"https://edc.machinebuilder.example"',
     '"https://edc machinebuilder.example"', "usage.edcAddress", "E201"),
    ("EdcUsage", "remoteAddress", _PM, '"https://dsp.partner.example/api/dsp"',
     '"https://"', "usage.remoteAddress", "E201"),
    ("EdcUsage", "remoteId", _PM, '"BPNL000000000MB7"', '"BPNL000000000mb7"',
     "usage.remoteId", "E202"),
    ("EdcUsage", "stsServiceAddress", _PM, '"https://sts.machinebuilder.example/token"',
     '"opc.tcp://sts.machinebuilder.example"', "usage.stsServiceAddress", "E201"),
    ("EdcUsage", "trustedDidRegistries", _PM, _PM_REGISTRY, '"registry"',
     "usage.trustedDidRegistries[0]", "E201"),
    ("EdcUsage", "trustedDidRegistries", _PM, _PM_REGISTRY, f'{_PM_REGISTRY}, "http:/x"',
     "usage.trustedDidRegistries[1]", "E201"),
    ("PushEndpointsConfig", "callbackUrl", _PM,
     '"https://edge.machinebuilder.example/lines/7/push"', '""', "usage.push.callbackUrl", "E201"),
    ("OpcUaUsage", "endpointUrl", _OPC, '"opc.tcp://machine-001.factory:4840"',
     '"http://machine-001.factory:4840"', "usage.endpointUrl", "E201"),
    ("OpcUaUsage", "companionSpecs", _OPC, '"https://opcfoundation.org/UA/Machinery/"',
     '"Machinery"', "usage.companionSpecs[0]", "E201"),
    ("OpcUaUsage", "companionSpecs", _OPC, '"https://opcfoundation.org/UA/MachineTool/"',
     '"opc.tcp://opcfoundation.org/UA/MachineTool/"', "usage.companionSpecs[1]", "E201"),
    ("AccessPolicy", "usagePolicy", _PM, '"https://w3id.org/factory-x/policy/monitoring-only"',
     '"monitoring only"', "access.usagePolicy", "W210"),
    ("IdentityProviderConfig", "endpoint", _PM,
     '"https://idp.machinebuilder.example/realms/factory/token"', '"idp/token"',
     "access.identity.endpoint", "E201"),
]


@pytest.mark.parametrize(
    "row, key, name, old, new, path, code",
    VALUE_CASES,
    ids=[case[5] for case in VALUE_CASES],
)
def test_broken_value_is_reported_at_its_binder_path(row, key, name, old, new, path, code):
    text = fixture_text(name)
    assert text.count(old) == 1
    result = parse(text.replace(old, new), name)
    assert result.model is not None, result.diagnostics
    report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
    assert [d.code for d in report.diagnostics] == [code]
    assert report.diagnostics[0].span == result.source_map.spans[path]
    assert check_single(result.model, code, result.source_map, today=FIXTURE_TODAY) == list(
        report.diagnostics
    )


def test_every_row_with_a_form_has_value_cases():
    formed = {
        (cls.__name__, spec.key): spec.kind
        for cls in vars(dsx.model).values()
        if isinstance(cls, type) and "FIELDS" in vars(cls)
        for spec in cls.FIELDS
        if spec.form is not None
    }
    assert set(formed) == {(row, key) for row, key, *_ in VALUE_CASES}
    # A list row has a case for its first item and for a later one.
    indices = {}
    for row, key, _, _, _, path, _ in VALUE_CASES:
        if path.endswith("]"):
            indices.setdefault((row, key), set()).add(int(path[path.rindex("[") + 1 : -1]))
    assert set(indices) == {row for row, kind in formed.items() if kind == "str-list"}
    assert all(0 in found and max(found) > 0 for found in indices.values())


class TestValidUntil:
    def test_date_scalar_is_accepted(self, sensor_idlink):
        text = fixture_text("sensor-idlink.dsx").replace('"2030-06-30"', "2030-06-30")
        result = parse(text, "datescalar.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert report.diagnostics == ()

    @pytest.mark.parametrize("value", ["20261231", "2026-W53-1"])
    def test_only_the_extended_calendar_form_is_a_date(self, value):
        # From Python 3.11 on, date.fromisoformat accepts these forms too.
        text = fixture_text("production-machine.dsx").replace('"2026-12-31"', f'"{value}"')
        result = parse(text, "basic-form.dsx")
        report = validate(result.model, result.source_map, today=date(2027, 6, 1))
        assert [d.code for d in report.diagnostics] == ["E204"]
        assert not report.valid

    @pytest.mark.parametrize("value", ["true", "5"])
    def test_a_value_that_is_not_a_string_is_spelled_as_written(self, value):
        text = fixture_text("production-machine.dsx").replace('"2026-12-31"', value)
        result = parse(text, "scalar.dsx")
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        assert [(d.code, d.message) for d in report.diagnostics] == [
            ("E204", f'"validUntil" value {value} is not an ISO 8601 date')
        ]

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


# A diagnostic is made by the parser's error and _fail calls, by the
# validator's report calls, by the lexer's and _capped's Diagnostic calls,
# and by the validator's value forms, whose codes its _FORMS table holds.
_EMITTED_RE = re.compile(r'\b(?:error|report|_fail|Diagnostic)\(\s*"([EW]\d{3})"')


def test_readme_code_table_lists_exactly_the_emitted_codes():
    root = FIXTURES.parent
    emitted = set()
    for path in (root / "src" / "dsx").glob("*.py"):
        emitted.update(_EMITTED_RE.findall(path.read_text(encoding="utf-8")))
    emitted.update(code for code, _, _ in _FORMS.values())
    readme = (root / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Diagnostic codes\n", 1)[1].split("\n## ", 1)[0]
    documented = [
        code
        for row in table.splitlines()
        if row.startswith("| ")
        for code in re.findall(r"[EW]\d{3}", row.split("|")[1])
    ]
    assert sorted(documented) == sorted(emitted)


def test_the_parser_emits_only_error_codes():
    # parse drops the model whenever it reports a diagnostic.
    source = (FIXTURES.parent / "src" / "dsx" / "parser.py").read_text(encoding="utf-8")
    emitted = set(_EMITTED_RE.findall(source))
    assert "E099" in emitted and {code[0] for code in emitted} == {"E"}
