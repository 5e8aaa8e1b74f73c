"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import random
import shutil
import time
from datetime import date

import jsonschema
import pytest

import dsx
from dsx import (
    Severity,
    Target,
    check_single,
    generate_all,
    join_idlink,
    parse,
    print_canonical,
    validate,
)
from dsx.cli import main
from modelgen import build_model

from conftest import FIXTURE_EPOCH, FIXTURES, FIXTURE_TODAY, fixture_text, parse_fixture

pytestmark = pytest.mark.acceptance


def test_case_study_fixture_full_pipeline():
    """The flagship fixture parses, validates, and generates in under 1s."""
    started = time.perf_counter()
    source = fixture_text("production-machine.dsx")
    result = parse(source, "production-machine.dsx")
    assert result.diagnostics == ()
    model = result.model

    assert isinstance(model.usage.extension, dsx.EdcUsage)
    assert model.identification.linked_asset_id
    assert model.metadata.title and model.metadata.description
    assert model.metadata.publisher and model.metadata.version
    assert model.usage.extension.push_endpoints is not None
    assert model.access.contract_offers["validUntil"] == "2026-12-31"
    assert '"validUntil": "2026-12-31"' in source
    assert [r.role_name for r in model.access.roles] == ["operator", "partner"]
    assert model.access.identity_provider is not None
    assert model.access.oauth is not None

    report = validate(model, result.source_map, today=FIXTURE_TODAY)
    assert report.valid and report.diagnostics == ()

    assert len(generate_all(model, {Target.EDC}, report).artifacts) == 3
    assert len(generate_all(model, {Target.IDLINK_AAS}, report).artifacts) == 2
    assert time.perf_counter() - started < 1.0


def test_metamodel_type_coverage():
    """One model type per unifying-metamodel class; fixtures exercise all fields."""
    core_types = [
        dsx.IdentificationData,
        dsx.AssetMetaData,
        dsx.UsageConfig,
        dsx.EdcUsage,
        dsx.OpcUaUsage,
        dsx.PushEndpointsConfig,
        dsx.AccessPolicy,
        dsx.Role,
        dsx.IdentityProviderConfig,
        dsx.OAuthInfo,
    ]
    assert len({t.__name__ for t in core_types}) == 10
    for model_type in core_types:
        assert model_type is getattr(dsx, model_type.__name__)

    opcua = parse_fixture("machine-opcua.dsx").model.usage.extension
    assert opcua.security_policy is dsx.SecurityPolicy.BASIC256_SHA256
    assert opcua.message_security_mode is dsx.MessageSecurityMode.SIGN_AND_ENCRYPT
    assert opcua.protocols == (dsx.Protocol.OPC_TCP, dsx.Protocol.MQTT)
    assert opcua.companion_specs
    assert opcua.qos is not None

    edc = parse_fixture("production-machine.dsx").model.usage.extension
    assert edc.x_api_key == dsx.SecretEnvVar("EDC_API_KEY")
    assert edc.remote_address and edc.remote_id
    assert edc.sts_service_address is not None
    assert edc.push_endpoints is not None

    idlink = parse_fixture("sensor-idlink.dsx").model
    assert idlink.identification.identifier_type is dsx.IdentifierType.SIDI
    assert idlink.identification.base_url and idlink.identification.endpoint
    assert idlink.access.identity_provider.endpoint
    assert idlink.access.identity_provider.secret == dsx.SecretEnvVar("IDP_SECRET")


def test_round_trip_500_models():
    """parse(print(m)) == m and printing is idempotent, for 600 models in <30s."""
    started = time.perf_counter()
    seen_variants = set()
    for index in range(600):
        model = build_model(index)
        seen_variants.add(type(model.usage.extension).__name__)
        text = print_canonical(model)
        result = parse(text, f"gen-{index}.dsx")
        assert result.diagnostics == (), (index, result.diagnostics)
        assert result.model == model, index
        assert print_canonical(result.model) == text, index
    assert seen_variants == {"EdcUsage", "OpcUaUsage", "PlainUsage"}
    assert time.perf_counter() - started < 30.0


SEEDED_MUTATIONS = [
    # (check family, expected code, base fixture, original, replacement, span target)
    ("E201", "E201", "production-machine.dsx",
     '"https://assets.machinebuilder.example"', '"ftp://files.machinebuilder.example"',
     '"ftp://files.machinebuilder.example"'),
    ("E202", "E202", "production-machine.dsx",
     '"BPNL000000000MB7"', '"BPNL123"', '"BPNL123"'),
    ("E203", "E203", "production-machine.dsx",
     "created: 2025-03-01\n    modified: 2025-07-01",
     "created: 2025-07-15\n    modified: 2025-07-01", "2025-07-01"),
    ("E204", "E204", "production-machine.dsx",
     '"validUntil": "2026-12-31"', '"validUntil": "soon"', '"soon"'),
    ("E204", "W204", "production-machine.dsx",
     '"validUntil": "2026-12-31"', '"validUntil": "2020-01-01"', '"2020-01-01"'),
    ("E205", "E205", "production-machine.dsx",
     "role partner {", "role operator {",
     "operator {\n        permissions: [READ]\n"),
    ("E206", "W206", "production-machine.dsx",
     '    stsServiceAddress: "https://sts.machinebuilder.example/token"\n', "", "push {"),
    ("E207", "E207", "machine-opcua.dsx",
     "messageSecurityMode: SignAndEncrypt", "messageSecurityMode: None", "None"),
    ("E207", "W207", "machine-opcua.dsx",
     "authenticationMode: Username", "authenticationMode: Anonymous", "Anonymous"),
    ("E208", "E208", "production-machine.dsx",
     'language: "en"', 'language: "EN"', '"EN"'),
    ("E209", "E209", "production-machine.dsx",
     '"https://admin-shell.io/idta/machinery/1/0/MachineryData"', '"not an iri"',
     '"not an iri"'),
    ("W210", "W210", "production-machine.dsx",
     'usagePolicy: "https://w3id.org/factory-x/policy/monitoring-only"',
     'usagePolicy: "internal monitoring policy"', '"internal monitoring policy"'),
]


def _span_of(text: str, needle: str) -> tuple[int, int]:
    offset = text.index(needle)
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, column


@pytest.mark.parametrize(
    "family,code,fixture,original,replacement,anchor",
    SEEDED_MUTATIONS,
    ids=[f"{family}-{code}" for family, code, *_ in SEEDED_MUTATIONS],
)
def test_seeded_diagnostics(family, code, fixture, original, replacement, anchor):
    """Each diagnostic code has a committed fixture and a fixture mutation
    producing exactly that code at the mutated construct's span."""
    # Committed fixture exists and triggers exactly the code.
    prefix = f"{code.lower()}-"
    committed = [p for p in (FIXTURES / "invalid").iterdir() if p.name.startswith(prefix)]
    assert committed, f"no committed fixture for {code}"
    committed_result = parse_fixture(f"invalid/{committed[0].name}")
    committed_report = validate(
        committed_result.model, committed_result.source_map, today=FIXTURE_TODAY
    )
    assert [d.code for d in committed_report.diagnostics] == [code]

    # Mutating the clean base fixture yields exactly the code at the span.
    base = fixture_text(fixture)
    assert original in base, (fixture, original)
    mutated = base.replace(original, replacement)
    result = parse(mutated, "mutated.dsx")
    assert result.model is not None, result.diagnostics
    report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
    assert [d.code for d in report.diagnostics] == [code]
    expected_line, expected_column = _span_of(mutated, anchor)
    finding = report.diagnostics[0]
    assert (finding.span.line, finding.span.column) == (expected_line, expected_column)

    # check_single agrees with the full run for the owning family.
    assert check_single(result.model, family, result.source_map, today=FIXTURE_TODAY) == list(
        report.diagnostics
    )


def test_generator_determinism_and_schemas(monkeypatch):
    """Double generation is byte-identical; artifacts match committed schemas;
    environment secret values never reach the output."""
    sentinel = "resolved-secret-value-sentinel"
    for name in ("EDC_API_KEY", "IDP_CLIENT_SECRET", "OAUTH_CLIENT_SECRET", "IDP_SECRET"):
        monkeypatch.setenv(name, sentinel)

    jobs = [
        ("production-machine.dsx", {Target.EDC, Target.IDLINK_AAS}, "EDC_API_KEY"),
        ("machine-opcua.dsx", {Target.OPCUA}, None),  # carries no secrets
        ("sensor-idlink.dsx", {Target.IDLINK_AAS}, "IDP_SECRET"),
    ]
    for fixture, targets, expected_placeholder in jobs:
        result = parse_fixture(fixture)
        report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
        first = generate_all(result.model, targets, report)
        second = generate_all(result.model, targets, report)
        assert [(a.relative_path, a.content) for a in first.artifacts] == [
            (a.relative_path, a.content) for a in second.artifacts
        ]
        for artifact in first.artifacts:
            assert sentinel.encode() not in artifact.content
            schema_path = dsx.schema_path_for(artifact)
            if artifact.relative_path.endswith(".json"):
                schema = json.loads(schema_path.read_text(encoding="utf-8"))
                jsonschema.validate(json.loads(artifact.text), schema)
        if expected_placeholder is not None:
            blob = b"".join(a.content for a in first.artifacts)
            assert ("${" + expected_placeholder + "}").encode() in blob


def test_idlink_join_oracle():
    """join_idlink matches plain-concatenation expectations for all 8 cases."""
    clean_base, clean_endpoint, serial = "https://id.example.com", "assets/m1", "SN-0042"
    cases = 0
    for base_slash in ("", "/"):
        for endpoint_slash in ("", "/"):
            for sidi in (False, True):
                expected = f"{clean_base}/{clean_endpoint}" + (f"/{serial}" if sidi else "")
                ident = dsx.IdentificationData(
                    linked_asset_id=serial if sidi else "urn:x:1",
                    base_url=clean_base + base_slash,
                    endpoint=endpoint_slash + clean_endpoint,
                    identifier_type=(
                        dsx.IdentifierType.SIDI if sidi else dsx.IdentifierType.URN
                    ),
                )
                assert join_idlink(ident) == expected
                cases += 1
    assert cases == 8


def test_parser_fuzz_robustness():
    """10,000 random byte inputs: no crash, no hang, always a ParseResult."""
    rng = random.Random(20250809)
    fragments = [
        'connector', 'discovery', 'usage', 'access', '{', '}', '[', ']', ':', ',',
        '"str"', '2025-01-01', 'env(NAME)', '//x', '"', '\\', '\n', 'true', '-', '0',
    ]
    for index in range(10_000):
        if index % 2 == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            source = blob.decode("utf-8", errors="replace")
        else:
            source = "".join(
                rng.choice(fragments) for _ in range(rng.randrange(0, 40))
            )
        started = time.perf_counter()
        result = parse(source, "fuzz.dsx")
        assert time.perf_counter() - started < 1.0
        assert len(result.diagnostics) <= 100
        has_errors = any(d.severity is Severity.ERROR for d in result.diagnostics)
        assert (result.model is None) == has_errors


def test_pipeline_survives_mutated_flagships():
    """3,000 multi-edit mutations of the flagships: parse, print, validate and
    generate_all stay total on whatever each mutation produces."""
    rng = random.Random(20261018)
    sources = [
        fixture_text(f"{stem}.dsx")
        for stem in ("production-machine", "machine-opcua", "sensor-idlink")
    ]
    # '\uff03' is a fullwidth '#', which NFKC turns into a URL delimiter.
    punctuation = ["[", "]", "{", "}", ":", ",", '"', "/", "#", "\uff03", "-", " ", "\n"]
    models = 0
    for index in range(3000):
        source = sources[index % 3]
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(source) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                source = source[:at] + rng.choice(punctuation) + source[at:]
            elif edit == 1:
                source = source[:at] + source[at + rng.randint(1, 12) :]
            else:
                start = rng.randrange(len(source))
                source = source[:at] + source[start : start + rng.randint(1, 40)] + source[at:]
        result = parse(source, "mutant.dsx")
        has_errors = any(d.severity is Severity.ERROR for d in result.diagnostics)
        assert (result.model is None) == has_errors
        model = result.model
        if model is None:
            continue
        models += 1
        text = print_canonical(model)
        reparsed = parse(text, "printed.dsx").model
        assert reparsed == model
        assert print_canonical(reparsed) == text
        report = validate(model, result.source_map, today=FIXTURE_TODAY)
        for target in Target:
            try:
                generate_all(model, {target}, report)
            except dsx.GenerationError:
                pass
    assert models >= 300  # enough mutants reach validate and the generators


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    """End-to-end check/gen/fmt contract on valid, invalid, and mixed batches."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", FIXTURE_EPOCH)
    valid = tmp_path / "production-machine.dsx"
    shutil.copy(FIXTURES / "production-machine.dsx", valid)
    invalid = tmp_path / "bad.dsx"
    shutil.copy(FIXTURES / "invalid" / "e203-date-order.dsx", invalid)
    warned = tmp_path / "warned.dsx"
    shutil.copy(FIXTURES / "invalid" / "w204-expired.dsx", warned)

    # check: 0 valid / 1 invalid / 2 usage-io
    assert main(["check", str(valid)]) == 0
    assert main(["check", str(invalid)]) == 1
    assert main(["check", str(valid), str(invalid)]) == 1
    assert main(["check", "nothing-*.dsx"]) == 2
    assert main(["check", "does-not-exist.dsx"]) == 2
    assert main(["check", str(warned)]) == 0
    assert main(["check", "--fail-on-warning", str(warned)]) == 1

    # gen: valid batch writes, mixed batch writes the valid part only
    assert main(["gen", str(valid), "--out", "out", "--targets", "edc,idlink-aas"]) == 0
    files = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert len(files) == 5
    assert main(["gen", str(valid), str(invalid), "--out", "mixed", "--targets", "edc"]) == 1
    mixed = [p for p in (tmp_path / "mixed").rglob("*") if p.is_file()]
    assert len(mixed) == 3 and all("production-machine" in str(p) for p in mixed)
    assert main(["gen", str(valid), "--out", "o2", "--targets", "opcua"]) == 1
    assert main(["gen", str(valid), "--targets", "edc"]) == 2

    # fmt: canonical fixtures are already formatted; broken files untouched
    assert main(["fmt", "--check", str(valid)]) == 0
    shuffled = tmp_path / "shuffled.dsx"
    text = valid.read_text()
    shuffled.write_text("\n".join(line.strip() for line in text.splitlines()) + "\n")
    assert main(["fmt", "--check", str(shuffled)]) == 1
    assert main(["fmt", str(shuffled)]) == 0
    assert shuffled.read_text() == text
    assert main(["fmt", str(shuffled)]) == 0  # second run is a no-op
    broken = tmp_path / "broken.dsx"
    broken.write_text("connector {")
    assert main(["fmt", str(broken)]) == 1
    assert broken.read_text() == "connector {"
    capsys.readouterr()
