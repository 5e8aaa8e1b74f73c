import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import PurePosixPath

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsx
from dsx import (
    AccessPolicy,
    EdcUsage,
    GeneratedArtifact,
    GenerationBundle,
    GenerationError,
    IdentificationData,
    IdentifierType,
    OpcUaUsage,
    SecretEnvVar,
    Target,
    codegen,
    generate_all,
    join_idlink,
    parse,
    schema_path_for,
    validate,
)
from modelgen import build_model
from test_model import minimal_model

from conftest import FIXTURE_TODAY, fixture_text, parse_fixture


def _opcua_with_identity():
    """The OPC UA flagship with the EDC flagship's identity block, so that the
    OPC UA and ID-Link/AAS generators both accept it."""
    identity = re.search(
        r"^    identity \{\n.*?^    \}\n", fixture_text("production-machine.dsx"), re.M | re.S
    ).group()
    text = fixture_text("machine-opcua.dsx")
    end = text.rindex("  }\n}")  # the end of the access block
    return text[:end] + identity + text[end:]


# Two target sets whose builders all read one access document.
_SHARING_THE_ACCESS_DOCUMENT = pytest.mark.parametrize(
    "source, targets",
    [
        (fixture_text("production-machine.dsx"), {Target.EDC, Target.IDLINK_AAS}),
        (_opcua_with_identity(), {Target.OPCUA, Target.IDLINK_AAS}),
    ],
    ids=["edc-idlink-aas", "opcua-idlink-aas"],
)


def artifact_json(bundle, name):
    artifact = next(a for a in bundle.artifacts if a.relative_path.endswith(name))
    return json.loads(artifact.text)


class TestEdcGeneration:
    def test_three_artifacts(self, production_machine):
        bundle = generate_all(production_machine.model, {Target.EDC})
        assert [a.relative_path for a in bundle.artifacts] == [
            "edc/asset.json",
            "edc/contract.json",
            "edc/policy.json",
        ]
        assert all(a.target is Target.EDC for a in bundle.artifacts)

    def test_valid_until_constraint(self, production_machine):
        policy = artifact_json(generate_all(production_machine.model, {Target.EDC}), "policy.json")
        assert {
            "leftOperand": "validUntil",
            "operator": "eq",
            "rightOperand": "2026-12-31",
        } in policy["constraints"]

    def test_role_constraint_in_definition_order(self, production_machine):
        policy = artifact_json(generate_all(production_machine.model, {Target.EDC}), "policy.json")
        role_constraints = [c for c in policy["constraints"] if c["leftOperand"] == "role"]
        assert role_constraints == [
            {"leftOperand": "role", "operator": "isAnyOf", "rightOperand": ["operator", "partner"]}
        ]

    def test_asset_id_threading(self, production_machine):
        bundle = generate_all(production_machine.model, {Target.EDC})
        asset = artifact_json(bundle, "asset.json")
        policy = artifact_json(bundle, "policy.json")
        contract = artifact_json(bundle, "contract.json")
        assert asset["id"] == production_machine.model.identification.linked_asset_id
        assert contract["assetId"] == asset["id"]
        assert contract["policyId"] == policy["id"] == "production-machine-policy"

    def test_empty_policy_is_still_emitted(self):
        model = minimal_model(
            usage=parse_fixture("production-machine.dsx").model.usage,
            access=AccessPolicy(usage_policy="https://policies.example/p"),
        )
        policy = artifact_json(generate_all(model, {Target.EDC}), "policy.json")
        assert policy["constraints"] == []
        assert policy["permissions"] == {}

    def test_usage_mismatch(self, machine_opcua):
        with pytest.raises(GenerationError, match="usage mismatch"):
            generate_all(machine_opcua.model, {Target.EDC})

    def test_mode_reflects_sts_presence(self, production_machine):
        bundle = generate_all(production_machine.model, {Target.EDC})
        contract = artifact_json(bundle, "contract.json")
        assert contract["connection"]["mode"] == "direct-dsp"
        text = fixture_text("production-machine.dsx").replace(
            '    stsServiceAddress: "https://sts.machinebuilder.example/token"\n', ""
        )
        hosted = parse(text, "hosted.dsx")
        contract = artifact_json(generate_all(hosted.model, {Target.EDC}), "contract.json")
        assert contract["connection"]["mode"] == "hosted-client"
        assert "stsServiceAddress" not in contract["connection"]


class TestOpcUaGeneration:
    def test_three_artifacts(self, machine_opcua):
        bundle = generate_all(machine_opcua.model, {Target.OPCUA})
        assert [a.relative_path for a in bundle.artifacts] == [
            "opcua/catalog.json",
            "opcua/resource.json",
            "opcua/roles.json",
        ]

    def test_endpoint_url_is_verbatim(self, machine_opcua):
        resource = artifact_json(generate_all(machine_opcua.model, {Target.OPCUA}), "resource.json")
        assert resource["endpointUrl"] == "opc.tcp://machine-001.factory:4840"

    def test_security_mode_serialization(self, machine_opcua):
        resource = artifact_json(generate_all(machine_opcua.model, {Target.OPCUA}), "resource.json")
        assert resource["messageSecurityMode"] == "SignAndEncrypt"
        assert resource["securityPolicy"] == "Basic256Sha256"

    def test_protocols_map_to_wire_names(self, machine_opcua):
        resource = artifact_json(generate_all(machine_opcua.model, {Target.OPCUA}), "resource.json")
        assert resource["protocols"] == ["opc.tcp", "mqtt"]

    def test_catalog_projection(self, machine_opcua):
        catalog = artifact_json(generate_all(machine_opcua.model, {Target.OPCUA}), "catalog.json")
        meta = machine_opcua.model.metadata
        assert catalog["title"] == meta.title
        assert catalog["created"] == meta.created.isoformat()
        assert catalog["language"] == meta.language

    def test_usage_mismatch(self, production_machine):
        with pytest.raises(GenerationError, match="usage mismatch"):
            generate_all(production_machine.model, {Target.OPCUA})


class TestIdlinkAasGeneration:
    def test_join_example(self):
        ident = IdentificationData(
            linked_asset_id="SN-0042",
            base_url="https://id.example.com",
            endpoint="assets/m1",
            identifier_type=IdentifierType.SIDI,
        )
        model = minimal_model(
            identification=ident,
            access=AccessPolicy(
                usage_policy="https://policies.example/p",
                identity_provider=parse_fixture("sensor-idlink.dsx").model.access.identity_provider,
            ),
        )
        bundle = generate_all(model, {Target.IDLINK_AAS})
        idlink = next(a for a in bundle.artifacts if a.relative_path == "idlink-aas/idlink.txt")
        assert idlink.text == "https://id.example.com/assets/m1/SN-0042\n"

    def test_missing_identity_provider(self, machine_opcua):
        with pytest.raises(GenerationError, match="identity provider"):
            generate_all(machine_opcua.model, {Target.IDLINK_AAS})

    def test_env_secret_becomes_placeholder(self, sensor_idlink):
        bundle = generate_all(sensor_idlink.model, {Target.IDLINK_AAS})
        security = artifact_json(bundle, "aas-security.json")
        assert security["identityProvider"]["secret"] == "${IDP_SECRET}"

    def test_works_for_any_usage_variant(self, production_machine, sensor_idlink):
        assert len(generate_all(production_machine.model, {Target.IDLINK_AAS}).artifacts) == 2
        assert len(generate_all(sensor_idlink.model, {Target.IDLINK_AAS}).artifacts) == 2


class TestGenerateAll:
    def test_count_oracle_edc_plus_idlink(self, production_machine):
        bundle = generate_all(production_machine.model, {Target.EDC, Target.IDLINK_AAS})
        # 3 EDC artifacts + 2 ID-Link/AAS artifacts, nested per target.
        assert len(bundle.artifacts) == 5
        assert sorted(a.relative_path for a in bundle.artifacts) == [
            "edc/asset.json",
            "edc/contract.json",
            "edc/policy.json",
            "idlink-aas/aas-security.json",
            "idlink-aas/idlink.txt",
        ]

    def test_mismatch_is_an_error(self, production_machine):
        with pytest.raises(GenerationError, match="usage mismatch"):
            generate_all(production_machine.model, {Target.OPCUA})

    def test_no_targets(self, production_machine):
        with pytest.raises(GenerationError, match="no targets requested"):
            generate_all(production_machine.model, set())

    def test_all_failures_reported_together(self, machine_opcua):
        # The OPC UA fixture has no identity provider, so both EDC (wrong
        # variant) and ID-Link/AAS (missing block) fail; both must surface.
        with pytest.raises(GenerationError) as excinfo:
            generate_all(machine_opcua.model, {Target.EDC, Target.IDLINK_AAS})
        assert len(excinfo.value.messages) == 2

    def test_refuses_invalid_models(self):
        result = parse_fixture("invalid/e203-date-order.dsx")
        with pytest.raises(GenerationError, match="E203"):
            generate_all(result.model, {Target.EDC})

    @pytest.mark.parametrize(
        "targets",
        [{Target.EDC, Target.IDLINK_AAS}, set(Target), {Target.OPCUA}],
        ids=["edc,idlink-aas", "all", "opcua"],
    )
    def test_refused_model_is_reported_once(self, targets):
        text = fixture_text("production-machine.dsx").replace(
            'remoteId: "BPNL000000000MB7"', 'remoteId: "bad"'
        )
        model = parse(text, "bad.dsx").model
        with pytest.raises(GenerationError) as excinfo:
            generate_all(model, targets)
        assert excinfo.value.messages == (
            "refusing to generate from a model with validation errors (E202)",
        )

    @pytest.mark.parametrize(
        "fixture, target",
        [
            ("production-machine.dsx", Target.EDC),
            ("machine-opcua.dsx", Target.OPCUA),
            ("sensor-idlink.dsx", Target.IDLINK_AAS),
        ],
    )
    def test_single_target_generator_is_generate_all(self, fixture, target):
        # The benchmark's traced pass times each target by this name.
        generate = getattr(dsx, f"generate_{target.name.lower()}")
        model = parse_fixture(fixture).model
        assert generate(model) == generate_all(model, {target})
        bad = parse(fixture_text(fixture).replace('baseUrl: "https', 'baseUrl: "ftp'), fixture).model
        with pytest.raises(GenerationError, match=r"refusing .* \(E201\)"):
            generate(bad)

    def test_validates_once_without_report(self, production_machine, monkeypatch):
        calls = []

        def counting_validate(model):
            calls.append(model)
            return validate(model)

        monkeypatch.setattr(codegen, "validate", counting_validate)
        generate_all(production_machine.model, {Target.EDC, Target.IDLINK_AAS})
        assert calls == [production_machine.model]

    @_SHARING_THE_ACCESS_DOCUMENT
    def test_builds_the_access_document_once(self, source, targets, monkeypatch):
        model = parse(source).model
        calls = []
        build = codegen._access_document

        def counting_build(access):
            calls.append(access)
            return build(access)

        monkeypatch.setattr(codegen, "_access_document", counting_build)
        bundle = generate_all(model, targets)
        assert calls == [model.access]
        assert {a.target for a in bundle.artifacts} == targets

    @_SHARING_THE_ACCESS_DOCUMENT
    def test_builder_order_does_not_change_the_bytes(self, source, targets, monkeypatch):
        # The builders share one access document, so none may change it.
        model = parse(source).model
        expected = generate_all(model, targets)
        reversed_builders = dict(reversed(codegen._BUILDERS.items()))
        monkeypatch.setattr(codegen, "_BUILDERS", reversed_builders)
        assert generate_all(model, targets) == expected

    def test_builds_each_artifact_once(self, production_machine, monkeypatch):
        checked = []
        check = GeneratedArtifact._check

        def counting_check(artifact):
            checked.append(artifact.relative_path)
            check(artifact)

        monkeypatch.setattr(GeneratedArtifact, "_check", counting_check)
        bundle = generate_all(production_machine.model, {Target.EDC, Target.IDLINK_AAS})
        assert sorted(checked) == [a.relative_path for a in bundle.artifacts]

    def test_accepts_prevalidated_report(self, production_machine):
        report = validate(
            production_machine.model, production_machine.source_map, today=FIXTURE_TODAY
        )
        bundle = generate_all(production_machine.model, {Target.EDC}, report)
        assert len(bundle.artifacts) == 3


class TestDeterminismAndSchemas:
    def all_bundles(self):
        return [
            generate_all(parse_fixture("production-machine.dsx").model, {Target.EDC}),
            generate_all(parse_fixture("machine-opcua.dsx").model, {Target.OPCUA}),
            generate_all(parse_fixture("sensor-idlink.dsx").model, {Target.IDLINK_AAS}),
        ]

    def test_generation_is_byte_deterministic(self):
        for first, second in zip(self.all_bundles(), self.all_bundles()):
            for a, b in zip(first.artifacts, second.artifacts):
                assert a.content == b.content

    def test_artifacts_use_lf_with_trailing_newline(self):
        for bundle in self.all_bundles():
            for artifact in bundle.artifacts:
                assert b"\r" not in artifact.content
                assert artifact.content.endswith(b"\n")

    def test_json_keys_are_sorted(self):
        for bundle in self.all_bundles():
            for artifact in bundle.artifacts:
                if not artifact.relative_path.endswith(".json"):
                    continue
                document = json.loads(artifact.text)
                canonical = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)
                assert artifact.text == canonical + "\n"

    def test_every_json_artifact_matches_its_schema(self):
        for bundle in self.all_bundles():
            for artifact in bundle.artifacts:
                schema_path = schema_path_for(artifact)
                if artifact.relative_path.endswith(".json"):
                    assert schema_path is not None, artifact.relative_path
                    schema = json.loads(schema_path.read_text(encoding="utf-8"))
                    jsonschema.validate(json.loads(artifact.text), schema)
                else:
                    assert schema_path is None

    def test_modelgen_corpus_artifacts_match_their_schemas(self):
        """Every member a generator emits, optional ones included, is in its schema."""
        validators = {}
        artifacts = 0
        for index in range(600):
            model = build_model(index)
            report = validate(model, today=FIXTURE_TODAY)
            if not report.valid:
                continue
            targets = {
                EdcUsage: {Target.EDC},
                OpcUaUsage: {Target.OPCUA},
            }.get(type(model.usage.extension), set())
            if model.access.identity_provider is not None:
                targets.add(Target.IDLINK_AAS)
            for target in targets:
                for artifact in generate_all(model, {target}, report).artifacts:
                    schema_path = schema_path_for(artifact)
                    if schema_path is None:
                        continue
                    if schema_path not in validators:
                        schema = json.loads(schema_path.read_text(encoding="utf-8"))
                        validators[schema_path] = jsonschema.validators.validator_for(schema)(
                            schema
                        )
                    errors = list(validators[schema_path].iter_errors(json.loads(artifact.text)))
                    assert not errors, (index, artifact.relative_path, errors[0].message)
                    artifacts += 1
        assert len(validators) == 7
        assert artifacts == 1508

    def test_env_secret_values_never_leak(self, production_machine, monkeypatch):
        sentinel = "super-secret-sentinel-value"
        for name in ("EDC_API_KEY", "IDP_CLIENT_SECRET", "OAUTH_CLIENT_SECRET"):
            monkeypatch.setenv(name, sentinel)
        bundle = generate_all(production_machine.model, {Target.EDC, Target.IDLINK_AAS})
        blob = b"".join(a.content for a in bundle.artifacts)
        assert sentinel.encode() not in blob
        assert b"${EDC_API_KEY}" in blob
        assert b"${IDP_CLIENT_SECRET}" in blob


# Strings mix arbitrary text with the characters JSON escapes or passes through.
_json_strings = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\t\n\r\b\f", "caf\u00e9", "\U0001f600", "\u2028"]
)
_json_leaves = st.none() | st.booleans() | st.integers() | _json_strings
_json_documents = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_strings, children, max_size=4),
    max_leaves=30,
)


@st.composite
def _object_runs(draw, values=_json_leaves | _json_documents):
    """A list of objects drawn from 1-3 key sets, empty ones mixed in, each
    object inserting its keys in its own order, so shapes repeat and alternate."""
    key_set = st.lists(_json_strings, min_size=1, max_size=4, unique=True)
    key_sets = draw(st.lists(key_set, min_size=1, max_size=3))
    shapes = st.sampled_from(key_sets) | st.just([])
    return [
        {key: draw(values) for key in draw(st.permutations(shape))}
        for shape in draw(st.lists(shapes, min_size=1, max_size=40))
    ]


# Runs at depth, and runs whose members hold runs.
_json_runs = _object_runs() | _object_runs(_object_runs()).map(lambda runs: {"outer": [runs]})


# Flat dicts this size and larger are written by the C encoder in one call.
_FLAT_SIZE = codegen._FLAT_MIN
_flat_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: n * (-1) ** (n % 2))
    | _json_strings
)
_flat_sizes = st.sampled_from([_FLAT_SIZE - 1, _FLAT_SIZE]) | st.integers(_FLAT_SIZE, 300)


def _names_and(value):
    """A dict of N str values, and one more member holding ``value``."""
    return {**{f"k{n:02d}": f"v{n}" for n in range(_FLAT_SIZE)}, "last": value}


@st.composite
def _flat_containers(draw):
    """A dict of leaves or a list of str, N-1, N or up to 300 long."""
    size = draw(_flat_sizes)
    if draw(st.booleans()):
        return draw(st.dictionaries(_json_strings, _flat_leaves, min_size=size, max_size=size))
    return draw(st.lists(_json_strings, min_size=size, max_size=size))


@st.composite
def _placed_flat_containers(draw):
    """A flat container at top level, as a member of the objects of a run, or
    under more levels than ``_PREBUILT_DEPTHS``."""
    container = draw(_flat_containers())
    place = draw(st.sampled_from(["top", "run", "deep"]))
    if place == "top":
        return container
    if place == "run":
        other = draw(_flat_containers())
        return [{"k": container, "n": 1}, {"n": 2, "k": other}, {"k": [], "n": 3}]
    document = container
    for level in range(codegen._PREBUILT_DEPTHS + 2):
        document = {"inner": document, "n": level} if level % 2 else [level, document]
    return document


def _nested(depth):
    """``depth`` levels of alternating lists and dicts, each holding int, bool
    and str leaves beside the next level, and runs of same-shaped objects."""
    document = {"leaf": "bottom", "n": depth, "ok": True}
    for level in range(depth, 0, -1):
        if level % 2:
            document = [level, False, f"s{level}", document, {"k": level}, {"k": -level}]
        else:
            document = {"inner": document, "int": level, "no": False, "str": f"s{level}"}
    return document


class TestJsonEncoding:
    @settings(max_examples=300, deadline=None)
    @given(_json_documents)
    def test_dump_matches_json_dumps(self, document):
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert codegen._dump(document) == expected.encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(_json_runs)
    def test_runs_of_same_shaped_objects_match_json_dumps(self, document):
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert codegen._dump(document) == expected.encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(_placed_flat_containers())
    def test_large_flat_containers_match_json_dumps(self, document):
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert codegen._dump(document) == expected.encode("utf-8")

    def test_only_large_flat_dicts_take_the_c_encoder(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return json.encoder.c_make_encoder(*args)

        monkeypatch.setattr(codegen, "_c_make_encoder", counting)
        names = [f"n{n:02d}" for n in range(_FLAT_SIZE)]
        flat = dict(zip(names, [1, "s", True, None] * _FLAT_SIZE))
        name = type("Name", (str,), {})
        python_path = [
            dict(list(flat.items())[1:]),  # one short
            {**flat, "x": {}},  # a container among flat values
            {**flat, "x": ["READ"]},
            {key: ["READ"] for key in names},  # a permissions map
            {**flat, "x": name("x")},  # a str subclass
            {**flat, name("x"): 1},
            names,  # a list: the C encoder writes str lists no faster
            [{"name": key} for key in names],  # role objects
        ]
        for document in python_path:
            expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
            assert codegen._dump(document) == expected.encode("utf-8")
        assert made == []
        document = {"offers": flat, "roles": [{"terms": flat}]}
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert codegen._dump(document) == expected.encode("utf-8")
        assert [args[5] for args in made] == [",\n    ", ",\n        "]
        # Without the C encoder every container takes the Python path.
        monkeypatch.setattr(codegen, "_c_make_encoder", None)
        assert codegen._dump(document) == expected.encode("utf-8")

    def test_a_run_encodes_its_keys_once(self, monkeypatch):
        document = [{"name": f"n{i}", "operator": "eq", "count": i} for i in range(1000)]
        for obj in document[1::2]:  # insertion order must not matter
            obj["name"] = obj.pop("name")
        encoded = []

        def counting(text):
            encoded.append(text)
            return json.encoder.encode_basestring(text)

        monkeypatch.setattr(codegen, "_encode_str", counting)
        dumped = codegen._dump(document)
        assert sum(text in ("name", "operator", "count") for text in encoded) <= 6
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert dumped == expected.encode("utf-8")

    def test_documents_deeper_than_the_prebuilt_brackets_match_json_dumps(self):
        depth = 40
        assert depth > codegen._PREBUILT_DEPTHS
        document = _nested(depth)
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert codegen._dump(document) == expected.encode("utf-8")

    def test_threads_dumping_at_different_depths_get_the_same_bytes(self):
        documents = [_nested(depth) for depth in (1, 3, 15, 16, 17, 33, 40)]
        leaves = ["value", 7, 2**70, True, False, None]
        documents.append({f"term-{n:04d}": leaves[n % len(leaves)] for n in range(4096)})
        documents.append([f"role-{n:04d}" for n in range(4096)])
        expected = [
            (json.dumps(d, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
            for d in documents
        ]
        start = threading.Barrier(8, timeout=30)

        def dump_all(offset):
            start.wait()
            return [
                codegen._dump(documents[(offset + n) % len(documents)]) for n in range(70)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside each container
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(dump_all, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for offset, dumped in enumerate(results):
            assert dumped == [expected[(offset + n) % len(documents)] for n in range(70)]

    @pytest.mark.parametrize(
        "document",
        [
            1.5,
            {"a": [date(2026, 1, 1)]},
            ("a", "b"),
            {1: "a"},
            {"a": {None: 1}},
            [{"a": 1}, {"a": 1.5}],
            [{"a": 1}, {"a": 2}, {"a": ("x",)}],
            [{"a": 1}, {"a": date(2026, 1, 1)}],
            [{"a": 1}, {1: "a"}],
            _names_and(1.5),
            _names_and(("x",)),
            _names_and(date(2026, 1, 1)),
            {**_names_and("a"), 1: "a"},
            {**_names_and("a"), None: "a"},
            {**_names_and("a"), True: "a"},
            [f"n{n}" for n in range(_FLAT_SIZE)] + [1.5],
        ],
        ids=[
            "float",
            "date",
            "tuple",
            "int-key",
            "none-key",
            "float-in-run",
            "tuple-late-in-run",
            "date-in-run",
            "int-key-after-object",
            "float-among-str-values",
            "tuple-among-str-values",
            "date-among-str-values",
            "int-key-among-str-keys",
            "none-key-among-str-keys",
            "bool-key-among-str-keys",
            "float-among-names",
        ],
    )
    def test_other_types_raise_type_error(self, document):
        with pytest.raises(TypeError):
            codegen._dump(document)


class TestArtifactInvariants:
    def test_paths_must_be_relative(self):
        with pytest.raises(ValueError):
            GeneratedArtifact("/abs/path.json", b"{}", Target.EDC)
        with pytest.raises(ValueError):
            GeneratedArtifact("a/../b.json", b"{}", Target.EDC)

    @pytest.mark.parametrize(
        "path", ["", ".", "..", "a/..", "/a", "//a", "a//b", "./a", "..a", "a..", "a/..b", "a/"]
    )
    def test_path_check_matches_the_pure_posix_rule(self, path):
        pure = PurePosixPath(path)
        if pure.is_absolute() or ".." in pure.parts:
            with pytest.raises(ValueError):
                GeneratedArtifact(path, b"", Target.EDC)
        else:
            assert GeneratedArtifact(path, b"", Target.EDC).relative_path == path

    def test_bundle_paths_unique_and_nonempty(self):
        artifact = GeneratedArtifact("a.json", b"{}\n", Target.EDC)
        with pytest.raises(ValueError):
            GenerationBundle(artifacts=(), source_model="m")
        with pytest.raises(ValueError):
            GenerationBundle(artifacts=(artifact, artifact), source_model="m")


def _json_leaves(document):
    """All scalar leaves plus object keys of a parsed JSON document."""
    leaves = set()
    stack = [document]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            leaves.update(node.keys())
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        else:
            leaves.add(node)
    return leaves


def _projection(value):
    if isinstance(value, date):
        return value.isoformat()
    return value


def _secret_projection(secret):
    if isinstance(secret, SecretEnvVar):
        return "${" + secret.name + "}"
    return secret.value


def _expected_leaves(model, target):
    """(path, leaf) pairs that must appear in the target's bundle."""
    from dsx import PROTOCOL_WIRE_NAMES

    ident, meta, usage, access = (
        model.identification,
        model.metadata,
        model.usage,
        model.access,
    )
    pairs = [("identification.linkedAssetId", ident.linked_asset_id)]
    pairs.append(("identification.identifierType", ident.identifier_type.value))
    if target is not Target.IDLINK_AAS:
        # For ID-Link these two are checked via the resolved-URL equality.
        pairs.append(("identification.baseUrl", ident.base_url))
        pairs.append(("identification.endpoint", ident.endpoint))
        pairs.append(("metadata.title", meta.title))
        pairs.append(("metadata.description", meta.description))
        pairs.append(("metadata.publisher", meta.publisher))
        pairs.append(("metadata.version", meta.version))
        pairs.append(("metadata.created", meta.created.isoformat()))
        pairs.append(("metadata.modified", meta.modified.isoformat()))
        if meta.language is not None:
            pairs.append(("metadata.language", meta.language))
        for i, sid in enumerate(meta.semantic_ids):
            pairs.append((f"metadata.semanticIds[{i}]", sid))
        pairs.append(("usage.dataAddress", usage.data_address))
        if usage.schema_address is not None:
            pairs.append(("usage.schemaAddress", usage.schema_address))
        ext = usage.extension
        if isinstance(ext, EdcUsage):
            pairs.append(("usage.edcAddress", ext.edc_address))
            pairs.append(("usage.xApiKey", _secret_projection(ext.x_api_key)))
            pairs.append(("usage.remoteAddress", ext.remote_address))
            pairs.append(("usage.remoteId", ext.remote_id))
            if ext.sts_service_address is not None:
                pairs.append(("usage.stsServiceAddress", ext.sts_service_address))
            for i, url in enumerate(ext.trusted_did_registries):
                pairs.append((f"usage.trustedDidRegistries[{i}]", url))
            if ext.push_endpoints is not None:
                pairs.append(("usage.push.callbackUrl", ext.push_endpoints.callback_url))
                pairs.append(("usage.push.cloudPush", ext.push_endpoints.cloud_push))
        elif isinstance(ext, OpcUaUsage):
            pairs.append(("usage.endpointUrl", ext.endpoint_url))
            pairs.append(("usage.securityPolicy", ext.security_policy.value))
            pairs.append(("usage.messageSecurityMode", ext.message_security_mode.value))
            pairs.append(("usage.authenticationMode", ext.authentication_mode.value))
            for i, protocol in enumerate(ext.protocols):
                pairs.append((f"usage.protocols[{i}]", PROTOCOL_WIRE_NAMES[protocol]))
            for i, url in enumerate(ext.companion_specs):
                pairs.append((f"usage.companionSpecs[{i}]", url))
            pairs.append(("usage.addressSpace", ext.address_space))
            if ext.qos is not None:
                pairs.append(("usage.qos.samplingRateMs", ext.qos.sampling_rate_ms))
                pairs.append(("usage.qos.maxSubscriptions", ext.qos.max_subscriptions))
    pairs.append(("access.usagePolicy", access.usage_policy))
    for key, value in access.contract_offers.items():
        pairs.append((f"access.contract.{key}", _projection(value)))
    for role in access.roles:
        pairs.append((f"access.roles[{role.role_name}]", role.role_name))
        for permission in role.permissions:
            pairs.append((f"access.roles[{role.role_name}].{permission.value}", permission.value))
    if access.identity_provider is not None:
        idp = access.identity_provider
        pairs.append(("access.identity.endpoint", idp.endpoint))
        pairs.append(("access.identity.clientId", idp.client_id))
        pairs.append(("access.identity.grantType", idp.grant_type.value))
        pairs.append(("access.identity.secret", _secret_projection(idp.secret)))
    if access.oauth is not None:
        pairs.append(("access.oauth.identifier", access.oauth.identifier))
        pairs.append(("access.oauth.secret", _secret_projection(access.oauth.secret)))
        pairs.append(("access.oauth.grantType", access.oauth.grant_type))
        pairs.append(("access.oauth.scope", access.oauth.scope))
    return pairs


# The shared asset id intentionally threads through several documents
# (asset definition and the contract that references it).
_MULTI_HOME_OK = {"identification.linkedAssetId", "identification.identifierType"}


class TestFieldCoverage:
    """Every scalar of a target's active sections lands in the bundle."""

    @pytest.mark.parametrize(
        "fixture,target",
        [
            ("production-machine.dsx", Target.EDC),
            ("machine-opcua.dsx", Target.OPCUA),
            ("sensor-idlink.dsx", Target.IDLINK_AAS),
        ],
    )
    def test_every_active_scalar_appears(self, fixture, target):
        model = parse_fixture(fixture).model
        bundle = generate_all(model, {target})
        leaves_per_artifact = {
            a.relative_path: (
                _json_leaves(json.loads(a.text))
                if a.relative_path.endswith(".json")
                else {a.text.strip()}
            )
            for a in bundle.artifacts
        }
        for path, leaf in _expected_leaves(model, target):
            homes = [
                name for name, leaves in leaves_per_artifact.items() if leaf in leaves
            ]
            assert homes, f"{path} ({leaf!r}) missing from the {target.value} bundle"
            if path not in _MULTI_HOME_OK:
                assert len(homes) == 1, f"{path} ({leaf!r}) appears in several files: {homes}"

    def test_idlink_url_composition(self, sensor_idlink):
        bundle = generate_all(sensor_idlink.model, {Target.IDLINK_AAS})
        idlink = next(a for a in bundle.artifacts if a.relative_path == "idlink-aas/idlink.txt")
        assert idlink.text.strip() == join_idlink(sensor_idlink.model.identification)
        security = artifact_json(bundle, "aas-security.json")
        assert security["asset"]["idLink"] == idlink.text.strip()


class TestRolesAcrossTargets:
    """Every target reads back the model's access policy: the roles and
    their permissions in the model's order (EDC in its role constraint and
    permissions map, OPC UA and ID-Link/AAS in their role lists), the
    contract offers (EDC as ``eq`` constraints, the others as
    ``contractOffers``), and one ``usagePolicy``, ``identityProvider`` and
    ``oauth``."""

    def test_every_generated_document_lists_the_models_roles(self):
        fixtures = [
            parse_fixture(name).model
            for name in ("production-machine.dsx", "machine-opcua.dsx", "sensor-idlink.dsx")
        ]
        generated = edc = shared_by_two = 0
        for model in fixtures + [build_model(index) for index in range(600)]:
            report = validate(model, today=FIXTURE_TODAY)
            targets = {t for t in Target if codegen._unsupported(model, t) is None}
            if not report.valid or not targets:
                continue
            bundle = generate_all(model, targets, report)
            generated += 1
            roles = [
                (role.role_name, [p.value for p in role.permissions])
                for role in model.access.roles
            ]
            offers = {
                key: _projection(value) for key, value in model.access.contract_offers.items()
            }
            documents = []
            if Target.EDC in targets:
                edc += 1
                policy = artifact_json(bundle, "policy.json")
                # Found by its operator: a contract key "role" is an eq constraint.
                role_lists = [
                    c["rightOperand"] for c in policy["constraints"] if c["operator"] == "isAnyOf"
                ]
                assert role_lists == ([[name for name, _ in roles]] if roles else [])
                assert policy["permissions"] == dict(roles)
                terms = [
                    (c["leftOperand"], c["rightOperand"])
                    for c in policy["constraints"]
                    if c["operator"] == "eq"
                ]
                assert dict(terms) == offers and len(terms) == len(offers)
                documents.append(policy)
            for name in ("roles.json", "aas-security.json"):
                if any(a.relative_path.endswith(name) for a in bundle.artifacts):
                    document = artifact_json(bundle, name)
                    assert [(r["name"], r["permissions"]) for r in document["roles"]] == roles
                    assert document["contractOffers"] == offers
                    documents.append(document)
            shared = [
                {key: d.get(key) for key in ("usagePolicy", "identityProvider", "oauth")}
                for d in documents
            ]
            assert shared[0]["usagePolicy"] == model.access.usage_policy
            assert all(members == shared[0] for members in shared)
            shared_by_two += len(documents) > 1
        assert (generated, edc, shared_by_two) == (506, 201, 206)
