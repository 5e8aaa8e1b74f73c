import ast
import copy
import gc
import inspect
import pickle
import re
import sys
import threading
from datetime import date, datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsx import (
    AccessPolicy,
    AssetMetaData,
    AuthenticationMode,
    ConnectorModel,
    Diagnostic,
    EdcUsage,
    GenerationError,
    IdentificationData,
    IdentifierType,
    IdentityProviderConfig,
    MessageSecurityMode,
    OpcUaUsage,
    Permission,
    PlainUsage,
    Protocol,
    QosMetrics,
    Role,
    SecretEnvVar,
    SecretLiteral,
    SecurityPolicy,
    Severity,
    Span,
    Target,
    UsageConfig,
    ValidationReport,
    generate_all,
    join_idlink,
    parse,
    print_canonical,
    tokenize,
)
from dsx import codegen as codegen_module
from dsx import model as model_module
from dsx import parser as parser_module
from dsx.model import Record
from modelgen import build_model

from conftest import fixture_text


def replace(record, **changes):
    """A copy of a model record with some attributes changed."""
    return type(record)(**{name: getattr(record, name) for name in record.__slots__} | changes)


def minimal_model(**overrides) -> ConnectorModel:
    fields = dict(
        name="demo",
        identification=IdentificationData(
            linked_asset_id="urn:asset:1",
            base_url="https://id.example.com",
            endpoint="assets/m1",
            identifier_type=IdentifierType.URN,
        ),
        metadata=AssetMetaData(
            title="Demo",
            description="",
            publisher="Example",
            version="1.0",
            created=date(2025, 1, 1),
            modified=date(2025, 2, 1),
        ),
        usage=UsageConfig(data_address="https://data.example.com/x", extension=PlainUsage()),
        access=AccessPolicy(usage_policy="https://policies.example/p"),
    )
    fields.update(overrides)
    return ConnectorModel(**fields)


# C0 controls, DEL, C1 controls (U+0085 among them), NBSP and the Unicode line
# and paragraph separators: only the C0 controls and DEL are refused.
_EDGE_CHARACTERS = "\x00\t\n\r\x1b\x1f\x7f\x80\x85\x9f\xa0\u2028\u2029 a"


class TestConstructionInvariants:
    def test_connector_name_pattern(self):
        with pytest.raises(ValueError):
            minimal_model(name="7-starts-with-digit")
        with pytest.raises(ValueError):
            minimal_model(name="")

    def test_env_var_name_pattern(self):
        with pytest.raises(ValueError):
            SecretEnvVar("lower_case")
        assert SecretEnvVar("IDP_SECRET").name == "IDP_SECRET"

    def test_strings_must_be_single_line(self):
        meta = minimal_model().metadata
        with pytest.raises(ValueError):
            replace(meta, title="two\nlines")

    def test_qos_must_be_positive(self):
        with pytest.raises(ValueError):
            QosMetrics(sampling_rate_ms=0, max_subscriptions=10)
        with pytest.raises(ValueError):
            QosMetrics(sampling_rate_ms=100, max_subscriptions=-1)

    @pytest.mark.parametrize("protocols", [(), (Protocol.MQTT, Protocol.MQTT)])
    def test_protocols_nonempty_and_unique(self, protocols):
        with pytest.raises(ValueError):
            OpcUaUsage(
                endpoint_url="opc.tcp://m:4840",
                security_policy=SecurityPolicy.BASIC256_SHA256,
                message_security_mode=MessageSecurityMode.SIGN,
                authentication_mode=AuthenticationMode.USERNAME,
                protocols=protocols,
                address_space="ns",
            )

    def test_table_rows_drive_constructor_checks(self):
        with pytest.raises(ValueError):  # the remoteId row is non-empty
            EdcUsage(
                edc_address="https://edc.example",
                x_api_key=SecretEnvVar("KEY"),
                remote_address="https://dsp.example",
                remote_id="",
            )
        with pytest.raises(TypeError):  # enum rows check the enum class
            IdentityProviderConfig(
                endpoint="https://idp.example",
                client_id="client",
                grant_type="CLIENT_CREDENTIALS",
                secret=SecretEnvVar("KEY"),
            )

    def test_table_driven_constructors_are_keyword_only(self):
        with pytest.raises(TypeError):
            QosMetrics(100, 10)
        with pytest.raises(TypeError):  # a required row has no default
            QosMetrics(sampling_rate_ms=100)

    def test_optional_rows_default_by_kind(self):
        access = AccessPolicy(usage_policy="https://policies.example/p")
        assert access.roles == () and access.identity_provider is None
        assert access.contract_offers == {}
        # Each instance gets its own contract dict.
        assert access.contract_offers is not AccessPolicy(usage_policy="x").contract_offers

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda m: replace(m.metadata, title=5),
                TypeError,
                "title must be a string, got int",
            ),
            (
                lambda m: replace(m.usage, extension="plain"),
                TypeError,
                "usage extension must be one of EdcUsage, OpcUaUsage, PlainUsage",
            ),
            (
                lambda m: Role(role_name="7-op", permissions=()),
                ValueError,
                "invalid role name: '7-op'",
            ),
            # The name is checked before any row.
            (
                lambda m: Role(role_name="7-op", permissions=("READ",)),
                ValueError,
                "invalid role name: '7-op'",
            ),
            (
                lambda m: replace(m, name="my connector", metadata=None),
                ValueError,
                "invalid connector name: 'my connector'",
            ),
            (
                lambda m: QosMetrics(sampling_rate_ms=True, max_subscriptions=10),
                TypeError,
                "samplingRateMs must be an integer, got bool",
            ),
            (
                lambda m: QosMetrics(sampling_rate_ms=0, max_subscriptions=10),
                ValueError,
                "samplingRateMs must be >= 1",
            ),
            (
                lambda m: Role(role_name="op", permissions=("READ",)),
                TypeError,
                "permissions must be Permission, got str",
            ),
            (
                lambda m: replace(m.access, contract_offers={"batch": ["B-1"]}),
                TypeError,
                "contract value for 'batch' must be a scalar",
            ),
        ],
        ids=[
            "text",
            "usage-extension",
            "role-name",
            "role-name-before-rows",
            "connector-name-before-rows",
            "bool-as-int",
            "zero-sampling-rate",
            "enum-list-item",
            "contract",
        ],
    )
    def test_constructors_reject_values_of_the_wrong_shape(self, build, error, message):
        with pytest.raises(error) as raised:
            build(minimal_model())
        assert str(raised.value) == message

    def test_constructors_accept_subclasses_of_the_row_type(self):
        meta = minimal_model().metadata
        # A str-mixin enum member is a string; a datetime is a date.
        assert replace(meta, title=Permission.READ).title is Permission.READ
        stamp = datetime(2025, 1, 1, 12, 30)
        assert replace(meta, created=stamp).created is stamp

    @given(st.text(st.sampled_from(_EDGE_CHARACTERS) | st.characters(), max_size=6))
    def test_string_rows_accept_exactly_the_text_without_controls(self, text):
        meta = minimal_model().metadata
        controls = re.search(r"[\x00-\x1f\x7f]", text) is not None
        for attr, nonempty in (("description", False), ("title", True)):
            if nonempty and not text:
                expected = f"{attr} must be non-empty"
            elif controls:
                expected = f"{attr} must not contain control characters"
            else:
                assert getattr(replace(meta, **{attr: text}), attr) == text
                continue
            with pytest.raises(ValueError) as raised:
                replace(meta, **{attr: text})
            assert str(raised.value) == expected
        if controls:
            with pytest.raises(ValueError) as raised:
                replace(meta, semantic_ids=(text,))
            assert str(raised.value) == "semanticIds entry must not contain control characters"
        else:
            assert replace(meta, semantic_ids=(text,)).semantic_ids == (text,)

    def test_records_hash_and_print_by_value(self):
        qos = QosMetrics(sampling_rate_ms=100, max_subscriptions=10)
        assert hash(qos) == hash(QosMetrics(sampling_rate_ms=100, max_subscriptions=10))
        assert repr(qos) == "QosMetrics(sampling_rate_ms=100, max_subscriptions=10)"

    def test_records_are_frozen(self):
        m = minimal_model()
        with pytest.raises(AttributeError):
            m.name = "other"
        with pytest.raises(AttributeError):
            del m.metadata.title
        with pytest.raises(AttributeError):
            m.extra = 1


class TestCopying:
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_parsed_model_survives_copying(self, production_machine, clone):
        original = production_machine.model
        cloned = clone(original)
        assert cloned == original and cloned is not original
        assert print_canonical(cloned) == print_canonical(original)
        with pytest.raises(AttributeError):
            cloned.name = "other"


# Each dict mutator, called as a caller would; contract offers refuse them all.
CONTRACT_MUTATORS = {
    "setitem": lambda o: o.__setitem__("k", 1),
    "delitem": lambda o: o.__delitem__("a"),
    "ior": lambda o: o.__ior__({"k": 1}),
    "clear": lambda o: o.clear(),
    "pop": lambda o: o.pop("a"),
    "popitem": lambda o: o.popitem(),
    "setdefault": lambda o: o.setdefault("k", 1),
    "update": lambda o: o.update(k=1),
    "init": lambda o: o.__init__({"k": object()}),
}


class TestContractOffers:
    """A model's contract offers are a read-only dict that hashes by value."""

    def test_two_parses_hash_alike(self):
        text = fixture_text("production-machine.dsx")
        first, second = parse(text).model, parse(text).model
        assert first.access.contract_offers  # the fixture has offers to hash
        assert hash(first) == hash(second)
        assert hash(first.access.contract_offers) == hash(second.access.contract_offers)

    @pytest.mark.parametrize("mutate", CONTRACT_MUTATORS.values(), ids=list(CONTRACT_MUTATORS))
    def test_every_mutator_is_refused(self, mutate):
        access = AccessPolicy(usage_policy="https://policies.example/p", contract_offers={"a": 1})
        with pytest.raises(TypeError, match="contract offers are read-only"):
            mutate(access.contract_offers)
        assert access.contract_offers == {"a": 1}
        assert print_canonical(minimal_model(access=access)).count('"a": 1,') == 1

    def test_a_callers_dict_changed_later_does_not_reach_the_model(self):
        offers = {"a": 1}
        access = AccessPolicy(usage_policy="https://policies.example/p", contract_offers=offers)
        offers["b"] = {"not": "a scalar"}
        del offers["a"]
        assert access.contract_offers == {"a": 1}

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_offers_survive_copying_read_only(self, clone):
        offers = AccessPolicy(
            usage_policy="https://policies.example/p",
            contract_offers={"a": 1, "b": "x", "c": date(2026, 1, 1), "d": True},
        ).contract_offers
        cloned = clone(offers)
        assert type(cloned) is type(offers) and cloned == offers
        assert hash(cloned) == hash(offers)
        with pytest.raises(TypeError):
            cloned["e"] = 2

    def test_equality_and_repr_are_a_plain_dicts(self):
        offers = AccessPolicy(usage_policy="x", contract_offers={"b": "x", "a": 1}).contract_offers
        assert offers == {"a": 1, "b": "x"} and {"a": 1, "b": "x"} == offers
        assert repr(offers) == "{'b': 'x', 'a': 1}"


TABLES = [
    cls for cls in vars(model_module).values() if isinstance(cls, type) and "FIELDS" in vars(cls)
]


class TestFieldTable:
    def test_every_model_field_has_exactly_one_row(self):
        # Connector and role names and the usage variant are not `key: value` fields.
        outside = {(ConnectorModel, "name"), (Role, "role_name"), (UsageConfig, "extension")}
        assert len(TABLES) == 13
        for cls in TABLES:
            attrs = [spec.attr for spec in cls.FIELDS]
            assert len(attrs) == len(set(attrs)), cls
            declared = set(cls.__slots__)
            assert declared - set(attrs) == {attr for c, attr in outside if c is cls}, cls

    def test_every_row_kind_is_checked_bound_and_printed(self):
        # A kind in neither _FORMATS nor BLOCK_KINDS would print as a lone '}'.
        kinds = {spec.kind for cls in TABLES for spec in cls.FIELDS}
        assert kinds <= model_module._CHECKS.keys()
        # A value row binds through _BIND.  A block row's block binds against the
        # block parser's key table for its label, a usage block against its
        # variant's; the parser builds tables only for the block kinds it binds.
        blocks = model_module.BLOCK_KINDS
        assert kinds - blocks <= parser_module._BIND.keys()
        labels = {spec.key for cls in TABLES for spec in cls.FIELDS if spec.kind in blocks}
        assert labels - {"usage"} | set(model_module.VARIANTS) <= parser_module._ROWS.keys()
        assert kinds <= model_module._FORMATS.keys() | blocks
        assert codegen_module._TO_JSON.keys() <= kinds

    def test_a_row_names_its_attribute_only_where_the_key_does_not_give_it(self):
        # Read from the source: a built row cannot tell whether attr= was written.
        calls = [
            node
            for node in ast.walk(ast.parse(inspect.getsource(model_module)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_F"
        ]
        assert len(calls) == sum(len(cls.FIELDS) for cls in TABLES)
        explicit = {
            call.args[0].value: keyword.value.value
            for call in calls
            for keyword in call.keywords
            if keyword.arg == "attr"
        }
        assert explicit  # else the loop below checks nothing
        for key, attr in explicit.items():
            assert model_module._F(key, "str").attr != attr, key

    def test_a_rows_attribute_is_its_key_in_snake_case_unless_given(self):
        row = model_module._F
        assert row("xApiKey", "secret").attr == "x_api_key"
        assert row("samplingRateMs", "int", minimum=1) == model_module.FieldSpec(
            "samplingRateMs", "sampling_rate_ms", "int", minimum=1
        )
        assert row("discovery", "sub-block", attr="identification").attr == "identification"

    def test_only_the_connector_requires_a_block(self):
        # A missing section is an E011 of its own; the block parser words any
        # other missing required row as a missing field, which no block row is.
        required_blocks = {
            (cls, spec.key)
            for cls in TABLES
            for spec in cls.FIELDS
            if spec.required and spec.kind in model_module.BLOCK_KINDS
        }
        assert required_blocks == {(ConnectorModel, spec.key) for spec in ConnectorModel.FIELDS}


# Valid values for the attributes that have no row, and for each row kind.
_VALID_ATTRS = {"name": "demo", "role_name": "operator", "extension": PlainUsage()}
_VALID_BY_KIND = {
    "str": "text",
    "date": date(2025, 1, 1),
    "int": 7,
    "bool": True,
    "str-list": ("text",),
    "secret": SecretEnvVar("KEY"),
    "contract": {"k": 1},
}


def valid_value(spec):
    """A valid value of a row; a sub-block or roles row's is built from its class."""
    if spec.kind in ("sub-block", "roles"):
        value = spec.cls(**valid_kwargs(spec.cls))
        return value if spec.kind == "sub-block" else (value,)
    if spec.kind in ("enum", "enum-list"):
        member = next(iter(spec.cls))
        return member if spec.kind == "enum" else (member,)
    return _VALID_BY_KIND[spec.kind]


def valid_kwargs(cls):
    """Constructor arguments that make a valid ``cls``, every optional row set."""
    kwargs = {attr: _VALID_ATTRS[attr] for attr in vars(cls).get("ATTRS", ())}
    return kwargs | {spec.attr: valid_value(spec) for spec in cls.FIELDS}


def bad_values(spec):
    """Values each of which the row's check refuses: a wrong type, text with
    a control character, and an empty or missing value where one is required."""
    kind = spec.kind
    bad = [] if kind == "contract" else [object(), b"bytes"]  # a contract must be a dict
    if spec.required:
        bad.append(None)
    if kind == "str":
        bad += [5, "a\x00b", "two\nlines", "\x7f"] + ([""] if spec.nonempty else [])
    elif kind == "date":
        bad += ["2025-01-01", 20250101]
    elif kind == "int":
        bad += [True, "7", 1.5] + ([spec.minimum - 1] if spec.minimum is not None else [])
    elif kind == "bool":
        bad += [1, "true"]
    elif kind == "enum":
        bad += [next(iter(spec.cls)).value]
    elif kind == "str-list":
        bad += [("a\x00",), ("ok", 5), [b"x"]]
    elif kind == "enum-list":
        member = next(iter(spec.cls))
        bad += [(member.value,), (member, None)]
        bad += [(member, member)] if spec.unique else []
        bad += [()] if spec.nonempty else []
    elif kind == "secret":
        bad += ["literal", SecretLiteral]
    elif kind == "sub-block":
        bad += [SecretEnvVar("KEY"), spec.cls]
    elif kind == "contract":
        bad += [{"k": ["x"]}, {"k\x00": 1}, {5: 1}, {"k": "a\x01"}, {"k": None}]
    elif kind == "roles":
        bad += [("operator",), (None,)]
    return bad


def good_values(spec):
    """Valid values of the row: common ones, and rarer ones such as a ``str``
    subclass, a ``datetime`` or non-ASCII text that is printable."""
    good = [valid_value(spec)]
    if not spec.required:
        good.append(None)
    if spec.kind == "str":
        # A str subclass, and text that is not printable but holds no control.
        good += [Permission.READ, "no\xa0break", "\u2028"] + ([] if spec.nonempty else [""])
    elif spec.kind == "date":
        good.append(datetime(2025, 1, 1, 12, 30))
    elif spec.kind == "bool":
        good.append(False)
    elif spec.kind == "sub-block":
        good.append(type("Sub", (spec.cls,), {})(**valid_kwargs(spec.cls)))
    return good


ROWS = [
    pytest.param(cls, spec, id=f"{cls.__name__}.{spec.attr}")
    for cls in TABLES
    for spec in cls.FIELDS
]


class TestConstructorRowChecks:
    """Each constructor checks every row and raises exactly what ``_CHECKS`` raises."""

    @pytest.mark.parametrize("cls, spec", ROWS)
    def test_a_bad_value_raises_what_the_rows_check_raises(self, cls, spec):
        kwargs = valid_kwargs(cls)
        for value in bad_values(spec):
            with pytest.raises(Exception) as expected:
                model_module._CHECKS[spec.kind](spec, value)
            with pytest.raises(Exception) as got:
                cls(**kwargs | {spec.attr: value})
            assert type(got.value) is type(expected.value), value
            assert str(got.value) == str(expected.value), value

    @pytest.mark.parametrize("cls, spec", ROWS)
    def test_valid_values_are_accepted(self, cls, spec):
        kwargs = valid_kwargs(cls)
        for value in good_values(spec):
            stored = getattr(cls(**kwargs | {spec.attr: value}), spec.attr)
            assert stored == ({} if value is None and spec.kind == "contract" else value)

    def test_a_subclass_that_adds_no_attribute_keeps_its_parents_constructor(self):
        class Report(ValidationReport):
            pass

        class Sub(QosMetrics):
            pass

        assert Report.__init__ is ValidationReport.__init__ and Report.__slots__ == ("diagnostics",)
        report = Report(diagnostics=())
        assert report.valid and repr(report).endswith("Report(diagnostics=())")
        with pytest.raises(ValueError, match="samplingRateMs must be >= 1"):
            Sub(sampling_rate_ms=0, max_subscriptions=1)
        sub = Sub(sampling_rate_ms=5, max_subscriptions=1)
        assert copy.copy(sub) == sub and not hasattr(sub, "__dict__")

    def test_a_subclass_that_adds_only_a_check_is_refused(self):
        # The parent's constructor never calls a _check added later, so the
        # class would build records that skip it.
        with pytest.raises(
            TypeError, match="Strict adds _check, so it must declare FIELDS or ATTRS"
        ):

            class Strict(QosMetrics):
                def _check(self) -> None:
                    raise ValueError("never called")

    def test_a_table_without_rows_gets_a_constructor_of_no_arguments(self):
        class Empty(Record):
            FIELDS = ()

        for cls in (PlainUsage, Empty):
            assert cls.__slots__ == () and cls() == cls()
            with pytest.raises(TypeError):
                cls(extra=1)

    def test_an_extension_that_is_no_variant_is_refused_naming_every_variant(self):
        class Extra(Record):
            FIELDS = ()

        with pytest.raises(TypeError) as raised:
            UsageConfig(data_address="https://data.example", extension=Extra())
        assert str(raised.value) == (
            "usage extension must be one of EdcUsage, OpcUaUsage, PlainUsage"
        )


class TestModelEquals:
    def test_reflexive(self):
        m = minimal_model()
        assert m == m

    def test_contract_offer_order_is_irrelevant(self):
        a = minimal_model(
            access=AccessPolicy(
                usage_policy="https://policies.example/p",
                contract_offers={"a": 1, "b": "x"},
            )
        )
        b = minimal_model(
            access=AccessPolicy(
                usage_policy="https://policies.example/p",
                contract_offers={"b": "x", "a": 1},
            )
        )
        assert a == b

    def test_a_record_of_another_class_or_no_record_is_unequal(self):
        # Same state, other class: only the class test tells them apart.
        literal = SecretLiteral("KEY")
        for other in (SecretEnvVar("KEY"), object()):
            assert (literal == other) is False
            assert (literal != other) is True

    def test_differing_field_breaks_equality(self):
        a = minimal_model()
        b = minimal_model(
            identification=replace(a.identification, linked_asset_id="urn:asset:2")
        )
        assert a != b


class TestJoinIdlink:
    def test_plain_join(self):
        ident = IdentificationData(
            linked_asset_id="urn:x",
            base_url="https://id.example.com",
            endpoint="assets/m1",
            identifier_type=IdentifierType.URN,
        )
        assert join_idlink(ident) == "https://id.example.com/assets/m1"

    @pytest.mark.parametrize("base_slash", ["", "/"])
    @pytest.mark.parametrize("endpoint_slash", ["", "/"])
    @pytest.mark.parametrize("sidi", [False, True])
    def test_slash_normalization_oracle(self, base_slash, endpoint_slash, sidi):
        # Oracle built by plain concatenation of the known-clean parts.
        clean_base, clean_endpoint, serial = "https://id.example.com", "assets/m1", "SN-0042"
        expected = f"{clean_base}/{clean_endpoint}"
        if sidi:
            expected += f"/{serial}"
        ident = IdentificationData(
            linked_asset_id=serial if sidi else "urn:x",
            base_url=clean_base + base_slash,
            endpoint=endpoint_slash + clean_endpoint,
            identifier_type=IdentifierType.SIDI if sidi else IdentifierType.URN,
        )
        assert join_idlink(ident) == expected

    def test_output_is_absolute_and_slash_clean(self):
        for index in range(40):
            ident = build_model(index).identification
            url = join_idlink(ident)
            scheme, _, rest = url.partition("://")
            assert scheme == "https" and rest
            assert "//" not in rest


class TestCanonicalPrinting:
    def test_minimal_model_has_one_connector_and_four_sections(self):
        text = print_canonical(minimal_model())
        assert len(re.findall(r"^connector ", text, re.M)) == 1
        for section in ("discovery {", "metadata {", "usage plain {", "access {"):
            assert text.count(section) == 1

    def test_contract_pair_is_printed_verbatim(self):
        m = minimal_model(
            access=AccessPolicy(
                usage_policy="https://policies.example/p",
                contract_offers={"validUntil": "2026-12-31"},
            )
        )
        assert '"validUntil": "2026-12-31"' in print_canonical(m)

    def test_output_is_deterministic(self):
        m = minimal_model()
        assert print_canonical(m) == print_canonical(m)

    def test_uses_lf_and_two_space_indent(self):
        text = print_canonical(minimal_model())
        assert "\r" not in text
        assert text.endswith("}\n")
        assert "\n  discovery {" in text
        assert "\n    linkedAssetId:" in text

    def test_empty_optionals_follow_the_skip_rule(self):
        m = minimal_model(
            metadata=replace(minimal_model().metadata, language="", semantic_ids=()),
            usage=UsageConfig(
                data_address="https://data.example.com/x", schema_address="", extension=PlainUsage()
            ),
            access=AccessPolicy(
                usage_policy="https://policies.example/p",
                roles=(Role(role_name="viewer", permissions=()),),
            ),
        )
        text = print_canonical(m)
        # An optional string is printed even when empty; an empty optional list is not.
        assert '\n    language: ""\n' in text
        assert '\n    schemaAddress: ""\n' in text
        assert "semanticIds" not in text
        # A required list is printed even when empty.
        assert "\n      role viewer {\n        permissions: []\n      }\n" in text
        reparsed = parse(text, "empty-optionals.dsx")
        assert reparsed.diagnostics == ()
        assert reparsed.model == m

    def test_case_study_round_trip(self, production_machine):
        text = print_canonical(production_machine.model)
        reparsed = parse(text, "roundtrip.dsx")
        assert reparsed.diagnostics == ()
        assert reparsed.model == production_machine.model


class TestSpanAndDiagnosticTypes:
    def test_a_diagnostics_severity_is_its_codes_letter(self):
        span = Span("f.dsx", 1, 1, 1)
        assert Diagnostic.__slots__ == ("code", "message", "span")
        assert Diagnostic("E203", "m", span).severity is Severity.ERROR
        assert Diagnostic("W204", "m", span).severity is Severity.WARNING
        assert Diagnostic("E099", "m", span).render() == "f.dsx:1:1: error[E099]: m"
        with pytest.raises(TypeError):
            Diagnostic(Severity.ERROR, "E203", "m", span)

    def test_span_is_one_based(self):
        with pytest.raises(ValueError):
            Span("f.dsx", 0, 1, 1)
        with pytest.raises(ValueError):
            Span("f.dsx", 1, 0, 1)

    def test_metamodel_roles_allow_defective_values_for_validation(self):
        # Duplicate/empty permissions are validator findings, not construction
        # errors, so seeded-defect fixtures stay constructible.
        assert Role(role_name="operator", permissions=()).permissions == ()
        assert Role(role_name="operator", permissions=(Permission.READ, Permission.READ))


class TestIsoDate:
    def test_extended_calendar_form_is_a_date(self):
        assert model_module.iso_date("2026-12-31") == date(2026, 12, 31)

    @pytest.mark.parametrize("text", ["20261231", "2026-W53-1", "2026-02-30", " 2026-12-31"])
    def test_any_other_spelling_is_none(self, text):
        assert model_module.iso_date(text) is None


class TestPauseGc:
    """parse, tokenize and generate_all run with the cyclic collector paused."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def gc_state(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def collections_around_parse(source):
        """Generations of the collections that start in ``parse`` and at the next allocations."""
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            result = parse(source)
            inside = len(started)
            [[] for _ in range(10)]  # allocations start any collection parse left pending
        finally:
            gc.callbacks.remove(count)
        assert result.model is not None
        return started[:inside], started[inside:]

    @pytest.mark.parametrize("gc_state", [True], ids=["enabled"], indirect=True)
    def test_parse_of_a_large_input_runs_one_middle_collection_and_leaves_none(self, gc_state):
        role = "      role r{} {{\n        permissions: [READ]\n      }}\n"
        roles = "".join(role.format(n) for n in range(4096))
        text = fixture_text("production-machine.dsx")
        inside, after = self.collections_around_parse(text.replace("    roles {\n", "    roles {\n" + roles))
        assert inside == [1]
        assert after == []

    @pytest.mark.parametrize("gc_state", [True], ids=["enabled"], indirect=True)
    def test_parse_of_a_small_input_starts_no_collection(self, gc_state):
        inside, _ = self.collections_around_parse(fixture_text("production-machine.dsx"))
        assert inside == []

    def test_the_collector_is_left_as_found(self, gc_state, production_machine):
        text = fixture_text("production-machine.dsx")
        model = production_machine.model
        parse(text)
        assert gc.isenabled() is gc_state
        tokenize(text)
        assert gc.isenabled() is gc_state
        generate_all(model, {Target.EDC})
        assert gc.isenabled() is gc_state
        with pytest.raises(GenerationError):
            generate_all(model, {Target.OPCUA})  # an EDC model has no OPC UA usage
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize("gc_state", [True], ids=["enabled"], indirect=True)
    def test_threads_that_parse_at_once_leave_the_collector_on(self, gc_state):
        text = fixture_text("production-machine.dsx")
        parsed = []

        def work():
            parsed.extend(parse(text).model is not None for _ in range(50))

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert parsed == [True] * 200
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "function, module, params",
        [
            (parse, "dsx.parser", ["source", "file"]),
            (tokenize, "dsx.parser", ["source", "file"]),
            (generate_all, "dsx.codegen", ["model", "targets", "report"]),
        ],
        ids=["parse", "tokenize", "generate_all"],
    )
    def test_wrapped_functions_keep_their_metadata(self, function, module, params):
        assert function.__doc__ == function.__wrapped__.__doc__ and function.__doc__
        assert function.__module__ == module
        assert list(inspect.signature(function).parameters) == params
