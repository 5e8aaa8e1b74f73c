"""Print/parse round-trip properties over generated well-formed models."""

from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

from dsx import (
    AccessPolicy,
    AssetMetaData,
    AuthenticationMode,
    ConnectorModel,
    EdcUsage,
    GrantType,
    IdentificationData,
    IdentifierType,
    IdentityProviderConfig,
    MessageSecurityMode,
    OAuthInfo,
    OpcUaUsage,
    Permission,
    PlainUsage,
    Protocol,
    PushEndpointsConfig,
    QosMetrics,
    Role,
    SecretEnvVar,
    SecretLiteral,
    SecurityPolicy,
    UsageConfig,
    parse,
    print_canonical,
)
from modelgen import build_model

# Printable single-line text, including quotes, backslashes, and accents.
texts = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FF, blacklist_characters="\x7f"),
    max_size=30,
)
nonempty_texts = texts.filter(lambda s: s.strip() != "").map(lambda s: s.strip() or "x")
names = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,16}", fullmatch=True)
env_names = st.from_regex(r"[A-Z][A-Z0-9_]{0,12}", fullmatch=True)
urls = st.builds(
    "https://{}.example/{}".format,
    st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True),
    st.from_regex(r"[A-Za-z0-9/_.-]{0,14}", fullmatch=True),
)
dates = st.dates(min_value=date(2000, 1, 1), max_value=date(2099, 12, 31))
secrets = st.one_of(st.builds(SecretLiteral, nonempty_texts), st.builds(SecretEnvVar, env_names))
scalars = st.one_of(
    texts,
    st.integers(min_value=-(10**9), max_value=10**12),
    st.booleans(),
    dates,
)


@st.composite
def identifications(draw):
    return IdentificationData(
        linked_asset_id=draw(nonempty_texts),
        base_url=draw(urls),
        endpoint=draw(st.from_regex(r"/?[A-Za-z0-9/_-]{0,16}", fullmatch=True)),
        identifier_type=draw(st.sampled_from(IdentifierType)),
    )


@st.composite
def metadatas(draw):
    first, second = sorted([draw(dates), draw(dates)])
    return AssetMetaData(
        title=draw(nonempty_texts),
        description=draw(texts),
        publisher=draw(nonempty_texts),
        version=draw(nonempty_texts),
        created=first,
        modified=second,
        semantic_ids=tuple(draw(st.lists(nonempty_texts, max_size=3))),
        language=draw(st.none() | st.sampled_from(["", "en", "de", "fr"])),
    )


@st.composite
def edc_usages(draw):
    return EdcUsage(
        edc_address=draw(urls),
        x_api_key=draw(secrets),
        remote_address=draw(urls),
        remote_id=draw(
            st.from_regex(r"BPNL[A-Z0-9]{12}", fullmatch=True)
            | st.from_regex(r"did:[a-z0-9]{1,6}:[a-z0-9.-]{1,12}", fullmatch=True)
        ),
        sts_service_address=draw(st.none() | st.just("") | urls),
        trusted_did_registries=tuple(draw(st.lists(urls, max_size=2))),
        push_endpoints=draw(
            st.none() | st.builds(PushEndpointsConfig, callback_url=urls, cloud_push=st.booleans())
        ),
    )


@st.composite
def opcua_usages(draw):
    return OpcUaUsage(
        endpoint_url=draw(st.from_regex(r"opc\.tcp://[a-z0-9.-]{1,14}:[0-9]{2,5}", fullmatch=True)),
        security_policy=draw(st.sampled_from(SecurityPolicy)),
        message_security_mode=draw(st.sampled_from(MessageSecurityMode)),
        authentication_mode=draw(st.sampled_from(AuthenticationMode)),
        protocols=tuple(
            draw(st.lists(st.sampled_from(Protocol), min_size=1, max_size=3, unique=True))
        ),
        address_space=draw(nonempty_texts),
        companion_specs=tuple(draw(st.lists(urls, max_size=2))),
        qos=draw(
            st.none()
            | st.builds(
                QosMetrics,
                sampling_rate_ms=st.integers(min_value=1, max_value=60_000),
                max_subscriptions=st.integers(min_value=1, max_value=10_000),
            )
        ),
    )


usages = st.builds(
    UsageConfig,
    data_address=urls,
    extension=st.one_of(st.builds(PlainUsage), edc_usages(), opcua_usages()),
    schema_address=st.none() | st.just("") | urls,
)


@st.composite
def accesses(draw):
    roles = draw(
        st.lists(
            st.builds(
                Role,
                role_name=names,
                permissions=st.lists(
                    st.sampled_from(Permission), min_size=1, max_size=5, unique=True
                ).map(tuple),
            ),
            max_size=3,
            unique_by=lambda role: role.role_name,
        )
    )
    return AccessPolicy(
        usage_policy=draw(nonempty_texts),
        contract_offers=draw(st.dictionaries(nonempty_texts, scalars, max_size=4)),
        roles=tuple(roles),
        identity_provider=draw(
            st.none()
            | st.builds(
                IdentityProviderConfig,
                endpoint=urls,
                client_id=nonempty_texts,
                grant_type=st.sampled_from(GrantType),
                secret=secrets,
            )
        ),
        oauth=draw(
            st.none()
            | st.builds(
                OAuthInfo,
                identifier=nonempty_texts,
                secret=secrets,
                grant_type=texts,
                scope=texts,
            )
        ),
    )


models = st.builds(
    ConnectorModel,
    name=names,
    identification=identifications(),
    metadata=metadatas(),
    usage=usages,
    access=accesses(),
)


@settings(max_examples=200, deadline=None)
@given(models)
def test_print_parse_round_trip(model):
    text = print_canonical(model)
    result = parse(text, "generated.dsx")
    assert result.diagnostics == (), (text, result.diagnostics)
    assert result.model == model
    assert print_canonical(result.model) == text


@settings(max_examples=100, deadline=None)
@given(models)
def test_output_shape(model):
    text = print_canonical(model)
    assert "\r" not in text
    assert text.endswith("}\n")


def test_seeded_sweep_round_trips():
    for index in range(120):
        model = build_model(index)
        text = print_canonical(model)
        result = parse(text, f"gen-{index}.dsx")
        assert result.diagnostics == (), (index, result.diagnostics)
        assert result.model == model
        assert print_canonical(result.model) == text
