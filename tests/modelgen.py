"""Deterministic well-formed model builder for sweep-style tests.

``build_model(index)`` maps an integer to a model: index % 3 picks the
usage variant and the remaining bits drive optional-field presence, so a
contiguous index range systematically sweeps variants and presence
combinations.  Indexes 0-2 are the minimal models, 3-5 the maximal ones.
Generated models are semantically clean apart from harmless mode
warnings, and every one survives print -> parse round-tripping.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

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
)

_WORDS = ["mill", "press", "cell", "line", "robot", "gauge", "oven", "lathe"]
_TEXTS = [
    "Telemetry stream",
    "Batch 42 \"night shift\" data",
    "Pfad\\zur\\Anlage",
    "Qualitätsdaten Straße 7",
    "",
    "trailing space ",
]
_HOSTS = ["edge.example", "data.example", "plant-7.example", "hub.example"]
_CONTRACT_KEYS = ["region", "maxRetentionDays", "audit \"level\"", "tier\\class", "zweck"]


def _ident(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}-{rng.randrange(1000)}"


def _url(rng: random.Random, path: str = "") -> str:
    suffix = path or rng.choice(_WORDS)
    return f"https://{rng.choice(_HOSTS)}/{suffix}"


def _secret(rng: random.Random):
    if rng.random() < 0.5:
        return SecretEnvVar(f"SECRET_{rng.randrange(100)}")
    return SecretLiteral(f"literal-key-{rng.randrange(1000)}")


def _contract_value(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(_TEXTS) or "fallback"
    if kind == 1:
        return rng.randrange(10_000)
    if kind == 2:
        return rng.random() < 0.5
    return date(2024, 1, 1) + timedelta(days=rng.randrange(2000))


def build_model(index: int) -> ConnectorModel:
    rng = random.Random(index)
    variant = index % 3
    if index < 3:
        present = lambda bit: False  # noqa: E731 - minimal corner case
    elif index < 6:
        present = lambda bit: True  # noqa: E731 - maximal corner case
    else:
        bits = rng.getrandbits(16)
        present = lambda bit: bool(bits >> bit & 1)  # noqa: E731

    identifier_type = rng.choice(list(IdentifierType))
    identification = IdentificationData(
        linked_asset_id=(
            f"SN-{rng.randrange(10_000):04d}"
            if identifier_type is IdentifierType.SIDI
            else f"urn:asset:{_ident(rng)}"
        ),
        base_url=_url(rng) + ("/" if present(10) else ""),
        endpoint=("/" if present(11) else "") + f"assets/{_ident(rng)}",
        identifier_type=identifier_type,
    )

    created = date(2024, 1, 1) + timedelta(days=rng.randrange(365))
    metadata = AssetMetaData(
        title=f"{rng.choice(_WORDS)} offering {index}",
        description=rng.choice(_TEXTS),
        publisher=f"Publisher {rng.randrange(50)} GmbH",
        version=f"{rng.randrange(5)}.{rng.randrange(10)}.{rng.randrange(10)}",
        created=created,
        modified=created + timedelta(days=rng.randrange(300)),
        semantic_ids=(
            tuple(f"urn:semantic:{_ident(rng)}" for _ in range(rng.randrange(1, 4)))
            if present(2)
            else ()
        ),
        language=rng.choice(["en", "de", "fr"]) if present(1) else None,
    )

    if variant == 0:
        extension = EdcUsage(
            edc_address=_url(rng, "edc"),
            x_api_key=_secret(rng),
            remote_address=_url(rng, "dsp"),
            remote_id=(
                "BPNL" + "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ0123456789") for _ in range(12))
                if rng.random() < 0.5
                else f"did:web:partner-{rng.randrange(100)}.example"
            ),
            sts_service_address=_url(rng, "sts") if present(7) else None,
            trusted_did_registries=(
                tuple(_url(rng, f"registry/{i}") for i in range(rng.randrange(1, 3)))
                if present(8)
                else ()
            ),
            push_endpoints=(
                PushEndpointsConfig(callback_url=_url(rng, "push"), cloud_push=rng.random() < 0.5)
                if present(9)
                else None
            ),
        )
    elif variant == 1:
        protocols = rng.sample(list(Protocol), rng.randrange(1, len(Protocol) + 1))
        extension = OpcUaUsage(
            endpoint_url=f"opc.tcp://{_ident(rng)}.factory:{rng.randrange(4000, 5000)}",
            security_policy=rng.choice(list(SecurityPolicy)),
            message_security_mode=rng.choice(
                [MessageSecurityMode.SIGN, MessageSecurityMode.SIGN_AND_ENCRYPT]
            ),
            authentication_mode=rng.choice(
                [AuthenticationMode.USERNAME, AuthenticationMode.TOKEN, AuthenticationMode.CERTIFICATE]
            ),
            protocols=tuple(protocols),
            address_space=_url(rng, "nodeset"),
            companion_specs=(
                tuple(_url(rng, f"spec/{i}") for i in range(rng.randrange(1, 3)))
                if present(7)
                else ()
            ),
            qos=(
                QosMetrics(
                    sampling_rate_ms=rng.randrange(1, 5000),
                    max_subscriptions=rng.randrange(1, 200),
                )
                if present(8)
                else None
            ),
        )
    else:
        extension = PlainUsage()

    usage = UsageConfig(
        data_address=_url(rng, "data"),
        extension=extension,
        schema_address=_url(rng, "schema") if present(0) else None,
    )

    offers = {}
    if present(3):
        for key in rng.sample(_CONTRACT_KEYS, rng.randrange(1, 4)):
            offers[key] = _contract_value(rng)
        if rng.random() < 0.5:
            offers["validUntil"] = "2099-12-31" if rng.random() < 0.5 else date(2099, 6, 30)

    roles = ()
    if present(4):
        roles = tuple(
            Role(
                role_name=f"{rng.choice(_WORDS)}-{n}",
                permissions=tuple(rng.sample(list(Permission), rng.randrange(1, 4))),
            )
            for n in range(rng.randrange(1, 4))
        )

    access = AccessPolicy(
        usage_policy=f"https://policies.example/{_ident(rng)}",
        contract_offers=offers,
        roles=roles,
        identity_provider=(
            IdentityProviderConfig(
                endpoint=_url(rng, "token"),
                client_id=f"client-{rng.randrange(1000)}",
                grant_type=rng.choice(list(GrantType)),
                secret=_secret(rng),
            )
            if present(5)
            else None
        ),
        oauth=(
            OAuthInfo(
                identifier=f"oauth-{rng.randrange(1000)}",
                secret=_secret(rng),
                grant_type="client_credentials",
                scope=f"{rng.choice(_WORDS)}:read",
            )
            if present(6)
            else None
        ),
    )

    return ConnectorModel(
        name=f"gen-{index}-{_ident(rng)}",
        identification=identification,
        metadata=metadata,
        usage=usage,
        access=access,
    )
