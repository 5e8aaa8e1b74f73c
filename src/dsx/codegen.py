"""Generators turning validated models into deployable configuration files.

Three targets are supported:

* ``EDC`` — an asset/policy/contract JSON triple shaped after the EDC
  management API (simplified, pinned by the schemas shipped in
  ``dsx/schemas/``).
* ``OPCUA`` — catalog/resource/roles JSON documents for an OPC UA
  endpoint offering.
* ``IDLINK_AAS`` — the resolved ID-Link URL plus an AAS security
  configuration; requires an identity provider in the model.

Output is byte-deterministic: UTF-8, 2-space indent, lexicographically
sorted keys, LF endings, trailing newline.  Environment-variable secrets
are emitted as ``${NAME}`` placeholders and never resolved.

Protocol identifiers map to lowercase wire names: ``OPC_TCP -> opc.tcp``,
``MQTT -> mqtt``, ``HTTPS -> https``.  This table is normative for all
generated artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path, PurePosixPath

from .model import (
    AccessPolicy,
    AssetMetaData,
    ConnectorModel,
    ContractValue,
    EdcUsage,
    OpcUaUsage,
    Protocol,
    SecretEnvVar,
    SecretRef,
    join_idlink,
    variant_name,
)
from .validator import ValidationReport, validate


class Target(str, Enum):
    EDC = "edc"
    OPCUA = "opcua"
    IDLINK_AAS = "idlink-aas"


PROTOCOL_WIRE_NAMES: dict[Protocol, str] = {
    Protocol.OPC_TCP: "opc.tcp",
    Protocol.MQTT: "mqtt",
    Protocol.HTTPS: "https",
}

_SCHEMA_BY_BASENAME = {
    "asset.json": "edc-asset.schema.json",
    "policy.json": "edc-policy.schema.json",
    "contract.json": "edc-contract.schema.json",
    "catalog.json": "opcua-catalog.schema.json",
    "resource.json": "opcua-resource.schema.json",
    "roles.json": "opcua-roles.schema.json",
    "aas-security.json": "idlink-aas-security.schema.json",
}

SCHEMAS_DIR = Path(__file__).parent / "schemas"


class GenerationError(Exception):
    """Raised when a model cannot be generated for the requested target(s)."""

    def __init__(self, *messages: str) -> None:
        super().__init__("; ".join(messages))
        self.messages = tuple(messages)


@dataclass(frozen=True)
class GeneratedArtifact:
    relative_path: str
    content: bytes
    target: Target

    def __post_init__(self) -> None:
        path = PurePosixPath(self.relative_path)
        if path.is_absolute() or ".." in path.parts:
            raise ValueError(f"artifact path must be relative: {self.relative_path!r}")
        self.content.decode("utf-8")  # artifacts are UTF-8 text by contract

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")


@dataclass(frozen=True)
class GenerationBundle:
    artifacts: tuple[GeneratedArtifact, ...]
    source_model: str

    def __post_init__(self) -> None:
        if not self.artifacts:
            raise ValueError("a generation bundle must contain at least one artifact")
        paths = [a.relative_path for a in self.artifacts]
        if len(set(paths)) != len(paths):
            raise ValueError("artifact paths within a bundle must be unique")


def schema_path_for(artifact: GeneratedArtifact) -> Path | None:
    """Committed JSON schema for an artifact, or None for plain-text files."""
    name = _SCHEMA_BY_BASENAME.get(PurePosixPath(artifact.relative_path).name)
    return SCHEMAS_DIR / name if name else None


def _dump(document: object) -> bytes:
    return (json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


def _secret(ref: SecretRef) -> str:
    if isinstance(ref, SecretEnvVar):
        return "${" + ref.name + "}"
    return ref.value


def _json_scalar(value: ContractValue) -> object:
    if isinstance(value, date):
        return value.isoformat()
    return value


def _ensure_clean(model: ConnectorModel, report: ValidationReport | None) -> None:
    effective = report if report is not None else validate(model)
    if not effective.valid:
        codes = ", ".join(sorted({d.code for d in effective.errors}))
        raise GenerationError(
            f"refusing to generate from a model with validation errors ({codes})"
        )


def generate_edc(
    model: ConnectorModel, report: ValidationReport | None = None
) -> GenerationBundle:
    """Emit the asset/policy/contract triple for an EDC-backed connector."""
    ext = model.usage.extension
    if not isinstance(ext, EdcUsage):
        raise GenerationError(
            f"generator/usage mismatch: edc generator requires edc usage, "
            f"model '{model.name}' has {variant_name(ext)} usage"
        )
    _ensure_clean(model, report)

    asset_id = model.identification.linked_asset_id
    policy_id = f"{model.name}-policy"

    data_address: dict[str, object] = {
        "type": "HttpData",
        "url": model.usage.data_address,
    }
    if model.usage.schema_address is not None:
        data_address["schemaUrl"] = model.usage.schema_address
    asset = {
        "dataAddress": data_address,
        "id": asset_id,
        "identification": {
            "baseUrl": model.identification.base_url,
            "endpoint": model.identification.endpoint,
            "identifierType": model.identification.identifier_type.value,
        },
        "properties": _metadata_json(model.metadata),
    }

    constraints: list[dict[str, object]] = [
        {
            "leftOperand": key,
            "operator": "eq",
            "rightOperand": _json_scalar(model.access.contract_offers[key]),
        }
        for key in sorted(model.access.contract_offers)
    ]
    if model.access.roles:
        constraints.append(
            {
                "leftOperand": "role",
                "operator": "isAnyOf",
                "rightOperand": [role.role_name for role in model.access.roles],
            }
        )
    policy: dict[str, object] = {
        "constraints": constraints,
        "id": policy_id,
        "permissions": {
            role.role_name: [p.value for p in role.permissions] for role in model.access.roles
        },
        "usagePolicy": model.access.usage_policy,
        **_credentials_json(model.access),
    }

    connection: dict[str, object] = {
        "edcAddress": ext.edc_address,
        "mode": "direct-dsp" if ext.direct_dsp else "hosted-client",
        "trustedDidRegistries": list(ext.trusted_did_registries),
        "xApiKey": _secret(ext.x_api_key),
    }
    if ext.sts_service_address is not None:
        connection["stsServiceAddress"] = ext.sts_service_address
    contract: dict[str, object] = {
        "assetId": asset_id,
        "connection": connection,
        "counterparty": {
            "remoteAddress": ext.remote_address,
            "remoteId": ext.remote_id,
        },
        "id": f"{model.name}-contract",
        "policyId": policy_id,
    }
    if ext.push_endpoints is not None:
        contract["pushEndpoints"] = {
            "callbackUrl": ext.push_endpoints.callback_url,
            "cloudPush": ext.push_endpoints.cloud_push,
        }

    return GenerationBundle(
        artifacts=(
            GeneratedArtifact("asset.json", _dump(asset), Target.EDC),
            GeneratedArtifact("policy.json", _dump(policy), Target.EDC),
            GeneratedArtifact("contract.json", _dump(contract), Target.EDC),
        ),
        source_model=model.name,
    )


def generate_opcua(
    model: ConnectorModel, report: ValidationReport | None = None
) -> GenerationBundle:
    """Emit catalog/resource/roles documents for an OPC UA endpoint."""
    ext = model.usage.extension
    if not isinstance(ext, OpcUaUsage):
        raise GenerationError(
            f"generator/usage mismatch: opcua generator requires opcua usage, "
            f"model '{model.name}' has {variant_name(ext)} usage"
        )
    _ensure_clean(model, report)

    catalog: dict[str, object] = {
        "asset": {
            "baseUrl": model.identification.base_url,
            "endpoint": model.identification.endpoint,
            "id": model.identification.linked_asset_id,
            "identifierType": model.identification.identifier_type.value,
        },
        **_metadata_json(model.metadata),
    }

    resource: dict[str, object] = {
        "addressSpace": ext.address_space,
        "authenticationMode": ext.authentication_mode.value,
        "companionSpecs": list(ext.companion_specs),
        "dataAddress": model.usage.data_address,
        "endpointUrl": ext.endpoint_url,
        "messageSecurityMode": ext.message_security_mode.value,
        "protocols": [PROTOCOL_WIRE_NAMES[p] for p in ext.protocols],
        "securityPolicy": ext.security_policy.value,
    }
    if model.usage.schema_address is not None:
        resource["schemaAddress"] = model.usage.schema_address
    if ext.qos is not None:
        resource["qos"] = {
            "maxSubscriptions": ext.qos.max_subscriptions,
            "samplingRateMs": ext.qos.sampling_rate_ms,
        }

    roles = _access_document(model)

    return GenerationBundle(
        artifacts=(
            GeneratedArtifact("catalog.json", _dump(catalog), Target.OPCUA),
            GeneratedArtifact("resource.json", _dump(resource), Target.OPCUA),
            GeneratedArtifact("roles.json", _dump(roles), Target.OPCUA),
        ),
        source_model=model.name,
    )


def generate_idlink_aas(
    model: ConnectorModel, report: ValidationReport | None = None
) -> GenerationBundle:
    """Emit the resolved ID-Link URL plus the AAS security configuration."""
    if model.access.identity_provider is None:
        raise GenerationError(
            f"aas security requires an identity provider: model '{model.name}' "
            "has no access identity block"
        )
    _ensure_clean(model, report)

    url = join_idlink(model.identification)
    security = _access_document(model)
    security["asset"] = {
        "id": model.identification.linked_asset_id,
        "idLink": url,
        "identifierType": model.identification.identifier_type.value,
    }

    return GenerationBundle(
        artifacts=(
            GeneratedArtifact("idlink.txt", (url + "\n").encode("utf-8"), Target.IDLINK_AAS),
            GeneratedArtifact("aas-security.json", _dump(security), Target.IDLINK_AAS),
        ),
        source_model=model.name,
    )


def _access_document(model: ConnectorModel) -> dict[str, object]:
    return {
        "contractOffers": {
            key: _json_scalar(value) for key, value in model.access.contract_offers.items()
        },
        "roles": [
            {"name": role.role_name, "permissions": [p.value for p in role.permissions]}
            for role in model.access.roles
        ],
        "usagePolicy": model.access.usage_policy,
        **_credentials_json(model.access),
    }


def _credentials_json(access: AccessPolicy) -> dict[str, object]:
    """The identityProvider and oauth members, each present when the model has it."""
    members: dict[str, object] = {}
    idp = access.identity_provider
    if idp is not None:
        members["identityProvider"] = {
            "clientId": idp.client_id,
            "endpoint": idp.endpoint,
            "grantType": idp.grant_type.value,
            "secret": _secret(idp.secret),
        }
    if access.oauth is not None:
        members["oauth"] = {
            "grantType": access.oauth.grant_type,
            "identifier": access.oauth.identifier,
            "scope": access.oauth.scope,
            "secret": _secret(access.oauth.secret),
        }
    return members


def _metadata_json(meta: AssetMetaData) -> dict[str, object]:
    """Catalog metadata, shared by the EDC asset properties and the OPC UA catalog."""
    document: dict[str, object] = {
        "created": meta.created.isoformat(),
        "description": meta.description,
        "modified": meta.modified.isoformat(),
        "publisher": meta.publisher,
        "semanticIds": list(meta.semantic_ids),
        "title": meta.title,
        "version": meta.version,
    }
    if meta.language is not None:
        document["language"] = meta.language
    return document


_GENERATORS = {
    Target.EDC: generate_edc,
    Target.OPCUA: generate_opcua,
    Target.IDLINK_AAS: generate_idlink_aas,
}


def generate_all(
    model: ConnectorModel,
    targets: set[Target] | frozenset[Target],
    report: ValidationReport | None = None,
) -> GenerationBundle:
    """Generate every requested target, nesting artifacts per target directory.

    All per-target failures are collected and reported together rather
    than stopping at the first one.  Without a ``report`` the model is
    validated here, once for all targets.
    """
    if not targets:
        raise GenerationError("no targets requested")
    if report is None:
        report = validate(model)
    artifacts: list[GeneratedArtifact] = []
    failures: list[str] = []
    for target in Target:
        if target not in targets:
            continue
        try:
            bundle = _GENERATORS[target](model, report)
        except GenerationError as exc:
            failures.extend(exc.messages)
            continue
        artifacts.extend(
            GeneratedArtifact(f"{target.value}/{a.relative_path}", a.content, a.target)
            for a in bundle.artifacts
        )
    if failures:
        raise GenerationError(*failures)
    artifacts.sort(key=lambda a: a.relative_path)
    return GenerationBundle(artifacts=tuple(artifacts), source_model=model.name)

