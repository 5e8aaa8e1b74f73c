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

A JSON file's bytes equal ``json.dumps(document, indent=2, sort_keys=True,
ensure_ascii=False)`` plus a newline, encoded as UTF-8.  ``_dump`` writes
them itself, because ``json.dumps`` falls back to its pure-Python encoder
whenever ``indent`` is set: the specialised encoder handles only the types
generated documents hold and escapes strings with the C
``json.encoder.encode_basestring``, and is about twice as fast.

Protocol identifiers map to lowercase wire names: ``OPC_TCP -> opc.tcp``,
``MQTT -> mqtt``, ``HTTPS -> https``.  This table is normative for all
generated artifacts.
"""

from __future__ import annotations

from datetime import date
from enum import Enum
from json.encoder import encode_basestring as _encode_str
from pathlib import Path, PurePosixPath

from .model import (
    AccessPolicy,
    ConnectorModel,
    ContractValue,
    EdcUsage,
    OpcUaUsage,
    Protocol,
    Record,
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


class GeneratedArtifact(Record):
    ATTRS = ("relative_path", "content", "target")

    def _check(self) -> None:
        path = self.relative_path
        if path.startswith("/") or ".." in path.split("/"):
            raise ValueError(f"artifact path must be relative: {path!r}")
        self.content.decode("utf-8")  # artifacts are UTF-8 text by contract

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")


class GenerationBundle(Record):
    ATTRS = ("artifacts", "source_model")

    def _check(self) -> None:
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
    """``json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, as UTF-8, for documents of str-keyed dicts, lists, str,
    bool, int and None; any other value raises TypeError."""
    out: list[str] = []
    _encode(document, "\n", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _encode(value: object, indent: str, out: list[str]) -> None:
    # ``indent`` is the newline plus the indentation of ``value``'s own line.
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _encode_str(key) + ": ")
            _encode(item, inner, out)
            separator = "," + inner
        out.append(indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _encode(item, inner, out)
            separator = "," + inner
        out.append(indent + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _secret(ref: SecretRef) -> str:
    if isinstance(ref, SecretEnvVar):
        return "${" + ref.name + "}"
    return ref.value


def _json_scalar(value: ContractValue) -> object:
    if isinstance(value, date):
        return value.isoformat()
    return value


def _members(record: Record) -> dict[str, object]:
    """A block's JSON object: each row's DSL key mapped to its value, absent
    optional values left out, so a new row reaches every document mirroring it."""
    members: dict[str, object] = {}
    for spec in record.FIELDS:
        value = getattr(record, spec.attr)
        if value is not None:
            convert = _TO_JSON.get(spec.kind)
            members[spec.key] = value if convert is None else convert(value)
    return members


# Row kinds whose values are not already JSON; str, int and bool pass through.
_TO_JSON = {
    "date": date.isoformat,
    "enum": lambda value: value.value,
    "str-list": list,
    "enum-list": lambda value: [member.value for member in value],
    "secret": _secret,
    "sub-block": _members,
}


def _unsupported(model: ConnectorModel, target: Target) -> str | None:
    """What the model lacks that the target's generator needs, or None."""
    if target is Target.IDLINK_AAS:
        if model.access.identity_provider is None:
            return (
                f"aas security requires an identity provider: model '{model.name}' "
                "has no access identity block"
            )
        return None
    ext = model.usage.extension
    if not isinstance(ext, EdcUsage if target is Target.EDC else OpcUaUsage):
        return (
            f"generator/usage mismatch: {target.value} generator requires "
            f"{target.value} usage, model '{model.name}' has {variant_name(ext)} usage"
        )
    return None


# Each target's builder takes a clean model the target supports and returns
# its files as (name, content) pairs in artifact order; generate_all wraps
# each pair in a GeneratedArtifact once.


def _edc_files(model: ConnectorModel) -> list[tuple[str, bytes]]:
    ext = model.usage.extension
    identification = _members(model.identification)
    asset_id = identification.pop("linkedAssetId")
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
        "identification": identification,
        "properties": _members(model.metadata),
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

    connection = _members(ext)
    counterparty = {key: connection.pop(key) for key in ("remoteAddress", "remoteId")}
    push = connection.pop("push", None)
    connection["mode"] = "direct-dsp" if ext.direct_dsp else "hosted-client"
    contract: dict[str, object] = {
        "assetId": asset_id,
        "connection": connection,
        "counterparty": counterparty,
        "id": f"{model.name}-contract",
        "policyId": policy_id,
    }
    if push is not None:
        contract["pushEndpoints"] = push

    return [
        ("asset.json", _dump(asset)),
        ("policy.json", _dump(policy)),
        ("contract.json", _dump(contract)),
    ]


def _opcua_files(model: ConnectorModel) -> list[tuple[str, bytes]]:
    ext = model.usage.extension
    asset = _members(model.identification)
    asset["id"] = asset.pop("linkedAssetId")
    catalog = {"asset": asset, **_members(model.metadata)}

    resource = {
        **_members(model.usage),
        **_members(ext),
        "protocols": [PROTOCOL_WIRE_NAMES[p] for p in ext.protocols],
    }

    roles = _access_document(model)

    return [
        ("catalog.json", _dump(catalog)),
        ("resource.json", _dump(resource)),
        ("roles.json", _dump(roles)),
    ]


def _idlink_aas_files(model: ConnectorModel) -> list[tuple[str, bytes]]:
    url = join_idlink(model.identification)
    security = _access_document(model)
    security["asset"] = {
        "id": model.identification.linked_asset_id,
        "idLink": url,
        "identifierType": model.identification.identifier_type.value,
    }

    return [
        ("idlink.txt", (url + "\n").encode("utf-8")),
        ("aas-security.json", _dump(security)),
    ]


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
    if access.identity_provider is not None:
        members["identityProvider"] = _members(access.identity_provider)
    if access.oauth is not None:
        members["oauth"] = _members(access.oauth)
    return members


_BUILDERS = {
    Target.EDC: _edc_files,
    Target.OPCUA: _opcua_files,
    Target.IDLINK_AAS: _idlink_aas_files,
}


def generate_all(
    model: ConnectorModel,
    targets: set[Target] | frozenset[Target],
    report: ValidationReport | None = None,
) -> GenerationBundle:
    """Generate every requested target, nesting artifacts per target directory.

    A model with validation errors is refused once, whatever the targets.
    Otherwise every target the model does not support is reported together
    rather than stopping at the first one.  Without a ``report`` the model
    is validated here, once for all targets.
    """
    if not targets:
        raise GenerationError("no targets requested")
    report = report if report is not None else validate(model)
    if not report.valid:
        codes = ", ".join(sorted({d.code for d in report.errors}))
        raise GenerationError(
            f"refusing to generate from a model with validation errors ({codes})"
        )
    artifacts: list[GeneratedArtifact] = []
    failures: list[str] = []
    for target in Target:
        if target not in targets:
            continue
        problem = _unsupported(model, target)
        if problem is not None:
            failures.append(problem)
            continue
        prefix = target.value + "/"
        artifacts.extend(
            GeneratedArtifact(prefix + name, content, target)
            for name, content in _BUILDERS[target](model)
        )
    if failures:
        raise GenerationError(*failures)
    artifacts.sort(key=lambda a: a.relative_path)
    return GenerationBundle(artifacts=tuple(artifacts), source_model=model.name)


def generate_edc(
    model: ConnectorModel, report: ValidationReport | None = None
) -> GenerationBundle:
    """``generate_all`` for the EDC target alone."""
    return generate_all(model, {Target.EDC}, report)


def generate_opcua(
    model: ConnectorModel, report: ValidationReport | None = None
) -> GenerationBundle:
    """``generate_all`` for the OPC UA target alone."""
    return generate_all(model, {Target.OPCUA}, report)


def generate_idlink_aas(
    model: ConnectorModel, report: ValidationReport | None = None
) -> GenerationBundle:
    """``generate_all`` for the ID-Link/AAS target alone."""
    return generate_all(model, {Target.IDLINK_AAS}, report)
