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
``json.encoder.encode_basestring``.  A large policy is mostly lists of
same-shaped objects, one constraint per contract term and one object per
role.  In a list, an object whose keys equal the previous object's is
written from member heads (separator, indentation, encoded key and
``": "``) built once for the run, in sorted key order, with its str and
int values encoded inline.  A run's first object and a lone object take
the plain path, so they cost one key comparison more; it too writes str and
int members inline.  Each container reads its opener, separator and closer
(bracket, comma, newline and indentation) from a table per nesting depth,
built at import for the shallow depths, instead of joining them itself.
A flat object of at least ``_FLAT_MIN`` members, with str keys and str,
int, bool or None values, such as a large contract's offers, is written by
the C ``json.encoder.c_make_encoder`` in one call.  ``generate_all``
builds the access block's JSON once per call, from its rows, and passes it
to every builder.  On CPython 3.11 the encoder is about twice as fast as
``json.dumps`` on small documents and about three times on a policy of
4096 contract terms.

Protocol identifiers map to lowercase wire names: ``OPC_TCP -> opc.tcp``,
``MQTT -> mqtt``, ``HTTPS -> https``.  This table is normative for all
generated artifacts.
"""

from __future__ import annotations

from collections.abc import KeysView
from datetime import date
from enum import Enum
from json.encoder import c_make_encoder as _c_make_encoder
from json.encoder import encode_basestring as _encode_str
from pathlib import Path, PurePosixPath

from .model import (
    VARIANTS,
    AccessPolicy,
    ConnectorModel,
    Protocol,
    Record,
    SecretEnvVar,
    SecretRef,
    join_idlink,
    pause_gc,
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
    _encode(document, 0, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _brackets(depth: int, pair: str) -> tuple[str, str, str]:
    """A non-empty container's opener, separator and closer at ``depth``: the
    bracket and the newline and indentation of its members' lines, the comma
    and the same, and the newline and indentation of its own line before the
    closing bracket."""
    inner = "\n" + "  " * (depth + 1)
    return pair[0] + inner, "," + inner, inner[:-2] + pair[1]


# The brackets of the shallow depths, built once; ``_encode`` builds deeper
# ones per container.  The tables never change, so threads share them.
_PREBUILT_DEPTHS = 16
_OBJECT_BRACKETS = tuple(_brackets(depth, "{}") for depth in range(_PREBUILT_DEPTHS))
_LIST_BRACKETS = tuple(_brackets(depth, "[]") for depth in range(_PREBUILT_DEPTHS))


# A dict of at least this many members, with str keys and str, int, bool or
# None values, is flat and large: the C encoder writes it in one call.  Below
# about this size the encoder's set-up costs more than it saves (README).
_FLAT_MIN = 32
_FLAT_VALUE = frozenset({str, int, bool, type(None)}).__contains__
_STR = frozenset({str}).__contains__


def _encode_flat(value: dict, depth: int, out: list[str]) -> None:
    """Write a large flat dict with the C encoder, its members separated by
    the depth's comma, and its braces swapped for the depth's opener and
    closer."""
    opener, comma, close = (
        _OBJECT_BRACKETS[depth] if depth < _PREBUILT_DEPTHS else _brackets(depth, "{}")
    )
    encode = _c_make_encoder(None, None, _encode_str, None, ": ", comma, True, False, True)
    out += (opener, "".join(encode(value, 0))[1:-1], close)


def _encode(value: object, depth: int, out: list[str]) -> None:
    # ``depth`` is the nesting level of ``value``'s own line, 0 at top level.
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if (
            len(value) >= _FLAT_MIN
            and _c_make_encoder is not None
            # Values first: a dict of lists fails at its first value.
            and all(map(_FLAT_VALUE, map(type, value.values())))
            and all(map(_STR, map(type, value)))
        ):
            _encode_flat(value, depth, out)
            return
        separator, comma, close = (
            _OBJECT_BRACKETS[depth] if depth < _PREBUILT_DEPTHS else _brackets(depth, "{}")
        )
        # A key that is not a str raises TypeError from the sort or the encoder.
        for key, item in sorted(value.items()):
            out.append(separator + _encode_str(key) + ": ")
            separator = comma
            if type(item) is str:
                out.append(_encode_str(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _encode(item, depth + 1, out)
        out.append(close)
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        separator, comma, close = (
            _LIST_BRACKETS[depth] if depth < _PREBUILT_DEPTHS else _brackets(depth, "[]")
        )
        inner = depth + 1
        keys = heads = None  # the previous object's keys; their heads once repeated
        for item in value:
            out.append(separator)
            separator = comma
            if type(item) is str:
                out.append(_encode_str(item))
            elif type(item) is not dict or not item:
                _encode(item, inner, out)
            elif item.keys() != keys:
                keys = item.keys()
                heads = None
                _encode(item, inner, out)
            else:
                if heads is None:
                    heads, object_close = _member_heads(keys, inner)
                for head, key in heads:
                    member = item[key]
                    out.append(head)
                    if type(member) is str:
                        out.append(_encode_str(member))
                    elif type(member) is int:
                        out.append(int.__repr__(member))
                    else:
                        _encode(member, inner + 1, out)
                out.append(object_close)
        out.append(close)
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


def _member_heads(keys: KeysView[str], depth: int) -> tuple[list[tuple[str, str]], str]:
    """Each key of objects at ``depth`` paired with its member's text up to
    the value: ``{`` or ``,``, newline and indentation, the key and ``": "``;
    and the objects' closer.  ``keys`` are an encoded object's, so all str."""
    separator, comma, close = _brackets(depth, "{}")
    heads = []
    for key in sorted(keys):
        heads.append((separator + _encode_str(key) + ": ", key))
        separator = comma
    return heads, close


def _secret(ref: SecretRef) -> str:
    if isinstance(ref, SecretEnvVar):
        return "${" + ref.name + "}"
    return ref.value


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
    "enum": lambda value: value._value_,
    "str-list": list,
    "enum-list": lambda value: [member._value_ for member in value],
    "secret": _secret,
    "sub-block": _members,
    "contract": lambda offers: {
        key: value.isoformat() if isinstance(value, date) else value
        for key, value in offers.items()
    },
    "roles": lambda roles: [{"name": role.role_name, **_members(role)} for role in roles],
}

# The access document's members that are not named by their DSL key.
_ACCESS_KEYS = {"contract": "contractOffers", "identity": "identityProvider"}


def _access_document(access: AccessPolicy) -> dict[str, object]:
    """The access block's JSON object, with its two renamed members."""
    return {_ACCESS_KEYS.get(key, key): value for key, value in _members(access).items()}


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
    if not isinstance(ext, VARIANTS[target._value_]):
        return (
            f"generator/usage mismatch: {target.value} generator requires "
            f"{target.value} usage, model '{model.name}' has {variant_name(ext)} usage"
        )
    return None


# Each target's builder takes a clean model the target supports and its
# access document, which generate_all builds once for all builders and which
# no builder changes, and returns its files as (name, content) pairs in
# artifact order; generate_all wraps each pair in a GeneratedArtifact once.


def _edc_files(model: ConnectorModel, access: dict[str, object]) -> list[tuple[str, bytes]]:
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

    policy = dict(access)
    offers = policy.pop("contractOffers")
    roles = policy.pop("roles")
    constraints: list[dict[str, object]] = [
        {"leftOperand": key, "operator": "eq", "rightOperand": term}
        for key, term in sorted(offers.items())
    ]
    if roles:
        constraints.append(
            {
                "leftOperand": "role",
                "operator": "isAnyOf",
                "rightOperand": [role["name"] for role in roles],
            }
        )
    policy["constraints"] = constraints
    policy["id"] = policy_id
    policy["permissions"] = {role["name"]: role["permissions"] for role in roles}

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


def _opcua_files(model: ConnectorModel, access: dict[str, object]) -> list[tuple[str, bytes]]:
    ext = model.usage.extension
    asset = _members(model.identification)
    asset["id"] = asset.pop("linkedAssetId")
    catalog = {"asset": asset, **_members(model.metadata)}

    resource = {
        **_members(model.usage),
        **_members(ext),
        "protocols": [PROTOCOL_WIRE_NAMES[p] for p in ext.protocols],
    }

    return [
        ("catalog.json", _dump(catalog)),
        ("resource.json", _dump(resource)),
        ("roles.json", _dump(access)),
    ]


def _idlink_aas_files(
    model: ConnectorModel, access: dict[str, object]
) -> list[tuple[str, bytes]]:
    url = join_idlink(model.identification)
    security = {
        **access,
        "asset": {
            "id": model.identification.linked_asset_id,
            "idLink": url,
            "identifierType": model.identification.identifier_type._value_,
        },
    }

    return [
        ("idlink.txt", (url + "\n").encode("utf-8")),
        ("aas-security.json", _dump(security)),
    ]


_BUILDERS = {
    Target.EDC: _edc_files,
    Target.OPCUA: _opcua_files,
    Target.IDLINK_AAS: _idlink_aas_files,
}


@pause_gc
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
    access = _access_document(model.access)
    for target, build in _BUILDERS.items():
        if target not in targets:
            continue
        problem = _unsupported(model, target)
        if problem is not None:
            failures.append(problem)
            continue
        prefix = target._value_ + "/"
        artifacts.extend(
            GeneratedArtifact(prefix + name, content, target)
            for name, content in build(model, access)
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
