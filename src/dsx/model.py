"""Core model types for data-space connector descriptions.

A :class:`ConnectorModel` bundles everything one connector offering needs:
how the asset is identified and discovered, descriptive metadata, the
technical usage configuration (EDC, OPC UA, or plain ID-Link), and the
access policy (contract offers, roles, identity provider, OAuth).

All types are immutable after construction and safe to share between
threads.  Constructors enforce structural well-formedness only (types,
closed enums, printable single-line strings); semantic rules such as URL
schemes or date ordering are the validator's job, so models carrying such
defects remain constructible and printable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Union

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
ENV_NAME_RE = re.compile(r"[A-Z][A-Z0-9_]*")
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")


class IdentifierType(str, Enum):
    SIDI = "SIDI"
    URN = "URN"
    DID = "DID"
    CUSTOM = "CUSTOM"


class SecurityPolicy(str, Enum):
    NONE = "None"
    BASIC256_SHA256 = "Basic256Sha256"
    AES128_SHA256_RSA_OAEP = "Aes128Sha256RsaOaep"
    AES256_SHA256_RSA_PSS = "Aes256Sha256RsaPss"


class MessageSecurityMode(str, Enum):
    NONE = "None"
    SIGN = "Sign"
    SIGN_AND_ENCRYPT = "SignAndEncrypt"


class AuthenticationMode(str, Enum):
    ANONYMOUS = "Anonymous"
    USERNAME = "Username"
    TOKEN = "Token"
    CERTIFICATE = "Certificate"


class Protocol(str, Enum):
    OPC_TCP = "OPC_TCP"
    MQTT = "MQTT"
    HTTPS = "HTTPS"


class Permission(str, Enum):
    READ = "READ"
    WRITE = "WRITE"
    SUBSCRIBE = "SUBSCRIBE"
    EXECUTE = "EXECUTE"
    DELETE = "DELETE"


class GrantType(str, Enum):
    CLIENT_CREDENTIALS = "CLIENT_CREDENTIALS"
    AUTHORIZATION_CODE = "AUTHORIZATION_CODE"
    PASSWORD = "PASSWORD"


class Severity(str, Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"


def _check_text(value: str, what: str, *, allow_empty: bool = True) -> None:
    """Reject strings the canonical printer cannot represent on one line."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {type(value).__name__}")
    if not allow_empty and not value:
        raise ValueError(f"{what} must be non-empty")
    if _CONTROL_RE.search(value):
        raise ValueError(f"{what} must not contain control characters")


@dataclass(frozen=True)
class FieldSpec:
    """One field of a model class, as the DSL spells it and the model holds it.

    ``kind`` is one of: str, date, int, bool, enum, str-list, enum-list,
    secret, sub-block, contract, roles.  ``cls`` is the enum class of enum
    and enum-list rows, and the model class of sub-block and roles rows.
    Binding, unknown-field detection, canonical printing and constructor
    checks all read these rows, in this order.
    """

    key: str
    attr: str
    kind: str
    required: bool = True
    nonempty: bool = False
    minimum: int | None = None
    unique: bool = False
    cls: type | None = None


# Rows of these kinds are keyword blocks in the DSL rather than `key: value` fields.
BLOCK_KINDS = frozenset({"sub-block", "contract", "roles"})


@dataclass(frozen=True)
class SecretLiteral:
    """Inline secret value, committed verbatim with the model."""

    value: str

    def __post_init__(self) -> None:
        _check_text(self.value, "secret literal")


@dataclass(frozen=True)
class SecretEnvVar:
    """Reference to an environment variable; generators emit ``${NAME}``."""

    name: str

    def __post_init__(self) -> None:
        if not ENV_NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid environment variable name: {self.name!r}")


SecretRef = Union[SecretLiteral, SecretEnvVar]


@dataclass(frozen=True)
class Span:
    """Half-open source region: 1-based line/column plus length in chars."""

    file: str
    line: int
    column: int
    length: int = 0

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("span line and column are 1-based")

    def sort_key(self) -> tuple[int, int]:
        return (self.line, self.column)


@dataclass(frozen=True)
class Diagnostic:
    """One parser/validator finding with a stable machine-readable code."""

    severity: Severity
    code: str
    message: str
    span: Span

    def render(self) -> str:
        return (
            f"{self.span.file}:{self.span.line}:{self.span.column}: "
            f"{self.severity.value.lower()}[{self.code}]: {self.message}"
        )


@dataclass(frozen=True)
class IdentificationData:
    linked_asset_id: str
    base_url: str
    endpoint: str
    identifier_type: IdentifierType

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class AssetMetaData:
    title: str
    description: str
    publisher: str
    version: str
    created: date
    modified: date
    semantic_ids: tuple[str, ...] = ()
    language: str | None = None

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class PushEndpointsConfig:
    callback_url: str
    cloud_push: bool

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class EdcUsage:
    edc_address: str
    x_api_key: SecretRef
    remote_address: str
    remote_id: str
    sts_service_address: str | None = None
    trusted_did_registries: tuple[str, ...] = ()
    push_endpoints: PushEndpointsConfig | None = None

    def __post_init__(self) -> None:
        _check_fields(self)

    @property
    def direct_dsp(self) -> bool:
        """True when the model talks DSP directly instead of via a hosted EDC."""
        return self.sts_service_address is not None


@dataclass(frozen=True)
class QosMetrics:
    sampling_rate_ms: int
    max_subscriptions: int

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class OpcUaUsage:
    endpoint_url: str
    security_policy: SecurityPolicy
    message_security_mode: MessageSecurityMode
    authentication_mode: AuthenticationMode
    protocols: tuple[Protocol, ...]
    address_space: str
    companion_specs: tuple[str, ...] = ()
    qos: QosMetrics | None = None

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class PlainUsage:
    """ID-Link connectors need nothing beyond the shared usage fields."""


UsageExtension = Union[EdcUsage, OpcUaUsage, PlainUsage]


@dataclass(frozen=True)
class UsageConfig:
    data_address: str
    extension: UsageExtension
    schema_address: str | None = None

    def __post_init__(self) -> None:
        _check_fields(self)
        if not isinstance(self.extension, (EdcUsage, OpcUaUsage, PlainUsage)):
            raise TypeError("usage extension must be one of EdcUsage, OpcUaUsage, PlainUsage")


ContractValue = Union[str, int, bool, date]


@dataclass(frozen=True)
class Role:
    role_name: str
    permissions: tuple[Permission, ...]

    def __post_init__(self) -> None:
        if not NAME_RE.fullmatch(self.role_name):
            raise ValueError(f"invalid role name: {self.role_name!r}")
        _check_fields(self)


@dataclass(frozen=True)
class IdentityProviderConfig:
    endpoint: str
    client_id: str
    grant_type: GrantType
    secret: SecretRef

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class OAuthInfo:
    identifier: str
    secret: SecretRef
    grant_type: str
    scope: str

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class AccessPolicy:
    usage_policy: str
    contract_offers: dict[str, ContractValue] = field(default_factory=dict)
    roles: tuple[Role, ...] = ()
    identity_provider: IdentityProviderConfig | None = None
    oauth: OAuthInfo | None = None

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class ConnectorModel:
    name: str
    identification: IdentificationData
    metadata: AssetMetaData
    usage: UsageConfig
    access: AccessPolicy

    def __post_init__(self) -> None:
        if not NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid connector name: {self.name!r}")
        _check_fields(self)


_F = FieldSpec

FIELDS: dict[type, tuple[FieldSpec, ...]] = {
    ConnectorModel: (
        _F("discovery", "identification", "sub-block", cls=IdentificationData),
        _F("metadata", "metadata", "sub-block", cls=AssetMetaData),
        _F("usage", "usage", "sub-block", cls=UsageConfig),
        _F("access", "access", "sub-block", cls=AccessPolicy),
    ),
    IdentificationData: (
        _F("linkedAssetId", "linked_asset_id", "str", nonempty=True),
        _F("baseUrl", "base_url", "str"),
        _F("endpoint", "endpoint", "str"),
        _F("identifierType", "identifier_type", "enum", cls=IdentifierType),
    ),
    AssetMetaData: (
        _F("title", "title", "str", nonempty=True),
        _F("description", "description", "str"),
        _F("publisher", "publisher", "str", nonempty=True),
        _F("semanticIds", "semantic_ids", "str-list", required=False),
        _F("version", "version", "str", nonempty=True),
        _F("created", "created", "date"),
        _F("modified", "modified", "date"),
        _F("language", "language", "str", required=False),
    ),
    UsageConfig: (
        _F("dataAddress", "data_address", "str"),
        _F("schemaAddress", "schema_address", "str", required=False),
    ),
    EdcUsage: (
        _F("edcAddress", "edc_address", "str"),
        _F("xApiKey", "x_api_key", "secret"),
        _F("remoteAddress", "remote_address", "str"),
        _F("remoteId", "remote_id", "str", nonempty=True),
        _F("stsServiceAddress", "sts_service_address", "str", required=False),
        _F("trustedDidRegistries", "trusted_did_registries", "str-list", required=False),
        _F("push", "push_endpoints", "sub-block", required=False, cls=PushEndpointsConfig),
    ),
    PushEndpointsConfig: (
        _F("callbackUrl", "callback_url", "str"),
        _F("cloudPush", "cloud_push", "bool"),
    ),
    OpcUaUsage: (
        _F("endpointUrl", "endpoint_url", "str"),
        _F("securityPolicy", "security_policy", "enum", cls=SecurityPolicy),
        _F("messageSecurityMode", "message_security_mode", "enum", cls=MessageSecurityMode),
        _F("authenticationMode", "authentication_mode", "enum", cls=AuthenticationMode),
        _F("protocols", "protocols", "enum-list", nonempty=True, unique=True, cls=Protocol),
        _F("companionSpecs", "companion_specs", "str-list", required=False),
        _F("addressSpace", "address_space", "str"),
        _F("qos", "qos", "sub-block", required=False, cls=QosMetrics),
    ),
    QosMetrics: (
        _F("samplingRateMs", "sampling_rate_ms", "int", minimum=1),
        _F("maxSubscriptions", "max_subscriptions", "int", minimum=1),
    ),
    PlainUsage: (),
    AccessPolicy: (
        _F("usagePolicy", "usage_policy", "str", nonempty=True),
        _F("contract", "contract_offers", "contract", required=False),
        _F("roles", "roles", "roles", required=False, cls=Role),
        _F(
            "identity", "identity_provider", "sub-block", required=False, cls=IdentityProviderConfig
        ),
        _F("oauth", "oauth", "sub-block", required=False, cls=OAuthInfo),
    ),
    Role: (
        # Emptiness and duplicates are validator findings (E205), not
        # construction errors, so defective models stay representable.
        _F("permissions", "permissions", "enum-list", cls=Permission),
    ),
    IdentityProviderConfig: (
        _F("endpoint", "endpoint", "str"),
        _F("clientId", "client_id", "str", nonempty=True),
        _F("grantType", "grant_type", "enum", cls=GrantType),
        _F("secret", "secret", "secret"),
    ),
    OAuthInfo: (
        _F("identifier", "identifier", "str", nonempty=True),
        _F("secret", "secret", "secret"),
        _F("grantType", "grant_type", "str"),
        _F("scope", "scope", "str"),
    ),
}

VARIANTS: dict[str, type] = {"edc": EdcUsage, "opcua": OpcUaUsage, "plain": PlainUsage}


def variant_name(extension: UsageExtension) -> str:
    """The DSL keyword (``edc``, ``opcua``, ``plain``) of a usage extension."""
    return next(name for name, cls in VARIANTS.items() if isinstance(extension, cls))


def _check_fields(obj: object) -> None:
    """Enforce the table rows of ``obj``'s class on a freshly built instance."""
    for spec in FIELDS[type(obj)]:
        value = getattr(obj, spec.attr)
        if value is None and not spec.required:
            continue
        _CHECKS[spec.kind](spec, value)


def _check_str(spec: FieldSpec, value: object) -> None:
    _check_text(value, spec.key, allow_empty=not spec.nonempty)


def _check_type(spec: FieldSpec, value: object, *expected: type) -> None:
    if not isinstance(value, expected):
        names = " or ".join(cls.__name__ for cls in expected)
        raise TypeError(f"{spec.key} must be {names}, got {type(value).__name__}")


def _check_int(spec: FieldSpec, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{spec.key} must be an integer, got {type(value).__name__}")
    if spec.minimum is not None and value < spec.minimum:
        raise ValueError(f"{spec.key} must be >= {spec.minimum}")


def _check_str_list(spec: FieldSpec, value: tuple[str, ...]) -> None:
    for item in value:
        _check_text(item, f"{spec.key} entry")


def _check_enum_list(spec: FieldSpec, value: tuple[Enum, ...]) -> None:
    for item in value:
        if not isinstance(item, spec.cls):
            _check_type(spec, item, spec.cls)
    if spec.nonempty and not value:
        raise ValueError(f"{spec.key} must not be empty")
    if spec.unique and len(set(value)) != len(value):
        raise ValueError(f"{spec.key} must not contain duplicates")


def _check_contract(spec: FieldSpec, offers: dict[str, ContractValue]) -> None:
    for key, value in offers.items():
        _check_text(key, "contract key")
        if isinstance(value, str):
            _check_text(value, f"contract value for {key!r}")
        elif not isinstance(value, (bool, int, date)):
            raise TypeError(f"contract value for {key!r} must be a scalar")


def _check_roles(spec: FieldSpec, roles: tuple[Role, ...]) -> None:
    for role in roles:
        _check_type(spec, role, spec.cls)


_CHECKS = {
    "str": _check_str,
    "date": lambda spec, value: _check_type(spec, value, date),
    "int": _check_int,
    "bool": lambda spec, value: _check_type(spec, value, bool),
    "enum": lambda spec, value: _check_type(spec, value, spec.cls),
    "str-list": _check_str_list,
    "enum-list": _check_enum_list,
    "secret": lambda spec, value: _check_type(spec, value, SecretLiteral, SecretEnvVar),
    "sub-block": lambda spec, value: _check_type(spec, value, spec.cls),
    "contract": _check_contract,
    "roles": _check_roles,
}


def join_idlink(identification: IdentificationData) -> str:
    """Resolve the discoverable ID-Link URL for an identified asset.

    Joins base URL and endpoint with exactly one separating slash; for
    SIDI-typed assets the local identifier (serial number) is appended as
    a final path segment.
    """
    base = identification.base_url.rstrip("/")
    endpoint = identification.endpoint.strip("/")
    url = f"{base}/{endpoint}" if endpoint else base
    if identification.identifier_type is IdentifierType.SIDI:
        url = f"{url}/{identification.linked_asset_id}"
    return url


_INDENT = "  "


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _scalar(value: ContractValue) -> str:
    # bool first: bool is a subclass of int.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    return _quote(value)


def _secret(ref: SecretRef) -> str:
    if isinstance(ref, SecretEnvVar):
        return f"env({ref.name})"
    return _quote(ref.value)


def _string_list(items: tuple[str, ...]) -> str:
    return "[" + ", ".join(_quote(item) for item in items) + "]"


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.level = 0

    def line(self, text: str) -> None:
        self.lines.append(_INDENT * self.level + text)

    def open(self, header: str) -> None:
        self.line(header + " {")
        self.level += 1

    def close(self) -> None:
        self.level -= 1
        self.line("}")


def print_canonical(model: ConnectorModel) -> str:
    """Render a model as canonical DSL text.

    The output is deterministic: fixed section and field order, 2-space
    indentation, LF line endings, contract offers sorted by key, and a
    trailing newline.  Parsing the output reproduces the model.
    """
    w = _Writer()
    w.open(f"connector {_quote(model.name)}")
    _print_fields(w, model)
    w.close()
    return "\n".join(w.lines) + "\n"


_FORMATS = {
    "str": _quote,
    "date": date.isoformat,
    "int": str,
    "bool": lambda value: "true" if value else "false",
    "enum": lambda value: value.value,
    "str-list": _string_list,
    "enum-list": lambda value: "[" + ", ".join(member.value for member in value) + "]",
    "secret": _secret,
}


def _print_fields(w: _Writer, obj: object) -> None:
    for spec in FIELDS[type(obj)]:
        value = getattr(obj, spec.attr)
        # Absent optionals are omitted; an optional string is printed even when empty.
        if value is None or (not value and not spec.required and spec.kind != "str"):
            continue
        format_value = _FORMATS.get(spec.kind)
        if format_value is not None:
            w.line(f"{spec.key}: {format_value(value)}")
        elif spec.kind == "sub-block":
            if isinstance(value, UsageConfig):
                w.open(f"usage {variant_name(value.extension)}")
                _print_fields(w, value)
                _print_fields(w, value.extension)
            else:
                w.open(spec.key)
                _print_fields(w, value)
            w.close()
        elif spec.kind == "contract":
            w.open(spec.key)
            for key in sorted(value):
                w.line(f"{_quote(key)}: {_scalar(value[key])},")
            w.close()
        elif spec.kind == "roles":
            w.open(spec.key)
            for role in value:
                w.open(f"role {role.role_name}")
                _print_fields(w, role)
                w.close()
            w.close()
