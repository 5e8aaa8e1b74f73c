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
from datetime import date
from enum import Enum

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


def iso_date(text: str) -> date | None:
    """The date ``text`` spells exactly as ``YYYY-MM-DD``, else None.

    From Python 3.11 on, ``date.fromisoformat`` also takes forms such as
    ``20261231`` and ``2026-W53-1``, which 3.10 refuses.
    """
    try:
        parsed = date.fromisoformat(text)
    except ValueError:
        return None
    return parsed if parsed.isoformat() == text else None


def _check_text(value: str, what: str, *, allow_empty: bool = True) -> None:
    """Reject strings the canonical printer cannot represent on one line."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {type(value).__name__}")
    if not allow_empty and not value:
        raise ValueError(f"{what} must be non-empty")
    if _CONTROL_RE.search(value):
        raise ValueError(f"{what} must not contain control characters")


def _check_fields(obj: Record) -> None:
    """Enforce the table rows of ``obj``'s class on a freshly built instance."""
    for spec in obj.FIELDS:
        value = getattr(obj, spec.attr)
        if value is None and not spec.required:
            continue
        _CHECKS[spec.kind](spec, value)


# Optional rows of these kinds default to (), a contract row to {}, any other to None.
_SEQUENCE_KINDS = frozenset({"str-list", "enum-list", "roles"})


class _RecordType(type):
    """Builds each record class from its own declaration.

    A table-driven class declares its ``FIELDS`` rows, and in ``ATTRS`` the
    attributes that have no row.  Its constructor is keyword-only.  ``ATTRS``
    and required rows must be given; an optional row defaults to ``()`` for
    lists and roles, to a fresh ``{}`` for a contract, and to None otherwise.
    Any other record lists its attributes in ``ATTRS`` in positional order,
    with ``DEFAULTS`` for the last of them, as ``collections.namedtuple``
    does.

    From that declaration the type makes ``__slots__`` and compiles an
    ``__init__`` that stores each argument through its slot's own setter,
    which skips the frozen ``__setattr__``.  It then runs the class's
    ``_check``, if it has one, and ``_check_fields`` on a table-driven class.
    """

    def __new__(mcls, name: str, bases: tuple[type, ...], ns: dict[str, object]) -> type:
        if not bases:
            return super().__new__(mcls, name, bases, ns)
        rows = ns.get("FIELDS")
        attrs = ns.get("ATTRS", ())
        if rows is not None:
            attrs += tuple(spec.attr for spec in rows)
        ns["__slots__"] = attrs
        cls = super().__new__(mcls, name, bases, ns)
        params = ", ".join(attrs)
        lines = [
            f"def __init__(self, {'*, ' if rows is not None and attrs else ''}{params}):",
            *(
                f"    if {spec.attr} is None: {spec.attr} = {{}}"
                for spec in rows or ()
                if spec.kind == "contract"
            ),
            *(f"    _set_{attr}(self, {attr})" for attr in attrs),
            *(["    self._check()"] if "_check" in ns else []),
            *(["    _check_fields(self)"] if rows is not None else []),
        ]
        scope = {f"_set_{attr}": getattr(cls, attr).__set__ for attr in attrs}
        scope["_check_fields"] = _check_fields
        exec("\n".join(lines), scope)
        init = cls.__init__ = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"  # as named in argument errors
        if rows is None:
            init.__defaults__ = ns.get("DEFAULTS")
        else:
            init.__kwdefaults__ = {
                spec.attr: () if spec.kind in _SEQUENCE_KINDS else None
                for spec in rows
                if not spec.required
            }
        return cls


class Record(metaclass=_RecordType):
    """Immutable value object; see :class:`_RecordType` for how to declare one."""

    __slots__ = ()

    def __getstate__(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple[object, ...]) -> None:
        # copy and pickle make a bare instance, then restore its attributes here.
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self.__getstate__())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(Record):
    """One field of a model class, as the DSL spells it and the model holds it.

    ``kind`` is one of: str, date, int, bool, enum, str-list, enum-list,
    secret, sub-block, contract, roles.  ``cls`` is the enum class of enum
    and enum-list rows, and the model class of sub-block and roles rows.
    ``form``, a key of the validator's ``_FORMS``, names the form a str or
    str-list row's value must have.  A class's rows declare its attributes;
    binding, unknown-field detection, canonical printing, constructor checks
    and value-form checks all read them, in this order.
    """

    ATTRS = ("key", "attr", "kind", "required", "nonempty", "minimum", "unique", "cls", "form")
    DEFAULTS = (True, False, None, False, None, None)


_F = FieldSpec

# Rows of these kinds are keyword blocks in the DSL rather than `key: value` fields.
BLOCK_KINDS = frozenset({"sub-block", "contract", "roles"})


class SecretLiteral(Record):
    """Inline secret value, committed verbatim with the model."""

    ATTRS = ("value",)

    def _check(self) -> None:
        _check_text(self.value, "secret literal")


class SecretEnvVar(Record):
    """Reference to an environment variable; generators emit ``${NAME}``."""

    ATTRS = ("name",)

    def _check(self) -> None:
        if not ENV_NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid environment variable name: {self.name!r}")


SecretRef = SecretLiteral | SecretEnvVar


class Span(Record):
    """Half-open source region: 1-based line/column plus length in chars."""

    ATTRS = ("file", "line", "column", "length")
    DEFAULTS = (0,)

    def _check(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("span line and column are 1-based")

    def sort_key(self) -> tuple[int, int]:
        return (self.line, self.column)


class Diagnostic(Record):
    """One parser/validator finding with a stable machine-readable code."""

    ATTRS = ("severity", "code", "message", "span")

    def render(self) -> str:
        return (
            f"{self.span.file}:{self.span.line}:{self.span.column}: "
            f"{self.severity.value.lower()}[{self.code}]: {self.message}"
        )


class IdentificationData(Record):
    FIELDS = (
        _F("linkedAssetId", "linked_asset_id", "str", nonempty=True),
        _F("baseUrl", "base_url", "str", form="web-url"),
        _F("endpoint", "endpoint", "str"),
        _F("identifierType", "identifier_type", "enum", cls=IdentifierType),
    )


class AssetMetaData(Record):
    FIELDS = (
        _F("title", "title", "str", nonempty=True),
        _F("description", "description", "str"),
        _F("publisher", "publisher", "str", nonempty=True),
        _F("semanticIds", "semantic_ids", "str-list", required=False, form="iri"),
        _F("version", "version", "str", nonempty=True),
        _F("created", "created", "date"),
        _F("modified", "modified", "date"),
        _F("language", "language", "str", required=False, form="language"),
    )


class PushEndpointsConfig(Record):
    FIELDS = (
        _F("callbackUrl", "callback_url", "str", form="web-url"),
        _F("cloudPush", "cloud_push", "bool"),
    )


class EdcUsage(Record):
    FIELDS = (
        _F("edcAddress", "edc_address", "str", form="web-url"),
        _F("xApiKey", "x_api_key", "secret"),
        _F("remoteAddress", "remote_address", "str", form="web-url"),
        _F("remoteId", "remote_id", "str", nonempty=True, form="participant-id"),
        _F("stsServiceAddress", "sts_service_address", "str", required=False, form="web-url"),
        _F(
            "trustedDidRegistries",
            "trusted_did_registries",
            "str-list",
            required=False,
            form="web-url",
        ),
        _F("push", "push_endpoints", "sub-block", required=False, cls=PushEndpointsConfig),
    )

    @property
    def direct_dsp(self) -> bool:
        """True when the model talks DSP directly instead of via a hosted EDC."""
        return self.sts_service_address is not None


class QosMetrics(Record):
    FIELDS = (
        _F("samplingRateMs", "sampling_rate_ms", "int", minimum=1),
        _F("maxSubscriptions", "max_subscriptions", "int", minimum=1),
    )


class OpcUaUsage(Record):
    FIELDS = (
        _F("endpointUrl", "endpoint_url", "str", form="opc-url"),
        _F("securityPolicy", "security_policy", "enum", cls=SecurityPolicy),
        _F("messageSecurityMode", "message_security_mode", "enum", cls=MessageSecurityMode),
        _F("authenticationMode", "authentication_mode", "enum", cls=AuthenticationMode),
        _F("protocols", "protocols", "enum-list", nonempty=True, unique=True, cls=Protocol),
        _F("companionSpecs", "companion_specs", "str-list", required=False, form="web-url"),
        _F("addressSpace", "address_space", "str"),
        _F("qos", "qos", "sub-block", required=False, cls=QosMetrics),
    )


class PlainUsage(Record):
    """ID-Link connectors need nothing beyond the shared usage fields."""

    FIELDS = ()


UsageExtension = EdcUsage | OpcUaUsage | PlainUsage


class UsageConfig(Record):
    ATTRS = ("extension",)
    FIELDS = (
        _F("dataAddress", "data_address", "str", form="web-url"),
        _F("schemaAddress", "schema_address", "str", required=False, form="web-url"),
    )

    def _check(self) -> None:
        if not isinstance(self.extension, (EdcUsage, OpcUaUsage, PlainUsage)):
            raise TypeError("usage extension must be one of EdcUsage, OpcUaUsage, PlainUsage")


ContractValue = str | int | bool | date


class Role(Record):
    ATTRS = ("role_name",)
    FIELDS = (
        # Emptiness and duplicates are validator findings (E205), not
        # construction errors, so defective models stay representable.
        _F("permissions", "permissions", "enum-list", cls=Permission),
    )

    def _check(self) -> None:
        if not NAME_RE.fullmatch(self.role_name):
            raise ValueError(f"invalid role name: {self.role_name!r}")


class IdentityProviderConfig(Record):
    FIELDS = (
        _F("endpoint", "endpoint", "str", form="web-url"),
        _F("clientId", "client_id", "str", nonempty=True),
        _F("grantType", "grant_type", "enum", cls=GrantType),
        _F("secret", "secret", "secret"),
    )


class OAuthInfo(Record):
    FIELDS = (
        _F("identifier", "identifier", "str", nonempty=True),
        _F("secret", "secret", "secret"),
        _F("grantType", "grant_type", "str"),
        _F("scope", "scope", "str"),
    )


class AccessPolicy(Record):
    FIELDS = (
        _F("usagePolicy", "usage_policy", "str", nonempty=True, form="policy-iri"),
        _F("contract", "contract_offers", "contract", required=False),
        _F("roles", "roles", "roles", required=False, cls=Role),
        _F(
            "identity", "identity_provider", "sub-block", required=False, cls=IdentityProviderConfig
        ),
        _F("oauth", "oauth", "sub-block", required=False, cls=OAuthInfo),
    )


class ConnectorModel(Record):
    ATTRS = ("name",)
    FIELDS = (
        _F("discovery", "identification", "sub-block", cls=IdentificationData),
        _F("metadata", "metadata", "sub-block", cls=AssetMetaData),
        _F("usage", "usage", "sub-block", cls=UsageConfig),
        _F("access", "access", "sub-block", cls=AccessPolicy),
    )

    def _check(self) -> None:
        if not NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid connector name: {self.name!r}")


VARIANTS: dict[str, type] = {"edc": EdcUsage, "opcua": OpcUaUsage, "plain": PlainUsage}


def variant_name(extension: UsageExtension) -> str:
    """The DSL keyword (``edc``, ``opcua``, ``plain``) of a usage extension."""
    return next(name for name, cls in VARIANTS.items() if isinstance(extension, cls))


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
    for spec in obj.FIELDS:
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
