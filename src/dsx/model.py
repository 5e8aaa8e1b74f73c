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

import copyreg
import gc
import re
from datetime import date
from enum import Enum
from functools import wraps
from types import FunctionType

# Type checkers read this as typing.TYPE_CHECKING; importing typing would slow start-up.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import TypeVar

    _Fn = TypeVar("_Fn", bound=Callable[..., object])

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


def pause_gc(function: _Fn) -> _Fn:
    """Wrap ``function`` so that the cyclic garbage collector is off while it runs.

    ``parse``, ``tokenize`` and ``generate_all`` allocate tens of thousands
    of containers on a large input (token tuples, value dicts, records), and
    each allocation counts toward the collector's thresholds, so it would
    scan those graphs again and again.  That work frees nothing: the
    toolchain makes no reference cycles, so reference counting frees every
    object it drops, and ``tests/test_golden.py`` checks that no input
    leaves cyclic garbage.  The switch is process-wide: cyclic garbage that
    other threads make meanwhile waits until the call returns.  A call
    made with the collector off leaves it off.

    The pause still counts allocations.  A call that allocated more than
    one middle collection's worth of containers runs that middle
    collection as it returns, which scans the graph it kept once and moves
    it to the old generation.  Left to the next allocation, a young
    collection would move the whole graph to the middle generation, and
    whatever code next triggers a middle collection, outside this call,
    would scan it again.  After ``parse`` that graph is the model and the
    diagnostics: its source map holds only strings and ints, which the
    collector never tracks, and the tokens are freed a window at a time
    as the parser reads past them, the last window's as it returns.
    """

    @wraps(function)
    def paused(*args: object, **kwargs: object) -> object:
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            # Read while still paused, so no allocation here starts a collection.
            pending = gc.get_count()[0]
            young, middle, _ = gc.get_threshold()
            gc.enable()
            if young and pending > young * middle:
                gc.collect(1)

    return paused  # type: ignore[return-value]


def _check_text(value: str, what: str) -> None:
    """Reject strings the canonical printer cannot represent on one line."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {type(value).__name__}")
    # isprintable() is false for every C0 control and DEL, so it accepts
    # most text at C speed; the pattern decides the rest.
    if not value.isprintable() and _CONTROL_RE.search(value):
        raise ValueError(f"{what} must not contain control characters")


def _check_fields(obj: Record) -> None:
    """Enforce the name rule, then the table rows, of ``obj``'s class on a fresh instance."""
    if obj.NAMED is not None:
        attr, what = obj.NAMED
        name = getattr(obj, attr)
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"invalid {what} name: {name!r}")
    for spec in obj.FIELDS:
        value = getattr(obj, spec.attr)
        if value is None and not spec.required:
            continue
        _CHECKS[spec.kind](spec, value)


# Optional rows of these kinds default to (), a contract row to {}, any other to None.
_SEQUENCE_KINDS = frozenset({"str-list", "enum-list", "roles"})


class ContractOffers(dict):
    """A model's contract offers: a dict that refuses changes and hashes by value.

    ``__new__`` fills it, so ``__init__``, which would refill it, is refused
    like every other mutator; build one with
    ``ContractOffers.__new__(ContractOffers, offers)``.
    """

    __slots__ = ()

    def __new__(cls, offers: dict[str, ContractValue]) -> ContractOffers:
        self = dict.__new__(cls)
        dict.update(self, offers)
        return self

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError("contract offers are read-only")

    __init__ = __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self) -> tuple[object, tuple[type, dict[str, ContractValue]]]:
        # copy, deepcopy and pickle rebuild it through __new__ alone.
        return (copyreg.__newobj__, (self.__class__, dict(self)))


class _RecordType(type):
    """Builds each record class from its own declaration.

    A table-driven class declares its ``FIELDS`` rows, and in ``ATTRS`` the
    attributes that have no row.  Its constructor is keyword-only.  ``ATTRS``
    and required rows must be given; an optional row defaults to ``()`` for
    lists and roles, to ``{}`` for a contract, and to None otherwise.  A
    contract is stored as a :class:`ContractOffers` copy.  ``NAMED`` may
    give the attribute that must match ``NAME_RE``, and what its error calls
    that name, checked before any row.
    Any other record lists its attributes in ``ATTRS`` in positional order,
    with ``DEFAULTS`` for the last of them, as ``collections.namedtuple``
    does.

    From that declaration the type makes ``__slots__`` and compiles an
    ``__init__`` that stores each argument through its slot's own setter,
    which skips the frozen ``__setattr__``.  It then runs the class's
    ``_check``, if it has one, and ``_check_fields`` on a table-driven class.
    Such a class also gets ``_init_parsed``, a function on that same code whose
    ``_check_fields`` is a no-op, for records whose rows the parser has checked.
    A subclass that declares neither ``FIELDS`` nor ``ATTRS`` keeps its
    parent's slots and constructor, so it may not add a ``_check``, which
    that constructor would never call.
    """

    def __new__(mcls, name: str, bases: tuple[type, ...], ns: dict[str, object]) -> type:
        rows = ns.get("FIELDS")
        if rows is None and "ATTRS" not in ns:
            # Record itself, or a subclass that adds no attribute: it keeps its
            # parent's constructor and attribute names, and has no __dict__.
            if bases and "_check" in ns:
                # The parent's constructor was compiled without a call to it.
                raise TypeError(f"{name} adds _check, so it must declare FIELDS or ATTRS")
            cls = super().__new__(mcls, name, bases, {**ns, "__slots__": ()})
            cls.__slots__ = bases[0].__slots__ if bases else ()
            return cls
        attrs = ns.get("ATTRS", ())
        if rows is not None:
            attrs += tuple(spec.attr for spec in rows)
        ns["__slots__"] = attrs
        cls = super().__new__(mcls, name, bases, ns)
        params = ", ".join(attrs)
        lines = [
            f"def __init__(self, {'*, ' if rows is not None and attrs else ''}{params}):",
            *(
                f"    {spec.attr} = ContractOffers.__new__(ContractOffers,"
                f" {{}} if {spec.attr} is None else {spec.attr})"
                for spec in rows or ()
                if spec.kind == "contract"
            ),
            *(f"    _set_{attr}(self, {attr})" for attr in attrs),
            *(["    self._check()"] if "_check" in ns else []),
            *(["    _check_fields(self)"] if rows is not None else []),
        ]
        scope = {f"_set_{attr}": getattr(cls, attr).__set__ for attr in attrs}
        scope.update(_check_fields=_check_fields, ContractOffers=ContractOffers)
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
            twin = FunctionType(init.__code__, {**scope, "_check_fields": lambda obj: None})
            twin.__kwdefaults__ = init.__kwdefaults__
            cls._init_parsed = twin
        return cls


class Record(metaclass=_RecordType):
    """Immutable value object; see :class:`_RecordType` for how to declare one."""

    __slots__ = ()
    NAMED: tuple[str, str] | None = None

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
    and value-form checks all read them, in this order.  A row (see ``_F``)
    gives its attribute only when that is not the DSL key in snake case.
    """

    ATTRS = ("key", "attr", "kind", "required", "nonempty", "minimum", "unique", "cls", "form")
    DEFAULTS = (True, False, None, False, None, None)

    def fault(self, value: object) -> str | None:
        """How a value of the row's type breaks its ``nonempty`` or ``minimum`` rule, as a
        message tail after ``field 'key'`` (parser) or the key (constructor); else None."""
        if self.nonempty and not value:
            return "must not be empty" if self.kind == "enum-list" else "must be non-empty"
        if self.minimum is not None and value < self.minimum:
            return f"must be >= {self.minimum}"
        return None


def _F(key: str, kind: str, *, attr: str | None = None, **rules: object) -> FieldSpec:
    snake = "".join(f"_{char}" if "A" <= char <= "Z" else char for char in key).lower()
    return FieldSpec(key, attr or snake, kind, **rules)


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

    def _check(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("span line and column are 1-based")

    def sort_key(self) -> tuple[int, int]:
        return (self.line, self.column)


class Diagnostic(Record):
    """One parser/validator finding; its stable machine-readable code gives its severity."""

    ATTRS = ("code", "message", "span")

    @property
    def severity(self) -> Severity:
        return Severity.ERROR if self.code[0] == "E" else Severity.WARNING

    def render(self) -> str:
        return (
            f"{self.span.file}:{self.span.line}:{self.span.column}: "
            f"{self.severity.value.lower()}[{self.code}]: {self.message}"
        )


class IdentificationData(Record):
    FIELDS = (
        _F("linkedAssetId", "str", nonempty=True),
        _F("baseUrl", "str", form="web-url"),
        _F("endpoint", "str"),
        _F("identifierType", "enum", cls=IdentifierType),
    )


class AssetMetaData(Record):
    FIELDS = (
        _F("title", "str", nonempty=True),
        _F("description", "str"),
        _F("publisher", "str", nonempty=True),
        _F("semanticIds", "str-list", required=False, form="iri"),
        _F("version", "str", nonempty=True),
        _F("created", "date"),
        _F("modified", "date"),
        _F("language", "str", required=False, form="language"),
    )


class PushEndpointsConfig(Record):
    FIELDS = (
        _F("callbackUrl", "str", form="web-url"),
        _F("cloudPush", "bool"),
    )


class EdcUsage(Record):
    FIELDS = (
        _F("edcAddress", "str", form="web-url"),
        _F("xApiKey", "secret"),
        _F("remoteAddress", "str", form="web-url"),
        _F("remoteId", "str", nonempty=True, form="participant-id"),
        _F("stsServiceAddress", "str", required=False, form="web-url"),
        _F("trustedDidRegistries", "str-list", required=False, form="web-url"),
        _F("push", "sub-block", attr="push_endpoints", required=False, cls=PushEndpointsConfig),
    )

    @property
    def direct_dsp(self) -> bool:
        """True when the model talks DSP directly instead of via a hosted EDC."""
        return self.sts_service_address is not None


class QosMetrics(Record):
    FIELDS = (
        _F("samplingRateMs", "int", minimum=1),
        _F("maxSubscriptions", "int", minimum=1),
    )


class OpcUaUsage(Record):
    FIELDS = (
        _F("endpointUrl", "str", form="opc-url"),
        _F("securityPolicy", "enum", cls=SecurityPolicy),
        _F("messageSecurityMode", "enum", cls=MessageSecurityMode),
        _F("authenticationMode", "enum", cls=AuthenticationMode),
        _F("protocols", "enum-list", nonempty=True, unique=True, cls=Protocol),
        _F("companionSpecs", "str-list", required=False, form="web-url"),
        _F("addressSpace", "str"),
        _F("qos", "sub-block", required=False, cls=QosMetrics),
    )


class PlainUsage(Record):
    """ID-Link connectors need nothing beyond the shared usage fields."""

    FIELDS = ()


UsageExtension = EdcUsage | OpcUaUsage | PlainUsage


class UsageConfig(Record):
    ATTRS = ("extension",)
    FIELDS = (
        _F("dataAddress", "str", form="web-url"),
        _F("schemaAddress", "str", required=False, form="web-url"),
    )

    def _check(self) -> None:
        if not isinstance(self.extension, _EXTENSIONS):
            names = ", ".join(cls.__name__ for cls in _EXTENSIONS)
            raise TypeError(f"usage extension must be one of {names}")


ContractValue = str | int | bool | date


class Role(Record):
    ATTRS = ("role_name",)
    NAMED = ("role_name", "role")
    FIELDS = (
        # Emptiness and duplicates are validator findings (E205), not
        # construction errors, so defective models stay representable.
        _F("permissions", "enum-list", cls=Permission),
    )


class IdentityProviderConfig(Record):
    FIELDS = (
        _F("endpoint", "str", form="web-url"),
        _F("clientId", "str", nonempty=True),
        _F("grantType", "enum", cls=GrantType),
        _F("secret", "secret"),
    )


class OAuthInfo(Record):
    FIELDS = (
        _F("identifier", "str", nonempty=True),
        _F("secret", "secret"),
        _F("grantType", "str"),
        _F("scope", "str"),
    )


class AccessPolicy(Record):
    FIELDS = (
        _F("usagePolicy", "str", nonempty=True, form="policy-iri"),
        _F("contract", "contract", attr="contract_offers", required=False),
        _F("roles", "roles", required=False, cls=Role),
        _F(
            "identity",
            "sub-block",
            attr="identity_provider",
            required=False,
            cls=IdentityProviderConfig,
        ),
        _F("oauth", "sub-block", required=False, cls=OAuthInfo),
    )


class ConnectorModel(Record):
    ATTRS = ("name",)
    NAMED = ("name", "connector")
    FIELDS = (
        _F("discovery", "sub-block", attr="identification", cls=IdentificationData),
        _F("metadata", "sub-block", cls=AssetMetaData),
        _F("usage", "sub-block", cls=UsageConfig),
        _F("access", "sub-block", cls=AccessPolicy),
    )


VARIANTS: dict[str, type] = {"edc": EdcUsage, "opcua": OpcUaUsage, "plain": PlainUsage}
_EXTENSIONS = tuple(VARIANTS.values())


def variant_name(extension: UsageExtension) -> str:
    """The DSL keyword (``edc``, ``opcua``, ``plain``) of a usage extension."""
    return next(name for name, cls in VARIANTS.items() if isinstance(extension, cls))


def _check_rules(spec: FieldSpec, value: object) -> None:
    fault = spec.fault(value)
    if fault is not None:
        raise ValueError(f"{spec.key} {fault}")


def _check_str(spec: FieldSpec, value: object) -> None:
    _check_text(value, spec.key)
    _check_rules(spec, value)


def _check_type(spec: FieldSpec, value: object, *expected: type) -> None:
    if not isinstance(value, expected):
        names = " or ".join(cls.__name__ for cls in expected)
        raise TypeError(f"{spec.key} must be {names}, got {type(value).__name__}")


def _check_int(spec: FieldSpec, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{spec.key} must be an integer, got {type(value).__name__}")
    _check_rules(spec, value)


def _check_str_list(spec: FieldSpec, value: tuple[str, ...]) -> None:
    for item in value:
        _check_text(item, f"{spec.key} entry")


def _check_members(spec: FieldSpec, value: tuple[object, ...]) -> None:
    """An enum list's or a roles row's check: each item is a ``spec.cls``."""
    for item in value:
        _check_type(spec, item, spec.cls)
    _check_rules(spec, value)
    if spec.unique and len(set(value)) != len(value):
        raise ValueError(f"{spec.key} must not contain duplicates")


def _check_contract(spec: FieldSpec, offers: dict[str, ContractValue]) -> None:
    for key, value in offers.items():
        _check_text(key, "contract key")
        if isinstance(value, str):
            _check_text(value, f"contract value for {key!r}")
        elif not isinstance(value, (bool, int, date)):
            raise TypeError(f"contract value for {key!r} must be a scalar")


_CHECKS = {
    "str": _check_str,
    "date": lambda spec, value: _check_type(spec, value, date),
    "int": _check_int,
    "bool": lambda spec, value: _check_type(spec, value, bool),
    "enum": lambda spec, value: _check_type(spec, value, spec.cls),
    "str-list": _check_str_list,
    "enum-list": _check_members,
    "secret": lambda spec, value: _check_type(spec, value, SecretLiteral, SecretEnvVar),
    "sub-block": lambda spec, value: _check_type(spec, value, spec.cls),
    "contract": _check_contract,
    "roles": _check_members,
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


def print_canonical(model: ConnectorModel) -> str:
    """Render a model as canonical DSL text.

    The output is deterministic: fixed section and field order, 2-space
    indentation, LF line endings, contract offers sorted by key, and a
    trailing newline.  Parsing the output reproduces the model.
    """
    lines = [f"connector {_quote(model.name)} {{"]
    _print_fields(lines, "  ", model)
    lines.append("}")
    return "\n".join(lines) + "\n"


_FORMATS = {
    "str": _quote,
    "date": date.isoformat,
    "int": str,
    "bool": lambda value: "true" if value else "false",
    "enum": lambda value: value._value_,
    "str-list": _string_list,
    "enum-list": lambda value: "[" + ", ".join([member._value_ for member in value]) + "]",
    "secret": _secret,
}


def _print_fields(lines: list[str], pad: str, obj: object) -> None:
    """Append ``obj``'s rows at indent ``pad``; a nested block's at ``pad`` plus two spaces."""
    for spec in obj.FIELDS:
        value = getattr(obj, spec.attr)
        # Absent optionals are omitted; an optional string is printed even when empty.
        if value is None or (not value and not spec.required and spec.kind != "str"):
            continue
        format_value = _FORMATS.get(spec.kind)
        if format_value is not None:
            lines.append(f"{pad}{spec.key}: {format_value(value)}")
            continue
        inner = pad + "  "
        if spec.kind == "sub-block":
            if isinstance(value, UsageConfig):
                lines.append(f"{pad}usage {variant_name(value.extension)} {{")
                _print_fields(lines, inner, value)
                _print_fields(lines, inner, value.extension)
            else:
                lines.append(f"{pad}{spec.key} {{")
                _print_fields(lines, inner, value)
        elif spec.kind == "contract":
            lines.append(f"{pad}{spec.key} {{")
            for key in sorted(value):
                lines.append(f"{inner}{_quote(key)}: {_scalar(value[key])},")
        elif spec.kind == "roles":
            lines.append(f"{pad}{spec.key} {{")
            for role in value:
                lines.append(f"{inner}role {role.role_name} {{")
                _print_fields(lines, inner + "  ", role)
                lines.append(inner + "}")
        lines.append(pad + "}")
