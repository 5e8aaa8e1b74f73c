"""Semantic checks for parsed connector models.

The grammar guarantees structure; these checks cover the rules it cannot
express: URL schemes, participant-id formats, date ordering, policy
coherence.  Every finding carries a stable code, a public contract for CI
tooling; README's "Diagnostic codes" table lists every code with its rule,
and :class:`~dsx.model.Diagnostic` derives a finding's severity from its
code.  ``validate`` runs each rule once.  ``CHECKS`` lists the check
families; a W code that is not a family itself belongs to the family of its
E code (W204 to E204, W206 to E206, W207 to E207), and ``check_single``
keeps the findings of ``validate`` in one family.

A rule on one field's value is named by the ``form`` of the field's row;
``_FORMS`` maps each form to its code, test and message.

No check performs network I/O; reports are deterministic for a given
model (W204 compares against an injectable ``today``).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from datetime import date
from urllib.parse import urlsplit

from .model import (
    AuthenticationMode,
    ConnectorModel,
    Diagnostic,
    EdcUsage,
    MessageSecurityMode,
    OpcUaUsage,
    Permission,
    Record,
    SecurityPolicy,
    Severity,
    UsageConfig,
    _scalar,
    iso_date,
)
from .parser import SourceMap

# Catena-X style business partner number; adjust here if another data-space
# ecosystem uses a different participant-id convention.
BPN_RE = re.compile(r"BPNL[A-Z0-9]{12}")
DID_RE = re.compile(r"did:[a-z0-9]+:.+")

_IRI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:\S+")
_LANGUAGE_RE = re.compile(r"[a-z]{2}")
# For str patterns, \s matches exactly the characters for which str.isspace() is true.
_SPACE_RE = re.compile(r"\s")


class ValidationReport(Record):
    """Findings ordered by span."""

    ATTRS = ("diagnostics",)

    @property
    def valid(self) -> bool:
        """Whether no finding is an error."""
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)


class _Context:
    def __init__(self, model: ConnectorModel, source_map: SourceMap | None, today: date) -> None:
        self.model = model
        self.source_map = source_map if source_map is not None else SourceMap("<model>")
        self.today = today
        self.findings: list[Diagnostic] = []

    def report(self, code: str, message: str, path: str) -> None:
        """Record a finding at ``path``; its code gives its severity."""
        self.findings.append(Diagnostic(code, message, self.source_map.span_for(path)))


def _is_absolute_url(value: str, schemes: tuple[str, ...]) -> bool:
    if _SPACE_RE.search(value):
        return False
    try:
        parts = urlsplit(value)
    except ValueError:  # an unbalanced '[' or ']', or a host invalid under NFKC
        return False
    return parts.scheme in schemes and bool(parts.netloc)


def _url_form(*schemes: str) -> tuple[str, Callable[[str], object], str]:
    return (
        "E201",
        lambda value: _is_absolute_url(value, schemes),
        f"'{{}}' is not an absolute {' or '.join(schemes)} URL",
    )


# The value forms a FieldSpec row may name: each maps to its code, test, and
# the message for a value that fails the test ('{}' is the value).
_FORMS: dict[str, tuple[str, Callable[[str], object], str]] = {
    "web-url": _url_form("http", "https"),
    "opc-url": _url_form("opc.tcp"),
    "participant-id": (
        "E202",
        lambda value: BPN_RE.fullmatch(value) or DID_RE.fullmatch(value),
        "remoteId '{}' is neither a BPN (BPNL + 12 alphanumerics) nor a DID",
    ),
    "language": (
        "E208",
        _LANGUAGE_RE.fullmatch,
        "language '{}' is not a two-letter lowercase code",
    ),
    "iri": (
        "E209",
        _IRI_RE.fullmatch,
        "semanticId '{}' is not a syntactically valid IRI",
    ),
    "policy-iri": (
        "W210",
        _IRI_RE.fullmatch,
        "usagePolicy '{}' does not look like an IRI reference",
    ),
}


def _check_forms(ctx: _Context, record: Record | None = None, prefix: str = "") -> None:
    """Test each value of ``record`` (the model by default) and of its
    sub-blocks whose row names a form.

    ``prefix`` is the record's binder path and a dot ('' for the model); a
    finding's path, with ``[i]`` for a list item, is built only on failure.
    """
    if record is None:
        record = ctx.model
    for spec in record.FIELDS:
        if spec.form is not None:
            value = getattr(record, spec.attr)
            if value is None:
                continue
            code, test, message = _FORMS[spec.form]
            items = enumerate(value) if spec.kind == "str-list" else [(None, value)]
            for index, item in items:
                if not test(item):
                    path = prefix + spec.key + ("" if index is None else f"[{index}]")
                    ctx.report(code, message.format(item), path)
        elif spec.kind == "sub-block":
            value = getattr(record, spec.attr)
            if value is not None:
                _check_forms(ctx, value, f"{prefix}{spec.key}.")
                if isinstance(value, UsageConfig):
                    _check_forms(ctx, value.extension, f"{prefix}{spec.key}.")


def _check_date_order(ctx: _Context) -> None:
    meta = ctx.model.metadata
    if meta.modified < meta.created:
        ctx.report(
            "E203",
            f"modified ({meta.modified.isoformat()}) is before created ({meta.created.isoformat()})",
            "metadata.modified",
        )


def _check_valid_until(ctx: _Context) -> None:
    offers = ctx.model.access.contract_offers
    if "validUntil" not in offers:
        return
    value = offers["validUntil"]
    path = "access.contract.validUntil"
    parsed = iso_date(value) if isinstance(value, str) else value
    if not isinstance(parsed, date):
        spelled = f"'{value}'" if isinstance(value, str) else _scalar(value)
        ctx.report("E204", f"\"validUntil\" value {spelled} is not an ISO 8601 date", path)
    elif parsed < ctx.today:
        ctx.report("W204", f"contract expired on {parsed.isoformat()}", path)


def _check_roles(ctx: _Context) -> None:
    seen: set[str] = set()
    for role in ctx.model.access.roles:
        path = f"access.roles[{role.role_name}]"
        if role.role_name in seen:
            ctx.report("E205", f"duplicate role name '{role.role_name}'", path)
        seen.add(role.role_name)
        if not role.permissions:
            ctx.report(
                "E205", f"role '{role.role_name}' has no permissions", f"{path}.permissions"
            )
        elif len(set(role.permissions)) != len(role.permissions):
            ctx.report(
                "E205",
                f"role '{role.role_name}' lists duplicate permissions",
                f"{path}.permissions",
            )


def _check_edc_mode(ctx: _Context) -> None:
    ext = ctx.model.usage.extension
    if not isinstance(ext, EdcUsage) or ext.sts_service_address is not None:
        return
    if ext.push_endpoints is not None:
        item, path = "push endpoints", "usage.push"
    elif ext.trusted_did_registries:
        item, path = "trustedDidRegistries", "usage.trustedDidRegistries"
    else:
        return
    ctx.report(
        "W206",
        f"{item} configured without stsServiceAddress; "
        "hosted-client mode ignores direct-DSP details",
        path,
    )


def _check_opcua_security(ctx: _Context) -> None:
    ext = ctx.model.usage.extension
    if not isinstance(ext, OpcUaUsage):
        return
    if (
        ext.message_security_mode is MessageSecurityMode.NONE
        and ext.security_policy is not SecurityPolicy.NONE
    ):
        ctx.report(
            "E207",
            f"messageSecurityMode None contradicts securityPolicy "
            f"{ext.security_policy.value}",
            "usage.messageSecurityMode",
        )
    if ext.authentication_mode is AuthenticationMode.ANONYMOUS:
        writers = [
            role.role_name
            for role in ctx.model.access.roles
            if Permission.WRITE in role.permissions
        ]
        if writers:
            ctx.report(
                "W207",
                f"anonymous authentication although role(s) {', '.join(writers)} require WRITE",
                "usage.authenticationMode",
            )


_RULES: tuple[Callable[[_Context], None], ...] = (
    _check_forms,
    _check_date_order,
    _check_valid_until,
    _check_roles,
    _check_edc_mode,
    _check_opcua_security,
)

CHECKS = ("E201", "E202", "E203", "E204", "E205", "E206", "E207", "E208", "E209", "W210")


def validate(
    model: ConnectorModel,
    source_map: SourceMap | None = None,
    *,
    today: date | None = None,
) -> ValidationReport:
    """Run all semantic checks; diagnostics come back ordered by span.

    ``source_map`` (as returned by ``parse``) anchors findings to their
    source locations; without it, spans fall back to the model root.
    ``today`` pins the reference date for expiry warnings.
    """
    ctx = _Context(model, source_map, today or date.today())
    for rule in _RULES:
        rule(ctx)
    return ValidationReport(
        tuple(sorted(ctx.findings, key=lambda d: (*d.span.sort_key(), d.code)))
    )


def check_single(
    model: ConnectorModel,
    code: str,
    source_map: SourceMap | None = None,
    *,
    today: date | None = None,
) -> list[Diagnostic]:
    """The findings of ``validate`` in family ``code``, one of ``CHECKS``;
    the union over all families equals ``validate``."""
    if code not in CHECKS:
        valid = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check code {code!r} (valid codes: {valid})")
    report = validate(model, source_map, today=today)
    return [
        d for d in report.diagnostics if (d.code if d.code in CHECKS else "E" + d.code[1:]) == code
    ]
