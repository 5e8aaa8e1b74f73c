"""Semantic checks for parsed connector models.

The grammar guarantees structure; these checks cover the rules it cannot
express: URL schemes, participant-id formats, date ordering, policy
coherence.  Every finding carries a stable code, a public contract for CI
tooling; README's "Diagnostic codes" table lists every code with its rule.
``CHECKS`` is keyed by check family: the E206 check emits W206, and the
E204 and E207 checks emit warnings as well as errors.

A rule on one field's value is named by the ``form`` of the field's row;
``_FORMS`` maps each form to its code, severity, test and message.

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
    Span,
    UsageConfig,
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
    """Findings ordered by span, and whether none of them is an error."""

    ATTRS = ("diagnostics", "valid")

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
        self._by_form: dict[str, list[Diagnostic]] | None = None

    def span(self, path: str) -> Span:
        return self.source_map.span_for(path)

    def form_findings(self, code: str) -> list[Diagnostic]:
        """The value-form findings with ``code``; one pass finds those of every code."""
        if self._by_form is None:
            self._by_form = {}
            self._test_forms(self.model, "")
        return self._by_form.get(code, [])

    def _test_forms(self, record: Record, prefix: str) -> None:
        """Test each value of ``record`` and its sub-blocks whose row names a form.

        ``prefix`` is the record's binder path and a dot ('' for the model); a
        finding's path, with ``[i]`` for a list item, is built only on failure.
        """
        for spec in record.FIELDS:
            if spec.form is not None:
                value = getattr(record, spec.attr)
                if value is None:
                    continue
                code, severity, test, message = _FORMS[spec.form]
                items = enumerate(value) if spec.kind == "str-list" else [(None, value)]
                for index, item in items:
                    if not test(item):
                        path = prefix + spec.key + ("" if index is None else f"[{index}]")
                        found = Diagnostic(severity, code, message.format(item), self.span(path))
                        self._by_form.setdefault(code, []).append(found)
            elif spec.kind == "sub-block":
                value = getattr(record, spec.attr)
                if value is not None:
                    self._test_forms(value, f"{prefix}{spec.key}.")
                    if isinstance(value, UsageConfig):
                        self._test_forms(value.extension, f"{prefix}{spec.key}.")

    def error(self, code: str, message: str, path: str) -> None:
        self.findings.append(Diagnostic(Severity.ERROR, code, message, self.span(path)))

    def warning(self, code: str, message: str, path: str) -> None:
        self.findings.append(Diagnostic(Severity.WARNING, code, message, self.span(path)))


def _is_absolute_url(value: str, schemes: tuple[str, ...]) -> bool:
    if _SPACE_RE.search(value):
        return False
    try:
        parts = urlsplit(value)
    except ValueError:  # an unbalanced '[' or ']', or a host invalid under NFKC
        return False
    return parts.scheme in schemes and bool(parts.netloc)


def _url_form(*schemes: str) -> tuple[str, Severity, Callable[[str], object], str]:
    return (
        "E201",
        Severity.ERROR,
        lambda value: _is_absolute_url(value, schemes),
        f"'{{}}' is not an absolute {' or '.join(schemes)} URL",
    )


# The value forms a FieldSpec row may name: each maps to its code, severity,
# test, and the message for a value that fails the test ('{}' is the value).
_FORMS: dict[str, tuple[str, Severity, Callable[[str], object], str]] = {
    "web-url": _url_form("http", "https"),
    "opc-url": _url_form("opc.tcp"),
    "participant-id": (
        "E202",
        Severity.ERROR,
        lambda value: BPN_RE.fullmatch(value) or DID_RE.fullmatch(value),
        "remoteId '{}' is neither a BPN (BPNL + 12 alphanumerics) nor a DID",
    ),
    "language": (
        "E208",
        Severity.ERROR,
        _LANGUAGE_RE.fullmatch,
        "language '{}' is not a two-letter lowercase code",
    ),
    "iri": (
        "E209",
        Severity.ERROR,
        _IRI_RE.fullmatch,
        "semanticId '{}' is not a syntactically valid IRI",
    ),
    "policy-iri": (
        "W210",
        Severity.WARNING,
        _IRI_RE.fullmatch,
        "usagePolicy '{}' does not look like an IRI reference",
    ),
}


def _form_check(code: str) -> Callable[[_Context], None]:
    def check(ctx: _Context) -> None:
        ctx.findings += ctx.form_findings(code)

    return check


def _check_date_order(ctx: _Context) -> None:
    meta = ctx.model.metadata
    if meta.modified < meta.created:
        ctx.error(
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
    if isinstance(value, date):
        parsed = value
    elif isinstance(value, str):
        parsed = iso_date(value)
        if parsed is None:
            ctx.error("E204", f"\"validUntil\" value '{value}' is not an ISO 8601 date", path)
            return
    else:
        ctx.error("E204", f"\"validUntil\" value {value!r} is not an ISO 8601 date", path)
        return
    if parsed < ctx.today:
        ctx.warning("W204", f"contract expired on {parsed.isoformat()}", path)


def _check_roles(ctx: _Context) -> None:
    seen: set[str] = set()
    for role in ctx.model.access.roles:
        path = f"access.roles[{role.role_name}]"
        if role.role_name in seen:
            ctx.error("E205", f"duplicate role name '{role.role_name}'", path)
        seen.add(role.role_name)
        if not role.permissions:
            ctx.error(
                "E205", f"role '{role.role_name}' has no permissions", f"{path}.permissions"
            )
        elif len(set(role.permissions)) != len(role.permissions):
            ctx.error(
                "E205",
                f"role '{role.role_name}' lists duplicate permissions",
                f"{path}.permissions",
            )


def _check_edc_mode(ctx: _Context) -> None:
    ext = ctx.model.usage.extension
    if not isinstance(ext, EdcUsage) or ext.sts_service_address is not None:
        return
    if ext.push_endpoints is not None:
        ctx.warning(
            "W206",
            "push endpoints configured without stsServiceAddress; "
            "hosted-client mode ignores direct-DSP details",
            "usage.push",
        )
    elif ext.trusted_did_registries:
        ctx.warning(
            "W206",
            "trustedDidRegistries configured without stsServiceAddress; "
            "hosted-client mode ignores direct-DSP details",
            "usage.trustedDidRegistries",
        )


def _check_opcua_security(ctx: _Context) -> None:
    ext = ctx.model.usage.extension
    if not isinstance(ext, OpcUaUsage):
        return
    if (
        ext.message_security_mode is MessageSecurityMode.NONE
        and ext.security_policy is not SecurityPolicy.NONE
    ):
        ctx.error(
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
            ctx.warning(
                "W207",
                f"anonymous authentication although role(s) {', '.join(writers)} require WRITE",
                "usage.authenticationMode",
            )


CHECKS: dict[str, Callable[[_Context], None]] = {
    "E201": _form_check("E201"),
    "E202": _form_check("E202"),
    "E203": _check_date_order,
    "E204": _check_valid_until,
    "E205": _check_roles,
    "E206": _check_edc_mode,
    "E207": _check_opcua_security,
    "E208": _form_check("E208"),
    "E209": _form_check("E209"),
    "W210": _form_check("W210"),
}


def _sorted(findings: list[Diagnostic]) -> tuple[Diagnostic, ...]:
    return tuple(sorted(findings, key=lambda d: (*d.span.sort_key(), d.code)))


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
    for check in CHECKS.values():
        check(ctx)
    diagnostics = _sorted(ctx.findings)
    return ValidationReport(
        diagnostics=diagnostics,
        valid=not any(d.severity is Severity.ERROR for d in diagnostics),
    )


def check_single(
    model: ConnectorModel,
    code: str,
    source_map: SourceMap | None = None,
    *,
    today: date | None = None,
) -> list[Diagnostic]:
    """Run one named check; the union over all codes equals ``validate``."""
    if code not in CHECKS:
        valid = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check code {code!r} (valid codes: {valid})")
    ctx = _Context(model, source_map, today or date.today())
    CHECKS[code](ctx)
    return list(_sorted(ctx.findings))
