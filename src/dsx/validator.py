"""Semantic checks for parsed connector models.

The grammar guarantees structure; these checks cover the rules it cannot
express: URL schemes, participant-id formats, date ordering, policy
coherence.  Every finding carries a stable code, a public contract for CI
tooling; README's "Diagnostic codes" table lists every code with its rule.
``CHECKS`` is keyed by check family: the E206 check emits W206, and the
E204 and E207 checks emit warnings as well as errors.

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

WEB_SCHEMES = ("http", "https")
OPC_SCHEMES = ("opc.tcp",)


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

    def span(self, path: str) -> Span:
        return self.source_map.span_for(path)

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


def _url_fields(model: ConnectorModel) -> list[tuple[str, str, tuple[str, ...]]]:
    fields: list[tuple[str, str, tuple[str, ...]]] = [
        ("discovery.baseUrl", model.identification.base_url, WEB_SCHEMES),
        ("usage.dataAddress", model.usage.data_address, WEB_SCHEMES),
    ]
    if model.usage.schema_address is not None:
        fields.append(("usage.schemaAddress", model.usage.schema_address, WEB_SCHEMES))
    ext = model.usage.extension
    if isinstance(ext, EdcUsage):
        fields.append(("usage.edcAddress", ext.edc_address, WEB_SCHEMES))
        fields.append(("usage.remoteAddress", ext.remote_address, WEB_SCHEMES))
        if ext.sts_service_address is not None:
            fields.append(("usage.stsServiceAddress", ext.sts_service_address, WEB_SCHEMES))
        for index, url in enumerate(ext.trusted_did_registries):
            fields.append((f"usage.trustedDidRegistries[{index}]", url, WEB_SCHEMES))
        if ext.push_endpoints is not None:
            fields.append(("usage.push.callbackUrl", ext.push_endpoints.callback_url, WEB_SCHEMES))
    elif isinstance(ext, OpcUaUsage):
        fields.append(("usage.endpointUrl", ext.endpoint_url, OPC_SCHEMES))
        for index, url in enumerate(ext.companion_specs):
            fields.append((f"usage.companionSpecs[{index}]", url, WEB_SCHEMES))
    if model.access.identity_provider is not None:
        fields.append(
            ("access.identity.endpoint", model.access.identity_provider.endpoint, WEB_SCHEMES)
        )
    return fields


def _check_urls(ctx: _Context) -> None:
    for path, value, schemes in _url_fields(ctx.model):
        if not _is_absolute_url(value, schemes):
            allowed = " or ".join(schemes)
            ctx.error("E201", f"'{value}' is not an absolute {allowed} URL", path)


def _check_remote_id(ctx: _Context) -> None:
    ext = ctx.model.usage.extension
    if not isinstance(ext, EdcUsage):
        return
    value = ext.remote_id
    if not (BPN_RE.fullmatch(value) or DID_RE.fullmatch(value)):
        ctx.error(
            "E202",
            f"remoteId '{value}' is neither a BPN (BPNL + 12 alphanumerics) nor a DID",
            "usage.remoteId",
        )


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
        # Exactly YYYY-MM-DD: from 3.11 on, fromisoformat also takes forms
        # such as 20261231 and 2026-W53-1, which 3.10 refuses.
        try:
            parsed = date.fromisoformat(value)
        except ValueError:
            parsed = None
        if parsed is None or parsed.isoformat() != value:
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


def _check_language(ctx: _Context) -> None:
    language = ctx.model.metadata.language
    if language is not None and not _LANGUAGE_RE.fullmatch(language):
        ctx.error(
            "E208",
            f"language '{language}' is not a two-letter lowercase code",
            "metadata.language",
        )


def _check_semantic_ids(ctx: _Context) -> None:
    for index, sid in enumerate(ctx.model.metadata.semantic_ids):
        if not _IRI_RE.fullmatch(sid):
            ctx.error(
                "E209",
                f"semanticId '{sid}' is not a syntactically valid IRI",
                f"metadata.semanticIds[{index}]",
            )


def _check_usage_policy(ctx: _Context) -> None:
    value = ctx.model.access.usage_policy
    if not _IRI_RE.fullmatch(value):
        ctx.warning(
            "W210",
            f"usagePolicy '{value}' does not look like an IRI reference",
            "access.usagePolicy",
        )


CHECKS: dict[str, Callable[[_Context], None]] = {
    "E201": _check_urls,
    "E202": _check_remote_id,
    "E203": _check_date_order,
    "E204": _check_valid_until,
    "E205": _check_roles,
    "E206": _check_edc_mode,
    "E207": _check_opcua_security,
    "E208": _check_language,
    "E209": _check_semantic_ids,
    "W210": _check_usage_policy,
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
