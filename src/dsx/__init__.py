"""dsx: a compiler toolchain for data-space connector descriptions.

``.dsx`` files declare how one asset is discovered, described, used, and
access-controlled in a federated data space.  This package parses and
validates such models and generates deployable configuration for EDC,
OPC UA, and ID-Link/AAS targets.
"""

from .model import (
    AccessPolicy,
    AssetMetaData,
    AuthenticationMode,
    ConnectorModel,
    Diagnostic,
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
    SecretRef,
    SecurityPolicy,
    Severity,
    Span,
    UsageConfig,
    join_idlink,
    print_canonical,
)
from .parser import ParseResult, SourceMap, Token, TokenKind, parse, tokenize
from .validator import ValidationReport, check_single, validate

__version__ = "0.1.0"

__all__ = [
    "AccessPolicy",
    "AssetMetaData",
    "AuthenticationMode",
    "ConnectorModel",
    "Diagnostic",
    "EdcUsage",
    "GeneratedArtifact",
    "GenerationBundle",
    "GenerationError",
    "GrantType",
    "IdentificationData",
    "IdentifierType",
    "IdentityProviderConfig",
    "MessageSecurityMode",
    "OAuthInfo",
    "OpcUaUsage",
    "ParseResult",
    "Permission",
    "PlainUsage",
    "PROTOCOL_WIRE_NAMES",
    "Protocol",
    "PushEndpointsConfig",
    "QosMetrics",
    "Role",
    "SecretEnvVar",
    "SecretLiteral",
    "SecretRef",
    "SecurityPolicy",
    "Severity",
    "SourceMap",
    "Span",
    "Target",
    "Token",
    "TokenKind",
    "UsageConfig",
    "ValidationReport",
    "check_single",
    "generate_all",
    "generate_edc",
    "generate_idlink_aas",
    "generate_opcua",
    "join_idlink",
    "parse",
    "print_canonical",
    "schema_path_for",
    "tokenize",
    "validate",
]


def __getattr__(name: str) -> object:
    # The names in __all__ not imported above come from codegen, which loads on
    # first use (PEP 562), so that `dsx check` and `dsx fmt` never load it.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import codegen

    value = globals()[name] = getattr(codegen, name)
    return value
