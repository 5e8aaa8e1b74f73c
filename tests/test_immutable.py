"""Everything the toolchain returns is frozen all the way down.

The walk starts at what ``parse``, ``validate`` and ``generate_all`` return
for the fixtures (``invalid/`` included) and modelgen models 0-599, and
visits every object reachable from there.  Each object hashes; every
record refuses ``setattr`` and ``delattr``, and contract offers refuse
every mutator.  The one exemption is a parse's :class:`SourceMap` and the
containers it owns, which parsing fills; a ``ParseResult`` does not hash
only because it holds that map.
"""

from datetime import date
from enum import Enum

import pytest

from dsx import (
    Diagnostic,
    GeneratedArtifact,
    GenerationBundle,
    ParseResult,
    SourceMap,
    Target,
    generate_all,
    parse,
    print_canonical,
    validate,
)
from dsx.codegen import _unsupported
from dsx.model import ContractOffers, Record
from modelgen import build_model
from test_model import CONTRACT_MUTATORS

from conftest import FIXTURE_TODAY, FIXTURES

_LEAVES = (str, bytes, int, date, Enum, type(None))


def _inputs():
    paths = sorted(FIXTURES.glob("*.dsx")) + sorted((FIXTURES / "invalid").glob("*.dsx"))
    for path in paths:
        yield path.name, path.read_text(encoding="utf-8")
    for index in range(600):
        yield f"m{index}.dsx", print_canonical(build_model(index))


def _outputs(file, source):
    """What parse, validate and generate_all return for one input."""
    result = parse(source, file)
    yield result
    if result.model is None:
        return
    report = validate(result.model, result.source_map, today=FIXTURE_TODAY)
    yield report
    if report.valid:
        for target in Target:
            if _unsupported(result.model, target) is None:
                yield generate_all(result.model, {target}, report)


def _children(obj):
    if isinstance(obj, Record):
        return obj.__getstate__()
    if isinstance(obj, dict):
        return [*obj.keys(), *obj.values()]
    if isinstance(obj, SourceMap):
        return [obj.file, obj.source, *obj._offsets.keys(), *obj._offsets.values()]
    if isinstance(obj, (tuple, frozenset)):
        return obj
    assert isinstance(obj, _LEAVES), f"unexpected {type(obj).__name__}: {obj!r}"
    return ()


def _check_frozen(obj):
    if isinstance(obj, Record):
        for name in (*obj.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    if isinstance(obj, ContractOffers):
        before = dict(obj)
        for mutate in CONTRACT_MUTATORS.values():
            with pytest.raises(TypeError, match="contract offers are read-only"):
                mutate(obj)
        assert obj == before
    if not isinstance(obj, (ParseResult, SourceMap)):
        hash(obj)


def test_every_reachable_object_hashes_and_refuses_change():
    kinds: set[type] = set()
    for file, source in _inputs():
        roots = list(_outputs(file, source))
        pending = roots[:]  # the roots keep every visited object, and so its id, alive
        seen: set[int] = set()
        while pending:
            obj = pending.pop()
            if isinstance(obj, _LEAVES) or id(obj) in seen:
                continue
            seen.add(id(obj))
            kinds.add(type(obj))
            _check_frozen(obj)
            pending.extend(_children(obj))
    # The walk reached every kind of output, contract offers included.
    assert {Diagnostic, ContractOffers, SourceMap, GenerationBundle, GeneratedArtifact} <= kinds
