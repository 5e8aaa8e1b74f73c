"""Seeded inputs and CLI invocations of the three benchmark workloads.

Everything here is derived from ``--seed`` and the files of the checkout
(``tests/modelgen.py`` and ``fixtures/``); nothing is read from the
compiler under test except ``print_canonical``, which renders the
generated models as the ``.dsx`` files a user would commit.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

# The seed picks one of RANGES disjoint ``build_model`` index ranges (and
# the content of the scale inputs); the oracle holds digests for each.
RANGES = 32

SCALE_TARGETS = "edc,idlink-aas"


@dataclass(frozen=True)
class Size:
    models: int
    scale_keys: int
    scale_roles: int
    scale_string_bytes: int


# The full sizes are part of the workload definition: keep them, and never
# shrink the scale inputs to hide the quadratic contract-key check.
SIZES = {
    "full": Size(models=600, scale_keys=4096, scale_roles=4096, scale_string_bytes=1 << 20),
    "tiny": Size(models=12, scale_keys=64, scale_roles=64, scale_string_bytes=4096),
}


@dataclass(frozen=True)
class Input:
    """One ``.dsx`` file, at ``rel`` under the work directory."""

    rel: str
    text: str
    index: int | None = None  # build_model index, for generated models

    @property
    def stem(self) -> str:
        return Path(self.rel).stem


@dataclass(frozen=True)
class Invocation:
    """One ``python -m dsx.cli`` run of a pass, and what it must produce."""

    name: str
    args: tuple[str, ...]
    inputs: tuple[Input, ...]
    expected_exit: int
    writes: bool = False  # gen: artifacts land under ``out/``


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    invocations: tuple[Invocation, ...]
    # Library work per file that mirrors the CLI, see run.py.
    pipeline: str  # "check" (parse, validate, print) or "gen"
    targets: dict[str, tuple[str, ...]]  # input rel -> generator targets

    def corpus_sha256(self) -> str:
        digest = hashlib.sha256()
        for item in sorted(self.inputs, key=lambda i: i.rel):
            digest.update(item.rel.encode() + b"\0" + item.text.encode() + b"\0")
        return digest.hexdigest()


def load_modelgen(repo: Path):
    """Import ``tests/modelgen.py`` in place, without putting tests/ on sys.path."""
    spec = importlib.util.spec_from_file_location("modelgen", repo / "tests" / "modelgen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def applicable_targets(text: str) -> tuple[str, ...]:
    """Targets a model can be generated for, read from its source text."""
    usage = re.search(r"^\s*usage (edc|opcua|plain) \{", text, re.M)
    targets = [usage.group(1)] if usage and usage.group(1) != "plain" else []
    if re.search(r"^\s*identity \{", text, re.M):
        targets.append("idlink-aas")
    return tuple(targets)


def _fleet_inputs(repo: Path, seed: int, size: Size) -> list[Input]:
    from dsx import print_canonical

    modelgen = load_modelgen(repo)
    start = (seed % RANGES) * size.models
    inputs = [
        Input(f"models/m{i:05d}.dsx", print_canonical(modelgen.build_model(i)), i)
        for i in range(start, start + size.models)
    ]
    fixtures = repo / "fixtures"
    for path in sorted(fixtures.glob("*.dsx")):
        inputs.append(Input(f"fixtures/{path.name}", path.read_text(encoding="utf-8")))
    for path in sorted((fixtures / "invalid").glob("*.dsx")):
        inputs.append(Input(f"invalid/{path.name}", path.read_text(encoding="utf-8")))
    return inputs


def fleet_check(repo: Path, seed: int, size: Size) -> Workload:
    inputs = tuple(_fleet_inputs(repo, seed, size))
    globs = ("models/*.dsx", "fixtures/*.dsx", "invalid/*.dsx")
    # Every input is canonical (models are printed canonically, fixtures
    # are committed so), and the invalid/e2xx fixtures carry errors.
    has_errors = any(i.rel.startswith("invalid/e") for i in inputs)
    return Workload(
        name="fleet-check",
        inputs=inputs,
        invocations=(
            Invocation("fmt-check", ("fmt", "--check", *globs), inputs, 0),
            Invocation("check", ("check", "--report", "json", *globs), inputs, int(has_errors)),
        ),
        pipeline="check",
        targets={},
    )


def fleet_gen(repo: Path, seed: int, size: Size) -> Workload:
    # Invalid fixtures are left out: they fail validation by design, and
    # most reuse the connector name "production-machine", so their output
    # directories would collide.
    groups: dict[tuple[str, ...], list[Input]] = {}
    for item in _fleet_inputs(repo, seed, size):
        if item.rel.startswith("invalid/"):
            continue
        targets = applicable_targets(item.text)
        if targets:
            groups.setdefault(targets, []).append(item)
    invocations = []
    for targets in sorted(groups, key=lambda t: (len(t), t)):
        files = tuple(groups[targets])
        joined = ",".join(targets)
        invocations.append(
            Invocation(
                f"gen-{joined}",
                ("gen", "--report", "json", "--out", "out", "--targets", joined,
                 *(i.rel for i in files)),
                files,
                0,
                writes=True,
            )
        )
    inputs = tuple(i for inv in invocations for i in inv.inputs)
    return Workload(
        name="fleet-gen",
        inputs=inputs,
        invocations=tuple(invocations),
        pipeline="gen",
        targets={i.rel: applicable_targets(i.text) for i in inputs},
    )


_STRING_ALPHABET = string.ascii_letters + string.digits + " .,;:-_/()"


def _replace_block(text: str, header: str, body: str) -> str:
    """Swap the body of the ``header {`` block, found by indentation."""
    match = re.search(rf"^( *){header} \{{\n.*?^\1\}}\n", text, re.M | re.S)
    indent = match.group(1)
    return text[: match.start()] + f"{indent}{header} {{\n{body}{indent}}}\n" + text[match.end():]


def scale_inputs(repo: Path, seed: int, size: Size) -> list[Input]:
    """Three variants of the flagship fixture, each large along one axis."""
    base = (repo / "fixtures" / "production-machine.dsx").read_text(encoding="utf-8")
    rng = random.Random(f"scale-{seed % RANGES}")

    def renamed(name: str) -> str:
        return base.replace('connector "production-machine"', f'connector "{name}"', 1)

    def token() -> str:
        return "".join(rng.choices(string.ascii_lowercase, k=8))

    entries = ['      "validUntil": "2026-12-31",\n']
    for n in range(size.scale_keys - 1):
        value = rng.randrange(100_000) if n % 2 else f'"{token()}"'
        entries.append(f'      "key-{n:05d}-{token()}": {value},\n')
    contract = _replace_block(renamed("scale-contract"), "contract", "".join(entries))

    permissions = ["READ", "WRITE", "SUBSCRIBE"]
    roles_body = "".join(
        f"      role r{n:05d}-{token()} {{\n"
        f"        permissions: [{', '.join(rng.sample(permissions, rng.randrange(1, 4)))}]\n"
        "      }\n"
        for n in range(size.scale_roles)
    )
    roles = _replace_block(renamed("scale-roles"), "roles", roles_body)

    description = "".join(rng.choices(_STRING_ALPHABET, k=size.scale_string_bytes))
    long_string = re.sub(
        r'(description: )".*"', lambda m: f'{m.group(1)}"{description}"', renamed("scale-string"), 1
    )
    return [
        Input("scale/contract.dsx", contract),
        Input("scale/roles.dsx", roles),
        Input("scale/string.dsx", long_string),
    ]


def scale_gen(repo: Path, seed: int, size: Size) -> Workload:
    inputs = tuple(scale_inputs(repo, seed, size))
    return Workload(
        name="scale-gen",
        inputs=inputs,
        invocations=(
            Invocation(
                "gen-scale",
                ("gen", "--report", "json", "--out", "out", "--targets", SCALE_TARGETS,
                 "scale/*.dsx"),
                inputs,
                0,
                writes=True,
            ),
        ),
        pipeline="gen",
        targets={i.rel: tuple(SCALE_TARGETS.split(",")) for i in inputs},
    )


WORKLOADS = {"fleet-check": fleet_check, "fleet-gen": fleet_gen, "scale-gen": scale_gen}
