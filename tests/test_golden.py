"""Golden digests of every output the toolchain produces for a fixed corpus.

Inputs are the fixtures, the canonical prints of ``modelgen.build_model(i)``
for i in 0..599, deterministic token and line mutations of the three
flagship fixtures, two flagships grown to 300 contract terms and 300 roles,
and three inputs that hit the diagnostic cap.  For each input the test
records the rendered parse diagnostics (with span lengths), the source-map
spans, ``validate`` and every ``check_single`` code, the canonical print,
and ``generate_all`` for every target set with and without a report.  Each
input group hashes to one sha256 digest, so a refactor that changes any
output byte names the first group that differs.
``TOKEN_GOLDEN`` holds a second digest per group over what ``tokenize``
returns: each token's kind name, lexeme, ``repr`` of its value and offset,
then the lexer's rendered diagnostics.

The digests are computed with the cyclic garbage collector off, with every
input also tokenized; afterwards the collector must find nothing
unreachable.  ``parse``, ``tokenize`` and ``generate_all`` pause the
collector, which is sound only while the toolchain makes no reference
cycles.

Run ``python tests/test_golden.py`` to print the current digests, or
``python tests/test_golden.py --dump DIR`` to write each input's record to
``DIR/<group>/<n>.txt``, so the outputs of two trees compare with ``diff -r``.
Run as a script, it also computes every digest with the lexer's window set
to 64 characters and fails if one differs: no golden input is a window
long, so only that run matches windows that end inside a file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import sys
from datetime import date
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator

from dsx import (
    GenerationError,
    Target,
    check_single,
    generate_all,
    parse,
    print_canonical,
    tokenize,
    validate,
)
from dsx import parser as parser_module
from dsx.validator import CHECKS
from modelgen import build_model

FIXTURES = Path(__file__).parent.parent / "fixtures"
FLAGSHIPS = ("production-machine", "machine-opcua", "sensor-idlink")
TODAY = date(2026, 6, 1)
TARGET_SETS = [
    frozenset(combo)
    for size in range(1, len(Target) + 1)
    for combo in itertools.combinations(Target, size)
]
# Replacement lexemes cover every token kind plus section/block keywords.
REPLACEMENTS = (
    "x", '"s"', '""', "0", "-3", "2025-02-30", "2025-01-01", "true", "{", "}", "[", "]",
    ":", ",", "env(X)", "env(x)", "role", "push", "qos", "usage", "connector", "READ",
)
# Inputs that stop at the cap of MAX_DIAGNOSTICS (E099): one in the lexer, one
# in the parser, and one whose lexical and parse findings interleave, down to
# one line, past the cap, so it pins that the cap keeps the first findings in
# source order.
CAPPED = (
    "@" * 300,
    'connector "c" {\n' + "  metadata { x: [ }\n" * 300,
    'connector "c" {\n' + "  metadata { x: [ $ }\n" * 300,
)
# The large inputs' contract values cycle through these forms: non-ASCII text,
# integers (one past 64 bits), dates, booleans, and strings with escapes.
_LARGE_VALUES = (
    '"Prüfstand {n}: Charge ✓"',
    "{n}",
    "2026-{month:02d}-{day:02d}",
    "true",
    r'"quote \" and backslash \\ {n}"',
    "{big}",
    "false",
)
_LARGE_PERMISSIONS = ("READ", "READ, WRITE", "SUBSCRIBE, READ", "READ, WRITE, SUBSCRIBE")


def _large(stem: str, size: int = 300) -> str:
    """A flagship with ``size`` more contract terms and roles, so that its
    generated documents hold flat objects and name lists of that size."""
    entries, roles = [], []
    for n in range(size):
        key = (f"Prüfung-{n:03d}", f'q\\"{n:03d}', f"term-{n:03d}")[n % 3]
        value = _LARGE_VALUES[n % len(_LARGE_VALUES)].format(
            n=n * 7919, month=1 + n % 12, day=1 + n % 28, big=2**64 + n
        )
        entries.append(f'      "{key}": {value},\n')
        permissions = _LARGE_PERMISSIONS[n % len(_LARGE_PERMISSIONS)]
        roles.append(
            f"      role shift-{n:03d} {{\n        permissions: [{permissions}]\n      }}\n"
        )
    text = (FIXTURES / f"{stem}.dsx").read_text(encoding="utf-8")
    text = text.replace("    contract {\n", "    contract {\n" + "".join(entries), 1)
    return text.replace("    roles {\n", "    roles {\n" + "".join(roles), 1)


GOLDEN = {
    "fixtures": "b2e9559f98a056a8501865c96686d045dfe78e4ffc072f1b6faefefe6cfedc82",
    "modelgen[0:100]": "c24f1f4359a655c10e5930628971ceb77bc52d6f1cf4872971862fda8359b7ad",
    "modelgen[100:200]": "1c82bb163c1015cb387bca2b750db9cc34b0043eca897ac1d31333d02b7de408",
    "modelgen[200:300]": "b3b679252bcdfbf269b0a178447150a0cbfb7f8a722f0dd751ebaf39949e07c3",
    "modelgen[300:400]": "d933dad2dd70086195d745a1a69f232234e1cbac4d898c5ab2f88e3fabfc997c",
    "modelgen[400:500]": "acaac632d297fe1acddccada94d6cb27f6a31dbfbfef8b1a384e853f7846e13b",
    "modelgen[500:600]": "31137c40a803488dfe930c1e03871d8993cb9f9200d7779dba1085c0eb434933",
    "production-machine:delete-token": "6aa5312b791e97cc048844474bc5e340e67cf2b76eeb7062dbec72000c535669",
    "production-machine:duplicate-token": "da6d37e4cb74556c5ad29159f0d2a4cbbcc293bbaae12fbc0f1b8b5c9106849d",
    "production-machine:replace-token": "c424bf680bd408ac6621bac91385030f3a90ce01662c4f8e5c8274596fd1d5b2",
    "production-machine:drop-line": "cd0b52f8eee7001fd118a67daff85f51d91d89c38feaf07d0d433eb1ebea9904",
    "production-machine:duplicate-line": "a3c4f3e4fc463413ec4a12748031e85f359e10d2ffe525df66fd17184a3a7e2e",
    "machine-opcua:delete-token": "c7c090f281142e4b5d474c63e449851f235a12dd83cd8b43d1ce2d645a31abcb",
    "machine-opcua:duplicate-token": "7f560099bc2c647e975be14b94169aac9328be74689e7663d12f798e9e511cf4",
    "machine-opcua:replace-token": "db6e4597a5c838e23ea631b48d05672e0c0b843d32f081700ab52e91f089a40f",
    "machine-opcua:drop-line": "f51603c43b0a65ee2f6e08ab70a727a9de4444b72cb6cbef7174be9beab20dc5",
    "machine-opcua:duplicate-line": "c2b7bd0427f6188fda3ec7032c553d79df36a4bee35357cff558fda746f18d39",
    "sensor-idlink:delete-token": "dd4bec4d7d551d5e1120bc033519e760d74733f6ee793fdff165025865b48c0b",
    "sensor-idlink:duplicate-token": "fa53ab468f3d55e45d925dd18688d7633fcd35c09e1d281593df6c55699f5b6b",
    "sensor-idlink:replace-token": "cb610a38f54654b7d048e688117aa84d67ede91b49d254cfec4a315c2841043b",
    "sensor-idlink:drop-line": "70ba7cd959ce5e949e860fac5e1bc0375037e280d3b77fd4b48886c7da6f2b71",
    "sensor-idlink:duplicate-line": "225e882c69e0fba1c9eb69b4dc30efdbbd73dfaec9f64cf44e501cefabb15fcd",
    "large": "90caed3530f13b6c83ca6d44b0c33f6f5c6aa18d3608dc3db7f87cd0fd9fc8ab",
    "capped": "bae6cd82b141c28a3cd941da45c747f3abdb99179d0b2131861aa6736d0570d3",
}

TOKEN_GOLDEN = {
    "fixtures": "01abbedc696519a2db26b5319b8b90ec236c81ff0c3ddd107e0c010ebb48d374",
    "modelgen[0:100]": "d9608dac506022db1aa404a1e2e9801938776425fd85a0e49ee517d83ac8bdb0",
    "modelgen[100:200]": "3239aaf4ab2c830420e9959dd78d638f4c3776bd73f21d6f9c74a41a4024bf7c",
    "modelgen[200:300]": "69dfbf79f6ee2d95c5b64f95273423ee6926414f6c744be7a1d4cc497793ba80",
    "modelgen[300:400]": "c8666fb74141e92e0906e00bb2479e74e0c526e36df882f82855afe2a0bc4175",
    "modelgen[400:500]": "4dfe95a29db91d39eabfcd67330eceadb204cb60189258a3ad017f7414626b09",
    "modelgen[500:600]": "5433293c1920dc5229fd0d2304cfe3bfa89d315ceda68199221699dfae36f3d0",
    "production-machine:delete-token": "0677024d32794414a71be03c4ebd8dacae98186997560d312c56b15e04bfd1e7",
    "production-machine:duplicate-token": "fea1da29524bc75eb3449179255605e7603989cab2b72dd402ed047f25df2781",
    "production-machine:replace-token": "88013b35886f7cfa3eb3ea90aefe23c314da6026401a52d873e785dd5eb61f0d",
    "production-machine:drop-line": "80f19a55563e28eeef7eefc055be712b0a31cc56844e82ed45c8365823f781e0",
    "production-machine:duplicate-line": "0d49f532b5f1f577826589912fd4b0563202279bf6631cf8103657f7be3d9302",
    "machine-opcua:delete-token": "c1ba305d000933cb7189a239f951932f17f5893210489af8e47e6a46b07db206",
    "machine-opcua:duplicate-token": "df8a04bfdfb1eb9f3b2b438c7b2036226d16d986f214433920b4891f0939e39c",
    "machine-opcua:replace-token": "049ec29ec3665b8aa42543a6fa39826bfadc272c18ade1ec6081688bc4c8cd5d",
    "machine-opcua:drop-line": "2566c1cf86974d8ca5fad7332f614971f9b1547324e653d4120ea4d41ae149d0",
    "machine-opcua:duplicate-line": "5bc320959b42bfd23f45b76ea72c415b4b33fff61ca94ad70db3a8c0e68fdc0f",
    "sensor-idlink:delete-token": "09a6c3d7910b0eaf48d729c34192dc8c10ca3b1c28cd9e6d33a56fa040af26d3",
    "sensor-idlink:duplicate-token": "63c08e6b85a932995e0aa5ff34868f4e527756a7a634eb3bf9ffeb58c7ea207d",
    "sensor-idlink:replace-token": "917d15d8f5de2b93f2296037d252600fb4ac81fb7be1a910f6ac018cad70c672",
    "sensor-idlink:drop-line": "0de7d2c94b842efbcbac30bf4eb39761a334692f0438938f04b6f6e2b9a55f77",
    "sensor-idlink:duplicate-line": "4b651289f2a3bb2a9b53c61efcf462579dd3055b2765733a8cd58ec848f5f791",
    "large": "2f629c541575bc4f4747b235d3137f16a8f9413f37c36b98e407af62288e7983",
    "capped": "af1bd6ab88890b2244c3b76e46d637a433da56655d303fbbe726b1b6469d1ce5",
}


def _token_slices(source: str) -> list[tuple[int, int]]:
    starts = [0]
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    tokens, _ = tokenize(source)
    return [
        (starts[t.span.line - 1] + t.span.column - 1, len(t.lexeme))
        for t in tokens
        if t.lexeme
    ]


def _mutations(source: str) -> dict[str, list[str]]:
    slices = _token_slices(source)
    lines = source.split("\n")
    replaced = []
    for index, (start, length) in enumerate(slices):
        for k in range(2):
            lexeme = REPLACEMENTS[(index + k) % len(REPLACEMENTS)]
            replaced.append(source[:start] + lexeme + source[start + length :])
    return {
        "delete-token": [source[:s] + source[s + n :] for s, n in slices],
        "duplicate-token": [
            source[: s + n] + " " + source[s : s + n] + source[s + n :] for s, n in slices
        ],
        "replace-token": replaced,
        "drop-line": ["\n".join(lines[:i] + lines[i + 1 :]) for i in range(len(lines))],
        "duplicate-line": ["\n".join(lines[: i + 1] + lines[i:]) for i in range(len(lines))],
    }


def groups() -> Iterator[tuple[str, list[tuple[str, str]]]]:
    """(group name, [(file name, source)]) in a fixed order."""
    paths = sorted(FIXTURES.glob("*.dsx")) + sorted((FIXTURES / "invalid").glob("*.dsx"))
    yield "fixtures", [
        (p.relative_to(FIXTURES.parent).as_posix(), p.read_text(encoding="utf-8")) for p in paths
    ]
    for lo in range(0, 600, 100):
        yield f"modelgen[{lo}:{lo + 100}]", [
            (f"m{i}.dsx", print_canonical(build_model(i))) for i in range(lo, lo + 100)
        ]
    for stem in FLAGSHIPS:
        source = (FIXTURES / f"{stem}.dsx").read_text(encoding="utf-8")
        for kind, variants in _mutations(source).items():
            yield f"{stem}:{kind}", [(f"{stem}.dsx", text) for text in variants]
    yield "large", [(f"{stem}-large.dsx", _large(stem)) for stem in FLAGSHIPS[:2]]
    yield "capped", [("capped.dsx", source) for source in CAPPED]


def _diagnostics(diagnostics) -> str:
    return "\n".join(f"{d.render()} +{d.span.length}" for d in diagnostics)


def token_record(file: str, source: str) -> str:
    """What ``tokenize`` returns for one input, as one text record."""
    tokens, diagnostics = tokenize(source, file)
    lines = [f"{t.kind.name} {t.lexeme!r} {t.value!r} {t.offset}" for t in tokens]
    return "\n".join([*lines, "diagnostics:", _diagnostics(diagnostics)]) + "\n"


def outputs(file: str, source: str) -> str:
    """Every output for one input, as one text record."""
    result = parse(source, file)
    parts = [
        "parse:",
        _diagnostics(result.diagnostics),
        "spans:",
        "\n".join(
            f"{path} {s.file}:{s.line}:{s.column}+{s.length}"
            for path, s in sorted(result.source_map.spans.items())
        ),
    ]
    model = result.model
    if model is not None:
        report = validate(model, result.source_map, today=TODAY)
        parts += ["validate:", _diagnostics(report.diagnostics), f"valid={report.valid}"]
        for code in CHECKS:
            found = check_single(model, code, result.source_map, today=TODAY)
            parts += [f"check {code}:", _diagnostics(found)]
        parts += ["print:", print_canonical(model)]
        for targets in TARGET_SETS:
            for with_report in (False, True):
                name = ",".join(sorted(t.value for t in targets))
                parts.append(f"gen {name} report={with_report}:")
                try:
                    bundle = generate_all(model, targets, report if with_report else None)
                except GenerationError as exc:
                    parts.append("error " + " | ".join(exc.messages))
                    continue
                parts += [
                    f"{a.relative_path} {hashlib.sha256(a.content).hexdigest()}"
                    for a in bundle.artifacts
                ]
    return "\n".join(parts) + "\n"


@cache
def golden_run() -> tuple[dict[str, str], dict[str, str], int]:
    """Each group's output digest and token digest, and how many objects the
    collector then finds unreachable."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result, token_result = {}, {}
        for name, inputs in groups():
            h, t = hashlib.sha256(), hashlib.sha256()
            for file, source in inputs:
                t.update(token_record(file, source).encode("utf-8"))
                h.update(outputs(file, source).encode("utf-8"))
            result[name] = h.hexdigest()
            token_result[name] = t.hexdigest()
        return result, token_result, gc.collect()
    finally:
        if enabled:
            gc.enable()


def dump(directory: Path, named_groups: Iterable[tuple[str, list[tuple[str, str]]]]) -> None:
    """Write the record of input n of each group to ``directory/<group>/<n>.txt``."""
    for name, inputs in named_groups:
        folder = directory / name
        folder.mkdir(parents=True, exist_ok=True)
        for n, (file, source) in enumerate(inputs):
            (folder / f"{n}.txt").write_bytes(outputs(file, source).encode("utf-8"))


def test_outputs_match_golden_digests():
    actual, _, _ = golden_run()
    assert list(actual) == list(GOLDEN)
    for name, digest in actual.items():
        assert digest == GOLDEN[name], f"outputs changed, first differing group: {name}"


def test_tokens_match_golden_digests():
    _, actual, _ = golden_run()
    assert list(actual) == list(TOKEN_GOLDEN)
    for name, digest in actual.items():
        assert digest == TOKEN_GOLDEN[name], f"tokens changed, first differing group: {name}"


def test_no_input_leaves_cyclic_garbage():
    _, _, unreachable = golden_run()
    assert unreachable == 0, "a reference cycle outlives the call that paused the collector"


def test_dump_writes_each_record_of_a_group(tmp_path):
    named = list(groups())
    chosen = [named[0], named[-1]]
    assert [name for name, _ in chosen] == ["fixtures", "capped"]
    dump(tmp_path, chosen)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["capped", "fixtures"]
    for name, inputs in chosen:
        assert len(list((tmp_path / name).iterdir())) == len(inputs)
        written = [(tmp_path / name / f"{n}.txt").read_bytes() for n in range(len(inputs))]
        assert hashlib.sha256(b"".join(written)).hexdigest() == GOLDEN[name]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden digests of the current tree.")
    parser.add_argument(
        "--dump", metavar="DIR", type=Path, help="write each input's record to DIR/<group>/<n>.txt"
    )
    dump_dir = parser.parse_args().dump
    if dump_dir is not None:
        dump(dump_dir, groups())
    else:
        digests, token_digests, unreachable = golden_run()
        for table, found in (("GOLDEN", digests), ("TOKEN_GOLDEN", token_digests)):
            print(f"{table} = {{")
            for name, digest in found.items():
                print(f'    "{name}": "{digest}",')
            print("}")
        if unreachable:
            sys.exit(f"{unreachable} objects in reference cycles after the golden run")
        golden_run.cache_clear()
        parser_module._WINDOW = 64
        windowed, windowed_tokens, _ = golden_run()
        for found, other in ((digests, windowed), (token_digests, windowed_tokens)):
            changed = [name for name in found if other[name] != found[name]]
            if changed:
                sys.exit(f"64-character lexer windows change the digests of: {', '.join(changed)}")
