"""Golden digests of every output the toolchain produces for a fixed corpus.

Inputs are the fixtures, the canonical prints of ``modelgen.build_model(i)``
for i in 0..599, and deterministic token and line mutations of the three
flagship fixtures.  For each input the test records the rendered parse
diagnostics (with span lengths), the source-map spans, ``validate`` and
every ``check_single`` code, the canonical print, and ``generate_all`` for
every target set with and without a report.  Each input group hashes to
one sha256 digest, so a refactor that changes any output byte names the
first group that differs.

Run ``python tests/test_golden.py`` to print the current digests.
"""

from __future__ import annotations

import hashlib
import itertools
from datetime import date
from pathlib import Path
from typing import Iterator

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

GOLDEN = {
    "fixtures": "19ae1cc84c8e70f08ee2372194a1946e464247feafb735a0cd24a125305101fa",
    "modelgen[0:100]": "c24f1f4359a655c10e5930628971ceb77bc52d6f1cf4872971862fda8359b7ad",
    "modelgen[100:200]": "1c82bb163c1015cb387bca2b750db9cc34b0043eca897ac1d31333d02b7de408",
    "modelgen[200:300]": "b3b679252bcdfbf269b0a178447150a0cbfb7f8a722f0dd751ebaf39949e07c3",
    "modelgen[300:400]": "d933dad2dd70086195d745a1a69f232234e1cbac4d898c5ab2f88e3fabfc997c",
    "modelgen[400:500]": "acaac632d297fe1acddccada94d6cb27f6a31dbfbfef8b1a384e853f7846e13b",
    "modelgen[500:600]": "31137c40a803488dfe930c1e03871d8993cb9f9200d7779dba1085c0eb434933",
    "production-machine:delete-token": "609b98b6ccbc0bd18d6e890371a8e3c1e0d34d70e148cf432031d21100217de8",
    "production-machine:duplicate-token": "e67615b6bced9ec58043df7e779a7d2f43395fbb0bf5635aa35a2da17f2b4da6",
    "production-machine:replace-token": "6705f7fa043d7d397961b8e9f0ec6240caf50439de701df08ce5fa6c51353cb0",
    "production-machine:drop-line": "3abd5f7baa7bc2c64067dc3e2996c099eefbd727f6b12029669cb2ed3d8d1b12",
    "production-machine:duplicate-line": "a3c4f3e4fc463413ec4a12748031e85f359e10d2ffe525df66fd17184a3a7e2e",
    "machine-opcua:delete-token": "11b366072562bd31dacf87a25bede34809b661f03fa13514e9c584bce3d4ce8f",
    "machine-opcua:duplicate-token": "cc5492f49d7b823dfa5d3da1f74b14c2737f3c3b54fe56a615e425030883dd92",
    "machine-opcua:replace-token": "b70f00a9115afc2cb2d815a1f4934d91ade9eecf6544dbdc9e23ea8bf5d6bba4",
    "machine-opcua:drop-line": "160b88a55b76564244d2201baf670605a63b661334471ace0eabf37b5bdb5540",
    "machine-opcua:duplicate-line": "c2b7bd0427f6188fda3ec7032c553d79df36a4bee35357cff558fda746f18d39",
    "sensor-idlink:delete-token": "380fe21d944558dfb4054f2aebc9e300b1ed864c16147a39032a86cd34c21b39",
    "sensor-idlink:duplicate-token": "eb28c2b0895a93965ce9145c91dcbbcc74547b9cb730fd10096ac19f39f4b1b6",
    "sensor-idlink:replace-token": "6d16b31490a7c9aa7c5762b55bada93c07452cb51a5b89db35516ee602e1c4c2",
    "sensor-idlink:drop-line": "34c8a3f83c39fdc896493c2df1227fe91f61b06dbfbb9c35f541362adf8b8baf",
    "sensor-idlink:duplicate-line": "225e882c69e0fba1c9eb69b4dc30efdbbd73dfaec9f64cf44e501cefabb15fcd",
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


def _diagnostics(diagnostics) -> str:
    return "\n".join(f"{d.render()} +{d.span.length}" for d in diagnostics)


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


def digests() -> dict[str, str]:
    result = {}
    for name, inputs in groups():
        h = hashlib.sha256()
        for file, source in inputs:
            h.update(outputs(file, source).encode("utf-8"))
        result[name] = h.hexdigest()
    return result


def test_outputs_match_golden_digests():
    actual = digests()
    assert list(actual) == list(GOLDEN)
    for name, digest in actual.items():
        assert digest == GOLDEN[name], f"outputs changed, first differing group: {name}"


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
