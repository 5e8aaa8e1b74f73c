"""Output oracle: frozen digests plus expectations not taken from the compiler.

Each CLI invocation's output is reduced to one sha256 that was frozen at
the commit named in ``expected.json`` (``run.py --freeze`` rewrites it):

* ``fmt --check``: the verdict text on stdout;
* ``check``/``gen --report json``: the report, and for gen every file the
  report lists as written.

W204 ("contract expired") depends on the calendar, because the CLI reads
``date.today()``.  The oracle therefore decides from each input's
``validUntil`` and the run date whether W204 is due, checks that it fired
exactly where due, and leaves it out of the digest.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from corpus import Input, Invocation, Size

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_VALID_UNTIL_RE = re.compile(r'"validUntil"\s*:\s*"?([0-9]{4}-[0-9]{2}-[0-9]{2})\b')
_INVALID_CODE_RE = re.compile(r"^invalid/([ew][0-9]{3})-")


def w204_due(text: str, today: date) -> bool:
    match = _VALID_UNTIL_RE.search(text)
    if match is None:
        return False
    try:
        return date.fromisoformat(match.group(1)) < today
    except ValueError:
        return False


def _report_digest(
    inv: Invocation, stdout: bytes, workdir: Path, today: date, problems: list[str]
) -> tuple[str, dict | None]:
    try:
        doc = json.loads(stdout)
    except ValueError:
        problems.append("report is not JSON")
        return "", None
    due = {i.rel for i in inv.inputs if w204_due(i.text, today)}
    fired = {d["file"] for d in doc["diagnostics"] if d["code"] == "W204"}
    if fired != due:
        problems.append(f"W204 fired on {sorted(fired)}, due on {sorted(due)}")
    kept = dict(doc, diagnostics=[d for d in doc["diagnostics"] if d["code"] != "W204"])
    digest = hashlib.sha256(json.dumps(kept, indent=2, sort_keys=True).encode())
    for rel in sorted(doc["written"]):
        path = workdir / rel
        if not path.is_file():
            problems.append(f"reported as written but missing: {rel}")
            continue
        digest.update(b"\0" + rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest(), doc


@dataclass
class Verdict:
    """What the oracle made of one invocation.

    A problem fails every input of the invocation; ``failed`` holds the
    inputs that fail a per-file expectation on their own.
    """

    digest: str
    problems: list[str] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)
    written: list[str] = field(default_factory=list)


def judge(
    inv: Invocation, exit_code: int, stdout: bytes, stderr: bytes, workdir: Path, today: date
) -> Verdict:
    problems: list[str] = []
    if exit_code != inv.expected_exit:
        problems.append(f"exit code {exit_code}, expected {inv.expected_exit}")
    if stderr:
        problems.append(f"unexpected stderr: {stderr[:200]!r}")
    if inv.args[0] == "fmt":
        return Verdict(hashlib.sha256(stdout).hexdigest(), problems)
    digest, doc = _report_digest(inv, stdout, workdir, today, problems)
    verdict = Verdict(digest, problems)
    if doc is None:
        return verdict
    verdict.written = doc["written"]
    if inv.args[0] == "check":
        codes: dict[str, set[str]] = {}
        for d in doc["diagnostics"]:
            codes.setdefault(d["file"], set()).add(d["code"])
        for item in inv.inputs:
            match = _INVALID_CODE_RE.match(item.rel)
            if match and match.group(1).upper() not in codes.get(item.rel, ()):
                verdict.failed.add(item.rel)
    return verdict


def reference_problem(item: Input, model, modelgen, size: Size) -> str | None:
    """Check a parsed model against what the input generator put in.

    Generated models must parse back to ``build_model(index)``; each scale
    input must keep the size it was built with.
    """
    if model is None:
        return "does not parse to a model"
    if item.index is not None:
        return None if model == modelgen.build_model(item.index) else "model != build_model"
    found = {
        "contract": (len(model.access.contract_offers), size.scale_keys),
        "roles": (len(model.access.roles), size.scale_roles),
        "string": (len(model.metadata.description), size.scale_string_bytes),
    }.get(item.stem) if item.rel.startswith("scale/") else None
    if found is not None and found[0] != found[1]:
        return f"{item.stem} size {found[0]}, built with {found[1]}"
    return None
