"""Command-line driver: ``dsx check|gen|fmt``.

Exit codes form a stable contract for CI pipelines:

* 0 — success (no errors; no warnings when ``--fail-on-warning``)
* 1 — diagnostics or generation failures in at least one input
* 2 — usage or I/O problems (bad flags, unreadable files, empty globs)

Batches keep going past per-file failures and exit with the worst code
observed.  Environment variables referenced by models are never resolved
here; generated artifacts carry ``${NAME}`` placeholders.

``check`` and ``gen`` compare contract expiry dates (W204) against
``--today YYYY-MM-DD``; without the flag, against ``SOURCE_DATE_EPOCH``
(https://reproducible-builds.org/specs/source-date-epoch/) read as a UTC
date; and only when neither is set, against the system clock.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from datetime import date, datetime, timezone
from pathlib import Path

from .model import Diagnostic, Severity, iso_date, print_canonical
from .parser import parse
from .validator import validate

# Type checkers read this as typing.TYPE_CHECKING; importing typing would slow start-up.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from .codegen import Target
    from .model import ConnectorModel
    from .validator import ValidationReport

    # A generation step: (path, valid model, its validation, report) -> exit code.
    _Generate = Callable[[Path, ConnectorModel, ValidationReport, "_Report"], int]


_GLOB_CHARS = set("*?[")


class _Report:
    __slots__ = ("diagnostics", "generation_errors", "written")

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.generation_errors: list[tuple[str, str]] = []
        self.written: list[str] = []

    def to_json(self) -> str:
        doc = {
            "diagnostics": [
                {
                    "file": d.span.file,
                    "line": d.span.line,
                    "column": d.span.column,
                    "length": d.span.length,
                    "severity": d.severity.value.lower(),
                    "code": d.code,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
            "errors": [
                {"file": file, "message": message} for file, message in self.generation_errors
            ],
            "written": list(self.written),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _each_input(patterns: list[str], handle: Callable[[Path, str], int]) -> int:
    """Run ``handle(path, source)`` on every input file, glob patterns expanded
    and command-line order kept; return the worst exit code.  A file named
    more than once is handled once, under the first name given for it.  A
    pattern naming a file is that file; a glob matching none is exit code 2."""
    files: dict[str, Path] = {}  # resolved path -> first spelling
    worst = 0
    for pattern in patterns:
        if _GLOB_CHARS & set(pattern) and not os.path.isfile(pattern):
            matches = [m for m in sorted(glob.glob(pattern, recursive=True)) if os.path.isfile(m)]
            if not matches:
                print(f"dsx: no input files match '{pattern}'", file=sys.stderr)
                worst = 2
            for match in matches:
                files.setdefault(os.path.realpath(match), Path(match))
        else:
            files.setdefault(os.path.realpath(pattern), Path(pattern))
    if not files:
        print("dsx: no input files", file=sys.stderr)
        return 2
    for path in files.values():
        # Raw bytes, not universal newlines: fmt must see CRLF files as
        # non-canonical, and the parser accepts both endings anyway.
        try:
            source = path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"dsx: cannot read {path}: {exc}", file=sys.stderr)
            worst = 2
            continue
        worst = max(worst, handle(path, source))
    return worst


def cmd_check(args: argparse.Namespace, generate: _Generate | None = None) -> int:
    """Parse and validate each input; ``generate`` runs on each valid model."""
    report = _Report()
    text = args.report == "text"

    def check(path: Path, source: str) -> int:
        result = parse(source, str(path))
        diagnostics = list(result.diagnostics)
        validation = None
        if result.model is not None:
            validation = validate(result.model, result.source_map, today=args.today)
            diagnostics.extend(validation.diagnostics)
        report.diagnostics.extend(diagnostics)
        if text:
            for diagnostic in diagnostics:
                print(diagnostic.render())
        errors = any(d.severity is Severity.ERROR for d in diagnostics)
        code = 1 if errors or (args.fail_on_warning and diagnostics) else 0
        if generate is not None and validation is not None and validation.valid:
            code = max(code, generate(path, result.model, validation, report))
        return code

    worst = _each_input(args.inputs, check)
    if not text:
        print(report.to_json())
    return worst


def cmd_gen(args: argparse.Namespace) -> int:
    from .codegen import GenerationError, generate_all

    out = Path(args.out)
    made_dirs: set[Path] = set()
    generated: dict[str, Path] = {}  # connector name -> input

    def generate(
        path: Path, model: ConnectorModel, validation: ValidationReport, report: _Report
    ) -> int:
        # Outputs go to out/<connector name>/, so a second input with a name
        # already generated would overwrite the first input's files.
        first = generated.get(model.name)
        try:
            if first is not None:
                raise GenerationError(
                    f"connector name '{model.name}' already generated from {first}"
                )
            bundle = generate_all(model, args.targets, validation)
        except GenerationError as exc:
            for message in exc.messages:
                print(f"dsx: gen error: {path}: {message}", file=sys.stderr)
                report.generation_errors.append((str(path), message))
            return 1
        generated[model.name] = path
        try:
            for artifact in bundle.artifacts:
                target_path = out / model.name / artifact.relative_path
                if target_path.parent not in made_dirs:
                    target_path.parent.mkdir(parents=True, exist_ok=True)
                    made_dirs.add(target_path.parent)
                target_path.write_bytes(artifact.content)
                report.written.append(str(target_path))
                if args.report == "text":
                    print(f"wrote {target_path}")
        except OSError as exc:
            print(f"dsx: cannot write under {out}: {exc}", file=sys.stderr)
            return 2
        return 0

    return cmd_check(args, generate)


def cmd_fmt(args: argparse.Namespace) -> int:
    def fmt(path: Path, source: str) -> int:
        result = parse(source, str(path))
        if result.model is None:
            for diagnostic in result.diagnostics:
                print(diagnostic.render())
            return 1
        canonical = print_canonical(result.model)
        if canonical == source:
            return 0
        if args.check:
            print(f"would reformat {path}")
            return 1
        try:
            _replace_text(path, canonical)
            print(f"reformatted {path}")
        except OSError as exc:
            print(f"dsx: cannot write {path}: {exc}", file=sys.stderr)
            return 2
        return 0

    return _each_input(args.inputs, fmt)


def _replace_text(path: Path, text: str) -> None:
    """Rewrite the file at ``path`` atomically: write ``text`` to a temporary
    sibling with the original's permission bits, then rename it over the
    original, so a failure at any step leaves the original untouched."""
    import tempfile  # only a rewriting fmt needs it; keeps start-up lean

    target = os.path.realpath(path)  # replace a symlink's target, not the link
    fd, temporary = tempfile.mkstemp(prefix=".dsx-", dir=os.path.dirname(target))
    os.close(fd)
    try:
        Path(temporary).write_text(text, encoding="utf-8", newline="")
        os.chmod(temporary, os.stat(target).st_mode & 0o7777)
        os.replace(temporary, target)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def _parse_targets(raw: str) -> frozenset[Target]:
    from .codegen import Target

    targets = set()
    for part in raw.split(","):
        name = part.strip()
        if not name:
            continue
        try:
            targets.add(Target(name))
        except ValueError:
            valid = ", ".join(t.value for t in Target)
            raise argparse.ArgumentTypeError(f"unknown target {name!r} (valid: {valid})")
    return frozenset(targets)


def _parse_today(raw: str) -> date:
    today = iso_date(raw)
    if today is None:
        raise argparse.ArgumentTypeError(f"invalid date {raw!r} (expected YYYY-MM-DD)")
    return today


def _epoch_date(raw: str) -> date | None:
    """The UTC date of a SOURCE_DATE_EPOCH value, or None when it is malformed."""
    if not (raw.isascii() and raw.isdigit()):
        return None
    try:
        return datetime.fromtimestamp(int(raw), timezone.utc).date()
    except (OverflowError, OSError, ValueError):
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsx",
        description="Check, format, and compile data-space connector descriptions (.dsx).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate models")
    check.add_argument("inputs", nargs="+", metavar="FILE_OR_GLOB")

    gen = sub.add_parser("gen", help="generate deployment artifacts for valid models")
    gen.add_argument("inputs", nargs="+", metavar="FILE_OR_GLOB")
    gen.add_argument("--out", required=True, metavar="DIR")
    gen.add_argument(
        "--targets",
        required=True,
        type=_parse_targets,
        metavar="LIST",
        help="comma-separated: edc,opcua,idlink-aas",
    )

    for command in (check, gen):
        command.add_argument("--report", choices=("text", "json"), default="text")
        command.add_argument("--fail-on-warning", action="store_true")
        command.add_argument(
            "--today",
            type=_parse_today,
            metavar="YYYY-MM-DD",
            help="reference date for contract expiry (default: SOURCE_DATE_EPOCH, "
            "else the system clock)",
        )

    fmt = sub.add_parser("fmt", help="rewrite models in canonical form")
    fmt.add_argument("inputs", nargs="+", metavar="FILE_OR_GLOB")
    fmt.add_argument("--check", action="store_true", help="only report files that would change")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "fmt":
        return cmd_fmt(args)
    if args.today is None:
        epoch = os.environ.get("SOURCE_DATE_EPOCH")
        args.today = date.today() if epoch is None else _epoch_date(epoch)
        if args.today is None:
            print(
                f"dsx: SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}",
                file=sys.stderr,
            )
            return 2
    if args.command == "check":
        return cmd_check(args)
    if not args.targets:
        print("dsx: at least one target is required", file=sys.stderr)
        return 2
    return cmd_gen(args)


if __name__ == "__main__":
    raise SystemExit(main())
