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

from .model import Diagnostic, Record, Severity, print_canonical
from .parser import parse
from .validator import validate

# Type checkers read this as typing.TYPE_CHECKING; importing typing would slow start-up.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .codegen import Target

_GLOB_CHARS = set("*?[")


class CliConfig(Record):
    ATTRS = (
        "input_paths",
        "out_dir",
        "targets",
        "report_format",
        "fail_on_warning",
        "fmt_check",
        "today",  # reference date for W204; None reads the system clock
    )
    DEFAULTS = (None, frozenset(), "text", False, False, None)


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


def _resolve_inputs(patterns: list[str]) -> tuple[list[Path], int]:
    """Expand glob patterns and literal paths, keeping command-line order."""
    files: dict[Path, None] = {}
    for pattern in patterns:
        if _GLOB_CHARS & set(pattern):
            for match in sorted(glob.glob(pattern, recursive=True)):
                path = Path(match)
                if path.is_file():
                    files[path] = None
        else:
            files[Path(pattern)] = None
    if not files:
        print("dsx: no input files", file=sys.stderr)
        return [], 2
    return list(files), 0


def _read(path: Path) -> str | None:
    # Raw bytes, not universal newlines: fmt must see CRLF files as
    # non-canonical, and the parser accepts both endings anyway.
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"dsx: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _emit_diagnostics(diagnostics: list[Diagnostic], config: CliConfig, report: _Report) -> None:
    report.diagnostics.extend(diagnostics)
    if config.report_format == "text":
        for diagnostic in diagnostics:
            print(diagnostic.render())


def _exit_code_for(diagnostics: list[Diagnostic], config: CliConfig) -> int:
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return 1
    if config.fail_on_warning and diagnostics:
        return 1
    return 0


def cmd_check(config: CliConfig) -> int:
    files, code = _resolve_inputs(config.input_paths)
    worst = code
    report = _Report()
    for path in files:
        source = _read(path)
        if source is None:
            worst = max(worst, 2)
            continue
        result = parse(source, str(path))
        diagnostics = list(result.diagnostics)
        if result.model is not None:
            diagnostics.extend(
                validate(result.model, result.source_map, today=config.today).diagnostics
            )
        _emit_diagnostics(diagnostics, config, report)
        worst = max(worst, _exit_code_for(diagnostics, config))
    if config.report_format == "json":
        print(report.to_json())
    return worst


def cmd_gen(config: CliConfig) -> int:
    from .codegen import GenerationError, generate_all

    files, code = _resolve_inputs(config.input_paths)
    worst = code
    report = _Report()
    made_dirs: set[Path] = set()
    for path in files:
        source = _read(path)
        if source is None:
            worst = max(worst, 2)
            continue
        result = parse(source, str(path))
        validation = None
        diagnostics = list(result.diagnostics)
        if result.model is not None:
            validation = validate(result.model, result.source_map, today=config.today)
            diagnostics.extend(validation.diagnostics)
        _emit_diagnostics(diagnostics, config, report)
        worst = max(worst, _exit_code_for(diagnostics, config))
        if result.model is None or not validation.valid:
            continue
        try:
            bundle = generate_all(result.model, set(config.targets), validation)
        except GenerationError as exc:
            for message in exc.messages:
                print(f"dsx: gen error: {path}: {message}", file=sys.stderr)
                report.generation_errors.append((str(path), message))
            worst = max(worst, 1)
            continue
        try:
            for artifact in bundle.artifacts:
                target_path = config.out_dir / result.model.name / artifact.relative_path
                if target_path.parent not in made_dirs:
                    target_path.parent.mkdir(parents=True, exist_ok=True)
                    made_dirs.add(target_path.parent)
                target_path.write_bytes(artifact.content)
                report.written.append(str(target_path))
                if config.report_format == "text":
                    print(f"wrote {target_path}")
        except OSError as exc:
            print(f"dsx: cannot write under {config.out_dir}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
    if config.report_format == "json":
        print(report.to_json())
    return worst


def cmd_fmt(config: CliConfig) -> int:
    files, code = _resolve_inputs(config.input_paths)
    worst = code
    for path in files:
        source = _read(path)
        if source is None:
            worst = max(worst, 2)
            continue
        result = parse(source, str(path))
        if result.model is None:
            for diagnostic in result.diagnostics:
                print(diagnostic.render())
            worst = max(worst, 1)
            continue
        canonical = print_canonical(result.model)
        if canonical == source:
            continue
        if config.fmt_check:
            print(f"would reformat {path}")
            worst = max(worst, 1)
            continue
        try:
            path.write_text(canonical, encoding="utf-8", newline="")
            print(f"reformatted {path}")
        except OSError as exc:
            print(f"dsx: cannot write {path}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
    return worst


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
    try:
        today = date.fromisoformat(raw)
        if today.isoformat() == raw:
            return today
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid date {raw!r} (expected YYYY-MM-DD)")


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
        return cmd_fmt(CliConfig(input_paths=args.inputs, fmt_check=args.check))
    today = args.today
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if today is None and epoch is not None:
        today = _epoch_date(epoch)
        if today is None:
            print(
                f"dsx: SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}",
                file=sys.stderr,
            )
            return 2
    if args.command == "check":
        config = CliConfig(
            input_paths=args.inputs,
            report_format=args.report,
            fail_on_warning=args.fail_on_warning,
            today=today,
        )
        return cmd_check(config)
    if not args.targets:
        print("dsx: at least one target is required", file=sys.stderr)
        return 2
    config = CliConfig(
        input_paths=args.inputs,
        out_dir=Path(args.out),
        targets=args.targets,
        report_format=args.report,
        fail_on_warning=args.fail_on_warning,
        today=today,
    )
    return cmd_gen(config)


if __name__ == "__main__":
    raise SystemExit(main())
