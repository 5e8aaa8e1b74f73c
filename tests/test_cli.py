import json
import os
import shutil
from datetime import datetime
from pathlib import Path

import jsonschema
import pytest

from dsx.cli import main
from dsx.codegen import SCHEMAS_DIR

from conftest import FIXTURE_EPOCH, FIXTURES


def epoch(day: str, clock: str = "00:00:00") -> str:
    """A SOURCE_DATE_EPOCH value for a UTC date and time of day."""
    moment = datetime.fromisoformat(f"{day}T{clock}+00:00")
    return str(int(moment.timestamp()))


@pytest.fixture(autouse=True)
def pinned_date(monkeypatch):
    """W204 compares against FIXTURE_TODAY here, never the system clock."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", FIXTURE_EPOCH)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def copy_fixture(name: str, workdir: Path, as_name: str | None = None) -> Path:
    destination = workdir / (as_name or Path(name).name)
    shutil.copy(FIXTURES / name, destination)
    return destination


class TestCheck:
    def test_valid_file_exits_zero(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_error_file_exits_one_with_text_line(self, workdir, capsys):
        path = copy_fixture("invalid/e203-date-order.dsx", workdir)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith(f"{path}:")
        assert "error[E203]" in out

    def test_empty_glob_exits_two(self, workdir, capsys):
        assert main(["check", "*.dsx"]) == 2
        assert "no input files" in capsys.readouterr().err

    def test_unreadable_file_exits_two(self, workdir, capsys):
        assert main(["check", "missing.dsx"]) == 2
        assert "missing.dsx" in capsys.readouterr().err

    def test_glob_expansion(self, workdir):
        copy_fixture("production-machine.dsx", workdir)
        copy_fixture("machine-opcua.dsx", workdir)
        assert main(["check", "*.dsx"]) == 0

    def test_fail_on_warning(self, workdir):
        path = copy_fixture("invalid/w204-expired.dsx", workdir)
        assert main(["check", str(path)]) == 0
        assert main(["check", "--fail-on-warning", str(path)]) == 1

    def test_json_report_matches_schema(self, workdir, capsys):
        path = copy_fixture("invalid/e202-bad-bpn.dsx", workdir)
        assert main(["check", "--report", "json", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        schema = json.loads((SCHEMAS_DIR / "diagnostics-report.schema.json").read_text())
        jsonschema.validate(report, schema)
        assert [d["code"] for d in report["diagnostics"]] == ["E202"]
        assert report["diagnostics"][0]["severity"] == "error"

    def test_unsplittable_url_does_not_stop_the_batch(self, workdir, capsys):
        text = (FIXTURES / "production-machine.dsx").read_text(encoding="utf-8")
        bad_url = workdir / "bad-url.dsx"
        bad_url.write_text(
            text.replace('"https://assets.machinebuilder.example"', '"https://[assets.example"'),
            encoding="utf-8",
        )
        copy_fixture("invalid/e202-bad-bpn.dsx", workdir)
        assert main(["check", "--report", "json", "bad-url.dsx", "e202-bad-bpn.dsx"]) == 1
        report = json.loads(capsys.readouterr().out)
        schema = json.loads((SCHEMAS_DIR / "diagnostics-report.schema.json").read_text())
        jsonschema.validate(report, schema)
        assert [(d["file"], d["code"]) for d in report["diagnostics"]] == [
            ("bad-url.dsx", "E201"),
            ("e202-bad-bpn.dsx", "E202"),
        ]

    def test_file_named_twice_is_checked_once(self, workdir, capsys):
        copy_fixture("invalid/e202-bad-bpn.dsx", workdir, "bad.dsx")
        assert main(["check", "bad.dsx", str(workdir / "bad.dsx"), "*.dsx"]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("bad.dsx:")

    def test_batch_aggregates_worst_exit(self, workdir):
        good = copy_fixture("production-machine.dsx", workdir)
        bad = copy_fixture("invalid/e203-date-order.dsx", workdir)
        assert main(["check", str(good), str(bad)]) == 1
        assert main(["check", str(good), str(bad), "missing.dsx"]) == 2


class TestGen:
    def test_edc_and_idlink_targets_write_five_files(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        code = main(["gen", str(path), "--out", "out", "--targets", "edc,idlink-aas"])
        assert code == 0
        written = sorted(p.relative_to(workdir).as_posix() for p in (workdir / "out").rglob("*") if p.is_file())
        assert written == [
            "out/production-machine/edc/asset.json",
            "out/production-machine/edc/contract.json",
            "out/production-machine/edc/policy.json",
            "out/production-machine/idlink-aas/aas-security.json",
            "out/production-machine/idlink-aas/idlink.txt",
        ]
        manifest = capsys.readouterr().out
        assert manifest.count("wrote ") == 5

    def test_mixed_batch_writes_valid_only(self, workdir):
        good = copy_fixture("sensor-idlink.dsx", workdir)
        bad = copy_fixture("invalid/e202-bad-bpn.dsx", workdir)
        code = main(["gen", str(good), str(bad), "--out", "out", "--targets", "idlink-aas"])
        assert code == 1
        written = list((workdir / "out").rglob("*.json")) + list((workdir / "out").rglob("*.txt"))
        assert {p.parts[-3] for p in written} == {"flow-sensor"}

    def test_target_mismatch_exits_one(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["gen", str(path), "--out", "out", "--targets", "opcua"]) == 1
        assert "usage mismatch" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_missing_out_flag_is_usage_error(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["gen", str(path), "--targets", "edc"]) == 2

    def test_unknown_target_is_usage_error(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["gen", str(path), "--out", "out", "--targets", "nope"]) == 2

    def test_empty_target_list_is_usage_error(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["gen", str(path), "--out", "out", "--targets", ","]) == 2

    def test_written_files_are_deterministic(self, workdir):
        path = copy_fixture("production-machine.dsx", workdir)
        main(["gen", str(path), "--out", "a", "--targets", "edc"])
        main(["gen", str(path), "--out", "b", "--targets", "edc"])
        for first in (workdir / "a").rglob("*.json"):
            second = workdir / "b" / first.relative_to(workdir / "a")
            assert first.read_bytes() == second.read_bytes()

    def test_each_output_directory_is_made_once(self, workdir, capsys, monkeypatch):
        first = copy_fixture("production-machine.dsx", workdir)
        second = workdir / "second.dsx"
        second.write_text(first.read_text().replace('"production-machine"', '"second-machine"'))
        made = []
        depth = 0  # Path.mkdir(parents=True) calls itself for missing parents
        real_mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            nonlocal depth
            if not depth:
                made.append(self)
            depth += 1
            try:
                return real_mkdir(self, *args, **kwargs)
            finally:
                depth -= 1

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        args = ["gen", str(first), str(second), "--out", "out", "--targets", "edc,idlink-aas"]
        assert main([*args, "--report", "json"]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        assert len(written) == 10
        parents = {Path(file).parent for file in written}
        assert len(parents) == 4
        assert sorted(made) == sorted(parents)

    def test_colliding_connector_names_are_rejected(self, workdir, capsys):
        first = copy_fixture("production-machine.dsx", workdir, "a.dsx")
        second = workdir / "b.dsx"
        second.write_text(first.read_text().replace("monitoring-only", "research-only"))
        args = ["gen", str(first), str(second), "--targets", "edc", "--report", "json"]
        assert main([*args, "--out", "out"]) == 1
        captured = capsys.readouterr()
        message = f"connector name 'production-machine' already generated from {first}"
        assert captured.err == f"dsx: gen error: {second}: {message}\n"
        report = json.loads(captured.out)
        assert report["errors"] == [{"file": str(second), "message": message}]
        assert len(report["written"]) == len(set(report["written"])) == 3
        assert main(["gen", str(first), "--out", "alone", "--targets", "edc"]) == 0
        for written in (workdir / "alone").rglob("*.json"):
            kept = workdir / "out" / written.relative_to(workdir / "alone")
            assert kept.read_bytes() == written.read_bytes()

    def test_file_named_twice_is_generated_once(self, workdir, capsys):
        copy_fixture("production-machine.dsx", workdir)
        args = ["production-machine.dsx", str(workdir / "production-machine.dsx")]
        assert main(["gen", *args, "--out", "out", "--targets", "edc"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("wrote ") == 3

    def test_unwritable_out_dir_exits_two(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        (workdir / "out").write_text("a regular file")
        assert main(["gen", str(path), "--out", "out", "--targets", "edc"]) == 2
        assert "cannot write under out" in capsys.readouterr().err

    def test_json_report_lists_written_files(self, workdir, capsys):
        path = copy_fixture("sensor-idlink.dsx", workdir)
        code = main(
            ["gen", str(path), "--out", "out", "--targets", "idlink-aas", "--report", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["written"]) == 2
        schema = json.loads((SCHEMAS_DIR / "diagnostics-report.schema.json").read_text())
        jsonschema.validate(report, schema)


class TestFmt:
    def test_canonical_file_passes_check(self, workdir):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["fmt", "--check", str(path)]) == 0

    def test_check_mode_never_writes(self, workdir):
        path = copy_fixture("production-machine.dsx", workdir)
        noisy = path.read_text().replace("  discovery {", "  discovery   {")
        path.write_text(noisy)
        assert main(["fmt", "--check", str(path)]) == 1
        assert path.read_text() == noisy

    def test_reformat_then_noop(self, workdir, capsys):
        path = copy_fixture("production-machine.dsx", workdir)
        original = path.read_text()
        # Perturb formatting without changing meaning: collapse to one line
        # chunks by stripping indentation.
        path.write_text("\n".join(line.strip() for line in original.splitlines()) + "\n")
        assert main(["fmt", str(path)]) == 0
        assert "reformatted" in capsys.readouterr().out
        first_pass = path.read_text()
        assert first_pass == original
        assert main(["fmt", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == first_pass

    def test_broken_file_untouched(self, workdir, capsys):
        path = workdir / "broken.dsx"
        path.write_text('connector "x" { discovery {')
        assert main(["fmt", str(path)]) == 1
        assert path.read_text() == 'connector "x" { discovery {'
        assert "error[" in capsys.readouterr().out

    def test_write_failure_exits_two(self, workdir, capsys, monkeypatch):
        path = copy_fixture("production-machine.dsx", workdir)
        noisy = path.read_text().replace("  discovery {", "  discovery   {")
        path.write_text(noisy)

        def failing_write(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", failing_write)
        assert main(["fmt", str(path)]) == 2
        assert f"cannot write {path}: disk full" in capsys.readouterr().err
        assert path.read_text() == noisy

    def test_failed_replace_leaves_original_and_no_stray_file(
        self, workdir, capsys, monkeypatch
    ):
        path = copy_fixture("production-machine.dsx", workdir)
        noisy = path.read_bytes().replace(b"  discovery {", b"  discovery   {")
        path.write_bytes(noisy)

        def failing_replace(source, destination):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["fmt", str(path)]) == 2
        assert f"cannot write {path}: rename failed" in capsys.readouterr().err
        assert path.read_bytes() == noisy
        assert list(workdir.iterdir()) == [path]

    def test_rewrite_keeps_permissions_and_symlinks(self, workdir):
        path = copy_fixture("production-machine.dsx", workdir)
        canonical = path.read_text()
        path.write_text(canonical.replace("  discovery {", "  discovery   {"))
        path.chmod(0o640)
        link = workdir / "link.dsx"
        link.symlink_to(path.name)
        assert main(["fmt", str(link)]) == 0
        assert link.is_symlink()
        assert path.read_text() == canonical
        assert path.stat().st_mode & 0o777 == 0o640
        assert sorted(workdir.iterdir()) == [link, path]

    def test_reordered_sections_are_canonicalized(self, workdir):
        path = copy_fixture("sensor-idlink.dsx", workdir)
        original = path.read_text()
        discovery = original[original.index("  discovery") : original.index("  metadata")]
        metadata = original[original.index("  metadata") : original.index("  usage")]
        path.write_text(original.replace(discovery + metadata, metadata + discovery))
        assert main(["fmt", str(path)]) == 0
        assert path.read_text() == original
        assert main(["fmt", "--check", str(path)]) == 0

    def test_crlf_files_are_not_canonical(self, workdir):
        path = copy_fixture("sensor-idlink.dsx", workdir)
        lf_bytes = path.read_bytes()
        path.write_bytes(lf_bytes.replace(b"\n", b"\r\n"))
        assert main(["fmt", "--check", str(path)]) == 1
        assert main(["fmt", str(path)]) == 0
        assert path.read_bytes() == lf_bytes


class TestReferenceDate:
    """production-machine.dsx's contract has validUntil "2026-12-31"."""

    @pytest.mark.parametrize("command", ["check", "gen"])
    def test_today_flag_turns_w204_on_and_off(self, workdir, capsys, command):
        path = copy_fixture("production-machine.dsx", workdir)
        args = [command, str(path), "--fail-on-warning"]
        if command == "gen":
            args += ["--out", "out", "--targets", "edc"]
        assert main([*args, "--today", "2026-12-31"]) == 0
        assert "W204" not in capsys.readouterr().out
        assert main([*args, "--today", "2027-01-01"]) == 1
        assert "warning[W204]: contract expired on 2026-12-31" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "gen"])
    def test_source_date_epoch_turns_w204_on_and_off(
        self, workdir, capsys, monkeypatch, command
    ):
        path = copy_fixture("production-machine.dsx", workdir)
        args = [command, str(path), "--fail-on-warning"]
        if command == "gen":
            args += ["--out", "out", "--targets", "edc"]
        # The epoch is read as a UTC date: the last second of 2026 is not past it.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch("2026-12-31", "23:59:59"))
        assert main(args) == 0
        assert "W204" not in capsys.readouterr().out
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch("2027-01-01"))
        assert main(args) == 1
        assert "warning[W204]" in capsys.readouterr().out

    def test_flag_wins_over_the_environment(self, workdir, capsys, monkeypatch):
        path = copy_fixture("production-machine.dsx", workdir)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch("2027-01-01"))
        assert main(["check", str(path), "--fail-on-warning", "--today", "2026-06-01"]) == 0
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "malformed")
        assert main(["check", str(path), "--fail-on-warning", "--today", "2026-06-01"]) == 0

    @pytest.mark.parametrize("value", ["2026-13-01", "20261231", "2026-12-31T00:00", ""])
    def test_malformed_today_flag_exits_two(self, workdir, capsys, value):
        path = copy_fixture("production-machine.dsx", workdir)
        assert main(["check", str(path), "--today", value]) == 2
        assert "invalid date" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "soon", "1.5", "-1", " 1", "9" * 30])
    def test_malformed_source_date_epoch_exits_two(self, workdir, capsys, monkeypatch, value):
        path = copy_fixture("production-machine.dsx", workdir)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        assert main(["check", str(path)]) == 2
        assert main(["gen", str(path), "--out", "out", "--targets", "edc"]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
        assert not (workdir / "out").exists()


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate", "x.dsx"]) == 2
