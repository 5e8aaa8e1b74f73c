"""Benchmark of the dsx compiler: CLI batch time and per-file pipeline latency.

Run from the repository root::

    python3 bench/run.py --workload fleet-check --seed 0 --seconds 20 --trace 0

Workloads (inputs are built from ``--seed``, see ``corpus.py``):

* ``fleet-check``: ``dsx fmt --check`` then ``dsx check --report json``
  on 600 canonical-printed ``tests/modelgen.py`` models, the 3 flagship
  fixtures and the 12 ``fixtures/invalid`` files.  Read-only and
  parse-bound; it never runs codegen, so it is the control for
  generator changes.
* ``fleet-gen``: ``dsx gen --report json`` on the valid files of that
  corpus, one invocation per set of applicable targets, so every
  generator runs and about 1.8k artifacts are written.
* ``scale-gen``: ``dsx gen --targets edc,idlink-aas`` on three variants of
  the flagship fixture with 4096 contract keys, 4096 roles, and a 1 MiB
  single-line description: the inputs where parse time is not linear.

Each pass runs the workload's CLI invocations as child processes
(``python -m dsx.cli`` with ``PYTHONPATH=src``, interpreter start
included), then times the same files through the library pipeline in
process: ``parse`` -> ``validate(today=TODAY)`` -> ``print_canonical``
(fleet-check) or ``generate_all`` (the gen workloads).  Passes repeat
until ``--seconds`` have gone by.  Every output is checked by the oracle
(``oracle.py``) outside the timed regions.

In-process latencies are reported at reference speed.  On a shared host
the speed of one core swings by up to 1.7x within seconds, with other
tenants' load, and a slow spell can outlast a whole run, so raw times of
the same code differ by more than any useful bound.  A fixed pure-Python
loop (``reference_loop``) is therefore timed right before and right
after every ~50 ms chunk of in-process files, and each file's raw time
is scaled by ``REFERENCE_S`` over the mean of the two loop times around
it.  The program under test never runs the loop, so a change to the
program moves the scaled times as it moves the raw ones.  The process
and its children are pinned to one core.  The raw medians and the loop's
median are kept in the provenance line, every loop time in
``.bench_out/``.

No reference tracked the CLI children closely enough, neither this loop
nor a reference child process: their time also depends on the host's
cost of fresh processes and of file creation (about 0.2 ms of system
time per file on an ext4 disk of a 2-vCPU Firecracker VM, growing over
consecutive runs).  So the CLI batch time is a per-layer figure
(``cli.wall_s``), not a gated end-to-end one.

``--trace 0`` prints the end-to-end metrics (tracing off):

* ``file_ms_p50``/``file_ms_p98``: percentiles over the input files of
  each file's median in-process latency, at reference speed.  On
  scale-gen they are over its three files, so p98 is close to the
  slowest one;
* ``setup_s``: median wall time of a fresh interpreter importing
  ``dsx.cli`` (a few samples in every pass);
* ``peak_rss_mib``: median over passes of the largest max-RSS of any CLI
  child, read per child with ``os.wait4``;
* ``ok_share``: share of the oracle's operations that passed, where one
  operation is one (file, command) outcome.

``--trace 1`` prints the per-layer metrics, from a separate run whose
spans wrap each call into the layers' public functions and are written
to ``.bench_out/`` at the end.  They are raw times, like the CLI and
untraced figures they are compared with (``cli.self_ms``,
``trace.overhead_ratio``).  ``cli.wall_s`` is the median over passes of
the summed wall time of the pass's CLI invocations.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance (seed, corpus hash, counts, Python version, CPU count,
commit).  ``--freeze`` rewrites ``expected.json`` from the current
compiler; do that only in a change that redefines the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import corpus
import oracle

REPO = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO / "BENCHMARK.json"
WORK_ROOT = REPO / ".bench_work"
OUT_DIR = REPO / ".bench_out"

# Reference date for in-process validation, so W204 does not follow the calendar.
TODAY = date(2026, 6, 1)

# Per size: fresh-interpreter imports for setup_s in each pass (spread over
# the run, so that a slow spell of the machine does not land on all of
# them), and the least number of passes.
SETUP_SAMPLES_PER_PASS = {"full": 2, "tiny": 1}
MIN_PASSES = {"full": 3, "tiny": 1}

# The reference loop's iterations and short-lived objects, and the time it
# is taken to last at reference speed (about its time on an idle core of a
# 2.1 GHz Xeon).
REFERENCE_ITERATIONS = 20_000
REFERENCE_OBJECTS = 10_000
REFERENCE_S = 0.0065
# In-process files are timed in chunks of about this length between loops.
CHUNK_NS = 50_000_000

# Every child is started by this small interpreter, which times it and
# writes its exit code, wall s, user s, system s and max RSS (KiB) to the
# file in argv[1].  A child's ru_maxrss also counts the resident set of the
# process that spawned it (the kernel carries the spawner's high-water mark
# across exec), so children spawned straight from this process would all
# report this process's RSS.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as report:
    report.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_utime!r} {usage.ru_stime!r} {usage.ru_maxrss}")
"""

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dsx.cli; print(time.perf_counter() - t)"
)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    user_s: float
    system_s: float
    maxrss_kib: int
    stdout: bytes
    stderr: bytes


def run_child(args: list[str], cwd: Path, env: dict[str, str]) -> Child:
    """Run one child to completion through LAUNCHER; its rusage comes from os.wait4.

    The launcher runs in its own process group, which is killed if this
    process is interrupted while waiting.
    """
    io = cwd / ".io"
    io.mkdir(exist_ok=True)
    report = io / "rusage"
    report.unlink(missing_ok=True)
    with open(io / "stdout", "wb") as out, open(io / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report), *args],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed ({proc.returncode}): {(io / 'stderr').read_bytes()[-500:]!r}")
    exit_code, wall, user, system, maxrss = report.read_text().split()
    return Child(
        int(exit_code),
        float(wall),
        float(user),
        float(system),
        int(maxrss),
        (io / "stdout").read_bytes(),
        (io / "stderr").read_bytes(),
    )


def reference_loop() -> float:
    """Fixed pure-Python work; returns its wall s.

    Integer arithmetic, str conversion and dict stores, then a burst of
    small objects built and dropped, as parsing a large input does.
    """
    start = time.perf_counter()
    table: dict[int, str] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = str(i)
    rows = [(i, str(i), {"n": i}) for i in range(REFERENCE_OBJECTS)]
    del rows
    return time.perf_counter() - start


class Speed:
    """Reference-loop times taken between measurements, as factors to reference speed."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = 0.0

    def start(self) -> None:
        """Time the loop right before a measured stretch."""
        self._last = reference_loop()
        self.times.append(self._last)

    def tick(self) -> float:
        """Time the loop again; the factor for what ran since the previous loop."""
        now = reference_loop()
        self.times.append(now)
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return factor


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(REPO / "src"))


def cli_args(inv: corpus.Invocation) -> list[str]:
    return [sys.executable, "-m", "dsx.cli", *inv.args]


@dataclass
class Tally:
    """Operations checked by the oracle: one per (file, command) outcome."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 20:
            self.problems.append(problem)


@contextlib.contextmanager
def workspace(workload: corpus.Workload, tag: str):
    """A fresh directory under .bench_work holding the workload's inputs, removed on exit.

    The file system is synced after the inputs are written and after the
    directory is removed, so that neither write-back nor the freeing of
    blocks lands inside a later timed stretch.
    """
    workdir = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for item in workload.inputs:
            path = workdir / item.rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(item.text.encode("utf-8"))
        os.sync()
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()


def cli_pass(workload, workdir, env, frozen, tally) -> dict:
    """Run every invocation once into a fresh ``out/`` and check the outputs.

    The previous pass's ``out/`` is moved aside, not deleted, so that
    freeing the blocks of ~1.8k files does not land in this pass; the
    workspace is removed when the run ends.
    """
    out = workdir / "out"
    if out.exists():
        spent = workdir / ".spent"
        spent.mkdir(exist_ok=True)
        out.rename(spent / f"out-{sum(1 for _ in spent.iterdir())}")
    children = [(inv, run_child(cli_args(inv), workdir, env)) for inv in workload.invocations]
    today = date.today()
    written: set[str] = set()
    for inv, child in children:
        verdict = oracle.judge(inv, child.exit_code, child.stdout, child.stderr, workdir, today)
        if verdict.digest != frozen["outputs"][inv.name]:
            verdict.problems.append("output digest differs from the frozen one")
        written.update(verdict.written)
        if verdict.problems:
            tally.add(len(inv.inputs), len(inv.inputs), f"{inv.name}: {verdict.problems}")
        else:
            tally.add(len(inv.inputs), len(verdict.failed), verdict.failed and f"{inv.name}: {sorted(verdict.failed)}")
    on_disk = {str(p.relative_to(workdir)) for p in out.rglob("*") if p.is_file()} if out.exists() else set()
    if on_disk != written:
        tally.add(1, 1, f"files under out/ differ from the reports' written lists ({len(on_disk)} vs {len(written)})")
    return {
        "wall_s": sum(child.wall_s for _, child in children),
        # Per child: wall s, user s, system s.
        "children": [[child.wall_s, child.user_s, child.system_s] for _, child in children],
        "peak_rss_mib": max(child.maxrss_kib for _, child in children) / 1024,
        "files_written": len(written),
    }


def pipeline_pass(dsx, workload, targets, speed: Speed) -> tuple[list[int], list[float], list]:
    """Untraced per-file latency through the pipeline the CLI runs, plus outputs.

    Returns raw ns, ns at reference speed, and the outputs.  A reference
    loop runs whenever the files since the last one took ``CHUNK_NS``.
    """
    parse, validate = dsx.parse, dsx.validate
    print_canonical, generate_all = dsx.print_canonical, dsx.generate_all
    clock = time.perf_counter_ns
    times, scaled, outputs = [], [], []
    gc.collect()
    gc.freeze()
    try:
        speed.start()
        chunk_ns = 0
        for item in workload.inputs:
            start = clock()
            result = parse(item.text, item.rel)
            output = None
            if result.model is not None:
                report = validate(result.model, result.source_map, today=TODAY)
                if workload.pipeline == "check":
                    output = print_canonical(result.model)
                elif report.valid:
                    output = generate_all(result.model, targets[item.rel], report)
            times.append(clock() - start)
            outputs.append((result.model, output))
            chunk_ns += times[-1]
            if chunk_ns >= CHUNK_NS or len(times) == len(workload.inputs):
                factor = speed.tick()
                scaled.extend(ns * factor for ns in times[len(scaled):])
                chunk_ns = 0
    finally:
        gc.unfreeze()
    return times, scaled, outputs


class Tracer:
    """Spans kept in memory until the run ends.

    A span is (span id, parent id, request id, name, start ns, end ns);
    the request id is ``<pass>:<input path>``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def add(self, span_id, parent, rid, name, start, end) -> None:
        self.spans.append((span_id, parent, rid, name, start, end))

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def traced_pass(dsx, workload, targets, tracer: Tracer, pass_no: int) -> tuple[dict, dict]:
    """Pipeline with a span around each public call, plus probe calls that split layers.

    The probes (``tokenize`` alone, each generator alone) run after the
    pipeline span closes, so the pipeline span is comparable with the
    untraced latency.  Returns per-file spans by name, and counters.
    """
    clock = time.perf_counter_ns
    per_file: dict[str, dict[str, int]] = {}
    counts = dict.fromkeys(
        ("tokens", "bytes", "models", "parse_diagnostics", "validate_diagnostics", "artifacts", "artifact_bytes"), 0
    )
    gc.collect()
    gc.freeze()
    try:
        for item in workload.inputs:
            rid = f"{pass_no}:{item.rel}"
            spans = per_file[item.rel] = {}

            def timed(name, parent, fn, *args, **kwargs):
                span_id, start = tracer.new_id(), clock()
                value = fn(*args, **kwargs)
                end = clock()
                tracer.add(span_id, parent, rid, name, start, end)
                spans[name] = spans.get(name, 0) + end - start
                return value

            root, start = tracer.new_id(), clock()
            result = timed("parser.parse", root, dsx.parse, item.text, item.rel)
            model, report = result.model, None
            if model is not None:
                report = timed("validator.validate", root, dsx.validate, model, result.source_map, today=TODAY)
                counts["validate_diagnostics"] += len(report.diagnostics)
                if workload.pipeline == "check":
                    timed("model.print", root, dsx.print_canonical, model)
                elif report.valid:
                    bundle = timed("codegen.generate_all", root, dsx.generate_all, model, targets[item.rel], report)
                    counts["artifacts"] += len(bundle.artifacts)
                    counts["artifact_bytes"] += sum(len(a.content) for a in bundle.artifacts)
            end = clock()
            tracer.add(root, None, rid, "pipeline", start, end)
            spans["pipeline"] = end - start

            probe, start = tracer.new_id(), clock()
            tokens, _ = timed("parser.tokenize", probe, dsx.tokenize, item.text, item.rel)
            if workload.pipeline == "gen" and report is not None and report.valid:
                for target in targets[item.rel]:
                    generate = getattr(dsx, f"generate_{target.name.lower()}")
                    timed(f"codegen.{target.value}", probe, generate, model, report)
            tracer.add(probe, None, rid, "probe", start, clock())

            counts["tokens"] += len(tokens)
            counts["bytes"] += len(item.text.encode("utf-8"))
            counts["models"] += model is not None
            counts["parse_diagnostics"] += len(result.diagnostics)
    finally:
        gc.unfreeze()
    return per_file, counts


def layer_sample(workload, per_file: dict, counts: dict, cli: dict) -> dict:
    """Per-layer figures of one traced pass, in ms and counts.

    ``cli.self_ms`` is still missing the interpreter start-up of each
    invocation here; run() subtracts it once setup_s is known.
    """
    ms = 1e-6

    def busy(name: str) -> float:
        return sum(spans.get(name, 0) for spans in per_file.values()) * ms

    lex, parse = busy("parser.tokenize"), busy("parser.parse")
    per_target = {t: busy(f"codegen.{t}") for t in ("edc", "opcua", "idlink-aas")}
    generate_all = busy("codegen.generate_all")
    validate, printing = busy("validator.validate"), busy("model.print")
    # Library time of the CLI run on the same inputs: fmt parses and prints,
    # check parses and validates; gen parses, validates and generates.
    if workload.pipeline == "check":
        library = 2 * parse + validate + printing
    else:
        library = parse + validate + generate_all
    sample = {
        "parser.lex.busy_ms": lex,
        "parser.lex.tokens": counts["tokens"],
        "parser.lex.bytes": counts["bytes"],
        "parser.bind.busy_ms": parse - lex,
        "parser.models": counts["models"],
        "parser.diagnostics": counts["parse_diagnostics"],
        "validator.busy_ms": validate,
        "validator.diagnostics": counts["validate_diagnostics"],
        "model.print.busy_ms": printing,
        **{f"codegen.{t}.busy_ms": v for t, v in per_target.items()},
        "codegen.bundle.busy_ms": generate_all - sum(per_target.values()),
        "codegen.artifacts": counts["artifacts"],
        "codegen.bytes": counts["artifact_bytes"],
        "cli.wall_s": cli["wall_s"],
        "cli.self_ms": cli["wall_s"] * 1e3 - library,
        "cli.files_written": cli["files_written"],
    }
    for stem in ("contract", "roles", "string"):
        spans = per_file.get(f"scale/{stem}.dsx", {})
        sample[f"scale.{stem}.lex_ms"] = spans.get("parser.tokenize", 0) * ms
        sample[f"scale.{stem}.bind_ms"] = (spans.get("parser.parse", 0) - spans.get("parser.tokenize", 0)) * ms
    return sample


def check_outputs(workload, outputs, workdir: Path, tally: Tally) -> None:
    """In-process results must match the checked CLI output of the same pass."""
    bad = []
    for item, (model, output) in zip(workload.inputs, outputs):
        if output is None:
            ok = False
        elif workload.pipeline == "check":
            ok = output == item.text
        else:
            base = workdir / "out" / model.name
            ok = all(
                (base / a.relative_path).is_file() and (base / a.relative_path).read_bytes() == a.content
                for a in output.artifacts
            )
        if not ok:
            bad.append(item.rel)
    tally.add(len(outputs), len(bad), bad and f"in-process output differs: {bad[:5]}")


def check_references(dsx, workload, size: corpus.Size, tally: Tally) -> int:
    """Untimed: models parse back to what the input generator built; returns token count."""
    modelgen = corpus.load_modelgen(REPO)
    tokens, bad = 0, []
    for item in workload.inputs:
        tokens += len(dsx.tokenize(item.text, item.rel)[0])
        if item.rel.startswith("invalid/"):
            continue
        problem = oracle.reference_problem(item, dsx.parse(item.text, item.rel).model, modelgen, size)
        if problem:
            bad.append(f"{item.rel}: {problem}")
    checked = sum(1 for item in workload.inputs if not item.rel.startswith("invalid/"))
    tally.add(checked, len(bad), bad and f"reference mismatch: {bad[:5]}")
    return tokens


def measure_setup(workdir: Path, env: dict, samples: int, walls: list, imports: list) -> None:
    """Fresh interpreters importing dsx.cli: appends wall s and in-child import s."""
    for _ in range(samples):
        child = run_child([sys.executable, "-c", IMPORT_PROBE], workdir, env)
        if child.exit_code != 0:
            raise RuntimeError(f"importing dsx.cli failed: {child.stderr.decode(errors='replace')}")
        walls.append(child.wall_s)
        imports.append(float(child.stdout))


def quantile(values: list[float], q: int) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str | None:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src" / "dsx").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(REPO)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metric_specs() -> dict[str, dict]:
    spec = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]}, "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def run(args) -> int:
    size = corpus.SIZES[args.size]
    seed_range = args.seed % corpus.RANGES
    workload = corpus.WORKLOADS[args.workload](REPO, args.seed, size)
    expected = json.loads(oracle.EXPECTED_PATH.read_text(encoding="utf-8"))
    frozen = expected["workloads"][workload.name][args.size][str(seed_range)]
    corpus_sha = workload.corpus_sha256()
    if corpus_sha != frozen["corpus_sha256"]:
        print(
            f"bench: the {workload.name} corpus for seed {args.seed} hashes to {corpus_sha}, "
            f"not the frozen {frozen['corpus_sha256']}: this is a different workload, "
            "so its timings are not comparable",
            file=sys.stderr,
        )
        return 3

    import dsx

    targets = {rel: frozenset(map(dsx.Target, names)) for rel, names in workload.targets.items()}
    # One core for this process and every child, so that the reference
    # loops time the core the in-process work runs on.
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    specs = metric_specs()
    tally = Tally()
    tracer = Tracer() if args.trace else None
    speed = Speed()
    setup_started = time.perf_counter()
    with workspace(workload, workload.name) as workdir:
        env = cli_env()
        tokens = check_references(dsx, workload, size, tally)
        measure_setup(workdir, env, 1, [], [])  # warm-up: byte-code and page cache
        setup_elapsed = time.perf_counter() - setup_started

        setup_walls, import_times = [], []
        cli_samples, file_ns, file_scaled, traced_ns, layer_samples = [], {}, {}, {}, []
        started = time.perf_counter()
        passes, pass_s = 0, 0.0
        # Stop before a pass that would end after --seconds.
        while passes < MIN_PASSES[args.size] or time.perf_counter() - started + pass_s <= args.seconds:
            pass_started = time.perf_counter()
            measure_setup(workdir, env, SETUP_SAMPLES_PER_PASS[args.size], setup_walls, import_times)
            cli = cli_pass(workload, workdir, env, frozen, tally)
            cli_samples.append(cli)
            times, scaled, outputs = pipeline_pass(dsx, workload, targets, speed)
            for item, ns, ns_scaled in zip(workload.inputs, times, scaled):
                file_ns.setdefault(item.rel, []).append(ns)
                file_scaled.setdefault(item.rel, []).append(ns_scaled)
            check_outputs(workload, outputs, workdir, tally)
            del outputs
            if tracer is not None:
                per_file, counts = traced_pass(dsx, workload, targets, tracer, passes)
                for rel, spans in per_file.items():
                    traced_ns.setdefault(rel, []).append(spans["pipeline"])
                layer_samples.append(layer_sample(workload, per_file, counts, cli))
            passes += 1
            pass_s = time.perf_counter() - pass_started
        measured = time.perf_counter() - started

    def per_file_ms(samples: dict[str, list[float]]) -> list[float]:
        return [statistics.median(ns) * 1e-6 for ns in samples.values()]

    file_ms, raw_file_ms = per_file_ms(file_scaled), per_file_ms(file_ns)
    setup_s = statistics.median(setup_walls)
    raw = {"file_ms_p50": quantile(raw_file_ms, 50), "file_ms_p98": quantile(raw_file_ms, 98)}
    if tracer is None:
        values = {
            "file_ms_p50": quantile(file_ms, 50),
            "file_ms_p98": quantile(file_ms, 98),
            "setup_s": setup_s,
            "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in cli_samples),
            "ok_share": (tally.attempted - tally.failed) / tally.attempted,
        }
        chosen = specs["end_to_end"]
    else:
        values = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        values["cli.self_ms"] -= setup_s * 1e3 * len(workload.invocations)
        values["cli.import_ms"] = statistics.median(import_times) * 1e3
        values["trace.overhead_ratio"] = quantile(per_file_ms(traced_ns), 50) / raw["file_ms_p50"]
        chosen = specs["per_layer"]
    missing = set(chosen) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_range": seed_range,
        "size": args.size,
        "corpus_sha256": corpus_sha,
        "files": len(workload.inputs),
        "bytes": sum(len(i.text.encode("utf-8")) for i in workload.inputs),
        "tokens": tokens,
        "invocations": [inv.name for inv in workload.invocations],
        "passes": passes,
        "file_latency_samples": passes * len(workload.inputs),
        "setup_samples": len(setup_walls),
        "raw_medians": raw,
        "reference_loop_s_median": statistics.median(speed.times),
        "measured_s": measured,
        "setup_elapsed_s": setup_elapsed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_sha256(),
        "frozen_at": expected["frozen_at"],
        "run_date": date.today().isoformat(),
        "problems": tally.problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance,
        "metrics": values,
        "cli_passes": cli_samples,
        "file_ns": file_ns,
        "reference_loops_s": speed.times,
    }
    if tracer is not None:
        record["layer_passes"] = layer_samples
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": values[name], "unit": chosen[name]["unit"]} for name in chosen},
            }
        )
    )
    return 0


def freeze() -> int:
    """Rewrite expected.json: digests of every invocation, for every size and range."""
    env = cli_env()
    today = date.today()
    digests: dict = {}
    for size_name, size in corpus.SIZES.items():
        for seed_range in range(corpus.RANGES):
            for name, build in corpus.WORKLOADS.items():
                workload = build(REPO, seed_range, size)
                outputs = {}
                with workspace(workload, "freeze") as workdir:
                    for inv in workload.invocations:
                        child = run_child(cli_args(inv), workdir, env)
                        verdict = oracle.judge(inv, child.exit_code, child.stdout, child.stderr, workdir, today)
                        if verdict.problems or verdict.failed:
                            raise RuntimeError(f"{name} {size_name} {seed_range} {inv.name}: {verdict}")
                        outputs[inv.name] = verdict.digest
                digests.setdefault(name, {}).setdefault(size_name, {})[str(seed_range)] = {
                    "corpus_sha256": workload.corpus_sha256(),
                    "outputs": outputs,
                }
            print(f"froze {size_name} range {seed_range}", file=sys.stderr)
    document = {
        "frozen_at": {"commit": git_commit(), "src_sha256": source_sha256(), "python": platform.python_version()},
        "workloads": digests,
    }
    oracle.EXPECTED_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(corpus.SIZES), default="full")
    parser.add_argument("--freeze", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    needed = [REPO / "src" / "dsx" / "cli.py", REPO / "tests" / "modelgen.py", REPO / "fixtures", BENCH_FILE]
    absent = [str(p.relative_to(REPO)) for p in needed if not p.exists()]
    if absent:
        print(f"bench: run from a dsx checkout; missing {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
