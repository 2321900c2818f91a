"""Benchmark of the phcf command line: four workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``
of that checkout.  Each workload is a bundled preset plus the seed, written
as a scenario file that is the only input the program receives.  The
command runs as a child process, again and again, until ``--seconds`` have
passed.  Before each invocation a set-up probe (interpreter start,
``import phcf.cli``, scenario parse) runs as its own child process.

Times are the CPU seconds (user plus system) of each child, as ``wait4``
reports them, and every reported time is a median over a run's children.
The children run single-threaded, BLAS included, so on an idle machine
their CPU time is their wall time; on a shared virtual machine the wall
time also holds whatever the hypervisor steals, which moved identical
invocations by up to 25%.  The median wall time of the untraced
invocations is recorded on the environment line.

Every invocation's outputs are checked: the exit code, the file set, the
row and column counts of every CSV and that every CSV value is finite.  At
the default seed 42 every file must also hash to the table in
``golden_seed42.json``.  An invocation that fails a check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain invocations with invocations under ``tracer.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden_seed42.json"
DEFAULT_SEED = 42
# One invocation of the largest workload takes about 4 s on a 2-core Xeon.
INVOCATION_TIMEOUT_S = 60.0
# BLAS/LAPACK run single-threaded so that timings do not depend on how
# many cores other processes leave free.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBE = "import sys, phcf.cli; phcf.cli.load_scenario(sys.argv[1])"

# The bundled presets as the README documents them: N=20, L=141 (gap
# 7.05), dt=0.001, sample_stride=100, sigma=1, evenly spaced at rest.
PRESETS = {
    "fig1": {"alpha": 1.0, "gamma": 0.0, "regime": ["kind = uncontrolled"]},
    "fig3": {"alpha": 0.5, "gamma": 1.0, "regime": ["kind = closed_loop", "ell = 5.0", "t_gap = 1.0"]},
}
DT = 0.001
SAMPLE_STRIDE = 100


@dataclass(frozen=True)
class Workload:
    """One CLI command on a preset; sizes are fixed, only the seed varies."""

    preset: str
    command: str  # simulate, ensemble or stability-map
    n_vehicles: int = 20
    t_end: float = 1.0
    runs: int = 1
    grid: int = 0  # cells per axis of the stability map

    @property
    def steps(self) -> int:
        return round(self.t_end / DT)

    @property
    def samples(self) -> int:
        return self.steps // SAMPLE_STRIDE + 1

    @property
    def items(self) -> int:
        """Vehicle-steps of a simulation, grid cells of a map."""
        if self.command == "stability-map":
            return self.grid * self.grid
        return self.n_vehicles * self.runs * self.steps


WORKLOADS = {
    "sim_long_fig3": Workload("fig3", "simulate", t_end=20.0),
    "sim_wide_ring2000": Workload("fig3", "simulate", n_vehicles=2000, t_end=2.5),
    "ensemble_fig1": Workload("fig1", "ensemble", t_end=5.0, runs=200),
    "stability_map_fig3": Workload("fig3", "stability-map", grid=80),
}
# Harness self-test sizes: every layer still runs, each command doing
# about 0.3 s of work after its set-up.
TINY = {
    "sim_long_fig3": dict(t_end=3.0),
    "sim_wide_ring2000": dict(n_vehicles=200, t_end=1.0),
    "ensemble_fig1": dict(t_end=1.0, runs=20),
    "stability_map_fig3": dict(grid=30),
}

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}
PER_LAYER_UNITS = {
    "model.acceleration_array.calls": "count",
    "model.acceleration_array.s": "s",
    "model.acceleration_array.us_per_call": "us",
    "model.build_matrices.s": "s",
    "model.build_matrices.self_s": "s",
    "model.assemble_drift_matrix.calls": "count",
    "model.assemble_drift_matrix.s": "s",
    "model.dense_bytes": "bytes",
    "sde.noise_block.calls": "count",
    "sde.noise_block.s": "s",
    "sde.noise_blocks_per_run": "1/run",
    "sde.integrate.s": "s",
    "sde.integrate.self_s": "s",
    "sde.us_per_run_step": "us",
    "sde.stack.calls": "count",
    "sde.stack.s": "s",
    "stats.observables.calls": "count",
    "stats.observables.s": "s",
    "spectral.stability_report.calls": "count",
    "spectral.stability_report.s": "s",
    "spectral.stability_report.us_per_call": "us",
    "spectral.drift_matrix_norm.calls": "count",
    "spectral.drift_matrix_norm.s": "s",
    "spectral.eigenvalues.s": "s",
    "svgplot.s": "s",
    "svgplot.bytes": "bytes",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.files_written": "count",
    "scenario.load_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# inputs


def scenario_text(wl: Workload, seed: int) -> str:
    preset = PRESETS[wl.preset]
    ring_length = 141.0 * wl.n_vehicles / 20  # keeps the presets' 7.05 gap
    lines = [
        "[model]",
        f"n_vehicles = {wl.n_vehicles}",
        f"ring_length = {ring_length!r}",
        f"alpha = {preset['alpha']!r}",
        "beta = 1.0",
        f"gamma = {preset['gamma']!r}",
        "sigma = 1.0",
        "potential = quadratic",
        "",
        "[regime]",
        *preset["regime"],
        "",
        "[sim]",
        f"dt = {DT!r}",
        f"t_end = {wl.t_end!r}",
        f"sample_stride = {SAMPLE_STRIDE}",
        f"seed = {seed}",
        "initial = uniform_zero_speed",
        "",
        "[output]",
        "svg = true",
        "wrap_positions = true",
        "",
    ]
    return "\n".join(lines)


def cli_args(wl: Workload, scenario: Path, out: Path) -> list:
    args = [wl.command, "--scenario", str(scenario), "--out", str(out)]
    if wl.command == "ensemble":
        args += ["--runs", str(wl.runs)]
    elif wl.command == "stability-map":
        args += ["--vary", f"alpha=0.05:3:{wl.grid}", "--vary", f"gamma=0.05:3:{wl.grid}"]
    return args


def expected_outputs(wl: Workload):
    """({csv name: (data rows, columns)}, names of the other files)."""
    if wl.command == "simulate":
        tables = {
            "trajectory.csv": (wl.samples, 1 + 2 * wl.n_vehicles),
            "observables.csv": (wl.samples, 5),
        }
        return tables, {"trajectory.svg", "observables.svg", "run_manifest.txt"}
    if wl.command == "ensemble":
        tables = {f"observables_run{r:03d}.csv": (wl.samples, 5) for r in range(wl.runs)}
        tables["ensemble_summary.csv"] = (wl.samples, 4)
        return tables, {"run_manifest.txt"}
    return {"stability.csv": (wl.grid * wl.grid, 5)}, {"stability_map.svg", "run_manifest.txt"}


# ---------------------------------------------------------------------------
# output checks


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def check_table(path: Path, rows: int, cols: int) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        data = list(csv.reader(fh))
    if len(data) != rows + 1:
        return [f"{path.name}: {len(data) - 1} data rows, expected {rows}"]
    for i, row in enumerate(data):
        if len(row) != cols:
            return [f"{path.name}: line {i + 1} has {len(row)} columns, expected {cols}"]
    for i, row in enumerate(data[1:], start=2):
        try:
            if not all(math.isfinite(float(v)) for v in row):
                return [f"{path.name}: line {i} holds a non-finite value"]
        except ValueError:
            return [f"{path.name}: line {i} holds a non-number"]
    return []


def check_outputs(wl: Workload, out: Path, golden) -> tuple:
    """(errors, {file: sha256}, csv bytes, file count) of one output directory."""
    tables, others = expected_outputs(wl)
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    errors = []
    missing = sorted((set(tables) | others) - present)
    extra = sorted(present - set(tables) - others)
    if missing:
        errors.append(f"missing outputs: {', '.join(missing[:5])}")
    if extra:
        errors.append(f"unexpected outputs: {', '.join(extra[:5])}")
    for name, (rows, cols) in tables.items():
        if name in present:
            errors += check_table(out / name, rows, cols)
    hashes = {name: sha256(out / name) for name in sorted(present)}
    if golden is not None:
        for name, digest in sorted(golden.items()):
            if name in hashes and hashes[name] != digest:
                errors.append(f"{name}: SHA-256 differs from golden_seed42.json")
    csv_bytes = sum((out / name).stat().st_size for name in present if name.endswith(".csv"))
    return errors, hashes, csv_bytes, len(present)


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, stderr_path: Path, timeout=INVOCATION_TIMEOUT_S):
    """(exit code, wall seconds from spawn to exit, CPU seconds (user plus
    system), peak RSS in MB) of one child process."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    errors: list
    hashes: dict
    csv_bytes: int = 0
    files: int = 0
    trace: dict = None


class Runner:
    """Runs one workload's invocations inside a private work directory."""

    def __init__(self, name: str, wl: Workload, seed: int, golden):
        self.wl = wl
        self.golden = golden
        self.work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.scenario = self.work / "scenario.ini"
        self.scenario.write_text(scenario_text(wl, seed), encoding="utf-8")
        self.count = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def setup_probe(self) -> float:
        rc, _, cpu, _ = run_child(
            [sys.executable, "-c", SETUP_PROBE, str(self.scenario)], self.work / "setup.err"
        )
        if rc != 0:
            raise BenchError(f"set-up probe exited {rc}: {self._tail(self.work / 'setup.err')}")
        return cpu

    def invoke(self, traced: bool) -> Invocation:
        self.count += 1
        out = self.work / f"out{self.count}"
        args = cli_args(self.wl, self.scenario, out)
        trace_path = self.work / f"trace{self.count}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "phcf", *args]
        err_path = self.work / f"out{self.count}.err"
        rc, wall, cpu, rss = run_child(argv, err_path)
        inv = Invocation(wall, cpu, rss, [], {})
        if rc != 0:
            inv.errors.append(f"exit code {rc}: {self._tail(err_path)}")
        else:
            inv.errors, inv.hashes, inv.csv_bytes, inv.files = check_outputs(self.wl, out, self.golden)
            if traced:
                inv.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        return inv

    @staticmethod
    def _tail(path: Path) -> str:
        text = path.read_text(encoding="utf-8", errors="replace").strip()
        return text.splitlines()[-1] if text else "(no stderr)"


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl: Workload, setups, plain) -> dict:
    setup = statistics.median(setups)
    cpu = statistics.median(i.cpu_s for i in plain)
    if cpu <= setup:
        raise BenchError(f"median CPU time {cpu:.3f} s is not above median set-up {setup:.3f} s")
    return {
        "cpu_s": cpu,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(i.rss_mb for i in plain),
        "items_per_s": wl.items / (cpu - setup),
    }


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation."""
    spans = inv.trace["spans"]
    counters = inv.trace["counters"]

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    def us_per(total, count):
        return total / count * 1e6 if count else 0.0

    runs = counters.get("sde.runs", 0)
    metrics = {}
    for name in ("model.acceleration_array", "model.assemble_drift_matrix", "sde.noise_block",
                 "sde.stack", "stats.observables", "spectral.stability_report",
                 "spectral.drift_matrix_norm"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.s"] = span(name)
    metrics.update({
        "model.acceleration_array.us_per_call": us_per(
            span("model.acceleration_array"), span("model.acceleration_array", "calls")),
        "model.build_matrices.s": span("model.build_matrices"),
        "model.build_matrices.self_s": span("model.build_matrices", "self_s"),
        "model.dense_bytes": counters.get("model.dense_bytes", 0),
        "sde.noise_blocks_per_run": span("sde.noise_block", "calls") / runs if runs else 0.0,
        "sde.integrate.s": span("sde.integrate"),
        "sde.integrate.self_s": span("sde.integrate", "self_s"),
        "sde.us_per_run_step": us_per(span("sde.integrate"), counters.get("sde.run_steps", 0)),
        "spectral.stability_report.us_per_call": us_per(
            span("spectral.stability_report"), span("spectral.stability_report", "calls")),
        "spectral.eigenvalues.s": span("spectral.eigenvalues"),
        "svgplot.s": span("svgplot"),
        "svgplot.bytes": counters.get("svgplot.bytes", 0),
        "cli.self_s": span("cli", "self_s"),
        "cli.csv_bytes": inv.csv_bytes,
        "cli.files_written": inv.files,
        "scenario.load_s": span("scenario.load"),
        "trace.uncovered_frac": (inv.cpu_s - span("cli")) / inv.cpu_s,
    })
    return metrics


def per_layer(plain, traced) -> dict:
    per_run = [layer_metrics(i) for i in traced]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    cpu_plain = statistics.median(i.cpu_s for i in plain)
    cpu_traced = statistics.median(i.cpu_s for i in traced)
    metrics["trace.overhead_frac"] = cpu_traced / cpu_plain - 1.0
    return metrics


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "phcf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_ENV,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# main


def load_golden(name: str, seed: int, size: str):
    """The workload's hash table when outputs are checked against one."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    table = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if name not in table:
        raise BenchError(f"{GOLDEN_PATH.name} has no entry for {name}")
    return table[name]


def measure(name: str, wl: Workload, seed: int, seconds: float, trace: bool, golden):
    runner = Runner(name, wl, seed, golden)
    try:
        runner.setup_probe()  # warm-up: byte-compiles phcf, fills the page cache
        setups, plain, traced = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            setups.append(runner.setup_probe())
            plain.append(runner.invoke(traced=False))
            if trace:
                inv = runner.invoke(traced=True)
                if not (inv.errors or plain[-1].errors) and inv.hashes != plain[-1].hashes:
                    inv.errors.append("traced outputs hash differently from untraced ones")
                traced.append(inv)
            if time.perf_counter() >= deadline:
                break
    finally:
        runner.close()
    return setups, plain, traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the harness self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phcf" / "cli.py").is_file():
        print(f"error: no phcf package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = replace(wl, **TINY[args.workload])
    try:
        golden = load_golden(args.workload, args.seed, args.size)
        setups, plain, traced = measure(args.workload, wl, args.seed, args.seconds, bool(args.trace), golden)
        invocations = plain + traced
        failed = [i for i in invocations if i.errors]
        for inv in failed:
            print(f"{args.workload}: " + "; ".join(inv.errors), file=sys.stderr)
        print(f"{args.workload}: set-up CPU s {[round(s, 3) for s in setups]}, "
              f"command CPU s {[round(i.cpu_s, 3) for i in plain]}, "
              f"wall s {[round(i.wall_s, 3) for i in plain]}", file=sys.stderr)
        good_plain = [i for i in plain if not i.errors]
        good_traced = [i for i in traced if not i.errors]
        if not good_plain or (args.trace and not good_traced):
            raise BenchError("no invocation passed its output checks")
        if args.trace:
            metrics, units = per_layer(good_plain, good_traced), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(wl, setups, good_plain), END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "environment": environment(args.seed),
        "wall_s_median": statistics.median(i.wall_s for i in good_plain),
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
