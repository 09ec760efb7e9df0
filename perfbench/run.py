"""Benchmark of the ranking-market command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``.
Each invocation runs one workload's argv through ``ranking_market.cli.main``
in a fresh process (``perfbench/child.py``). Invocations run back to back,
one at a time (a closed loop with one client), for about S seconds; every
metric is the median over the invocations of the run.

Every run first makes one untimed reference invocation at REFERENCE_SEED,
whose machine output must hash to the digest recorded at the seed commit,
so any change to the random stream or to the 12-digit output fails loudly.
The timed invocations use ``--seed N``. Each invocation's output must pass
the workload's invariants, which hold for any seed, and all timed outputs
of a run must be byte-identical. An invocation that fails any check counts
in ``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` cycles through
an untraced ``--jobs 1`` invocation, a traced ``--jobs 1`` invocation (see
tracing.py) and an untraced ``--jobs 2`` invocation, requires all three to
print the same bytes, and reports the per-layer metrics. Per-trial figures
divide by the workload's trials (sweep tuples for ``properties``).

Times (wall, CPU, setup and per-layer) are scaled to nominal host speed
by the calibration the child runs around each invocation (calibration.py):
a reported time is the measured one times the printed host scale, and a
reported rate the measured one divided by it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give host
facts, the load average around the run and every metric with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

REFERENCE_SEED = 23
GUARANTEE = 1.0 - 1.0 / math.e
CHILD_TIMEOUT_S = 60.0
MIN_TRACE_CYCLES = 3  # per-layer medians and ratios need a few even on slow workloads
# Median time of calibration.calibrate() on the reference host (2 vCPUs, Intel Xeon,
# Python 3.11, numpy 2.4). Times are scaled by CAL_NOMINAL_S / calibration.
CAL_NOMINAL_S = 0.030
TIME_UNITS = ("s", "us", "ns")


# ---------------------------------------------------------------------------
# Output invariants. Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def _gate(row: dict) -> bool:
    return float(row["mean"]) >= GUARANTEE - 4.0 * float(row["half_width"])


def check_claim1(rows: list[dict]) -> list[str]:
    problems = []
    if len(rows) != 210:
        problems.append(f"claim1 printed {len(rows)} edges, expected 210")
    failing = [r for r in rows if r["passed"] != "true" or not _gate(r)]
    if failing:
        problems.append(f"claim1: {len(failing)} edges fail the 1-1/e gate")
    return problems


def check_ratio(rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"ratio printed {len(rows)} rows, expected 1"]
    row = rows[0]
    problems = []
    if row["optimum"] != "100":
        problems.append(f"ratio: optimum {row['optimum']}, expected 100")
    if float(row["mean_ratio"]) < GUARANTEE - 4.0 * float(row["half_width"]):
        problems.append(f"ratio: mean {row['mean_ratio']} below 1-1/e - 4*half_width")
    return problems


def check_properties(rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"properties printed {len(rows)} rows, expected 1"]
    counts = {k: v for k, v in rows[0].items() if k.endswith("_violations")}
    if len(counts) != 3 or any(v != "0" for v in counts.values()):
        return [f"properties: violations {counts}"]
    return []


def check_remark3(rows: list[dict]) -> list[str]:
    by_metric = {r["metric"]: r for r in rows}
    try:
        exp = by_metric["edge_guarantee_exp"]
        uniform = by_metric["edge_guarantee_uniform"]
        bad = by_metric["service_without_priciest_count"]
    except KeyError as missing:
        return [f"remark3: row {missing} missing"]
    problems = []
    if not _gate(exp):
        problems.append(f"remark3: exp row {exp['mean']} fails the 1-1/e gate")
    if float(uniform["mean"]) >= 0.6:
        problems.append(f"remark3: uniform row {uniform['mean']} is not below 0.6")
    if float(bad["mean"]) != 0.0:
        problems.append(f"remark3: service_without_priciest_count {bad['mean']}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # without the run-size flag and --seed
    size_flag: str  # --trials, or --sweep for properties
    trials: int
    check: Callable[[list[dict]], list[str]]
    digest: str  # sha256 of the output at REFERENCE_SEED and `trials`

    def command(self, seed: int, trials: int, jobs: int | None = None) -> list[str]:
        argv = list(self.argv)
        if jobs is not None:
            argv[argv.index("--jobs") + 1] = str(jobs)
        return argv + [self.size_flag, str(trials), "--seed", str(seed)]


# Why each workload (see BENCHMARK.json for the one-line reasons): each layer
# a later change is likely to optimise does most of the work in one workload
# and little in another. kvv20 is bound by the per-trial stream, kvv100 by
# the assignment kernel, properties builds a tiny instance per tuple and goes
# through the object path (run_market, checks), and remark3 is the only
# workload that exercises the process pool.
WORKLOADS = {
    "edge-sweep-kvv20": Workload(
        argv=("claim1", "--kvv", "20", "--scheme", "exp", "--sigma", "identity", "--jobs", "1"),
        size_flag="--trials",
        trials=10_000,
        check=check_claim1,
        digest="e43e1fec3532582e990ce3be14e17b5f421323adafaae98121b353c9ef6d1bac",
    ),
    "ratio-kvv100": Workload(
        argv=("ratio", "--kvv", "100", "--sigma", "identity", "--jobs", "1"),
        size_flag="--trials",
        trials=3_000,
        check=check_ratio,
        digest="31539292b2ca5515e44997cbe12ba6c738812ceead03546d81918f8c87c5de28",
    ),
    "properties-random": Workload(
        argv=("properties", "--jobs", "1"),
        size_flag="--sweep",
        trials=4_000,
        check=check_properties,
        digest="b47fda95af186edda871d5e14af595383436f7a11f6f1b4d500609d86e5cbadd",
    ),
    # at REFERENCE_SEED and 20000 trials its uniform row is the pinned 0.497893293377
    "remark3-n50-jobs2": Workload(
        argv=("remark3", "--n", "50", "--jobs", "2"),
        size_flag="--trials",
        trials=20_000,
        check=check_remark3,
        digest="1bc53322e5ea928600d93f8c82a7a0c38628511bb554018600d11e57bf6c8dd4",
    ),
}


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------


class StartupError(RuntimeError):
    """The child never reported ready: the package cannot be imported."""


@dataclass
class Invocation:
    setup_s: float
    result: dict | None  # the child's result line, None if it never produced one
    problems: list[str]

    @property
    def scale(self) -> float:
        """Factor that takes this invocation's times to nominal host speed."""
        return CAL_NOMINAL_S / self.result["calibration_s"]


def _kill_group(proc: subprocess.Popen) -> tuple[str, str]:
    """Kill the child and any pool workers it started; reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.communicate()


def invoke(argv: list[str], trace: bool) -> Invocation:
    """Run cli.main(argv) in a fresh child process and collect its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        # nothing follows "ready" until the request is sent, so no output
        # is left in the reader's buffer when communicate() takes over
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - t0
        if line != "ready\n":
            raise StartupError(_kill_group(proc)[1])
        # calibrate on as many processes as the invocation keeps busy
        procs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        request = json.dumps({"argv": argv, "trace": trace, "procs": procs}) + "\n"
        out, err = proc.communicate(request, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return Invocation(setup_s, None, [f"timed out after {CHILD_TIMEOUT_S:.0f} s"])
    finally:
        if proc.poll() is None:
            _kill_group(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return Invocation(setup_s, None, [f"child exited {proc.returncode}: {err[-2000:]}"])
    result = json.loads(lines[-1])
    problems = []
    if "error" in result:
        problems.append(f"cli.main raised: {result['error'][-2000:]}")
    if not Path(result["source"]).resolve().is_relative_to(SRC):
        problems.append(f"ran {result['source']}, not the package under {SRC}")
    return Invocation(setup_s, result, problems)


def checked(workload: Workload, seed: int, trials: int, jobs: int | None, trace: bool) -> Invocation:
    """One invocation plus the workload's output checks."""
    inv = invoke(workload.command(seed, trials, jobs), trace)
    if inv.result is None or inv.problems:
        return inv
    rc = inv.result["rc"]
    if rc != 0:
        inv.problems.append(f"exit code {rc}, expected 0")
    rows = list(csv.DictReader(io.StringIO(inv.result["output"])))
    if not rows:
        inv.problems.append("no machine output")
    for row in rows:
        if row.get("seed") != str(seed) or row.get("trials") != str(trials):
            inv.problems.append(f"row does not echo seed {seed} and trials {trials}: {row}")
            break
    inv.problems.extend(workload.check(rows))
    if seed == REFERENCE_SEED and trials == workload.trials:
        digest = hashlib.sha256(inv.result["output"].encode()).hexdigest()
        if digest != workload.digest:
            inv.problems.append(f"output digest {digest} differs from the recorded {workload.digest}")
    return inv


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(samples: list[Invocation], everything: list[Invocation], trials: int) -> dict:
    """Medians over the timed invocations; setup_s also counts the reference."""
    return {
        "trials_per_s": (median([trials / (s.result["wall_s"] * s.scale) for s in samples]), "1/s"),
        "cpu_us_per_trial": (
            median([s.result["cpu_s"] * s.scale / trials * 1e6 for s in samples]), "us"),
        "setup_s": (median([s.setup_s * s.scale for s in everything]), "s"),
        "peak_rss_mb": (median([s.result["peak_rss_mb"] for s in samples]), "MB"),
    }


def _span_self(table: dict, *spans: str) -> float | None:
    present = [table["spans"][s]["self_s"] for s in spans if s in table["spans"]]
    return sum(present) if present else None


def _span_calls(table: dict, span: str) -> int | None:
    entry = table["spans"].get(span)
    return entry["calls"] if entry is not None else None


def layer_sums(table: dict) -> dict[str, float]:
    """Self time per layer (the span-name prefix), plus cli and bookkeeping."""
    sums = {"cli": table["cli_self_s"], "trace": table["bookkeeping_s"]}
    for span, entry in table["spans"].items():
        layer = span.split(".")[0]
        sums[layer] = sums.get(layer, 0.0) + entry["self_s"]
    return sums


def traced_metrics(table: dict, trials: int) -> dict:
    """Per-layer figures of one traced invocation; None marks an absent span."""
    us = 1e6 / trials

    def per_trial(*spans):
        s = _span_self(table, *spans)
        return None if s is None else s * us

    def calls_per_trial(span):
        c = _span_calls(table, span)
        return None if c is None else c / trials

    kernel_s = _span_self(table, "matchers.kernel")
    scans = table["edge_scans"] if "matchers.kernel" in table["spans"] else None
    return {
        "analysis.stream_us_per_trial": (per_trial("analysis.stream"), "us"),
        "analysis.stream_calls_per_trial": (calls_per_trial("analysis.stream"), "count"),
        "analysis.estimator_self_us_per_trial": (
            per_trial("analysis.estimator", "analysis.pool", "analysis.chunk"), "us"),
        "analysis.checks_us_per_trial": (per_trial("analysis.checks"), "us"),
        "analysis.chunks": (_span_calls(table, "analysis.chunk"), "count"),
        "matchers.kernel_us_per_trial": (per_trial("matchers.kernel"), "us"),
        "matchers.kernel_calls_per_trial": (calls_per_trial("matchers.kernel"), "count"),
        "matchers.edge_scans_per_trial": (None if scans is None else scans / trials, "count"),
        "matchers.kernel_ns_per_edge_scan": (
            kernel_s / scans * 1e9 if kernel_s is not None and scans else None, "ns"),
        "matchers.optimum_s": (_span_self(table, "matchers.optimum"), "s"),
        "matchers.optimum_calls": (_span_calls(table, "matchers.optimum"), "count"),
        "market.run_market_us_per_trial": (per_trial("market.run_market"), "us"),
        "market.prices_us_per_trial": (per_trial("market.prices"), "us"),
        "instance.build_us_per_trial": (per_trial("instance.build"), "us"),
        "instance.load_s": (_span_self(table, "instance.load"), "s"),
        "cli.self_s": (table["cli_self_s"], "s"),
    }


COUNTS = (
    "analysis.stream_calls_per_trial",
    "analysis.chunks",
    "matchers.kernel_calls_per_trial",
    "matchers.edge_scans_per_trial",
    "matchers.optimum_calls",
)


def per_layer(cycles: list[tuple[Invocation, Invocation, Invocation]],
              trials: int) -> tuple[dict, list[str], str]:
    """Medians over the traced invocations, with the two derived ratios.
    Returns the metrics, any problems (counts that differ between
    invocations, or layer self times that do not add up to the main span)
    and a report line with the median self time of each layer."""
    problems = []
    per_run = []
    sums = []
    for _, traced, _ in cycles:
        table = traced.result["trace"]
        sums.append(layer_sums(table))
        total = sum(sums[-1].values())
        if not math.isclose(total, table["main_s"], rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"layer self times sum to {total}, cli.main span is {table['main_s']}")
        per_run.append({
            name: (value * traced.scale if value is not None and unit in TIME_UNITS else value, unit)
            for name, (value, unit) in traced_metrics(table, trials).items()
        })
    metrics = {}
    for name, (_, unit) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        if any(v is None for v in values):
            continue
        if name in COUNTS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced invocations: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (median(values), unit)
    # unscaled: the jobs-1 and jobs-2 invocations are calibrated on different
    # numbers of processes, and each cycle's invocations run back to back
    wall = lambda k: median([c[k].result["wall_s"] for c in cycles])  # noqa: E731
    metrics["analysis.pool_efficiency"] = (wall(0) / (2.0 * wall(2)), "ratio")
    metrics["trace.overhead"] = (wall(1) / wall(0) - 1.0, "ratio")
    main_s = median([c[1].result["trace"]["main_s"] for c in cycles])
    note = ("unscaled median self s by layer: "
            + ", ".join(f"{layer} {median([s[layer] for s in sums]):.6f}" for layer in sums[0])
            + f"; traced cli.main {main_s:.6f}")
    return metrics, problems, note


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _version(package: str) -> str | None:
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def host_facts() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if rev.returncode == 0:
            sha, dirty = rev.stdout.strip(), bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "git_sha": sha,
        "git_dirty": dirty,
    }


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    problems: list[str]
    notes: list[str]  # human-readable lines for the report


def measure(name: str, seed: int, seconds: float, trace: bool, trials: int | None = None) -> RunResult:
    """Run one workload for about `seconds` and collect its metrics.

    `trials` overrides the workload's run size, for quick self-checks; the
    recorded digest is checked only at the workload's own size."""
    workload = WORKLOADS[name]
    trials = workload.trials if trials is None else trials
    invocations: list[Invocation] = []

    def run(run_seed, jobs=None, traced=False):
        inv = checked(workload, run_seed, trials, jobs, traced)
        invocations.append(inv)
        return inv

    run(REFERENCE_SEED)  # untimed; also warms the file cache
    timed: list = []
    problems: list[str] = []
    min_groups = MIN_TRACE_CYCLES if trace else 1
    start = perf_counter()
    while True:
        if trace:
            timed.append((run(seed, jobs=1), run(seed, jobs=1, traced=True), run(seed, jobs=2)))
        else:
            timed.append(run(seed))
        elapsed = perf_counter() - start
        if len(timed) >= min_groups and elapsed + elapsed / len(timed) > seconds:
            break
    outputs = {inv.result["output"] for inv in invocations[1:] if inv.result is not None}
    if len(outputs) > 1:
        problems.append(f"{len(outputs)} different outputs for one seed across jobs and reruns")
    failed = sum(1 for inv in invocations if inv.problems)
    for inv in invocations:
        problems.extend(inv.problems)
    metrics: dict = {}
    notes = [f"argv {' '.join(workload.command(seed, trials))}",
             f"invocations {len(invocations)} (1 reference at seed {REFERENCE_SEED})"]
    if not failed:
        notes.append(f"host scale (median) {median([inv.scale for inv in invocations]):.6g}")
        if trace:
            metrics, trace_problems, note = per_layer(timed, trials)
            problems.extend(trace_problems)
            notes.append(note)
        else:
            metrics = end_to_end(timed, invocations, trials)
    if problems and not failed:
        failed = 1  # a run-level check failed
    return RunResult(len(invocations), failed, metrics, problems, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ranking_market" / "cli.py").is_file():
        print(f"error: no ranking_market package under {SRC}", file=sys.stderr)
        return 2
    load_before = _read("/proc/loadavg")
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except StartupError as exc:
        print(f"error: ranking_market.cli could not be started:\n{exc}", file=sys.stderr)
        return 2
    load_after = _read("/proc/loadavg")
    print("host " + json.dumps(host_facts()))
    print(f"loadavg before {load_before} after {load_after}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in run.notes:
        print(note)
    for problem in run.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {run.failed / run.attempted:.6g} ratio")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
