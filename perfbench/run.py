"""Benchmark of the `openwar` command line on synthetic seasons.

    python3 perfbench/run.py --workload war-400g --seed 17 --seconds 10 --trace 0

Set-up writes a synthetic 30-team season with `openwar simulate`.  Timed
repetitions then run the workload's command as fresh child processes, one
after the other (closed loop, one client), until `--seconds` have passed
and at least the workload's `reps` have run.  Every repetition is checked
(checks.py); one that exits non-zero or fails a check counts in `failed`.
Every child of a run gets PYTHONHASHSEED from `--seed` (see hash_seed).
With `--trace 1` the command runs once untraced, once under tracer.py and
once untraced with another hash seed, and the per-layer metrics are
printed instead of the end-to-end ones.
The last line of standard output is the JSON result.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TEAMS = 30
REFERENCE_SEED = 17
# 9 starters and 3 starting pitchers per team are major league; the
# default cutoffs would leave the 30-team synthetic league no replacement tier
CUTOFFS = ("--cutoff-pos", "270", "--cutoff-pitch", "90")


@dataclass(frozen=True)
class Workload:
    name: str
    games: int
    setups: int  # set-ups per run; setup_s is their median
    reps: int  # fewest timed repetitions per run
    args: tuple  # "{input}" and "{out}" are filled in per repetition
    check: object
    tolerance: float  # largest deviation from the reference outputs
    why: str

    def argv(self, inp, out):
        return [a.format(input=inp, out=out) for a in self.args]


WORKLOADS = {w.name: w for w in (
    Workload(
        "war-400g", 400, 5, 2,
        ("war", "--input", "{input}", "--out", "{out}", *CUTOFFS),
        checks.check_war, checks.WAR_TOL,
        "whole valuation path; the quadratic defense chain does most of the work"),
    Workload(
        "boot-100g", 100, 5, 3,
        ("boot", "--input", "{input}", "--out", "{out}", "--replicates", "3500",
         "--seed", "0", "--compare", "T01_CF", "T02_CF", *CUTOFFS),
        checks.check_boot, checks.QUANTILE_TOL,
        "paper's 3500 bootstrap replicates; reads the ledger through pa_bundles"),
    Workload(
        "validate-2430g", 2430, 2, 2,
        ("validate", "--input", "{input}"),
        checks.check_validate, 0.0,
        "full-season parse and validation; no regression layer runs"),
)}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


def hash_seed(seed, offset=0):
    """PYTHONHASHSEED for the children of a run with `--seed seed`.

    `openwar war` and `boot` write artifacts whose last digits follow the
    interpreter's hash seed (README: the hash-seed finding), so it is an
    input like the season and comes from `--seed` too.  `offset` gives the
    second hash seed that the traced run measures that finding with."""
    return (seed + offset) % 2**32


def run_child(argv, work, hashseed):
    """Run one child process to completion; wall time from launch to exit,
    peak RSS from the kernel's accounting of that child."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hashseed))
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def cli(*args):
    return ["-m", "openwar.cli", *args]


def traced(summary, run_id, *args):
    return [str(HERE / "tracer.py"), str(summary), str(summary.with_suffix(".npz")),
            run_id, "--", *args]


def simulate_args(w, seed, path):
    return ["simulate", "--games", str(w.games), "--seed", str(seed),
            "--teams", str(TEAMS), "--out", str(path)]


class SetupError(RuntimeError):
    pass


def plate_appearances(child):
    if child.code != 0:
        raise SetupError(f"openwar simulate exited {child.code}: {child.stderr}")
    words = child.stdout.split()
    return int(words[words.index("wrote") + 1])


def set_up(w, seed, work):
    """Write the season `w.setups` times; returns (input path, PA count, set-up
    times, problems).  Every set-up must write the same bytes."""
    inp = work / "season.csv"
    times, problems, first = [], [], None
    for k in range(w.setups):
        child = run_child(cli(*simulate_args(w, seed, inp)), work, hash_seed(seed))
        pas = plate_appearances(child)
        times.append(child.wall_s)
        data = inp.read_bytes()
        first = data if first is None else first
        if data != first:
            problems.append(f"set-up {k + 1} wrote a different season")
    return inp, pas, times, problems


class Repetitions:
    """Checks each repetition and that all of them wrote the same bytes."""

    def __init__(self, w, pas, seed):
        self.w, self.pas = w, pas
        self.reference = None
        if seed == REFERENCE_SEED and w.games == WORKLOADS[w.name].games:
            self.reference = checks.load_reference(w.name)
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.deviation = -1.0

    def check(self, child, out, tamper=None):
        self.attempted += 1
        if tamper is not None:
            tamper(child, out)
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr.strip()[-300:]}")
        else:
            try:
                found, values = self.w.check(child.stdout, out, self.pas)
            except (OSError, KeyError, ValueError) as exc:
                found, values = [f"unreadable output: {exc!r}"], None
            problems += found
            if self.reference is not None and values is not None:
                dev = checks.max_deviation(values, self.reference)
                self.deviation = max(self.deviation, dev)
                if not dev <= self.w.tolerance:
                    problems.append(
                        f"deviates from the reference by {dev!r} "
                        f"(tolerance {self.w.tolerance})")
            d = checks.digest(child.stdout, out)
            if self.first_digest is None:
                self.first_digest = d
            elif d != self.first_digest:
                problems.append("outputs differ from the first repetition")
        if problems:
            self.failed += 1
            self.problems.append(f"repetition {self.attempted}: " + "; ".join(problems))

    def reference_note(self):
        if self.reference is None:
            return (f"reference check skipped: only seed {REFERENCE_SEED} at full "
                    "size has reference outputs")
        return (f"reference check: max deviation {self.deviation!r} "
                f"(tolerance {self.w.tolerance})")


def timed_run(w, seed, seconds, work, tamper=None):
    inp, pas, setup_times, problems = set_up(w, seed, work)
    reps = Repetitions(w, pas, seed)
    out = work / "out"
    walls, rss = [], []
    start = time.perf_counter()
    while reps.attempted < w.reps or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        child = run_child(cli(*w.argv(inp, out)), work, hash_seed(seed))
        reps.check(child, out, tamper)
        walls.append(child.wall_s)
        rss.append(child.rss_mib)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "pa_per_s": (pas / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [f"{w.name}, seed {seed}: {pas} plate appearances, {len(walls)} "
             f"repetitions (closed loop, one client), {len(setup_times)} set-ups",
             "repetition walls: " + " ".join(f"{t:.3f}" for t in walls)
             + " s; set-ups: " + " ".join(f"{t:.3f}" for t in setup_times) + " s",
             f"fail_rate {reps.failed}/{reps.attempted}",
             reps.reference_note()]
    return metrics, reps, problems, notes


# Per-layer metrics of the traced run: (name, unit, better, source).
# Sources: "self" = summed self time of the span named by the metric
# without its "_s"; "calls" = number of calls of a span; "count" = a
# counter taken from arguments or return values; "layer" = self time of
# every span of a layer; anything else is computed in layer_metrics().
def _per_layer():
    m = []
    for name in ("events.parse", "events.validate", "events.serialize",
                 "simulate.generate", "run_expectancy.matrix",
                 "run_expectancy.run_value", "offense.park_platoon",
                 "offense.baserunner_expectation", "offense.position",
                 "offense.advancement", "offense.baserunning",
                 "defense.surface_fit", "defense.fielding_fit", "defense.split",
                 "defense.apportion_fielding", "defense.fielding_park",
                 "defense.pitching_adj", "numerics.smoother", "numerics.predict",
                 "numerics.ols", "numerics.irls", "pipeline.build_ledger",
                 "pipeline.surface_grid", "pipeline.credit_lines",
                 "pipeline.pa_bundles", "valuation.tabulate", "valuation.pool",
                 "valuation.war", "valuation.write", "uncertainty.bootstrap",
                 "uncertainty.quantile_csv", "uncertainty.compare",
                 "trace.tracemalloc"):
        m.append((f"{name}_s", "s", "lower", "self"))
    for name in ("run_expectancy.run_value", "offense.baserunning",
                 "defense.split", "defense.apportion_fielding",
                 "numerics.predict", "numerics.ols"):
        m.append((f"{name}_calls", "count", "lower", "calls"))
    m.append(("numerics.irls_fits", "count", "lower", "calls"))
    for name, better in (("events.records", "higher"), ("events.dropped", "lower"),
                         ("events.warnings", "lower"),
                         ("defense.fielding_park_rows", "lower"),
                         ("defense.equal_split_fallbacks", "lower"),
                         ("numerics.smoother_queries", "lower"),
                         ("numerics.smoother_kernel_evals", "lower"),
                         ("numerics.ols_design_cells", "lower"),
                         ("numerics.ols_dropped_cols", "lower"),
                         ("numerics.irls_iterations", "lower"),
                         ("numerics.irls_separated", "lower"),
                         ("pipeline.credit_lines", "lower"),
                         ("valuation.players", "higher"),
                         ("valuation.replacement_players", "higher"),
                         ("uncertainty.replicates", "higher"),
                         ("uncertainty.credit_rows", "lower")):
        m.append((name, "count", better, "count"))
    m += [
        ("numerics.irls_converged_ratio", "ratio", "higher", "derived"),
        ("numerics.smoother_peak_alloc_mb", "MiB", "lower", "derived"),
        ("pipeline.surface_grid_peak_alloc_mb", "MiB", "lower", "derived"),
        ("pipeline.conservation_max_resid", "runs", "lower", "derived"),
        ("valuation.war_max_abs_dev", "wins", "lower", "derived"),
        ("valuation.hashseed_outputs_differ", "count", "lower", "derived"),
        ("valuation.hashseed_max_abs_dev", "wins", "lower", "derived"),
        ("uncertainty.replicates_per_s", "1/s", "higher", "derived"),
        ("uncertainty.quantile_max_abs_dev", "wins", "lower", "derived"),
    ]
    for layer in ("cli", "events", "run_expectancy", "offense", "defense",
                  "numerics", "pipeline", "valuation", "uncertainty"):
        m.append((f"{layer}.self_s", "s", "lower", "layer"))
    m += [
        ("trace.wall_s", "s", "lower", "derived"),
        ("trace.overhead_s", "s", "lower", "derived"),
        ("trace.write_s", "s", "lower", "derived"),
        ("trace.unattributed_s", "s", "lower", "derived"),
    ]
    return m


PER_LAYER = _per_layer()


def layer_metrics(setup, command, untraced_wall, traced_wall, deviations,
                  hashseed):
    """Per-layer metrics from the set-up and command trace summaries."""
    def merged(key):
        out = dict(setup[key])
        for k, v in command[key].items():
            out[k] = out.get(k, 0) + v
        return out

    self_s, calls, counts = merged("self_s"), merged("calls"), merged("counts")
    fits = calls.get("numerics.irls", 0)
    bootstrap_s = command["total_s"].get("uncertainty.bootstrap", 0.0)
    derived = {
        "numerics.irls_converged_ratio":
            counts.get("numerics.irls_converged", 0) / fits if fits else 0.0,
        "numerics.smoother_peak_alloc_mb":
            command["peak_mib"].get("numerics.smoother", 0.0),
        "pipeline.surface_grid_peak_alloc_mb":
            command["peak_mib"].get("pipeline.surface_grid", 0.0),
        "pipeline.conservation_max_resid":
            command.get("conservation_max_resid", -1.0),
        "valuation.war_max_abs_dev": deviations.get("war-400g", -1.0),
        "uncertainty.quantile_max_abs_dev": deviations.get("boot-100g", -1.0),
        "valuation.hashseed_outputs_differ": hashseed["outputs_differ"],
        "valuation.hashseed_max_abs_dev": hashseed["max_abs_dev"],
        "uncertainty.replicates_per_s":
            counts.get("uncertainty.replicates", 0) / bootstrap_s
            if bootstrap_s else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.write_s": command["post_s"],
        "trace.unattributed_s":
            traced_wall - command["root_s"] - command["post_s"],
    }
    metrics = {}
    for name, unit, _, source in PER_LAYER:
        if source == "self":
            value = self_s.get(name[:-2], 0.0)
        elif source == "calls":
            value = calls.get("numerics.irls" if name == "numerics.irls_fits"
                              else name[:-len("_calls")], 0)
        elif source == "count":
            value = counts.get(name, 0)
        elif source == "layer":
            layer = name[:-len(".self_s")]
            value = sum(v for k, v in command["self_s"].items()
                        if k.split(".")[0] == layer)
        else:
            value = derived[name]
        metrics[name] = (value, unit)
    return metrics


def layer_shares(command):
    """Fraction of the traced command's root span spent in each layer."""
    shares = {}
    for span, seconds in command["self_s"].items():
        layer = span.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / command["root_s"]
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def read_values(w, child, out, pas):
    """The values a workload's check compares, or None when unreadable."""
    if child.code != 0:
        return None
    try:
        return w.check(child.stdout, out, pas)[1]
    except (OSError, KeyError, ValueError):
        return None


def read_summary(path, child):
    if child.code != 0 or not path.is_file():
        raise SetupError(f"traced run failed ({child.code}): {child.stderr[-500:]}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def trace_run(w, seed, work, tamper=None):
    run_id = uuid.uuid4().hex
    inp = work / "season.csv"
    setup_child = run_child(
        traced(work / "setup.json", run_id, *simulate_args(w, seed, inp)), work,
        hash_seed(seed))
    pas = plate_appearances(setup_child)
    setup = read_summary(work / "setup.json", setup_child)

    reps = Repetitions(w, pas, seed)
    out = work / "out"
    untraced = run_child(cli(*w.argv(inp, out)), work, hash_seed(seed))
    reps.check(untraced, out, tamper)
    values = read_values(w, untraced, out, pas)
    digest = checks.digest(untraced.stdout, out)
    shutil.rmtree(out, ignore_errors=True)
    child = run_child(traced(work / "command.json", run_id, *w.argv(inp, out)), work,
                      hash_seed(seed))
    reps.check(child, out, tamper)
    command = read_summary(work / "command.json", child)
    # the hash-seed finding, measured and reported but not gated
    shutil.rmtree(out, ignore_errors=True)
    other = run_child(cli(*w.argv(inp, out)), work, hash_seed(seed, 1))
    other_values = read_values(w, other, out, pas)
    hashseed = {
        "outputs_differ": int(checks.digest(other.stdout, out) != digest),
        "max_abs_dev": checks.max_deviation(other_values, values)
        if values is not None and other_values is not None else -1.0,
    }

    problems = []
    resid = command.get("conservation_max_resid")
    if "conservation_error" in command:
        problems.append(f"conservation not measured: {command['conservation_error']}")
    elif resid is not None and not resid <= checks.CONSERVATION_TOL:
        problems.append(f"per-PA conservation residual {resid!r} exceeds "
                        f"{checks.CONSERVATION_TOL}")
    deviations = {w.name: reps.deviation}
    metrics = layer_metrics(setup, command, untraced.wall_s, child.wall_s,
                            deviations, hashseed)
    shares = ", ".join(f"{k} {v:.1%}" for k, v in layer_shares(command).items())
    notes = [f"{w.name}, seed {seed}: traced run {run_id}, "
             f"{command['spans']} spans written to {work.name}/",
             f"layer self-time shares: {shares}",
             f"fail_rate {reps.failed}/{reps.attempted}",
             reps.reference_note(),
             f"hash seed {hash_seed(seed, 1)} instead of {hash_seed(seed)}: "
             f"outputs differ {hashseed['outputs_differ']}, largest change "
             f"{hashseed['max_abs_dev']!r} (reported, not gated)"]
    notes += [f"not traced, no longer in openwar: {t}"
              for t in command["missing_targets"]]
    notes += [f"counter lost for {k}: {v}" for k, v in command["hook_errors"].items()]
    return metrics, reps, problems, notes


def run(w, seed, seconds, trace, games=None, tamper=None):
    """Run one workload; returns the result object that main() prints."""
    if games is not None:
        w = dataclasses.replace(w, games=games)
    work = WORK / f"{w.name}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    try:
        if trace:
            metrics, reps, problems, notes = trace_run(w, seed, work, tamper)
        else:
            metrics, reps, problems, notes = timed_run(w, seed, seconds, work,
                                                       tamper)
    finally:
        # inputs and artifacts go; trace summaries and spans stay
        for path in list(work.iterdir()):
            if path.suffix not in (".json", ".npz"):
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        if not any(work.iterdir()):
            work.rmdir()
    problems = reps.problems + problems
    return {
        "correct": not problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, notes, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "openwar" / "cli.py").is_file():
        print(f"no openwar sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, notes, problems = run(WORKLOADS[args.workload], args.seed,
                                      args.seconds, args.trace)
    except SetupError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(note)
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for m in result["metrics"].values():
        if not math.isfinite(m["value"]):
            m["value"] = 1e300  # JSON has no infinity
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
