"""Span tracer for one `openwar` command, installed from outside the package.

Run as a script, it executes one command line in-process with wrappers
around the public functions of each `openwar` module:

    python3 perfbench/tracer.py SUMMARY.json SPANS.npz RUN_ID -- war --input ...

Each wrapped call records a span (id, parent id, name, start, end, self
time); the run id is shared by every span of the run.  Spans stay in
memory and are written to SPANS.npz when the command has exited.
SUMMARY.json holds what the benchmark reads: self time and call count per
span name, counters taken from return values, tracemalloc peaks of the
memory-heavy spans, and the per-PA conservation residual of the ledger.
The process exits with the command's exit code.

The root span `cli` opens before `openwar` is imported, so imports and
argument parsing count as command-line self time, and the self times of
all spans add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)
SPAN_COLUMNS = ("span_id", "parent_id", "name", "start", "end", "self_s")
MEM_FIRST = 8
MEM_EVERY = 64


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ix = {}
        self.spans = []  # SPAN_COLUMNS; name is an index into self.names
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peak_mib = defaultdict(float)
        self.captured = {}
        self.hook_errors = {}
        self._mem_calls = defaultdict(int)
        self._next_id = 0
        self._stack = []  # open frames: [span id, name index, start, child time]
        self._mem = []  # open tracemalloc frames: [entry bytes, max absolute peak]

    def _name(self, name):
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def begin(self, name):
        frame = [self._new_id(), self._name(name), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame):
        """Close the innermost span; returns its duration."""
        now = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("span closed out of order")
        sid, nix, start, child = frame
        duration = now - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self._record(sid, parent[0] if parent else -1, nix, start, now,
                     duration - child)
        return duration

    def _charge(self, name, seconds):
        """Move time out of the innermost span into a span-less bucket."""
        self._stack[-1][3] += seconds
        self.self_s[name] += seconds

    def _record(self, sid, parent_id, nix, start, end, self_time):
        self.spans.append((sid, parent_id, nix, start, end, self_time))
        name = self.names[nix]
        self.self_s[name] += self_time
        self.total_s[name] += end - start
        self.calls[name] += 1

    def traced_iter(self, name, iterator):
        """Span for a lazily consumed iterator: its self time is the time
        spent producing items, charged away from the consumer's span."""
        parent = self._stack[-1] if self._stack else None
        sid = self._new_id()
        nix = self._name(name)
        busy, first, last = 0.0, None, None
        while True:
            t0 = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                item = _END
            t1 = time.perf_counter()
            first = t0 if first is None else first
            last = t1
            busy += t1 - t0
            if self._stack:
                self._stack[-1][3] += t1 - t0
            if item is _END:
                break
            self.counts[name] += 1
            yield item
        self._record(sid, parent[0] if parent else -1, nix, first, last, busy)

    # tracemalloc runs only inside memory-heavy spans, and there only in
    # the first MEM_FIRST calls of a span name, every MEM_EVERY-th call
    # after them, and every call nested in a measured span: starting it
    # costs about as much as a small smoother query.  The time spent
    # starting and reading it is charged to `trace.tracemalloc`, not to
    # the span being measured.
    def mem_begin(self, name):
        """Start measuring; returns whether this call is measured."""
        n = self._mem_calls[name]
        self._mem_calls[name] = n + 1
        if not (self._mem or n < MEM_FIRST or n % MEM_EVERY == 0):
            return False
        t0 = time.perf_counter()
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])
        self._charge("trace.tracemalloc", time.perf_counter() - t0)
        return True

    def mem_end(self, name):
        t0 = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        base, inner = self._mem.pop()
        top = max(peak, inner)
        self.peak_mib[name] = max(self.peak_mib[name], (top - base) / MIB)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], top)
        else:
            tracemalloc.stop()
        self._charge("trace.tracemalloc", time.perf_counter() - t0)

    def summary(self, root_duration):
        return {
            "run_id": self.run_id,
            "root_s": root_duration,
            "spans": len(self.spans),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "peak_mib": dict(self.peak_mib),
            "hook_errors": dict(self.hook_errors),
        }

    def write_spans(self, path):
        import numpy as np

        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 columns=np.array(SPAN_COLUMNS),
                 spans=np.array(self.spans, dtype=float).reshape(-1, 6))


_END = object()


# Counters read from the arguments and return values of wrapped calls.
def _parse_counts(tr, args, result):
    dataset, report = result
    tr.counts["events.records"] += len(dataset)
    tr.counts["events.dropped"] += report.dropped
    tr.counts["events.warnings"] += len(report.warnings)


def _fielding_counts(tr, args, result):
    if sum(row.p_model for row in result) < 1e-12:
        tr.counts["defense.equal_split_fallbacks"] += 1


def _park_rows(tr, args, result):
    tr.counts["defense.fielding_park_rows"] += len(result.residuals)


def _smoother_counts(tr, args, result):
    surface = args[0]
    tr.counts["numerics.smoother_queries"] += len(result)
    tr.counts["numerics.smoother_kernel_evals"] += \
        len(result) * len(surface.points)


def _ols_counts(tr, args, result):
    n, p = args[0].values.shape
    tr.counts["numerics.ols_design_cells"] += n * p
    tr.counts["numerics.ols_dropped_cols"] += len(result.dropped)


def _irls_counts(tr, args, result):
    tr.counts["numerics.irls_iterations"] += result.iterations
    tr.counts["numerics.irls_converged"] += bool(result.converged)
    tr.counts["numerics.irls_separated"] += bool(result.separated)


def _capture_ledger(tr, args, result):
    tr.captured["ledger"] = result


def _bundle_rows(tr, args, result):
    tr.counts["uncertainty.credit_rows"] += sum(len(b) for b in result)


def _valuation_counts(tr, args, result):
    valuations, pool = result
    tr.counts["valuation.players"] += len(valuations)
    tr.counts["valuation.replacement_players"] += len(pool.replacement_ids)


def _replicates(tr, args, result):
    tr.counts["uncertainty.replicates"] += result.replicates.shape[0]


# (module, function or Class.method, span name, counter hook, memory-heavy)
TARGETS = [
    ("events", "parse_season", "events.parse", _parse_counts, False),
    ("events", "validate_dataset", "events.validate", None, False),
    ("events", "serialize_season", "events.serialize", None, False),
    ("simulate", "generate_synthetic_season", "simulate.generate", None, False),
    ("run_expectancy", "estimate_matrix", "run_expectancy.matrix", None, False),
    ("run_expectancy", "run_value", "run_expectancy.run_value", None, False),
    ("offense", "apportion_offense", "offense.chain", None, False),
    ("offense", "fit_park_platoon", "offense.park_platoon", None, False),
    ("offense", "fit_baserunner_expectation", "offense.baserunner_expectation",
     None, False),
    ("offense", "fit_position_adjustment", "offense.position", None, False),
    ("offense", "advancement_probabilities", "offense.advancement", None, False),
    ("offense", "apportion_baserunning", "offense.baserunning", None, False),
    ("defense", "apportion_defense", "defense.chain", None, False),
    ("defense", "fit_out_surface", "defense.surface_fit", None, False),
    ("defense", "fit_fielding_models", "defense.fielding_fit", None, False),
    ("defense", "split_responsibility", "defense.split", None, False),
    ("defense", "apportion_fielding", "defense.apportion_fielding",
     _fielding_counts, False),
    ("defense", "fit_fielding_park_adjustment", "defense.fielding_park",
     _park_rows, False),
    ("defense", "fit_pitching_adjustment", "defense.pitching_adj", None, False),
    ("numerics", "SmoothedSurface.evaluate", "numerics.smoother",
     _smoother_counts, True),
    ("numerics", "LogisticFit.predict", "numerics.predict", None, False),
    ("numerics", "ols_fit", "numerics.ols", _ols_counts, False),
    ("numerics", "logistic_fit", "numerics.irls", _irls_counts, False),
    ("pipeline", "run_pipeline", "pipeline.run", None, False),
    ("pipeline", "build_ledger", "pipeline.build_ledger", _capture_ledger, False),
    ("pipeline", "SeasonLedger.credit_lines", "pipeline.credit_lines", None, False),
    ("pipeline", "SeasonLedger.pa_bundles", "pipeline.pa_bundles",
     _bundle_rows, False),
    ("pipeline", "SeasonLedger.surface_grid_csv", "pipeline.surface_grid",
     None, True),
    ("valuation", "value_players", "valuation.value", _valuation_counts, False),
    ("valuation", "tabulate_raa", "valuation.tabulate", None, False),
    ("valuation", "build_replacement_pool", "valuation.pool", None, False),
    ("valuation", "shadow_and_war", "valuation.war", None, False),
    ("valuation", "valuation_csv", "valuation.write", None, False),
    ("valuation", "valuation_json", "valuation.write", None, False),
    ("uncertainty", "bootstrap_war", "uncertainty.bootstrap", _replicates, False),
    ("uncertainty", "WarDistribution.quantile_csv", "uncertainty.quantile_csv",
     None, False),
    ("uncertainty", "comparison_json", "uncertainty.compare", None, False),
]


def _wrap(tr, fn, name, hook, memory):
    def traced(*args, **kwargs):
        frame = tr.begin(name)
        measured = memory and tr.mem_begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            if measured:
                tr.mem_end(name)
            tr.end(frame)
        if inspect.isgenerator(result):
            return tr.traced_iter(name, result)
        if hook is not None:
            try:
                hook(tr, args, result)
            except (AttributeError, TypeError, ValueError) as exc:
                # a refactored return type loses the counter, not the run
                tr.hook_errors[name] = f"{type(exc).__name__}: {exc}"
        return result

    traced.__wrapped__ = fn
    return traced


def install(tr):
    """Wrap every target in place.  A function is rebound in every `openwar`
    module that imported it by name, because callers look it up there.
    Returns the targets that no longer exist, so a refactor shows as
    missing spans instead of a crash."""
    missing = []
    for module_name, attr, name, hook, memory in TARGETS:
        module = importlib.import_module(f"openwar.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, method, None)
        if fn is None:
            missing.append(f"openwar.{module_name}.{attr}")
            continue
        traced = _wrap(tr, fn, name, hook, memory)
        if owner_name:
            setattr(owner, method, traced)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "openwar" or mod_name.startswith("openwar.")) \
                    and getattr(mod, attr, None) is fn:
                setattr(mod, attr, traced)
    return missing


def conservation_residual(ledger):
    """Largest per-PA error of the offense (`delta`) and defense (`-delta`)
    reconstructions that README.md guarantees to 1e-10."""
    import numpy as np

    deltas = np.asarray(ledger.deltas, dtype=float)
    off, dfn = ledger.offense, ledger.defense
    br = np.array([sum(c.raa_br for c in credits)
                   for credits in off.runner_credits])
    offense = off.park_fit.fitted + off.position_fit.fitted + off.raa_hit + br
    field = np.zeros(len(deltas))
    for i, rows in zip(dfn.bip_indices, dfn.fielding_rows):
        field[i] = sum(r.raa_field + r.park_fitted for r in rows)
    defense = dfn.raa_pitch + dfn.pitch_fit.fitted + field
    return float(max(np.max(np.abs(offense - deltas)),
                     np.max(np.abs(defense + deltas))))


def main(argv):
    summary_path, spans_path, run_id, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY SPANS RUN_ID -- COMMAND...")
    tr = Tracer(run_id)
    root = tr.begin("cli")
    from openwar import cli

    missing = install(tr)
    try:
        code = cli.main(command)
    finally:
        root_duration = tr.end(root)
    post_start = time.perf_counter()
    summary = tr.summary(root_duration)
    summary["exit_code"] = code
    summary["missing_targets"] = missing
    ledger = tr.captured.get("ledger")
    if ledger is not None:
        try:
            summary["conservation_max_resid"] = conservation_residual(ledger)
        except (AttributeError, TypeError, ValueError) as exc:
            summary["conservation_error"] = f"{type(exc).__name__}: {exc}"
    tr.write_spans(spans_path)
    summary["post_s"] = time.perf_counter() - post_start
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
