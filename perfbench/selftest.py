"""Smoke test of the benchmark itself, at tiny sizes, in about a minute.

    python3 perfbench/selftest.py

For every workload it makes one timed and one traced run on a few dozen
games and checks that the runner reports every metric that BENCHMARK.json
names, and that the traced self times add up to the root span.  It then
corrupts the valuation written by `openwar war` after each repetition and
checks that the gate counts every such repetition as failed.  Failures
the gate finds in the program's own outputs are printed, not fatal: they
are the benchmark's findings.  Exits non-zero when the benchmark itself
misbehaves.
"""

from __future__ import annotations

import json
import sys

import run

SMOKE_GAMES = {"war-400g": 40, "boot-100g": 20, "validate-2430g": 60}


def corrupt_valuation(child, out):
    """Add one run to the first player's RAA, breaking conservation."""
    path = out / "valuation.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[header].rstrip("\n").split(",")
    row = lines[header + 1].rstrip("\n").split(",")
    k = cols.index("raa")
    row[k] = repr(float(row[k]) + 1.0)
    lines[header + 1] = ",".join(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [m[:3] for m in run.PER_LAYER],
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for name, w in run.WORKLOADS.items():
        for trace in (0, 1):
            result, notes, problems = run.run(w, 17, 0, trace,
                                              games=SMOKE_GAMES[name])
            metrics = {k: m["unit"] for k, m in result["metrics"].items()}
            wanted = end_to_end if not trace else {m[0]: m[1] for m in run.PER_LAYER}
            expect(metrics == wanted, f"{name} trace={trace}: metric set differs")
            expect(result["attempted"] >= (2 if trace else w.reps),
                   f"{name} trace={trace}: {result['attempted']} repetitions")
            values = {k: m["value"] for k, m in result["metrics"].items()}
            if not trace:
                expect(all(v > 0 for v in values.values()),
                       f"{name}: an end-to-end metric is not positive")
            else:
                layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
                root = values["trace.wall_s"] - values["trace.write_s"] \
                    - values["trace.unattributed_s"]
                expect(abs(layers + values["trace.tracemalloc_s"] - root) < 1e-6,
                       f"{name}: layer self times do not add up to the root span")
            print(f"{name} trace={trace}:")
            for line in notes[1:] + [f"program check failed: {p}" for p in problems]:
                print(f"  {line}")

    result, _, problems = run.run(run.WORKLOADS["war-400g"], 17, 0, 0,
                                  games=SMOKE_GAMES["war-400g"],
                                  tamper=corrupt_valuation)
    caught = [p for p in problems if "league RAA sums to" in p]
    print(f"corrupted war output: fail_rate {result['failed']}/{result['attempted']}, "
          f"{len(caught)} repetitions caught by the conservation check")
    expect(result["failed"] == result["attempted"] == len(caught) > 0,
           "the gate did not fail every corrupted repetition")
    expect(not result["correct"], "corrupted output reported as correct")

    for e in errors:
        print(f"SELFTEST ERROR: {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
