"""Correctness checks applied to every repetition of a benchmark workload.

Each check reads what the `openwar` command printed and wrote, and returns
a list of problems (empty when the repetition is correct) plus the values
that the reference comparison needs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

#: league RAA must sum to zero (README conservation guarantee)
RAA_SUM_TOL = 1e-6
#: per-PA offense/defense reconstruction of delta (README guarantee)
CONSERVATION_TOL = 1e-10
#: largest per-player WAR change, in wins, that still matches the reference
#: season; see perfbench/README.md for why 0.05 wins
WAR_TOL = 0.05
#: the same bound for every bootstrap quantile of every player
QUANTILE_TOL = 0.05

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed17.json"


def _rows(path):
    """CSV rows as dicts, skipping the `# config:` provenance line."""
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def digest(stdout, out_dir):
    """Hash of the command's standard output and every artifact it wrote."""
    h = hashlib.sha256(stdout.encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_war(stdout, out_dir, pas):
    rows = _rows(out_dir / "valuation.csv")
    problems = []
    total = math.fsum(float(r["raa"]) for r in rows)
    if not abs(total) <= RAA_SUM_TOL:
        problems.append(f"league RAA sums to {total!r}, not 0 within {RAA_SUM_TOL}")
    hits = sum(int(r["PA"]) for r in rows)
    if hits != pas:
        problems.append(f"valuation counts {hits} plate appearances, input has {pas}")
    return problems, {r["player_id"]: [float(r["war"])] for r in rows}


def check_boot(stdout, out_dir, pas):
    rows = _rows(out_dir / "war_quantiles.csv")
    problems = []
    table = {}
    for r in rows:
        qs = [float(v) for k, v in r.items() if k.startswith("q")]
        if any(b < a for a, b in zip(qs, qs[1:])) or not qs:
            problems.append(f"quantiles of {r['player_id']} are not monotone")
        table[r["player_id"]] = qs
    for pair in json.loads((out_dir / "comparisons.json").read_text()):
        if not 0.0 <= pair["pr_a_exceeds_b"] <= 1.0:
            problems.append(f"comparison probability out of range: {pair}")
    return problems, table


def check_validate(stdout, out_dir, pas):
    lines = stdout.splitlines()
    problems = []
    if f"records: {pas}" not in lines:
        problems.append(f"validate did not report records: {pas}")
    if "dropped: 0" not in lines:
        problems.append("validate reported dropped records")
    if not lines or lines[-1] != "ok":
        problems.append("validate did not end with ok")
    return problems, {"records": [float(pas)]}


def load_reference(workload):
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def max_deviation(values, reference):
    """Largest absolute difference between two {key: [numbers]} tables; any
    key or length mismatch is an infinite deviation."""
    if values.keys() != reference.keys():
        return math.inf
    dev = 0.0
    for key, ref in reference.items():
        got = values[key]
        if len(got) != len(ref):
            return math.inf
        dev = max([dev] + [abs(a - b) for a, b in zip(got, ref)])
    return dev
