"""Write reference_seed17.json: the outputs of every workload at seed 17.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are the accepted ones; the
benchmark compares every repetition at seed 17 against this file.
"""

import json
import shutil
import tempfile
from pathlib import Path

import checks
import run


def main():
    reference = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        for w in run.WORKLOADS.values():
            inp = work / "season.csv"
            hashseed = run.hash_seed(run.REFERENCE_SEED)
            pas = run.plate_appearances(run.run_child(
                run.cli(*run.simulate_args(w, run.REFERENCE_SEED, inp)), work,
                hashseed))
            out = work / "out"
            child = run.run_child(run.cli(*w.argv(inp, out)), work, hashseed)
            problems, values = w.check(child.stdout, out, pas)
            if child.code or problems:
                raise SystemExit(f"{w.name}: exit {child.code}, {problems}")
            reference[w.name] = values
            shutil.rmtree(out, ignore_errors=True)
    # one player per line keeps the file small and its diffs readable
    blocks = []
    for name, table in sorted(reference.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(table.items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    checks.REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                                     encoding="utf-8")


if __name__ == "__main__":
    main()
