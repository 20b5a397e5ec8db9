"""Estimate the 24-state run expectancy matrix and score plate appearances.

Run with:  python3 demos/02_run_expectancy.py
"""

import numpy as np

from openwar.run_expectancy import estimate_matrix, run_value
from openwar.simulate import generate_synthetic_season

season = generate_synthetic_season(games=60, seed=7)
matrix = estimate_matrix(season)

print("run expectancy rho(outs, bases) -- bases as a 3-bit occupancy mask")
print(f"{'bases':>6} | {'0 outs':>8} {'1 out':>8} {'2 outs':>8}")
for bases in range(8):
    row = " ".join(f"{matrix.rho[(outs, bases)]:8.3f}" for outs in range(3))
    label = "".join(str(b + 1) if bases >> b & 1 else "-" for b in range(3))
    print(f"{label:>6} | {row}")

# The run value of a plate appearance is the change in expectancy plus
# the runs that scored on the play (RE24).
print("\nfirst few plate appearances of the season:")
for pa in map(season.record, range(8)):
    print(f"  {pa.event_type:<18} ({pa.start_state.outs} out, "
          f"mask {pa.start_state.bases}) -> delta "
          f"{run_value(pa, matrix):+.3f} ({pa.runs_scored} scored)")

# Within a completed half-inning the deltas telescope: their sum equals
# the runs scored minus the expectancy of the leadoff state.
# (the season's columns give where the first half-inning ends)
end = np.flatnonzero((season.inning != season.inning[0])
                     | (season.half != season.half[0]))[0]
group = [season.record(i) for i in range(end)]
total = sum(run_value(pa, matrix) for pa in group)
runs = sum(pa.runs_scored for pa in group)
print(f"\nfirst half-inning: {runs} runs; sum of deltas = {total:.6f}; "
      f"runs - rho(0,empty) = {runs - matrix.rho[(0, 0)]:.6f}")
