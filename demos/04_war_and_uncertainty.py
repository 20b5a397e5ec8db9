"""Full valuation: RAA, replacement level, WAR, and bootstrap intervals.

Run with:  python3 demos/04_war_and_uncertainty.py
"""

import warnings

import numpy as np

from openwar.pipeline import run_pipeline
from openwar.simulate import generate_synthetic_season
from openwar.uncertainty import DEFAULT_PROBS, bootstrap_war, compare_players

season = generate_synthetic_season(games=50, seed=17)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    # desk-scale league: 36 major-league position players, 12 pitchers
    result = run_pipeline(season, cutoff_pos=36, cutoff_pitch=12)

# one row per credited player, in player-id order
val = result.valuation
ids, war, raa, repl = val.player_ids, val.war, val.raa_total, val.raa_repl
pa, bf = val.counts[:, 0], val.counts[:, 3]  # hit and pitch events
leaders = np.argsort(-war, kind="stable")[:10]
print("WAR leaderboard")
print(f"{'player':<10}{'PA':>5}{'BF':>5}{'RAA':>8}{'repl':>8}"
      f"{'WAR':>7}  tier")
for j in leaders:
    tier = "replacement" if val.replacement[j] else "major_league"
    print(f"{ids[j]:<10}{pa[j]:>5}{bf[j]:>5}"
          f"{raa[j]:>8.2f}{repl[j]:>8.2f}{war[j]:>7.2f}  {tier}")

# Bootstrap: resample the season's plate appearances with replacement,
# carrying each PA's credits jointly, with all models frozen.  The
# distribution's players are the valuation's, in the same order: 500
# replicates from master seed 0.
dist = bootstrap_war(result.ledger.credits, val, 500, 0)
print("\n95% WAR intervals for the leaders")
lo = DEFAULT_PROBS.index(0.025)
hi = DEFAULT_PROBS.index(0.975)
for j in leaders[:5]:
    print(f"{ids[j]:<10} {war[j]:>6.2f}  "
          f"[{dist.quantiles[j, lo]:>6.2f}, {dist.quantiles[j, hi]:>6.2f}]")

a, b = ids[leaders[0]], ids[leaders[1]]
pr = compare_players(dist, a, b)
print(f"\nPr[{a} out-produced {b}] across replicates: {pr:.3f}")
