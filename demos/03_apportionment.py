"""Split each plate appearance's run value among every player involved.

The offensive chain peels park/platoon context, expected advancement,
and position effects off the raw run value; the defensive chain divides
the mirror image between the pitcher and the nine fielders.  Every
resulting credit is one row of the ledger's credit table.

Run with:  python3 demos/03_apportionment.py
"""

import numpy as np

from openwar.events import FIELDING_POSITIONS
from openwar.pipeline import build_ledger
from openwar.simulate import generate_synthetic_season
from openwar.valuation import COMPONENTS

season = generate_synthetic_season(games=50, seed=3)
ledger = build_ledger(season)
off, dfn, credits = ledger.offense, ledger.defense, ledger.credits

print(f"{len(ledger)} plate appearances scored and apportioned into "
      f"{len(credits.value)} credits for {len(credits.player_ids)} players")

# Conservation: everything handed out sums to zero across the league.
total = credits.value.sum()
print(f"league total RAA = {total:.2e} "
      f"(scale: sum |delta| = {np.abs(ledger.deltas).sum():.1f})")

# Walk through one ball in play end to end: the k-th ball in play is
# plate appearance i, and row k of the fielding arrays.
k = next(k for k, i in enumerate(dfn.bip_indices)
         if abs(ledger.deltas[i]) > 0.3)
i = dfn.bip_indices[k]
pa = season.record(i)  # the CSV fields of plate appearance i, as a dict
print(f"\nexample: {pa['event_type']} by {pa['batter_id']} off "
      f"{pa['pitcher_id']} (delta {ledger.deltas[i]:+.3f})")
print("  offense:")
print(f"    park/platoon context   {off.park_fit.fitted[i]:+.3f}")
print(f"    position adjustment    {off.position_fit.fitted[i]:+.3f}")
print(f"    hitting RAA            {off.raa_hit[i]:+.3f}")
# raa_br and kappa columns: the runners on 1B, 2B, 3B, then the batter
runners = [pa["runner1_id"], pa["runner2_id"], pa["runner3_id"],
           pa["batter_id"]]
for slot, runner in enumerate(runners):
    if runner:  # "" where the base was empty
        where = "batter" if slot == 3 else f"runner on {slot + 1}"
        print(f"    baserunning ({where:<11}) {off.raa_br[i, slot]:+.3f} "
              f"(kappa {off.kappa[i, slot]:.2f})")
print("  defense:")
# the out probability at the landing spot, read off the smoothed surface
p_hat = dfn.surface.evaluate_binned(season.bip_x[[i]], season.bip_y[[i]])[0]
print(f"    out probability p-hat  {p_hat:.3f}")
print(f"    pitcher RAA            {dfn.raa_pitch[i]:+.3f}")
park = dfn.fielding_park_fit
raa_field = park.residuals.reshape(-1, 9)[k]
for j in np.argsort(-np.abs(raa_field), kind="stable")[:3]:
    print(f"    fielder {FIELDING_POSITIONS[j]:<3} share {dfn.shares[k, j]:.2f}  "
          f"RAA {raa_field[j]:+.3f}")

# The per-play identity that makes the system zero-sum:
br = off.raa_br[i].sum()
field = raa_field.sum() + park.fitted.reshape(-1, 9)[k].sum()
offense = off.park_fit.fitted[i] + off.position_fit.fitted[i] \
    + off.raa_hit[i] + br
defense = dfn.raa_pitch[i] + dfn.pitch_fit.fitted[i] + field
print(f"\n  offense side reconstructs delta:  {offense:+.6f}")
print(f"  defense side reconstructs -delta: {defense:+.6f}")

# The same play as rows of the credit table, which feeds both the
# valuation and the bootstrap: a resampled PA carries all of its rows.
print("\n  credit table rows of this play:")
for r in np.flatnonzero(credits.pa == i):
    print(f"    {credits.player_ids[credits.player[r]]:<8} "
          f"{COMPONENTS[credits.component[r]]:<5} {credits.value[r]:+.3f}")
