"""Split each plate appearance's run value among every player involved.

The offensive chain peels park/platoon context, expected advancement,
and position effects off the raw run value; the defensive chain divides
the mirror image between the pitcher and the nine fielders.  Every
resulting credit is one row of the ledger's credit table.

Run with:  python3 demos/03_apportionment.py
"""

import numpy as np

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

# Walk through one ball in play end to end.
i = next(i for i in ledger.defense.bip_indices if abs(ledger.deltas[i]) > 0.3)
pa = season.record(i)  # the row view of plate appearance i
print(f"\nexample: {pa.event_type} by {pa.batter_id} off {pa.pitcher_id} "
      f"(delta {ledger.deltas[i]:+.3f})")
print("  offense:")
print(f"    park/platoon context   {off.park_fit.fitted[i]:+.3f}")
print(f"    position adjustment    {off.position_fit.fitted[i]:+.3f}")
print(f"    hitting RAA            {off.raa_hit[i]:+.3f}")
for c in off.runner_credits[i]:
    where = "batter" if c.start_base == 0 else f"runner on {c.start_base}"
    print(f"    baserunning ({where:<11}) {c.raa_br:+.3f} "
          f"(kappa {c.kappa:.2f})")
print("  defense:")
print(f"    out probability p-hat  {dfn.p_hat[i]:.3f}")
print(f"    pitcher RAA            {dfn.raa_pitch[i]:+.3f}")
rows = dict(zip(dfn.bip_indices, dfn.fielding_rows)).get(i, ())
for row in sorted(rows, key=lambda r: -abs(r.raa_field))[:3]:
    print(f"    fielder {row.position:<3} share {row.share:.2f}  "
          f"RAA {row.raa_field:+.3f}")

# The per-play identity that makes the system zero-sum:
br = sum(c.raa_br for c in off.runner_credits[i])
field = sum(r.raa_field + r.park_fitted for r in rows)
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
