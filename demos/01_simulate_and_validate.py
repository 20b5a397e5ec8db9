"""Generate a synthetic season, round-trip it through CSV, and validate it.

Run with:  python3 demos/01_simulate_and_validate.py
"""

from openwar.events import aggregate_team_totals, parse_season, serialize_season
from openwar.simulate import generate_synthetic_season

# Identical (games, seed) pairs always produce byte-identical seasons.
season = generate_synthetic_season(games=20, seed=42)
print(f"generated {len(season)} plate appearances "
      f"across {len(season.parks)} parks, roster of {len(season.roster)}")

# Serialize to the flat CSV schema and parse it back.
text = serialize_season(season)
print(f"CSV payload: {len(text.splitlines()) - 1} rows, "
      f"header {text.splitlines()[0][:60]}...")

parsed, report = parse_season(text, "strict")
assert serialize_season(parsed) == text
print(f"round trip ok: {len(parsed)} records, "
      f"{report.dropped} dropped, {len(report.warnings)} warnings")

# Counting stats by team, derived from the game-id naming convention.
print("\nteam totals:")
print(f"{'team':<6}{'G':>4}{'PA':>6}{'AB':>6}{'R':>5}{'H':>5}"
      f"{'HR':>4}{'BB':>4}{'K':>5}")
for team, t in aggregate_team_totals(season).items():
    print(f"{team:<6}{t['G']:>4}{t['PA']:>6}{t['AB']:>6}{t['R']:>5}"
          f"{t['H']:>5}{t['HR']:>4}{t['BB']:>4}{t['K']:>5}")
