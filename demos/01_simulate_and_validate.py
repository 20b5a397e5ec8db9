"""Generate a synthetic season, round-trip it through CSV, and validate it.

Run with:  python3 demos/01_simulate_and_validate.py
"""

from openwar.events import parse_season, serialize_season
from openwar.simulate import generate_synthetic_season

# Identical (games, seed) pairs always produce byte-identical seasons.
season = generate_synthetic_season(games=20, seed=42)
print(f"generated {len(season)} plate appearances "
      f"across {len(season.park_ids)} parks, {len(season.player_ids)} players")

# Serialize to the flat CSV schema and parse it back.
text = serialize_season(season)
print(f"CSV payload: {len(text.splitlines()) - 1} rows, "
      f"header {text.splitlines()[0][:60]}...")

parsed, report = parse_season(text, "strict")
assert serialize_season(parsed) == text
print(f"round trip ok: {len(parsed)} records, "
      f"{report.dropped} dropped, {len(report.warnings)} warnings")
