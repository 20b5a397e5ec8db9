"""openwar: conservation-of-runs player valuation for baseball play-by-play
data, with resampling-based interval estimates."""

__version__ = "0.1.0"

from .events import (
    BALL_IN_PLAY,
    EVENT_TYPES,
    SeasonDataset,
    parse_season,
    serialize_season,
)
from .pipeline import PipelineResult, SeasonLedger, build_ledger, run_pipeline
from .run_expectancy import RunExpectancyMatrix, estimate_matrix, run_value
from .simulate import generate_synthetic_season
from .uncertainty import bootstrap_war, compare_players
from .valuation import (
    Valuation,
    build_replacement_pool,
    runs_per_win,
    tabulate_raa,
    value_players,
)

__all__ = [
    "BALL_IN_PLAY",
    "EVENT_TYPES",
    "SeasonDataset",
    "parse_season",
    "serialize_season",
    "PipelineResult",
    "SeasonLedger",
    "build_ledger",
    "run_pipeline",
    "RunExpectancyMatrix",
    "estimate_matrix",
    "run_value",
    "generate_synthetic_season",
    "bootstrap_war",
    "compare_players",
    "Valuation",
    "build_replacement_pool",
    "runs_per_win",
    "tabulate_raa",
    "value_players",
]
