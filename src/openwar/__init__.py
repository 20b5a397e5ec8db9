"""openwar: conservation-of-runs player valuation for baseball play-by-play
data, with resampling-based interval estimates."""

__version__ = "0.1.0"
