"""Policy-intensity vs pollutant-concentration screening and forecasting."""

from .dataset import (
    MEASURES,
    N_FEATURES,
    N_TARGETS,
    POLLUTANTS,
    CityDataset,
    MeasureKind,
    PollutantKind,
    build_supervised,
    periods_in_year,
    resample_to_periods,
)
from .errors import AirPolicyError

__version__ = "0.1.0"

# Loaded on first access: similarity brings the DTW kernels and the worker
# helper, which the ingest and predict commands never run.
_SIMILARITY = ("Band", "band_of", "dtw", "pearson", "screen_all", "screen_many")


def __getattr__(name: str):
    if name in _SIMILARITY:
        from . import similarity
        return getattr(similarity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AirPolicyError",
    "Band",
    "CityDataset",
    "MEASURES",
    "MeasureKind",
    "N_FEATURES",
    "N_TARGETS",
    "POLLUTANTS",
    "PollutantKind",
    "band_of",
    "build_supervised",
    "dtw",
    "pearson",
    "periods_in_year",
    "resample_to_periods",
    "screen_all",
    "screen_many",
    "__version__",
]
