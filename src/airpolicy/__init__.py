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
from .similarity import Band, band_of, dtw, pearson, screen_all, screen_many

__version__ = "0.1.0"

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
