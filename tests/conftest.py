import os

import numpy as np
import pytest

from airpolicy.dataset import (
    MEASURES,
    POLLUTANTS,
    CityDataset,
    PeriodRecord,
    period_start_date,
    periods_in_year,
)
from airpolicy.rng import SplitMix64


def make_city(name="city_x", year=2020, n_periods=None, seed=1,
              pollutants=POLLUTANTS, measure_fn=None, pollutant_fn=None):
    """Small fully-populated city dataset for unit tests.

    measure_fn(t, measure_index) -> intensity in [0, 1]
    pollutant_fn(t, pollutant_index) -> (mean, std)
    """
    if n_periods is None:
        n_periods = periods_in_year(year)
    gen = SplitMix64(seed)
    if measure_fn is None:
        vals = {(t, j): round(gen.uniform() * 8) / 8
                for t in range(n_periods) for j in range(len(MEASURES))}
        measure_fn = lambda t, j: vals[(t, j)]
    if pollutant_fn is None:
        stats = {(t, j): (0.02 + 0.01 * gen.uniform(), 0.001 + 0.001 * gen.uniform())
                 for t in range(n_periods) for j in range(len(POLLUTANTS))}
        pollutant_fn = lambda t, j: stats[(t, j)]
    records = []
    for t in range(n_periods):
        measures = {m: measure_fn(t, j) for j, m in enumerate(MEASURES)}
        pstats = {p: pollutant_fn(t, j) for j, p in enumerate(POLLUTANTS)
                  if p in pollutants}
        records.append(PeriodRecord(period_index=t,
                                    start_date=period_start_date(year, t),
                                    measures=measures,
                                    pollutant_stats=pstats))
    return CityDataset(city_name=name, year=year, records=tuple(records))


def record(year, t, measures=None, pollutant_stats=None):
    return PeriodRecord(period_index=t, start_date=period_start_date(year, t),
                        measures=measures or {},
                        pollutant_stats=pollutant_stats or {})


@pytest.fixture
def no_child_left():
    """After the test, fail if a forked benchmark worker was left unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return SplitMix64(20260822)


def random_series(gen, n, scale=1.0):
    return np.array(gen.normals(n)) * scale
