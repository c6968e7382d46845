import os
import signal

import numpy as np
import pytest

from airpolicy import models
from airpolicy.dataset import (
    IDENTITY_SCALING,
    MEASURES,
    POLLUTANTS,
    CityDataset,
    periods_in_year,
)
from airpolicy.rng import SplitMix64


def make_city(name="city_x", year=2020, n_periods=None, seed=1,
              pollutants=POLLUTANTS, measure_fn=None, pollutant_fn=None):
    """Small fully-populated city dataset for unit tests; pollutants not in
    ``pollutants`` are absent (NaN) throughout.

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
        drawn = {(t, j): (0.02 + 0.01 * gen.uniform(), 0.001 + 0.001 * gen.uniform())
                 for t in range(n_periods) for j in range(len(POLLUTANTS))}
        pollutant_fn = lambda t, j: drawn[(t, j)]
    measures = np.empty((n_periods, len(MEASURES)))
    stats = np.full((n_periods, len(POLLUTANTS), 2), np.nan)
    for t in range(n_periods):
        measures[t] = [measure_fn(t, j) for j in range(len(MEASURES))]
        for j, p in enumerate(POLLUTANTS):
            if p in pollutants:
                stats[t, j] = pollutant_fn(t, j)
    return CityDataset(city_name=name, year=year, measures=measures, stats=stats)


@pytest.fixture
def no_child_left():
    """After the test, fail if a forked worker was left unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, instead of hanging, a test whose workers take over 60 s."""
    def expire(signum, frame):
        raise TimeoutError("workers still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return SplitMix64(20260822)


def random_series(gen, n, scale=1.0):
    return np.array(gen.normals(n)) * scale


def fit_arrays(spec, X, Y, scaling=IDENTITY_SCALING):
    """The model ``spec`` fits on one (X, Y) pair through ``models.fit``,
    with ``scaling`` as the scaling it was fitted in; a failed fit raises."""
    (model,) = models.fit(spec, [(X, Y)])
    if isinstance(model, Exception):
        raise model
    model.scaling = scaling
    return model
