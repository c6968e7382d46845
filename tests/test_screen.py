"""The screening table: per-city and pooled cells, partial-failure behavior,
and the CSV layout."""

import csv
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpolicy import similarity
from airpolicy.dataset import (
    MEASURES,
    POLLUTANTS,
    POOLED_SCOPE,
    CityDataset,
    MeasureKind,
    PollutantKind,
)
from airpolicy.errors import InsufficientDataError
from airpolicy.similarity import Band, screen_all, screen_many, write_screen_csv

from conftest import make_city


def planted_city(name="c1", n=40, seed=5):
    # CO tracks C_SCHOOL exactly; other pollutants stay noisy.
    def pollutant_fn_factory():
        from airpolicy.rng import SplitMix64
        gen = SplitMix64(seed + 1000)
        noise = {(t, j): gen.uniform() for t in range(n) for j in range(4)}

        def fn(t, j):
            return (0.01 + 0.02 * noise[(t, j)], 0.001)
        return fn

    base = make_city(name=name, n_periods=n, seed=seed,
                     pollutant_fn=pollutant_fn_factory())
    # Rebuild with CO mean = linear function of the C_SCHOOL intensity.
    stats = base.stats.copy()
    school = base.measures[:, MEASURES.index(MeasureKind.C_SCHOOL)]
    stats[:, POLLUTANTS.index(PollutantKind.CO)] = np.stack(
        [0.01 + 0.05 * school, np.full(n, 0.001)], axis=1)
    return CityDataset(city_name=name, year=base.year,
                       measures=base.measures.copy(), stats=stats)


def test_screen_all_layout_and_pooled_rows():
    cities = [planted_city("c1", seed=5), planted_city("c2", seed=9)]
    cells = screen_all(cities, PollutantKind.CO)
    # 8 measures x (2 cities + pooled)
    assert len(cells) == 24
    scopes = [c.city for c in cells[:3]]
    assert scopes == ["c1", "c2", POOLED_SCOPE]
    assert [c.measure for c in cells[::3]] == list(MEASURES)


def test_screen_finds_planted_relation():
    cities = [planted_city("c1", seed=5), planted_city("c2", seed=9)]
    cells = screen_all(cities, PollutantKind.CO)
    by_key = {(c.city, c.measure): c for c in cells}
    planted = by_key[(POOLED_SCOPE, MeasureKind.C_SCHOOL)]
    assert planted.r == pytest.approx(1.0, abs=1e-9)
    assert planted.band is Band.VERY_STRONG
    assert planted.error == ""
    # Pooled n sums the per-city lengths.
    assert planted.n == 80
    # An exactly tracking pair z-normalizes to a near-zero alignment cost.
    assert planted.dtw_distance == pytest.approx(0.0, abs=1e-7)


def test_screen_degenerate_measure_recorded_not_raised():
    city = make_city(n_periods=30, seed=3,
                     measure_fn=lambda t, j: 0.5 if j == 0 else (t % 5) / 5.0)
    cells = screen_all([city], PollutantKind.CO)
    flat = [c for c in cells if c.measure is MEASURES[0]]
    assert all(c.r is None and c.error for c in flat)
    assert all(c.band is None for c in flat)
    # The flat series still aligns; only the correlation is undefined.
    assert all(c.dtw_distance is not None for c in flat)
    others = [c for c in cells if c.measure is not MEASURES[0]]
    assert all(c.error == "" for c in others)


def test_screen_overflowed_alignment_is_a_failed_cell():
    # Squared costs of 1e200-scale differences overflow to inf.
    city = make_city(n_periods=20, seed=4,
                     pollutant_fn=lambda t, j: (1e200 * (1 + t % 3), 0.001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = screen_all([city], PollutantKind.CO, cost="squared", normalize=False)
    assert cells
    for c in cells:
        assert c.dtw_distance is None
        assert "alignment distance overflows" in c.error


def test_screen_all_requires_some_usable_city():
    city = make_city(n_periods=2)
    with pytest.raises(InsufficientDataError):
        screen_all([city], PollutantKind.CO)


def test_screen_csv_format(tmp_path):
    cells = screen_all([planted_city()], PollutantKind.CO)
    path = str(tmp_path / "screen.csv")
    write_screen_csv(cells, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["city", "measure", "pollutant", "r", "r2", "p",
                       "band", "dtw_distance", "n", "error"]
    assert len(rows) == 1 + len(cells)
    body = rows[1:]
    # Values round-trip through repr exactly.
    for row, cell in zip(body, cells):
        assert row[0] == cell.city
        assert row[1] == cell.measure.value
        assert row[2] == cell.pollutant.value
        if cell.r is not None:
            assert float(row[3]) == cell.r
            assert row[6] == cell.band.value
        assert int(row[8]) == cell.n
        assert row[9] == cell.error


def test_screen_csv_deterministic(tmp_path):
    cells = screen_all([planted_city()], PollutantKind.CO)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_screen_csv(cells, p1)
    write_screen_csv(cells, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def _gap_cities():
    # City b misses a run of O3, NO2 and SO2 periods and one period of measures;
    # measure 0 is flat in city a, so its correlation cells there fail.
    a = make_city("a", n_periods=30, seed=3)
    measures = a.measures.copy()
    measures[:, 0] = 0.5
    a = CityDataset(city_name="a", year=a.year, measures=measures, stats=a.stats.copy())
    b = make_city("b", n_periods=40, seed=4)
    measures, stats = b.measures.copy(), b.stats.copy()
    stats[5:12, 1:] = np.nan
    measures[20] = np.nan
    return [a, CityDataset(city_name="b", year=b.year, measures=measures, stats=stats)]


def test_screen_many_does_not_depend_on_jobs(deadline, no_child_left):
    cities = _gap_cities()
    pollutants = [PollutantKind.SO2, PollutantKind.CO, PollutantKind.O3, PollutantKind.NO2]
    serial = [c for p in pollutants for c in screen_all(cities, p, "squared", True, 5)]
    assert any(c.error for c in serial) and {c.n for c in serial} == {30, 32, 39, 62, 69}
    for jobs in (1, 2, 3, 8):
        assert screen_many(cities, pollutants, "squared", True, 5, jobs=jobs) == serial, jobs


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_screen_many_raises_the_first_rejected_pollutant(deadline, no_child_left, jobs):
    # At jobs=2, NO2 is in this process's share and O3 in the worker's; the
    # error is still O3's, the first in the caller's order.
    cities = [make_city("a", n_periods=20, pollutants=(PollutantKind.CO, PollutantKind.SO2))]
    with pytest.raises(InsufficientDataError, match="periods for O3$"):
        screen_many(cities, list(POLLUTANTS), jobs=jobs)


def test_screen_worker_killed_mid_run_raises_in_parent(monkeypatch, deadline, no_child_left):
    screen = similarity.screen_all

    def dies_on_o3(city_sets, pollutant, *args):
        if pollutant is PollutantKind.O3:
            os.kill(os.getpid(), signal.SIGKILL)
        return screen(city_sets, pollutant, *args)

    monkeypatch.setattr(similarity, "screen_all", dies_on_o3)
    # At jobs=2 the worker's share is O3 then SO2; it dies before either is sent.
    with pytest.raises(RuntimeError, match="^screen worker for O3, SO2 ended with 2 results unsent$"):
        screen_many([make_city("a", n_periods=20)], list(POLLUTANTS), jobs=2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(-900, 900))
def test_screen_cells_keep_their_bits_under_power_of_two_scaling(seed, k):
    city = make_city("a", n_periods=20, seed=seed % 1000)
    scaled = CityDataset(city_name="a", year=city.year, measures=city.measures.copy(),
                         stats=np.ldexp(city.stats, k))
    got = screen_all([scaled], PollutantKind.NO2, normalize=True)
    assert got == screen_all([city], PollutantKind.NO2, normalize=True)
    assert all(c.error == "" and np.isfinite(c.dtw_distance) for c in got)
