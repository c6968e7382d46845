"""The screening table: per-city and pooled cells, partial-failure behavior,
and the CSV layout."""

import csv
import warnings

import numpy as np
import pytest

from airpolicy.dataset import MEASURES, POLLUTANTS, CityDataset, MeasureKind, PollutantKind
from airpolicy.errors import InsufficientDataError
from airpolicy.similarity import POOLED_SCOPE, Band, screen_all, write_screen_csv

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
                       "band", "dtw_distance", "n"]
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


def test_screen_csv_deterministic(tmp_path):
    cells = screen_all([planted_city()], PollutantKind.CO)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_screen_csv(cells, p1)
    write_screen_csv(cells, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
