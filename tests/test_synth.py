"""Synthetic generator: formats, determinism, and planted structure."""

import filecmp
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpolicy.config import load_config
from airpolicy.dataset import DEFAULT_MAX_LEVEL, MEASURES, POLLUTANTS, periods_in_year
from airpolicy.errors import DomainError
from airpolicy.ingest import (
    aggregate_stat_periods,
    build_city_dataset,
    parse_density_csv,
    parse_policy_csv,
)
from airpolicy.rng import SplitMix64
from airpolicy.similarity import pearson
from airpolicy.synth import CHANGE_PROB, PLANTED, _measure_levels, generate


MAX_LEVELS = {m: DEFAULT_MAX_LEVEL for m in MEASURES}


def ingest_city(city_cfg, year):
    table = parse_policy_csv(city_cfg.policy_csv, city_cfg.column_map, year, MAX_LEVELS,
                             date_column=city_cfg.date_column)
    raw = parse_density_csv(city_cfg.density_csv)
    densities = {p: aggregate_stat_periods(rows, year) for p, rows in raw.items()}
    return build_city_dataset(city_cfg.name, year, table, densities)


def test_generate_layout_and_config(tmp_path):
    res = generate(str(tmp_path), profile="linear", seed=3, n_cities=2)
    assert res.out_dir == str(tmp_path)
    assert len(res.city_dirs) == 2
    for d in res.city_dirs:
        assert os.path.isfile(os.path.join(d, "policy.csv"))
        assert os.path.isfile(os.path.join(d, "densities.csv"))
    cfg = load_config(res.config_path)
    assert cfg.year == 2020 and cfg.echo()["seed"] == 3
    assert [c.name for c in cfg.cities] == ["city_a", "city_b"]
    assert all(c.density_csv is not None for c in cfg.cities)
    with open(res.config_path) as fh:
        raw = json.load(fh)
    assert raw["models"]["kinds"][0] == "knn" and len(raw["models"]["kinds"]) == 9


def test_generated_city_ingests_to_full_calendar(tmp_path):
    res = generate(str(tmp_path), seed=1, n_cities=1)
    cfg = load_config(res.config_path)
    ds = ingest_city(cfg.cities[0], cfg.year)
    assert len(ds) == periods_in_year(2020) == 183
    assert not np.isnan(ds.measures).any()
    assert not np.isnan(ds.stats).any()
    # Ordinal levels over max level 4 land on multiples of 1/4,
    # and period averaging of two days can halve that.
    assert ((ds.measures >= 0.0) & (ds.measures <= 1.0)).all()
    np.testing.assert_allclose(ds.measures * 8, np.round(ds.measures * 8), rtol=0, atol=1e-12)
    assert (ds.stats[:, :, 1] >= 0.0).all()


def test_same_seed_same_bytes(tmp_path):
    a = generate(str(tmp_path / "a"), profile="linear", seed=7, n_cities=2)
    b = generate(str(tmp_path / "b"), profile="linear", seed=7, n_cities=2)
    for da, db in zip(a.city_dirs, b.city_dirs):
        for fname in ("policy.csv", "densities.csv"):
            assert filecmp.cmp(os.path.join(da, fname),
                               os.path.join(db, fname), shallow=False)
    c = generate(str(tmp_path / "c"), profile="linear", seed=8, n_cities=2)
    assert not filecmp.cmp(os.path.join(a.city_dirs[0], "densities.csv"),
                           os.path.join(c.city_dirs[0], "densities.csv"),
                           shallow=False)


def tree_sha256(root):
    """sha256 over every file under ``root`` but config.json (which holds
    absolute paths): each relative path, then its bytes, in path order."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/")
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        if rel != "config.json":
            with open(os.path.join(root, rel), "rb") as fh:
                h.update(rel.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("kwargs, digest", [
    ({}, "fd89aa6e3b955f11106e5a4847e3ca96b34fbe27e16ab4fe42215f1c9c2d62c8"),
    ({"emit_grids": True, "n_cities": 1},
     "a97f422140c5e32a1f69df0eb58aaca2cafc11dcdaa6d3430cfbc3394cd9b5d1"),
    ({"profile": "null"},
     "b7aa84d6781201643420e6026c517b6264027b885dbbd089f8c55962bfec519c"),
    ({"year": 2021},
     "2c2249aaf493de717f03cd1e02757ba12dbee4c471ba953a60e2be0aee912dd0"),
    ({"seed": 7, "n_cities": 2},
     "1f6956ae0e33eeeb84570438ddf96bdebf724b96c2a83b0b514f8c720be7b980"),
], ids=["csv", "grids", "null", "common-year", "seed-7"])
def test_seed_0_input_bytes_match_golden_digest(tmp_path, kwargs, digest):
    """The policy, density and grid files of seed 0 (seed 7 in one case),
    pinned across rewrites of their writers and their draws. The null
    profile, a 365-day year (whose last period is one day) and another seed
    reach draws the default run does not."""
    generate(str(tmp_path), **{"seed": 0, **kwargs})
    assert tree_sha256(str(tmp_path)) == digest


def pooled_r(ds_list, measure, pollutant):
    x = np.concatenate([ds.measures[:, MEASURES.index(measure)] for ds in ds_list])
    y = np.concatenate([ds.stats[:, POLLUTANTS.index(pollutant), 0] for ds in ds_list])
    both = ~(np.isnan(x) | np.isnan(y))
    return pearson(x[both], y[both]).r


def test_linear_profile_plants_detectable_couplings(tmp_path):
    res = generate(str(tmp_path), profile="linear", seed=5, noise=0.01)
    cfg = load_config(res.config_path)
    ds_list = [ingest_city(c, cfg.year) for c in cfg.cities]
    for pollutant, (measure, slope) in PLANTED.items():
        r = pooled_r(ds_list, measure, pollutant)
        # Couplings are lagged one period, so same-period r is attenuated
        # but must stay dominant and carry the planted sign.
        assert abs(r) > 0.6
        assert np.sign(r) == np.sign(slope)
        others = [abs(pooled_r(ds_list, m, pollutant))
                  for m in MEASURES if m is not measure]
        assert abs(r) > max(others) + 0.2


def test_null_profile_has_no_couplings(tmp_path):
    res = generate(str(tmp_path), profile="null", seed=5)
    cfg = load_config(res.config_path)
    ds_list = [ingest_city(c, cfg.year) for c in cfg.cities]
    for pollutant in POLLUTANTS:
        for measure in MEASURES:
            assert abs(pooled_r(ds_list, measure, pollutant)) < 0.25


def test_emit_grids_route_matches_csv_route(tmp_path):
    res = generate(str(tmp_path), seed=2, n_cities=1, emit_grids=True)
    cfg = load_config(res.config_path)
    city = cfg.cities[0]
    csv_ds = ingest_city(city, cfg.year)
    # Rebuild the same city from the emitted grid files instead.
    from airpolicy.ingest import aggregate_periods, read_grid

    grids_root = os.path.join(res.city_dirs[0], "grids")
    table = parse_policy_csv(city.policy_csv, city.column_map, cfg.year, MAX_LEVELS)
    import datetime as dt
    densities = {}
    for p in POLLUTANTS:
        pdir = os.path.join(grids_root, p.value)
        entries = []
        for fname in sorted(os.listdir(pdir)):
            if not fname.endswith(".csv"):
                continue
            date = dt.date.fromisoformat(fname[:-4])
            entries.append((date, read_grid(os.path.join(pdir, fname))))
        densities[p] = aggregate_periods(entries, cfg.year, mode="per_grid")
    grid_ds = build_city_dataset(city.name, cfg.year, table, densities)
    assert len(grid_ds) == len(csv_ds)
    assert np.array_equal(grid_ds.measures, csv_ds.measures, equal_nan=True)
    # The density CSV holds the realized grid statistics verbatim.
    assert not np.isnan(grid_ds.stats).any()
    assert np.array_equal(grid_ds.stats, csv_ds.stats)


def test_generate_rejects_bad_arguments(tmp_path):
    out = tmp_path / "out"
    bad = [{"profile": "lorenz"}, {"n_cities": 0}, {"n_cities": 99},
           {"noise": float("nan")}, {"noise": float("inf")},
           {"noise": float("-inf")}, {"noise": -1.0}]
    for kwargs in bad:
        with pytest.raises(DomainError):
            generate(str(out), **kwargs)
        assert not out.exists()


def scalar_measure_levels(gen, n_days):
    """The day loop _measure_levels must reproduce: one draw at a time."""
    level = gen.randint(DEFAULT_MAX_LEVEL + 1)
    out = [level]
    for _ in range(n_days - 1):
        if gen.uniform() < CHANGE_PROB:
            level = gen.randint(DEFAULT_MAX_LEVEL + 1)
        out.append(level)
    return out


@pytest.mark.parametrize("n_days", [1, 2, 365, 366])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_measure_levels_equal_the_scalar_day_loop(n_days, seed):
    got = _measure_levels(SplitMix64(seed), n_days)
    assert got == scalar_measure_levels(SplitMix64(seed), n_days)
    assert all(type(v) is int for v in got)


def test_common_year_calendar(tmp_path):
    res = generate(str(tmp_path), seed=4, year=2021, n_cities=1)
    cfg = load_config(res.config_path)
    assert cfg.year == 2021
    ds = ingest_city(cfg.cities[0], 2021)
    assert len(ds) == 183
    # Final period of a 365-day year covers a single day, and has data.
    assert not np.isnan(ds.measures[182]).any()
