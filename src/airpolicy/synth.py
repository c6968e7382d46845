"""Synthetic city generator for desk-scale, end-to-end verification.

Two profiles:

linear -- each pollutant's period mean follows one planted measure with a
one-period lag: mean(t) = base * (1 + slope * (m(t-1) - 0.5)) + eps, where
m is the measure's period intensity and eps is Gaussian with std
noise * 0.5 * |slope| * base. The next-period target is therefore an exact
linear function of the current features up to the noise, the planted
measure is the strongest correlate of its pollutant, and a linear model
recovers the map almost perfectly at 1% noise.

null -- pollutant means are independent noise around the base with no
coupling to any measure. The draws are independent across periods on
purpose: serially correlated noise would inflate spurious correlations
against the slowly varying measures, and independence keeps Var(r) near
1/n so pooled |r| stays small.

Measure series are random plateaus: each day the ordinal level rethinks
itself with probability 1/14, else holds. Generation is seeded through one
generator tree (city -> measures, then pollutants), so equal seeds give
identical files. Outputs use the exact ingestion formats, and the written
density CSV holds the same numbers the ingest route will produce, so the
pipeline sees the planted relationship undistorted.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass

import numpy as np

from .dataset import (
    DEFAULT_MAX_LEVEL,
    MEASURES,
    POLLUTANTS,
    MeasureKind,
    PollutantKind,
    period_start_date,
    periods_in_year,
    resample_to_periods,
    write_csv,
    write_json,
)
from .errors import DomainError
from .ingest import DensityGrid, grid_stats, write_grid
from .rng import SplitMix64

CITY_NAMES = ("city_a", "city_b", "city_c", "city_d")

# Planted couplings for the linear profile: pollutant -> (measure, slope).
PLANTED: dict[PollutantKind, tuple[MeasureKind, float]] = {
    PollutantKind.CO: (MeasureKind.C_WORKPLACE, 0.6),
    PollutantKind.O3: (MeasureKind.C_SCHOOL, 0.5),
    PollutantKind.NO2: (MeasureKind.STAY_HOME_R, -0.9),
    PollutantKind.SO2: (MeasureKind.RE_GAT, 0.7),
}

# Typical column-density magnitudes (mol/m²) per gas.
BASES: dict[PollutantKind, float] = {
    PollutantKind.CO: 0.035,
    PollutantKind.O3: 0.12,
    PollutantKind.NO2: 6e-5,
    PollutantKind.SO2: 4e-4,
}

STD_RATIO = 0.12          # per-period std is ~12% of the mean
STD_JITTER = 0.05         # relative spread of the std series
NULL_SPREAD = 0.05        # relative spread of null-profile means
CHANGE_PROB = 1.0 / 14.0  # daily probability that a measure level changes

DEFAULT_YEAR = 2020       # leap year: full 183-period calendar


@dataclass(frozen=True)
class SynthResult:
    out_dir: str
    config_path: str
    city_dirs: tuple[str, ...]


def _measure_levels(gen: SplitMix64, n_days: int) -> list[int]:
    level = gen.randint(DEFAULT_MAX_LEVEL + 1)
    out = [level]
    for _ in range(n_days - 1):
        if gen.uniform() < CHANGE_PROB:
            level = gen.randint(DEFAULT_MAX_LEVEL + 1)
        out.append(level)
    return out


def _period_intensity(levels: list[int], year: int) -> list[float]:
    start = dt.date(year, 1, 1)
    dates = [start + dt.timedelta(days=i) for i in range(len(levels))]
    daily = np.array(levels)[:, None] / DEFAULT_MAX_LEVEL
    return resample_to_periods(dates, daily, year)[:, 0].tolist()


def _pollutant_series(
    profile: str,
    base: float,
    slope: float,
    coupled: list[float],
    noise: float,
    gen_mean: SplitMix64,
    gen_std: SplitMix64,
    n_periods: int,
) -> tuple[list[float], list[float]]:
    means = []
    for t in range(n_periods):
        if profile == "linear":
            prev = coupled[t - 1] if t > 0 else 0.5
            eps = noise * 0.5 * abs(slope) * base * gen_mean.normal()
            means.append(base * (1.0 + slope * (prev - 0.5)) + eps)
        else:
            means.append(base * (1.0 + NULL_SPREAD * gen_mean.normal()))
    stds = [
        max(0.0, STD_RATIO * m * (1.0 + STD_JITTER * gen_std.normal()))
        for m in means
    ]
    return means, stds


def generate_city(
    seed_gen: SplitMix64,
    profile: str,
    year: int,
    noise: float,
) -> tuple[dict[MeasureKind, list[int]], dict[PollutantKind, tuple[list[float], list[float]]]]:
    """Daily measure levels plus per-period pollutant (means, stds) for one city.

    Draw order is fixed: one spawned generator per measure in canonical
    order, then two per pollutant (mean noise, std jitter) in canonical
    order, so output is a pure function of the incoming generator state.
    """
    n_days = (dt.date(year, 12, 31) - dt.date(year, 1, 1)).days + 1
    n_periods = periods_in_year(year)
    measure_gens = {m: seed_gen.spawn() for m in MEASURES}
    pollutant_gens = {p: (seed_gen.spawn(), seed_gen.spawn()) for p in POLLUTANTS}
    levels = {m: _measure_levels(measure_gens[m], n_days) for m in MEASURES}
    intensity = {m: _period_intensity(levels[m], year) for m in MEASURES}
    series = {}
    for p in POLLUTANTS:
        measure, slope = PLANTED[p]
        gm, gs = pollutant_gens[p]
        series[p] = _pollutant_series(
            profile, BASES[p], slope, intensity[measure], noise, gm, gs, n_periods
        )
    return levels, series


def _write_policy_csv(path: str, levels: dict[MeasureKind, list[int]], year: int) -> None:
    start = dt.date(year, 1, 1)
    n_days = len(next(iter(levels.values())))
    write_csv(path, [["date"] + [m.value for m in MEASURES]] + [
        [(start + dt.timedelta(days=i)).isoformat()] + [levels[m][i] for m in MEASURES]
        for i in range(n_days)
    ])


def _write_density_csv(
    path: str,
    series: dict[PollutantKind, tuple[list[float], list[float]]],
    year: int,
) -> None:
    rows = [["date", "pollutant", "mean", "std"]]
    for p in POLLUTANTS:
        means, stds = series[p]
        rows += [[period_start_date(year, t).isoformat(), p.value, means[t], stds[t]]
                 for t in range(periods_in_year(year))]
    write_csv(path, rows)


def _write_grids(
    city_dir: str,
    series: dict[PollutantKind, tuple[list[float], list[float]]],
    year: int,
) -> dict[PollutantKind, tuple[list[float], list[float]]]:
    """Two-pixel grids (mean ± std) per period; returns their exact grid_stats.

    The returned series replaces the requested one in the density CSV so the
    grid route and the CSV route stay byte-identical downstream.
    """
    realized: dict[PollutantKind, tuple[list[float], list[float]]] = {}
    n_periods = periods_in_year(year)
    for p in POLLUTANTS:
        means, stds = series[p]
        gdir = os.path.join(city_dir, "grids", p.value)
        os.makedirs(gdir, exist_ok=True)
        r_means, r_stds = [], []
        for t in range(n_periods):
            date = period_start_date(year, t)
            grid = DensityGrid(
                width=2, height=1,
                values=np.array([means[t] - stds[t], means[t] + stds[t]]),
                label=date.isoformat(),
            )
            write_grid(grid, os.path.join(gdir, f"{date.isoformat()}.csv"))
            m, s, _ = grid_stats(grid)
            r_means.append(m)
            r_stds.append(s)
        realized[p] = (r_means, r_stds)
    return realized


def generate(
    out_dir: str,
    profile: str = "linear",
    seed: int = 0,
    year: int = DEFAULT_YEAR,
    noise: float = 0.01,
    emit_grids: bool = False,
    n_cities: int = 4,
) -> SynthResult:
    """Write synthetic inputs plus a ready-to-run pipeline config.

    Per city: policy.csv (daily ordinals) and densities.csv (per-period
    stats); with emit_grids also per-period two-pixel grid files whose
    statistics the CSV then mirrors exactly. config.json points at the CSV
    route and carries the seed.
    """
    if profile not in ("linear", "null"):
        raise DomainError(f"unknown profile {profile!r}")
    if not (1 <= n_cities <= len(CITY_NAMES)):
        raise DomainError(f"n_cities must be 1..{len(CITY_NAMES)}")
    os.makedirs(out_dir, exist_ok=True)
    root = SplitMix64(seed)
    city_dirs = []
    cities_cfg = []
    for name in CITY_NAMES[:n_cities]:
        city_gen = root.spawn()
        levels, series = generate_city(city_gen, profile, year, noise)
        city_dir = os.path.join(out_dir, name)
        os.makedirs(city_dir, exist_ok=True)
        if emit_grids:
            series = _write_grids(city_dir, series, year)
        policy_path = os.path.join(city_dir, "policy.csv")
        density_path = os.path.join(city_dir, "densities.csv")
        _write_policy_csv(policy_path, levels, year)
        _write_density_csv(density_path, series, year)
        city_dirs.append(city_dir)
        cities_cfg.append({
            "name": name,
            "policy_csv": policy_path,
            "density_csv": density_path,
        })
    config = {
        "year": year,
        "cities": cities_cfg,
        "pollutants": [p.value for p in POLLUTANTS],
        "models": {"kinds": ["knn", "dtr", "rfr", "linreg", "ridge", "lasso",
                             "mgbr", "madab", "dnn"]},
        "split": {"mode": "chronological", "test_fraction": 0.2, "seed": seed},
        # Gas columns sit at wildly different magnitudes (NO2 ~6e-5 vs CO
        # ~3.5e-2); z-scoring keeps fixed-penalty kinds meaningful on all of
        # them.  Errors are still reported in original units.
        "scaling_mode": "z_score",
        "out_dir": os.path.join(out_dir, "out"),
        "seed": seed,
    }
    config_path = os.path.join(out_dir, "config.json")
    write_json(config_path, config)
    return SynthResult(
        out_dir=out_dir,
        config_path=config_path,
        city_dirs=tuple(city_dirs),
    )
