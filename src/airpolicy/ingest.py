"""Policy-table parsing and density-grid aggregation into period statistics.

Two input routes produce identical downstream data: per-date density grids
(one CSV file each, a height x width array of pixel values with NaN where a
pixel has no data) reduced here with grid_stats, or a pre-aggregated CSV
that already lists per-date (mean, std) rows. Statistics use population std
throughout.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    MEASURES,
    POLLUTANTS,
    CityDataset,
    MeasureKind,
    PollutantKind,
    parse_date,
    period_of_date,
    periods_in_year,
    read_csv_rows,
    resample_to_periods,
    write_csv,
)
from .errors import DomainError, InsufficientDataError, MalformedInputError


def grid_stats(grid: np.ndarray) -> tuple[float, float]:
    """(mean, population std) over the grid's non-NaN pixels."""
    vals = grid[~np.isnan(grid)]
    if vals.size == 0:
        raise InsufficientDataError("grid has no valid pixels")
    return float(vals.mean()), float(vals.std())


def aggregate_stat_periods(
    entries: list[tuple[dt.date, float, float]], year: int
) -> np.ndarray:
    """Average per-date (date, mean, std) rows into 2-day periods.

    Returns periods x (mean, std): a period with several rows gets the
    average of their means and the average of their stds, a period with no
    row NaN.
    """
    stats = np.array([(m, s) for _, m, s in entries], dtype=np.float64).reshape(-1, 2)
    return resample_to_periods([date for date, _, _ in entries], stats, year)


def aggregate_periods(
    grids: list[tuple[dt.date, np.ndarray]],
    year: int,
    mode: str = "per_grid",
) -> np.ndarray:
    """Reduce dated grids to periods x (mean, std), NaN where no grid.

    per_grid (default): each grid is reduced with grid_stats first, then
    statistics are averaged within the period, which is robust to grids with
    differing valid-pixel counts. pooled_pixels: all valid pixels of a
    period's grids are pooled and the statistics recomputed over the pool.
    A grid (per_grid) or a period's pool (pooled_pixels) without a valid
    pixel raises InsufficientDataError.
    """
    if mode == "per_grid":
        return aggregate_stat_periods(
            [(date, *grid_stats(grid)) for date, grid in grids], year)
    if mode != "pooled_pixels":
        raise DomainError(f"unknown aggregation mode {mode!r}")
    pools: dict[int, list[np.ndarray]] = {}
    for date, grid in grids:
        if date.year != year:
            raise DomainError(f"date {date} outside year {year}")
        pools.setdefault(period_of_date(date), []).append(grid.ravel())
    out = np.full((periods_in_year(year), 2), np.nan)
    for p, values in pools.items():
        out[p] = grid_stats(np.concatenate(values))
    return out


# ---------------------------------------------------------------------------
# Grid files
# ---------------------------------------------------------------------------

def write_grid(grid: np.ndarray, path: str) -> None:
    """Write a height x width grid as CSV, one line per grid row."""
    write_csv(path, grid.tolist())


def read_grid(path: str) -> np.ndarray:
    """A grid file as a height x width float64 array, NaN where a pixel has
    no data.

    A cell that is not a float or is infinite, a row whose length differs
    from the first row's, and a grid without a finite pixel raise
    MalformedInputError naming the file.
    """
    rows: list[list[float]] = []
    for line, row in read_csv_rows(path):
        try:
            values = [float(c) for c in row]
        except ValueError as exc:
            raise MalformedInputError(path, line, exc) from None
        if rows and len(values) != len(rows[0]):
            raise MalformedInputError(
                path, line, f"{len(values)} cells, first row has {len(rows[0])}")
        if any(math.isinf(v) for v in values):
            raise MalformedInputError(path, line, "infinite value")
        rows.append(values)
    grid = np.array(rows, dtype=np.float64)
    if np.isnan(grid).all():
        raise MalformedInputError(path, None, "no valid pixels")
    return grid


# ---------------------------------------------------------------------------
# Policy tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyTable:
    """One city's policy rows dated in the target year.

    ``dates`` are distinct and ascending; ``levels`` holds dates x 8 in
    ``MEASURES`` order, each level over its measure's max level (so in
    [0, 1]), NaN for a missing cell.
    """

    dates: list[dt.date]
    levels: np.ndarray


def _read_table(path: str, required) -> list[tuple[int, dict[str, str]]]:
    """(line, column -> cell) for each data row of a CSV file with a header.

    Cells missing from a short row read as blank; a row longer than the
    header names its file and line.
    """
    rows = read_csv_rows(path)
    if not rows:
        raise MalformedInputError(path, None, "empty file")
    header = rows[0][1]
    missing = [c for c in required if c not in header]
    if missing:
        raise MalformedInputError(path, None, f"missing columns: {', '.join(sorted(missing))}")
    for line, row in rows[1:]:
        if len(row) > len(header):
            raise MalformedInputError(path, line, f"{len(row)} cells, header has {len(header)}")
    return [(line, dict(zip(header, row + [""] * len(header)))) for line, row in rows[1:]]


def parse_policy_csv(
    path: str,
    column_map: dict[MeasureKind, str],
    year: int,
    max_levels: dict[MeasureKind, int],
    date_column: str = "date",
) -> PolicyTable:
    """Read the rows dated in ``year`` of a tracker-style CSV export.

    Blank or unparseable ordinal cells become missing cells, never level 0
    (0 is a real level meaning no measure). A level outside [0, max level]
    names the file and line. Every row's date must parse and occur once;
    rows of other years are otherwise skipped. Rows are sorted by date.
    """
    seen: set[dt.date] = set()
    rows: list[tuple[dt.date, list[float]]] = []
    for line, raw in _read_table(path, (date_column, *column_map.values())):
        try:
            date = parse_date(raw[date_column])
        except ValueError as exc:
            raise MalformedInputError(path, line, exc) from None
        if date in seen:
            raise MalformedInputError(path, line, f"duplicate date {date}")
        seen.add(date)
        if date.year != year:
            continue
        levels = [math.nan] * len(MEASURES)
        for measure, col in column_map.items():
            try:
                level = int(raw[col].strip())
            except ValueError:
                continue
            top = max_levels[measure]
            if not 0 <= level <= top:
                raise MalformedInputError(
                    path, line, f"{col}: ordinal level {level} outside [0, {top}]")
            levels[MEASURES.index(measure)] = level / top
        rows.append((date, levels))
    if not seen:
        raise MalformedInputError(path, None, "a header but no data rows")
    rows.sort(key=lambda item: item[0])
    return PolicyTable(dates=[date for date, _ in rows],
                       levels=np.array([v for _, v in rows]).reshape(-1, len(MEASURES)))


# ---------------------------------------------------------------------------
# City assembly
# ---------------------------------------------------------------------------

def parse_density_csv(path: str) -> dict[PollutantKind, list[tuple[dt.date, float, float]]]:
    """Read pre-aggregated per-date density stats: date,pollutant,mean,std.

    A mean must be finite, a std finite and non-negative.
    """
    out: dict[PollutantKind, list[tuple[dt.date, float, float]]] = {}
    for line, raw in _read_table(path, ("date", "pollutant", "mean", "std")):
        try:
            pollutant = PollutantKind(raw["pollutant"].strip())
            entry = (parse_date(raw["date"]), float(raw["mean"]), float(raw["std"]))
        except ValueError as exc:
            raise MalformedInputError(path, line, exc) from None
        if not math.isfinite(entry[1]):
            raise MalformedInputError(path, line, f"mean {entry[1]!r} is not a finite number")
        if not (math.isfinite(entry[2]) and entry[2] >= 0.0):
            raise MalformedInputError(path, line, f"std {entry[2]!r} is not a finite number >= 0")
        out.setdefault(pollutant, []).append(entry)
    return out


def build_city_dataset(
    city_name: str,
    year: int,
    policy: PolicyTable,
    densities: dict[PollutantKind, np.ndarray],
) -> CityDataset:
    """Assemble a full-calendar CityDataset from parsed inputs.

    ``densities`` maps each pollutant to its periods x (mean, std) array as
    produced by aggregate_periods. Every calendar period becomes a row;
    data gaps stay as NaN entries.
    """
    stats = np.full((periods_in_year(year), len(POLLUTANTS), 2), np.nan)
    for pollutant, column in densities.items():
        stats[:, POLLUTANTS.index(pollutant)] = column
    return CityDataset(
        city_name=city_name,
        year=year,
        measures=resample_to_periods(policy.dates, policy.levels, year),
        stats=stats,
    )
