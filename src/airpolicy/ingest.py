"""Policy-table parsing and density-grid aggregation into period statistics.

Two input routes produce identical downstream data: per-date density grids
(a CSV body of row-major pixel values plus a JSON metadata sidecar) reduced
here with grid_stats, or a pre-aggregated CSV that already lists per-date
(mean, std) rows. Statistics use population std throughout.
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
    read_meta,
    resample_to_periods,
    write_csv,
    write_json,
)
from .errors import DomainError, InsufficientDataError, MalformedInputError


@dataclass(frozen=True)
class DensityGrid:
    """One gridded snapshot of a pollutant's column density (mol/m²).

    ``values`` is row-major with ``width * height`` entries; cells equal to
    ``nodata`` (NaN by default, compared via isnan) carry no observation.
    """

    width: int
    height: int
    values: np.ndarray
    label: str = ""
    nodata: float = float("nan")

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.values.shape != (self.width * self.height,):
            raise DomainError(
                f"values length {self.values.shape} != width*height = {self.width * self.height}"
            )
        mask = self.valid_mask()
        if not np.isfinite(self.values[mask]).all():
            raise DomainError("non-finite value outside nodata cells")
        self.values.setflags(write=False)

    def valid_mask(self) -> np.ndarray:
        if math.isnan(self.nodata):
            return ~np.isnan(self.values)
        return self.values != self.nodata


def _valid_values(grid: DensityGrid) -> np.ndarray:
    vals = grid.values[grid.valid_mask()]
    if vals.size == 0:
        raise InsufficientDataError(f"grid {grid.label!r} has no valid pixels")
    return vals


def grid_stats(grid: DensityGrid) -> tuple[float, float, float]:
    """(mean, population std, valid_fraction) over non-nodata pixels."""
    vals = _valid_values(grid)
    return float(vals.mean()), float(vals.std()), vals.size / grid.values.size


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
    grids: list[tuple[dt.date, DensityGrid]],
    year: int,
    mode: str = "per_grid",
) -> np.ndarray:
    """Reduce dated grids to periods x (mean, std), NaN where no grid.

    per_grid (default): each grid is reduced with grid_stats first, then
    statistics are averaged within the period, which is robust to grids with
    differing valid-pixel counts. pooled_pixels: all valid pixels of a
    period's grids are pooled and the statistics recomputed over the pool.
    """
    if mode == "per_grid":
        return aggregate_stat_periods(
            [(date, *grid_stats(grid)[:2]) for date, grid in grids], year)
    if mode != "pooled_pixels":
        raise DomainError(f"unknown aggregation mode {mode!r}")
    pools: dict[int, list[np.ndarray]] = {}
    for date, grid in grids:
        if date.year != year:
            raise DomainError(f"date {date} outside year {year}")
        pools.setdefault(period_of_date(date), []).append(_valid_values(grid))
    out = np.full((periods_in_year(year), 2), np.nan)
    for p, values in pools.items():
        pool = np.concatenate(values)
        out[p] = pool.mean(), pool.std()
    return out


# ---------------------------------------------------------------------------
# Grid file IO: CSV body + JSON sidecar
# ---------------------------------------------------------------------------

def _grid_meta_path(path: str) -> str:
    return path + ".meta.json"


def write_grid(grid: DensityGrid, path: str) -> None:
    """Write the pixel body as CSV (one line per grid row) plus a sidecar."""
    write_csv(path, grid.values.reshape(grid.height, grid.width).tolist())
    write_json(_grid_meta_path(path), {
        "width": grid.width,
        "height": grid.height,
        "label": grid.label,
        "nodata": float(grid.nodata),
    })


def read_grid(path: str) -> DensityGrid:
    """Read a grid file and its sidecar; a grid that DensityGrid rejects or
    without a valid pixel raises MalformedInputError naming the file."""
    meta = read_meta(_grid_meta_path(path), {
        "width": int,
        "height": int,
        "label": str,
        "nodata": float,
    })
    values: list[float] = []
    for line, row in read_csv_rows(path):
        try:
            values.extend([float(c) for c in row])
        except ValueError as exc:
            raise MalformedInputError(path, line, exc) from None
    try:
        grid = DensityGrid(values=np.array(values, dtype=np.float64), **meta)
    except DomainError as exc:
        raise MalformedInputError(path, None, exc) from None
    if not grid.valid_mask().any():
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

    Cells missing from a short row read as blank.
    """
    rows = read_csv_rows(path)
    if not rows:
        raise MalformedInputError(path, None, "empty file")
    header = rows[0][1]
    missing = [c for c in required if c not in header]
    if missing:
        raise MalformedInputError(path, None, f"missing columns: {', '.join(sorted(missing))}")
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
