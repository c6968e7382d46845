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
    DEFAULT_MAX_LEVEL,
    group_by_period,
    normalize_measure,
    parse_date,
    periods_in_year,
    read_csv_rows,
    read_meta,
    resample_to_periods,
    write_csv,
    write_json,
)
from .errors import (
    AmbiguousInputError,
    DomainError,
    EmptyInputError,
    MalformedInputError,
    NoValidPixelsError,
    SchemaError,
)


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
        raise NoValidPixelsError(f"grid {grid.label!r} has no valid pixels")
    return vals


def grid_stats(grid: DensityGrid) -> tuple[float, float, float]:
    """(mean, population std, valid_fraction) over non-nodata pixels."""
    vals = _valid_values(grid)
    return float(vals.mean()), float(vals.std()), vals.size / grid.values.size


def aggregate_stat_periods(
    entries: list[tuple[dt.date, float, float]], year: int
) -> list[tuple[int, float, float]]:
    """Average per-date (mean, std) rows into 2-day periods.

    Multiple rows in one period contribute the average of their means and
    the average of their stds; periods with no row are omitted.
    """
    return [
        (p, sum(float(m) for _, m, _ in rows) / len(rows),
         sum(float(s) for _, _, s in rows) / len(rows))
        for p, rows in group_by_period(entries, year)
    ]


def aggregate_periods(
    grids: list[tuple[dt.date, DensityGrid]],
    year: int,
    mode: str = "per_grid",
) -> list[tuple[int, float, float]]:
    """Reduce dated grids to per-period (mean, std).

    per_grid (default): each grid is reduced with grid_stats first, then
    statistics are averaged within the period, which is robust to grids with
    differing valid-pixel counts. pooled_pixels: all valid pixels of a
    period's grids are pooled and the statistics recomputed over the pool.
    """
    if mode == "per_grid":
        entries = []
        for date, grid in grids:
            mean, std, _ = grid_stats(grid)
            entries.append((date, mean, std))
        return aggregate_stat_periods(entries, year)
    if mode != "pooled_pixels":
        raise DomainError(f"unknown aggregation mode {mode!r}")
    out = []
    for p, rows in group_by_period(grids, year):
        pool = np.concatenate([_valid_values(grid) for _, grid in rows])
        out.append((p, float(pool.mean()), float(pool.std())))
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
    return DensityGrid(values=np.array(values, dtype=np.float64), **meta)


# ---------------------------------------------------------------------------
# Policy tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyTable:
    """Per-date raw ordinal levels for the 8 measures; cells may be missing."""

    rows: tuple[tuple[dt.date, dict[MeasureKind, int]], ...]

    def __post_init__(self):
        prev = None
        for date, _ in self.rows:
            if prev is not None and date <= prev:
                raise AmbiguousInputError(f"dates not strictly increasing at {date}")
            prev = date

    def daily_series(
        self, measure: MeasureKind, max_level: int = DEFAULT_MAX_LEVEL, year: int | None = None
    ) -> list[tuple[dt.date, float]]:
        """Normalized [0,1] intensities for one measure, skipping missing cells."""
        out = []
        for date, cells in self.rows:
            if year is not None and date.year != year:
                continue
            if measure in cells:
                out.append((date, normalize_measure(cells[measure], max_level)))
        return out


def _read_table(path: str, required) -> list[tuple[int, dict[str, str]]]:
    """(line, column -> cell) for each data row of a CSV file with a header.

    Cells missing from a short row read as blank.
    """
    rows = read_csv_rows(path)
    if not rows:
        raise EmptyInputError(f"{path} is empty")
    header = rows[0][1]
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(missing, path=path)
    return [(line, dict(zip(header, row + [""] * len(header)))) for line, row in rows[1:]]


def parse_policy_csv(
    path: str,
    column_map: dict[MeasureKind, str],
    date_column: str = "date",
) -> PolicyTable:
    """Read a per-date ordinal table from a tracker-style CSV export.

    Blank or unparseable ordinal cells become missing cells, never level 0
    (0 is a real level meaning no measure). Rows are sorted by date.
    """
    parsed: list[tuple[dt.date, dict[MeasureKind, int]]] = []
    for line, raw in _read_table(path, (date_column, *column_map.values())):
        try:
            date = parse_date(raw[date_column])
        except ValueError as exc:
            raise MalformedInputError(path, line, exc) from None
        cells: dict[MeasureKind, int] = {}
        for measure, col in column_map.items():
            try:
                cells[measure] = int(raw[col].strip())
            except ValueError:
                continue
        parsed.append((date, cells))
    if not parsed:
        raise EmptyInputError(f"{path} has a header but no data rows")
    parsed.sort(key=lambda item: item[0])
    for (a, _), (b, _) in zip(parsed, parsed[1:]):
        if a == b:
            raise AmbiguousInputError(f"duplicate date {a} in {path}")
    return PolicyTable(rows=tuple(parsed))


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
    densities: dict[PollutantKind, list[tuple[int, float, float]]],
    max_levels: dict[MeasureKind, int] | None = None,
) -> CityDataset:
    """Assemble a full-calendar CityDataset from parsed inputs.

    ``densities`` maps each pollutant to per-period (index, mean, std) rows
    as produced by aggregate_periods. Policy rows outside the target year
    are ignored. Every calendar period becomes a row; data gaps stay as
    NaN entries.
    """
    max_levels = max_levels or {}
    n_periods = periods_in_year(year)
    measures = np.full((n_periods, len(MEASURES)), np.nan)
    for j, m in enumerate(MEASURES):
        daily = policy.daily_series(m, max_levels.get(m, DEFAULT_MAX_LEVEL), year=year)
        for p, v in resample_to_periods(daily, year):
            measures[p, j] = v
    stats = np.full((n_periods, len(POLLUTANTS), 2), np.nan)
    for pollutant, rows in densities.items():
        column = stats[:, POLLUTANTS.index(pollutant)]
        for p, mean, std in rows:
            if p < 0 or p >= n_periods:
                raise DomainError(f"period {p} outside year {year}")
            if not np.isnan(column[p]).all():
                raise AmbiguousInputError(f"duplicate period {p} for {pollutant.value}")
            column[p] = mean, std
    return CityDataset(
        city_name=city_name,
        year=year,
        measures=measures,
        stats=stats,
    )
