"""Domain types, the 2-day period calendar, and supervised-set assembly.

The year is split into 2-day periods counted from Jan 1: day-of-year d
belongs to period (d - 1) // 2, so a leap year has 183 periods and the last
period of a common year covers a single day. Feature vectors follow one
canonical layout everywhere: the 8 measure intensities in ``MEASURES``
order, then the pollutant mean, then its standard deviation.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DomainError, InsufficientDataError, MalformedInputError, ShapeError


class MeasureKind(enum.Enum):
    """Government response measures, ordinal stringency 0..max_level."""

    RE_IN_MOV = "RE_IN_MOV"
    IN_TR_CON = "IN_TR_CON"
    CA_PUB_EV = "CA_PUB_EV"
    RE_GAT = "RE_GAT"
    C_PUB_TRAN = "C_PUB_TRAN"
    C_SCHOOL = "C_SCHOOL"
    STAY_HOME_R = "STAY_HOME_R"
    C_WORKPLACE = "C_WORKPLACE"


class PollutantKind(enum.Enum):
    """Gases whose column densities (mol/m²) are screened and forecast."""

    CO = "CO"
    O3 = "O3"
    NO2 = "NO2"
    SO2 = "SO2"


# Canonical orders; feature-vector layout and every CSV column order follow these.
MEASURES: tuple[MeasureKind, ...] = tuple(MeasureKind)
POLLUTANTS: tuple[PollutantKind, ...] = tuple(PollutantKind)

# A policy CSV's column for each measure, unless a city's column_map says otherwise.
DEFAULT_COLUMN_MAP: dict[MeasureKind, str] = {m: m.value for m in MEASURES}

# The scope name of the cells that pool every city's periods.
POOLED_SCOPE = "pooled"

DEFAULT_MAX_LEVEL = 4
N_FEATURES = len(MEASURES) + 2
N_TARGETS = 2


def is_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_year(year: int) -> int:
    return 366 if is_leap_year(year) else 365


def periods_in_year(year: int) -> int:
    """Number of 2-day periods; 183 for both year lengths (the last may be short)."""
    return (days_in_year(year) + 1) // 2


def period_of_date(date: dt.date) -> int:
    """0-based period index of a calendar date within its own year."""
    return (date.toordinal() - dt.date(date.year, 1, 1).toordinal()) // 2


def period_start_date(year: int, period_index: int) -> dt.date:
    if period_index < 0 or period_index >= periods_in_year(year):
        raise DomainError(f"period index {period_index} outside year {year}")
    return dt.date(year, 1, 1) + dt.timedelta(days=2 * period_index)


@dataclass(frozen=True, eq=False)
class CityDataset:
    """One city-year as two arrays whose row t is period t.

    ``measures`` holds periods x 8 intensities in ``MEASURES`` order and
    ``stats`` periods x 4 x (mean, std) in ``POLLUTANTS`` order. NaN marks
    an absent entry: data gaps stay inside the arrays, and downstream
    consumers skip them rather than interpolate, so a fully ingested year
    always has 183 rows.
    """

    city_name: str
    year: int
    measures: np.ndarray
    stats: np.ndarray

    def __post_init__(self):
        if not self.city_name:
            raise DomainError("city_name must be non-empty")
        n = len(self.measures)
        if (self.measures.shape != (n, len(MEASURES))
                or self.stats.shape != (n, len(POLLUTANTS), 2)):
            raise ShapeError(f"measures {self.measures.shape} and stats "
                             f"{self.stats.shape} are not n x 8 and n x 4 x 2")
        if n > periods_in_year(self.year):
            raise DomainError(f"{n} periods outside year {self.year}")
        for kind, v in zip(MEASURES, self.measures.T):
            bad = v[~(np.isnan(v) | (v >= 0.0) & (v <= 1.0))]
            if bad.size:
                raise DomainError(f"intensity {float(bad[0])!r} for {kind.value} outside [0, 1]")
        for kind, (mean, std) in zip(POLLUTANTS, self.stats.transpose(1, 2, 0)):
            absent = np.isnan(mean)
            if (absent != np.isnan(std)).any():
                raise DomainError(f"{kind.value} mean and std must be present together")
            if np.isinf(mean).any():
                raise DomainError(f"non-finite mean for {kind.value}")
            bad = std[~(absent | (std >= 0.0) & (std < np.inf))]
            if bad.size:
                raise DomainError(f"invalid std {float(bad[0])!r} for {kind.value}")
        self.measures.setflags(write=False)
        self.stats.setflags(write=False)

    def __len__(self) -> int:
        return len(self.measures)

    def features(self, pollutant: PollutantKind) -> np.ndarray:
        """Periods x 10 input rows in the canonical layout, NaN where absent."""
        return np.hstack([self.measures, self.stats[:, POLLUTANTS.index(pollutant)]])


def resample_to_periods(dates, values: np.ndarray, year: int) -> np.ndarray:
    """Average dated rows into 2-day periods: every period mean of the package.

    ``values`` is len(dates) x k, one row per date and one column or
    several, NaN where an entry is absent. Returns periods x k, each cell the
    mean of its column's present entries dated in that period, added in
    input order, NaN where the period has none. A repeated date counts once
    per row. Every date must fall inside ``year``.
    """
    for date in dates:
        if date.year != year:
            raise DomainError(f"date {date} outside year {year}")
    periods = np.array([period_of_date(d) for d in dates], dtype=np.intp)
    n = periods_in_year(year)
    out = np.empty((n, values.shape[1]))
    for j, column in enumerate(values.T):
        present = ~np.isnan(column)
        total = np.bincount(periods[present], weights=column[present], minlength=n)
        with np.errstate(invalid="ignore"):
            out[:, j] = total / np.bincount(periods[present], minlength=n)
    return out


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

def feature_names(pollutant: PollutantKind) -> list[str]:
    names = [m.value for m in MEASURES]
    names.append(f"{pollutant.value}_mean")
    names.append(f"{pollutant.value}_std")
    return names


def target_names(pollutant: PollutantKind) -> list[str]:
    return [f"{pollutant.value}_mean_next", f"{pollutant.value}_std_next"]


def affine_fit(M: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (offset, scale) of the map v -> (v - offset) / scale.

    min_max gives (min, max - min); z_score gives (mean, population std).
    A constant column gets scale 0; each caller decides what that means.
    """
    if mode == "min_max":
        lo = M.min(axis=0)
        return lo, M.max(axis=0) - lo
    if mode == "z_score":
        return M.mean(axis=0), M.std(axis=0)
    raise DomainError(f"unknown scaling mode {mode!r}")


@dataclass(frozen=True)
class ScalingSpec:
    """Per-column affine transform v -> (v - offset) / scale for inputs and targets."""

    mode: str = "none"
    fitted: bool = False
    input_offset: tuple[float, ...] = ()
    input_scale: tuple[float, ...] = ()
    target_offset: tuple[float, ...] = ()
    target_scale: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in ("min_max", "z_score", "none"):
            raise DomainError(f"unknown scaling mode {self.mode!r}")
        if self.fitted:
            for s in (*self.input_scale, *self.target_scale):
                if not (s > 0.0) or not math.isfinite(s):
                    raise DomainError(f"scale entries must be positive, got {s!r}")

    def transform_inputs(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return (X - np.array(self.input_offset)) / np.array(self.input_scale)

    def transform_targets(self, Y: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return (Y - np.array(self.target_offset)) / np.array(self.target_scale)

    def invert_targets(self, Y: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return Y * np.array(self.target_scale) + np.array(self.target_offset)

    def _require_fitted(self):
        if not self.fitted:
            raise DomainError("scaling spec is not fitted")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingSpec":
        return cls(
            mode=d["mode"],
            fitted=d["fitted"],
            input_offset=tuple(d["input_offset"]),
            input_scale=tuple(d["input_scale"]),
            target_offset=tuple(d["target_offset"]),
            target_scale=tuple(d["target_scale"]),
        )


IDENTITY_SCALING = ScalingSpec(mode="none", fitted=False)


@dataclass(frozen=True)
class SupervisedSet:
    """Per-pollutant supervised matrix: 10 features now -> 2 targets next period."""

    pollutant: PollutantKind
    inputs: np.ndarray
    targets: np.ndarray
    row_provenance: tuple[tuple[str, int], ...]
    scaling: ScalingSpec = IDENTITY_SCALING

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[1] != N_FEATURES:
            raise ShapeError(f"inputs must be N x {N_FEATURES}, got {self.inputs.shape}")
        if self.targets.ndim != 2 or self.targets.shape[1] != N_TARGETS:
            raise ShapeError(f"targets must be N x {N_TARGETS}, got {self.targets.shape}")
        if not (self.inputs.shape[0] == self.targets.shape[0] == len(self.row_provenance)):
            raise ShapeError("inputs, targets and row_provenance row counts differ")
        if self.inputs.size and not np.isfinite(self.inputs).all():
            raise DomainError("non-finite value in inputs")
        if self.targets.size and not np.isfinite(self.targets).all():
            raise DomainError("non-finite value in targets")
        self.inputs.setflags(write=False)
        self.targets.setflags(write=False)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

def build_supervised(
    city_sets: list[CityDataset], pollutant: PollutantKind
) -> SupervisedSet:
    """Pair consecutive periods within each city into forecasting rows.

    Input row = 8 measures at t (canonical order) + pollutant mean and std
    at t; target = mean and std at t + 1. A pair contributes only when every
    constituent is present at both ends; incomplete pairs are dropped, never
    filled in. Cities never mix inside a pair.
    """
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    prov: list[tuple[str, int]] = []
    pollutant_seen = False
    for ds in city_sets:
        rows = ds.features(pollutant)
        present = ~np.isnan(rows)
        pollutant_seen = pollutant_seen or present[:, -1].any()
        t = np.flatnonzero(present[:-1].all(axis=1) & present[1:, -1])
        xs.append(rows[t])
        ys.append(rows[t + 1, -2:])
        prov.extend((ds.city_name, int(i)) for i in t)
    if not pollutant_seen:
        raise InsufficientDataError(f"pollutant {pollutant.value} absent from every period")
    return SupervisedSet(pollutant, np.concatenate(xs), np.concatenate(ys), tuple(prov))


def fit_scaling(sset: SupervisedSet, mode: str = "min_max") -> ScalingSpec:
    """Fit per-column affine scaling on a training set.

    min_max maps each column onto [0, 1]; z_score centers to zero mean and
    unit population std. A column that cannot be scaled (constant under
    min_max, zero variance under z_score, or an offset or scale that
    overflows float64) raises and names the offending column.
    """
    if sset.n < 2:
        raise InsufficientDataError(f"need at least 2 rows to fit scaling, got {sset.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        in_off, in_sc = affine_fit(sset.inputs, mode)
        tg_off, tg_sc = affine_fit(sset.targets, mode)
    names = feature_names(sset.pollutant) + target_names(sset.pollutant)
    for name, off, s in zip(names, [*in_off, *tg_off], [*in_sc, *tg_sc]):
        if not (math.isfinite(off) and math.isfinite(s)):
            raise DomainError(f"scaling column {name} overflows float64")
        if not (s > 0.0):
            raise DomainError(f"degenerate (constant) column: {name}")
    return ScalingSpec(
        mode=mode,
        fitted=True,
        input_offset=tuple(float(v) for v in in_off),
        input_scale=tuple(float(v) for v in in_sc),
        target_offset=tuple(float(v) for v in tg_off),
        target_scale=tuple(float(v) for v in tg_sc),
    )


def apply_scaling(sset: SupervisedSet, spec: ScalingSpec) -> SupervisedSet:
    """Return a copy of the set in scaled units, carrying the spec along."""
    return replace(
        sset,
        inputs=spec.transform_inputs(sset.inputs),
        targets=spec.transform_targets(sset.targets),
        scaling=spec,
    )


# ---------------------------------------------------------------------------
# Input and output files
# ---------------------------------------------------------------------------

def _utf8_text(path: str) -> io.StringIO:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedInputError(path, line, "bytes that are not UTF-8") from None


def read_csv_rows(path: str) -> list[tuple[int, list[str]]]:
    """(1-based line, cells) for every non-blank row of a UTF-8 CSV file.

    Undecodable bytes and rows the csv module rejects raise
    MalformedInputError naming the file and the line.
    """
    reader = csv.reader(_utf8_text(path))
    rows = []
    try:
        for row in reader:
            if row:
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise MalformedInputError(path, reader.line_num, exc) from None
    return rows


def _cell(v) -> str:
    # repr of a Python float is shortest-round-trip; always cast first, since
    # numpy scalars repr differently.
    if isinstance(v, float):
        return repr(float(v))
    return "" if v is None else str(v)


def write_csv(path: str, rows) -> None:
    """Write ``rows``, the header first, as CSV. A float cell is written
    shortest-round-trip, so a reload reproduces it bit for bit; ``None`` is
    an empty field and any other cell its ``str``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_cell(v) for v in row] for row in rows)


def write_json(path: str, doc) -> None:
    """Write ``doc`` as strict JSON, indented with sorted keys, and a final
    newline. The text is made before the file is opened, so a NaN, an
    infinity or a value JSON cannot hold raises and leaves ``path`` as it was."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def parse_date(text: str) -> dt.date:
    """An ISO date cell; the ValueError of a bad one names the cell."""
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"bad date {text!r}") from None


# ---------------------------------------------------------------------------
# City CSV serialization
# ---------------------------------------------------------------------------

def _city_header() -> list[str]:
    cols = ["period_index", "start_date"]
    cols.extend(m.value for m in MEASURES)
    for p in POLLUTANTS:
        cols.append(f"{p.value}_mean")
        cols.append(f"{p.value}_std")
    return cols


def write_city_csv(ds: CityDataset, path: str) -> None:
    """Write one city to CSV, row t being period t; absent measure or
    pollutant entries become empty fields.

    Name the file ``<city_name>.csv``: read_city_csv takes the name from
    the file name and the year from row 0's start date.
    """
    rows = [_city_header()]
    values = np.hstack([ds.measures, ds.stats.reshape(len(ds), -1)]).tolist()
    for t, row in enumerate(values):
        rows.append([t, period_start_date(ds.year, t).isoformat()]
                    + [None if math.isnan(v) else v for v in row])
    write_csv(path, rows)


def _city_value(cell: str) -> float:
    """A city-file cell: empty is absent (NaN), anything else a finite number."""
    if cell == "":
        return math.nan
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {cell!r}")
    return v


def read_city_csv(path: str) -> CityDataset:
    """Reload a city written by write_city_csv, named by its file name
    without ``.csv``.

    Row t must be period t with its start date, from period 0 on, so row 0
    starts on 1 January of the city's year; a cell is empty or a finite
    number, and a mean or std without its partner reads as absent.
    """
    rows = read_csv_rows(path)
    expected = _city_header()
    header = rows[0][1] if rows else []
    if header != expected:
        missing = sorted([c for c in expected if c not in header] or expected)
        raise MalformedInputError(path, None, f"missing columns: {', '.join(missing)}")
    if len(rows) == 1:
        raise MalformedInputError(path, None, "no periods")
    values = np.empty((len(rows) - 1, len(expected) - 2))
    for t, (line, row) in enumerate(rows[1:]):
        if len(row) != len(expected):
            raise MalformedInputError(path, line, f"{len(row)} cells, header has {len(expected)}")
        try:
            if int(row[0]) != t:
                raise ValueError(f"period {row[0]} where period {t} belongs")
            start = parse_date(row[1])
            if t == 0:
                year = start.year
            if start != period_start_date(year, t):
                raise ValueError(f"start date {row[1]} is not that of period {t}")
            values[t] = [_city_value(cell) for cell in row[2:]]
        except ValueError as exc:
            raise MalformedInputError(path, line, exc) from None
    stats = values[:, len(MEASURES):].reshape(len(values), len(POLLUTANTS), 2)
    stats[np.isnan(stats).any(axis=2)] = math.nan
    try:
        return CityDataset(
            city_name=os.path.basename(path).removesuffix(".csv"),
            year=year,
            measures=values[:, :len(MEASURES)],
            stats=stats,
        )
    except DomainError as exc:
        raise MalformedInputError(path, None, exc) from None
