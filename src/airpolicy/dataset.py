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
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AmbiguousInputError,
    DegenerateColumnError,
    DomainError,
    EmptyDatasetError,
    InsufficientDataError,
    OrdinalRangeError,
    SchemaError,
    ShapeError,
)


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

DEFAULT_MAX_LEVEL = 4
N_FEATURES = len(MEASURES) + 2
N_TARGETS = 2


def normalize_measure(raw_level: int, max_level: int = DEFAULT_MAX_LEVEL) -> float:
    """Map an ordinal stringency level onto [0, 1] as raw_level / max_level."""
    if max_level < 1:
        raise DomainError(f"max_level must be >= 1, got {max_level}")
    if raw_level < 0 or raw_level > max_level:
        raise OrdinalRangeError(
            f"ordinal level {raw_level} outside [0, {max_level}]"
        )
    return raw_level / max_level


def is_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_year(year: int) -> int:
    return 366 if is_leap_year(year) else 365


def periods_in_year(year: int) -> int:
    """Number of 2-day periods; 183 for both year lengths (the last may be short)."""
    return (days_in_year(year) + 1) // 2


def period_of_date(date: dt.date) -> int:
    """0-based period index of a calendar date within its own year."""
    return (date.timetuple().tm_yday - 1) // 2


def period_start_date(year: int, period_index: int) -> dt.date:
    if period_index < 0 or period_index >= periods_in_year(year):
        raise DomainError(f"period index {period_index} outside year {year}")
    return dt.date(year, 1, 1) + dt.timedelta(days=2 * period_index)


@dataclass(frozen=True)
class PeriodRecord:
    """One 2-day period: measure intensities plus per-pollutant (mean, std).

    Both maps may be partial; a missing entry means the underlying data was
    absent for the period, and downstream consumers skip rather than
    interpolate. Intensities must lie in [0, 1]; stds must be >= 0; all
    values must be finite.
    """

    period_index: int
    start_date: dt.date
    measures: dict[MeasureKind, float] = field(default_factory=dict)
    pollutant_stats: dict[PollutantKind, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.period_index < 0:
            raise DomainError(f"negative period index {self.period_index}")
        for kind, v in self.measures.items():
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise DomainError(f"intensity {v!r} for {kind.value} outside [0, 1]")
        for kind, (mean, std) in self.pollutant_stats.items():
            if not math.isfinite(mean):
                raise DomainError(f"non-finite mean for {kind.value}")
            if not math.isfinite(std) or std < 0.0:
                raise DomainError(f"invalid std {std!r} for {kind.value}")

    def has_all_measures(self) -> bool:
        return len(self.measures) == len(MEASURES)

    def has_pollutant(self, pollutant: PollutantKind) -> bool:
        return pollutant in self.pollutant_stats


@dataclass(frozen=True)
class CityDataset:
    """Ordered, gap-free run of PeriodRecords for one city-year.

    Missing data appears as absent map entries inside records, never as
    absent records, so a fully ingested leap year always has 183 records.
    ``center`` is (longitude, latitude) in degrees; the analysis box is the
    square of half-width ``box_half_width`` degrees around it (side = twice
    the half-width).
    """

    city_name: str
    year: int
    records: tuple[PeriodRecord, ...]
    center: tuple[float, float] = (0.0, 0.0)
    box_half_width: float = 0.25

    def __post_init__(self):
        if not self.city_name:
            raise DomainError("city_name must be non-empty")
        n_periods = periods_in_year(self.year)
        prev = None
        for rec in self.records:
            if rec.period_index >= n_periods:
                raise DomainError(
                    f"period {rec.period_index} outside year {self.year}"
                )
            if prev is not None and rec.period_index != prev + 1:
                raise DomainError(
                    f"records not consecutive: {prev} then {rec.period_index}"
                )
            expected = period_start_date(self.year, rec.period_index)
            if rec.start_date != expected:
                raise DomainError(
                    f"period {rec.period_index} start {rec.start_date} != {expected}"
                )
            prev = rec.period_index

    def __len__(self) -> int:
        return len(self.records)

    def measure_series(self, measure: MeasureKind) -> tuple[np.ndarray, np.ndarray]:
        """(period indices, intensities) over records where the measure is present."""
        idx = [r.period_index for r in self.records if measure in r.measures]
        val = [r.measures[measure] for r in self.records if measure in r.measures]
        return np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64)

    def pollutant_series(self, pollutant: PollutantKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(period indices, means, stds) over records where the pollutant is present."""
        recs = [r for r in self.records if pollutant in r.pollutant_stats]
        idx = np.array([r.period_index for r in recs], dtype=np.int64)
        mean = np.array([r.pollutant_stats[pollutant][0] for r in recs], dtype=np.float64)
        std = np.array([r.pollutant_stats[pollutant][1] for r in recs], dtype=np.float64)
        return idx, mean, std


def resample_to_periods(
    daily: list[tuple[dt.date, float]], year: int
) -> list[tuple[int, float]]:
    """Average a daily series into 2-day periods.

    Each period's value is the arithmetic mean of the days actually present
    in it (one present day stands alone); periods with no present day are
    omitted. Dates must fall inside ``year`` and repeat nowhere.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    seen: set[dt.date] = set()
    for date, value in daily:
        if date.year != year:
            raise DomainError(f"date {date} outside year {year}")
        if date in seen:
            raise AmbiguousInputError(f"duplicate date {date}")
        seen.add(date)
        p = period_of_date(date)
        sums[p] = sums.get(p, 0.0) + float(value)
        counts[p] = counts.get(p, 0) + 1
    return [(p, sums[p] / counts[p]) for p in sorted(sums)]


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


def feature_row(rec: PeriodRecord, pollutant: PollutantKind) -> list[float] | None:
    """One input row in the canonical layout, or None if any feature is absent."""
    if not (rec.has_all_measures() and rec.has_pollutant(pollutant)):
        return None
    return [rec.measures[m] for m in MEASURES] + list(rec.pollutant_stats[pollutant])


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

    def invert_inputs(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return X * np.array(self.input_scale) + np.array(self.input_offset)

    def invert_targets(self, Y: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return Y * np.array(self.target_scale) + np.array(self.target_offset)

    def _require_fitted(self):
        if not self.fitted:
            raise DomainError("scaling spec is not fitted")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "fitted": self.fitted,
            "input_offset": list(self.input_offset),
            "input_scale": list(self.input_scale),
            "target_offset": list(self.target_offset),
            "target_scale": list(self.target_scale),
        }

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

    def to_json(self) -> str:
        # Python float repr is shortest-round-trip, so json preserves doubles exactly.
        return json.dumps(
            {
                "pollutant": self.pollutant.value,
                "inputs": [[float(v) for v in row] for row in self.inputs],
                "targets": [[float(v) for v in row] for row in self.targets],
                "row_provenance": [[c, int(p)] for c, p in self.row_provenance],
                "scaling": self.scaling.to_dict(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SupervisedSet":
        d = json.loads(text)
        return cls(
            pollutant=PollutantKind(d["pollutant"]),
            inputs=np.array(d["inputs"], dtype=np.float64).reshape(-1, N_FEATURES),
            targets=np.array(d["targets"], dtype=np.float64).reshape(-1, N_TARGETS),
            row_provenance=tuple((c, int(p)) for c, p in d["row_provenance"]),
            scaling=ScalingSpec.from_dict(d["scaling"]),
        )


def build_supervised(
    city_sets: list[CityDataset], pollutant: PollutantKind
) -> SupervisedSet:
    """Pair consecutive periods within each city into forecasting rows.

    Input row = 8 measures at t (canonical order) + pollutant mean and std
    at t; target = mean and std at t + 1. A pair contributes only when every
    constituent is present at both ends; incomplete pairs are dropped, never
    filled in. Cities never mix inside a pair.
    """
    rows_x: list[list[float]] = []
    rows_y: list[list[float]] = []
    prov: list[tuple[str, int]] = []
    pollutant_seen = False
    for ds in city_sets:
        for rec, nxt in zip(ds.records, ds.records[1:]):
            pollutant_seen = pollutant_seen or rec.has_pollutant(pollutant)
            x = feature_row(rec, pollutant)
            if x is None or not nxt.has_pollutant(pollutant):
                continue
            rows_x.append(x)
            rows_y.append(list(nxt.pollutant_stats[pollutant]))
            prov.append((ds.city_name, rec.period_index))
        if ds.records:
            pollutant_seen = pollutant_seen or ds.records[-1].has_pollutant(pollutant)
    if not pollutant_seen:
        raise EmptyDatasetError(
            f"pollutant {pollutant.value} absent from every record"
        )
    inputs = np.array(rows_x, dtype=np.float64).reshape(-1, N_FEATURES)
    targets = np.array(rows_y, dtype=np.float64).reshape(-1, N_TARGETS)
    return SupervisedSet(pollutant, inputs, targets, tuple(prov))


def fit_scaling(sset: SupervisedSet, mode: str = "min_max") -> ScalingSpec:
    """Fit per-column affine scaling on a training set.

    min_max maps each column onto [0, 1]; z_score centers to zero mean and
    unit population std; none is the identity. A column that cannot be
    scaled (constant under min_max, zero variance under z_score) raises and
    names the offending column.
    """
    if mode == "none":
        return ScalingSpec(
            mode="none",
            fitted=True,
            input_offset=(0.0,) * N_FEATURES,
            input_scale=(1.0,) * N_FEATURES,
            target_offset=(0.0,) * N_TARGETS,
            target_scale=(1.0,) * N_TARGETS,
        )
    if sset.n < 2:
        raise InsufficientDataError(f"need at least 2 rows to fit scaling, got {sset.n}")
    in_off, in_sc = affine_fit(sset.inputs, mode)
    tg_off, tg_sc = affine_fit(sset.targets, mode)
    names = feature_names(sset.pollutant) + target_names(sset.pollutant)
    for name, s in zip(names, [*in_sc, *tg_sc]):
        if not (s > 0.0):
            raise DegenerateColumnError(name)
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


def invert_scaling(sset: SupervisedSet) -> SupervisedSet:
    """Undo apply_scaling, returning the set to original units."""
    spec = sset.scaling
    return replace(
        sset,
        inputs=spec.invert_inputs(sset.inputs),
        targets=spec.invert_targets(sset.targets),
        scaling=IDENTITY_SCALING,
    )


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


def _fmt(v: float) -> str:
    # repr of a Python float is shortest-round-trip; always cast first, since
    # numpy scalars repr differently.
    return repr(float(v))


def write_city_csv(ds: CityDataset, path: str) -> None:
    """Write one city to CSV plus a .meta.json sidecar with its metadata.

    Missing measure or pollutant entries become empty fields. Floats are
    written shortest-round-trip so a reload reproduces them bit for bit.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_city_header())
        for rec in ds.records:
            row: list[str] = [str(rec.period_index), rec.start_date.isoformat()]
            for m in MEASURES:
                row.append(_fmt(rec.measures[m]) if m in rec.measures else "")
            for p in POLLUTANTS:
                if p in rec.pollutant_stats:
                    mean, std = rec.pollutant_stats[p]
                    row.append(_fmt(mean))
                    row.append(_fmt(std))
                else:
                    row.append("")
                    row.append("")
            writer.writerow(row)
    meta = {
        "city_name": ds.city_name,
        "year": ds.year,
        "center": [float(ds.center[0]), float(ds.center[1])],
        "box_half_width": float(ds.box_half_width),
    }
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta_path(csv_path: str) -> str:
    return csv_path + ".meta.json"


def read_city_csv(path: str) -> CityDataset:
    """Reload a city written by write_city_csv."""
    with open(_meta_path(path)) as fh:
        meta = json.load(fh)
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(_city_header(), path=path)
        expected = _city_header()
        if header != expected:
            missing = [c for c in expected if c not in header]
            raise SchemaError(missing or expected, path=path)
        for row in reader:
            period_index = int(row[0])
            start = dt.date.fromisoformat(row[1])
            measures = {}
            for k, m in enumerate(MEASURES):
                cell = row[2 + k]
                if cell != "":
                    measures[m] = float(cell)
            stats = {}
            for k, p in enumerate(POLLUTANTS):
                mc = row[2 + len(MEASURES) + 2 * k]
                sc = row[2 + len(MEASURES) + 2 * k + 1]
                if mc != "" and sc != "":
                    stats[p] = (float(mc), float(sc))
            records.append(PeriodRecord(period_index, start, measures, stats))
    return CityDataset(
        city_name=meta["city_name"],
        year=meta["year"],
        records=tuple(records),
        center=(meta["center"][0], meta["center"][1]),
        box_half_width=meta["box_half_width"],
    )
