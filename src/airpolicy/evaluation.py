"""Train/test orchestration and RMSE scoring across pollutants and learners.

The default split is chronological per city (forecasting leaks badly under
random splits); a seeded random split exists for parity experiments. RMSE
is always reported in original units: when a scaling mode is configured it
is fitted on training rows only and predictions are inverted before
scoring. Each pollutant's rows are built, split and scaled once, then its
learners run one after another on that shared data. A failed cell,
including one whose predictions are not finite or whose learner raised a
numeric error (``LinAlgError``, ``FloatingPointError``), is recorded in the
report instead of aborting the run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import models
from .dataset import (
    POLLUTANTS,
    CityDataset,
    PollutantKind,
    SupervisedSet,
    apply_scaling,
    build_supervised,
    fit_scaling,
)
from .errors import AirPolicyError, DomainError, InsufficientDataError, ShapeError
from .models import KINDS, ModelSpec, TrainedModel
from .rng import SplitMix64


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "chronological"
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("chronological", "random"):
            raise DomainError(f"unknown split mode {self.mode!r}")
        if not (0.0 < self.test_fraction < 1.0):
            raise DomainError(
                f"test_fraction must lie in (0, 1), got {self.test_fraction}"
            )

    def to_dict(self) -> dict:
        return {"mode": self.mode, "test_fraction": self.test_fraction, "seed": self.seed}


def _subset(sset: SupervisedSet, idx: list[int]) -> SupervisedSet:
    return replace(
        sset,
        inputs=sset.inputs[idx].copy(),
        targets=sset.targets[idx].copy(),
        row_provenance=tuple(sset.row_provenance[i] for i in idx),
    )


def split(sset: SupervisedSet, spec: SplitSpec) -> tuple[SupervisedSet, SupervisedSet]:
    """Partition rows into (train, test); both keep the original row order.

    chronological: within each city, the last ceil(n_city * fraction) rows
    are test, so no training row postdates a test row of its city. random:
    a seeded global shuffle marks ceil(N * fraction) rows as test.
    """
    n = sset.n
    if n < 5:
        raise InsufficientDataError(f"need at least 5 rows to split, got {n}")
    test_mask = np.zeros(n, dtype=bool)
    if spec.mode == "chronological":
        city_rows: dict[str, list[int]] = {}
        for i, (city, _) in enumerate(sset.row_provenance):
            city_rows.setdefault(city, []).append(i)
        for rows in city_rows.values():
            take = math.ceil(len(rows) * spec.test_fraction)
            for i in rows[len(rows) - take:]:
                test_mask[i] = True
    else:
        perm = np.arange(n)
        SplitMix64(spec.seed).shuffle(perm)
        take = math.ceil(n * spec.test_fraction)
        test_mask[perm[:take]] = True
    test_idx = [i for i in range(n) if test_mask[i]]
    train_idx = [i for i in range(n) if not test_mask[i]]
    if not train_idx or not test_idx:
        raise InsufficientDataError("split left an empty train or test part")
    return _subset(sset, train_idx), _subset(sset, test_idx)


def rmse(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, float, float]:
    """(rmse of column 0, rmse of column 1, joint rmse over both columns)."""
    P = np.asarray(predictions, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    if P.shape != T.shape or P.ndim != 2 or P.shape[1] != 2:
        raise ShapeError(f"expected matching M x 2 arrays, got {P.shape} and {T.shape}")
    if P.shape[0] < 1:
        raise ShapeError("need at least one row")
    sq = (P - T) ** 2
    col = np.sqrt(sq.mean(axis=0))
    joint = math.sqrt(float(sq.mean()))
    return float(col[0]), float(col[1]), joint


@dataclass(frozen=True)
class EvalCell:
    pollutant: PollutantKind
    kind: str
    scope: str = "pooled"
    rmse_mean: float | None = None
    rmse_std: float | None = None
    rmse_joint: float | None = None
    relative_error: float | None = None
    n_train: int = 0
    n_test: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.error == ""


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalCell, ...] = field(default_factory=tuple)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if not r.ok)

    def cell(self, pollutant: PollutantKind, kind: str) -> EvalCell:
        for r in self.rows:
            if r.pollutant is pollutant and r.kind == kind:
                return r
        raise KeyError((pollutant, kind))


def _run_cell(
    train: SupervisedSet, test: SupervisedSet, spec: ModelSpec
) -> tuple[EvalCell, TrainedModel | None]:
    try:
        model = models.fit(spec, train)
        m, s, joint = rmse(models.predict(model, test.inputs), test.targets)
        if not math.isfinite(joint):
            raise DomainError(f"{spec.kind}: predictions or RMSE not finite")
        denom = float(np.abs(test.targets[:, 0]).mean())
        rel = m / denom if denom > 0.0 else None  # undefined on all-zero targets
        cell = EvalCell(
            pollutant=train.pollutant,
            kind=spec.kind,
            rmse_mean=m,
            rmse_std=s,
            rmse_joint=joint,
            relative_error=rel,
            n_train=train.n,
            n_test=test.n,
        )
        return cell, model
    except AirPolicyError as exc:
        return EvalCell(pollutant=train.pollutant, kind=spec.kind, error=str(exc)), None
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        error = f"{spec.kind}: {type(exc).__name__}: {exc}"
        return EvalCell(pollutant=train.pollutant, kind=spec.kind, error=error), None


def run_benchmark(
    city_sets: list[CityDataset],
    pollutants: list[PollutantKind],
    specs: list[ModelSpec],
    split_spec: SplitSpec,
    scaling_mode: str = "none",
) -> tuple[EvalReport, dict[tuple[PollutantKind, str], TrainedModel]]:
    """Score every (pollutant, learner) cell; failures become report rows.

    Each pollutant's data is prepared once and shared by its learners. The
    report is sorted by canonical pollutant order then learner order.
    """
    specs = sorted(specs, key=lambda spec: KINDS.index(spec.kind))
    results = []
    for p in sorted(pollutants, key=POLLUTANTS.index):
        try:
            train, test = split(build_supervised(city_sets, p), split_spec)
            if scaling_mode != "none":
                train = apply_scaling(train, fit_scaling(train, scaling_mode))
        except AirPolicyError as exc:
            results.extend(
                (EvalCell(pollutant=p, kind=spec.kind, error=str(exc)), None)
                for spec in specs
            )
            continue
        results.extend(_run_cell(train, test, spec) for spec in specs)
    trained = {
        (cell.pollutant, cell.kind): model
        for cell, model in results
        if model is not None
    }
    return EvalReport(rows=tuple(cell for cell, _ in results)), trained


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

REPORT_COLUMNS = [
    "pollutant", "kind", "scope", "rmse_mean", "rmse_std", "rmse_joint",
    "relative_error", "n_train", "n_test",
]


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def write_report_csv(report: EvalReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in report.rows:
            writer.writerow([
                r.pollutant.value, r.kind, r.scope,
                _fmt(r.rmse_mean), _fmt(r.rmse_std), _fmt(r.rmse_joint),
                _fmt(r.relative_error), str(r.n_train), str(r.n_test),
            ])


def report_to_json(report: EvalReport, config_echo: dict | None = None) -> str:
    rows = []
    for r in report.rows:
        rows.append({
            "pollutant": r.pollutant.value,
            "kind": r.kind,
            "scope": r.scope,
            "rmse_mean": r.rmse_mean,
            "rmse_std": r.rmse_std,
            "rmse_joint": r.rmse_joint,
            "relative_error": r.relative_error,
            "n_train": r.n_train,
            "n_test": r.n_test,
            "error": r.error,
        })
    return json.dumps(
        {"rows": rows, "config": config_echo or {}},
        sort_keys=True, indent=2, allow_nan=False,
    )


def write_report_json(report: EvalReport, path: str, config_echo: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(report_to_json(report, config_echo))
        fh.write("\n")
