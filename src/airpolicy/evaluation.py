"""Train/test orchestration and RMSE scoring across pollutants and learners.

The default split is chronological per city (forecasting leaks badly under
random splits); a seeded random split exists for parity experiments. RMSE
is always reported in original units: when a scaling mode is configured it
is fitted on training rows only and predictions are inverted before
scoring. Each pollutant's rows are built, split and scaled once. The
pollutants are dealt into shares, one per process (``jobs``, through
``workers.run_shares``); in a share, each learner makes one fit call over
all its pollutants' shared data, so the dnn trains them in lockstep. A
failed cell, including one whose predictions are not finite or whose
learner raised a numeric error (``LinAlgError``, ``FloatingPointError``),
is recorded in the report instead of aborting the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import models, workers
from .config import SplitSpec
from .dataset import (
    POLLUTANTS,
    POOLED_SCOPE,
    CityDataset,
    PollutantKind,
    SupervisedSet,
    apply_scaling,
    build_supervised,
    fit_scaling,
    write_csv,
)
from .errors import AirPolicyError, DomainError, InsufficientDataError, ShapeError
from .models import KINDS, ModelSpec, TrainedModel
from .rng import SplitMix64


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
    scope: str = POOLED_SCOPE
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
    prepared: list[tuple[SupervisedSet, SupervisedSet]], spec: ModelSpec
) -> list[tuple[EvalCell, TrainedModel | None]]:
    """One learner over a share's prepared pollutants: one fit call for all
    of their training sets, then each model is scored on its own test set."""
    fitted = models.fit(spec, [train for train, _ in prepared])
    return [_score(train, test, spec, model)
            for (train, test), model in zip(prepared, fitted)]


def _score(
    train: SupervisedSet, test: SupervisedSet, spec: ModelSpec,
    model: TrainedModel | Exception,
) -> tuple[EvalCell, TrainedModel | None]:
    try:
        if isinstance(model, Exception):
            raise model
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


def _prepare(
    city_sets: list[CityDataset],
    pollutant: PollutantKind,
    split_spec: SplitSpec,
    scaling_mode: str,
) -> tuple[SupervisedSet, SupervisedSet] | str:
    """One pollutant's (train, test) parts, or the message of its failure."""
    try:
        train, test = split(build_supervised(city_sets, pollutant), split_spec)
        if scaling_mode != "none":
            train = apply_scaling(train, fit_scaling(train, scaling_mode))
        return train, test
    except AirPolicyError as exc:
        return str(exc)


def _run_share(share, specs: list[ModelSpec]):
    """Yield (cell, model) for every learner of every pollutant in ``share``.

    The pollutants whose preparation failed come first; then each learner
    runs once over all the others, so a lockstep learner trains them together.
    """
    ready = []
    for pollutant, prepared in share:
        if isinstance(prepared, str):
            for spec in specs:
                yield EvalCell(pollutant=pollutant, kind=spec.kind, error=prepared), None
        else:
            ready.append(prepared)
    if ready:
        for spec in specs:
            yield from _run_cell(ready, spec)


def run_benchmark(
    city_sets: list[CityDataset],
    pollutants: list[PollutantKind],
    specs: list[ModelSpec],
    split_spec: SplitSpec,
    scaling_mode: str = "none",
    jobs: int = 1,
) -> tuple[EvalReport, dict[tuple[PollutantKind, str], TrainedModel]]:
    """Score every (pollutant, learner) cell; failures become report rows.

    Each pollutant's data is prepared once, in this process, and shared by
    its learners. ``workers.run_shares`` deals the pollutants into
    ``min(jobs, len(pollutants))`` shares and runs all but the first in
    forked workers; a worker that failed or ended before writing all its
    results raises ``RuntimeError``. Every cell seeds from its own spec, so
    the result does not depend on ``jobs``. The report is sorted by
    canonical pollutant order then learner order.
    """
    specs = sorted(specs, key=lambda spec: KINDS.index(spec.kind))
    prepared = [(p, _prepare(city_sets, p, split_spec, scaling_mode))
                for p in sorted(pollutants, key=POLLUTANTS.index)]
    results = workers.run_shares("benchmark", prepared, jobs,
                                 lambda share: _run_share(share, specs), len(specs))
    results.sort(key=lambda r: (POLLUTANTS.index(r[0].pollutant), KINDS.index(r[0].kind)))
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


def write_report_csv(report: EvalReport, path: str) -> None:
    write_csv(path, [REPORT_COLUMNS] + [
        [r.pollutant.value, r.kind, r.scope, r.rmse_mean, r.rmse_std, r.rmse_joint,
         r.relative_error, r.n_train, r.n_test]
        for r in report.rows
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
