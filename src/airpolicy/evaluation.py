"""Train/test orchestration and RMSE scoring across pollutants and learners.

The default split is chronological per city (forecasting leaks badly under
random splits); a seeded random split exists for parity experiments. RMSE
is always reported in original units: when a scaling mode is configured it
is fitted on training rows only and predictions are inverted before
scoring. Each pollutant's rows are built, split and scaled once, then its
learners run one after another on that shared data, in this process or in
a forked worker (``jobs``). A failed cell,
including one whose predictions are not finite or whose learner raised a
numeric error (``LinAlgError``, ``FloatingPointError``), is recorded in the
report instead of aborting the run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import select
import signal
import traceback
from dataclasses import dataclass, field, replace
from typing import NoReturn

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
    """Yield (cell, model) for every learner of every pollutant in ``share``."""
    for pollutant, prepared in share:
        for spec in specs:
            if isinstance(prepared, str):
                yield EvalCell(pollutant=pollutant, kind=spec.kind, error=prepared), None
            else:
                yield _run_cell(*prepared, spec)


def _frame(obj) -> bytes:
    """``obj`` pickled at protocol 4, after its length as 8 bytes."""
    data = pickle.dumps(obj, protocol=4)
    return len(data).to_bytes(8, "little") + data


def _send(fd: int, outbox: bytearray) -> None:
    """Write as much of ``outbox`` as ``fd`` takes now; drop what was written."""
    try:
        while outbox:
            del outbox[:os.write(fd, outbox)]
    except BlockingIOError:
        pass


def _serve(share, specs: list[ModelSpec], fd: int) -> NoReturn:
    """Worker body: send each result down ``fd`` as it is made, then exit.

    Each result travels as one frame. Protocol 4, not 5: protocol 5 would
    rebuild each tree node's array as a view onto its own buffer, which
    grows an unpickled forest about fourfold. The pipe is written without blocking while cells remain, since
    one rfr model outgrows the pipe's buffer and the parent reads only
    between its own cells; the rest is written when the share is done. An
    unexpected exception is sent as its traceback text. The process ends in
    ``os._exit`` on every path, so it never returns into the caller's stack.
    """
    status = 1
    try:
        outbox = bytearray()
        os.set_blocking(fd, False)
        try:
            for result in _run_share(share, specs):
                outbox += _frame(result)
                _send(fd, outbox)
            status = 0
        except Exception:
            outbox += _frame(traceback.format_exc())
        os.set_blocking(fd, True)
        _send(fd, outbox)
    finally:
        os._exit(status)


class _Worker:
    """A forked process running one share, read back over a pipe."""

    def __init__(self, share, specs: list[ModelSpec], others: list[_Worker]):
        self.pollutants = ", ".join(p.value for p, _ in share)
        self.pending = len(share) * len(specs)
        self.inbox = bytearray()
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(w)
            raise
        if self.pid == 0:
            os.close(self.fd)
            for other in others:  # only the parent may hold a read end
                os.close(other.fd)
            _serve(share, specs, w)
        os.close(w)

    def receive(self, results: list) -> None:
        """Read what the pipe holds; append each complete result to ``results``.

        Call only when the pipe is readable. Raises if the worker failed or
        ended before sending all its results.
        """
        chunk = os.read(self.fd, 1 << 16)
        if not chunk:
            raise RuntimeError(f"benchmark worker for {self.pollutants} ended "
                               f"with {self.pending} results unsent")
        self.inbox += chunk
        while len(self.inbox) >= 8:
            end = 8 + int.from_bytes(self.inbox[:8], "little")
            if len(self.inbox) < end:
                return
            result = pickle.loads(self.inbox[8:end])
            del self.inbox[:end]
            if isinstance(result, str):
                raise RuntimeError(f"benchmark worker for {self.pollutants} failed:\n{result}")
            results.append(result)
            self.pending -= 1

    def stop(self) -> None:
        """Close the pipe, kill the process unless it sent everything, reap it."""
        os.close(self.fd)
        if self.pending:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _receive_ready(workers: list[_Worker], results: list, timeout: float | None) -> None:
    """Receive results while some worker's pipe turns readable within ``timeout``."""
    while True:
        waiting = {w.fd: w for w in workers if w.pending}
        if not waiting:
            return
        ready, _, _ = select.select(list(waiting), [], [], timeout)
        if not ready:
            return
        for fd in ready:
            waiting[fd].receive(results)


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
    its learners. The pollutants are dealt round-robin into
    ``min(jobs, len(pollutants))`` shares: this process runs share 0 and a
    forked worker runs each other share on the inherited data. Every cell
    seeds from its own spec, so the result does not depend on ``jobs``. The
    report is sorted by canonical pollutant order then learner order.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    specs = sorted(specs, key=lambda spec: KINDS.index(spec.kind))
    prepared = [(p, _prepare(city_sets, p, split_spec, scaling_mode))
                for p in sorted(pollutants, key=POLLUTANTS.index)]
    n = max(1, min(jobs, len(prepared)))
    shares = [prepared[i::n] for i in range(n)]
    results: list[tuple[EvalCell, TrainedModel | None]] = []
    workers: list[_Worker] = []
    try:
        for share in shares[1:]:
            workers.append(_Worker(share, specs, workers))
        for result in _run_share(shares[0], specs):
            results.append(result)
            _receive_ready(workers, results, 0)
        _receive_ready(workers, results, None)
    finally:
        for worker in workers:
            worker.stop()
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
