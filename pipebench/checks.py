"""Output checks and digests for one pipeline run.

Operations are screen cells, benchmark cells and forecast rows. Each check
returns ``(attempted, failed, problems)``: an operation fails when its
stage exited non-zero, when the program marks it failed, or when any of
its values is non-finite. The non-finite test is applied here, so a later
change that relabels NaN rows as failed cells does not move the share.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

from airpolicy.dataset import MEASURES, POLLUTANTS
from airpolicy.models import KINDS

SCREEN_SCOPES = 5  # four cities plus the pooled scope
SCREEN_CELLS = len(POLLUTANTS) * len(MEASURES) * SCREEN_SCOPES  # 160
BENCH_CELLS = len(POLLUTANTS) * len(KINDS)  # 36
FORECAST_ROWS = len(POLLUTANTS)  # 4 per kind

# Tier-1 acceptance bounds on linear-profile data (test_09).
REL_ERROR_BOUND = 0.15
LINREG_REL_ERROR_BOUND = 0.01


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def check_screen(out_dir: str, exit_code: int) -> tuple[int, int, list[str]]:
    problems = [] if exit_code == 0 else [f"screen exited {exit_code}"]
    path = os.path.join(out_dir, "screen.csv")
    rows = []
    if os.path.isfile(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    if len(rows) != SCREEN_CELLS:
        problems.append(f"{path}: {len(rows)} screen cells, expected {SCREEN_CELLS}")
    if exit_code != 0:
        return SCREEN_CELLS, SCREEN_CELLS, problems
    bad = sum(
        1 for r in rows
        if not all(_finite(r[k]) for k in ("r", "r2", "p", "dtw_distance")) or not r["band"]
    )
    if bad:
        problems.append(f"{path}: {bad} screen cells failed or non-finite")
    return SCREEN_CELLS, min(SCREEN_CELLS, bad + abs(SCREEN_CELLS - len(rows))), problems


def check_benchmark(out_dir: str, exit_code: int,
                    all_cells_bound: bool) -> tuple[int, int, list[str], list[str]]:
    """Check report.json and models/; returns (attempted, failed, problems, notes).

    linreg must stay under LINREG_REL_ERROR_BOUND on every seed. The looser
    REL_ERROR_BOUND for every cell is what test_09 asserts on seed 0; on
    other seeds knn can sit just above it (NO2 knn reads 0.1527 on seed 5),
    so there a crossing is reported as a note, not a failed cell.
    """
    problems = [] if exit_code == 0 else [f"benchmark exited {exit_code}"]
    notes = []
    path = os.path.join(out_dir, "report.json")
    rows = []
    if os.path.isfile(path):
        with open(path) as fh:
            # NaN/Infinity literals parse, so the finite test below sees them.
            rows = json.load(fh)["rows"]
    if len(rows) != BENCH_CELLS:
        problems.append(f"{path}: {len(rows)} benchmark cells, expected {BENCH_CELLS}")
    models_dir = os.path.join(out_dir, "models")
    n_models = len(os.listdir(models_dir)) if os.path.isdir(models_dir) else 0
    if n_models != BENCH_CELLS:
        problems.append(f"{models_dir}: {n_models} model files, expected {BENCH_CELLS}")
    if exit_code != 0:
        return BENCH_CELLS, BENCH_CELLS, problems, notes
    bad = 0
    for r in rows:
        values = [r[k] for k in ("rmse_mean", "rmse_std", "rmse_joint", "relative_error")]
        if r["error"] or not all(_finite(v) for v in values):
            bad += 1
            continue
        linreg = r["kind"] == "linreg"
        bound = LINREG_REL_ERROR_BOUND if linreg else REL_ERROR_BOUND
        if not r["relative_error"] < bound:
            message = (f"{r['pollutant']}/{r['kind']}: relative_error "
                       f"{r['relative_error']!r} >= {bound}")
            if linreg or all_cells_bound:
                bad += 1
                problems.append(message)
            else:
                notes.append(message)
    if bad:
        problems.append(f"{path}: {bad} benchmark cells failed, non-finite or out of bounds")
    return BENCH_CELLS, min(BENCH_CELLS, bad + abs(BENCH_CELLS - len(rows))), problems, notes


def check_forecast(text: bytes, exit_code: int, kind: str) -> tuple[int, int, list[str]]:
    """Check the forecast.csv bytes one ``predict --set predict.kind=<kind>`` wrote."""
    problems = [] if exit_code == 0 else [f"predict {kind} exited {exit_code}"]
    if exit_code != 0:
        return FORECAST_ROWS, FORECAST_ROWS, problems
    rows = list(csv.DictReader(io.StringIO(text.decode())))
    if len(rows) != FORECAST_ROWS:
        problems.append(f"{len(rows)} forecast rows for {kind}, expected {FORECAST_ROWS}")
    bad = sum(
        1 for r in rows
        if r["kind"] != kind or not all(
            _finite(r[k]) for k in ("current_mean", "current_std",
                                    "forecast_mean", "forecast_std"))
    )
    if bad:
        problems.append(f"{bad} forecast rows for {kind} wrong or non-finite")
    return FORECAST_ROWS, min(FORECAST_ROWS, bad + abs(FORECAST_ROWS - len(rows))), problems


def digest_tree(root: str, only=None) -> str:
    """sha256 over the relative paths and bytes of every file under ``root``.

    ``only`` limits the walk to the listed top-level names; bytecode caches
    are skipped.
    """
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if only is not None and rel.split("/")[0] not in only:
                continue
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()

