"""Plot-ready figure data and human-readable run summaries.

Figures are emitted as data (CSV plus JSON), not images: long-format rows
of (group, category, value) with missing cells kept as explicitly empty
values. The screening summary ends with a flag line stating whether every
measure's pooled coefficient of determination stays below 0.20.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .config import KINDS
from .dataset import MEASURES, POLLUTANTS, POOLED_SCOPE, write_csv, write_json
from .errors import DomainError

if TYPE_CHECKING:  # screen loads no learner, and benchmark no screening
    from .evaluation import EvalReport
    from .similarity import ScreenCell

FIGURE_IDS = ("R2_bars", "DTW_bars", "RMSE_CO_O3", "RMSE_NO2_SO2")

COD_THRESHOLD = 0.20


@dataclass(frozen=True)
class FigureRow:
    group: str
    category: str
    value: float | None


@dataclass(frozen=True)
class FigureData:
    figure_id: str
    rows: tuple[FigureRow, ...]
    caption: str

    def __post_init__(self):
        if self.figure_id not in FIGURE_IDS:
            raise DomainError(f"unknown figure id {self.figure_id!r}")
        for row in self.rows:
            if row.value is not None and not math.isfinite(row.value):
                raise DomainError("figure values must be finite or None")


def _pooled_figure(cells: list[ScreenCell], figure_id: str, field: str,
                   caption: str) -> FigureData:
    """One pooled statistic per (measure, pollutant), measures in canonical order."""
    pooled = {(c.measure, c.pollutant): c for c in cells if c.city == POOLED_SCOPE}
    pollutants = [p for p in POLLUTANTS if any(key[1] is p for key in pooled)]
    rows = []
    for m in MEASURES:
        for p in pollutants:
            cell = pooled.get((m, p))
            value = None if cell is None else getattr(cell, field)
            rows.append(FigureRow(group=m.value, category=p.value, value=value))
    return FigureData(figure_id=figure_id, rows=tuple(rows), caption=caption)


def figure_r2(cells: list[ScreenCell]) -> FigureData:
    """Pooled R² per (measure, pollutant)."""
    return _pooled_figure(
        cells, "R2_bars", "r_squared",
        "Coefficient of determination between each measure and each "
        "pollutant's mean density, pooled across cities.")


def figure_dtw(cells: list[ScreenCell]) -> FigureData:
    """Pooled alignment distance per (measure, pollutant)."""
    return _pooled_figure(
        cells, "DTW_bars", "dtw_distance",
        "Alignment distance between each measure series and each "
        "pollutant's mean-density series, pooled across cities.")


def figure_rmse(report: EvalReport) -> tuple[FigureData, FigureData]:
    """Benchmark joint RMSE split into the (CO, O3) and (NO2, SO2) panels."""
    groups = {"RMSE_CO_O3": ("CO", "O3"), "RMSE_NO2_SO2": ("NO2", "SO2")}
    by_key = {(r.kind, r.pollutant.value): r for r in report.rows}
    kinds = [k for k in KINDS if any(key[0] == k for key in by_key)]
    figures = []
    for fig_id, pair in groups.items():
        rows = []
        for kind in kinds:
            for p in pair:
                cell = by_key.get((kind, p))
                value = None if cell is None or not cell.ok else cell.rmse_joint
                rows.append(FigureRow(group=kind, category=p, value=value))
        figures.append(FigureData(
            figure_id=fig_id,
            rows=tuple(rows),
            caption=f"Joint forecast RMSE per learner for {pair[0]} and {pair[1]} "
                    "(mol/m², next 2-day period).",
        ))
    return figures[0], figures[1]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_figure(fig: FigureData, out_dir: str) -> tuple[str, str]:
    """Write fig_<id>.csv and fig_<id>.json; returns both paths."""
    csv_path = os.path.join(out_dir, f"fig_{fig.figure_id}.csv")
    json_path = os.path.join(out_dir, f"fig_{fig.figure_id}.json")
    write_csv(csv_path, [["group", "category", "value"]]
              + [[row.group, row.category, row.value] for row in fig.rows])
    write_json(json_path, asdict(fig))
    return csv_path, json_path


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def all_cod_below_threshold(cells: list[ScreenCell]) -> bool:
    """True when every defined pooled R² is below COD_THRESHOLD."""
    pooled = [c.r_squared for c in cells
              if c.city == POOLED_SCOPE and c.r_squared is not None]
    return bool(pooled) and all(v < COD_THRESHOLD for v in pooled)


def render_screen_summary(cells: list[ScreenCell]) -> str:
    """Pooled screening table as text, ending with the CoD flag line."""
    lines = ["measure x pollutant screening (pooled across cities)", ""]
    header = f"{'measure':<12} {'pollutant':<9} {'r':>8} {'R2':>7} {'p':>9} {'band':<10} {'dtw':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for c in cells:
        if c.city != POOLED_SCOPE:
            continue
        if c.r is None:
            stats = f"{'--':>8} {'--':>7} {'--':>9} {'undefined':<10}"
        else:
            stats = f"{c.r:8.4f} {c.r_squared:7.4f} {c.p_value:9.2e} {c.band.value:<10}"
        dtw = f"{'--':>8}" if c.dtw_distance is None else f"{c.dtw_distance:8.3f}"
        lines.append(f"{c.measure.value:<12} {c.pollutant.value:<9} {stats} {dtw}")
    lines.append("")
    flag = "yes" if all_cod_below_threshold(cells) else "no"
    lines.append(f"all measures CoD < {COD_THRESHOLD:.2f}: {flag}")
    return "\n".join(lines) + "\n"


def render_benchmark_summary(report: EvalReport) -> str:
    """Per-pollutant best learner plus failure count."""
    lines = ["benchmark summary (joint RMSE, original units)", ""]
    pollutants = []
    for r in report.rows:
        if r.pollutant not in pollutants:
            pollutants.append(r.pollutant)
    for p in pollutants:
        ok = [r for r in report.rows if r.pollutant is p and r.ok]
        if not ok:
            lines.append(f"{p.value}: every cell failed")
            continue
        best = min(ok, key=lambda r: r.rmse_joint)
        rel = "--" if best.relative_error is None else f"{best.relative_error:.4f}"
        lines.append(
            f"{p.value}: best {best.kind} "
            f"(joint rmse {best.rmse_joint:.4e}, relative error {rel})"
        )
    failed = report.n_failed
    lines.append("")
    lines.append(f"cells: {len(report.rows)} total, {failed} failed")
    return "\n".join(lines) + "\n"
