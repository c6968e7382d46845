"""Figure data construction, serialization, and text summaries."""

import csv
import json

import pytest

from airpolicy.dataset import MEASURES, MeasureKind, PollutantKind
from airpolicy.errors import DomainError
from airpolicy.evaluation import EvalCell, EvalReport
from airpolicy.report import (
    COD_THRESHOLD,
    FigureData,
    FigureRow,
    all_cod_below_threshold,
    figure_dtw,
    figure_r2,
    figure_rmse,
    read_figure_json,
    render_benchmark_summary,
    render_screen_summary,
    write_figure,
)
from airpolicy.similarity import POOLED_SCOPE, Band, ScreenCell, band_of


def pooled_cell(measure, pollutant, r=0.5, dtw=1.25):
    return ScreenCell(
        city=POOLED_SCOPE, measure=measure, pollutant=pollutant, n=20,
        r=r, r_squared=None if r is None else r * r,
        p_value=None if r is None else 0.01,
        band=None if r is None else band_of(abs(r)),
        dtw_distance=dtw, error="" if r is not None else "degenerate",
    )


def city_cell(measure, pollutant):
    return ScreenCell(city="a", measure=measure, pollutant=pollutant, n=10,
                      r=0.9, r_squared=0.81, p_value=0.001,
                      band=Band.STRONG, dtw_distance=0.5, error="")


def test_figure_r2_layout():
    cells = []
    for m in MEASURES:
        for p in (PollutantKind.CO, PollutantKind.O3):
            cells.append(city_cell(m, p))       # ignored: not pooled
            cells.append(pooled_cell(m, p, r=0.3))
    fig = figure_r2(cells)
    assert fig.figure_id == "R2_bars"
    assert len(fig.rows) == len(MEASURES) * 2
    # Measures in canonical order, pollutants within each measure.
    assert [r.group for r in fig.rows[:2]] == [MEASURES[0].value] * 2
    assert [r.category for r in fig.rows[:2]] == ["CO", "O3"]
    assert all(r.value == pytest.approx(0.09) for r in fig.rows)


def test_figure_r2_missing_cells_are_none():
    cells = [pooled_cell(MEASURES[0], PollutantKind.CO, r=0.4)]
    fig = figure_r2(cells)
    # Only CO appears, so one row per measure; absent measures carry None.
    assert len(fig.rows) == len(MEASURES)
    assert fig.rows[0].value == pytest.approx(0.16)
    assert all(r.value is None for r in fig.rows[1:])


def test_figure_dtw_uses_distance():
    cells = [pooled_cell(m, PollutantKind.NO2, r=0.2, dtw=float(i))
             for i, m in enumerate(MEASURES)]
    fig = figure_dtw(cells)
    assert fig.figure_id == "DTW_bars"
    assert [r.value for r in fig.rows] == [float(i) for i in range(len(MEASURES))]


def test_figure_dtw_degenerate_cell_keeps_distance():
    # r undefined but the alignment distance still plots.
    cells = [pooled_cell(MEASURES[0], PollutantKind.CO, r=None, dtw=3.5)]
    fig = figure_dtw(cells)
    assert fig.rows[0].value == 3.5
    assert figure_r2(cells).rows[0].value is None


def test_figure_data_rejects_nan_and_bad_id():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            FigureData(figure_id="R2_bars",
                       rows=(FigureRow("a", "b", bad),), caption="x")
    with pytest.raises(DomainError):
        FigureData(figure_id="scatter", rows=(), caption="x")


def test_figure_rmse_panels():
    rows = []
    for p in (PollutantKind.CO, PollutantKind.O3, PollutantKind.NO2,
              PollutantKind.SO2):
        rows.append(EvalCell(pollutant=p, kind="knn", rmse_joint=1.0,
                             rmse_mean=1.0, rmse_std=1.0, relative_error=0.1,
                             n_train=8, n_test=2))
    rows.append(EvalCell(pollutant=PollutantKind.CO, kind="linreg",
                         error="singular"))
    report = EvalReport(rows=tuple(rows))
    fig_a, fig_b = figure_rmse(report)
    assert fig_a.figure_id == "RMSE_CO_O3"
    assert fig_b.figure_id == "RMSE_NO2_SO2"
    by_key = {(r.group, r.category): r.value for r in fig_a.rows}
    assert by_key[("knn", "CO")] == 1.0
    # Failed cell plots as an explicit hole, not a number.
    assert by_key[("linreg", "CO")] is None
    assert by_key[("linreg", "O3")] is None
    assert {r.category for r in fig_b.rows} == {"NO2", "SO2"}
    # Learner rows follow the canonical kind order: knn before linreg.
    assert [r.group for r in fig_a.rows] == ["knn", "knn", "linreg", "linreg"]


def test_write_figure_round_trip(tmp_path):
    fig = FigureData(
        figure_id="R2_bars",
        rows=(FigureRow("RE_GAT", "CO", 0.25), FigureRow("RE_GAT", "O3", None)),
        caption="test caption",
    )
    csv_path, json_path = write_figure(fig, str(tmp_path))
    assert csv_path.endswith("fig_R2_bars.csv")
    with open(csv_path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got == [["group", "category", "value"],
                   ["RE_GAT", "CO", "0.25"],
                   ["RE_GAT", "O3", ""]]
    back = read_figure_json(json_path)
    assert back == fig
    # JSON bytes are deterministic for identical figures.
    with open(json_path) as fh:
        blob1 = fh.read()
    write_figure(fig, str(tmp_path))
    with open(json_path) as fh:
        assert fh.read() == blob1
    assert json.loads(blob1)["caption"] == "test caption"


def test_all_cod_below_threshold_strict():
    m, p = MEASURES[0], PollutantKind.CO
    below = pooled_cell(m, p, r=0.44)             # R2 = 0.1936 < 0.20
    at = ScreenCell(city=POOLED_SCOPE, measure=m, pollutant=p, n=20,
                    r=None, r_squared=COD_THRESHOLD, p_value=0.5,
                    band=Band.WEAK, dtw_distance=1.0, error="")
    above = pooled_cell(m, p, r=0.5)              # R2 = 0.25
    undefined = pooled_cell(m, p, r=None)
    assert all_cod_below_threshold([below])
    assert all_cod_below_threshold([below, undefined])
    assert not all_cod_below_threshold([at])      # boundary excluded
    assert not all_cod_below_threshold([below, above])
    # City rows never count; with no pooled R2 at all the flag is False.
    assert not all_cod_below_threshold([undefined])
    assert not all_cod_below_threshold([city_cell(m, p)])
    assert not all_cod_below_threshold([])


def test_render_screen_summary_flag_line():
    m, p = MEASURES[0], PollutantKind.CO
    quiet = render_screen_summary([pooled_cell(m, p, r=0.1)])
    assert quiet.endswith("all measures CoD < 0.20: yes\n")
    loud = render_screen_summary([pooled_cell(m, p, r=0.9)])
    assert loud.endswith("all measures CoD < 0.20: no\n")
    # Per-city rows stay out of the pooled table.
    assert "a " not in quiet
    line = [ln for ln in quiet.splitlines() if ln.startswith(m.value)][0]
    assert "CO" in line and "Weak" in line


def test_render_screen_summary_undefined_row():
    m, p = MEASURES[1], PollutantKind.SO2
    text = render_screen_summary([pooled_cell(m, p, r=None, dtw=2.0)])
    line = [ln for ln in text.splitlines() if ln.startswith(m.value)][0]
    assert "undefined" in line and "2.000" in line
    assert text.endswith("all measures CoD < 0.20: no\n")


def test_render_benchmark_summary():
    rows = (
        EvalCell(pollutant=PollutantKind.CO, kind="knn", rmse_joint=2.0,
                 rmse_mean=2.0, rmse_std=2.0, relative_error=0.2,
                 n_train=8, n_test=2),
        EvalCell(pollutant=PollutantKind.CO, kind="linreg", rmse_joint=1.0,
                 rmse_mean=1.0, rmse_std=1.0, relative_error=0.1,
                 n_train=8, n_test=2),
        EvalCell(pollutant=PollutantKind.O3, kind="knn", error="boom"),
    )
    text = render_benchmark_summary(EvalReport(rows=rows))
    assert "CO: best linreg" in text
    assert "O3: every cell failed" in text
    assert text.endswith("cells: 3 total, 1 failed\n")


def test_measure_enum_values_match_figure_groups():
    assert MeasureKind.RE_GAT.value == "RE_GAT"
    assert len(MEASURES) == 8
