"""Split semantics, RMSE scoring, and the benchmark grid."""

import csv
import json
import math
import os
import pickle
import signal

import numpy as np
import pytest

from airpolicy.dataset import POLLUTANTS, PollutantKind, build_supervised
from airpolicy.errors import DomainError, InsufficientDataError, ShapeError
from airpolicy.evaluation import (
    EvalCell,
    EvalReport,
    SplitSpec,
    rmse,
    run_benchmark,
    split,
    write_report_csv,
    write_report_json,
)
from airpolicy.models import KINDS, ModelSpec, model_to_json
from airpolicy.report import render_benchmark_summary

from conftest import make_city


def test_split_spec_validation():
    with pytest.raises(DomainError):
        SplitSpec(mode="stratified")
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            SplitSpec(test_fraction=bad)
    spec = SplitSpec()
    assert spec.mode == "chronological"
    assert spec.to_dict() == {"mode": "chronological", "test_fraction": 0.2, "seed": 0}


def test_chronological_split_takes_last_rows_per_city():
    city = make_city("a", n_periods=11, seed=5)  # 10 supervised rows
    sset = build_supervised([city], PollutantKind.CO)
    train, test = split(sset, SplitSpec(test_fraction=0.2))
    assert train.n == 8 and test.n == 2
    # Last ceil(10 * 0.2) = 2 rows are the test part, order preserved.
    assert [p for _, p in test.row_provenance] == [8, 9]
    assert [p for _, p in train.row_provenance] == list(range(8))
    np.testing.assert_array_equal(test.inputs, sset.inputs[8:])
    np.testing.assert_array_equal(train.targets, sset.targets[:8])


def test_chronological_split_is_per_city():
    a = make_city("a", n_periods=11, seed=5)   # 10 rows
    b = make_city("b", n_periods=8, seed=6)    # 7 rows, ceil(7 * 0.2) = 2
    sset = build_supervised([a, b], PollutantKind.O3)
    train, test = split(sset, SplitSpec(test_fraction=0.2))
    test_by_city = {}
    for city, period in test.row_provenance:
        test_by_city.setdefault(city, []).append(period)
    assert test_by_city == {"a": [8, 9], "b": [5, 6]}
    # No training row postdates a test row of its own city.
    earliest_test = {c: min(ps) for c, ps in test_by_city.items()}
    for city, period in train.row_provenance:
        assert period < earliest_test[city]


def test_random_split_is_seeded_and_partitions():
    city = make_city("a", n_periods=26, seed=7)  # 25 rows
    sset = build_supervised([city], PollutantKind.NO2)
    spec = SplitSpec(mode="random", test_fraction=0.3, seed=42)
    tr1, te1 = split(sset, spec)
    tr2, te2 = split(sset, spec)
    assert te1.row_provenance == te2.row_provenance
    np.testing.assert_array_equal(tr1.inputs, tr2.inputs)
    assert te1.n == math.ceil(25 * 0.3)
    # Partition: together they recover every original row, order preserved
    # within each part.
    all_periods = sorted(p for _, p in tr1.row_provenance + te1.row_provenance)
    assert all_periods == list(range(25))
    assert [p for _, p in tr1.row_provenance] == sorted(p for _, p in tr1.row_provenance)
    # A different seed shuffles differently.
    _, te3 = split(sset, SplitSpec(mode="random", test_fraction=0.3, seed=43))
    assert te3.row_provenance != te1.row_provenance


def test_split_insufficient_rows():
    city = make_city("a", n_periods=4, seed=1)  # 3 rows
    sset = build_supervised([city], PollutantKind.CO)
    with pytest.raises(InsufficientDataError):
        split(sset, SplitSpec())


def test_split_refuses_empty_train():
    city = make_city("a", n_periods=6, seed=1)  # 5 rows
    sset = build_supervised([city], PollutantKind.CO)
    with pytest.raises(InsufficientDataError):
        split(sset, SplitSpec(test_fraction=0.999))


def oracle_rmse(P, T):
    n = len(P)
    col = []
    for j in range(2):
        col.append(math.sqrt(math.fsum((P[i][j] - T[i][j]) ** 2 for i in range(n)) / n))
    joint = math.sqrt(
        math.fsum((P[i][j] - T[i][j]) ** 2 for i in range(n) for j in range(2))
        / (2 * n)
    )
    return col[0], col[1], joint


def test_rmse_against_fsum_oracle(rng):
    for _ in range(20):
        n = 1 + rng.randint(30)
        P = np.array(rng.normals(n * 2)).reshape(n, 2)
        T = np.array(rng.normals(n * 2)).reshape(n, 2)
        got = rmse(P, T)
        want = oracle_rmse(P.tolist(), T.tolist())
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)


def test_rmse_zero_for_identical():
    P = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rmse(P, P.copy()) == (0.0, 0.0, 0.0)


def test_rmse_shape_errors():
    ok = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        rmse(ok, np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        rmse(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        rmse(np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        rmse(np.zeros((0, 2)), np.zeros((0, 2)))


FAST_SPECS = [ModelSpec(kind="knn", hyperparameters={"k": 3}),
              ModelSpec(kind="linreg"),
              ModelSpec(kind="ridge", hyperparameters={"lam": 0.1})]


def test_benchmark_rows_in_canonical_order():
    cities = [make_city("a", n_periods=21, seed=11)]
    # Pollutants handed over out of order; rows come back canonical.
    pollutants = [PollutantKind.SO2, PollutantKind.CO]
    report, trained = run_benchmark(cities, pollutants, FAST_SPECS, SplitSpec())
    keys = [(r.pollutant, r.kind) for r in report.rows]
    want = [(p, s.kind)
            for p in (PollutantKind.CO, PollutantKind.SO2)
            for s in FAST_SPECS]
    assert keys == want
    assert report.n_failed == 0
    assert set(trained) == set(want)
    for r in report.rows:
        assert r.ok and r.rmse_mean is not None and r.rmse_joint is not None
        assert r.n_train == 16 and r.n_test == 4
    # KINDS ordering is what the sort leans on.
    assert [k for k in KINDS if k in ("knn", "linreg", "ridge")] == ["knn", "linreg", "ridge"]


def test_benchmark_prepares_each_pollutant_once(monkeypatch):
    from airpolicy import evaluation

    calls = {"build_supervised": 0, "split": 0, "fit_scaling": 0}
    for name in calls:
        original = getattr(evaluation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    cities = [make_city("a", n_periods=21, seed=11)]
    pollutants = [PollutantKind.CO, PollutantKind.O3, PollutantKind.SO2]
    report, _ = run_benchmark(cities, pollutants, FAST_SPECS, SplitSpec(),
                              scaling_mode="z_score")
    assert report.n_failed == 0 and len(report.rows) == 9
    assert calls == {"build_supervised": 3, "split": 3, "fit_scaling": 3}


def test_benchmark_non_finite_predictions_fail_the_cell(tmp_path):
    cities = [make_city("a", n_periods=41, seed=11)]
    specs = [ModelSpec(kind="mgbr", hyperparameters={"eta0": 1000.0}),
             ModelSpec(kind="linreg")]
    report, trained = run_benchmark(cities, [PollutantKind.CO], specs, SplitSpec())
    cell = report.cell(PollutantKind.CO, "mgbr")
    assert not cell.ok and "not finite" in cell.error
    assert cell.rmse_mean is None and cell.rmse_joint is None
    assert report.cell(PollutantKind.CO, "linreg").ok
    assert set(trained) == {(PollutantKind.CO, "linreg")}
    json.loads(_report_text(report, tmp_path), parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _report_text(report, tmp_path, config_echo=None) -> str:
    """The text ``write_report_json`` writes for ``report``."""
    path = tmp_path / "report.json"
    write_report_json(report, str(path), config_echo=config_echo)
    return path.read_text()


def test_benchmark_records_failures_as_cells():
    # City carries CO only, so the O3 build fails in every O3 cell.
    cities = [make_city("a", n_periods=21, seed=11,
                        pollutants=(PollutantKind.CO,))]
    report, trained = run_benchmark(
        cities, [PollutantKind.CO, PollutantKind.O3], FAST_SPECS, SplitSpec()
    )
    assert report.n_failed == 3
    for r in report.rows:
        if r.pollutant is PollutantKind.O3:
            assert not r.ok and r.error != "" and r.rmse_mean is None
        else:
            assert r.ok
    assert all(p is PollutantKind.CO for p, _ in trained)
    cell = report.cell(PollutantKind.O3, "linreg")
    assert "O3" in cell.error
    with pytest.raises(KeyError):
        report.cell(PollutantKind.NO2, "linreg")


def test_relative_error_null_when_targets_zero(tmp_path):
    cities = [make_city("a", n_periods=16, seed=3,
                        pollutant_fn=lambda t, j: (0.0, 0.001))]
    report, _ = run_benchmark(cities, [PollutantKind.CO],
                              [ModelSpec(kind="knn", hyperparameters={"k": 3})], SplitSpec())
    cell = report.cell(PollutantKind.CO, "knn")
    assert cell.ok and cell.rmse_mean is not None
    assert cell.relative_error is None
    row = json.loads(_report_text(report, tmp_path), parse_constant=_reject_constant)["rows"][0]
    assert row["relative_error"] is None and row["rmse_mean"] == cell.rmse_mean
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    with open(path, newline="") as fh:
        assert next(csv.DictReader(fh))["relative_error"] == ""
    assert "relative error --)" in render_benchmark_summary(report)


ALL_KINDS_LIGHT = [
    ModelSpec(kind=kind, hyperparameters={"rfr": {"n_trees": 2}, "madab": {"estimators": 2},
                                          "dnn": {"epochs": 1}}.get(kind, {}))
    for kind in KINDS
]


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("Singular matrix"),
                                 FloatingPointError("overflow encountered in exp")],
                         ids=lambda e: type(e).__name__)
def test_learner_numeric_errors_fail_only_their_cell(monkeypatch, exc):
    from airpolicy.models import base

    fit_ridge = base._FITTERS["ridge"]
    calls = []

    def fails_first(spec, X, Y):  # the first pollutant's ridge cell only
        calls.append(spec.kind)
        if len(calls) == 1:
            raise exc
        return fit_ridge(spec, X, Y)

    monkeypatch.setitem(base._FITTERS, "ridge", fails_first)
    cities = [make_city("a", n_periods=41, seed=11)]
    report, trained = run_benchmark(cities, list(POLLUTANTS), ALL_KINDS_LIGHT, SplitSpec())
    assert len(report.rows) == 36 and report.n_failed == 1
    cell = report.cell(PollutantKind.CO, "ridge")
    assert cell.error == f"ridge: {type(exc).__name__}: {exc}"
    assert cell.rmse_mean is None
    assert all(r.ok for r in report.rows if r is not cell)
    assert len(trained) == 35


# The city lacks O3, so O3's preparation fails; mgbr diverges on the other
# three. Dealt round-robin, O3 and one diverging mgbr cell fall in a
# worker's share for every jobs > 1 (O3 is always share 1).
POOL_SPECS = [ModelSpec(kind="knn", hyperparameters={"k": 3}),
              ModelSpec(kind="rfr", hyperparameters={"n_trees": 2}),
              ModelSpec(kind="linreg"),
              ModelSpec(kind="mgbr", hyperparameters={"eta0": 1000.0}),
              ModelSpec(kind="dnn", hyperparameters={"epochs": 1})]


def _pool_city():
    return make_city("a", n_periods=41, seed=11,
                     pollutants=(PollutantKind.CO, PollutantKind.NO2, PollutantKind.SO2))


def test_benchmark_results_do_not_depend_on_jobs(deadline, no_child_left):
    runs = {}
    for jobs in (1, 2, 3, 8):
        report, trained = run_benchmark([_pool_city()], list(POLLUTANTS), POOL_SPECS,
                                        SplitSpec(), scaling_mode="z_score", jobs=jobs)
        runs[jobs] = report, {key: model_to_json(m) for key, m in trained.items()}
    report, models = runs[1]
    assert len(report.rows) == 20 and report.n_failed == 5 + 3
    assert not report.cell(PollutantKind.O3, "knn").ok
    assert "not finite" in report.cell(PollutantKind.SO2, "mgbr").error
    assert len(models) == 12
    for jobs in (2, 3, 8):
        assert runs[jobs][0] == report, jobs
        assert list(runs[jobs][1].items()) == list(models.items()), jobs


def _fit_failing_on(pollutant, fail):
    from airpolicy import models

    fit = models.fit

    def failing(spec, trains):
        if spec.kind == "linreg" and any(t.pollutant is pollutant for t in trains):
            fail()
        return fit(spec, trains)

    return failing


def _raise_boom():
    raise RuntimeError("boom")


def _die():
    os._exit(3)


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail, says", [(_raise_boom, "(?s)NO2 failed:.*RuntimeError: boom"),
                                        (_die, "NO2 ended with 3 results unsent"),
                                        (_kill, "NO2 ended with 3 results unsent")],
                         ids=["raises", "exits", "killed"])
def test_benchmark_worker_failure_raises_in_parent(monkeypatch, deadline, no_child_left,
                                                   fail, says):
    from airpolicy import models

    # NO2 is a worker's whole share at jobs=3; its linreg cell is the second of four.
    monkeypatch.setattr(models, "fit", _fit_failing_on(PollutantKind.NO2, fail))
    cities = [make_city("a", n_periods=21, seed=11)]
    specs = FAST_SPECS + [ModelSpec(kind="lasso")]
    with pytest.raises(RuntimeError, match=says):
        run_benchmark(cities, list(POLLUTANTS), specs, SplitSpec(), jobs=3)


def test_benchmark_worker_killed_mid_record_raises_in_parent(monkeypatch, deadline,
                                                             no_child_left):
    dump = pickle.dump
    dumped = []

    def dump_then_die(obj, out, protocol):
        # Each worker's second result stops halfway, as if killed while writing
        # it; the O3 worker is read back first.
        if dumped:
            data = pickle.dumps(obj, protocol=protocol)
            out.write(data[:len(data) // 2])
            out.flush()
            _kill()
        dumped.append(obj)
        dump(obj, out, protocol=protocol)

    monkeypatch.setattr(pickle, "dump", dump_then_die)
    cities = [make_city("a", n_periods=21, seed=11)]
    specs = FAST_SPECS + [ModelSpec(kind="lasso")]
    with pytest.raises(RuntimeError, match="O3 ended with 3 results unsent"):
        run_benchmark(cities, list(POLLUTANTS), specs, SplitSpec(), jobs=3)


def test_benchmark_parent_failure_reaps_workers(monkeypatch, deadline, no_child_left):
    from airpolicy import models

    monkeypatch.setattr(models, "fit", _fit_failing_on(PollutantKind.CO, _raise_boom))
    cities = [make_city("a", n_periods=21, seed=11)]
    with pytest.raises(RuntimeError, match="^boom$"):
        run_benchmark(cities, list(POLLUTANTS), POOL_SPECS, SplitSpec(), jobs=4)


def test_benchmark_rejects_jobs_below_one():
    with pytest.raises(DomainError, match="jobs must be at least 1"):
        run_benchmark([make_city("a", n_periods=21, seed=11)], [PollutantKind.CO],
                      FAST_SPECS, SplitSpec(), jobs=0)


def test_scaling_mode_scores_in_original_units():
    # Linear target: linreg recovers it exactly with or without scaling,
    # so RMSE must come back near zero in original units either way.
    def pfn(t, j):
        return (0.05 + 0.004 * t, 0.002 + 0.0001 * t)

    cities = [make_city("a", n_periods=26, seed=9, pollutant_fn=pfn)]
    spec = [ModelSpec(kind="linreg")]
    plain, _ = run_benchmark(cities, [PollutantKind.CO], spec, SplitSpec())
    scaled, _ = run_benchmark(cities, [PollutantKind.CO], spec, SplitSpec(),
                              scaling_mode="z_score")
    for rep in (plain, scaled):
        cell = rep.cell(PollutantKind.CO, "linreg")
        assert cell.ok
        assert cell.rmse_mean < 1e-8
        assert cell.rmse_joint < 1e-8


def test_report_csv_round_trip(tmp_path):
    rows = (
        EvalCell(pollutant=PollutantKind.CO, kind="linreg", rmse_mean=0.1,
                 rmse_std=0.2, rmse_joint=0.15, relative_error=0.01,
                 n_train=10, n_test=3),
        EvalCell(pollutant=PollutantKind.O3, kind="dnn", error="boom"),
    )
    report = EvalReport(rows=rows)
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["pollutant", "kind", "scope", "rmse_mean", "rmse_std",
                      "rmse_joint", "relative_error", "n_train", "n_test"]
    assert got[1] == ["CO", "linreg", "pooled", "0.1", "0.2", "0.15", "0.01",
                      "10", "3"]
    # A failed cell serializes its numeric fields as empty strings.
    assert got[2] == ["O3", "dnn", "pooled", "", "", "", "", "0", "0"]
    assert len(got) == 3


def test_report_json_shape(tmp_path):
    report = EvalReport(rows=(
        EvalCell(pollutant=PollutantKind.CO, kind="knn", rmse_mean=0.5,
                 rmse_std=0.25, rmse_joint=0.4, relative_error=0.02,
                 n_train=8, n_test=2),
    ))
    blob = json.loads(_report_text(report, tmp_path, config_echo={"seed": 7}))
    assert blob["config"] == {"seed": 7}
    row = blob["rows"][0]
    assert row["pollutant"] == "CO" and row["kind"] == "knn"
    assert row["rmse_mean"] == 0.5 and row["error"] == ""
    # Sorted keys keep the serialization byte-stable.
    assert list(row) == sorted(row)
    assert json.loads(_report_text(report, tmp_path))["config"] == {}


def test_pollutant_canonical_order_matches_report_sort():
    assert [p.value for p in POLLUTANTS] == ["CO", "O3", "NO2", "SO2"]
