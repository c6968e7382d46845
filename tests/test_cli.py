"""End-to-end command-line flows on synthetic inputs."""

import csv
import datetime as dt
import filecmp
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from airpolicy.cli import (
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PARTIAL,
    _collect_grids,
    _forecast,
    build_parser,
    main,
)
from airpolicy.dataset import (
    MEASURES,
    MeasureKind,
    PollutantKind,
    read_city_csv,
    write_city_csv,
)
from airpolicy.ingest import write_grid
from airpolicy.models import ModelSpec, fit_arrays

from conftest import make_city

SMALL_KINDS = '--set=models.kinds=["knn","linreg"]'
PREDICT_LINREG = "--set=predict.kind=linreg"


@pytest.fixture(autouse=True)
def _no_out_env(monkeypatch):
    monkeypatch.delenv("AIRPOLICY_OUT", raising=False)


def run_synth(tmp_path, seed=1, profile="linear"):
    root = str(tmp_path / "synth")
    assert main(["synth", "--out", root, "--profile", profile,
                 "--seed", str(seed)]) == EXIT_OK
    return os.path.join(root, "config.json")


def test_full_pipeline(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")

    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    ingest_lines = [ln for ln in lines if ln.startswith("city_")]
    assert len(ingest_lines) == 4
    assert ingest_lines[0].startswith("city_a: 183 periods")
    for name in ("city_a", "city_b", "city_c", "city_d"):
        assert os.path.isfile(os.path.join(out, "cities", f"{name}.csv"))

    assert main(["screen", "--config", cfg, "--out", out]) == EXIT_OK
    screen_out = capsys.readouterr().out
    assert screen_out.rstrip().endswith("all measures CoD < 0.20: no")
    for fname in ("screen.csv", "screen_summary.txt",
                  "fig_R2_bars.csv", "fig_R2_bars.json",
                  "fig_DTW_bars.csv", "fig_DTW_bars.json"):
        assert os.path.isfile(os.path.join(out, fname)), fname

    assert main(["benchmark", "--config", cfg, "--out", out,
                 SMALL_KINDS, PREDICT_LINREG]) == EXIT_OK
    bench_out = capsys.readouterr().out
    assert "cells: 8 total, 0 failed" in bench_out
    assert "next-period forecast" in bench_out
    for fname in ("report.csv", "report.json",
                  "fig_RMSE_CO_O3.csv", "fig_RMSE_NO2_SO2.csv"):
        assert os.path.isfile(os.path.join(out, fname)), fname
    models_dir = os.path.join(out, "models")
    assert sorted(os.listdir(models_dir)) == [
        f"{p}_{k}.json" for p in ("CO", "NO2", "O3", "SO2")
        for k in ("knn", "linreg")
    ]
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert len(report["rows"]) == 8
    assert report["config"]["models"]["kinds"] == ["knn", "linreg"]

    assert main(["predict", "--config", cfg, "--out", out,
                 SMALL_KINDS, PREDICT_LINREG]) == EXIT_OK
    predict_out = capsys.readouterr().out
    assert predict_out.count("next-period forecast") == 4
    forecast = os.path.join(out, "forecast.csv")
    assert os.path.isfile(forecast)
    with open(forecast) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == ("pollutant,kind,city,period,current_mean,current_std,"
                       "forecast_mean,forecast_std")
    assert len(rows) == 5
    assert rows[1].startswith("CO,linreg,city_d,182,")


def _city_complete_through(name, last):
    """A 2020 city whose pollutant densities are absent after period ``last``."""
    return make_city(name, pollutant_fn=lambda t, j: (0.02, 0.001) if t <= last
                     else (math.nan, math.nan))


@pytest.mark.parametrize("order, want", [
    (("a", "b"), ("a", 182)),
    (("b", "a"), ("a", 182)),
    (("a", "c"), ("c", 182)),
], ids=["newest-first", "newest-last", "tie-takes-later"])
def test_forecast_uses_the_newest_complete_record(order, want):
    cities = {"a": _city_complete_through("a", 182), "b": _city_complete_through("b", 100),
              "c": _city_complete_through("c", 182)}
    X, Y = np.random.default_rng(5).normal(size=(30, 10)), np.ones((30, 2))
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y)
    city, period, x, _ = _forecast(model, [cities[c] for c in order], PollutantKind.CO)
    assert (city, period) == want
    np.testing.assert_array_equal(x, cities[city].features(PollutantKind.CO)[period])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_non_finite_predictions_are_failed_cells(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["benchmark", "--config", cfg, "--out", out,
                 '--set=models.kinds=["mgbr","linreg"]',
                 '--set=models.overrides={"mgbr":{"eta0":1000}}']) == EXIT_PARTIAL
    assert "cells: 8 total, 4 failed" in capsys.readouterr().out
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    failed = [r for r in report["rows"] if r["error"]]
    assert [r["kind"] for r in failed] == ["mgbr"] * 4
    assert all(r["rmse_joint"] is None for r in failed)
    for fname in ("fig_RMSE_CO_O3.json", "fig_RMSE_NO2_SO2.json"):
        assert os.path.isfile(os.path.join(out, fname)), fname


def _cli_input_error(argv):
    """Run the CLI in a subprocess; assert exit 2 with one stderr line and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "airpolicy.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    return proc.stderr


def test_malformed_model_file_is_exit_2_without_traceback(tmp_path):
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    for cmd in ("ingest", "benchmark"):
        assert main([cmd, "--config", cfg, "--out", out,
                     '--set=models.kinds=["linreg"]']) == EXIT_OK
    path = os.path.join(out, "models", "CO_linreg.json")
    with open(path) as fh:
        good = fh.read()
    no_spec = json.loads(good)
    del no_spec["spec"]
    for text in (good[:len(good) // 2], json.dumps(no_spec)):
        with open(path, "w") as fh:
            fh.write(text)
        assert path in _cli_input_error(["predict", "--config", cfg, "--out", out,
                                         PREDICT_LINREG])


@pytest.fixture(scope="module")
def dnn_run(tmp_path_factory):
    """A benchmark run whose models/ holds one-epoch dnn models."""
    tmp_path = tmp_path_factory.mktemp("dnn")
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    for cmd in ("ingest", "benchmark"):
        assert main([cmd, "--config", cfg, "--out", out, '--set=models.kinds=["dnn"]',
                     '--set=models.overrides={"dnn":{"epochs":1}}']) == EXIT_OK
    return cfg, out


def _dnn_params_edited(edit):
    def text(doc):
        edit(doc["params"])
        return json.dumps(doc)
    return text


@pytest.mark.parametrize("text, says", [
    (_dnn_params_edited(lambda p: p["layers"][0].update(W=p["layers"][0]["W"][:3])),
     "dnn layer 0 W must be 10 x 20 finite numbers"),
    (_dnn_params_edited(lambda p: p.update(layers=p["layers"][:2])),
     "dnn model must have 4 layers"),
    (_dnn_params_edited(lambda p: p.update(layers=[])), "dnn model must have 4 layers"),
    (_dnn_params_edited(lambda p: p["layers"][3].update(b=[0.0])),
     "dnn layer 3 b must be 2 finite numbers"),
    (_dnn_params_edited(lambda p: p.update(in_span=[1.0])),
     "dnn in_span must be 10 finite numbers"),
    (_dnn_params_edited(lambda p: p["layers"][1]["W"][0].__setitem__(0, None)),
     "dnn layer 1 W must be 20 x 10 finite numbers"),
    (_dnn_params_edited(lambda p: p["tg_span"].__setitem__(0, 0.0)),
     "dnn in_span and tg_span must be positive"),
    (lambda doc: "[" * 100_000, "RecursionError"),
    (_dnn_params_edited(lambda p: p["layers"][0]["W"][0].__setitem__(0, "0.5")),
     "dnn layer 0 W must be 10 x 20 finite numbers"),
    (_dnn_params_edited(lambda p: p["in_span"].__setitem__(0, True)),
     "dnn in_span must be 10 finite numbers"),
], ids=["W-3-rows", "two-layers", "no-layers", "b-1-value", "in_span-1-value",
        "null-weight", "zero-span", "deep-nesting", "string-weight", "true-in-span"])
def test_malformed_dnn_model_file_is_exit_2_without_traceback(dnn_run, text, says):
    cfg, out = dnn_run
    path = os.path.join(out, "models", "CO_dnn.json")
    with open(path) as fh:
        good = fh.read()
    try:
        with open(path, "w") as fh:
            fh.write(text(json.loads(good)))
        stderr = _cli_input_error(["predict", "--config", cfg, "--out", out,
                                   "--set=predict.kind=dnn"])
    finally:
        with open(path, "w") as fh:
            fh.write(good)
    assert path in stderr and says in stderr


@pytest.fixture(scope="module")
def model_run(tmp_path_factory):
    """A benchmark run whose models/ holds tree, knn and linear models."""
    tmp_path = tmp_path_factory.mktemp("models")
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    for cmd in ("ingest", "benchmark"):
        assert main([cmd, "--config", cfg, "--out", out,
                     '--set=models.kinds=["dtr","rfr","madab","knn","linreg","mgbr"]',
                     '--set=models.overrides={"rfr":{"n_trees":3}}']) == EXIT_OK
    return cfg, out


def _tree(doc):
    return doc["params"]["tree"]


def _params(doc):
    return doc["params"]


def _set(name, i, value):
    """An edit that sets entry ``i`` of the dtr tree's array ``name``."""
    return lambda d: _tree(d)[name].__setitem__(i, value)


BAD_FEATURE = "tree feature must be n integers in [-1, 10)"
BAD_ROOT = "tree node 0: a leaf must have no children, and a split node i"


def _leaf_child(d):
    """Give the first leaf a child."""
    t = _tree(d)
    leaf = t["feature"].index(-1)
    t["left"][leaf] = len(t["feature"]) - 1


@pytest.mark.parametrize("kind, edit, says", [
    ("dtr", _set("feature", 0, "x"), BAD_FEATURE),
    ("dtr", _set("feature", 0, 1.0), BAD_FEATURE),
    ("dtr", _set("feature", 0, True), BAD_FEATURE),
    ("dtr", _set("feature", 0, 99), BAD_FEATURE),
    ("dtr", _set("feature", 0, 10), BAD_FEATURE),
    ("dtr", _set("feature", 0, -2), BAD_FEATURE),
    ("dtr", _leaf_child, "a leaf must have no children"),
    ("dtr", _set("right", 0, -1), BAD_ROOT),
    ("dtr", _set("left", 0, {}), "tree left must be"),
    ("dtr", _set("left", 0, 2), BAD_ROOT),
    ("dtr", _set("right", 0, 1), BAD_ROOT),
    ("dtr", lambda d: _tree(d)["right"].__setitem__(0, len(_tree(d)["right"])),
     "tree right must be"),
    ("dtr", lambda d: _tree(d)["left"].append(-1), "tree left must be"),
    ("dtr", lambda d: _tree(d).update(feature=[], threshold=[], left=[], right=[], value=[]),
     "a tree must have at least one node"),
    ("dtr", _set("value", 1, [1.0]), "tree value must be"),
    ("dtr", _set("threshold", 0, None), "tree threshold must be"),
    ("dtr", _set("threshold", 0, float("inf")), "tree threshold must be"),
    ("dtr", lambda d: _tree(d)["value"][-1].__setitem__(0, float("nan")),
     "tree value must be"),
    ("dtr", lambda d: _tree(d).pop("threshold"),
     "a tree must be an object of exactly the arrays feature, threshold, left, right, value"),
    ("dtr", lambda d: _tree(d).update(depth=[5]), "a tree must be an object of exactly"),
    ("rfr", lambda d: _params(d).update(trees=[]), "rfr trees must be a non-empty list"),
    ("madab", lambda d: _params(d).update(columns=_params(d)["columns"][:1]),
     "madab columns must be a list of 2"),
    ("madab", lambda d: _params(d)["columns"][1].update(trees=[], alphas=[]),
     "madab column 1 must have at least one tree"),
    ("madab", lambda d: _params(d)["columns"][0]["alphas"].append(1.0),
     "madab column 0 alphas must be"),
    ("knn", lambda d: _params(d)["lo"].pop(), "knn lo must be 10 finite numbers"),
    ("knn", lambda d: _params(d)["span"].__setitem__(0, 0.0), "knn span must be positive"),
    ("knn", lambda d: _params(d)["train_targets"].pop(), "must have equal row counts"),
    ("knn", lambda d: _params(d).update(train_scaled=_params(d)["train_scaled"][:4],
                                        train_targets=_params(d)["train_targets"][:4]),
     "of at least k = 5, got 4 and 4"),
    ("knn", lambda d: d["spec"]["hyperparameters"].update(k=2.5),
     "hyperparameter 'k' must be an integer"),
    ("linreg", lambda d: _params(d)["beta"].pop(), "linreg beta must be 11 x 2 finite numbers"),
    ("mgbr", lambda d: _params(d)["mu"].pop(), "mgbr mu must be 10 finite numbers"),
    ("mgbr", lambda d: _params(d)["sd"].__setitem__(0, 0.0), "mgbr sd must be positive"),
    ("mgbr", lambda d: _params(d)["W"][0].__setitem__(0, "1"), "mgbr W must be 10 x 2 finite"),
    ("mgbr", lambda d: _params(d)["b"].append(0.0), "mgbr b must be 2 finite numbers"),
    ("linreg", lambda d: d.update(input_dim=0), "input_dim and output_dim must be positive"),
    ("linreg", lambda d: d.update(output_dim="2"), "input_dim and output_dim must be positive"),
    ("linreg", lambda d: d["scaling"]["input_offset"].pop(),
     "scaling input_offset must be 10 finite numbers"),
    ("linreg", lambda d: d["scaling"].update(fitted="yes"), "scaling fitted must be true or false"),
], ids=["dtr-feature-x", "dtr-feature-float", "dtr-feature-bool", "dtr-feature-99",
        "dtr-feature-10", "dtr-feature-minus-2", "dtr-leaf-with-child", "dtr-one-child",
        "dtr-child-not-object", "dtr-left-not-next", "dtr-right-not-after-left",
        "dtr-right-past-end", "dtr-lengths-differ", "dtr-empty", "dtr-value-1-element",
        "dtr-threshold-null", "dtr-threshold-inf", "dtr-value-nan", "dtr-missing-key",
        "dtr-extra-key", "rfr-no-trees",
        "madab-1-column", "madab-column-no-trees", "madab-extra-alpha", "knn-lo-9-values",
        "knn-zero-span", "knn-rows-differ", "knn-rows-below-k", "knn-fractional-k",
        "linreg-beta-10-rows", "mgbr-mu-9-values", "mgbr-zero-sd", "mgbr-string-weight",
        "mgbr-b-3-values", "input-dim-0", "output-dim-string", "scaling-offset-9-values",
        "scaling-fitted-string"])
def test_malformed_model_contents_are_exit_2_without_traceback(model_run, kind, edit, says):
    cfg, out = model_run
    path = os.path.join(out, "models", f"CO_{kind}.json")
    with open(path) as fh:
        good = fh.read()
    doc = json.loads(good)
    edit(doc)
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))
        stderr = _cli_input_error(["predict", "--config", cfg, "--out", out,
                                   f"--set=predict.kind={kind}"])
    finally:
        with open(path, "w") as fh:
            fh.write(good)
    assert path in stderr and says in stderr


def test_unwritable_out_dir_is_exit_2_without_traceback(tmp_path):
    cfg = run_synth(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    _cli_input_error(["ingest", "--config", cfg, "--out", str(afile / "x")])


def test_wrongly_typed_config_value_is_exit_2_without_traceback(tmp_path):
    cfg = run_synth(tmp_path)
    says = _cli_input_error(["benchmark", "--config", cfg, "--out", str(tmp_path / "run"),
                             '--set=models.overrides.knn.k="3"'])
    assert "models.overrides.knn.k must be an integer" in says


def _named(name):
    """The config with its second city renamed: the first one would be written first."""
    def text(doc):
        doc["cities"][1]["name"] = name
        return json.dumps(doc).encode()
    return text


def _centered(doc):
    """The config with the city box key that configs no longer take."""
    doc["cities"][1]["center"] = [11.0, 45.0]
    return json.dumps(doc).encode()


@pytest.mark.parametrize("text, sets, says", [
    (lambda doc: b"\xff\xfe{}", [], "is not valid JSON"),
    (lambda doc: b"[]", ["seed=1"], "config root must be an object"),
    (lambda doc: b'"x"', ["a.b=1"], "config root must be an object"),
    (lambda doc: json.dumps(doc).encode(), ["year=10000"], "year must lie in 1..9999"),
    (lambda doc: json.dumps(doc).encode(), ["year=0"], "year must lie in 1..9999"),
    (lambda doc: json.dumps(doc).encode(), ['models.overrides={"knn":{"k":-1}}'],
     "knn: hyperparameter 'k' must be a number >= 1"),
    (lambda doc: json.dumps(doc).encode(), ["models.overrides.knn.k=0"], "'k' must be"),
    (lambda doc: json.dumps(doc).encode(), ["models.overrides.dnn.batch_size=0"],
     "'batch_size' must be"),
    (lambda doc: json.dumps(doc).encode(), ["models.overrides.madab.estimators=0"],
     "'estimators' must be"),
    (_named("a/b"), [], "cities[1].name must be a plain file name"),
    (_named("../../escape"), [], "cities[1].name must be a plain file name"),
    (_named("x\0y"), [], "cities[1].name must be a plain file name"),
    (_named("city_a"), [], "duplicate city name 'city_a'"),
    (lambda doc: json.dumps(doc).encode(), ['pollutants=["CO","CO"]'],
     "duplicate pollutant 'CO'"),
    (lambda doc: json.dumps(doc).encode(), ['models.kinds=["knn","knn"]'],
     "duplicate model kind 'knn'"),
    (_centered, [], "unknown keys in cities[1]: center"),
], ids=["not-utf8", "list-root", "string-root", "year-10000", "year-0", "knn-k-negative",
        "knn-k-0", "dnn-batch-0", "madab-estimators-0", "slash-name", "escaping-name",
        "nul-name", "duplicate-city", "duplicate-pollutant", "duplicate-kind", "center-key"])
def test_bad_config_is_exit_2_and_writes_nothing(tmp_path, text, sets, says):
    with open(run_synth(tmp_path, seed=0)) as fh:
        doc = json.load(fh)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text(doc))
    out = tmp_path / "run"
    assert says in _cli_input_error(["ingest", "--config", str(cfg), "--out", str(out),
                                     *(f"--set={s}" for s in sets)])
    assert not out.exists()
    assert not list(tmp_path.glob("*.csv"))  # ../../escape would land here


def _edit_line(path, line, edit):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    edited = edit(lines[line - 1])
    assert edited != lines[line - 1]
    lines[line - 1] = edited
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


# The bad file belongs to the 4th city: an ingest that wrote as it went
# would leave the first three cities behind.
@pytest.mark.parametrize("fname, line, old, new, says", [
    ("policy.csv", 3, b"2020-01-02", b"2020-13-04", "policy.csv, line 3: bad date"),
    ("policy.csv", 3, b"2020-01-02", b"2020-01-01",
     "policy.csv, line 3: duplicate date 2020-01-01"),
    ("policy.csv", 3, b"02,1,", b"02,9,",
     "policy.csv, line 3: RE_IN_MOV: ordinal level 9 outside [0, 4]"),
    ("policy.csv", 3, b",0,1,", b"," + b"1" + b"0" * 400 + b",1,",
     "policy.csv, line 3: C_PUB_TRAN: ordinal level 1000"),
    ("densities.csv", 3, b",CO,", b",XX,", "densities.csv, line 3: 'XX'"),
    ("densities.csv", 3, b",CO,0.", b",CO,abc", "densities.csv, line 3: could not"),
    ("densities.csv", 3, b",CO,", b",\xff\xfe,", "densities.csv, line 3: bytes"),
    ("densities.csv", 1, b",std", b"", "missing columns"),
    ("densities.csv", 3, b"0.040318576887614484", b"nan", "densities.csv, line 3: mean nan"),
    ("densities.csv", 3, b",0.0048", b",-0.0048", "densities.csv, line 3: std -0.0048"),
], ids=["bad-date", "duplicate-date", "level-9", "level-1e400", "unknown-gas", "bad-mean",
        "undecodable", "missing-column", "nan-mean", "negative-std"])
def test_malformed_ingest_input_is_exit_2_and_writes_nothing(tmp_path, fname, line,
                                                             old, new, says):
    cfg = run_synth(tmp_path, seed=0)
    path = os.path.join(os.path.dirname(cfg), "city_d", fname)
    _edit_line(path, line, lambda b: b.replace(old, new, 1))
    out = str(tmp_path / "run")
    assert says in _cli_input_error(["ingest", "--config", cfg, "--out", out])
    assert not os.path.exists(os.path.join(out, "cities"))


def _bad_period(path):
    _edit_line(path, 5, lambda b: b.replace(b"3,", b"x,", 1))


def _cut_row(path):
    _edit_line(path, 5, lambda b: b[:20])


def _not_new_year(path):
    # The year is that of row 0's start date, which must be a 1 January.
    _edit_line(path, 2, lambda b: b.replace(b"2020-01-01", b"2020-01-03", 1))


def _no_periods(path):
    with open(path) as fh:
        header = fh.readline()
    with open(path, "w") as fh:
        fh.write(header)


def _skip_period(path):
    _edit_line(path, 5, lambda b: b"")


def _nan_cell(path):
    _edit_line(path, 5, lambda b: b",".join([*b.split(b",")[:2], b"nan", *b.split(b",")[3:]]))


@pytest.mark.parametrize("command, corrupt, says", [
    ("screen", _bad_period, "city_b.csv, line 5: invalid literal"),
    ("benchmark", _cut_row, "city_b.csv, line 5: 4 cells"),
    ("screen", _not_new_year, "city_b.csv, line 2: start date 2020-01-03 is not that of period 0"),
    ("benchmark", _no_periods, "city_b.csv: no periods"),
    ("screen", _skip_period, "city_b.csv, line 6: period 4 where period 3 belongs"),
    ("predict", _nan_cell, "city_b.csv, line 5: non-finite value 'nan'"),
], ids=["bad-period", "cut-row", "no-year", "no-periods", "skip-period", "nan-cell"])
def test_malformed_city_file_is_exit_2(tmp_path, capsys, command, corrupt, says):
    cfg = run_synth(tmp_path, seed=0)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    corrupt(os.path.join(out, "cities", "city_b.csv"))
    assert says in _cli_input_error([command, "--config", cfg, "--out", out])


def test_overflowing_density_means_screen_at_scale_and_fail_benchmark_cells(tmp_path):
    # Two periods at 1.7e308 pass ingest. Screening scales each series by a
    # power of two before its moments, so those cells hold finite values;
    # benchmark scaling of the column overflows, and CO's cells name it.
    cfg = run_synth(tmp_path, seed=0)
    path = os.path.join(os.path.dirname(cfg), "city_d", "densities.csv")
    for line in (2, 3):
        _edit_line(path, line, lambda b: b",".join([*b.split(b",")[:2], b"1.7e308",
                                                    *b.split(b",")[3:]]))
    out = str(tmp_path / "run")
    for command, code in (("ingest", EXIT_OK), ("screen", EXIT_OK),
                          ("benchmark", EXIT_PARTIAL)):
        proc = subprocess.run([sys.executable, "-m", "airpolicy.cli", command,
                               "--config", cfg, "--out", out, SMALL_KINDS],
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    with open(os.path.join(out, "screen.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    scaled = [r for r in rows if r["pollutant"] == "CO" and r["city"] in ("city_d", "pooled")]
    assert len(scaled) == 16
    assert all(-1.0 < float(r["r"]) < 1.0 and math.isfinite(float(r["dtw_distance"]))
               for r in scaled)
    assert not [r for r in rows if r["r"] == "-1.0"]
    with open(os.path.join(out, "report.json")) as fh:
        cells = json.load(fh)["rows"]
    assert [r["error"] for r in cells if r["pollutant"] == "CO"] == [
        "scaling column CO_mean overflows float64"] * 2
    assert all(r["error"] == "" for r in cells if r["pollutant"] != "CO")


@pytest.mark.parametrize("platform", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
], ids=lambda env: "=".join(*env.items()))
def test_screen_csv_is_the_same_on_other_blas_cores_and_libm_variants(tmp_path, platform):
    """Pearson adds its products left to right, not through a BLAS dot, so
    screen.csv keeps its bytes whichever BLAS core or libm variant loads."""
    cfg = run_synth(tmp_path, seed=0)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK

    def screen(env):
        proc = subprocess.run([sys.executable, "-m", "airpolicy.cli", "screen",
                               "--config", cfg, "--out", out],
                              capture_output=True, env={**os.environ, **env})
        assert proc.returncode == EXIT_OK, proc.stderr
        with open(os.path.join(out, "screen.csv"), "rb") as fh:
            return fh.read()

    assert screen(platform) == screen({})


def test_benchmark_tracer_installs():
    # pipebench/tracing.py wraps package functions by attribute name; a
    # renamed attribute must fail here, not only in a traced benchmark run.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pipebench", "tracing.py")
    spec = importlib.util.spec_from_file_location("pipebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert patched
    originals = {}
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)


def test_missing_config_is_exit_2(capsys):
    assert main(["screen"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_absent_config_file_is_exit_2(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_bad_override_key_is_exit_2(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    capsys.readouterr()
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", "bogus=1"]) == EXIT_CONFIG
    assert "unknown keys" in capsys.readouterr().err
    # Nothing was created before validation failed.
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_synth_bad_noise_is_exit_2_and_writes_nothing(tmp_path, capsys, noise):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--noise", noise]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("input error: noise must be") and err.count("\n") == 1
    assert not out.exists()


def test_screen_before_ingest_is_exit_2(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    capsys.readouterr()
    assert main(["screen", "--config", cfg,
                 "--out", str(tmp_path / "fresh")]) == EXIT_CONFIG
    assert "run the ingest command first" in capsys.readouterr().err


def test_out_dir_env_and_flag_precedence(tmp_path, monkeypatch, capsys):
    cfg = run_synth(tmp_path)
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("AIRPOLICY_OUT", env_dir)
    assert main(["ingest", "--config", cfg]) == EXIT_OK
    assert os.path.isfile(os.path.join(env_dir, "cities", "city_a.csv"))
    flag_dir = str(tmp_path / "from_flag")
    assert main(["ingest", "--config", cfg, "--out", flag_dir]) == EXIT_OK
    assert os.path.isfile(os.path.join(flag_dir, "cities", "city_a.csv"))
    capsys.readouterr()


def test_ingest_is_deterministic(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["ingest", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["ingest", "--config", cfg, "--out", out2]) == EXIT_OK
    capsys.readouterr()
    for name in ("city_a", "city_b", "city_c", "city_d"):
        assert filecmp.cmp(os.path.join(out1, "cities", f"{name}.csv"),
                           os.path.join(out2, "cities", f"{name}.csv"),
                           shallow=False)


def test_ingest_skips_dates_outside_the_year(tmp_path, capsys):
    cfg = run_synth(tmp_path, seed=0)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["ingest", "--config", cfg, "--out", out1]) == EXIT_OK
    with open(os.path.join(os.path.dirname(cfg), "city_a", "densities.csv"), "a") as fh:
        fh.write("2021-01-01,CO,0.03,0.004\n")
    # A level out of range is ignored on a row of another year.
    with open(os.path.join(os.path.dirname(cfg), "city_a", "policy.csv"), "a") as fh:
        fh.write("2019-12-31," + ",".join(["9"] * len(MEASURES)) + "\n")
    assert main(["ingest", "--config", cfg, "--out", out2]) == EXIT_OK
    capsys.readouterr()
    names = sorted(os.listdir(os.path.join(out1, "cities")))
    assert len(names) == 4 and names == sorted(os.listdir(os.path.join(out2, "cities")))
    for name in names:
        assert filecmp.cmp(os.path.join(out1, "cities", name),
                           os.path.join(out2, "cities", name), shallow=False), name


def test_grid_files_outside_the_year_are_skipped(tmp_path):
    grid = np.array([[0.5]])
    os.makedirs(tmp_path / "CO")
    for name in ("2020-03-01", "2021-03-01"):
        write_grid(grid, str(tmp_path / "CO" / f"{name}.csv"))
    got = _collect_grids(str(tmp_path), 2020)
    assert [date for date, _ in got[PollutantKind.CO]] == [dt.date(2020, 3, 1)]


def _gappy_grid_config(root):
    """Seed-0 inputs of two cities with gaps and repeats: city_a on the grid
    route, some grid files removed and some periods given a second grid;
    city_b on its density CSV, rows removed and some periods given two or
    three rows; in both, policy rows and cells removed and a 2019 row whose
    out-of-range level the year filter drops."""
    from airpolicy.dataset import period_start_date
    from airpolicy.synth import generate

    res = generate(root, seed=0, emit_grids=True, n_cities=2)
    grids = os.path.join(res.city_dirs[0], "grids")
    for j, p in enumerate(PollutantKind):
        for t in (5 + j, 40, 41, 100):
            path = os.path.join(grids, p.value, f"{period_start_date(2020, t)}.csv")
            os.remove(path)
        for t in (10, 60 + j, 150):
            src = os.path.join(grids, p.value, f"{period_start_date(2020, t + 1)}.csv")
            dst = os.path.join(grids, p.value,
                               f"{period_start_date(2020, t) + dt.timedelta(days=1)}.csv")
            with open(src, "rb") as fin, open(dst, "wb") as fout:
                fout.write(fin.read())
    density = os.path.join(res.city_dirs[1], "densities.csv")
    with open(density) as fh:
        lines = fh.read().splitlines()
    kept = [ln for i, ln in enumerate(lines) if i == 0 or i % 17]
    repeats = []
    for ln in lines[20:700:37]:
        date, rest = ln.split(",", 1)
        next_day = dt.date.fromisoformat(date) + dt.timedelta(days=1)
        repeats += [f"{next_day},{rest}", f"{date},{rest.replace('0.0', '0.01', 1)}"]
    with open(density, "w") as fh:
        fh.write("\n".join(kept + repeats) + "\n")
    for city_dir in res.city_dirs:
        policy = os.path.join(city_dir, "policy.csv")
        with open(policy) as fh:
            lines = fh.read().splitlines()
        kept = [ln for i, ln in enumerate(lines) if i == 0 or i % 11]
        kept[30] = kept[30].rsplit(",", 2)[0] + ",,3"
        kept.append("2019-12-31," + ",".join(["9"] * len(MEASURES)))
        with open(policy, "w") as fh:
            fh.write("\n".join(kept) + "\n")
    with open(res.config_path) as fh:
        config = json.load(fh)
    del config["cities"][0]["density_csv"]
    config["cities"][0]["grids_dir"] = grids
    with open(res.config_path, "w") as fh:
        json.dump(config, fh)
    return res.config_path


# city_a reads its gases from grid files; its bad file stops ingest before
# city_b is built or anything is written.
@pytest.mark.parametrize("rel, body, says", [
    ("grids/CO/2020-01-05.csv", "0.1,0.2\n0.3\n", ", line 2: 1 cells, first row has 2"),
    ("grids/CO/2020-01-05.csv", "0.1,inf\n", ", line 1: infinite value"),
    ("grids/CO/2020-01-05.csv", "nan,nan\n", ": no valid pixels"),
    ("grids/CO/2020-1-5.csv", "0.1,0.2\n", ": file name is not an ISO date"),
    ("policy.csv", "date," + ",".join(m.value for m in MEASURES) + "\n",
     ": a header but no data rows"),
], ids=["value-count", "inf", "all-nodata", "bad-name", "header-only-policy"])
def test_malformed_grid_route_input_is_exit_2_and_writes_nothing(tmp_path, rel, body, says):
    cfg = _gappy_grid_config(str(tmp_path / "synth"))
    path = str(tmp_path / "synth" / "city_a" / rel)
    with open(path, "w") as fh:
        fh.write(body)
    out = str(tmp_path / "run")
    assert f"input error: {path}{says}\n" == _cli_input_error(
        ["ingest", "--config", cfg, "--out", out])
    assert not os.path.exists(os.path.join(out, "cities"))


@pytest.mark.parametrize("route, mode, digest", [
    ("csv", "per_grid",
     "c8cb2d7d6b5e61bc32111fbb2443bf9ec1d8289d884cbf12c06173acc3d13162"),
    ("grids", "per_grid",
     "bd8f079ec7f18e735ed7df1f72b3985981dba991a7fab6bcca4ad1b168d223d0"),
    ("grids", "pooled_pixels",
     "922c43a13e01ce0dc92b1bf3dd4fe1ce4d1365933f36c6a612c10663c53b0c2d"),
    ("old-sidecars", "per_grid",
     "bd8f079ec7f18e735ed7df1f72b3985981dba991a7fab6bcca4ad1b168d223d0"),
], ids=["density-csv", "grids-per-grid", "grids-pooled-pixels", "grids-with-old-sidecars"])
def test_seed_0_city_bytes_match_golden_digest(tmp_path, capsys, route, mode, digest):
    """The cities/*.csv that ingest writes from seed-0 inputs, pinned across
    rewrites of the period averaging. Grids once came with a JSON sidecar;
    one left beside each grid, its nodata a value the grids hold, changes
    nothing."""
    from airpolicy.synth import generate
    from test_synth import tree_sha256

    root = str(tmp_path / "synth")
    cfg = (generate(root, seed=0).config_path if route == "csv"
           else _gappy_grid_config(root))
    if route == "old-sidecars":
        for d, _, files in os.walk(os.path.join(root, "city_a", "grids")):
            for f in files:
                with open(os.path.join(d, f)) as fh:
                    first = float(fh.read().split(",")[0])
                with open(os.path.join(d, f + ".meta.json"), "w") as fh:
                    json.dump({"width": 3, "height": 1, "label": f, "nodata": first}, fh)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out,
                 f"--set=aggregation_mode={mode}"]) == EXIT_OK
    capsys.readouterr()
    assert tree_sha256(os.path.join(out, "cities")) == digest


def _run_into_closed_pipe(argv):
    """Run the CLI with stdout a pipe whose reader closed at once (`| true`)."""
    proc = subprocess.Popen([sys.executable, "-m", "airpolicy.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), stderr


def test_closed_stdout_is_exit_1_with_complete_outputs(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    piped, plain = str(tmp_path / "piped"), str(tmp_path / "plain")
    for command in ("ingest", "screen"):
        assert main([command, "--config", cfg, "--out", plain]) == EXIT_OK
        code, stderr = _run_into_closed_pipe([command, "--config", cfg, "--out", piped])
        assert (code, stderr) == (EXIT_PARTIAL, "")
    capsys.readouterr()
    names = ["screen.csv", "screen_summary.txt"] + [
        os.path.join("cities", f"{c}.csv") for c in ("city_a", "city_b", "city_c", "city_d")]
    for name in names:
        assert filecmp.cmp(os.path.join(plain, name), os.path.join(piped, name),
                           shallow=False), name


def test_jobs_below_one_is_exit_2():
    assert "--jobs must be at least 1, got 0" in _cli_input_error(["benchmark", "--jobs", "0"])


def test_jobs_defaults_to_the_usable_cpus():
    assert build_parser().parse_args(["screen"]).jobs == len(os.sched_getaffinity(0))


def test_screen_pollutant_without_usable_periods_is_exit_2_at_any_jobs(tmp_path):
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    # O3 and NO2 keep two periods per city, one short of what screening needs.
    # At --jobs 2 NO2 is in the command's own share and O3 in the worker's;
    # at --jobs 4 each is a worker's whole share.
    cities = os.path.join(out, "cities")
    for name in sorted(os.listdir(cities)):
        if name.endswith(".csv"):
            ds = read_city_csv(os.path.join(cities, name))
            stats = ds.stats.copy()
            stats[2:, 1:3] = np.nan
            write_city_csv(replace(ds, stats=stats), os.path.join(cities, name))
    before = sorted(os.listdir(out))
    for jobs in ("1", "2", "4"):
        says = _cli_input_error(["screen", "--config", cfg, "--out", out, "--jobs", jobs])
        assert says == "input error: no city has 3 complete periods for O3\n", jobs
        assert sorted(os.listdir(out)) == before


def test_failed_screen_cells_carry_their_error_note(tmp_path, capsys):
    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    path = os.path.join(out, "cities", "city_b.csv")
    ds = read_city_csv(path)
    measures = ds.measures.copy()
    measures[:, MEASURES.index(MeasureKind.RE_IN_MOV)] = 0.5
    write_city_csv(replace(ds, measures=measures), path)
    assert main(["screen", "--config", cfg, "--out", out]) == EXIT_PARTIAL
    with open(os.path.join(out, "screen.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [r for r in rows if r["error"]]
    assert sorted(r["pollutant"] for r in failed) == ["CO", "NO2", "O3", "SO2"]
    for r in failed:
        assert (r["city"], r["measure"], r["r"], r["p"]) == ("city_b", "RE_IN_MOV", "", "")
        assert "zero variance leaves the correlation undefined" in r["error"]


def test_interrupt_is_exit_130_without_traceback(tmp_path, capsys, monkeypatch):
    from airpolicy import evaluation

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    cfg = run_synth(tmp_path)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(evaluation, "run_benchmark", interrupted)
    assert main(["benchmark", "--config", cfg, "--out", out]) == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "interrupted\n"


def test_null_profile_screen_flag(tmp_path, capsys):
    cfg = run_synth(tmp_path, seed=9, profile="null")
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["screen", "--config", cfg, "--out", out]) == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith(
        "all measures CoD < 0.20: yes")


@pytest.mark.parametrize("flag", [["--config", "c.json"], ["--set", "seed=1"], ["--jobs", "2"]],
                         ids=["config", "set", "jobs"])
def test_synth_refuses_the_pipeline_flags(tmp_path, flag):
    out = tmp_path / "synth"
    proc = subprocess.run([sys.executable, "-m", "airpolicy.cli", "synth",
                           "--out", str(out), *flag], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    # The installed console script and `python -m` route share main().
    proc = subprocess.run(
        [sys.executable, "-m", "airpolicy.cli", "synth",
         "--out", str(tmp_path / "s"), "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "4 synthetic cities" in proc.stdout
