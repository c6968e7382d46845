"""End-to-end command-line flows on synthetic inputs."""

import datetime as dt
import filecmp
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from airpolicy.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, _collect_grids, main
from airpolicy.dataset import PollutantKind
from airpolicy.ingest import DensityGrid, write_grid

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
    report = json.load(open(os.path.join(out, "report.json")))
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


def test_unwritable_out_dir_is_exit_2_without_traceback(tmp_path):
    cfg = run_synth(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    _cli_input_error(["ingest", "--config", cfg, "--out", str(afile / "x")])


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
    ("densities.csv", 3, b",CO,", b",XX,", "densities.csv, line 3: 'XX'"),
    ("densities.csv", 3, b",CO,0.", b",CO,abc", "densities.csv, line 3: could not"),
    ("densities.csv", 3, b",CO,", b",\xff\xfe,", "densities.csv, line 3: bytes"),
    ("densities.csv", 1, b",std", b"", "missing columns"),
    ("densities.csv", 3, b"0.040318576887614484", b"nan", "densities.csv, line 3: mean nan"),
    ("densities.csv", 3, b",0.0048", b",-0.0048", "densities.csv, line 3: std -0.0048"),
], ids=["bad-date", "unknown-gas", "bad-mean", "undecodable", "missing-column",
        "nan-mean", "negative-std"])
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


def _drop_year(path):
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    del meta["year"]
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh)


@pytest.mark.parametrize("command, corrupt, says", [
    ("screen", _bad_period, "city_b.csv, line 5: invalid literal"),
    ("benchmark", _cut_row, "city_b.csv, line 5: 4 cells"),
    ("screen", _drop_year, "city_b.csv.meta.json: missing or bad key 'year'"),
], ids=["bad-period", "cut-row", "no-year"])
def test_malformed_city_file_is_exit_2(tmp_path, capsys, command, corrupt, says):
    cfg = run_synth(tmp_path, seed=0)
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    corrupt(os.path.join(out, "cities", "city_b.csv"))
    assert says in _cli_input_error([command, "--config", cfg, "--out", out])


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
    assert main(["ingest", "--config", cfg, "--out", out2]) == EXIT_OK
    capsys.readouterr()
    names = sorted(os.listdir(os.path.join(out1, "cities")))
    assert len(names) == 8 and names == sorted(os.listdir(os.path.join(out2, "cities")))
    for name in names:
        assert filecmp.cmp(os.path.join(out1, "cities", name),
                           os.path.join(out2, "cities", name), shallow=False), name


def test_grid_files_outside_the_year_are_skipped(tmp_path):
    grid = DensityGrid(width=1, height=1, values=np.array([0.5]))
    os.makedirs(tmp_path / "CO")
    for name in ("2020-03-01", "2021-03-01"):
        write_grid(grid, str(tmp_path / "CO" / f"{name}.csv"))
    got = _collect_grids(str(tmp_path), 2020)
    assert [date for date, _ in got[PollutantKind.CO]] == [dt.date(2020, 3, 1)]


def test_jobs_below_one_is_exit_2():
    assert "--jobs must be at least 1, got 0" in _cli_input_error(["benchmark", "--jobs", "0"])


def test_null_profile_screen_flag(tmp_path, capsys):
    cfg = run_synth(tmp_path, seed=9, profile="null")
    out = str(tmp_path / "run")
    assert main(["ingest", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["screen", "--config", cfg, "--out", out]) == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith(
        "all measures CoD < 0.20: yes")


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
