"""End-to-end command-line flows on synthetic inputs."""

import filecmp
import json
import os
import subprocess
import sys

import pytest

from airpolicy.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        proc = subprocess.run(
            [sys.executable, "-m", "airpolicy.cli", "predict", "--config", cfg,
             "--out", out, PREDICT_LINREG],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and path in proc.stderr


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
