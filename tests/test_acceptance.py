"""Acceptance gate: eleven oracle- and property-based checks.

Each test prints one [PASS]/[FAIL] line with its wall time so the whole
gate reads as a checklist under `pytest -s tests/test_acceptance.py`.
Numbered checks with stated runtime limits assert those limits.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from airpolicy import models, synth
from airpolicy.config import load_config
from airpolicy.dataset import (
    IDENTITY_SCALING,
    MEASURES,
    POLLUTANTS,
    POOLED_SCOPE,
    build_supervised,
    periods_in_year,
)
from airpolicy.models import ModelSpec, fit_arrays, model_to_json
from airpolicy.models.forest import ForestModel
from airpolicy.models.nnet import gradient_check
from airpolicy.models.tree import grow_tree, tree_predict
from airpolicy.report import render_screen_summary
from airpolicy.rng import SplitMix64
from airpolicy.similarity import Band, band_of, dtw, pearson, screen_all

from test_models import exhaustive_root_split, lasso_lambda_max
from test_similarity import check_path_valid, dtw_oracle, p_oracle, pearson_oracle
from test_synth import ingest_city, pooled_r


@pytest.fixture(autouse=True)
def _no_out_env(monkeypatch):
    monkeypatch.delenv("AIRPOLICY_OUT", raising=False)


@contextmanager
def gate(capsys, label, limit=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"{label}: took {elapsed:.1f}s, limit {limit:.0f}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.1f}s)")


def test_01_pearson_oracle_equivalence(capsys):
    with gate(capsys, "01 pearson r and p against exact-rational and "
                      "quadrature oracles, 1000 pairs", limit=10.0):
        gen = SplitMix64(401)
        for _ in range(1000):
            n = 3 + gen.randint(198)          # lengths 3..200
            x = np.array(gen.normals(n))
            y = np.array(gen.normals(n))
            if gen.uniform() < 0.3:           # occasional strong coupling
                y = y * 0.1 + x * (1.0 if gen.uniform() < 0.5 else -1.0)
            res = pearson(x, y)
            r_ref = pearson_oracle(x, y)
            assert r_ref is not None
            assert abs(res.r - r_ref) < 1e-12
            assert abs(res.p_value - p_oracle(r_ref, n)) < 1e-6


def test_02_dtw_exact_path_equivalence(capsys):
    with gate(capsys, "02 dtw distance equals exhaustive enumeration, "
                      "500 cases", limit=30.0):
        gen = SplitMix64(402)
        shapes = [(n, m) for n in range(1, 7) for m in range(1, 7)]
        for case in range(500):
            n, m = shapes[case % len(shapes)]
            a = np.array(gen.normals(n))
            b = np.array(gen.normals(m))
            cost = "absolute" if case % 2 == 0 else "squared"
            res = dtw(a, b, cost=cost)
            assert res.distance == dtw_oracle(a, b, cost)
            check_path_valid(res.path, n, m)


def test_03_banding_table(capsys):
    with gate(capsys, "03 correlation banding boundary table"):
        table = {
            0.0: Band.NONE, 0.0999: Band.NONE,
            0.10: Band.WEAK, 0.3999: Band.WEAK,
            0.40: Band.MODERATE, 0.6999: Band.MODERATE,
            0.70: Band.STRONG, 0.8999: Band.STRONG,
            0.90: Band.VERY_STRONG, 1.0: Band.VERY_STRONG,
        }
        for value, band in table.items():
            assert band_of(value) is band, value


def test_04_leap_year_calendar(capsys, tmp_path):
    with gate(capsys, "04 leap-year ingestion: 183 periods, 182 supervised "
                      "rows per city per pollutant"):
        res = synth.generate(str(tmp_path), profile="linear", seed=0)
        cfg = load_config(res.config_path)
        assert cfg.year == 2020
        for city_cfg in cfg.cities:
            ds = ingest_city(city_cfg, cfg.year)
            assert len(ds) == 183
            assert periods_in_year(cfg.year) == 183
            for p in POLLUTANTS:
                assert build_supervised([ds], p).n == 182


def test_05_linear_model_oracles(capsys):
    with gate(capsys, "05 ridge(0)=ols, residual orthogonality, lasso "
                      "lambda_max zeros and sweep monotonicity, 100 problems",
              limit=20.0):
        gen = SplitMix64(405)
        for _ in range(100):
            n, d = 20 + gen.randint(60), 1 + gen.randint(6)
            X = np.array(gen.normals(n * d)).reshape(n, d)
            Y = np.array(gen.normals(n * 2)).reshape(n, 2)

            ols = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
            ridge0 = fit_arrays(ModelSpec(kind="ridge", hyperparameters={"lam": 0.0}),
                                X, Y, IDENTITY_SCALING)
            assert np.abs(ridge0.beta - ols.beta).max() < 1e-8

            resid = Y - ols.predict(X)
            assert np.abs(X.T @ resid).max() < 1e-8
            assert np.abs(resid.sum(axis=0)).max() < 1e-8

            lam_max = max(lasso_lambda_max(X, Y[:, 0]),
                          lasso_lambda_max(X, Y[:, 1]))
            # The oracle's lambda_max and the solver's internal correlations
            # round differently at the last ulp; a 1e-12 relative nudge keeps
            # the probe on the >= lambda_max side without weakening the
            # exact-zero assertion.
            for lam in (lam_max * (1.0 + 1e-12), 2.0 * lam_max):
                dead = fit_arrays(
                    ModelSpec(kind="lasso", hyperparameters={"lam": lam}),
                    X, Y, IDENTITY_SCALING)
                assert np.all(dead.beta[1:] == 0.0)

            live = fit_arrays(
                ModelSpec(kind="lasso",
                          hyperparameters={"lam": 0.3 * gen.uniform()}),
                X, Y, IDENTITY_SCALING)
            for trace in live.objective_traces:
                # Slack of 1e-12 absorbs one-ulp float evaluation noise.
                assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def test_06_tree_and_forest_oracles(capsys):
    with gate(capsys, "06 cart root vs exhaustive enumeration (100 datasets), "
                      "depth cap, forest mean, seed-2 determinism", limit=60.0):
        gen = SplitMix64(406)
        checked = 0
        same_candidate = 0
        for _ in range(100):
            n = 4 + gen.randint(37)           # N <= 40
            d = 1 + gen.randint(5)
            X = np.array(gen.normals(n * d)).reshape(n, d)
            Y = np.array(gen.normals(n * 2)).reshape(n, 2)
            tree = grow_tree(X, Y, max_depth=1)
            of, othr, _ = exhaustive_root_split(X, Y)
            if of < 0:
                assert tree.feature[0] < 0
                continue
            checked += 1
            # Splits through different features can carve out the same two
            # row groups (possibly with sides swapped) and then tie exactly;
            # the enumeration answer is unique only as an unordered
            # partition, which must match row for row.
            tree_left = X[:, tree.feature[0]] <= tree.threshold[0]
            oracle_left = X[:, of] <= othr
            assert (np.array_equal(tree_left, oracle_left)
                    or np.array_equal(tree_left, ~oracle_left))
            if tree.feature[0] == of:
                assert tree.threshold[0] == pytest.approx(othr, rel=1e-12)
                same_candidate += 1
        assert checked >= 90
        assert same_candidate >= checked - 5

        for seed in (420, 421):
            g2 = SplitMix64(seed)
            X = np.array(g2.normals(300 * 4)).reshape(300, 4)
            Y = np.array(g2.normals(300 * 2)).reshape(300, 2)
            assert tree_depth(grow_tree(X, Y, max_depth=5)) <= 5

        g3 = SplitMix64(422)
        X = np.array(g3.normals(60 * 4)).reshape(60, 4)
        Y = np.array(g3.normals(60 * 2)).reshape(60, 2)
        spec = ModelSpec(kind="rfr", hyperparameters={"n_trees": 9}, seed=2)
        forest = fit_arrays(spec, X, Y, IDENTITY_SCALING)
        assert isinstance(forest, ForestModel)
        member = np.stack([tree_predict(t, X) for t in forest.trees])
        np.testing.assert_allclose(forest.predict(X), member.mean(axis=0),
                                   rtol=1e-12, atol=1e-15)
        again = fit_arrays(spec, X, Y, IDENTITY_SCALING)
        assert model_to_json(forest) == model_to_json(again)


def test_07_dnn_gradient_and_bounded_output(capsys):
    with gate(capsys, "07 dnn gradient check (10 seeds) and sigmoid-bounded "
                      "raw outputs", limit=30.0):
        gen = SplitMix64(407)
        for seed in range(10):
            x = np.array(gen.normals(10))
            y = np.array([0.2 + 0.6 * gen.uniform(), 0.2 + 0.6 * gen.uniform()])
            assert gradient_check(ModelSpec(kind="dnn", seed=seed), x, y) < 1e-4

        X = np.array(gen.normals(30 * 10)).reshape(30, 10)
        Y = np.array(gen.normals(30 * 2)).reshape(30, 2)
        model = fit_arrays(ModelSpec(kind="dnn", hyperparameters={"epochs": 5}),
                           X, Y, IDENTITY_SCALING)
        probe = np.array(gen.normals(500 * 10)).reshape(500, 10) * 10.0
        raw = model.forward_scaled(probe)
        assert np.all(raw > 0.0) and np.all(raw < 1.0)


def test_08_boosting_sanity(capsys):
    with gate(capsys, "08 boosting: one estimator equals base tree, five "
                      "estimators help on separable data"):
        gen = SplitMix64(408)
        X = np.array(gen.normals(50 * 4)).reshape(50, 4)
        Y = np.array(gen.normals(50 * 2)).reshape(50, 2)
        probe = np.array(gen.normals(30 * 4)).reshape(30, 4)
        boost1 = fit_arrays(ModelSpec(kind="madab",
                                      hyperparameters={"estimators": 1}),
                            X, Y, IDENTITY_SCALING)
        for col in (0, 1):
            base = grow_tree(X, Y[:, col:col + 1], max_depth=3)
            np.testing.assert_array_equal(boost1.predict(probe)[:, col],
                                          tree_predict(base, probe)[:, 0])

        wins = 0
        for seed in range(50):
            g = SplitMix64(800 + seed)
            X = np.array(g.normals(40 * 3)).reshape(40, 3)
            steps = (X[:, 0] > 0).astype(float) + 2.0 * (X[:, 1] > 0.5)
            Y = np.stack([steps, -steps], axis=1)
            five = fit_arrays(ModelSpec(kind="madab"), X, Y, IDENTITY_SCALING)
            one = fit_arrays(ModelSpec(kind="madab",
                                       hyperparameters={"estimators": 1}),
                             X, Y, IDENTITY_SCALING)
            e_five = math.sqrt(float(((five.predict(X) - Y) ** 2).mean()))
            e_one = math.sqrt(float(((one.predict(X) - Y) ** 2).mean()))
            wins += e_five <= e_one + 1e-12
        assert wins >= 45


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "airpolicy.cli"] + argv,
                          capture_output=True, text=True)


def test_09_end_to_end_synthetic_benchmark(capsys, tmp_path):
    with gate(capsys, "09 full linear-profile pipeline: 36 cells, error "
                      "bounds, planted couplings over 100 seeds", limit=300.0):
        root = str(tmp_path / "pipeline")
        proc = run_cli(["synth", "--out", root, "--profile", "linear",
                        "--seed", "0"])
        assert proc.returncode == 0, proc.stderr
        cfg_path = os.path.join(root, "config.json")
        out = os.path.join(root, "out")
        for cmd in ("ingest", "screen", "benchmark"):
            proc = run_cli([cmd, "--config", cfg_path, "--jobs", "1"])
            assert proc.returncode == 0, (cmd, proc.stderr, proc.stdout)

        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        rows = report["rows"]
        assert len(rows) == 36
        for row in rows:
            assert row["error"] == "", row
            assert row["relative_error"] < 0.15, row
            if row["kind"] == "linreg":
                assert row["relative_error"] < 0.01, row

        hits = 0
        seeds_dir = str(tmp_path / "seeds")
        for seed in range(100):
            res = synth.generate(seeds_dir, profile="linear", seed=seed)
            cfg = load_config(res.config_path)
            ds_list = [ingest_city(c, cfg.year) for c in cfg.cities]
            all_top = True
            for pollutant, (planted, _) in synth.PLANTED.items():
                r2 = {m: pooled_r(ds_list, m, pollutant) ** 2 for m in MEASURES}
                if max(r2, key=r2.get) is not planted:
                    all_top = False
            hits += all_top
        assert hits >= 95, f"planted measure on top in only {hits}/100 seeds"


def _pipeline_bytes(cfg_path, out, jobs):
    from airpolicy.cli import main
    for cmd in ("ingest", "screen", "benchmark"):
        # In-process so the walk sees the exact bytes this interpreter wrote;
        # stdout swallowed to keep the per-criterion gate lines readable.
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--config", cfg_path, "--jobs", str(jobs)]) == 0
    blobs = {}
    for dirpath, _, files in os.walk(out):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                blobs[os.path.relpath(path, out)] = fh.read()
    return blobs


def test_10_byte_identical_reruns(capsys, tmp_path, no_child_left):
    with gate(capsys, "10 byte-identical outputs across reruns, jobs 1 and 8"):
        root = str(tmp_path / "det")
        res = synth.generate(root, profile="linear", seed=3)
        out = os.path.join(root, "out")
        first = _pipeline_bytes(res.config_path, out, jobs=1)
        expected = {"report.csv", "report.json", "screen.csv",
                    "screen_summary.txt"}
        assert expected <= set(first)
        # Each city persists as one CSV file.
        assert sorted(k for k in first if k.startswith("cities/")) == [
            f"cities/{city}.csv" for city in ("city_a", "city_b", "city_c", "city_d")]
        assert sum(1 for k in first if k.startswith("models/")) == 36
        assert sum(1 for k in first if k.startswith("fig_")) == 8
        for jobs in (1, 8):
            again = _pipeline_bytes(res.config_path, out, jobs=jobs)
            assert set(again) == set(first)
            diffs = [k for k in first if again[k] != first[k]]
            assert not diffs, f"jobs={jobs} changed: {diffs}"


def test_11_null_profile_sanity(capsys, tmp_path):
    with gate(capsys, "11 null profile: small pooled r and quiet CoD flag "
                      "in >= 90/100 seeds"):
        quiet = 0
        root = str(tmp_path / "null")
        for seed in range(100):
            res = synth.generate(root, profile="null", seed=seed)
            cfg = load_config(res.config_path)
            ds_list = [ingest_city(c, cfg.year) for c in cfg.cities]
            cells = []
            for p in POLLUTANTS:
                cells.extend(screen_all(ds_list, p))
            pooled = [c for c in cells if c.city == POOLED_SCOPE]
            assert pooled and all(c.r is not None for c in pooled)
            small = all(abs(c.r) < 0.25 for c in pooled)
            flagged = render_screen_summary(cells).rstrip().endswith(
                "all measures CoD < 0.20: yes")
            quiet += small and flagged
        assert quiet >= 90, f"quiet in only {quiet}/100 seeds"
