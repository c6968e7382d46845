"""Learner-by-learner oracles: exhaustive split search, duplication
equivalence for weights, normal-equation identities, soft-threshold
closed forms, boosting exactness, the gradient check, and lossless
persistence for every kind."""

import copy
import hashlib
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpolicy import models, synth
from airpolicy.config import load_config
from airpolicy.dataset import (
    IDENTITY_SCALING,
    PollutantKind,
    ScalingSpec,
    apply_scaling,
    build_supervised,
    fit_scaling,
)
from airpolicy.errors import ConfigError, DomainError, InsufficientDataError, ShapeError
from airpolicy.models import ModelSpec, model_from_json, model_to_json
from airpolicy.models.boost import _weighted_median
from airpolicy.models.forest import ForestModel
from airpolicy.models.nnet import (
    HIDDEN_SIZES,
    SELU_ALPHA,
    SELU_SCALE,
    _backprop,
    init_params,
    selu_and_grad,
    sigmoid,
    stack_params,
)
from airpolicy.models.tree import Tree, grow_tree, tree_predict
from airpolicy.rng import SplitMix64

from conftest import fit_arrays, make_city
from test_synth import ingest_city


def random_problem(seed, n=30, d=4, outputs=2):
    gen = SplitMix64(seed)
    X = np.array(gen.normals(n * d)).reshape(n, d)
    W = np.array(gen.normals(d * outputs)).reshape(d, outputs)
    Y = X @ W + 0.05 * np.array(gen.normals(n * outputs)).reshape(n, outputs)
    return X, Y


# -- model spec -------------------------------------------------------------

def test_spec_rejects_unknown_kind_and_hyperparameter():
    with pytest.raises(ConfigError):
        ModelSpec(kind="svm")
    with pytest.raises(ConfigError):
        ModelSpec(kind="knn", hyperparameters={"neighbors": 3})


@pytest.mark.parametrize("kind, hyper, ok", [
    ("knn", {"k": 1}, True),
    ("knn", {"k": 0}, False),
    ("knn", {"k": -1}, False),
    ("rfr", {"n_trees": 0}, False),
    ("rfr", {"max_depth": 0}, True),
    ("dtr", {"max_depth": -1}, False),
    ("madab", {"estimators": 0}, False),
    ("madab", {"base_depth": 0}, True),
    ("mgbr", {"estimators": 0}, False),
    ("mgbr", {"eta0": 0.0, "l2": 0}, True),
    ("dnn", {"batch_size": 0}, False),
    ("dnn", {"epochs": 0}, False),
    ("dnn", {"learning_rate": -0.1}, False),
    ("lasso", {"max_sweeps": 0}, False),
    ("lasso", {"tol": float("nan")}, False),
    ("ridge", {"lam": 0.0}, True),
    ("ridge", {"lam": True}, False),
    ("ridge", {"lam": "1"}, False),
    ("knn", {"k": np.int64(3)}, True),
])
def test_spec_checks_hyperparameter_domains(kind, hyper, ok):
    # Counts are at least 1; depths and float hyperparameters at least 0.
    if ok:
        ModelSpec(kind=kind, hyperparameters=hyper)
    else:
        with pytest.raises(ConfigError, match="must be a number >="):
            ModelSpec(kind=kind, hyperparameters=hyper)


def test_spec_merges_defaults():
    spec = ModelSpec(kind="rfr", hyperparameters={"n_trees": 10})
    assert spec.params == {"n_trees": 10, "max_depth": 5}
    assert spec.seed == 2      # forest default
    assert ModelSpec(kind="knn").seed == 0


def test_spec_estimators_alias_for_mgbr():
    spec = ModelSpec(kind="mgbr", hyperparameters={"estimators": 7})
    assert spec.params["epochs"] == 7
    with pytest.raises(ConfigError):
        ModelSpec(kind="mgbr", hyperparameters={"estimators": 7, "epochs": 3})
    # The alias belongs to mgbr alone.
    with pytest.raises(ConfigError):
        ModelSpec(kind="rfr", hyperparameters={"estimators": 7})


def test_spec_round_trip():
    spec = ModelSpec(kind="madab", hyperparameters={"estimators": 3}, seed=9)
    assert ModelSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("kind, hyper", [
    ("knn", {"k": 1.5}), ("knn", {"k": 3.0}), ("rfr", {"max_depth": 2.5}),
    ("mgbr", {"estimators": 2.0}),
])
def test_spec_rejects_fractional_counts(kind, hyper):
    # A model file's knn k of 1.5 would otherwise load and fail in predict.
    with pytest.raises(ConfigError, match="must be an integer"):
        ModelSpec(kind=kind, hyperparameters=hyper)


# -- regression tree --------------------------------------------------------

def exhaustive_root_split(X, Y, w=None):
    """Oracle: try every (feature, midpoint) with literal two-pass SSE."""
    n, d = X.shape
    if w is None:
        w = np.ones(n)

    def sse(rows):
        sub_w = w[rows]
        mean = (sub_w[:, None] * Y[rows]).sum(axis=0) / sub_w.sum()
        return float((sub_w[:, None] * (Y[rows] - mean) ** 2).sum())

    best = (-1, 0.0, math.inf)
    for f in range(d):
        vals = np.unique(X[:, f])
        for a, b in zip(vals, vals[1:]):
            thr = 0.5 * (a + b)
            left = X[:, f] <= thr
            if not left.any() or left.all():
                continue
            score = sse(np.where(left)[0]) + sse(np.where(~left)[0])
            if score < best[2] - 1e-12:
                best = (f, thr, score)
    return best


def test_root_split_matches_exhaustive_enumeration():
    gen = SplitMix64(301)
    for trial in range(40):
        n = 4 + gen.randint(30)
        d = 1 + gen.randint(4)
        X = np.array(gen.normals(n * d)).reshape(n, d)
        if trial % 3 == 0:
            X = np.round(X * 2) / 2
        Y = np.array(gen.normals(n * 2)).reshape(n, 2)
        tree = grow_tree(X, Y, max_depth=1)
        of, othr, oscore = exhaustive_root_split(X, Y)
        if of < 0:
            assert tree.feature[0] < 0
            continue
        assert tree.feature[0] == of, trial
        assert tree.threshold[0] == pytest.approx(othr, rel=1e-12)


def test_tree_leaf_values_are_weighted_means():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([[1.0, 10.0], [2.0, 20.0], [30.0, 31.0], [40.0, 41.0]])
    tree = grow_tree(X, Y, max_depth=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    np.testing.assert_allclose(tree.value[tree.left[0]], [1.5, 15.0])
    np.testing.assert_allclose(tree.value[tree.right[0]], [35.0, 36.0])


def test_integer_weights_equal_row_duplication():
    # Compared at the training rows only: two splits through different
    # features can induce the same row partition, and the weighted and
    # duplicated fits may resolve that tie differently, so the trees need
    # not agree off the training set even though their partitions do.
    gen = SplitMix64(302)
    for _ in range(10):
        n = 5 + gen.randint(10)
        X = np.round(np.array(gen.normals(n * 2)).reshape(n, 2) * 2) / 2
        Y = np.array(gen.normals(n * 2)).reshape(n, 2)
        w = np.array([1.0 + gen.randint(3) for _ in range(n)])
        dup_rows = [i for i in range(n) for _ in range(int(w[i]))]
        t_w = grow_tree(X, Y, w, max_depth=3)
        t_dup = grow_tree(X[dup_rows], Y[dup_rows], max_depth=3)
        np.testing.assert_allclose(tree_predict(t_w, X),
                                   tree_predict(t_dup, X),
                                   rtol=1e-9, atol=1e-12)


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def test_tree_depth_respects_limit():
    gen = SplitMix64(303)
    X = np.array(gen.normals(200 * 3)).reshape(200, 3)
    Y = np.array(gen.normals(200 * 2)).reshape(200, 2)
    for limit in (0, 1, 2, 5):
        tree = grow_tree(X, Y, max_depth=limit)
        assert tree_depth(tree) <= limit


def test_tree_pure_node_stays_leaf():
    X = np.arange(8.0).reshape(8, 1)
    Y = np.full((8, 2), 3.25)
    tree = grow_tree(X, Y, max_depth=5)
    assert tree.feature[0] < 0
    np.testing.assert_allclose(tree.value[0], [3.25, 3.25])


def test_tree_constant_features_stay_leaf():
    X = np.ones((6, 3))
    Y = np.random.default_rng(0).normal(size=(6, 2))
    tree = grow_tree(X, Y, max_depth=5)
    assert tree.feature[0] < 0


def test_tree_predict_walks_hand_built_tree():
    # Root node 0 splits on feature 1 at 0.5; leaves 1 (left) and 2 (right).
    tree = Tree(feature=[1, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                right=[2, -1, -1], value=[[3.0, 4.0], [1.0, 2.0], [5.0, 6.0]])
    X = np.array([[9.0, 0.5], [9.0, 0.50001]])
    out = tree_predict(tree, X)
    np.testing.assert_array_equal(out, [[1.0, 2.0], [5.0, 6.0]])  # <= goes left


def test_grow_tree_rejects_empty():
    with pytest.raises(InsufficientDataError):
        grow_tree(np.zeros((0, 2)), np.zeros((0, 2)))


def test_dtr_fit_predict_and_training_fit_quality():
    X, Y = random_problem(304, n=60)
    model = fit_arrays(ModelSpec(kind="dtr"), X, Y, IDENTITY_SCALING)
    pred = model.predict(X)
    resid = np.sqrt(((pred - Y) ** 2).mean())
    base = np.sqrt(((Y - Y.mean(axis=0)) ** 2).mean())
    assert resid < base


# -- forest -----------------------------------------------------------------

def test_forest_prediction_is_member_mean():
    X, Y = random_problem(305, n=50)
    model = fit_arrays(ModelSpec(kind="rfr", hyperparameters={"n_trees": 7}),
                       X, Y, IDENTITY_SCALING)
    assert isinstance(model, ForestModel)
    member = np.stack([tree_predict(t, X) for t in model.trees])
    assert member.shape == (7, 50, 2)
    np.testing.assert_allclose(model.predict(X), member.mean(axis=0),
                               rtol=1e-12, atol=1e-15)


def test_forest_deterministic_under_fixed_seed():
    X, Y = random_problem(306, n=40)
    spec = ModelSpec(kind="rfr", hyperparameters={"n_trees": 5}, seed=2)
    m1 = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    m2 = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    assert model_to_json(m1) == model_to_json(m2)
    m3 = fit_arrays(ModelSpec(kind="rfr", hyperparameters={"n_trees": 5}, seed=3),
                    X, Y, IDENTITY_SCALING)
    assert model_to_json(m1) != model_to_json(m3)


# -- knn --------------------------------------------------------------------

def test_knn_duplicated_neighbors_dominate():
    X = np.vstack([np.zeros((5, 3)), np.ones((3, 3)) * 10])
    Y = np.vstack([np.full((5, 2), 2.0), np.full((3, 2), 99.0)])
    model = fit_arrays(ModelSpec(kind="knn"), X, Y, IDENTITY_SCALING)
    np.testing.assert_allclose(model.predict(np.zeros((1, 3))), [[2.0, 2.0]])


def test_knn_internal_minmax_makes_columns_commensurate():
    gen = SplitMix64(307)
    X = np.array(gen.normals(40 * 2)).reshape(40, 2)
    Y = np.array(gen.normals(40 * 2)).reshape(40, 2)
    q = np.array(gen.normals(10 * 2)).reshape(10, 2)
    base = fit_arrays(ModelSpec(kind="knn"), X, Y, IDENTITY_SCALING).predict(q)
    X2, q2 = X.copy(), q.copy()
    X2[:, 1] *= 1e6
    q2[:, 1] *= 1e6
    scaled = fit_arrays(ModelSpec(kind="knn"), X2, Y, IDENTITY_SCALING).predict(q2)
    np.testing.assert_allclose(scaled, base, rtol=1e-6)


def test_knn_requires_k_rows():
    X, Y = random_problem(308, n=4)
    with pytest.raises(InsufficientDataError):
        fit_arrays(ModelSpec(kind="knn"), X, Y, IDENTITY_SCALING)


def test_knn_mean_of_five_neighbors():
    X = np.arange(10.0).reshape(10, 1)
    Y = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
    model = fit_arrays(ModelSpec(kind="knn"), X, Y, IDENTITY_SCALING)
    # Query at 0: neighbors are rows 0..4.
    np.testing.assert_allclose(model.predict([[0.0]]), [[2.0, 0.0]])


# -- linear family ----------------------------------------------------------

def test_linreg_residual_orthogonality_and_recovery():
    X, Y = random_problem(309, n=80, d=5)
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    resid = Y - model.predict(X)
    # Residuals orthogonal to the design (including the intercept column).
    assert np.abs(X.T @ resid).max() < 1e-8
    assert np.abs(resid.sum(axis=0)).max() < 1e-8


def test_linreg_exact_on_noiseless_data():
    gen = SplitMix64(310)
    X = np.array(gen.normals(30 * 3)).reshape(30, 3)
    W = np.array([[1.0, -2.0], [0.5, 0.0], [3.0, 1.0]])
    Y = X @ W + np.array([4.0, -1.0])
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    np.testing.assert_allclose(model.predict(X), Y, atol=1e-9)


def test_ridge_zero_lambda_equals_ols():
    X, Y = random_problem(311, n=50, d=6)
    ols = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    ridge0 = fit_arrays(ModelSpec(kind="ridge", hyperparameters={"lam": 0.0}),
                        X, Y, IDENTITY_SCALING)
    np.testing.assert_allclose(ridge0.beta, ols.beta, atol=1e-8)


def test_ridge_shrinks_coefficients_monotonically():
    X, Y = random_problem(312, n=40, d=4)
    norms = []
    for lam in (0.0, 1.0, 10.0, 100.0):
        m = fit_arrays(ModelSpec(kind="ridge", hyperparameters={"lam": lam}),
                       X, Y, IDENTITY_SCALING)
        norms.append(float(np.linalg.norm(m.beta[1:])))
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_linreg_singular_design_falls_back_to_pinv():
    gen = SplitMix64(313)
    X = np.array(gen.normals(20 * 2)).reshape(20, 2)
    X = np.hstack([X, X[:, :1]])          # exact duplicate column
    Y = np.array(gen.normals(20 * 2)).reshape(20, 2)
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    assert model.metadata.get("singular_fallback") is True
    assert np.isfinite(model.predict(X)).all()


def lasso_lambda_max(X, y):
    mu, sd = X.mean(axis=0), X.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    Xs = (X - mu) / sd
    return float(np.abs(Xs.T @ (y - y.mean())).max() / X.shape[0])


def test_lasso_at_lambda_max_all_zero():
    X, Y = random_problem(314, n=60, d=5)
    lam_max = max(lasso_lambda_max(X, Y[:, 0]), lasso_lambda_max(X, Y[:, 1]))
    model = fit_arrays(ModelSpec(kind="lasso", hyperparameters={"lam": lam_max}),
                       X, Y, IDENTITY_SCALING)
    assert np.all(model.beta[1:] == 0.0)
    # Prediction collapses to the target means.
    np.testing.assert_allclose(model.predict(X), np.tile(Y.mean(axis=0), (60, 1)),
                               rtol=1e-12)


def test_lasso_objective_monotone_nonincreasing():
    gen = SplitMix64(315)
    for _ in range(20):
        n, d = 20 + gen.randint(40), 1 + gen.randint(6)
        X = np.array(gen.normals(n * d)).reshape(n, d)
        Y = np.array(gen.normals(n * 2)).reshape(n, 2)
        lam = 0.1 * gen.uniform()
        model = fit_arrays(ModelSpec(kind="lasso", hyperparameters={"lam": lam}),
                           X, Y, IDENTITY_SCALING)
        for trace in model.objective_traces:
            assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))


def test_lasso_single_feature_soft_threshold_closed_form():
    gen = SplitMix64(316)
    n = 50
    x = np.array(gen.normals(n))
    y = 2.0 * x + 0.01 * np.array(gen.normals(n))
    X = x.reshape(n, 1)
    lam = 0.3
    model = fit_arrays(ModelSpec(kind="lasso", hyperparameters={"lam": lam}),
                       X, Y=np.stack([y, y], axis=1), scaling=IDENTITY_SCALING)
    xs = (x - x.mean()) / x.std()
    rho = float(xs @ (y - y.mean())) / n
    aj = float(xs @ xs) / n
    expected_std_coef = (abs(rho) - lam) / aj * np.sign(rho)
    expected = expected_std_coef / x.std()
    assert model.beta[1, 0] == pytest.approx(expected, rel=1e-6)


def test_lasso_near_zero_lambda_approaches_ols():
    X, Y = random_problem(317, n=70, d=3)
    ols = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    lasso = fit_arrays(
        ModelSpec(kind="lasso", hyperparameters={"lam": 1e-10, "tol": 1e-12}),
        X, Y, IDENTITY_SCALING)
    np.testing.assert_allclose(lasso.predict(X), ols.predict(X), atol=1e-5)


def test_objective_traces_not_persisted():
    X, Y = random_problem(318, n=30)
    model = fit_arrays(ModelSpec(kind="lasso"), X, Y, IDENTITY_SCALING)
    assert model.objective_traces
    again = model_from_json(model_to_json(model))
    assert again.objective_traces == []
    np.testing.assert_allclose(again.predict(X), model.predict(X), rtol=1e-15)


def test_mgbr_deterministic_and_learns_linear_trend():
    X, Y = random_problem(319, n=120, d=3)
    spec = ModelSpec(kind="mgbr", seed=4)
    m1 = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    m2 = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    assert model_to_json(m1) == model_to_json(m2)
    pred = m1.predict(X)
    rmse_model = np.sqrt(((pred - Y) ** 2).mean())
    rmse_mean = np.sqrt(((Y - Y.mean(axis=0)) ** 2).mean())
    assert rmse_model < 0.5 * rmse_mean


def test_mgbr_divergence_raises_without_numpy_warnings():
    X, Y = random_problem(319, n=120, d=3)
    spec = ModelSpec(kind="mgbr", hyperparameters={"eta0": 1000.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite.*eta0"):
            fit_arrays(spec, X, Y, IDENTITY_SCALING)


# -- boosting ---------------------------------------------------------------

def test_weighted_median_against_brute_force():
    gen = SplitMix64(320)
    for _ in range(200):
        k = 1 + gen.randint(9)
        vals = np.array(gen.normals(k))
        wts = np.abs(np.array(gen.normals(k))) + 0.01

        def brute(values, weights):
            order = np.argsort(values, kind="stable")
            v, wt = values[order], weights[order]
            cut = 0.5 * wt.sum()
            acc = 0.0
            for i in range(len(v)):
                acc += wt[i]
                if acc >= cut:
                    return v[i]
            return v[-1]

        assert _weighted_median(vals, wts) == brute(vals, wts)


def test_madab_single_estimator_equals_base_tree():
    X, Y = random_problem(321, n=50, d=4)
    boost = fit_arrays(
        ModelSpec(kind="madab", hyperparameters={"estimators": 1}),
        X, Y, IDENTITY_SCALING)
    base = grow_tree(X, Y[:, :1], max_depth=3)
    probe, _ = random_problem(322, n=30, d=4)
    np.testing.assert_array_equal(boost.predict(probe)[:, 0],
                                  tree_predict(base, probe)[:, 0])


def test_madab_constant_targets_halt_exactly():
    X, _ = random_problem(323, n=20)
    Y = np.full((20, 2), 1.5)
    model = fit_arrays(ModelSpec(kind="madab"), X, Y, IDENTITY_SCALING)
    np.testing.assert_array_equal(model.predict(X), Y)


def test_madab_five_estimators_do_not_hurt_training_fit():
    wins = 0
    for seed in range(12):
        gen = SplitMix64(600 + seed)
        n = 40
        X = np.array(gen.normals(n * 3)).reshape(n, 3)
        steps = (X[:, 0] > 0).astype(float) + 2.0 * (X[:, 1] > 0.5)
        Y = np.stack([steps, -steps], axis=1)
        boost = fit_arrays(ModelSpec(kind="madab"), X, Y, IDENTITY_SCALING)
        base = fit_arrays(ModelSpec(kind="madab",
                                    hyperparameters={"estimators": 1}),
                          X, Y, IDENTITY_SCALING)
        e_boost = np.sqrt(((boost.predict(X) - Y) ** 2).mean())
        e_base = np.sqrt(((base.predict(X) - Y) ** 2).mean())
        wins += e_boost <= e_base + 1e-12
    assert wins >= 10


# -- neural net -------------------------------------------------------------

def test_selu_constants_and_shape():
    assert SELU_SCALE == pytest.approx(1.0507009873554805)
    assert SELU_ALPHA == pytest.approx(1.6732632423543772)
    assert HIDDEN_SIZES == (20, 10, 20)
    z = np.array([-2.0, 0.0, 3.0])
    out = selu_and_grad(z)[0]
    assert out[2] == pytest.approx(SELU_SCALE * 3.0)
    assert out[1] == 0.0
    assert out[0] == pytest.approx(SELU_SCALE * SELU_ALPHA * (math.exp(-2.0) - 1.0))


def test_sigmoid_stable_at_extremes():
    z = np.array([-800.0, 0.0, 800.0])
    out = sigmoid(z)
    assert out[0] == 0.0 or out[0] > 0.0
    assert np.isfinite(out).all()
    assert out[1] == 0.5
    assert out[2] <= 1.0


def reference_selu(z):
    return SELU_SCALE * np.where(z > 0.0, z, SELU_ALPHA * (np.exp(np.minimum(z, 0.0)) - 1.0))


def reference_selu_grad(z):
    return SELU_SCALE * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(np.minimum(z, 0.0)))


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_loss_and_gradients(params, Xs, Ys):
    """The training step's definition: separate selu and selu_grad passes,
    the boolean-indexed sigmoid, ndarray mean/sum."""
    acts, zs, h = [Xs], [], Xs
    for W, b in params[:-1]:
        z = h @ W + b
        zs.append(z)
        h = reference_selu(z)
        acts.append(h)
    W, b = params[-1]
    out = reference_sigmoid(h @ W + b)
    diff = out - Ys
    loss = float((diff * diff).mean())
    grads = [None] * len(params)
    delta = 2.0 * diff / diff.size
    delta = delta * out * (1.0 - out)
    for li in range(len(params) - 1, -1, -1):
        grads[li] = (acts[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            delta = (delta @ params[li][0].T) * reference_selu_grad(zs[li - 1])
    return loss, grads


def loss_and_gradients(params, Xs, Ys):
    """Each member's MSE loss (mean over batch and outputs), shape (K,), and the
    stack's parameter gradients, from the training step's ``_backprop``."""
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in params]
    diff = _backprop(params, Xs, Ys, grads)
    loss = np.array([np.add.reduce(d * d, axis=None) / d.size for d in diff])
    return loss, grads


def gradient_check(spec, x, y, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    The network is built from the spec's seed, then the output layer is
    filled with LeCun-normal draws from the same generator: at the standard
    zero output layer most gradients vanish identically and the comparison
    would check nothing. Relative error per parameter is
    |a - n| / max(|a| + |n|, 1e-8).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, 1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, 1, -1)
    gen = SplitMix64(spec.seed)
    params = init_params(x.shape[2], y.shape[2], gen)
    fan_in, fan_out = params[-1][0].shape
    std = 1.0 / math.sqrt(fan_in)
    W_out = (std * np.array(gen.normals(fan_in * fan_out))).reshape(fan_in, fan_out)
    params[-1] = (W_out, params[-1][1])
    params = stack_params([params])
    _, grads = loss_and_gradients(params, x, y)
    worst = 0.0
    for li in range(len(params)):
        for slot in range(2):
            flat = params[li][slot].ravel()
            analytic = grads[li][slot].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                lp = loss_and_gradients(params, x, y)[0][0]
                flat[idx] = orig - step
                lm = loss_and_gradients(params, x, y)[0][0]
                flat[idx] = orig
                numeric = (lp - lm) / (2.0 * step)
                a = float(analytic[idx])
                worst = max(worst, abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8))
    return worst


def test_fused_activations_equal_reference_formulas_bitwise():
    gen = SplitMix64(335)
    z = np.concatenate([
        np.array(gen.normals(400)) * 3.0,
        np.array(gen.normals(100)) * 300.0,
        [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, np.inf, -np.inf],
    ])
    value, slope = selu_and_grad(z)
    assert value.tobytes() == reference_selu(z).tobytes()
    assert slope.tobytes() == reference_selu_grad(z).tobytes()
    assert sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()


def test_loss_and_gradients_equal_reference_bitwise():
    gen = SplitMix64(336)
    members = []
    for _ in range(3):
        params = init_params(10, 2, gen)
        # A trained net has a non-zero output layer; the reference must agree there too.
        params[-1] = (np.array(gen.normals(40)).reshape(20, 2), np.array(gen.normals(2)))
        members.append(params)
    for K in (1, 3):
        stack = stack_params(members[:K])
        for rows in (16, 4, 1):
            Xs = np.array(gen.normals(K * rows * 10)).reshape(K, rows, 10)
            Ys = np.array([gen.uniform() for _ in range(K * rows * 2)]).reshape(K, rows, 2)
            loss, grads = loss_and_gradients(stack, Xs, Ys)
            assert loss.shape == (K,)
            for k in range(K):
                want_loss, want_grads = reference_loss_and_gradients(members[k], Xs[k], Ys[k])
                assert loss[k] == want_loss
                for got, want in zip(grads, want_grads):
                    assert got[0][k].tobytes() == want[0].tobytes()
                    assert got[1][k, 0].tobytes() == want[1].tobytes()


def test_gradient_check_small():
    gen = SplitMix64(324)
    for seed in (0, 1):
        x = np.array(gen.normals(10))
        y = np.array([0.3, 0.7])
        err = gradient_check(ModelSpec(kind="dnn", seed=seed), x, y)
        assert err < 1e-4


def test_dnn_outputs_bounded_before_inverse_scaling():
    X, Y = random_problem(325, n=30, d=10)
    spec = ModelSpec(kind="dnn", hyperparameters={"epochs": 5})
    model = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    gen = SplitMix64(99)
    probe = np.array(gen.normals(200 * 10)).reshape(200, 10) * 10.0
    scaled = model.forward_scaled(probe)
    assert np.all(scaled > 0.0) and np.all(scaled < 1.0)


def test_dnn_constant_target_column_exact():
    gen = SplitMix64(326)
    X = np.array(gen.normals(24 * 10)).reshape(24, 10)
    Y = np.stack([np.full(24, 0.125), np.full(24, -3.0)], axis=1)
    model = fit_arrays(ModelSpec(kind="dnn", hyperparameters={"epochs": 1}),
                       X, Y, IDENTITY_SCALING)
    np.testing.assert_array_equal(model.predict(X), Y)


def test_dnn_deterministic():
    X, Y = random_problem(327, n=40, d=10)
    spec = ModelSpec(kind="dnn", hyperparameters={"epochs": 3}, seed=5)
    m1 = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    m2 = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    assert model_to_json(m1) == model_to_json(m2)


def test_dnn_training_reduces_loss():
    gen = SplitMix64(328)
    X = np.array(gen.normals(60 * 10)).reshape(60, 10)
    y = np.tanh(X[:, 0] + X[:, 1])
    Y = np.stack([y, -y], axis=1)
    short = fit_arrays(ModelSpec(kind="dnn", hyperparameters={"epochs": 1}),
                       X, Y, IDENTITY_SCALING)
    long = fit_arrays(ModelSpec(kind="dnn", hyperparameters={"epochs": 200}),
                      X, Y, IDENTITY_SCALING)
    e_short = ((short.predict(X) - Y) ** 2).mean()
    e_long = ((long.predict(X) - Y) ** 2).mean()
    assert e_long < e_short


def test_dnn_sets_fitted_together_match_each_fitted_alone():
    # 40 rows: two batches of 16 and a ragged one of 8. The 29-row set
    # trains in a stack of its own, and the 1-row set cannot be fitted.
    a = make_city("a", n_periods=41, seed=21)
    b = make_city("b", n_periods=30, seed=22)
    so2 = build_supervised([b], PollutantKind.SO2)
    one = replace(so2, inputs=so2.inputs[:1], targets=so2.targets[:1],
                  row_provenance=so2.row_provenance[:1])
    trains = [build_supervised([a], PollutantKind.CO), one, so2,
              build_supervised([a], PollutantKind.NO2)]
    assert [t.n for t in trains] == [40, 1, 29, 40]
    spec = ModelSpec(kind="dnn", hyperparameters={"epochs": 3})
    together = models.fit(spec, [(t.inputs, t.targets) for t in trains])
    assert isinstance(together[1], InsufficientDataError)
    for train, model in zip(trains, together):
        if train is not one:
            (alone,) = models.fit(spec, [(train.inputs, train.targets)])
            assert model_to_json(model) == model_to_json(alone)


# -- persistence and validation --------------------------------------------

ALL_KINDS_FAST = [
    ModelSpec(kind="knn"),
    ModelSpec(kind="dtr"),
    ModelSpec(kind="rfr", hyperparameters={"n_trees": 4}),
    ModelSpec(kind="linreg"),
    ModelSpec(kind="ridge"),
    ModelSpec(kind="lasso"),
    ModelSpec(kind="mgbr"),
    ModelSpec(kind="madab", hyperparameters={"estimators": 2}),
    ModelSpec(kind="dnn", hyperparameters={"epochs": 2}),
]


@pytest.mark.parametrize("spec", ALL_KINDS_FAST, ids=lambda s: s.kind)
def test_every_kind_round_trips_bitwise(spec):
    X, Y = random_problem(329, n=25, d=10)
    model = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    text = model_to_json(model)
    again = model_from_json(text)
    probe, _ = random_problem(330, n=15, d=10)
    np.testing.assert_array_equal(again.predict(probe), model.predict(probe))
    assert model_to_json(again) == text
    assert again.spec == model.spec


@pytest.mark.parametrize("spec", ALL_KINDS_FAST, ids=lambda s: s.kind)
def test_saved_file_is_model_json_and_a_plain_dump(spec, tmp_path):
    """save_model writes model_to_json and a newline, and the pieces join to
    json.dumps(doc, sort_keys=True) with its default separators."""
    X, Y = random_problem(332, n=25, d=10)
    model = fit_arrays(spec, X, Y, IDENTITY_SCALING)
    path = str(tmp_path / "model.json")
    models.save_model(model, path)
    with open(path) as fh:
        saved = fh.read()
    text = model_to_json(model)
    assert saved == text + "\n"
    assert text == json.dumps(json.loads(text), sort_keys=True)


def _save_peak(model, path) -> int:
    """tracemalloc's peak in bytes while ``save_model`` writes ``model``."""
    tracemalloc.start()
    try:
        models.save_model(model, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saving_a_forest_holds_less_than_its_file(tmp_path):
    """A default 100-tree forest is written tree by tree: tracemalloc's peak
    while saving stays below the size of the file, not a whole document's
    dict and string."""
    X, Y = random_problem(334, n=120, d=6)
    model = fit_arrays(ModelSpec(kind="rfr"), X, Y, IDENTITY_SCALING)
    path = str(tmp_path / "rfr.json")
    peak = _save_peak(model, path)
    assert len(model.trees) == 100
    assert peak < os.path.getsize(path)


def test_saving_knn_holds_less_than_its_file(tmp_path):
    """knn's training rows are written row by row, so saving a model of
    580 x 10 rows holds less than the file, not the rows as nested lists."""
    X, Y = random_problem(335, n=580, d=10)
    model = fit_arrays(ModelSpec(kind="knn"), X, Y, IDENTITY_SCALING)
    path = str(tmp_path / "knn.json")
    assert _save_peak(model, path) < os.path.getsize(path)


def test_saving_madab_holds_one_column_at_a_time(tmp_path):
    """madab's columns are written one at a time, so saving a 4-output model
    holds less than twice what a 1-output model on the same rows holds."""
    X, Y = random_problem(336, n=580, d=10, outputs=4)
    spec = ModelSpec(kind="madab", hyperparameters={"estimators": 20, "base_depth": 5})
    peaks = [_save_peak(fit_arrays(spec, X, Y[:, :k], IDENTITY_SCALING),
                        str(tmp_path / f"madab{k}.json")) for k in (1, 4)]
    assert peaks[1] < 2 * peaks[0]


def test_model_json_guards():
    X, Y = random_problem(331, n=20, d=3)
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    text = model_to_json(model)
    d = json.loads(text)
    bad = dict(d, format="other-format")
    with pytest.raises(ConfigError):
        model_from_json(json.dumps(bad))
    for version in (1, 999):
        with pytest.raises(ConfigError, match=f"unsupported model version {version}"):
            model_from_json(json.dumps(dict(d, version=version)))
    no_spec = {k: v for k, v in d.items() if k != "spec"}
    wrong_type = dict(d, params={"beta": None})
    wrong_size = dict(d, params={"beta": [[1.0]]})
    for doc in (text[:len(text) // 2], json.dumps(no_spec), json.dumps(wrong_type),
                json.dumps(wrong_size), "[]", "[" * 100_000):
        with pytest.raises(ConfigError):
            model_from_json(doc)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """One z-scored model document per kind, and a file path to write mutants to."""
    X, Y = random_problem(333, n=25, d=10)
    scaling = ScalingSpec(mode="z_score", fitted=True,
                          input_offset=tuple(X.mean(axis=0).tolist()),
                          input_scale=tuple(X.std(axis=0).tolist()),
                          target_offset=tuple(Y.mean(axis=0).tolist()),
                          target_scale=tuple(Y.std(axis=0).tolist()))
    docs = [model_to_json(fit_arrays(spec, X, Y, scaling)) for spec in ALL_KINDS_FAST]
    return docs, str(tmp_path_factory.mktemp("mutants") / "model.json")


DEEP = "deeply nested"
SWAPS = [None, True, "x", "1.5", 1.5, 0, -1, 1, 99, 10**400, math.nan, math.inf,
         -math.inf, 0.0, 1e308, [], {}, [1.0], [[1.0]], {"value": [1.0]}, DEEP]


@pytest.mark.parametrize("index", range(len(ALL_KINDS_FAST)),
                         ids=[spec.kind for spec in ALL_KINDS_FAST])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_model_files_raise_only_config_errors(saved_models, index, data):
    """Type swaps, out-of-range numbers and indices, wrong lengths, NaN and
    deep nesting anywhere in a saved model: load_model and predict
    either work or raise ConfigError."""
    docs, path = saved_models
    doc = json.loads(docs[index])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        # A random walk down from the root, so shallow keys (spec, dims,
        # scaling) are hit as often as the values deep inside a tree.
        node = doc
        while True:
            key = data.draw(st.sampled_from(list(node.keys()) if isinstance(node, dict)
                                            else range(len(node))), label="key")
            child = node[key]
            if not (child and isinstance(child, (dict, list))
                    and data.draw(st.integers(0, 2), label="descend")):
                break
            node = child
        how = data.draw(st.sampled_from(["swap", "drop", "repeat"]), label="how")
        if how == "swap":
            node[key] = copy.deepcopy(data.draw(st.sampled_from(SWAPS), label="value"))
        elif how == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    text = json.dumps(doc).replace(f'"{DEEP}"', "[" * 5000 + "0" + "]" * 5000)
    with open(path, "w") as fh:
        fh.write(text)
    try:
        model = models.load_model(path)
    except ConfigError:
        return
    probe, _ = random_problem(334, n=7, d=model.input_dim)
    with np.errstate(all="ignore"):
        model.predict(probe)


@pytest.mark.parametrize("mode", ["z_score", "none"])
def test_scaled_predict_matches_manual_path(mode):
    """predict answers in the data's units: the fitted scaling's transform,
    the learner, then its inverse; a wrong width is a ShapeError before any
    transform runs."""
    sset = build_supervised([make_city(n_periods=40, seed=17)], PollutantKind.NO2)
    train = sset
    if mode != "none":
        train = apply_scaling(sset, fit_scaling(sset, mode))
    for kind in ("knn", "linreg"):
        model = fit_arrays(ModelSpec(kind=kind), train.inputs, train.targets, train.scaling)
        got = model.predict(sset.inputs)
        sc = model.scaling
        if mode == "none":
            assert not sc.fitted
            want = model._predict(sset.inputs)
        else:
            want = sc.invert_targets(model._predict(sc.transform_inputs(sset.inputs)))
        assert got.tobytes() == want.tobytes()
        for wrong in (np.zeros((1, 11)), np.zeros(11), np.zeros((1, 9))):
            with pytest.raises(ShapeError, match="inputs must be M x 10"):
                model.predict(wrong)


def test_predict_validates_shape_and_finiteness():
    X, Y = random_problem(332, n=20, d=3)
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    out = model.predict(X[0])          # 1-D convenience reshape
    assert out.shape == (1, 2)
    with pytest.raises(ShapeError):
        model.predict(np.zeros((4, 7)))
    with pytest.raises(ShapeError):
        model.predict(np.array([[1.0, np.nan, 2.0]]))


def test_fit_validates_shapes():
    with pytest.raises(ShapeError):
        models.fit(ModelSpec(kind="linreg"), [(np.zeros((5, 3)), np.zeros((4, 2)))])


@pytest.mark.parametrize("kind", ["knn", "dtr", "rfr", "linreg", "ridge",
                                  "lasso", "madab"])
def test_constant_targets_predicted_exactly(kind):
    X, _ = random_problem(333, n=20, d=10)
    Y = np.full((20, 2), 7.25)
    hyper = {"estimators": 2} if kind == "madab" else (
        {"n_trees": 3} if kind == "rfr" else {})
    model = fit_arrays(ModelSpec(kind=kind, hyperparameters=hyper),
                       X, Y, IDENTITY_SCALING)
    np.testing.assert_allclose(model.predict(X), Y, rtol=1e-9)


# -- golden bytes -----------------------------------------------------------

# sha256 of model_to_json for each kind fitted on the z-scored NO2 set of
# synth.generate(seed=0) (four cities pooled). Rerun identity only compares
# a build with itself; these digests pin the bytes across rewrites of the
# split scan, the draws, the training step and the model file writer.
GOLDEN_SPECS = [
    ModelSpec(kind="knn"),
    ModelSpec(kind="linreg"),
    ModelSpec(kind="ridge"),
    ModelSpec(kind="lasso"),
    ModelSpec(kind="rfr", hyperparameters={"n_trees": 5}),
    ModelSpec(kind="dtr"),
    ModelSpec(kind="madab"),
    ModelSpec(kind="mgbr"),
    ModelSpec(kind="dnn", hyperparameters={"epochs": 3}),
]
GOLDEN_SHA256 = {
    "knn": "e8c9a4d5b5b1be41632cc313307dda3cf509039e4d63aeb989ee4388ea64ed21",
    "linreg": "5c64fe5f698bca49d061a48a3284eb0ba760494dc2742b0f76022c7be1ac0477",
    "ridge": "73e03bf8336aecccfad9438945b7d3cd102f4cb3fe5673e9698e16eaa6c1482c",
    "lasso": "a6fb8fe9f7f98d3b9dd6a5c4f79aa8f0b4c17f3230951c266277e4ec8f1c2c21",
    "rfr": "3cd1e0a2b7db8929651ee6567055f1525a13bb8d7c033e627b622e7e9436f961",
    "dtr": "5ad50cd8403370d78c66e27bc146da3bbc81d9c06e2710096ec5b43d4e88d1a2",
    "madab": "1eec78b3f7fd46fea2c52e8ab757e00e4113936ed14ffff11091ef2dbf0765aa",
    "mgbr": "2a543b4444cf71ebb22a19bd78908948b964904048b853a2f72b0cb0950d35f5",
    "dnn": "11df5e2d377a77c78cd2925f61d2c20b084350c90fad79c676d05cf83aacca78",
}


@pytest.fixture(scope="module")
def golden_train(tmp_path_factory):
    res = synth.generate(str(tmp_path_factory.mktemp("golden")), profile="linear", seed=0)
    cfg = load_config(res.config_path)
    sset = build_supervised([ingest_city(c, cfg.year) for c in cfg.cities],
                            PollutantKind.NO2)
    return apply_scaling(sset, fit_scaling(sset, "z_score"))


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.kind)
def test_model_bytes_match_golden_digest(spec, golden_train):
    model = fit_arrays(spec, golden_train.inputs, golden_train.targets, golden_train.scaling)
    text = model_to_json(model)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[spec.kind]
