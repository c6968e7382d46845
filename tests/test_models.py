"""Learner-by-learner oracles: exhaustive split search, duplication
equivalence for weights, normal-equation identities, soft-threshold
closed forms, boosting exactness, the gradient check, and lossless
persistence for every kind."""

import json
import math

import numpy as np
import pytest

from airpolicy import models
from airpolicy.dataset import (
    IDENTITY_SCALING,
    PollutantKind,
    apply_scaling,
    build_supervised,
    fit_scaling,
)
from airpolicy.errors import ConfigError, InsufficientDataError, ShapeError
from airpolicy.models import ModelSpec, fit_arrays, model_from_json, model_to_json
from airpolicy.models.boost import _weighted_median
from airpolicy.models.forest import ForestModel
from airpolicy.models.nnet import (
    HIDDEN_SIZES,
    SELU_ALPHA,
    SELU_SCALE,
    gradient_check,
    selu,
    sigmoid,
)
from airpolicy.models.tree import TreeNode, grow_tree, tree_predict
from airpolicy.rng import SplitMix64

from conftest import make_city


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
        root = grow_tree(X, Y, max_depth=1)
        of, othr, oscore = exhaustive_root_split(X, Y)
        if of < 0:
            assert root.is_leaf
            continue
        assert root.feature == of, trial
        assert root.threshold == pytest.approx(othr, rel=1e-12)


def test_tree_leaf_values_are_weighted_means():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([[1.0, 10.0], [2.0, 20.0], [30.0, 31.0], [40.0, 41.0]])
    root = grow_tree(X, Y, max_depth=1)
    assert root.feature == 0
    assert root.threshold == 1.5
    np.testing.assert_allclose(root.left.value, [1.5, 15.0])
    np.testing.assert_allclose(root.right.value, [35.0, 36.0])


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


def test_tree_depth_respects_limit():
    gen = SplitMix64(303)
    X = np.array(gen.normals(200 * 3)).reshape(200, 3)
    Y = np.array(gen.normals(200 * 2)).reshape(200, 2)
    for limit in (0, 1, 2, 5):
        root = grow_tree(X, Y, max_depth=limit)
        assert root.depth() <= limit


def test_tree_pure_node_stays_leaf():
    X = np.arange(8.0).reshape(8, 1)
    Y = np.full((8, 2), 3.25)
    root = grow_tree(X, Y, max_depth=5)
    assert root.is_leaf
    np.testing.assert_allclose(root.value, [3.25, 3.25])


def test_tree_constant_features_stay_leaf():
    X = np.ones((6, 3))
    Y = np.random.default_rng(0).normal(size=(6, 2))
    root = grow_tree(X, Y, max_depth=5)
    assert root.is_leaf


def test_tree_predict_walks_hand_built_tree():
    left = TreeNode(value=np.array([1.0, 2.0]))
    right = TreeNode(value=np.array([5.0, 6.0]))
    root = TreeNode(value=np.array([3.0, 4.0]), feature=1, threshold=0.5,
                    left=left, right=right)
    X = np.array([[9.0, 0.5], [9.0, 0.50001]])
    out = tree_predict(root, X)
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
    member = model.member_predictions(X)
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
    out = selu(z)
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


def test_model_json_guards():
    X, Y = random_problem(331, n=20, d=3)
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    text = model_to_json(model)
    d = json.loads(text)
    bad = dict(d, format="other-format")
    with pytest.raises(ConfigError):
        model_from_json(json.dumps(bad))
    bad = dict(d, version=999)
    with pytest.raises(ConfigError):
        model_from_json(json.dumps(bad))
    no_spec = {k: v for k, v in d.items() if k != "spec"}
    wrong_type = dict(d, params={"beta": None})
    wrong_size = dict(d, params={"beta": [[1.0]]})
    for doc in (text[:len(text) // 2], json.dumps(no_spec), json.dumps(wrong_type),
                json.dumps(wrong_size), "[]"):
        with pytest.raises(ConfigError):
            model_from_json(doc)


@pytest.mark.parametrize("mode", ["z_score", "none"])
def test_scaled_predict_matches_manual_path(mode):
    sset = build_supervised([make_city(n_periods=40, seed=17)], PollutantKind.NO2)
    train = sset
    if mode != "none":
        train = apply_scaling(sset, fit_scaling(sset, mode))
    for kind in ("knn", "linreg"):
        model = models.fit(ModelSpec(kind=kind), train)
        got = models.predict(model, sset.inputs)
        if mode == "none":
            assert not model.scaling.fitted
            want = model.predict(sset.inputs)
        else:
            sc = model.scaling
            want = sc.invert_targets(model.predict(sc.transform_inputs(sset.inputs)))
        assert got.tobytes() == want.tobytes()


def test_predict_validates_shape_and_finiteness():
    X, Y = random_problem(332, n=20, d=3)
    model = fit_arrays(ModelSpec(kind="linreg"), X, Y, IDENTITY_SCALING)
    out = model.predict(X[0])          # 1-D convenience reshape
    assert out.shape == (1, 2)
    with pytest.raises(ShapeError):
        model.predict(np.zeros((4, 7)))
    with pytest.raises(ShapeError):
        model.predict(np.array([[1.0, np.nan, 2.0]]))


def test_fit_arrays_validates_shapes():
    with pytest.raises(ShapeError):
        fit_arrays(ModelSpec(kind="linreg"), np.zeros((5, 3)), np.zeros((4, 2)),
                   IDENTITY_SCALING)


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
