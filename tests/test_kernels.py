"""Kernel contracts: the DTW table's borders, window and recurrence, and
the split search's no-split result and bit-identity with a per-feature
scan. The acceptance oracles (exhaustive DTW and split enumeration) check
the kernels against independent references."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airpolicy import kernels
from airpolicy.rng import SplitMix64


def random_cost(gen, n, m):
    return np.abs(np.array(gen.normals(n * m))).reshape(n, m)


def row_by_row_dtw(cost, window):
    """The recurrence one cell at a time, row by row: the definition the
    diagonal kernel must reproduce bit for bit."""
    n, m = cost.shape
    acc = np.full((n, m), np.inf)
    for i in range(n):
        for j in range(m):
            if window >= 0 and abs(i - j) > window:
                continue
            if i == 0 and j == 0:
                acc[i, j] = cost[i, j]
            elif i == 0:
                acc[i, j] = acc[i, j - 1] + cost[i, j]
            elif j == 0:
                acc[i, j] = acc[i - 1, j] + cost[i, j]
            else:
                acc[i, j] = cost[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j],
                                             acc[i, j - 1])
    return acc


@st.composite
def dtw_problems(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    values = (st.integers(-3, 3).map(float) if draw(st.booleans())  # ties
              else st.floats(-1e3, 1e3, allow_subnormal=False))
    a = draw(hnp.arrays(np.float64, n, elements=values))
    b = draw(hnp.arrays(np.float64, m, elements=values))
    diff = a[:, None] - b[None, :]
    cost = np.abs(diff) if draw(st.booleans()) else diff * diff
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        cost = np.asfortranarray(cost)
    elif layout == "transposed":
        cost = np.ascontiguousarray(cost.T).T
    elif layout == "strided":
        wide = np.zeros((n, 2 * m))
        wide[:, ::2] = cost
        cost = wide[:, ::2]
    gap = abs(n - m)
    window = draw(st.sampled_from([-1, 0, max(gap - 1, 0), gap, max(n, m) + 1]
                                  + [draw(st.integers(0, 45))]))
    return cost, window


@given(dtw_problems())
def test_dtw_accumulate_bitwise_equals_row_by_row(problem):
    cost, window = problem
    want = row_by_row_dtw(cost, window)
    assert kernels.dtw_accumulate(cost, window).tobytes() == want.tobytes()


@given(dtw_problems())
def test_dtw_accumulate_into_its_cost_equals_allocating(problem):
    """out=cost overwrites a C-contiguous float64 cost with its accumulated
    cost. Outside a band the fill reads only the fence diagonals
    j - i = ±(window + 1): with inf there and NaN on every other
    out-of-band cell, the table equals the allocating one up to the fence,
    and the NaNs stay as they are."""
    cost, window = problem
    cost = np.ascontiguousarray(cost)
    want = kernels.dtw_accumulate(cost, window)
    i, j = np.indices(cost.shape)
    off = np.abs(i - j)
    fence = window + 1 if window >= 0 else max(cost.shape)
    cost[off > fence] = np.nan
    cost[off == fence] = np.inf
    got = kernels.dtw_accumulate(cost, window, out=cost)
    assert got is cost
    assert got[off <= fence].tobytes() == want[off <= fence].tobytes()
    assert np.isnan(got[off > fence]).all()


@pytest.mark.parametrize("make_out", [
    lambda cost: np.asfortranarray(cost),
    lambda cost: np.zeros((cost.shape[0], 2 * cost.shape[1]))[:, ::2],
    lambda cost: cost.astype(np.float32),
    lambda cost: np.zeros((cost.shape[0], cost.shape[1] + 1)),
], ids=["F-ordered", "strided", "float32", "shape"])
def test_dtw_accumulate_rejects_an_out_it_cannot_write_in_place(make_out):
    cost = random_cost(SplitMix64(104), 6, 5)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        kernels.dtw_accumulate(cost, -1, out=make_out(cost))


def test_dtw_window_larger_than_needed_equals_unwindowed():
    gen = SplitMix64(103)
    cost = random_cost(gen, 15, 11)
    assert np.array_equal(kernels.dtw_accumulate(cost, 100),
                          kernels.dtw_accumulate(cost, -1))


def test_dtw_table_corner_and_borders():
    cost = np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 1.0]])
    acc = kernels.dtw_accumulate(cost, -1)
    # Borders are running sums; interior takes the cheapest predecessor.
    assert acc[0, 0] == 1.0
    assert np.array_equal(acc[0], np.cumsum(cost[0]))
    assert np.array_equal(acc[:, 0], np.cumsum(cost[:, 0]))
    assert acc[1, 1] == cost[1, 1] + 1.0
    assert acc[1, 2] == cost[1, 2] + acc[1, 1]


def test_best_split_no_valid_split_on_constant_feature():
    X = np.ones((6, 2))
    Y = np.arange(12.0).reshape(6, 2)
    w = np.ones(6)
    f, t, s = kernels.best_split(X, Y, w)
    assert f == -1 and not np.isfinite(s)


def per_feature_best_split(X, Y, w):
    """The split search one feature at a time: the definition the one-pass
    kernel must reproduce bit for bit."""
    n, n_feat = X.shape
    wsum = kernels._seqsum(w)
    mean = np.cumsum(w[:, None] * Y, axis=0)[-1] / wsum
    Yc = Y - mean
    best_feat, best_thr, best_score = -1, 0.0, np.inf
    for f in range(n_feat):
        order = np.argsort(X[:, f], kind="mergesort")
        xv = X[order, f]
        if xv[0] == xv[-1]:
            continue
        yv = Yc[order]
        wv = w[order]
        cw = np.cumsum(wv)
        wy = np.cumsum(wv[:, None] * yv, axis=0)
        wy2 = np.cumsum(wv[:, None] * yv * yv, axis=0)
        wl = cw[:-1]
        wr = cw[-1] - wl
        sl = wy[:-1]
        s2l = wy2[:-1]
        sr = wy[-1] - sl
        s2r = wy2[-1] - s2l
        score = np.cumsum(s2l - sl * sl / wl[:, None], axis=1)[:, -1]
        score = score + np.cumsum(s2r - sr * sr / wr[:, None], axis=1)[:, -1]
        valid = (xv[1:] != xv[:-1]) & (wl > 0.0) & (wr > 0.0)
        score = np.where(valid, score, np.inf)
        s = int(np.argmin(score))
        if score[s] < best_score:  # a NaN at the argmin skips the feature
            best_score = float(score[s])
            best_feat = f
            best_thr = 0.5 * (xv[s] + xv[s + 1])
    return best_feat, best_thr, best_score


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 60))
    n_feat = draw(st.integers(1, 6))
    k = draw(st.integers(1, 2))
    X = draw(hnp.arrays(np.float64, (n, n_feat), elements=st.integers(-3, 3).map(float)))
    Y = draw(hnp.arrays(np.float64, (n, k),
                        elements=st.floats(-100.0, 100.0, allow_subnormal=False)))
    w = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])))
    # 1e154 puts squared deviations next to the float64 limit, so sums
    # overflow and scores turn inf or NaN.
    scale = draw(st.sampled_from([1.0, 1e-3, 1e154]))
    return X, Y * scale, w


@given(split_problems())
def test_best_split_bitwise_equals_per_feature_scan(problem):
    X, Y, w = problem
    assume(w.sum() > 0.0)
    with np.errstate(all="ignore"):
        want = per_feature_best_split(X, Y, w)
        got = kernels.best_split(X, Y, w)
    assert got[0] == want[0]
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


def test_best_split_skips_features_with_nan_scores():
    # Weights near the float64 limit overflow the sums: feature 1 has a NaN
    # among its valid scores and is passed over, feature 0 wins with -inf.
    X = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0], [2.0, 1.0]])
    Y = np.array([[0.0], [0.0], [0.5], [-1.0], [0.0], [5e159]])
    w = np.array([1e308, 3.0, 1e308, 0.0, 0.0, 1e-300])
    with np.errstate(all="ignore"):
        got = kernels.best_split(X, Y, w)
        assert got == per_feature_best_split(X, Y, w)
    assert got == (0, 0.5, -np.inf)
