"""Kernel contracts: the DTW table's borders, window and recurrence, and
the split search's no-split result. The acceptance oracles (exhaustive
DTW and split enumeration) check the kernels against independent
references."""

import numpy as np

from airpolicy import kernels
from airpolicy.rng import SplitMix64


def random_cost(gen, n, m):
    return np.abs(np.array(gen.normals(n * m))).reshape(n, m)


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
