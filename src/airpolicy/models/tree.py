"""Weighted CART regression tree with exhaustive axis-aligned split search.

One implementation serves the standalone tree, the forest members, and the
boosting base learners; sample weights default to ones, which makes the
unweighted fit a special case rather than a separate code path. Splits
minimize the weighted sum of child squared errors over all output columns;
candidates are midpoints of consecutive distinct sorted values, rows with
value <= threshold go left, and ties prefer the lower feature index, then
the lower threshold.

A fitted tree is a ``Tree``: parallel per-node arrays in pre-order, node 0
the root, as scikit-learn's ``Tree`` keeps them. A model file holds the same
five arrays.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import ConfigError, InsufficientDataError
from .base import ModelSpec, TrainedModel, float_array, int_array, register_kind


class Tree:
    """Nodes in pre-order: ``feature`` (-1 at a leaf), ``threshold``, child
    indices ``left``/``right`` (-1 at a leaf) and ``value`` (nodes x outputs),
    each node's weighted mean target."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)

    def to_dict(self) -> dict:
        """The five arrays as lists: the model file's form of a tree."""
        return {name: getattr(self, name).tolist() for name in self.__slots__}

    @classmethod
    def from_dict(cls, d, input_dim: int, output_dim: int) -> "Tree":
        """Read the arrays of ``to_dict``; anything but a well-formed tree raises ConfigError.

        Each array is checked alone, then the structure: a leaf has no
        children, and a split node i has ``left = i + 1 < right < n``, so
        every descent moves to a higher node and ends at a leaf.
        """
        if not (isinstance(d, dict) and d.keys() == set(cls.__slots__)):
            raise ConfigError(f"a tree must be an object of exactly the arrays "
                              f"{', '.join(cls.__slots__)}")
        feature = int_array(d["feature"], None, -1, input_dim, "tree feature")
        n = len(feature)
        if n == 0:
            raise ConfigError("a tree must have at least one node")
        left = int_array(d["left"], n, -1, n, "tree left")
        right = int_array(d["right"], n, -1, n, "tree right")
        threshold = float_array(d["threshold"], (n,), "tree threshold")
        value = float_array(d["value"], (n, output_dim), "tree value")
        well_formed = np.where(feature >= 0, (left == np.arange(1, n + 1)) & (left < right),
                               (left == -1) & (right == -1))
        if not well_formed.all():
            raise ConfigError(f"tree node {np.flatnonzero(~well_formed)[0]}: a leaf must have "
                              f"no children, and a split node i the children "
                              f"left = i + 1 < right < n")
        return cls(feature, threshold, left, right, value)


def _weighted_mean(Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (w @ Y) / w.sum()


def _node_sse(Y: np.ndarray, w: np.ndarray, mean: np.ndarray) -> float:
    Yc = Y - mean
    return float((w[:, None] * Yc * Yc).sum())


def _grow(X: np.ndarray, Y: np.ndarray, w: np.ndarray, depth: int, max_depth: int,
          nodes: tuple[list, list, list, list, list]) -> None:
    """Append the subtree of these rows to ``nodes`` (the Tree fields as lists), in pre-order."""
    feature, threshold, left, right, value = nodes
    mean = _weighted_mean(Y, w)
    i = len(value)
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    value.append(mean)
    if depth >= max_depth or X.shape[0] < 2:
        return
    sse = _node_sse(Y, w, mean)
    if sse <= 0.0:
        return
    f, t, score = kernels.best_split(X, Y, w)
    if f < 0 or not (score < sse):
        return
    go_left = X[:, f] <= t
    feature[i], threshold[i] = f, t
    left[i] = len(value)
    _grow(X[go_left], Y[go_left], w[go_left], depth + 1, max_depth, nodes)
    right[i] = len(value)
    _grow(X[~go_left], Y[~go_left], w[~go_left], depth + 1, max_depth, nodes)


def grow_tree(X: np.ndarray, Y: np.ndarray, w: np.ndarray | None = None,
              max_depth: int = 5) -> Tree:
    """Grow a tree on raw arrays; ``w`` is per-row weight, ones when omitted."""
    if X.shape[0] < 1:
        raise InsufficientDataError("cannot grow a tree on zero rows")
    if w is None:
        w = np.ones(X.shape[0])
    nodes = ([], [], [], [], [])
    _grow(np.asarray(X, dtype=np.float64),
          np.asarray(Y, dtype=np.float64),
          np.asarray(w, dtype=np.float64), 0, max_depth, nodes)
    return Tree(*nodes)


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Each row's leaf value; all rows descend one level per step."""
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.flatnonzero(tree.feature[node] >= 0)
    while rows.size:
        at = node[rows]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
        rows = rows[tree.feature[node[rows]] >= 0]
    return tree.value[node]


class DecisionTreeModel(TrainedModel):
    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int, tree: Tree):
        super().__init__(spec, input_dim, output_dim)
        self.tree = tree

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return tree_predict(self.tree, X)

    def _params(self) -> dict:
        return {"tree": self.tree.to_dict()}


def _fit_dtr(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> DecisionTreeModel:
    tree = grow_tree(X, Y, max_depth=spec.params["max_depth"])
    return DecisionTreeModel(spec, X.shape[1], Y.shape[1], tree)


def _load_dtr(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> DecisionTreeModel:
    return DecisionTreeModel(spec, input_dim, output_dim,
                             Tree.from_dict(params["tree"], input_dim, output_dim))


register_kind("dtr", _fit_dtr, _load_dtr)
