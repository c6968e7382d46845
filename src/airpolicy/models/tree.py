"""Weighted CART regression tree with exhaustive axis-aligned split search.

One implementation serves the standalone tree, the forest members, and the
boosting base learners; sample weights default to ones, which makes the
unweighted fit a special case rather than a separate code path. Splits
minimize the weighted sum of child squared errors over all output columns;
candidates are midpoints of consecutive distinct sorted values, rows with
value <= threshold go left, and ties prefer the lower feature index, then
the lower threshold.

A fitted tree is a ``Tree``: parallel per-node arrays in pre-order, node 0
the root, as scikit-learn's ``Tree`` keeps them. Model files still hold the
nested JSON of one object per node.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import ConfigError, InsufficientDataError
from .base import ModelSpec, TrainedModel, float_array, register_kind

_LEAF_KEYS = {"value"}
_SPLIT_KEYS = {"value", "feature", "threshold", "left", "right"}


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
        """The nested node objects of the model file, from the root down."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, value = self.left.tolist(), self.right.tolist(), self.value.tolist()

        def node(i: int) -> dict:
            d = {"value": value[i]}
            if feature[i] >= 0:
                d["feature"] = feature[i]
                d["threshold"] = threshold[i]
                d["left"] = node(left[i])
                d["right"] = node(right[i])
            return d

        return node(0)

    @classmethod
    def from_dict(cls, d, input_dim: int, output_dim: int) -> "Tree":
        """Parse nested node objects; anything but a well-formed tree raises ConfigError.

        A node is ``{"value"}`` (a leaf) or also has ``feature``, ``threshold``,
        ``left`` and ``right``. Walked with an explicit stack, so the depth is
        bounded by the JSON parser alone.
        """
        feature, threshold, left, right, value = [], [], [], [], []
        stack = [(d, None, -1)]  # (node object, its parent's left or right list, parent)
        while stack:
            node, children, parent = stack.pop()
            i = len(feature)
            if children is not None:
                children[parent] = i
            if not isinstance(node, dict) or node.keys() not in (_LEAF_KEYS, _SPLIT_KEYS):
                raise ConfigError(f"tree node {i} must be an object with a value and "
                                  f"either no children or feature, threshold, left and right")
            value.append(node["value"])
            left.append(-1)
            right.append(-1)
            if len(node) == 1:
                feature.append(-1)
                threshold.append(0.0)
                continue
            f = node["feature"]
            if not (type(f) is int and 0 <= f < input_dim):
                raise ConfigError(f"tree node {i} feature must be an integer in "
                                  f"[0, {input_dim}), got {f!r}")
            feature.append(f)
            threshold.append(node["threshold"])
            stack.append((node["right"], right, i))
            stack.append((node["left"], left, i))
        return cls(feature, float_array(threshold, (None,), "tree thresholds"), left, right,
                   float_array(value, (None, output_dim), "tree values"))


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
        return {"root": self.tree.to_dict()}


def _fit_dtr(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> DecisionTreeModel:
    tree = grow_tree(X, Y, max_depth=spec.params["max_depth"])
    return DecisionTreeModel(spec, X.shape[1], Y.shape[1], tree)


def _load_dtr(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> DecisionTreeModel:
    return DecisionTreeModel(spec, input_dim, output_dim,
                             Tree.from_dict(params["root"], input_dim, output_dim))


register_kind("dtr", _fit_dtr, _load_dtr)
