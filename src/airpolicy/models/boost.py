"""AdaBoost.R2-style boosting over shallow regression trees, per output.

Each round fits the base tree with the current sample weights directly (no
bootstrap resampling), so a 1-estimator ensemble is its base tree exactly
and training is deterministic without any random state. Rounds use the
linear loss: residuals are scaled by the round's largest residual, the
weighted mean of that relative loss drives the confidence beta = e/(1-e),
sample weights multiply by beta^(1-loss), and boosting halts early on a
perfect fit or when the weighted loss reaches 0.5. Prediction is the
estimator-weighted median of the member trees' outputs.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .base import ModelSpec, TrainedModel, float_array, register_kind
from .tree import Tree, grow_tree, tree_predict


def _boost_column(X: np.ndarray, y: np.ndarray, estimators: int,
                  base_depth: int) -> tuple[list[Tree], list[float]]:
    n = X.shape[0]
    w = np.ones(n)
    Y1 = y.reshape(-1, 1)
    trees: list[Tree] = []
    alphas: list[float] = []
    for _ in range(estimators):
        tree = grow_tree(X, Y1, w, max_depth=base_depth)
        pred = tree_predict(tree, X)[:, 0]
        err = np.abs(pred - y)
        emax = err.max()
        if emax == 0.0:
            trees.append(tree)
            alphas.append(1.0)
            break
        loss = err / emax
        ebar = float((w * loss).sum() / w.sum())
        if ebar >= 0.5:
            if not trees:
                trees.append(tree)
                alphas.append(1.0)
            break
        beta = ebar / (1.0 - ebar)
        trees.append(tree)
        alphas.append(math.log(1.0 / beta))
        w = w * beta ** (1.0 - loss)
    return trees, alphas


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    csum = np.cumsum(weights[order])
    cut = 0.5 * csum[-1]
    k = int(np.searchsorted(csum, cut))
    return float(values[order[min(k, len(values) - 1)]])


class BoostModel(TrainedModel):
    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 columns: list[tuple[list[Tree], list[float]]]):
        super().__init__(spec, input_dim, output_dim)
        self.columns = columns

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], self.output_dim))
        for c, (trees, alphas) in enumerate(self.columns):
            preds = np.stack([tree_predict(t, X)[:, 0] for t in trees], axis=1)
            aw = np.array(alphas)
            for i in range(X.shape[0]):
                out[i, c] = _weighted_median(preds[i], aw)
        return out

    def _params(self) -> dict:
        # One column's trees at a time, as the file is written.
        return {
            "columns": (
                {"trees": [t.to_dict() for t in trees],
                 "alphas": [float(a) for a in alphas]}
                for trees, alphas in self.columns
            )
        }


def _fit_madab(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> BoostModel:
    estimators = int(spec.params["estimators"])
    base_depth = int(spec.params["base_depth"])
    columns = [
        _boost_column(X, Y[:, c], estimators, base_depth)
        for c in range(Y.shape[1])
    ]
    return BoostModel(spec, X.shape[1], Y.shape[1], columns)


def _load_madab(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> BoostModel:
    """Rebuild a saved ensemble: one column of one-output trees per output,
    at least one tree each, and one finite alpha per tree."""
    cols = params["columns"]
    if not (isinstance(cols, list) and len(cols) == output_dim):
        raise ConfigError(f"madab columns must be a list of {output_dim}")
    columns = []
    for c, col in enumerate(cols):
        trees = col["trees"]
        if not (isinstance(trees, list) and trees):
            raise ConfigError(f"madab column {c} must have at least one tree")
        alphas = float_array(col["alphas"], (len(trees),), f"madab column {c} alphas")
        columns.append(([Tree.from_dict(d, input_dim, 1) for d in trees], alphas.tolist()))
    return BoostModel(spec, input_dim, output_dim, columns)


register_kind("madab", _fit_madab, _load_madab)
