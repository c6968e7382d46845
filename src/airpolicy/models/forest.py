"""Random forest: bootstrap-sampled trees, plain mean aggregation.

Seeding is layered for portability: the spec seed feeds one root generator,
which spawns an independent child generator per tree in tree order; the
child draws that tree's bootstrap indices. The assignment tree -> child is
therefore fixed regardless of how trees are scheduled.
"""

from __future__ import annotations

import numpy as np

from ..rng import SplitMix64
from .base import ModelSpec, TrainedModel, register_kind
from .tree import TreeNode, grow_tree, tree_predict


class ForestModel(TrainedModel):
    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 roots: list[TreeNode]):
        super().__init__(spec, input_dim, output_dim)
        self.roots = roots

    def _predict(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros((X.shape[0], self.output_dim))
        for root in self.roots:
            acc += tree_predict(root, X)
        return acc / len(self.roots)

    def member_predictions(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape (n_trees, M, output_dim)."""
        return np.stack([tree_predict(root, np.asarray(X, dtype=np.float64))
                         for root in self.roots])

    def _params(self) -> dict:
        return {"roots": [r.to_dict() for r in self.roots]}


def _fit_rfr(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> ForestModel:
    n = X.shape[0]
    n_trees = spec.params["n_trees"]
    max_depth = spec.params["max_depth"]
    root_gen = SplitMix64(spec.seed)
    child_gens = [root_gen.spawn() for _ in range(n_trees)]
    roots = []
    for gen in child_gens:
        idx = gen.randints(n, n)
        roots.append(grow_tree(X[idx], Y[idx], max_depth=max_depth))
    return ForestModel(spec, X.shape[1], Y.shape[1], roots)


def _load_rfr(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> ForestModel:
    roots = [TreeNode.from_dict(d) for d in params["roots"]]
    return ForestModel(spec, input_dim, output_dim, roots)


register_kind("rfr", _fit_rfr, _load_rfr)
