"""Random forest: bootstrap-sampled trees, plain mean aggregation.

Seeding is layered for portability: the spec seed feeds one root generator,
which spawns an independent child generator per tree in tree order; the
child draws that tree's bootstrap indices. The assignment tree -> child is
therefore fixed regardless of how trees are scheduled.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..rng import SplitMix64
from .base import ModelSpec, TrainedModel, register_kind
from .tree import Tree, grow_tree, tree_predict


class ForestModel(TrainedModel):
    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 trees: list[Tree]):
        super().__init__(spec, input_dim, output_dim)
        self.trees = trees

    def _predict(self, X: np.ndarray) -> np.ndarray:
        # Added one tree at a time in tree order: np.sum over a stack could
        # add pairwise and move the mean's last bit.
        acc = np.zeros((X.shape[0], self.output_dim))
        for tree in self.trees:
            acc += tree_predict(tree, X)
        return acc / len(self.trees)

    def _params(self) -> dict:
        # One tree's arrays at a time, as the file is written.
        return {"trees": (tree.to_dict() for tree in self.trees)}


def _fit_rfr(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> ForestModel:
    n = X.shape[0]
    n_trees = spec.params["n_trees"]
    max_depth = spec.params["max_depth"]
    root_gen = SplitMix64(spec.seed)
    child_gens = [root_gen.spawn() for _ in range(n_trees)]
    trees = []
    for gen in child_gens:
        idx = gen.randints(n, n)
        trees.append(grow_tree(X[idx], Y[idx], max_depth=max_depth))
    return ForestModel(spec, X.shape[1], Y.shape[1], trees)


def _load_rfr(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> ForestModel:
    trees = params["trees"]
    if not (isinstance(trees, list) and trees):
        raise ConfigError("rfr trees must be a non-empty list of trees")
    return ForestModel(spec, input_dim, output_dim,
                       [Tree.from_dict(d, input_dim, output_dim) for d in trees])


register_kind("rfr", _fit_rfr, _load_rfr)
