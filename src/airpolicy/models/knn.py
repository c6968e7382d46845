"""Nearest-neighbor regression: unweighted mean of the k closest rows.

Distances are Euclidean over inputs min-max scaled with bounds from the
training set (a constant column scales by 1, contributing nothing, which is
the right behavior for a distance). Neighbor ties resolve by training-row
order via a stable sort, keeping predictions deterministic.
"""

from __future__ import annotations

import numpy as np

from ..dataset import affine_fit
from ..errors import ConfigError, InsufficientDataError
from .base import ModelSpec, TrainedModel, register_kind


class KnnModel(TrainedModel):
    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 lo: np.ndarray, span: np.ndarray,
                 train_scaled: np.ndarray, train_targets: np.ndarray):
        super().__init__(spec, input_dim, output_dim)
        self.lo = lo
        self.span = span
        self.train_scaled = train_scaled
        self.train_targets = train_targets

    def _predict(self, X: np.ndarray) -> np.ndarray:
        k = self.spec.params["k"]
        Q = (X - self.lo) / self.span
        out = np.empty((Q.shape[0], self.output_dim))
        for i in range(Q.shape[0]):
            d2 = ((self.train_scaled - Q[i]) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[:k]
            out[i] = self.train_targets[nearest].mean(axis=0)
        return out

    @classmethod
    def shapes(cls, input_dim: int, output_dim: int) -> dict[str, tuple]:
        return {"lo": (input_dim,), "span": (input_dim,),
                "train_scaled": (None, input_dim), "train_targets": (None, output_dim)}

    @classmethod
    def load(cls, spec: ModelSpec, input_dim: int, output_dim: int, saved: dict) -> "KnnModel":
        """Also positive spans, and at least k training rows with as many targets."""
        model = super().load(spec, input_dim, output_dim, saved)
        if not (model.span > 0.0).all():
            raise ConfigError("knn span must be positive")
        X, Y, k = model.train_scaled, model.train_targets, spec.params["k"]
        if not X.shape[0] == Y.shape[0] >= k:
            raise ConfigError(f"knn train_scaled and train_targets must have equal row counts "
                              f"of at least k = {k}, got {X.shape[0]} and {Y.shape[0]}")
        return model


def _fit_knn(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> KnnModel:
    k = spec.params["k"]
    if X.shape[0] < k:
        raise InsufficientDataError(f"k = {k} exceeds training rows = {X.shape[0]}")
    lo, span = affine_fit(X, "min_max")
    span = np.where(span > 0.0, span, 1.0)
    return KnnModel(spec, X.shape[1], Y.shape[1], lo, span, (X - lo) / span, Y.copy())


register_kind("knn", _fit_knn, KnnModel.load)
