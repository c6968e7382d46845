"""Nearest-neighbor regression: unweighted mean of the k closest rows.

Distances are Euclidean over inputs min-max scaled with bounds from the
training set (a constant column scales by 1, contributing nothing, which is
the right behavior for a distance). Neighbor ties resolve by training-row
order via a stable sort, keeping predictions deterministic.
"""

from __future__ import annotations

import numpy as np

from ..dataset import affine_fit
from ..errors import InsufficientDataError
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

    def _params(self) -> dict:
        return {
            "lo": [float(v) for v in self.lo],
            "span": [float(v) for v in self.span],
            "train_scaled": [[float(v) for v in row] for row in self.train_scaled],
            "train_targets": [[float(v) for v in row] for row in self.train_targets],
        }


def _fit_knn(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> KnnModel:
    k = spec.params["k"]
    if X.shape[0] < k:
        raise InsufficientDataError(f"k = {k} exceeds training rows = {X.shape[0]}")
    lo, span = affine_fit(X, "min_max")
    span = np.where(span > 0.0, span, 1.0)
    return KnnModel(spec, X.shape[1], Y.shape[1], lo, span, (X - lo) / span, Y.copy())


def _load_knn(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> KnnModel:
    return KnnModel(
        spec, input_dim, output_dim,
        np.array(params["lo"], dtype=np.float64),
        np.array(params["span"], dtype=np.float64),
        np.array(params["train_scaled"], dtype=np.float64).reshape(-1, input_dim),
        np.array(params["train_targets"], dtype=np.float64).reshape(-1, output_dim),
    )


register_kind("knn", _fit_knn, _load_knn)
