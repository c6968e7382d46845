"""Linear family: least squares, ridge, lasso, and SGD-fitted regression.

All four fit each output column independently and share one prediction
shape: an intercept plus a coefficient per input. Least squares and ridge
solve normal equations in closed form (LU with partial pivoting; a singular
system falls back to the pseudo-inverse and flags the model). Lasso runs
cyclic coordinate descent on internally standardized inputs and maps the
coefficients back. The SGD learner interprets its estimator count as
training epochs over shuffled samples with an inverse-scaling step size.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..dataset import affine_fit
from ..errors import ConfigError, DomainError, InsufficientDataError
from ..rng import SplitMix64
from .base import ModelSpec, TrainedModel, register_kind


class LinearModel(TrainedModel):
    """Intercept-plus-coefficients predictor shared by linreg/ridge/lasso."""

    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 beta: np.ndarray, metadata: dict | None = None):
        super().__init__(spec, input_dim, output_dim, metadata=metadata)
        self.beta = beta  # (input_dim + 1, output_dim); row 0 is the intercept
        self.objective_traces: list[np.ndarray] = []  # lasso diagnostics, not persisted

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.beta[1:] + self.beta[0]

    @classmethod
    def shapes(cls, input_dim: int, output_dim: int) -> dict[str, tuple]:
        return {"beta": (input_dim + 1, output_dim)}


def _solve_normal_equations(X: np.ndarray, Y: np.ndarray, lam: float) -> tuple[np.ndarray, bool]:
    n, d = X.shape
    A = np.concatenate([np.ones((n, 1)), X], axis=1)
    G = A.T @ A
    if lam != 0.0:
        # Penalize coefficients only, never the intercept.
        idx = np.arange(1, d + 1)
        G[idx, idx] += lam
    B = A.T @ Y
    try:
        beta = np.linalg.solve(G, B)
        if not np.isfinite(beta).all():
            raise np.linalg.LinAlgError
        return beta, False
    except np.linalg.LinAlgError:
        return np.linalg.pinv(G) @ B, True


def _fit_ols_like(spec: ModelSpec, X: np.ndarray, Y: np.ndarray, lam: float) -> LinearModel:
    if X.shape[0] < 2:
        raise InsufficientDataError("need at least 2 rows")
    beta, fallback = _solve_normal_equations(X, Y, lam)
    metadata = {"singular_fallback": True} if fallback else {}
    return LinearModel(spec, X.shape[1], Y.shape[1], beta, metadata=metadata)


def _fit_linreg(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> LinearModel:
    return _fit_ols_like(spec, X, Y, 0.0)


def _fit_ridge(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> LinearModel:
    return _fit_ols_like(spec, X, Y, float(spec.params["lam"]))


def _fit_lasso(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> LinearModel:
    if X.shape[0] < 2:
        raise InsufficientDataError("need at least 2 rows")
    lam = float(spec.params["lam"])
    tol = float(spec.params["tol"])
    max_sweeps = int(spec.params["max_sweeps"])
    mu, sd = affine_fit(X, "z_score")
    sd = np.where(sd > 0.0, sd, 1.0)  # constant columns keep scale 1
    Xs = (X - mu) / sd
    d = X.shape[1]
    beta = np.zeros((d + 1, Y.shape[1]))
    traces = []
    for c in range(Y.shape[1]):
        y = Y[:, c]
        ybar = y.mean()
        w, _, trace = kernels.lasso_cd(Xs, y - ybar, lam, tol, max_sweeps)
        coef = w / sd
        beta[1:, c] = coef
        beta[0, c] = ybar - float(mu @ coef)
        traces.append(np.asarray(trace))
    model = LinearModel(spec, d, Y.shape[1], beta)
    model.objective_traces = traces
    return model


class SgdLinearModel(TrainedModel):
    """Per-output linear predictor on standardized inputs, fitted by SGD."""

    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 mu: np.ndarray, sd: np.ndarray, W: np.ndarray, b: np.ndarray):
        super().__init__(spec, input_dim, output_dim)
        self.mu = mu
        self.sd = sd
        self.W = W  # (input_dim, output_dim)
        self.b = b  # (output_dim,)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return ((X - self.mu) / self.sd) @ self.W + self.b

    @classmethod
    def shapes(cls, input_dim: int, output_dim: int) -> dict[str, tuple]:
        return {"mu": (input_dim,), "sd": (input_dim,), "W": (input_dim, output_dim),
                "b": (output_dim,)}

    @classmethod
    def load(cls, spec: ModelSpec, input_dim: int, output_dim: int,
             saved: dict) -> "SgdLinearModel":
        """Also positive scales."""
        model = super().load(spec, input_dim, output_dim, saved)
        if not (model.sd > 0.0).all():
            raise ConfigError("mgbr sd must be positive")
        return model


def _fit_mgbr(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> SgdLinearModel:
    n, d = X.shape
    if n < 2:
        raise InsufficientDataError("need at least 2 rows")
    epochs = int(spec.params["epochs"])
    eta0 = float(spec.params["eta0"])
    l2 = float(spec.params["l2"])
    mu, sd = affine_fit(X, "z_score")
    sd = np.where(sd > 0.0, sd, 1.0)  # constant columns keep scale 1
    Xs = (X - mu) / sd
    W = np.zeros((d, Y.shape[1]))
    b = np.zeros(Y.shape[1])
    root = SplitMix64(spec.seed)
    for c in range(Y.shape[1]):
        gen = root.spawn()
        w = np.zeros(d)
        bias = 0.0
        t = 0
        order = np.arange(n)
        for epoch in range(epochs):
            gen.shuffle(order)
            # A step size too large overflows; that is reported below as a
            # diverged fit, not as numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                for i in order:
                    t += 1
                    eta = eta0 / t ** 0.25
                    g = (Xs[i] @ w + bias) - Y[i, c]
                    w -= eta * (g * Xs[i] + l2 * w)  # bias stays unpenalized
                    bias -= eta * g
            if not (np.isfinite(w).all() and np.isfinite(bias)):
                raise DomainError(
                    f"SGD diverged: weights not finite after epoch {epoch + 1} "
                    f"(eta0={eta0:g}; lower eta0)")
        W[:, c] = w
        b[c] = bias
    return SgdLinearModel(spec, d, Y.shape[1], mu, sd, W, b)


register_kind("linreg", _fit_linreg, LinearModel.load)
register_kind("ridge", _fit_ridge, LinearModel.load)
register_kind("lasso", _fit_lasso, LinearModel.load)
register_kind("mgbr", _fit_mgbr, SgdLinearModel.load)
