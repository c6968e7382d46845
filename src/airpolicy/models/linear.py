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
from ..errors import InsufficientDataError
from ..rng import SplitMix64
from .base import ModelSpec, TrainedModel, register_kind


class LinearModel(TrainedModel):
    """Intercept-plus-coefficients predictor shared by linreg/ridge/lasso."""

    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 beta: np.ndarray, metadata: dict | None = None):
        super().__init__(spec, input_dim, output_dim, metadata=metadata)
        self.beta = beta  # (input_dim + 1, output_dim); row 0 is the intercept
        self.objective_traces: list[np.ndarray] = []  # lasso diagnostics, not persisted

    @property
    def intercept(self) -> np.ndarray:
        return self.beta[0]

    @property
    def coefficients(self) -> np.ndarray:
        return self.beta[1:]

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.beta[1:] + self.beta[0]

    def _params(self) -> dict:
        return {"beta": [[float(v) for v in row] for row in self.beta]}


def _load_linear(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> LinearModel:
    beta = np.array(params["beta"], dtype=np.float64).reshape(input_dim + 1, output_dim)
    return LinearModel(spec, input_dim, output_dim, beta)


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

    def _params(self) -> dict:
        return {
            "mu": [float(v) for v in self.mu],
            "sd": [float(v) for v in self.sd],
            "W": [[float(v) for v in row] for row in self.W],
            "b": [float(v) for v in self.b],
        }


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
        for _ in range(epochs):
            gen.shuffle(order)
            for i in order:
                t += 1
                eta = eta0 / t ** 0.25
                g = (Xs[i] @ w + bias) - Y[i, c]
                w -= eta * (g * Xs[i] + l2 * w)  # bias stays unpenalized
                bias -= eta * g
        W[:, c] = w
        b[c] = bias
    return SgdLinearModel(spec, d, Y.shape[1], mu, sd, W, b)


def _load_mgbr(spec: ModelSpec, input_dim: int, output_dim: int, params: dict) -> SgdLinearModel:
    return SgdLinearModel(
        spec, input_dim, output_dim,
        np.array(params["mu"], dtype=np.float64),
        np.array(params["sd"], dtype=np.float64),
        np.array(params["W"], dtype=np.float64).reshape(input_dim, output_dim),
        np.array(params["b"], dtype=np.float64),
    )


register_kind("linreg", _fit_linreg, _load_linear)
register_kind("ridge", _fit_ridge, _load_linear)
register_kind("lasso", _fit_lasso, _load_linear)
register_kind("mgbr", _fit_mgbr, _load_mgbr)
