"""Fully-connected network with SELU hidden layers and a sigmoid output.

Hidden sizes are 20, 10, 20. Inputs and targets are min-max scaled
internally (a constant target column maps to 0.5, the sigmoid's midpoint,
so it is fitted exactly). Hidden weights draw from a seeded LeCun-normal
scheme, std 1/sqrt(fan_in), which suits SELU; the output layer starts at
zero so the untrained net predicts each target's midpoint. Training is
mini-batch gradient descent on MSE with a fixed step size.

Published SELU constants: alpha = 1.6732632423543772,
scale = 1.0507009873554805.
"""

from __future__ import annotations

import math

import numpy as np

from ..dataset import affine_fit
from ..errors import InsufficientDataError
from ..rng import SplitMix64
from .base import ModelSpec, TrainedModel, register_kind

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805
HIDDEN_SIZES = (20, 10, 20)


def selu(z: np.ndarray) -> np.ndarray:
    return SELU_SCALE * np.where(z > 0.0, z, SELU_ALPHA * (np.exp(np.minimum(z, 0.0)) - 1.0))


def selu_grad(z: np.ndarray) -> np.ndarray:
    return SELU_SCALE * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(np.minimum(z, 0.0)))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _layer_sizes(input_dim: int, output_dim: int) -> list[tuple[int, int]]:
    dims = [input_dim, *HIDDEN_SIZES, output_dim]
    return list(zip(dims[:-1], dims[1:]))


def init_params(input_dim: int, output_dim: int, gen: SplitMix64) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded init: LeCun normal on hidden layers, zeros on the output layer.

    Weight entries are drawn row-major per layer so the parameter sequence
    is reproducible from the seed alone.
    """
    params = []
    sizes = _layer_sizes(input_dim, output_dim)
    for li, (fan_in, fan_out) in enumerate(sizes):
        if li == len(sizes) - 1:
            W = np.zeros((fan_in, fan_out))
        else:
            std = 1.0 / math.sqrt(fan_in)
            draws = np.array(gen.normals(fan_in * fan_out))
            W = (std * draws).reshape(fan_in, fan_out)
        params.append((W, np.zeros(fan_out)))
    return params


def forward(params, Xs: np.ndarray) -> np.ndarray:
    """Scaled-space forward pass; outputs are sigmoid values in (0, 1)."""
    h = Xs
    for W, b in params[:-1]:
        h = selu(h @ W + b)
    W, b = params[-1]
    return sigmoid(h @ W + b)


def loss_and_gradients(params, Xs: np.ndarray, Ys: np.ndarray, loss_scale: float = 1.0):
    """MSE loss (mean over batch and outputs) and its parameter gradients."""
    n_layers = len(params)
    acts = [Xs]
    zs = []
    h = Xs
    for W, b in params[:-1]:
        z = h @ W + b
        zs.append(z)
        h = selu(z)
        acts.append(h)
    W, b = params[-1]
    z = h @ W + b
    zs.append(z)
    out = sigmoid(z)
    diff = out - Ys
    loss = loss_scale * float((diff * diff).mean())
    grads = [None] * n_layers
    delta = loss_scale * 2.0 * diff / diff.size  # d loss / d z through the sigmoid next
    delta = delta * out * (1.0 - out)
    for li in range(n_layers - 1, -1, -1):
        W, _ = params[li]
        gW = acts[li].T @ delta
        gb = delta.sum(axis=0)
        grads[li] = (gW, gb)
        if li > 0:
            delta = (delta @ W.T) * selu_grad(zs[li - 1])
    return loss, grads


class DnnModel(TrainedModel):
    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 in_lo, in_span, tg_lo, tg_span, params):
        super().__init__(spec, input_dim, output_dim)
        self.in_lo = np.asarray(in_lo, dtype=np.float64)
        self.in_span = np.asarray(in_span, dtype=np.float64)
        self.tg_lo = np.asarray(tg_lo, dtype=np.float64)
        self.tg_span = np.asarray(tg_span, dtype=np.float64)
        self.params = params

    def forward_scaled(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid outputs before inverse target scaling."""
        Xs = (np.asarray(X, dtype=np.float64) - self.in_lo) / self.in_span
        return forward(self.params, Xs)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.forward_scaled(X) * self.tg_span + self.tg_lo

    def _params(self) -> dict:
        return {
            "in_lo": [float(v) for v in self.in_lo],
            "in_span": [float(v) for v in self.in_span],
            "tg_lo": [float(v) for v in self.tg_lo],
            "tg_span": [float(v) for v in self.tg_span],
            "layers": [
                {"W": [[float(v) for v in row] for row in W],
                 "b": [float(v) for v in b]}
                for W, b in self.params
            ],
        }


def _fit_dnn(spec: ModelSpec, X: np.ndarray, Y: np.ndarray) -> DnnModel:
    n = X.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least 2 rows")
    epochs = int(spec.params["epochs"])
    batch_size = int(spec.params["batch_size"])
    lr = float(spec.params["learning_rate"])
    in_lo, in_span = affine_fit(X, "min_max")
    in_span = np.where(in_span > 0.0, in_span, 1.0)
    tg_lo, tg_span = affine_fit(Y, "min_max")
    # A flat target scales to exactly 0.5, reachable by the zero net.
    tg_lo = np.where(tg_span > 0.0, tg_lo, tg_lo - 0.5)
    tg_span = np.where(tg_span > 0.0, tg_span, 1.0)
    Xs = (X - in_lo) / in_span
    Ys = (Y - tg_lo) / tg_span
    gen = SplitMix64(spec.seed)
    params = init_params(X.shape[1], Y.shape[1], gen)
    order = np.arange(n)
    for _ in range(epochs):
        gen.shuffle(order)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            _, grads = loss_and_gradients(params, Xs[batch], Ys[batch])
            params = [
                (W - lr * gW, b - lr * gb)
                for (W, b), (gW, gb) in zip(params, grads)
            ]
    return DnnModel(spec, X.shape[1], Y.shape[1], in_lo, in_span, tg_lo, tg_span, params)


def _load_dnn(spec: ModelSpec, input_dim: int, output_dim: int, d: dict) -> DnnModel:
    params = [
        (np.array(layer["W"], dtype=np.float64), np.array(layer["b"], dtype=np.float64))
        for layer in d["layers"]
    ]
    return DnnModel(spec, input_dim, output_dim,
                    d["in_lo"], d["in_span"], d["tg_lo"], d["tg_span"], params)


def gradient_check(spec: ModelSpec, x: np.ndarray, y: np.ndarray,
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The network is built from the spec's seed, then the output layer is
    filled with LeCun-normal draws from the same generator: at the standard
    zero output layer most gradients vanish identically and the comparison
    would check nothing. Relative error per parameter is
    |a - n| / max(|a| + |n|, 1e-8).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    gen = SplitMix64(spec.seed)
    params = init_params(x.shape[1], y.shape[1], gen)
    fan_in, fan_out = params[-1][0].shape
    std = 1.0 / math.sqrt(fan_in)
    W_out = (std * np.array(gen.normals(fan_in * fan_out))).reshape(fan_in, fan_out)
    params[-1] = (W_out, params[-1][1])
    _, grads = loss_and_gradients(params, x, y)
    worst = 0.0
    for li in range(len(params)):
        for slot in range(2):
            arr = params[li][slot]
            analytic = grads[li][slot]
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                lp, _ = loss_and_gradients(params, x, y)
                flat[idx] = orig - step
                lm, _ = loss_and_gradients(params, x, y)
                flat[idx] = orig
                numeric = (lp - lm) / (2.0 * step)
                a = float(analytic.ravel()[idx])
                rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
                worst = max(worst, rel)
    return worst


register_kind("dnn", _fit_dnn, _load_dnn)
