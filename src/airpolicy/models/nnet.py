"""Fully-connected network with SELU hidden layers and a sigmoid output.

Hidden sizes are 20, 10, 20. Inputs and targets are min-max scaled
internally (a constant target column maps to 0.5, the sigmoid's midpoint,
so it is fitted exactly). Hidden weights draw from a seeded LeCun-normal
scheme, std 1/sqrt(fan_in), which suits SELU; the output layer starts at
zero so the untrained net predicts each target's midpoint. Training is
mini-batch gradient descent on MSE with a fixed step size. Nets fitted in
one call on sets of equal shape train in lockstep as one stack, each with
the bytes it would get alone.

Published SELU constants: alpha = 1.6732632423543772,
scale = 1.0507009873554805.
"""

from __future__ import annotations

import math

import numpy as np

from ..dataset import affine_fit
from ..errors import ConfigError, InsufficientDataError
from ..rng import SplitMix64
from .base import ModelSpec, TrainedModel, float_array, register_kind

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805
HIDDEN_SIZES = (20, 10, 20)


def selu_and_grad(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SELU and its derivative at ``z``; one exp(min(z, 0)) serves both."""
    pos = z > 0.0
    e = np.exp(np.minimum(z, 0.0))
    return (SELU_SCALE * np.where(pos, z, SELU_ALPHA * (e - 1.0)),
            SELU_SCALE * np.where(pos, 1.0, SELU_ALPHA * e))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so no exp
    overflows; exp(-|z|) is the exponential either branch needs."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


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


def _forward(params, Xs: np.ndarray):
    """One pass: the layer inputs (``Xs`` first), the SELU slopes and the
    sigmoid outputs."""
    acts = [Xs]
    slopes = []
    h = Xs
    for W, b in params[:-1]:
        h, slope = selu_and_grad(h @ W + b)
        acts.append(h)
        slopes.append(slope)
    W, b = params[-1]
    return acts, slopes, sigmoid(h @ W + b)


def forward(params, Xs: np.ndarray) -> np.ndarray:
    """Scaled-space forward pass; outputs are sigmoid values in (0, 1)."""
    return _forward(params, Xs)[2]


def stack_params(members) -> list[tuple[np.ndarray, np.ndarray]]:
    """K nets' ``[(W, b), ...]`` as one stack: W (K, fan_in, fan_out), b (K, 1, fan_out)."""
    return [(np.stack([m[li][0] for m in members]),
             np.stack([m[li][1][None, :] for m in members]))
            for li in range(len(members[0]))]


def _backprop(params, Xs: np.ndarray, Ys: np.ndarray, grads) -> np.ndarray:
    """MSE gradients of a stack of K nets, each on its own batch, written into
    ``grads`` (laid out like ``params``); returns the output errors.

    Xs is (K, B, in) and Ys (K, B, out). Member k's loss is the mean over
    its own batch and outputs, and each matmul and the bias reduction work
    per member, so member k's gradients are bit for bit those of the lone net.
    """
    acts, slopes, out = _forward(params, Xs)
    diff = out - Ys
    delta = 2.0 * diff / diff[0].size  # d loss / d z through the sigmoid next
    delta = delta * out * (1.0 - out)
    for li in range(len(params) - 1, -1, -1):
        gW, gb = grads[li]
        np.matmul(acts[li].mT, delta, out=gW)
        np.add.reduce(delta, axis=1, keepdims=True, out=gb)
        if li > 0:
            delta = (delta @ params[li][0].mT) * slopes[li - 1]
    return diff


def loss_and_gradients(params, Xs: np.ndarray, Ys: np.ndarray):
    """Each member's MSE loss (mean over batch and outputs), shape (K,), and the
    stack's parameter gradients; shapes as in ``_backprop``."""
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in params]
    diff = _backprop(params, Xs, Ys, grads)
    # np.add.reduce is what ndarray.mean/sum call, minus their Python layer.
    loss = np.array([np.add.reduce(d * d, axis=None) / d.size for d in diff])
    return loss, grads


def _views(flat: np.ndarray, params) -> list[tuple[np.ndarray, np.ndarray]]:
    """``params``' shapes laid over consecutive parts of ``flat``."""
    out, at = [], 0
    for layer in params:
        views = []
        for a in layer:
            views.append(flat[at:at + a.size].reshape(a.shape))
            at += a.size
        out.append(tuple(views))
    return out


def _train(params, Xs: np.ndarray, Ys: np.ndarray, gen: SplitMix64, epochs: int,
           batch_size: int, lr: float):
    """Mini-batch descent on a stack; every member takes the batches of one
    epoch shuffle drawn from ``gen``.

    Returns the trained parameters. They and their gradients each live in
    one flat buffer, so a step updates every weight in one pass.
    """
    n = Xs.shape[1]
    P = np.concatenate([a.ravel() for layer in params for a in layer])
    G = np.empty_like(P)
    params, grads = _views(P, params), _views(G, params)
    order = list(range(n))
    for _ in range(epochs):
        gen.shuffle(order)
        # One permuted copy per epoch; its batches are contiguous slices.
        Xe, Ye = Xs[:, order], Ys[:, order]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            _backprop(params, Xe[:, start:stop], Ye[:, start:stop], grads)
            P -= lr * G
    return params


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

    @classmethod
    def shapes(cls, input_dim: int, output_dim: int) -> dict[str, tuple]:
        return {"in_lo": (input_dim,), "in_span": (input_dim,),
                "tg_lo": (output_dim,), "tg_span": (output_dim,)}

    def _params(self) -> dict:
        # Layers go out one at a time, each as nested lists.
        layers = ({"W": W.tolist(), "b": b.tolist()} for W, b in self.params)
        return {**super()._params(), "layers": layers}

    @classmethod
    def load(cls, spec: ModelSpec, input_dim: int, output_dim: int, saved: dict) -> "DnnModel":
        """Also one layer of each fixed size, and positive spans."""
        sizes = _layer_sizes(input_dim, output_dim)
        layers = saved["layers"]
        if not isinstance(layers, list) or len(layers) != len(sizes):
            raise ConfigError(f"dnn model must have {len(sizes)} layers")
        params = [(float_array(layer["W"], (fan_in, fan_out), f"dnn layer {li} W"),
                   float_array(layer["b"], (fan_out,), f"dnn layer {li} b"))
                  for li, (layer, (fan_in, fan_out)) in enumerate(zip(layers, sizes))]
        model = super().load(spec, input_dim, output_dim, saved, params=params)
        if not ((model.in_span > 0.0).all() and (model.tg_span > 0.0).all()):
            raise ConfigError("dnn in_span and tg_span must be positive")
        return model


def _min_max(X: np.ndarray, Y: np.ndarray):
    """(in_lo, in_span, tg_lo, tg_span) of one training set."""
    in_lo, in_span = affine_fit(X, "min_max")
    in_span = np.where(in_span > 0.0, in_span, 1.0)
    tg_lo, tg_span = affine_fit(Y, "min_max")
    # A flat target scales to exactly 0.5, reachable by the zero net.
    tg_lo = np.where(tg_span > 0.0, tg_lo, tg_lo - 0.5)
    tg_span = np.where(tg_span > 0.0, tg_span, 1.0)
    return in_lo, in_span, tg_lo, tg_span


def _fit_dnn(spec: ModelSpec, pairs) -> list:
    """One net per (X, Y) pair: a DnnModel, or the error that stopped it.

    Pairs of equal (rows, input dim, output dim) train in lockstep as one
    stack, so a ragged last batch lines up across the stack. A lone fit
    draws its init and epoch shuffles from ``SplitMix64(spec.seed)``; the
    members of a stack would all draw that same sequence, so they share one
    generator and each model has the bytes of a fit on its pair alone.
    """
    epochs = int(spec.params["epochs"])
    batch_size = int(spec.params["batch_size"])
    lr = float(spec.params["learning_rate"])
    results: list = [None] * len(pairs)
    groups: dict[tuple, list[int]] = {}
    for i, (X, Y) in enumerate(pairs):
        if X.shape[0] < 2:
            results[i] = InsufficientDataError("need at least 2 rows")
        else:
            groups.setdefault((*X.shape, Y.shape[1]), []).append(i)
    for (_, input_dim, output_dim), idx in groups.items():
        scales = [_min_max(*pairs[i]) for i in idx]
        Xs = np.stack([(pairs[i][0] - in_lo) / in_span
                       for i, (in_lo, in_span, _, _) in zip(idx, scales)])
        Ys = np.stack([(pairs[i][1] - tg_lo) / tg_span
                       for i, (_, _, tg_lo, tg_span) in zip(idx, scales)])
        gen = SplitMix64(spec.seed)
        params = stack_params([init_params(input_dim, output_dim, gen)] * len(idx))
        params = _train(params, Xs, Ys, gen, epochs, batch_size, lr)
        for k, (i, scale) in enumerate(zip(idx, scales)):
            results[i] = DnnModel(spec, input_dim, output_dim, *scale,
                                  [(W[k].copy(), b[k, 0].copy()) for W, b in params])
    return results


def gradient_check(spec: ModelSpec, x: np.ndarray, y: np.ndarray,
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The network is built from the spec's seed, then the output layer is
    filled with LeCun-normal draws from the same generator: at the standard
    zero output layer most gradients vanish identically and the comparison
    would check nothing. Relative error per parameter is
    |a - n| / max(|a| + |n|, 1e-8).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, 1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, 1, -1)
    gen = SplitMix64(spec.seed)
    params = init_params(x.shape[2], y.shape[2], gen)
    fan_in, fan_out = params[-1][0].shape
    std = 1.0 / math.sqrt(fan_in)
    W_out = (std * np.array(gen.normals(fan_in * fan_out))).reshape(fan_in, fan_out)
    params[-1] = (W_out, params[-1][1])
    params = stack_params([params])
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
                lp = loss_and_gradients(params, x, y)[0][0]
                flat[idx] = orig - step
                lm = loss_and_gradients(params, x, y)[0][0]
                flat[idx] = orig
                numeric = (lp - lm) / (2.0 * step)
                a = float(analytic.ravel()[idx])
                rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
                worst = max(worst, rel)
    return worst


register_kind("dnn", _fit_dnn, DnnModel.load, lockstep=True)
