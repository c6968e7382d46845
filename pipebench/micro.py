"""Kernel microbenchmarks at the shapes the pipeline feeds them.

183 is one city's year of two-day periods and 732 the pooled four-city
series that screening aligns; 580 x 10 is one pollutant's training set
(four cities x 145 rows, 8 measures + mean + std); 728 SplitMix64 draws is
one draw per supervised row of a pollutant (four cities x 182). Each figure
is the median of several timed calls after one warm-up call, in
milliseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BAND = 10  # the Sakoe-Chiba half-width the screen-sweep workload uses


def _median_ms(fn, repeat: int) -> float:
    fn()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def run(seed: int) -> dict[str, float]:
    from airpolicy import kernels
    from airpolicy.rng import SplitMix64

    gen = SplitMix64(seed)
    out = {}
    for n, repeat in ((183, 9), (732, 3)):
        a = np.array(gen.normals(n))
        b = np.array(gen.normals(n))
        cost = np.abs(a[:, None] - b[None, :])
        out[f"kernels.micro.dtw_{n}_ms"] = _median_ms(
            lambda: kernels.dtw_accumulate(cost, -1), repeat)
        out[f"kernels.micro.dtw_{n}_band_ms"] = _median_ms(
            lambda: kernels.dtw_accumulate(cost, BAND), repeat)
    X = np.array(gen.normals(580 * 10)).reshape(580, 10)
    Y = np.array(gen.normals(580 * 2)).reshape(580, 2)
    w = np.ones(580)
    out["kernels.micro.best_split_580x10_ms"] = _median_ms(
        lambda: kernels.best_split(X, Y, w), 9)
    Xc = X - X.mean(axis=0)
    y = Y[:, 0] - Y[:, 0].mean()
    out["kernels.micro.lasso_cd_580x10_ms"] = _median_ms(
        lambda: kernels.lasso_cd(Xc, y, 0.001, 1e-6, 10000), 9)
    draws = SplitMix64(seed)
    out["kernels.micro.splitmix64_728_ms"] = _median_ms(
        lambda: [draws.u64() for _ in range(728)], 25)
    return out
