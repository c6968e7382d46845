"""Hot numeric kernels: alignment DP, tree split search, lasso sweeps.

Every reduction that feeds a result or a comparison accumulates in a
pinned, strictly left-to-right order: ``np.cumsum`` (one element at a
time) or ``_seqsum`` rather than ``sum``/``@``. numpy's pairwise blocking
and the BLAS build and its thread count would otherwise move a total by an
ulp from one machine to the next, which can flip a near-tied argmin and
change a tree. The pipeline's output bytes are defined by this order.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # one build only; kept because pipebench/run.py records it


def _seqsum(a: np.ndarray) -> float:
    """Strict left-to-right sum; np.sum's pairwise schedule differs past 8
    elements. Empty input sums to 0.0 like np.sum."""
    return float(np.cumsum(a)[-1]) if a.size else 0.0


# ---------------------------------------------------------------------------
# Alignment-cost accumulation (dynamic time warping)
# ---------------------------------------------------------------------------

def dtw_accumulate(cost: np.ndarray, window: int = -1,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Accumulated-cost table for the monotone alignment recurrence.

    acc[i, j] = cost[i, j] + min(acc[i-1, j-1], acc[i-1, j], acc[i, j-1])
    with acc[0, 0] = cost[0, 0] and borders accumulated along their axis.
    ``window >= 0`` restricts cells to ``|i - j| <= window`` (others inf).

    The table is written into ``out`` when given, which may be ``cost``
    itself: a cell's cost is read only when that cell is written. Cells
    outside the band are then left as they are, so a caller that passes
    ``out=cost`` fills them with inf. Without ``out`` a new table is
    allocated.

    Each border is one ``np.cumsum``, which adds strictly left to right.
    The interior is filled one anti-diagonal at a time: in the flat table,
    cell (i, d - i) sits at offset i*(m-1) + d, so a diagonal and its up
    (-m), left (-1) and diagonal (-m-1) predecessors are basic slices with
    step m - 1. The diagonals' row bounds are computed in one vectorized
    pass, and each diagonal then costs three ufunc calls into a reused
    buffer, with no index arrays, gathers or scatters. Every cell is still ``cost + min`` of three exact operands, so
    the table equals a row-by-row sweep's to the bit.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    n, m = cost.shape
    if out is None:
        acc = np.full((n, m), np.inf)
    elif out.shape != (n, m):
        raise ValueError(f"out has shape {out.shape}, cost {cost.shape}")
    else:
        # A strided or non-float out is filled through a contiguous copy.
        acc = np.ascontiguousarray(out, dtype=np.float64)
    jmax = m - 1 if window < 0 else min(m - 1, window)
    imax = n - 1 if window < 0 else min(n - 1, window)
    np.cumsum(cost[0, :jmax + 1], out=acc[0, :jmax + 1])
    np.cumsum(cost[:imax + 1, 0], out=acc[:imax + 1, 0])
    if n > 1 and m > 1:
        _fill_interior(acc.reshape(-1), cost.reshape(-1), n, m, window)
    if out is None or acc is out:
        return acc
    out[...] = acc
    return out


def _fill_interior(A: np.ndarray, C: np.ndarray, n: int, m: int, window: int) -> None:
    step = m - 1
    # Row bounds [lo, hi] of every interior anti-diagonal d, inside the band.
    d = np.arange(2, n + m - 1)
    lo = np.maximum(1, d - m + 1)
    hi = np.minimum(n - 1, d - 1)
    if window >= 0:
        # |i - j| <= window with j = d - i
        lo = np.maximum(lo, (d - window + 1) // 2)
        hi = np.minimum(hi, (d + window) // 2)
    keep = lo <= hi
    start = (lo * step + d)[keep]
    size = (hi - lo + 1)[keep]
    stop = start + (size - 1) * step + 1
    buf = np.empty(min(n, m))
    for s, e, k in zip(start.tolist(), stop.tolist(), size.tolist()):
        b = buf[:k]
        np.minimum(A[s - m:e - m:step], A[s - 1:e - 1:step], out=b)
        np.minimum(A[s - m - 1:e - m - 1:step], b, out=b)
        np.add(C[s:e:step], b, out=A[s:e:step])


# ---------------------------------------------------------------------------
# Best split for the regression tree (weighted, multi-output)
# ---------------------------------------------------------------------------

def _lsum(a: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the first axis; equals np.cumsum(a, axis=0)[-1]."""
    acc = a[0]
    for c in range(1, a.shape[0]):
        acc = acc + a[c]
    return acc


def best_split(X: np.ndarray, Y: np.ndarray, w: np.ndarray):
    """Exhaustive axis-aligned split search minimizing child SSE.

    Returns ``(feature, threshold, score)`` where score is the summed
    weighted SSE of both children over all output columns, or feature -1
    when no value pair differs. Thresholds are midpoints of consecutive
    distinct sorted values; rows with value <= threshold go left. Ties are
    broken toward the lower feature index, then the lower threshold.

    All features are scanned in one pass over (output, feature, row)
    arrays. Every candidate's score goes through the operations of a scan
    of that feature alone, in the same order, so the result is the same to
    the bit; a feature whose valid scores contain a NaN is passed over, as
    such a scan's argmin/compare does.
    """
    n, n_feat = X.shape
    if n < 2 or n_feat == 0:
        return -1, 0.0, np.inf
    # cumsum, not sum/@: a strict left-to-right total does not depend on
    # numpy's pairwise blocking or the BLAS build; an ulp of drift in the
    # centering mean can make deep trees take a different split.
    wsum = _seqsum(w)
    mean = np.cumsum(w[:, None] * Y, axis=0)[-1] / wsum
    Yc = np.ascontiguousarray((Y - mean).T)
    order = np.argsort(X.T, axis=1, kind="mergesort")
    xv = np.take_along_axis(X.T, order, axis=1)
    wv = w[order]
    yv = np.take(Yc, order, axis=1)
    cw = np.cumsum(wv, axis=1)
    # In place where possible: fresh arrays of this size cost page faults.
    wy = wv * yv
    wy2 = np.multiply(wy, yv, out=yv)  # (w*y)*y, the per-feature association
    np.cumsum(wy, axis=2, out=wy)
    np.cumsum(wy2, axis=2, out=wy2)
    wl = cw[:, :-1]
    wr = cw[:, -1:] - wl
    sl = wy[..., :-1]
    s2l = wy2[..., :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = _lsum(s2l - sl * sl / wl)
        sr = np.subtract(wy[..., -1:], sl, out=sl)
        s2r = np.subtract(wy2[..., -1:], s2l, out=s2l)
        score = score + _lsum(s2r - sr * sr / wr)
    valid = (xv[:, 1:] != xv[:, :-1]) & (wl > 0.0) & (wr > 0.0)
    score = np.where(valid, score, np.inf)
    score[np.isnan(score).any(axis=1)] = np.inf
    flat = score.ravel()  # feature-major: argmin prefers the lower feature
    best = int(np.argmin(flat))
    if not flat[best] < np.inf:
        return -1, 0.0, np.inf
    f, s = divmod(best, n - 1)
    return f, 0.5 * (xv[f, s] + xv[f, s + 1]), float(flat[best])


# ---------------------------------------------------------------------------
# Lasso coordinate descent
# ---------------------------------------------------------------------------

def lasso_cd(X: np.ndarray, y: np.ndarray, lam: float, tol: float, max_sweeps: int):
    """Cyclic coordinate descent with soft thresholding.

    X columns are expected centered (intercept handled by the caller);
    y centered. Minimizes RSS/(2N) + lam * l1(w). Returns
    ``(w, sweeps_used, objective_per_sweep)``; stops when the largest
    coefficient change in a sweep drops below ``tol``.
    """
    n, d = X.shape
    # cumsum/_seqsum pin every reduction to left-to-right order; sum/@
    # depend on numpy's pairwise blocking and the BLAS build and can land an
    # ulp away, which moves the coefficients and so the output bytes.
    aj = np.cumsum(X * X, axis=0)[-1] / n
    w = np.zeros(d)
    r = y.copy()
    obj = np.empty(max_sweeps)
    sweeps = 0
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for j in range(d):
            if aj[j] == 0.0:
                continue
            wj = w[j]
            rho = _seqsum(X[:, j] * r) / n + aj[j] * wj
            if rho > lam:
                wnew = (rho - lam) / aj[j]
            elif rho < -lam:
                wnew = (rho + lam) / aj[j]
            else:
                wnew = 0.0
            delta = wnew - wj
            if delta != 0.0:
                r = r - delta * X[:, j]
                w[j] = wnew
            if abs(delta) > max_delta:
                max_delta = abs(delta)
        obj[sweep] = _seqsum(r * r) / (2.0 * n) + lam * _seqsum(np.abs(w))
        sweeps = sweep + 1
        if max_delta < tol:
            break
    return w, sweeps, obj[:sweeps].copy()
