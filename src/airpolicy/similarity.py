"""Pattern-similarity screening: Pearson correlation and alignment distance.

Correlation uses population moments and a two-tailed significance from the
Student-t null distribution, evaluated through a self-contained regularized
incomplete beta function (continued fraction), so no statistics dependency
is involved. Alignment uses the classic monotone dynamic-programming
recurrence over pointwise costs with path recovery. ``screen_many``
screens several pollutants in worker processes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, workers
from .dataset import (
    MEASURES,
    POLLUTANTS,
    POOLED_SCOPE,
    CityDataset,
    MeasureKind,
    PollutantKind,
    write_csv,
)
from .errors import (
    DomainError,
    InsufficientDataError,
    ShapeError,
    UndefinedCorrelationError,
)


class Band(enum.Enum):
    """Qualitative correlation-strength label over |r|."""

    NONE = "None"
    WEAK = "Weak"
    MODERATE = "Moderate"
    STRONG = "Strong"
    VERY_STRONG = "VeryStrong"


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    r_squared: float
    p_value: float
    n: int
    band: Band


@dataclass(frozen=True)
class DtwResult:
    distance: float
    path: tuple[tuple[int, int], ...]


def band_of(abs_r: float) -> Band:
    """Band of an absolute correlation, half-open intervals, upper band at each cut.

    [0.00, 0.10) None; [0.10, 0.40) Weak; [0.40, 0.70) Moderate;
    [0.70, 0.90) Strong; [0.90, 1.00] VeryStrong.
    """
    if not (0.0 <= abs_r <= 1.0) or not math.isfinite(abs_r):
        raise DomainError(f"|r| = {abs_r!r} outside [0, 1]")
    if abs_r < 0.10:
        return Band.NONE
    if abs_r < 0.40:
        return Band.WEAK
    if abs_r < 0.70:
        return Band.MODERATE
    if abs_r < 0.90:
        return Band.STRONG
    return Band.VERY_STRONG


# ---------------------------------------------------------------------------
# Regularized incomplete beta, for the t-distribution tail
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz iteration).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("beta parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"x = {x!r} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def two_tailed_p(r: float, n: int) -> float:
    """Two-tailed p of observing |correlation| >= |r| under the null, df = n - 2.

    Uses t = r sqrt((n-2)/(1-r²)) and the identity
    2 (1 - F_t(|t|)) = I_x(df/2, 1/2) with x = df/(df + t²).
    """
    if n < 3:
        raise InsufficientDataError(f"need n >= 3, got {n}")
    if not math.isfinite(r) or abs(r) > 1.0:
        raise DomainError(f"r = {r!r} outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    x = df / (df + t2)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` times 2**-e, and e, where e is the exponent of a's largest magnitude.

    Every scaled entry is below 1 in magnitude, so moments can neither
    overflow nor, for a series that is not flat, vanish. A power of two
    scales exactly, so wherever the scaled entries stay normal, moments,
    r and z-scores keep the bits they have without the scaling.
    """
    e = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    return np.ldexp(a, -e), e


def pearson(x, y) -> CorrelationResult:
    """Population-moment Pearson correlation with significance and band.

    Both inputs must have the same length n >= 3, finite values, and
    nonzero variance; a flat series has no defined correlation and raises
    instead of pretending r = 0. Each series is scaled by a power of two
    first, so any finite scale gives its true r.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ShapeError("inputs must be one-dimensional series")
    if xa.shape[0] != ya.shape[0]:
        raise ShapeError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    n = xa.shape[0]
    if n < 3:
        raise InsufficientDataError(f"need n >= 3, got {n}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DomainError("series contain non-finite values")
    # Flatness is tested exactly: the mean of a constant can round off its
    # value and leave a spurious std of about 1e-16.
    if xa.min() == xa.max() or ya.min() == ya.max():
        raise UndefinedCorrelationError(
            "zero variance leaves the correlation undefined"
        )
    xa, ya = _unit_scaled(xa)[0], _unit_scaled(ya)[0]
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    # _seqsum, not @: a BLAS dot's summation order depends on the CPU core
    # it picks, which would move r in the last bits from one machine to the next.
    sx = math.sqrt(kernels._seqsum(xc * xc) / n)
    sy = math.sqrt(kernels._seqsum(yc * yc) / n)
    r = min(1.0, max(-1.0, kernels._seqsum(xc * yc) / (n * sx * sy)))
    return CorrelationResult(
        r=r,
        r_squared=r * r,
        p_value=two_tailed_p(r, n),
        n=n,
        band=band_of(abs(r)),
    )


# ---------------------------------------------------------------------------
# Dynamic time warping
# ---------------------------------------------------------------------------

def z_normalize(series: np.ndarray) -> np.ndarray:
    """Center to zero mean and scale by population std; a flat series is all zeros.

    Flatness is tested exactly, before any moment, since the mean of a
    constant can round off its value. The moments come from the series
    scaled by a power of two, so any finite scale gives its true z-scores.
    """
    a = _unit_scaled(np.asarray(series, dtype=np.float64))[0]
    if a.size == 0 or a.min() == a.max():
        return np.zeros_like(a)
    return (a - a.mean()) / a.std()


def dtw(a, b, cost: str = "absolute", window: int | None = None) -> DtwResult:
    """Optimal monotone alignment of two series.

    The distance is the minimum total pointwise cost over all paths from
    (0, 0) to (n-1, m-1) using steps down, right, or diagonal. ``cost`` is
    absolute or squared difference. ``window`` (optional) bounds |i - j|
    along the path. Backtracking breaks ties preferring the diagonal
    predecessor, then the vertical one.
    """
    aa = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64)
    if aa.ndim != 1 or bb.ndim != 1:
        raise ShapeError("inputs must be one-dimensional series")
    if aa.size == 0 or bb.size == 0:
        raise ShapeError("empty series cannot be aligned")
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise DomainError("series contain non-finite values")
    if cost not in ("absolute", "squared"):
        raise DomainError(f"unknown cost {cost!r}")
    n, m = aa.size, bb.size
    if window is not None:
        if window < 0:
            raise DomainError(f"window must be >= 0, got {window}")
        if abs(n - m) > window:
            raise DomainError(
                f"window {window} admits no path for lengths {n} and {m}"
            )
    c = _cost_table(aa, bb, cost, window)
    # One table: the kernel overwrites each cost with its accumulated cost.
    acc = kernels.dtw_accumulate(c, -1 if window is None else window, out=c)
    path = _backtrack(acc)
    return DtwResult(distance=float(acc[n - 1, m - 1]), path=path)


def _cost_table(aa: np.ndarray, bb: np.ndarray, cost: str, window: int | None) -> np.ndarray:
    """Pointwise costs, the n x m differences made abs or square in place.

    With a band that does not cover the table, the two diagonals just
    outside it, j - i = ±(window + 1), hold inf instead: they are the only
    out-of-band cells that the accumulation and the backtrack read.
    """
    c = aa[:, None] - bb[None, :]
    (np.square if cost == "squared" else np.abs)(c, out=c)  # x * x is one rounding either way
    if window is not None:
        np.fill_diagonal(c[:, window + 1:], np.inf)  # j - i = window + 1
        np.fill_diagonal(c[window + 1:], np.inf)  # i - j = window + 1
    return c


def _backtrack(acc: np.ndarray) -> tuple[tuple[int, int], ...]:
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    rev = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best_i, best_j = i - 1, j - 1
            best = acc[best_i, best_j]
            if acc[i - 1, j] < best:
                best_i, best_j = i - 1, j
                best = acc[i - 1, j]
            if acc[i, j - 1] < best:
                best_i, best_j = i, j - 1
            i, j = best_i, best_j
        rev.append((i, j))
    rev.reverse()
    return tuple(rev)


# ---------------------------------------------------------------------------
# Screening table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreenCell:
    """One (scope, measure, pollutant) screening outcome; None values mark a failed cell."""

    city: str
    measure: MeasureKind
    pollutant: PollutantKind
    n: int
    r: float | None = None
    r_squared: float | None = None
    p_value: float | None = None
    band: Band | None = None
    dtw_distance: float | None = None
    error: str = ""


def _aligned_series(
    ds: CityDataset, measure: MeasureKind, pollutant: PollutantKind
) -> tuple[np.ndarray, np.ndarray]:
    # Periods where both the measure and the pollutant mean are present.
    x = ds.measures[:, MEASURES.index(measure)]
    y = ds.stats[:, POLLUTANTS.index(pollutant), 0]
    both = ~(np.isnan(x) | np.isnan(y))
    return x[both], y[both]


def _screen_one(
    scope: str,
    measure: MeasureKind,
    pollutant: PollutantKind,
    x: np.ndarray,
    y: np.ndarray,
    cost: str,
    normalize: bool,
    window: int | None,
) -> ScreenCell:
    n = int(x.size)
    r = r2 = p = d = None
    band = None
    errors = []
    try:
        corr = pearson(x, y)
        r, r2, p, band = corr.r, corr.r_squared, corr.p_value, corr.band
    except (UndefinedCorrelationError, InsufficientDataError, ShapeError) as exc:
        errors.append(str(exc))
    try:
        if n == 0:
            raise ShapeError("no complete periods")
        with np.errstate(over="ignore", invalid="ignore"):
            xa = z_normalize(x) if normalize else x
            ya = z_normalize(y) if normalize else y
            distance = dtw(xa, ya, cost=cost, window=window).distance
        if not math.isfinite(distance):
            raise DomainError("the alignment distance overflows float64")
        d = distance
    except (ShapeError, DomainError) as exc:
        errors.append(str(exc))
    return ScreenCell(
        city=scope,
        measure=measure,
        pollutant=pollutant,
        n=n,
        r=r,
        r_squared=r2,
        p_value=p,
        band=band,
        dtw_distance=d,
        error="; ".join(errors),
    )


def screen_all(
    city_sets: list[CityDataset],
    pollutant: PollutantKind,
    cost: str = "absolute",
    normalize: bool = True,
    window: int | None = None,
) -> list[ScreenCell]:
    """Correlate and align every measure against a pollutant, per city and pooled.

    Pooled series concatenate the per-city aligned series in city order.
    A cell whose correlation or alignment is undefined is recorded with
    empty values and an error note; the table always completes.
    """
    g = POLLUTANTS.index(pollutant)
    if not any(
        np.count_nonzero(~np.isnan(ds.measures).all(axis=1) & ~np.isnan(ds.stats[:, g, 0])) >= 3
        for ds in city_sets
    ):
        raise InsufficientDataError(
            f"no city has 3 complete periods for {pollutant.value}"
        )
    cells = []
    for measure in MEASURES:
        pooled_x: list[np.ndarray] = []
        pooled_y: list[np.ndarray] = []
        for ds in city_sets:
            x, y = _aligned_series(ds, measure, pollutant)
            pooled_x.append(x)
            pooled_y.append(y)
            cells.append(
                _screen_one(ds.city_name, measure, pollutant, x, y,
                            cost, normalize, window)
            )
        cells.append(
            _screen_one(POOLED_SCOPE, measure, pollutant,
                        np.concatenate(pooled_x), np.concatenate(pooled_y),
                        cost, normalize, window)
        )
    return cells


def screen_many(
    city_sets: list[CityDataset],
    pollutants: list[PollutantKind],
    cost: str = "absolute",
    normalize: bool = True,
    window: int | None = None,
    jobs: int = 1,
) -> list[ScreenCell]:
    """``screen_all`` for every pollutant, in ``jobs`` processes.

    ``workers.run_shares`` deals the pollutants round-robin into
    ``min(jobs, len(pollutants))`` shares and runs all but the first in
    forked workers. The cells come back in the order of ``pollutants``,
    and a pollutant that ``screen_all`` rejects raises its error, the
    first such pollutant's in that order, as a serial loop would. Each
    cell depends only on its own series, so the cells do not depend on
    ``jobs``.
    """
    def run(share):
        for pollutant, _ in share:
            try:
                yield pollutant, screen_all(city_sets, pollutant, cost, normalize, window)
            except InsufficientDataError as exc:
                yield pollutant, exc

    done = dict(workers.run_shares("screen", [(p, None) for p in pollutants], jobs, run, 1))
    cells = []
    for pollutant in pollutants:
        if isinstance(done[pollutant], InsufficientDataError):
            raise done[pollutant]
        cells.extend(done[pollutant])
    return cells


def write_screen_csv(cells: list[ScreenCell], path: str) -> None:
    """Tidy CSV of the screening table; failed cells keep empty value fields
    and give the reason in the last column, ``error``."""
    header = ["city", "measure", "pollutant", "r", "r2", "p", "band", "dtw_distance", "n",
              "error"]
    write_csv(path, [header] + [
        [c.city, c.measure.value, c.pollutant.value, c.r, c.r_squared, c.p_value,
         None if c.band is None else c.band.value, c.dtw_distance, c.n, c.error]
        for c in cells
    ])
