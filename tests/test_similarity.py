"""Correlation, significance, banding, and alignment against independent
oracles: exact-rational direct-formula r, quadrature t-tails, and brute-force
path enumeration."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from airpolicy import kernels
from airpolicy.errors import (
    DomainError,
    InsufficientDataError,
    ShapeError,
    UndefinedCorrelationError,
)
from airpolicy.rng import SplitMix64
from airpolicy.similarity import (
    Band,
    _backtrack,
    band_of,
    dtw,
    pearson,
    regularized_incomplete_beta,
    two_tailed_p,
    z_normalize,
)


# -- oracles ----------------------------------------------------------------

def pearson_oracle(x, y):
    """Direct-formula r in exact rational arithmetic (floats are rationals)."""
    xs = [Fraction(float(v)) for v in x]
    ys = [Fraction(float(v)) for v in y]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    syy = sum(b * b for b in ys)
    num = n * sxy - sx * sy
    den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
    if den2 == 0:
        return None
    # Exact rational ratio, then one float sqrt: error well under 1e-15.
    ratio = (num * num) / den2
    r = math.sqrt(float(ratio))
    return r if num >= 0 else -r


def t_pdf(t, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1 + t * t / df) ** (-(df + 1) / 2)


def p_oracle(r, n):
    """Two-tailed tail mass of Student's t by adaptive quadrature."""
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t = abs(r) * math.sqrt(df / (1 - r * r))
    tail, _ = integrate.quad(t_pdf, t, np.inf, args=(df,))
    return min(1.0, 2.0 * tail)


def dtw_oracle(a, b, cost="absolute"):
    """Minimum path cost by exhaustive enumeration (lengths must be tiny)."""
    n, m = len(a), len(b)

    def c(i, j):
        d = a[i] - b[j]
        return abs(d) if cost == "absolute" else d * d

    best = [math.inf]

    def walk(i, j, total):
        total += c(i, j)
        if total >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = total
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, total)
        if i + 1 < n:
            walk(i + 1, j, total)
        if j + 1 < m:
            walk(i, j + 1, total)

    walk(0, 0, 0.0)
    return best[0]


def check_path_valid(path, n, m):
    assert path[0] == (0, 0)
    assert path[-1] == (n - 1, m - 1)
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


# -- pearson ----------------------------------------------------------------

def test_pearson_matches_exact_rational_oracle():
    gen = SplitMix64(201)
    for _ in range(200):
        n = 3 + gen.randint(60)
        x = np.array(gen.normals(n))
        y = np.array(gen.normals(n)) + 0.3 * x
        expected = pearson_oracle(x, y)
        got = pearson(x, y)
        assert got.r == pytest.approx(expected, abs=1e-13)
        assert got.r_squared == got.r * got.r
        assert got.n == n


def test_pearson_perfect_correlation():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    res = pearson(x, 2.0 * x + 5.0)
    assert res.r == pytest.approx(1.0, abs=1e-14)
    assert res.r <= 1.0                      # clamp holds at the edge
    assert res.p_value < 1e-12
    assert res.band is Band.VERY_STRONG
    res = pearson(x, -x)
    assert res.r == pytest.approx(-1.0, abs=1e-14)
    assert res.r >= -1.0


def test_pearson_rejects_degenerate_input():
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        pearson(x, np.array([5.0, 5.0, 5.0]))
    with pytest.raises(InsufficientDataError):
        pearson(x[:2], x[:2])
    with pytest.raises(ShapeError):
        pearson(x, x[:2])
    with pytest.raises(ShapeError):
        pearson(x.reshape(1, 3), x.reshape(1, 3))
    with pytest.raises(DomainError):
        pearson(x, np.array([1.0, np.nan, 2.0]))


def test_pearson_overflowed_moments_raise_without_warning():
    # The centred moments overflow to inf and r to NaN, which a clamp to
    # [-1, 1] would report as a perfect negative correlation.
    x = [1.7e308, 1.0e308, -1.6e308, 0.5e308, 1.2e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UndefinedCorrelationError, match="overflow"):
            pearson(x, [1.0, 2.0, 3.0, 4.0, 5.0])


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(3, 40),
       st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
def test_pearson_affine_invariance(seed, n, scale, shift):
    gen = SplitMix64(seed)
    x = np.array(gen.normals(n))
    y = np.array(gen.normals(n))
    base = pearson(x, y)
    scaled = pearson(x, scale * y + shift)
    flipped = pearson(x, -scale * y + shift)
    assert scaled.r == pytest.approx(base.r, abs=1e-9)
    assert flipped.r == pytest.approx(-base.r, abs=1e-9)


def test_pearson_symmetry():
    gen = SplitMix64(202)
    x = np.array(gen.normals(20))
    y = np.array(gen.normals(20))
    assert pearson(x, y).r == pytest.approx(pearson(y, x).r, abs=1e-15)


# -- significance -----------------------------------------------------------

def test_p_value_matches_quadrature_oracle():
    gen = SplitMix64(203)
    for _ in range(120):
        n = 3 + gen.randint(100)
        r = 2.0 * gen.uniform() - 1.0
        assert two_tailed_p(r, n) == pytest.approx(p_oracle(r, n), abs=1e-8)


def test_p_value_edges():
    assert two_tailed_p(1.0, 10) == 0.0
    assert two_tailed_p(-1.0, 10) == 0.0
    assert two_tailed_p(0.0, 10) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InsufficientDataError):
        two_tailed_p(0.5, 2)
    with pytest.raises(DomainError):
        two_tailed_p(1.5, 10)


def test_p_value_monotone_in_abs_r():
    rs = np.linspace(0.0, 0.999, 80)
    ps = [two_tailed_p(float(r), 30) for r in rs]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_incomplete_beta_against_scipy():
    from scipy.special import betainc
    gen = SplitMix64(204)
    for _ in range(300):
        a = 0.5 + 30.0 * gen.uniform()
        b = 0.5 + 30.0 * gen.uniform()
        x = gen.uniform()
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(betainc(a, b, x)), abs=1e-12)
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


# -- banding ----------------------------------------------------------------

def test_band_boundaries_half_open():
    table = [
        (0.0, Band.NONE), (0.0999, Band.NONE),
        (0.10, Band.WEAK), (0.3999, Band.WEAK),
        (0.40, Band.MODERATE), (0.6999, Band.MODERATE),
        (0.70, Band.STRONG), (0.8999, Band.STRONG),
        (0.90, Band.VERY_STRONG), (1.0, Band.VERY_STRONG),
    ]
    for value, expected in table:
        assert band_of(value) is expected, value


def test_band_rejects_out_of_domain():
    for bad in (-0.1, 1.01, float("nan")):
        with pytest.raises(DomainError):
            band_of(bad)


def test_band_monotone_in_abs_r():
    order = [Band.NONE, Band.WEAK, Band.MODERATE, Band.STRONG, Band.VERY_STRONG]
    prev = 0
    for v in np.linspace(0.0, 1.0, 400):
        idx = order.index(band_of(float(v)))
        assert idx >= prev
        prev = idx


# -- dtw --------------------------------------------------------------------

def test_dtw_matches_exhaustive_enumeration():
    gen = SplitMix64(205)
    for _ in range(150):
        n, m = 1 + gen.randint(5), 1 + gen.randint(5)
        a = np.array(gen.normals(n))
        b = np.array(gen.normals(m))
        for cost in ("absolute", "squared"):
            res = dtw(a, b, cost=cost)
            assert res.distance == pytest.approx(dtw_oracle(a, b, cost),
                                                 rel=1e-12, abs=1e-12)
            check_path_valid(res.path, n, m)


def test_dtw_path_cost_equals_distance():
    gen = SplitMix64(206)
    a = np.array(gen.normals(12))
    b = np.array(gen.normals(9))
    res = dtw(a, b)
    total = math.fsum(abs(a[i] - b[j]) for i, j in res.path)
    assert res.distance == pytest.approx(total, rel=1e-12)


def test_dtw_self_alignment_is_diagonal_zero():
    a = np.array([0.3, 1.2, -0.5, 2.0])
    res = dtw(a, a)
    assert res.distance == 0.0
    assert res.path == tuple((i, i) for i in range(4))


def test_dtw_tie_breaking_prefers_diagonal_then_vertical():
    # All-zero costs tie everywhere: backtracking must walk the pure diagonal.
    a = np.zeros(4)
    res = dtw(a, np.zeros(4))
    assert res.path == tuple((i, i) for i in range(4))
    # Rectangular all-zero: diagonal first, leftover rows walked vertically
    # at the start (backtracking from the end prefers diagonal, pushing the
    # vertical moves to the lowest indices).
    res = dtw(np.zeros(5), np.zeros(3))
    assert res.path == ((0, 0), (1, 0), (2, 0), (3, 1), (4, 2))


def test_dtw_symmetry_of_distance():
    gen = SplitMix64(207)
    a = np.array(gen.normals(15))
    b = np.array(gen.normals(10))
    assert dtw(a, b).distance == pytest.approx(dtw(b, a).distance, rel=1e-12)


def test_dtw_window_constrains_path():
    gen = SplitMix64(208)
    a = np.array(gen.normals(12))
    b = np.array(gen.normals(12))
    res = dtw(a, b, window=2)
    assert all(abs(i - j) <= 2 for i, j in res.path)
    assert res.distance >= dtw(a, b).distance - 1e-12


def test_dtw_window_zero_is_lockstep():
    gen = SplitMix64(209)
    a = np.array(gen.normals(8))
    b = np.array(gen.normals(8))
    res = dtw(a, b, window=0)
    assert res.path == tuple((i, i) for i in range(8))
    assert res.distance == pytest.approx(float(np.abs(a - b).sum()), rel=1e-12)


def full_table_dtw(a, b, cost, window):
    """Distance and path the plain way: the full n x m cost matrix and a
    freshly allocated accumulated table."""
    diff = a[:, None] - b[None, :]
    c = np.abs(diff) if cost == "absolute" else diff * diff
    acc = kernels.dtw_accumulate(c, -1 if window is None else window)
    return float(acc[-1, -1]), _backtrack(acc)


@st.composite
def dtw_inputs(draw):
    n = draw(st.one_of(st.just(1), st.integers(1, 30)))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, 30)))
    values = (st.integers(-3, 3).map(float) if draw(st.booleans())  # ties
              else st.floats(-1e3, 1e3, allow_subnormal=False))
    a = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    gap, top = abs(n - m), max(n, m)
    window = draw(st.sampled_from([None, gap, gap + 1, max(gap, top - 2), max(gap, top - 1),
                                   top, top + 7]) | st.integers(gap, gap + 35))
    return a, b, draw(st.sampled_from(["absolute", "squared"])), window


@given(dtw_inputs())
@example((np.array([0.0, 2.0, 1.0]), np.array([1.0, 0.0, 3.0, 2.0, 5.0]), "absolute", 2))
@example((np.array([0.0, 2.0, 1.0, 4.0, 3.0]), np.array([1.0, 0.0, 3.0]), "squared", 2))
@example((np.array([1.5]), np.array([0.0, 2.0, 1.0]), "squared", 2))
@example((np.array([0.0, 2.0, 1.0]), np.array([1.5]), "absolute", 3))
def test_dtw_equals_full_table_reference(problem):
    """The band-only cost table and the in-place accumulation give the
    distance and path of the full cost matrix, bit for bit."""
    a, b, cost, window = problem
    res = dtw(a, b, cost=cost, window=window)
    distance, path = full_table_dtw(a, b, cost, window)
    assert np.float64(res.distance).tobytes() == np.float64(distance).tobytes()
    assert res.path == path


def test_dtw_window_infeasible_raises():
    with pytest.raises(DomainError):
        dtw(np.zeros(5), np.zeros(2), window=1)
    with pytest.raises(DomainError):
        dtw(np.zeros(3), np.zeros(3), window=-1)


def test_dtw_rejects_bad_input():
    with pytest.raises(ShapeError):
        dtw(np.zeros(0), np.zeros(3))
    with pytest.raises(DomainError):
        dtw(np.array([1.0, np.inf]), np.zeros(2))
    with pytest.raises(DomainError):
        dtw(np.zeros(3), np.zeros(3), cost="manhattan")


def test_dtw_single_element_series():
    res = dtw(np.array([2.0]), np.array([1.0, 3.0, 4.0]))
    assert res.distance == pytest.approx(1.0 + 1.0 + 2.0)
    assert res.path == ((0, 0), (0, 1), (0, 2))


# -- z-normalization --------------------------------------------------------

def test_z_normalize_moments():
    gen = SplitMix64(210)
    a = np.array(gen.normals(50)) * 3.0 + 7.0
    z = z_normalize(a)
    assert z.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.std() == pytest.approx(1.0, abs=1e-12)


def test_z_normalize_flat_series_centered_only():
    z = z_normalize(np.full(5, 4.2))
    assert np.array_equal(z, np.zeros(5))
