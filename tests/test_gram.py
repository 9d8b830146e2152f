"""Sampled Gram systems and the continuous Gram factor."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameapprox import frames, gram, orthopoly, sampling


def test_pure_basis_inner_product_system_is_identity_block():
    frame = frames.legendre_onb(8)
    system = gram.build_system(frame, sampling.inner_product_scheme(14))
    expected = np.zeros((14, 8))
    expected[:8, :8] = np.eye(8)
    assert np.abs(system.matrix - expected).max() < 1e-13
    assert system.M == 14 and system.N == 8


@lru_cache(maxsize=None)
def _exact_log_ratios(K, M):
    # s[k][m] = <log(x) phi_k, phi_m> / sqrt((2k + 1)(2m + 1)) in rationals, from
    # the monomial coefficients of the shifted Legendre polynomials and
    # int_0^1 log(x) x^i dx = -1 / (i + 1)^2
    coeffs = _monomial_coefficients(max(K, M))
    s = [[None] * M for _ in range(K)]
    for m in range(M):
        moments = [sum(Fraction(-c, (i + j + 1) ** 2) for j, c in enumerate(coeffs[m]))
                   for i in range(K)]
        for k in range(K):
            s[k][m] = sum(c * moments[i] for i, c in enumerate(coeffs[k]))
    return s


def _monomial_coefficients(n):
    return [[(-1) ** (d + i) * comb(d, i) * comb(d + i, i) for i in range(d + 1)]
            for d in range(n)]


def _exact_log_moments(K, M):
    s = _exact_log_ratios(K, M)
    return np.array([[float(s[k][m]) * np.sqrt((2 * k + 1) * (2 * m + 1)) for m in range(M)]
                     for k in range(K)])


@pytest.mark.parametrize("frame, M", [
    (frames.legendre_onb(10), 4),
    (frames.legendre_onb(10), 14),
    (frames.onb_plus_k(10, 1), 5),  # normalized enrichment
    (frames.onb_plus_k(20, 5), 8),  # M < N - K
    (frames.onb_plus_k(20, 5), 40),
    (frames.onb_plus_k(60, 5), 120),
])
def test_inner_product_system_matches_exact_log_moments(frame, M):
    G = gram.build_system(frame, sampling.inner_product_scheme(M)).matrix
    K = frame.K
    assert np.array_equal(G[:, K:], np.eye(M, frame.N - K))
    exact = _exact_log_moments(K, M).T
    if frame.normalize_psi:
        exact[:, 0] /= np.sqrt(2.0)
    assert np.all(np.abs(G[:, :K] - exact) <= 1e-14 * np.abs(exact))


def test_inner_product_data_match_system_columns():
    # the data route integrates each element on the hp rule, the system
    # route is closed form; both give the element's Legendre coefficients
    frame, scheme = frames.onb_plus_k(60, 5), sampling.inner_product_scheme(120)
    G = gram.build_system(frame, scheme).matrix
    for j in range(frame.N):
        y = sampling.sample(scheme, lambda x: frames.element_matrix(frame, x)[j]).values
        assert np.abs(y - G[:, j]).max() < 1e-12


_POINT_SCHEMES = {
    "legendre": sampling.legendre_point_scheme,
    "equispaced": sampling.equispaced_point_scheme,
    "chebyshev": sampling.chebyshev_point_scheme,
    "chebyshev-weighted": lambda M: sampling.chebyshev_point_scheme(M, weighted=True),
}


@pytest.mark.parametrize("K", [0, 1, 5])
@pytest.mark.parametrize("name", list(_POINT_SCHEMES))
def test_point_systems_stack_to_the_bit(name, K):
    # one scheme on the concatenated nodes and scales samples each block
    # exactly as that block's own scheme does
    N = 12
    frame = frames.onb_plus_k(N, K)
    schemes = [_POINT_SCHEMES[name](M) for M in (N, N + 1, 2 * N)]
    stacked = sampling.SamplingScheme(
        M=sum(s.M for s in schemes),
        nodes=np.concatenate([s.nodes for s in schemes]),
        scales=np.concatenate([s.scales for s in schemes]),
    )
    expected = np.concatenate([gram._system_matrix(frame, s) for s in schemes])
    assert np.array_equal(gram._system_matrix(frame, stacked), expected)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("K", [0, 1, 5])
def test_inner_product_systems_are_row_prefixes_to_the_bit(K, dtype):
    N = 12
    frame = frames.onb_plus_k(N, K)
    longest = gram._system_matrix(frame, sampling.inner_product_scheme(3 * N), dtype)
    for M in (N, N + 1, 2 * N):
        G = gram._system_matrix(frame, sampling.inner_product_scheme(M), dtype)
        assert np.array_equal(G, longest[:M])
        assert np.array_equal(gram._log_moments(K, M, dtype),
                              gram._log_moments(K, 3 * N, dtype)[:, :M])


def test_svd_factors_reconstruct_and_are_orthogonal():
    frame = frames.onb_plus_k(12, 3)
    system = gram.build_system(frame, sampling.chebyshev_point_scheme(24))
    U, s, Vt = system.U, system.singular_values, system.Vt
    scale = np.linalg.norm(system.matrix)
    assert np.linalg.norm(U @ (s[:, None] * Vt) - system.matrix) < 1e-12 * scale
    assert np.abs(U.T @ U - np.eye(12)).max() < 1e-12
    assert np.abs(Vt @ Vt.T - np.eye(12)).max() < 1e-12
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_from_matrix_rejects_non_matrix():
    with pytest.raises(ValueError):
        gram.GramSystem.from_matrix(np.zeros(3))


def test_continuous_gram_column_closed_form():
    # first column holds the log moments (-1)^(m+1) sqrt(2m+1) / (sqrt2 m (m+1))
    frame = frames.onb_plus_k(60, 1)
    H = gram.build_gram_factor(frame).matrix
    G = H.T @ H
    m = np.arange(1, 59)
    closed = np.concatenate([
        [1.0, -1.0 / np.sqrt(2.0)],
        np.sqrt(2 * m + 1) * (-1.0) ** (m + 1) / (np.sqrt(2.0) * m * (m + 1)),
    ])
    assert np.abs(G[:, 0] - closed).max() < 1e-10
    assert np.abs(G - G.T).max() < 1e-14


def test_continuous_gram_spectrum_within_frame_bounds():
    frame = frames.onb_plus_k(30, 1)
    H = gram.build_gram_factor(frame).matrix
    s = np.linalg.svd(H.T @ H, compute_uv=False)
    assert s[0] <= frame.B_upper * (1 + 1e-12)
    assert s[-1] > 0


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_gram_quadratic_form_bounded_by_upper_frame_bound(data):
    frame = frames.onb_plus_k(12, 3)
    G = _cached_gram(12, 3)
    c = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=12, max_size=12)))
    lhs = c @ G @ c
    assert lhs <= frame.B_upper * (c @ c) * (1 + 1e-10) + 1e-12


_GRAMS = {}


def _cached_gram(N, K):
    key = (N, K)
    if key not in _GRAMS:
        H = gram.build_gram_factor(frames.onb_plus_k(N, K)).matrix
        _GRAMS[key] = H.T @ H
    return _GRAMS[key]


def test_condition_number_basics():
    s = gram.GramSystem.from_matrix(np.eye(4)).singular_values
    assert s[0] / s[-1] == pytest.approx(1.0)
    s = gram.GramSystem.from_matrix(np.diag([2.0, 0.5])).singular_values
    assert s[0] / s[-1] == pytest.approx(4.0)
    s = gram.GramSystem.from_matrix(np.diag([1.0, 0.0])).singular_values
    assert s[0] == 1.0 and s[-1] == 0.0


def test_square_gram_conditioning_grows_with_n():
    cond = {}
    for N in (10, 40):
        s = gram.GramSystem.from_matrix(_cached_gram(N, 1)).singular_values
        cond[N] = s[0] / s[-1]
    assert cond[40] > cond[10] > 1.0


def test_inner_product_systems_retain_full_rank():
    # redundancy makes these ill conditioned but never numerically singular
    for N in (10, 20, 40):
        frame = frames.onb_plus_k(N, 1)
        for M in (N, 2 * N):
            s = gram.build_system(frame, sampling.inner_product_scheme(M)).singular_values
            assert s[-1] / s[0] > 1e-15


def test_inner_product_normal_matrix_approaches_continuous_gram():
    frame = frames.onb_plus_k(10, 5)
    G_cont = _cached_gram(10, 5)
    devs = []
    for M in (20, 40, 80, 160):
        G = gram.build_system(frame, sampling.inner_product_scheme(M)).matrix
        devs.append(np.linalg.norm(G.T @ G - G_cont))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-3


def test_squared_condition_number_limit():
    # cond(G_MN)^2 approaches cond(G_N) under heavy inner product oversampling
    frame = frames.onb_plus_k(10, 5)
    s = gram.GramSystem.from_matrix(_cached_gram(10, 5)).singular_values
    target = s[0] / s[-1]
    s = gram.build_system(frame, sampling.inner_product_scheme(160)).singular_values
    ratio = (s[0] / s[-1]) ** 2 / target
    assert abs(ratio - 1.0) < 0.05


def test_gram_factor_matches_direct_quadrature():
    frame = frames.onb_plus_k(6, 2)
    factor = gram.build_gram_factor(frame)
    G = factor.matrix.T @ factor.matrix
    rule = orthopoly.hp_log_quadrature(levels=40, order=frame.N + 12)
    elems = frames.element_matrix(frame, rule.nodes)
    direct = (elems * rule.weights) @ elems.T
    assert np.abs(G - direct).max() < 1e-13


@pytest.mark.parametrize("N", [20, 100, 200])
def test_factor_reproduces_quadrature_gram(N):
    # the closed-form R against the quadrature H, an independent route to the Gram
    factor = gram.build_gram_factor(frames.onb_plus_k(N, 5))
    H, R = factor.matrix, factor.R
    assert factor.N == N and R.shape == (N, N)
    scale = np.linalg.norm(H, 2) ** 2
    assert np.abs(R.T @ R - H.T @ H).max() < 1e-13 * scale


@pytest.mark.parametrize("frame", [
    frames.legendre_onb(6), frames.onb_plus_k(5, 5), frames.onb_plus_k(12, 1),
    frames.onb_plus_k(60, 5)])
def test_factor_is_the_identity_on_the_polynomials(frame):
    # frame order [Psi, Phi]: the rows [C, I] above the rows [R22, 0]
    factor = gram.build_gram_factor(frame)
    K, n0 = frame.K, frame.N - frame.K
    assert np.array_equal(factor.R[:, K:], np.eye(frame.N, n0))
    assert np.array_equal(factor.R[:n0, :K], factor.C.astype(float))
    assert np.array_equal(factor.R[n0:, :K], factor.R22.astype(float))
    assert factor.C.dtype == factor.R22.dtype == np.longdouble
    assert np.array_equal(factor.R22, np.triu(factor.R22))


def _mp(value):
    # a long double or a Fraction as an exact mpmath number
    p, q = (value.numerator, value.denominator) if isinstance(value, Fraction) \
        else value.as_integer_ratio()
    return mpmath.mpf(p) / q


@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("N", [5, 7, 10, 60, 200])
def test_factor_blocks_match_exact_rationals(N, K):
    # C = L[:K, :N - K]* and R22* R22 = W = Psi* Psi - C* C, with Psi* Psi from
    # int_0^1 log(x)^2 x^i dx = 2 / (i + 1)^3, all in rationals
    frame = frames.onb_plus_k(N, K)
    factor = gram.build_gram_factor(frame)
    n0, s = N - K, _exact_log_ratios(5, 199)
    norm = Fraction(1, 2) if frame.normalize_psi else 1
    coeffs = _monomial_coefficients(K)
    tol = 100 * np.finfo(np.longdouble).eps
    W = factor.R22.T @ factor.R22
    with mpmath.workdps(40):
        for j in range(n0):
            for k in range(K):
                exact = mpmath.sqrt(norm * (2 * k + 1) * (2 * j + 1)) * _mp(s[k][j])
                assert abs(_mp(factor.C[j, k]) - exact) <= tol * abs(exact)
        exact = [[None] * K for _ in range(K)]
        for k in range(K):
            for l in range(K):
                psi = sum(a * b * Fraction(2, (i + i2 + 1) ** 3)
                          for i, a in enumerate(coeffs[k]) for i2, b in enumerate(coeffs[l]))
                tail = psi - sum((2 * j + 1) * s[k][j] * s[l][j] for j in range(n0))
                exact[k][l] = mpmath.sqrt((2 * k + 1) * (2 * l + 1)) * _mp(norm * tail)
        for k in range(K):
            for l in range(K):
                scale = mpmath.sqrt(exact[k][k] * exact[l][l])
                assert abs(_mp(W[k, l]) - exact[k][l]) <= tol * scale


def test_factor_keeps_no_array_larger_than_r():
    N = 200
    factor = gram.build_gram_factor(frames.onb_plus_k(N, 5))
    arrays = [v for v in vars(factor).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size <= N * N for a in arrays)


def test_factor_build_never_holds_the_whole_quadrature_factor():
    # H alone is 8692 x 200 doubles (13.9 MB) at N = 200
    frame = frames.onb_plus_k(200, 5)
    tracemalloc.start()
    try:
        gram.build_gram_factor(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
