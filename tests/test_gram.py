"""Sampled Gram systems and the continuous Gram factor."""

import tracemalloc
from fractions import Fraction
from math import comb

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


def _exact_log_moments(K, M):
    # <log(x) phi_k, phi_m> from the monomial coefficients of the shifted
    # Legendre polynomials and int_0^1 log(x) x^i dx = -1 / (i + 1)^2, in
    # rationals up to the final sqrt(2k + 1) sqrt(2m + 1)
    coeffs = [[(-1) ** (n + i) * comb(n, i) * comb(n + i, i) for i in range(n + 1)]
              for n in range(max(K, M))]
    L = np.empty((K, M))
    for m in range(M):
        moments = [sum(Fraction(-c, (i + j + 1) ** 2) for j, c in enumerate(coeffs[m]))
                   for i in range(K)]
        for k in range(K):
            exact = sum(c * moments[i] for i, c in enumerate(coeffs[k]))
            L[k, m] = float(exact) * np.sqrt((2 * k + 1) * (2 * m + 1))
    return L


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
    rule = factor.rule
    elems = frames.element_matrix(frame, rule.nodes)
    direct = (elems * rule.weights) @ elems.T
    assert np.abs(G - direct).max() < 1e-13


def test_gram_factor_triangular_factor_reproduces_gram():
    frame = frames.onb_plus_k(20, 5)
    factor = gram.build_gram_factor(frame)
    H, R = factor.matrix, factor.R
    assert R.shape == (20, 20)
    assert np.array_equal(R, np.triu(R))
    scale = np.linalg.norm(H, 2) ** 2
    assert np.abs(R.T @ R - H.T @ H).max() < 1e-13 * scale


def test_one_block_factor_is_the_qr_of_the_whole_quadrature_factor():
    # through N = 60 the rule is one block, so R is bit for bit the one-shot R
    for N in (20, 60):
        factor = gram.build_gram_factor(frames.onb_plus_k(N, 5))
        assert factor.rule.size * N <= orthopoly._BLOCK_VALUES
        assert np.array_equal(factor.R, np.linalg.qr(factor.matrix, mode="r"))


@pytest.mark.parametrize("N", [100, 200])
def test_blocked_factor_reproduces_gram(N):
    factor = gram.build_gram_factor(frames.onb_plus_k(N, 5))
    H, R = factor.matrix, factor.R
    assert factor.rule.size * N > orthopoly._BLOCK_VALUES  # more than one block
    assert factor.N == N and R.shape == (N, N)
    assert np.array_equal(R, np.triu(R))
    scale = np.linalg.norm(H, 2) ** 2
    assert np.abs(R.T @ R - H.T @ H).max() < 1e-13 * scale


def test_blocks_of_fewer_rows_than_elements_give_square_factor(monkeypatch):
    # above N = 512 a block holds fewer than N nodes, and the first R is trapezoidal
    monkeypatch.setattr(orthopoly, "_BLOCK_VALUES", 100)
    factor = gram.build_gram_factor(frames.onb_plus_k(20, 5))
    H, R = factor.matrix, factor.R
    assert R.shape == (20, 20)
    scale = np.linalg.norm(H, 2) ** 2
    assert np.abs(R.T @ R - H.T @ H).max() < 1e-13 * scale


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
