"""Sampled Gram systems and the continuous Gram factor."""

import dataclasses
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameapprox import diagnostics, frames, gram, orthopoly, sampling, solver


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


@pytest.mark.parametrize("K", [0, 1, 5])
def test_inner_product_systems_are_row_prefixes_to_the_bit(K):
    N = 12
    frame = frames.onb_plus_k(N, K)
    longest = gram._system_matrix(frame, sampling.inner_product_scheme(3 * N))
    for M in (N, N + 1, 2 * N):
        G = gram._system_matrix(frame, sampling.inner_product_scheme(M))
        L = gram._log_moments(K, M)
        assert G.dtype == L.dtype == np.float64
        assert np.array_equal(G, longest[:M])
        assert np.array_equal(L, gram._log_moments(K, 3 * N)[:, :M])


def test_log_moment_diagonal_rounds_s_kk_once():
    # L[k, k] = fl(s_kk) sqrt(2k + 1) sqrt(2k + 1) in double, with s_kk
    # correctly rounded: this pins the bytes of the inner-product systems
    K = 40
    L = gram._log_moments(K, K)
    for k in range(K):
        expected = np.float64(float(_log_ratio(k, k))) * np.sqrt(2 * k + 1) * np.sqrt(2 * k + 1)
        assert L[k, k] == expected


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


@pytest.mark.parametrize("use, missing", [
    (lambda sol: sol(np.array([0.5])), "frame"),
    (lambda sol: solver.verify_error_bound(sol, np.exp, np.zeros(3)), "frame and no scheme"),
    (lambda sol: solver.verify_coefficient_bound(sol, np.exp, np.zeros(3)),
     "frame and no scheme"),
    (lambda sol: diagnostics.compute_kappa(sol.system, 0.5), "frame"),
    (lambda sol: diagnostics.compute_lambda(sol.system, 0.5), "frame"),
    (lambda sol: diagnostics.diagnose(sol.system, [0.5]), "frame"),
    (lambda sol: sampling.richness_estimate(sol.system), "frame"),
], ids=["call", "verify_error_bound", "verify_coefficient_bound", "compute_kappa",
        "compute_lambda", "diagnose", "richness_estimate"])
def test_a_bare_matrix_system_names_what_it_lacks(use, missing):
    # the solve needs only the matrix; whatever evaluates the frame or
    # samples by the scheme needs a system from build_system
    system = gram.GramSystem.from_matrix(np.eye(3))
    sol = solver.truncated_svd_solve(system, np.ones(3), 0.5)
    assert sol.kept_rank == 3
    with pytest.raises(ValueError, match=f"the system has no {missing}:"):
        use(sol)


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
    assert R.shape == (N, N)
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
    R22 = factor.R[n0:, :K]
    assert np.array_equal(R22, np.triu(R22))


def _log_ratio(k, m):
    # s_km = L[k, m] / sqrt((2k + 1)(2m + 1)) from its closed form
    if k != m:
        return Fraction((-1) ** (k + m + 1), abs(m - k) * (m + k + 1))
    harmonic = sum(Fraction(1, i) for i in range(k + 1, 2 * k + 2))
    return -(2 * harmonic - Fraction(1, 2 * k + 1)) / (2 * k + 1)


def test_log_ratio_closed_form_matches_monomials():
    s = _exact_log_ratios(20, 40)
    assert all(_log_ratio(k, m) == s[k][m] for k in range(20) for m in range(40))


def _rounds_root(y, sign, square):
    """Whether the double y is sign * sqrt(square) rounded to nearest, ties to even.

    square is a nonnegative Fraction; the test is exact: square must lie
    between the squares of the midpoints next to |y|.
    """
    if square == 0:
        return y == 0
    if np.sign(y) != sign:
        return False
    y = abs(float(y))
    below = (Fraction(y) + Fraction(float(np.nextafter(y, 0)))) / 2
    above = (Fraction(y) + Fraction(float(np.nextafter(y, np.inf)))) / 2
    even = (Fraction(y) / Fraction(float(np.spacing(y)))).numerator % 2 == 0
    return below**2 < square < above**2 or (even and square in (below**2, above**2))


def _root_squares(S, weights):
    # the exact R with R* R = D S D, D = diag(sqrt(weights)), from S's
    # LDL* in rationals: R[k, l] = sqrt(d_k) L[l, k] sqrt(weights[l])
    K = len(S)
    L = [[Fraction(int(r == c)) for c in range(K)] for r in range(K)]
    d = [Fraction(0)] * K
    for c in range(K):
        d[c] = S[c][c] - sum(L[c][q] ** 2 * d[q] for q in range(c))
        for r in range(c + 1, K):
            L[r][c] = (S[r][c] - sum(L[r][q] * L[c][q] * d[q] for q in range(c))) / d[c]
    return [[(np.sign(L[l][k]), d[k] * L[l][k] ** 2 * weights[l]) if l >= k else (0, 0)
             for l in range(K)] for k in range(K)]


@lru_cache(maxsize=None)
def _log_square_moments(K):
    # <log(x) phi_k, log(x) phi_l> / sqrt((2k + 1)(2l + 1)) from the
    # monomial coefficients and int_0^1 log(x)^2 x^i dx = 2 / (i + 1)^3
    coeffs = _monomial_coefficients(K)
    return [[sum(a * b * Fraction(2, (i + i2 + 1) ** 3)
                 for i, a in enumerate(coeffs[k]) for i2, b in enumerate(coeffs[l]))
             for l in range(K)] for k in range(K)]


def _assert_correctly_rounded(block, roots):
    wrong = [(i, j) for i, row in enumerate(roots) for j, root in enumerate(row)
             if not _rounds_root(block[i, j], *root)]
    assert not wrong, f"entries not correctly rounded: {wrong[:5]}"


@pytest.mark.parametrize("N, K", [
    (2, 1), (5, 1), (7, 1), (10, 1), (60, 1), (200, 1),  # normalized psi_0
    (5, 5), (7, 5), (10, 5), (60, 5), (200, 5), (800, 5),  # n0 < K below N = 10
    (20, 12), (40, 12), (25, 20), (50, 20)])
def test_factor_blocks_match_exact_rationals(N, K):
    # C = L[:K, :N - K]* and R22* R22 = W = Psi* Psi - C* C, with Psi* Psi from
    # the monomials, all in rationals: every entry of R is its exact value
    # rounded once to the nearest double
    frame = frames.onb_plus_k(N, K)
    R = gram.build_gram_factor(frame).R
    n0 = N - K
    norm = [Fraction(1, 2) if frame.normalize_psi else 1] + [1] * (K - 1)
    s = [[_log_ratio(k, j) for k in range(K)] for j in range(n0)]
    C_roots = [[(np.sign(r), norm[k] * (2 * k + 1) * (2 * j + 1) * r * r)
                for k, r in enumerate(row)] for j, row in enumerate(s)]
    _assert_correctly_rounded(R[:n0, :K], C_roots)
    psi = _log_square_moments(K)
    S = [[psi[k][l] - sum((2 * j + 1) * _log_ratio(k, j) * _log_ratio(l, j) for j in range(n0))
          for l in range(K)] for k in range(K)]
    weights = [norm[l] * (2 * l + 1) for l in range(K)]
    _assert_correctly_rounded(R[n0:, :K], _root_squares(S, weights))


@pytest.mark.parametrize("K, n", [(1, 0), (1, 3), (5, 0), (5, 2), (5, 20), (12, 10), (20, 2)])
def test_residual_basis_factor_is_correctly_rounded(K, n):
    # R_w* R_w is the Gram of r_l = (I - P_n)[log(x) x^l], l < K, from
    # <log(x) x^l, log(x) x^m> = 2 / (l + m + 1)^3 and the projections
    # <log(x) x^l, phi_j> = sqrt(2j + 1) sum_i c_ji (-1 / (l + i + 1)^2)
    R_w = sampling._residual_basis(K, n)[0]
    coeffs = _monomial_coefficients(n)
    t = [[sum(Fraction(-c, (l + i + 1) ** 2) for i, c in enumerate(coeffs[j])) for j in range(n)]
         for l in range(K)]
    gram_w = [[Fraction(2, (l + m + 1) ** 3)
               - sum((2 * j + 1) * t[l][j] * t[m][j] for j in range(n))
               for m in range(K)] for l in range(K)]
    _assert_correctly_rounded(R_w, _root_squares(gram_w, [1] * K))


def test_sqrt_quotients_round_near_midpoints_on_the_integer_route(monkeypatch):
    # sqrt(2^52 + j), j odd, lies about 2^-100 below the midpoint 2^26 + j 2^-27
    # between doubles: those entries must take _sqrt_ratio, and all are exact
    integer_route = []
    sqrt_ratio = gram._sqrt_ratio
    monkeypatch.setattr(gram, "_sqrt_ratio",
                        lambda p, q: integer_route.append(p) or sqrt_ratio(p, q))
    a, d = np.meshgrid(2.0**52 + np.arange(1, 40, 2), [1.0, 3.0, 7.0])
    y = gram._sqrt_quotients(a, d)
    assert set(2**52 + j for j in range(1, 40, 2)) <= set(integer_route)
    roots = [[(1, Fraction(int(p), int(q) ** 2)) for p, q in zip(*rows)] for rows in zip(a, d)]
    _assert_correctly_rounded(y, roots)


def test_sqrt_ratio_of_zero_and_perfect_squares():
    assert gram._sqrt_ratio(0, 7) == 0.0
    for n in (1, 3, 2**26 + 1, 2**53 - 1, 2**53 + 1, 3**200):
        assert gram._sqrt_ratio(n * n, 1) == float(n)  # float rounds n once
        assert gram._sqrt_ratio(n * n * 49, 9 * 49) == n / 3


@settings(deadline=None, max_examples=300)
@given(mantissa=st.integers(1, 2**120), divisor=st.integers(1, 2**120),
       shift=st.integers(-300, 300))
def test_sqrt_ratio_is_correctly_rounded_across_scales(mantissa, divisor, shift):
    p, q = (mantissa << shift, divisor) if shift >= 0 else (mantissa, divisor << -shift)
    assert _rounds_root(gram._sqrt_ratio(p, q), 1, Fraction(p, q))


@pytest.mark.parametrize("y", [1.0, 1.5, np.pi, 2.0**-300 * 1.25, 2.0**300 / 3, 1e-20])
def test_sqrt_ratio_on_both_sides_of_a_midpoint(y):
    # mu, halfway between y and the next double up: mu^2 rounds to the even
    # one of the two, and squares just below or above mu^2 to y or to the
    # next double
    up = float(np.nextafter(y, np.inf))
    even = y if (Fraction(y) / Fraction(float(np.spacing(y)))).numerator % 2 == 0 else up
    square = ((Fraction(y) + Fraction(up)) / 2) ** 2
    p, q = square.numerator, square.denominator
    assert gram._sqrt_ratio(p, q) == even
    scale = 2**400
    assert gram._sqrt_ratio(p * scale - 1, q * scale) == y
    assert gram._sqrt_ratio(p * scale + 1, q * scale) == up


def test_shared_factor_cannot_be_changed():
    # build_gram_factor's cache hands every caller the same object
    factor = gram.build_gram_factor(frames.onb_plus_k(12, 3))
    assert factor is gram.build_gram_factor(frames.onb_plus_k(12, 3))
    assert factor.R.flags.writeable is False
    with pytest.raises(ValueError):
        factor.R[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        factor.R = np.eye(12)


def test_factor_keeps_no_array_larger_than_r():
    N = 200
    factor = gram.build_gram_factor(frames.onb_plus_k(N, 5))
    arrays = [v for v in vars(factor).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size <= N * N for a in arrays)


def test_factor_build_never_holds_the_whole_quadrature_factor():
    # H alone is 8692 x 200 doubles (13.9 MB) at N = 200
    frame = frames.onb_plus_k(200, 5)
    gram.build_gram_factor.cache_clear()  # so that the call below builds
    tracemalloc.start()
    try:
        gram.build_gram_factor(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
