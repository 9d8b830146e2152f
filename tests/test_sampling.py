"""Sampling schemes, sample norms, and richness estimates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from frameapprox import frames, gram, orthopoly, sampling

_POINT_SCHEMES = {
    "legendre": sampling.legendre_point_scheme,
    "equispaced": sampling.equispaced_point_scheme,
    "chebyshev-weighted": lambda M: sampling.chebyshev_point_scheme(M, weighted=True),
}


def test_point_scheme_scales():
    leg = sampling.legendre_point_scheme(9)
    rule = oracles.gauss_legendre_rule(9)
    assert np.allclose(leg.nodes, rule.nodes, atol=0)
    assert np.allclose(leg.scales, np.sqrt(rule.weights), atol=0)

    eq = sampling.equispaced_point_scheme(8)
    assert np.allclose(eq.scales, np.sqrt(1.0 / 8), atol=0)

    cheb = sampling.chebyshev_point_scheme(8)
    assert np.allclose(cheb.scales, 1.0, atol=0)


def test_legendre_point_scheme_shares_the_cached_rule():
    for M in (1, 9, 75):
        scheme = sampling.legendre_point_scheme(M)
        rule = oracles.gauss_legendre_rule(M)
        assert np.array_equal(scheme.nodes, rule.nodes)
        assert np.array_equal(scheme.scales, np.sqrt(rule.weights))
    with pytest.raises(ValueError):
        scheme.nodes[0] = 0.5
    # the rule hands out copies, so writing to them leaves the cache alone
    rule.nodes[0] = 0.5
    rule.weights[0] = 0.5
    assert sampling.legendre_point_scheme(75).nodes[0] != 0.5


def test_weighted_chebyshev_scales():
    M = 12
    scheme = sampling.chebyshev_point_scheme(M, weighted=True)
    t = 2 * scheme.nodes - 1
    expected = np.sqrt(np.pi * np.sqrt(1 - t ** 2) / (2 * M))
    assert np.allclose(scheme.scales, expected, atol=1e-15)


def test_inner_product_scheme_reproduces_basis_coefficients():
    # sampling phi_j against the first 6 basis functions gives a unit vector
    scheme = sampling.inner_product_scheme(6)
    for j in range(6):
        f = lambda x: orthopoly.legendre_table(j, x)[j]
        y = sampling.sample(scheme, f).values
        expected = np.zeros(6)
        expected[j] = 1.0
        assert np.abs(y - expected).max() < 1e-12


def test_inner_product_sampling_holds_one_node_block_of_the_basis():
    # the whole table at M = 400 is 400 x 16892 doubles (54 MB)
    scheme = sampling.inner_product_scheme(400)
    tracemalloc.start()
    try:
        sampling.sample(scheme, frames.target_function)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_point_sampling_values():
    scheme = sampling.legendre_point_scheme(5)
    y = sampling.sample(scheme, np.exp)
    assert np.allclose(y.values, scheme.scales * np.exp(scheme.nodes), atol=0)
    assert y.scheme is scheme


def test_sample_rejects_non_finite_values():
    scheme = sampling.chebyshev_point_scheme(4)
    with pytest.raises(ValueError):
        sampling.sample(scheme, lambda x: np.full_like(x, np.nan))


def test_discrete_norm_weighted_points_approximates_l2_norm():
    # sqrt-weight scaling makes the discrete norm a Gauss estimate of ||f||
    scheme = sampling.legendre_point_scheme(30)
    norm = sampling.sample(scheme, np.exp).norm()
    exact = np.sqrt((np.e ** 2 - 1.0) / 2.0)
    assert abs(norm - exact) < 1e-12
    for f in (lambda x: np.ones_like(x), lambda x: 1.0):  # a scalar is broadcast
        assert sampling.sample(sampling.legendre_point_scheme(6), f).norm() \
            == pytest.approx(1.0)
    phi2 = lambda x: orthopoly.legendre_table(2, x)[2]
    assert sampling.sample(sampling.legendre_point_scheme(32), phi2).norm() \
        == pytest.approx(1.0, abs=1e-12)


def test_discrete_norm_equispaced_riemann_convergence():
    exact = np.sqrt((np.e ** 2 - 1.0) / 2.0)
    errs = [abs(sampling.sample(sampling.equispaced_point_scheme(M), np.exp).norm()
                - exact) for M in (16, 64, 256)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < errs[0] / 100  # midpoint sums converge at second order


def test_data_vector_validation():
    scheme = sampling.legendre_point_scheme(4)
    with pytest.raises(ValueError):
        sampling.DataVector(np.zeros(5), scheme)
    vec = sampling.DataVector(np.array([3.0, 4.0, 0.0, 0.0]), scheme)
    assert abs(vec.norm() - 5.0) < 1e-15


def test_point_scheme_requires_nodes_and_scales_of_length_m():
    # a scheme without nodes is the inner-product scheme; one without scales is malformed
    with pytest.raises(ValueError, match="requires nodes and scales"):
        sampling.SamplingScheme(M=3, nodes=np.full(3, 0.5))
    with pytest.raises(ValueError, match="requires nodes and scales"):
        sampling.SamplingScheme(M=3, scales=np.ones(3))
    with pytest.raises(ValueError, match="length M"):
        sampling.SamplingScheme(M=3, nodes=np.full(2, 0.5), scales=np.ones(2))


def test_scheme_family_realize():
    fam = sampling.legendre_points()
    scheme = fam.realize(7)
    assert scheme.M == 7
    assert scheme.nodes is not None
    assert sampling.inner_products().realize(5).nodes is None


@settings(deadline=None, max_examples=25)
@given(M=st.integers(1, 40))
def test_scheme_sizes(M):
    for fam in (sampling.legendre_points(), sampling.equispaced_points(),
                sampling.chebyshev_points(), sampling.chebyshev_points(weighted=True)):
        scheme = fam.realize(M)
        assert scheme.nodes.shape == (M,)
        assert np.all((scheme.nodes > 0) & (scheme.nodes <= 1))


def _richness(frame, scheme):
    system = gram.build_system(frame, scheme)
    return sampling.richness_estimate(system)


def test_richness_pure_basis_inner_products_is_one():
    frame = frames.legendre_onb(8)
    value = _richness(frame, sampling.inner_product_scheme(8))
    assert abs(value - 1.0) < 1e-10
    # a pure basis needs no scheme: the matrix alone fixes A'
    system = gram.GramSystem.from_matrix(np.eye(8), frame=frame)
    assert sampling.richness_estimate(system) == value


def _oracle_tolerance(K, value):
    # the double SVD resolves about u ||X|| / sigma_min; K = 12 is near the
    # end of the range where the residual basis log(x) x^l serves in double
    if K == 12:
        return 1e-6
    return 1e-9 if value >= 1e-13 else 1e-8


def test_richness_of_inner_products_matches_frozen_oracle():
    # oracle_richness at 60 and 240 digits, from the exact log moments in G
    # and the exact Gram of the span
    for N, M, value in [(20, 40, 2.8227907655603e-2), (60, 60, 5.5234076661932e-12),
                        (60, 120, 5.6040176252953e-3)]:
        estimate = _richness(frames.onb_plus_k(N, 5), sampling.inner_product_scheme(M))
        assert estimate == pytest.approx(value, rel=_oracle_tolerance(5, value), abs=0)


def test_richness_regression_enriched_gauss_points():
    # slow approach to 1 from below is intrinsic to the log enrichment
    frame = frames.onb_plus_k(20, 5)
    value = _richness(frame, sampling.legendre_point_scheme(40))
    # 50-digit mpmath: elements and both Grams on the same hp and Gauss-Legendre rules
    assert value == pytest.approx(2.3898798895513e-4, rel=1e-6)


@pytest.mark.parametrize("family, K, N, M, value", [
    pytest.param("legendre", 5, 40, 80, 2.4855107456829e-5, id="legendre-40-80"),
    pytest.param("legendre", 5, 60, 180, 2.2493656140048e-3, id="legendre-60-180"),
    pytest.param("equispaced", 5, 25, 50, 1.2848908603915e-14, id="equispaced-25-50"),
    pytest.param("legendre", 5, 20, 20, 3.2405123359283e-13, id="legendre-20-20"),
    pytest.param("legendre", 5, 20, 40, 2.3898798893995e-4, id="legendre-20-40"),
    pytest.param("legendre", 5, 60, 90, 1.2967369847029e-8, id="legendre-60-90"),
    pytest.param("legendre", 5, 60, 120, 1.1024056860818e-5, id="legendre-60-120"),
    pytest.param("legendre", 8, 20, 40, 1.0644478681601e-5, id="legendre-K8-20-40"),
    pytest.param("legendre", 12, 24, 48, 2.4731617454604e-7, id="legendre-K12-24-48"),
    pytest.param("legendre", 8, 40, 80, 4.3429647120857e-8, id="legendre-K8-40-80"),
])
def test_richness_at_points_matches_frozen_oracle(family, K, N, M, value):
    # oracle_richness: the span's exact Gram and mpmath point values at the
    # double nodes and scales, taken as exact
    scheme = _POINT_SCHEMES[family](M)
    estimate = _richness(frames.onb_plus_k(N, K), scheme)
    assert estimate == pytest.approx(value, rel=_oracle_tolerance(K, value), abs=0)


@pytest.mark.parametrize("family, K, N, M", [
    ("legendre", 5, 7, 14), ("legendre", 5, 9, 18), ("legendre", 8, 20, 40),
    ("chebyshev-weighted", 8, 20, 40), ("legendre", 12, 24, 48),
])
def test_richness_matches_the_extended_precision_oracle(family, K, N, M):
    # N < 2K in the first two cells, where some residuals are projected directly
    frame, scheme = frames.onb_plus_k(N, K), _POINT_SCHEMES[family](M)
    value = oracles.oracle_richness(frame, scheme)
    assert _richness(frame, scheme) == pytest.approx(value, rel=_oracle_tolerance(K, value), abs=0)


def test_richness_increases_with_oversampling():
    frame = frames.onb_plus_k(10, 5)
    values = [
        _richness(frame, sampling.legendre_point_scheme(mult * 10))
        for mult in (2, 4, 8, 16, 32)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9  # approaches the continuous lower frame bound 1


def test_richness_equispaced_points_nearly_degenerate():
    frame = frames.onb_plus_k(20, 5)
    value = _richness(frame, sampling.equispaced_point_scheme(40))
    assert 0 < value < 1e-10


def test_richness_argument_validation():
    frame = frames.onb_plus_k(10, 2)
    with pytest.raises(ValueError):
        _richness(frame, sampling.legendre_point_scheme(5))


@pytest.mark.parametrize("N, K", [(9, 5), (12, 8), (14, 5)])
@pytest.mark.parametrize("M", [1, 2, 3, 13, 30])
def test_residual_samples_from_a_column_block_of_a_wider_table(N, K, M):
    # constants_sweep passes each cell's columns of its stack's table; at N
    # < 2K the rows below n enter a product, which OpenBLAS computes to other
    # bits on a strided block at some shapes (4 or more rows, 3 or fewer
    # columns on OpenBLAS 0.3.31)
    frame, n = frames.onb_plus_k(N, K), N - K
    nodes = sampling.chebyshev_point_scheme(M + 7).nodes
    scheme = sampling.SamplingScheme(M=M, nodes=nodes[3:3 + M], scales=np.ones(M))
    wide = orthopoly.legendre_table(N, nodes)
    alone = sampling._residual_samples(frame, scheme, orthopoly.legendre_table(n, scheme.nodes))
    assert np.array_equal(sampling._residual_samples(frame, scheme, wide[:, 3:3 + M]), alone)
