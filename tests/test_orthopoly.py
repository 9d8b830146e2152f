"""Quadrature rules and the shifted Legendre family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameapprox import orthopoly


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        orthopoly.QuadratureRule(np.array([0.2, 0.1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        orthopoly.QuadratureRule(np.array([0.1, 1.2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        orthopoly.QuadratureRule(np.array([0.1, 0.2]), np.array([0.5, -0.5]))
    rule = orthopoly.QuadratureRule(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    assert rule.size == 2


def test_two_point_gauss_integrates_cubic_exactly():
    rule = orthopoly.gauss_legendre_rule(2)
    assert abs(rule.integrate(lambda x: x ** 3) - 0.25) < 1e-15


def test_gauss_weights_sum_to_one():
    for M in (1, 2, 7, 40):
        rule = orthopoly.gauss_legendre_rule(M)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))


@settings(deadline=None)
@given(M=st.integers(1, 12), data=st.data())
def test_gauss_exactness_degree(M, data):
    # an M point rule is exact through degree 2M - 1
    degree = data.draw(st.integers(0, 2 * M - 1))
    coeffs = np.array(data.draw(
        st.lists(st.floats(-4, 4), min_size=degree + 1, max_size=degree + 1)))
    rule = orthopoly.gauss_legendre_rule(M)
    exact = np.sum(coeffs / (np.arange(degree + 1) + 1.0))
    approx = rule.integrate(lambda x: np.polynomial.polynomial.polyval(x, coeffs))
    assert abs(approx - exact) < 1e-12 * max(1.0, np.abs(coeffs).sum())


def test_chebyshev_nodes_closed_form():
    M = 4
    nodes = orthopoly.chebyshev_nodes(M)
    expected = np.sort((np.cos((2 * np.arange(1, M + 1) - 1) * np.pi / (2 * M)) + 1) / 2)
    assert np.allclose(nodes, expected, atol=1e-15)
    assert np.all(np.diff(nodes) > 0)


@settings(deadline=None)
@given(M=st.integers(1, 200))
def test_chebyshev_nodes_inside_interval(M):
    nodes = orthopoly.chebyshev_nodes(M)
    assert nodes.shape == (M,)
    assert np.all((nodes > 0) & (nodes < 1))
    assert np.all(np.diff(nodes) > 0)


def test_equispaced_midpoints():
    assert np.allclose(orthopoly.equispaced_nodes(4), [0.125, 0.375, 0.625, 0.875])


def test_equispaced_midpoint_riemann_convergence():
    # midpoint sums for f = exp converge at rate M^-2 with constant (e-1)/24
    errors = {}
    for M in (16, 64, 256):
        x = orthopoly.equispaced_nodes(M)
        errors[M] = abs(np.exp(x).sum() / M - (np.e - 1.0))
    assert abs(errors[16] * 16 ** 2 - (np.e - 1.0) / 24) < 2e-4
    assert 15 < errors[16] / errors[64] < 17
    assert 15 < errors[64] / errors[256] < 17
    assert errors[256] < 1.2e-6


def test_legendre_endpoint_value():
    for n in (0, 1, 5, 17):
        assert abs(orthopoly.legendre_shifted(n, 1.0) - np.sqrt(2 * n + 1)) < 1e-12


def test_legendre_table_shape_and_degree_zero():
    x = np.linspace(0.05, 0.95, 7)
    table = orthopoly.legendre_table(5, x)
    assert table.shape == (6, 7)
    assert np.allclose(table[0], 1.0)
    assert np.allclose(table[1], np.sqrt(3.0) * (2 * x - 1))


@settings(deadline=None, max_examples=200)
@given(n=st.integers(0, 30), x=st.floats(0.0, 1.0))
def test_legendre_sup_norm_bound(n, x):
    # |sqrt(2n+1) P_n| on [0,1] peaks at the endpoints
    assert abs(orthopoly.legendre_shifted(n, x)) <= np.sqrt(2 * n + 1) + 1e-10


def _reference_table(max_degree, x):
    # reference: the same recurrence with a fresh array per operation
    t = 2.0 * x - 1.0
    table = np.empty((max_degree + 1, x.size), dtype=x.dtype)
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = t
    for n in range(1, max_degree):
        table[n + 1] = ((2 * n + 1) * t * table[n] - n * table[n - 1]) / (n + 1)
    scale = np.sqrt(2 * np.arange(max_degree + 1, dtype=x.dtype) + 1)
    return table * scale[:, None]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_legendre_table_rows_are_exact_and_independent_of_length(dtype):
    x = np.random.default_rng(3).random(257).astype(dtype)
    long = orthopoly.legendre_table(90, x)
    for degree in (0, 1, 2, 17, 90):
        short = orthopoly.legendre_table(degree, x)
        assert short.dtype == dtype
        assert np.array_equal(short, long[: degree + 1])
        assert np.array_equal(short, _reference_table(degree, x))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("size", [0, 1, 3, 12, 13, 75, 1310])
def test_legendre_table_equals_the_plain_recurrence_to_the_bit(dtype, size):
    # up to 12 double nodes take the Python-float route, 13 and long double
    # nodes numpy's; 1310 nodes take several coefficient blocks up to degree 195
    x = np.random.default_rng(size).random(size).astype(dtype)
    table = orthopoly.legendre_table(195, x)
    assert table.dtype == dtype
    assert np.array_equal(table, _reference_table(195, x))


def test_legendre_orthonormality_under_gauss_rule():
    rule = orthopoly.gauss_legendre_rule(32)
    table = orthopoly.legendre_table(20, rule.nodes)
    moments = (table * rule.weights) @ table.T
    assert np.abs(moments - np.eye(21)).max() < 1e-13


def test_hp_rule_structure():
    rule = orthopoly.hp_log_quadrature(levels=10, order=4)
    assert rule.size == 11 * 4
    assert np.all(np.diff(rule.nodes) > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("levels, order", [(1, 1), (10, 4), (40, 10), (40, 212)])
def test_hp_rule_equals_cell_by_cell_construction(levels, order):
    rule = orthopoly.hp_log_quadrature(levels, order)
    base = orthopoly.gauss_legendre_rule(order)
    edges = np.concatenate(([0.0], np.ldexp(1.0, -np.arange(levels, -1, -1))))
    nodes = [a + (b - a) * base.nodes for a, b in zip(edges[:-1], edges[1:])]
    weights = [(b - a) * base.weights for a, b in zip(edges[:-1], edges[1:])]
    assert np.array_equal(rule.nodes, np.concatenate(nodes))
    assert np.array_equal(rule.weights, np.concatenate(weights))


def test_hp_rule_polynomial_exactness():
    rule = orthopoly.hp_log_quadrature(levels=20, order=10)
    for degree in (0, 5, 19):
        err = abs(rule.integrate(lambda x: (degree + 1) * x ** degree) - 1.0)
        assert err < 1e-13


def test_hp_log_moment():
    rule = orthopoly.hp_log_quadrature()
    assert abs(rule.integrate(np.log) + 1.0) < 1e-12


def test_hp_log_square_norm():
    rule = orthopoly.hp_log_quadrature()
    assert abs(rule.integrate(lambda x: np.log(x) ** 2) - 2.0) < 1e-11


def test_hp_log_legendre_integrals_closed_form():
    # int_0^1 P_n(2x-1) log x dx = (-1)^(n+1) / (n (n+1))
    rule = orthopoly.hp_log_quadrature(order=32)
    for n in range(1, 21):
        value = rule.integrate(
            lambda x: orthopoly.legendre_shifted(n, x) * np.log(x)
        ) / np.sqrt(2 * n + 1)
        closed = (-1.0) ** (n + 1) / (n * (n + 1))
        assert abs(value - closed) < 1e-11


def test_hp_resolves_log_singularity_better_than_plain_gauss():
    hp = orthopoly.hp_log_quadrature(levels=40, order=10)
    plain = orthopoly.gauss_legendre_rule(hp.size)
    f = lambda x: np.log(x) ** 2
    err_hp = abs(hp.integrate(f) - 2.0)
    err_plain = abs(plain.integrate(f) - 2.0)
    assert err_hp < 1e-4 * err_plain
