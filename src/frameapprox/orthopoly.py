"""Shifted Legendre polynomials, point families, and quadrature rules on [0, 1]."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "legendre_shifted",
    "legendre_table",
    "chebyshev_nodes",
    "gauss_legendre_rule",
    "equispaced_nodes",
    "hp_log_quadrature",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on [0, 1].

    Nodes are strictly increasing and lie in [0, 1]; weights are positive.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ValueError("empty quadrature rule")
        if nodes[0] < 0.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must lie in [0, 1]")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, f) -> float:
        """Apply the rule to a callable f vectorized over the nodes."""
        vals = np.broadcast_to(np.asarray(f(self.nodes), dtype=float), self.nodes.shape)
        return float(self.weights @ vals)


# values per block of recurrence coefficients (2n + 1) t (128 KiB of doubles)
_COEFFICIENT_BLOCK_VALUES = 2**14

# Most double nodes whose Legendre table is computed in Python floats
# (legendre_table); numpy's route is faster from about 14 nodes on.
_FLOAT_ROUTE_NODES = 12

# Values per node block of sample()'s sum over an hp rule (2 MiB of doubles),
# M per node for the basis of inner-product data.  The sum is one block when
# M is at most 74 (41 * 86 nodes).
_BLOCK_VALUES = 2**18


def _as_nodes(x) -> np.ndarray:
    """x as a 1-d array of evaluation points: long double stays, anything else is double."""
    x = np.atleast_1d(np.asarray(x))
    return x if x.dtype == np.longdouble else x.astype(float, copy=False)


@lru_cache(maxsize=64)
def _recurrence_constants(capacity: int, dtype: np.dtype):
    """legendre_table's per-degree constants for degrees below capacity, read-only.

    Returns the column 2n + 1, the 0-d arrays n, the scale column
    sqrt(2n + 1) (all in dtype, n = 0..capacity - 1) and the Python float
    triples (2n + 1, n, n + 1) of the steps n = 1..capacity - 2.  Each
    constant depends only on its own n, so a table of any lower degree
    reads prefixes; legendre_table asks for powers of two, which keeps a
    few entries per dtype alive instead of one per degree.
    """
    n = np.arange(capacity, dtype=dtype)
    odd = 2 * n + 1
    scale = np.sqrt(odd)[:, None]
    for array in (n, odd, scale):
        array.setflags(write=False)
    scalars = tuple(n[k, ...] for k in range(capacity))
    steps = tuple((2.0 * k + 1.0, float(k), k + 1.0) for k in range(1, capacity - 1))
    return odd, scalars, scale, steps


def legendre_table(max_degree: int, x) -> np.ndarray:
    """Table of orthonormal shifted Legendre values on [0, 1].

    Returns an array of shape (max_degree + 1, len(x)) whose row n holds
    sqrt(2n + 1) * P_n(2x - 1), an orthonormal family in L2(0, 1).  Long
    double points give long double values; any other input is evaluated
    in double.  Row n does not depend on max_degree, so one table of the
    largest degree a caller needs serves every shorter one.

    The three-term recurrence runs in the operation order
    ((2n + 1) t P_n - n P_{n-1}) / (n + 1), and the sqrt(2n + 1) scale is
    applied afterwards.  At the library's sizes the cost is per-call
    overhead, not arithmetic, so the route depends on the nodes:

    - At most _FLOAT_ROUTE_NODES double nodes (error probes, the smallest
      sampled systems) run the recurrence node by node in Python floats.
      At 3 nodes and degree 54 that takes 26 us against 104 us through
      numpy; the two routes cross at about 14 nodes at every degree from 5
      to 54 (one core of a Xeon VM, Python 3.11, numpy 2.4).
    - Long double nodes and larger node sets run it in place on the rows of
      the table with one scratch row, four numpy calls per degree.  The
      rows (2n + 1) t come from one call per block of at most
      _COEFFICIENT_BLOCK_VALUES values, and n and n + 1 enter as 0-d
      arrays of the table's dtype, which numpy takes faster than Python
      integers.

    Python floats are IEEE doubles, and the float route makes numpy's
    operations, each correctly rounded, on the same operands in the same
    order (2n + 1, n and n + 1 are exact), so both routes give the table
    of the plain loop to the bit.  The constants are built once per dtype
    and power of two of the degree (_recurrence_constants).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    x = _as_nodes(x)
    capacity = 1 << operator.index(max_degree).bit_length()
    odd, scalars, scale, steps = _recurrence_constants(capacity, x.dtype)
    scale = scale[: max_degree + 1]
    if x.dtype == np.float64 and x.ndim == 1 and x.size <= _FLOAT_ROUTE_NODES:
        steps = steps[: max(max_degree - 1, 0)]
        columns = []
        for t in (2.0 * x - 1.0).tolist():
            p, q = t, 1.0
            column = [1.0, t]
            for coefficient, n, n_next in steps:
                # three-term recurrence for P_{n+1} in the unnormalized convention
                p, q = (coefficient * t * p - q * n) / n_next, p
                column.append(p)
            columns.append(column[: max_degree + 1])
        table = np.array(columns).reshape(x.size, max_degree + 1)
        return np.multiply(table.T, scale, order="C")
    t = 2.0 * x - 1.0
    table = np.empty((max_degree + 1, x.size), dtype=x.dtype)
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = t
    rows = list(table)
    step = max(1, _COEFFICIENT_BLOCK_VALUES // max(x.size, 1))
    coefficients = np.empty((min(step, max_degree), x.size), dtype=x.dtype)
    scratch = np.empty_like(t)
    for start in range(1, max_degree, step):
        block = coefficients[: min(step, max_degree - start)]
        np.multiply(odd[start:start + len(block), None], t, block)
        for k, coefficient in enumerate(block, start):
            # three-term recurrence for P_{k+1} in the unnormalized convention
            row = rows[k + 1]
            np.multiply(coefficient, rows[k], row)
            np.multiply(rows[k - 1], scalars[k], scratch)
            np.subtract(row, scratch, row)
            np.divide(row, scalars[k + 1], row)
    table *= scale
    return table


def legendre_shifted(n: int, x):
    """Orthonormal shifted Legendre polynomial sqrt(2n+1) P_n(2x-1)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    x_arr = np.asarray(x, dtype=float)
    vals = legendre_table(n, x_arr.ravel())[n]
    if x_arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(x_arr.shape)


def chebyshev_nodes(M: int) -> np.ndarray:
    """M Chebyshev points (cos((2m-1) pi / (2M)) + 1) / 2, sorted increasing."""
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(1, M + 1)
    nodes = (np.cos((2 * m - 1) * np.pi / (2 * M)) + 1.0) / 2.0
    return np.sort(nodes)


@lru_cache(maxsize=256)
def _gauss_legendre_cached(M: int):
    t, w = np.polynomial.legendre.leggauss(M)
    nodes = (t + 1.0) / 2.0
    weights = w / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_rule(M: int) -> QuadratureRule:
    """M-point Gauss-Legendre rule on [0, 1], exact for degree <= 2M - 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    nodes, weights = _gauss_legendre_cached(M)
    return QuadratureRule(nodes=nodes.copy(), weights=weights.copy())


def equispaced_nodes(M: int) -> np.ndarray:
    """M midpoints (m - 1/2) / M of the uniform partition of [0, 1]."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return (np.arange(1, M + 1) - 0.5) / M


def hp_log_quadrature(levels: int = 40, order: int = 10) -> QuadratureRule:
    """Composite Gauss-Legendre rule on a geometric subdivision toward 0.

    The cells are [0, 2^-levels], [2^-levels, 2^-(levels-1)], ..., [1/2, 1],
    each carrying an `order`-point Gauss-Legendre rule.  Integrands with a
    logarithmic singularity at 0 (times a polynomial) are resolved to near
    machine precision; smooth integrands are handled by per-cell exactness.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    base_nodes, base_weights = _gauss_legendre_cached(order)
    edges = np.concatenate(([0.0], np.ldexp(1.0, -np.arange(levels, -1, -1))))
    # one row per cell [a, a + h]
    a = edges[:-1, None]
    h = np.diff(edges)[:, None]
    return QuadratureRule(nodes=(a + h * base_nodes).ravel(), weights=(h * base_weights).ravel())


def _node_blocks(size: int, values_per_node: int):
    """Slices of range(size) holding at most _BLOCK_VALUES values each."""
    step = max(1, _BLOCK_VALUES // values_per_node)
    return (slice(start, min(start + step, size)) for start in range(0, size, step))
