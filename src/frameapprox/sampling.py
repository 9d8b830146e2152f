"""Sampling operators: basis inner products and weighted point values.

A sampling scheme turns a function on (0, 1] into a data vector of M
numbers.  Point schemes return s_m * f(x_m) with per-node scale factors
s_m chosen so that the discrete norm mimics the continuous L2 norm where
possible; the inner-product scheme returns coefficients against the
Legendre orthonormal basis, integrated by quadrature only in `sample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .blas import one_blas_thread
from .frames import FrameSpec
from .gram import GramSystem, _exact_cholesky, _require, _tail_gram
from .orthopoly import (
    _gauss_legendre_cached,
    _node_blocks,
    hp_log_quadrature,
    legendre_table,
)

__all__ = [
    "SamplingScheme",
    "SchemeFamily",
    "DataVector",
    "inner_product_scheme",
    "legendre_point_scheme",
    "equispaced_point_scheme",
    "chebyshev_point_scheme",
    "inner_products",
    "legendre_points",
    "equispaced_points",
    "chebyshev_points",
    "sample",
    "richness_estimate",
]


@dataclass(frozen=True)
class SamplingScheme:
    """M sampling functionals.

    For point schemes `nodes` and `scales` hold the x_m and s_m; the
    inner-product scheme is defined by M alone, and its `nodes` is None.
    """

    M: int
    nodes: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if (self.nodes is None) != (self.scales is None):
            raise ValueError("point scheme requires nodes and scales")
        if self.nodes is not None and not len(self.nodes) == len(self.scales) == self.M:
            raise ValueError("nodes and scales must have length M")


@dataclass
class DataVector:
    """Sampled data together with the scheme that produced it."""

    values: np.ndarray
    scheme: SamplingScheme

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.scheme.M,):
            raise ValueError("data length must equal scheme.M")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def inner_product_scheme(M: int) -> SamplingScheme:
    """Coefficients against the first M orthonormal Legendre polynomials.

    The scheme holds only M: its systems are closed form
    (`gram._system_matrix`), and `sample` builds its own quadrature.
    """
    return SamplingScheme(M=M)


def legendre_point_scheme(M: int) -> SamplingScheme:
    """Gauss-Legendre points with square-root weight scaling.

    The nodes are the read-only arrays cached by the rule, shared between
    schemes of the same M.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    nodes, weights = _gauss_legendre_cached(M)
    return SamplingScheme(
        M=M,
        nodes=nodes,
        scales=np.sqrt(weights),
    )


def equispaced_point_scheme(M: int) -> SamplingScheme:
    """Midpoints (m - 1/2) / M of the uniform partition, scaled by sqrt(1/M)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return SamplingScheme(
        M=M,
        nodes=(np.arange(1, M + 1) - 0.5) / M,
        scales=np.full(M, 1.0 / np.sqrt(M)),
    )


def chebyshev_point_scheme(M: int, weighted: bool = False) -> SamplingScheme:
    """Chebyshev points, plain by default or with Gauss-Chebyshev scaling.

    The nodes are (cos((2m - 1) pi / (2M)) + 1) / 2, sorted increasing.
    The plain variant returns raw point values; the weighted variant
    scales by the square roots of the Gauss-Chebyshev quadrature weights,
    which makes the discrete norm consistent with L2(0, 1) as M grows.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(1, M + 1)
    nodes = np.sort((np.cos((2 * m - 1) * np.pi / (2 * M)) + 1.0) / 2.0)
    t = 2.0 * nodes - 1.0
    scales = np.sqrt(np.pi * np.sqrt(1.0 - t * t) / (2.0 * M)) if weighted else np.ones(M)
    return SamplingScheme(M=M, nodes=nodes, scales=scales)


@dataclass(frozen=True)
class SchemeFamily:
    """A rule M -> SamplingScheme, used by sweeps that vary the data size."""

    factory: Callable[[int], SamplingScheme]

    def realize(self, M: int) -> SamplingScheme:
        return self.factory(M)


def inner_products() -> SchemeFamily:
    return SchemeFamily(inner_product_scheme)


def legendre_points() -> SchemeFamily:
    return SchemeFamily(legendre_point_scheme)


def equispaced_points() -> SchemeFamily:
    return SchemeFamily(equispaced_point_scheme)


def chebyshev_points(weighted: bool = False) -> SchemeFamily:
    return SchemeFamily(lambda M: chebyshev_point_scheme(M, weighted))


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluation produced non-finite samples")
    return vals


@one_blas_thread
def sample(scheme: SamplingScheme, f) -> DataVector:
    """Apply the M sampling functionals to a callable f.

    Inner products integrate f on an hp rule of per-cell order M + 12,
    which resolves a log singularity at 0, summing the Legendre table one
    node block at a time.
    """
    if scheme.nodes is not None:
        values = scheme.scales * _evaluate(f, scheme.nodes)
    else:
        rule = hp_log_quadrature(levels=40, order=scheme.M + 12)
        fw = rule.weights * _evaluate(f, rule.nodes)
        values = sum(legendre_table(scheme.M - 1, rule.nodes[block]) @ fw[block]
                     for block in _node_blocks(rule.size, scheme.M))
    return DataVector(values=values, scheme=scheme)


@one_blas_thread
def richness_estimate(system: GramSystem) -> float:
    """Lower discrete-norm constant A'_{M,N} of a sampled system over its frame.

    Returns the smallest value of ||g||_M^2 over functions g in the span
    of the frame's N elements with unit L2 norm.  That depends only on the
    span, which with n = N - K is the polynomials of degree below n plus
    the K residuals r_l = (I - P_n)[log(x) x^l], l < K, P_n the L2(0, 1)
    projection onto those polynomials.  The residuals are orthogonal to
    the polynomials, so with R_w* R_w their Gram and Y their sampled
    values (`_residual_samples`),

        A' = sigma_min([G_Phi, Y R_w^-1])^2,

    G_Phi the polynomial columns of the system's own double matrix.  The
    basis log(x) x^l, unlike log(x) phi_k, keeps the residuals' Gram far
    from singular after scaling, which lets all of it run in double.
    Requires M >= N.  At point schemes the residuals' values read rows of
    a Legendre table of degree n on the nodes, which this call evaluates;
    diagnostics.constants_sweep passes the rows of its stacked table to
    _richness_from_table instead.
    """
    if system.M < system.N:
        raise ValueError("richness estimate requires M >= N")
    _require(system, "frame")
    K = system.frame.K
    # a pure basis reads neither the scheme nor a table
    if K:
        _require(system, "scheme")
    nodes = system.scheme.nodes if K else None
    table = None if nodes is None else legendre_table(system.N - K, nodes)
    return _richness_from_table(system, table)


def _richness_from_table(system: GramSystem, table: Optional[np.ndarray]) -> float:
    """richness_estimate of a system with M >= N, given the Legendre table of its nodes.

    table has degree at least N - K and one column per node, the rows that
    _residual_samples reads; it is None for inner products or K = 0.
    """
    K = system.frame.K
    if K:
        R_w = _residual_basis(K, system.N - K)[0]
        Y = _residual_samples(system.frame, system.scheme, table)
    else:
        R_w, Y = np.empty((0, 0)), np.empty((system.M, 0))
    return _richness_from_matrices(system.matrix[:, K:], R_w, Y)


def _richness_from_matrices(G_phi: np.ndarray, R_w: np.ndarray, Y: np.ndarray) -> float:
    """sigma_min([G_Phi, Y R_w^-1])^2, forming Y R_w^-1 in place by back substitution."""
    for l in range(Y.shape[1]):
        Y[:, l] = (Y[:, l] - Y[:, :l] @ R_w[:l, l]) / R_w[l, l]
    smallest = np.linalg.svd(np.concatenate((G_phi, Y), axis=1), compute_uv=False)[-1]
    return float(smallest**2)


# values per row block of the kernel 1 / (x + t) in _residual_samples (64 KiB)
_KERNEL_BLOCK_VALUES = 2**13


@lru_cache(maxsize=64)
def _residual_basis(K: int, n: int):
    """R_w, the t-nodes and the kernel weights of the residuals r_l, l < K, past degree n.

    R_w is the upper-triangular factor of the Gram W' of the r_l.  With
    x^l = sum_k B[k, l] P_k(2x - 1), B[k, l] = (2k + 1) l!^2 / ((l - k)!
    (l + k + 1)!), W' = B* S B for build_gram_factor's tail Gram S = A / Q,
    integral once B is scaled by (2K - 1)!, and each entry of its factor is
    correctly rounded in double (gram._exact_cholesky).  A double Cholesky
    of W', even with unit diagonal, breaks down at K = 14 for some n and
    from K = 16 on at every n tried (15, 35, 55 and 195).

    For l < n the residuals have an integral form with no cancellation.
    From log(x) = int_0^inf (1 / (1 + t) - 1 / (x + t)) dt and the
    Christoffel-Darboux formula for the projection of 1 / (x + t),

        r_l(x) = (-1)^l b_n int_0^inf t^l [phi_n(x) q_{n-1}(t)
                 - phi_{n-1}(x) q_n(t)] / (x + t) dt,

    with b_n = n / (2 sqrt(4n^2 - 1)) and q_j(t) = int_0^1 phi_j(y) /
    (y + t) dy = 2 (-1)^j sqrt(2j + 1) Q_j(1 + 2t), Q_j the Legendre
    functions of the second kind (Gautschi, Orthogonal Polynomials, 2004).
    The integrand decays only like t^(l - n - 1), so the rule covers all of
    (0, inf): t = u^2 on (0, 1] and t = 1 / u on [1, inf), with u on
    hp_log_quadrature(24, 12), 600 nodes.  The weights are the rule's
    times every factor of the integrand but 1 / (x + t) and phi(x): with
    L = min(n, K), column l < L is the phi_n(x) term of r_l, and column
    L + l its phi_{n-1}(x) term.
    """
    A, Q = _tail_gram(K, n)
    f = math.factorial
    B = [[(2 * k + 1) * (f(l) // f(l - k)) * (f(l) * f(2 * K - 1) // f(l + k + 1)) if k <= l
          else 0 for l in range(K)] for k in range(K)]
    BA = [[sum(B[i][k] * A[i][j] for i in range(K)) for j in range(K)] for k in range(K)]
    W = [[sum(BA[k][j] * B[j][l] for j in range(K)) for l in range(K)] for k in range(K)]
    R_w = _exact_cholesky(W, Q * f(2 * K - 1) ** 2, [1] * K)
    R_w.setflags(write=False)
    if n == 0:
        return R_w, None, None
    rule = hp_log_quadrature(levels=24, order=12)
    u, w = rule.nodes, rule.weights
    t = np.concatenate((u * u, 1.0 / u))
    w = np.concatenate((2.0 * u * w, w / (u * u)))
    Q_low, Q_high = _second_kind_pair(n, t)
    b = n / (2.0 * math.sqrt(4.0 * n * n - 1.0))
    sign = -1.0 if n % 2 else 1.0  # (-1)^n
    q_low = -2.0 * sign * math.sqrt(2 * n - 1) * Q_low
    q_high = 2.0 * sign * math.sqrt(2 * n + 1) * Q_high
    powers = np.power.outer(-t, np.arange(min(n, K))) * (b * w)[:, None]
    weights = np.concatenate((powers * q_low[:, None], -powers * q_high[:, None]), axis=1)
    t.setflags(write=False)
    weights.setflags(write=False)
    return R_w, t, weights


def _second_kind_pair(n: int, t: np.ndarray):
    """Q_{n-1}(1 + 2t) and Q_n(1 + 2t) for n >= 1 and t > 0, to a few units of roundoff.

    From Q_0 = log1p(1 / t) / 2, the three-term recurrence
    (j + 1) Q_{j+1} = (2j + 1) z Q_j - j Q_{j-1}, z = 1 + 2t, runs forward
    where t < 1 / n^2, which loses at most a factor of about e^4 to
    cancellation.  Above that Q_j is the recurrence's minimal solution,
    and the ratios Q_j / Q_{j-1} come from it backward, started at 0 far
    enough past n that the start's error has decayed below roundoff
    (Gautschi, SIAM Review 9, 1967).
    """
    z = 1.0 + 2.0 * t
    Q0 = 0.5 * np.log1p(1.0 / t)
    low, high = np.empty_like(t), np.empty_like(t)
    forward = t < 1.0 / (n * n)
    a, c, zf = Q0[forward], z[forward] * Q0[forward] - 1.0, z[forward]
    for j in range(1, n):
        a, c = c, ((2 * j + 1) * zf * c - j * a) / (j + 1)
    low[forward], high[forward] = a, c
    zb = z[~forward]
    if zb.size:
        # the start's error shrinks by (z + sqrt(z^2 - 1))^-2 per step
        decay = math.log(float(zb.min()) + math.sqrt(float(zb.min()) ** 2 - 1.0))
        ratio, product = np.zeros_like(zb), Q0[~forward]
        for j in range(n + math.ceil(20.0 / decay), 0, -1):
            ratio = j / ((2 * j + 1) * zb - (j + 1) * ratio)
            if j < n:
                product = product * ratio
            elif j == n:
                last = ratio
        low[~forward], high[~forward] = product, product * last
    return low, high


def _residual_samples(
    frame: FrameSpec, scheme: SamplingScheme, table: Optional[np.ndarray]
) -> np.ndarray:
    """The M x K samples of the residuals r_l = (I - P_n)[log(x) x^l], l < K, n = N - K.

    Inner products read exact moments: row j is <log(x) x^l, phi_j> for
    j >= n and 0 below (`_log_monomial_moment`), and table is None.  Point
    values s_m r_l(x_m) read the caller's table, legendre_table of the
    nodes up to degree n or beyond: phi_{n-1} and phi_n for l < n, which
    enter the integral of `_residual_basis`, on a kernel 1 / (x + t) formed
    in row blocks of at most _KERNEL_BLOCK_VALUES values from the first
    node.  For l >= n, which happens when N < 2K, the integral diverges,
    and the n-term projection on the rows below n is subtracted from
    log(x) x^l directly.  The table may be a column block of a larger one:
    every value is formed elementwise from its own node, and the two
    products are made on the nodes' own rows, so the samples do not
    depend on it.
    """
    K, n = frame.K, frame.N - frame.K
    if scheme.nodes is None:  # inner products
        Y = np.zeros((scheme.M, K))
        for j in range(n, scheme.M):
            Y[j] = [_log_monomial_moment(j, l) * math.sqrt(2 * j + 1) for l in range(K)]
        return Y
    x = scheme.nodes
    Y = np.empty((x.size, K))
    L = min(n, K)
    if L:
        _, t, weights = _residual_basis(K, n)
        F = np.empty((x.size, 2 * L))
        # OpenBLAS's GEMM returns other bits for other block row counts, so
        # the blocks start at the first node whatever the table's origin
        step = max(1, _KERNEL_BLOCK_VALUES // t.size)
        for start in range(0, x.size, step):
            rows = slice(start, start + step)
            F[rows] = (1.0 / (x[rows, None] + t)) @ weights
        Y[:, :L] = table[n][:, None] * F[:, :L] + table[n - 1][:, None] * F[:, L:]
    if L < K:
        # OpenBLAS's GEMV returns other bits for a strided column block
        # than for the same rows stored contiguously
        below = np.ascontiguousarray(table[:n])
    for l in range(L, K):
        moments = np.array([_log_monomial_moment(j, l) * math.sqrt(2 * j + 1) for j in range(n)])
        Y[:, l] = np.log(x) * x**l - moments @ below
    return scheme.scales[:, None] * Y


def _log_monomial_moment(j: int, l: int) -> float:
    """<log(x) x^l, phi_j> / sqrt(2j + 1) in closed form, correctly rounded.

    For j > l it is (-1)^(j-l-1) l!^2 (j - l - 1)! / (j + l + 1)!, and for
    j <= l it is l!^2 / ((l - j)! (l + j + 1)!) (2 H_l - H_{l-j} - H_{l+j+1}),
    H the harmonic numbers.  Each is one quotient of integers, which
    Python rounds once.
    """
    f = math.factorial
    if j > l:
        return (-1) ** (j - l - 1) * f(l) ** 2 / math.prod(range(j - l, j + l + 2))
    # P H_m is an integer for m <= l + j + 1
    P = f(l + j + 1)
    H = [sum(P // i for i in range(1, m + 1)) for m in (l, l - j, l + j + 1)]
    return f(l) ** 2 * (2 * H[0] - H[1] - H[2]) / (f(l - j) * P * P)
