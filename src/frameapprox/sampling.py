"""Sampling operators: basis inner products and weighted point values.

A sampling scheme turns a function on (0, 1] into a data vector of M
numbers.  Point schemes return s_m * f(x_m) with per-node scale factors
s_m chosen so that the discrete norm mimics the continuous L2 norm where
possible; the inner-product scheme returns coefficients against the
Legendre orthonormal basis, integrated by quadrature only in `sample`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .orthopoly import (
    _gauss_legendre_cached,
    _node_blocks,
    chebyshev_nodes,
    equispaced_nodes,
    hp_log_quadrature,
    legendre_table,
)

if TYPE_CHECKING:  # gram imports this module
    from .gram import GramFactor, GramSystem

__all__ = [
    "SchemeKind",
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


class SchemeKind(enum.Enum):
    BASIS_INNER_PRODUCTS = "inner_products"
    WEIGHTED_POINT_VALUES = "point_values"


@dataclass(frozen=True)
class SamplingScheme:
    """M sampling functionals.

    For point schemes `nodes` and `scales` hold the x_m and s_m; the
    inner-product scheme is defined by M alone.
    """

    kind: SchemeKind
    M: int
    nodes: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.kind is SchemeKind.WEIGHTED_POINT_VALUES:
            if self.nodes is None or self.scales is None:
                raise ValueError("point scheme requires nodes and scales")
            if len(self.nodes) != self.M or len(self.scales) != self.M:
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
    return SamplingScheme(kind=SchemeKind.BASIS_INNER_PRODUCTS, M=M)


def legendre_point_scheme(M: int) -> SamplingScheme:
    """Gauss-Legendre points with square-root weight scaling.

    The nodes are the read-only arrays cached by the rule, shared between
    schemes of the same M.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    nodes, weights = _gauss_legendre_cached(M)
    return SamplingScheme(
        kind=SchemeKind.WEIGHTED_POINT_VALUES,
        M=M,
        nodes=nodes,
        scales=np.sqrt(weights),
    )


def equispaced_point_scheme(M: int) -> SamplingScheme:
    """Midpoints of the uniform partition, scaled by sqrt(1/M)."""
    return SamplingScheme(
        kind=SchemeKind.WEIGHTED_POINT_VALUES,
        M=M,
        nodes=equispaced_nodes(M),
        scales=np.full(M, 1.0 / np.sqrt(M)),
    )


def chebyshev_point_scheme(M: int, weighted: bool = False) -> SamplingScheme:
    """Chebyshev points, plain by default or with Gauss-Chebyshev scaling.

    The plain variant returns raw point values; the weighted variant
    scales by the square roots of the Gauss-Chebyshev quadrature weights,
    which makes the discrete norm consistent with L2(0, 1) as M grows.
    """
    nodes = chebyshev_nodes(M)
    if not weighted:
        return SamplingScheme(
            kind=SchemeKind.WEIGHTED_POINT_VALUES,
            M=M,
            nodes=nodes,
            scales=np.ones(M),
        )
    t = 2.0 * nodes - 1.0
    weights = np.pi * np.sqrt(1.0 - t * t) / (2.0 * M)
    return SamplingScheme(
        kind=SchemeKind.WEIGHTED_POINT_VALUES,
        M=M,
        nodes=nodes,
        scales=np.sqrt(weights),
    )


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
    vals = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluation produced non-finite samples")
    return vals


def sample(scheme: SamplingScheme, f) -> DataVector:
    """Apply the M sampling functionals to a callable f.

    Inner products integrate f on an hp rule of per-cell order M + 12,
    which resolves a log singularity at 0, summing the Legendre table one
    node block at a time.
    """
    if scheme.kind is SchemeKind.WEIGHTED_POINT_VALUES:
        values = scheme.scales * _evaluate(f, scheme.nodes)
    else:
        rule = hp_log_quadrature(levels=40, order=max(12, scheme.M + 12))
        fw = rule.weights * _evaluate(f, rule.nodes)
        values = sum(legendre_table(scheme.M - 1, rule.nodes[block]) @ fw[block]
                     for block in _node_blocks(rule.size, scheme.M))
    return DataVector(values=values, scheme=scheme)


def richness_estimate(system: GramSystem, factor: GramFactor) -> float:
    """Lower discrete-norm constant A'_{M,N} of a sampled system over its frame.

    Returns the smallest value of ||g||_M^2 over functions g in the span
    of the frame's N elements with unit L2 norm: the smallest generalized
    eigenvalue of the pair (G* G, Gram), with G the system matrix and
    Gram = R* R from the frame's Gram factor, that is sigma_min(G R^-1)^2.
    G is evaluated again in long double for it.  Requires M >= N.
    """
    from .gram import _system_matrix  # gram imports this module

    _check_factor(system, factor)
    if system.M < system.N:
        raise ValueError("richness estimate requires M >= N")
    G = _system_matrix(system.frame, system.scheme, np.longdouble)
    return _richness_from_matrices(G, factor.R22, factor.C)


def _check_factor(system: GramSystem, factor: GramFactor) -> None:
    # a factor of another frame with the same N gives wrong constants silently
    if factor.frame != system.frame:
        raise ValueError("factor is not the Gram factor of the system's frame")


def _richness_from_matrices(G: np.ndarray, R22: np.ndarray, C: np.ndarray) -> float:
    """sigma_min(G R^-1)^2 from the blocks of the Gram factor, in long double up to the SVD.

    G is the long double M x N system in frame order, [G_Psi, G_Phi].  In
    the order [Phi, Psi], R = [[I, C], [0, R22]] and R^-1 = [[I, -C R22^-1],
    [0, R22^-1]], so G R^-1 = [G_Phi, Z] with Z = (G_Psi - G_Phi C) R22^-1:
    K columns, formed by back substitution.  The difference G_Psi - G_Phi C
    cancels most of G_Psi, which is why it is taken in long double; only
    the SVD of [G_Phi, Z] is in double.  For inner products G_Psi and C are
    rows of the same long double `gram._log_moments`, so the first N - K
    rows of the difference are exactly 0.  Where np.longdouble is double
    (Windows, macOS on arm64) the whole route has only double accuracy.
    """
    K = R22.shape[0]
    G_phi = G[:, K:]
    Z = G[:, :K] - G_phi @ C
    for l in range(K):
        Z[:, l] = (Z[:, l] - Z[:, :l] @ R22[:l, l]) / R22[l, l]
    X = np.concatenate((G_phi, Z), axis=1, dtype=float)
    smallest = np.linalg.svd(X, compute_uv=False)[-1]
    return float(smallest**2)
