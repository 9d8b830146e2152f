"""Truncated-SVD least squares in a frame, and verification of its error bounds.

Regularization discards every singular value at or below the cutoff
epsilon; the surviving part of the pseudoinverse is applied to the data.
The bound verifiers check the a-priori inequalities that make this
procedure stable: for any comparison coefficient vector z,

    ||f - A f||  <=  ||f - T z|| + kappa ||f - T z||_M + eps lambda ||z||
    ||x_eps||    <=  (1 / eps) ||f - T z||_M + ||z||

with the first specializing to (1 + sqrt(B) kappa) ||f - T z|| + eps
lambda ||z|| when the data are basis coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .frames import FrameSpec, element_matrix, synthesize
from .gram import GramSystem, build_system
from .orthopoly import QuadratureRule, hp_log_quadrature
from .sampling import DataVector, SchemeFamily, SchemeKind, sample

__all__ = [
    "RegularizedSolution",
    "Approximant",
    "BoundCheck",
    "truncated_svd_solve",
    "approximate",
    "error_report",
    "ErrorReport",
    "verify_error_bound",
    "verify_coefficient_bound",
]

DEFAULT_EPSILON = 1e-13


@dataclass
class RegularizedSolution:
    """Coefficients produced by a truncated-SVD solve.

    `kept_rank` counts the singular values strictly above the cutoff;
    the coefficient vector lies in the span of their right singular
    vectors, so it is orthogonal to every discarded direction.
    """

    coefficients: np.ndarray
    epsilon: float
    kept_rank: int
    residual_discrete: float
    system: GramSystem


@dataclass
class Approximant:
    """A callable frame expansion produced by the approximation pipeline."""

    solution: RegularizedSolution
    frame: FrameSpec

    def __call__(self, x):
        return synthesize(self.frame, self.solution.coefficients, x)


class BoundCheck(NamedTuple):
    holds: bool
    slack: float
    lhs: float
    rhs: float


def truncated_svd_solve(
    system: GramSystem,
    y: Union[DataVector, np.ndarray],
    epsilon: float,
) -> RegularizedSolution:
    """Solve min ||G x - y|| keeping only singular values above epsilon."""
    if not 0 <= epsilon < math.inf:  # also rejects nan
        raise ValueError("epsilon must be finite and >= 0")
    values = y.values if isinstance(y, DataVector) else np.asarray(y, dtype=float)
    if values.shape != (system.M,):
        raise ValueError("data length must equal system row count")
    s = system.singular_values
    kept_rank = system.kept_rank(epsilon)
    coeffs = np.zeros(system.N)
    if kept_rank > 0:
        projected = system.U[:, :kept_rank].T @ values
        coeffs = system.Vt[:kept_rank].T @ (projected / s[:kept_rank])
    residual = float(np.linalg.norm(system.matrix @ coeffs - values))
    return RegularizedSolution(
        coefficients=coeffs,
        epsilon=epsilon,
        kept_rank=kept_rank,
        residual_discrete=residual,
        system=system,
    )


def approximate(
    f,
    frame: FrameSpec,
    family: SchemeFamily,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> Approximant:
    """Sample f on family.realize(M), build the frame system, and solve at cutoff epsilon."""
    scheme = family.realize(M)
    system = build_system(frame, scheme)
    solution = truncated_svd_solve(system, sample(scheme, f), epsilon)
    return Approximant(solution=solution, frame=frame)


@dataclass
class ErrorReport:
    """Pointwise errors at probe points plus solve-quality summaries."""

    probes: np.ndarray
    errors: np.ndarray
    max_error: float
    residual_discrete: float
    coefficient_norm: float


def error_report(approx: Approximant, f, probe_points) -> ErrorReport:
    """Absolute errors |f - A f| at the probe points."""
    probes = np.atleast_1d(np.asarray(probe_points, dtype=float))
    errors = np.abs(np.asarray(f(probes), dtype=float) - approx(probes))
    sol = approx.solution
    return ErrorReport(
        probes=probes,
        errors=errors,
        max_error=float(np.max(errors)),
        residual_discrete=sol.residual_discrete,
        coefficient_norm=float(np.linalg.norm(sol.coefficients)),
    )


@lru_cache(maxsize=64)
def _verification_rule(N: int) -> QuadratureRule:
    # per-cell order scaled to N keeps products of frame elements at
    # per-cell exactness while still resolving the log singularity
    return hp_log_quadrature(levels=40, order=max(32, N + 12))


def _comparison_norms(system: GramSystem, f, z: np.ndarray, rule: QuadratureRule):
    """Continuous and discrete norms of f - T z, plus f at the rule nodes."""
    fvals = np.asarray(f(rule.nodes), dtype=float)
    elems = element_matrix(system.frame, rule.nodes)
    diff = fvals - z @ elems
    cont = float(np.sqrt(rule.weights @ (diff * diff)))
    y_f = sample(system.scheme, f).values
    disc = float(np.linalg.norm(y_f - system.matrix @ z))
    return cont, disc, fvals


def verify_error_bound(approx: Approximant, f, z, kappa: float, lam: float) -> BoundCheck:
    """Check the approximation error bound against a comparison vector z.

    For point-value data the right-hand side is ||f - Tz|| +
    kappa ||f - Tz||_M + eps lambda ||z||; for basis-coefficient data it
    is the sharper (1 + sqrt(B) kappa) ||f - Tz|| + eps lambda ||z||.
    """
    sol = approx.solution
    if sol.epsilon <= 0:
        raise ValueError("bound verification requires epsilon > 0")
    z = np.asarray(z, dtype=float)
    if z.shape != (sol.system.N,):
        raise ValueError("comparison vector length must equal the frame size")
    rule = _verification_rule(sol.system.N)
    cont, disc, fvals = _comparison_norms(sol.system, f, z, rule)
    avals = synthesize(approx.frame, sol.coefficients, rule.nodes)
    lhs = float(np.sqrt(rule.weights @ ((fvals - avals) ** 2)))
    eps_term = sol.epsilon * lam * float(np.linalg.norm(z))
    if sol.system.scheme.kind is SchemeKind.BASIS_INNER_PRODUCTS:
        rhs = (1.0 + np.sqrt(approx.frame.B_upper) * kappa) * cont + eps_term
    else:
        rhs = cont + kappa * disc + eps_term
    return BoundCheck(holds=lhs <= rhs, slack=rhs - lhs, lhs=lhs, rhs=float(rhs))


def verify_coefficient_bound(solution: RegularizedSolution, f, z) -> BoundCheck:
    """Check ||x_eps|| <= (1 / eps) ||f - Tz||_M + ||z||."""
    if solution.epsilon <= 0:
        raise ValueError("bound verification requires epsilon > 0")
    z = np.asarray(z, dtype=float)
    if z.shape != (solution.system.N,):
        raise ValueError("comparison vector length must equal the frame size")
    y_f = sample(solution.system.scheme, f).values
    disc = float(np.linalg.norm(y_f - solution.system.matrix @ z))
    lhs = float(np.linalg.norm(solution.coefficients))
    rhs = disc / solution.epsilon + float(np.linalg.norm(z))
    return BoundCheck(holds=lhs <= rhs, slack=rhs - lhs, lhs=lhs, rhs=rhs)
