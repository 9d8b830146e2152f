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
from typing import NamedTuple

import numpy as np

from .blas import one_blas_thread
from .diagnostics import compute_kappa, compute_lambda
from .frames import FrameSpec, element_matrix, synthesize
from .gram import GramSystem, _require, build_system
from .orthopoly import QuadratureRule, hp_log_quadrature
from .sampling import SchemeFamily, sample

__all__ = [
    "RegularizedSolution",
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
    """Coefficients produced by a truncated-SVD solve, callable as their expansion.

    `kept_rank` counts the singular values strictly above the cutoff;
    the coefficient vector lies in the span of their right singular
    vectors, so it is orthogonal to every discarded direction.  Calling
    the solution at points x evaluates the expansion in the system's
    frame, so it needs a system built from a frame.
    """

    coefficients: np.ndarray
    epsilon: float
    kept_rank: int
    system: GramSystem

    def __call__(self, x):
        _require(self.system, "frame")
        return synthesize(self.system.frame, self.coefficients, x)


class BoundCheck(NamedTuple):
    holds: bool
    slack: float
    lhs: float
    rhs: float


@one_blas_thread
def truncated_svd_solve(
    system: GramSystem,
    y: np.ndarray,
    epsilon: float,
) -> RegularizedSolution:
    """Solve min ||G x - y|| keeping only singular values above epsilon."""
    if not 0 <= epsilon < math.inf:  # also rejects nan
        raise ValueError("epsilon must be finite and >= 0")
    values = np.asarray(y, dtype=float)
    if values.shape != (system.M,):
        raise ValueError("data length must equal system row count")
    s = system.singular_values
    kept_rank = system.kept_rank(epsilon)
    coeffs = np.zeros(system.N)
    if kept_rank > 0:
        projected = system.U[:, :kept_rank].T @ values
        coeffs = system.Vt[:kept_rank].T @ (projected / s[:kept_rank])
    return RegularizedSolution(
        coefficients=coeffs, epsilon=epsilon, kept_rank=kept_rank, system=system
    )


@one_blas_thread
def approximate(
    f,
    frame: FrameSpec,
    family: SchemeFamily,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> RegularizedSolution:
    """Sample f on family.realize(M), build the frame system, and solve at cutoff epsilon."""
    scheme = family.realize(M)
    system = build_system(frame, scheme)
    return truncated_svd_solve(system, sample(scheme, f).values, epsilon)


@dataclass
class ErrorReport:
    """Pointwise errors at probe points plus the coefficient norm."""

    probes: np.ndarray
    errors: np.ndarray
    max_error: float
    coefficient_norm: float


def error_report(solution: RegularizedSolution, f, probe_points) -> ErrorReport:
    """Absolute errors |f - A f| at the probe points; raises ValueError for none."""
    probes = np.atleast_1d(np.asarray(probe_points, dtype=float))
    if probes.size == 0:
        raise ValueError("probe_points is empty")
    errors = np.abs(np.asarray(f(probes), dtype=float) - solution(probes))
    return ErrorReport(
        probes=probes,
        errors=errors,
        max_error=float(np.max(errors)),
        coefficient_norm=float(np.linalg.norm(solution.coefficients)),
    )


@lru_cache(maxsize=64)
def _verification_rule(N: int) -> QuadratureRule:
    # per-cell order scaled to N keeps products of frame elements at
    # per-cell exactness while still resolving the log singularity
    return hp_log_quadrature(levels=40, order=max(32, N + 12))


def _comparison_vector(solution: RegularizedSolution, z) -> np.ndarray:
    """z as a float array, after checking that z and the solution admit a bound check."""
    if solution.epsilon <= 0:
        raise ValueError("bound verification requires epsilon > 0")
    _require(solution.system, "frame", "scheme")
    z = np.asarray(z, dtype=float)
    if z.shape != (solution.system.N,):
        raise ValueError("comparison vector length must equal the frame size")
    return z


def _discrete_misfit(system: GramSystem, f, z: np.ndarray) -> float:
    """||f - T z||_M: the sampled data of f less the samples of the expansion z."""
    y_f = sample(system.scheme, f).values
    return float(np.linalg.norm(y_f - system.matrix @ z))


@one_blas_thread
def verify_error_bound(solution: RegularizedSolution, f, z) -> BoundCheck:
    """Check the approximation error bound against a comparison vector z.

    For point-value data the right-hand side is ||f - Tz|| +
    kappa ||f - Tz||_M + eps lambda ||z||; for basis-coefficient data it
    is the sharper (1 + sqrt(B) kappa) ||f - Tz|| + eps lambda ||z||.
    kappa and lambda are computed here for the system at the solution's
    epsilon, which needs M >= N (compute_lambda).  Both L2 norms are taken
    on one quadrature rule, with one evaluation of the frame there.
    """
    z = _comparison_vector(solution, z)
    system = solution.system
    kappa = compute_kappa(system, solution.epsilon)
    lam = compute_lambda(system, solution.epsilon)
    rule = _verification_rule(system.N)
    fvals = np.asarray(f(rule.nodes), dtype=float)
    elems = element_matrix(system.frame, rule.nodes)
    diff = fvals - z @ elems
    cont = float(np.sqrt(rule.weights @ (diff * diff)))
    avals = solution.coefficients @ elems
    lhs = float(np.sqrt(rule.weights @ ((fvals - avals) ** 2)))
    eps_term = solution.epsilon * lam * float(np.linalg.norm(z))
    if system.scheme.nodes is None:  # inner products
        rhs = (1.0 + np.sqrt(system.frame.B_upper) * kappa) * cont + eps_term
    else:
        rhs = cont + kappa * _discrete_misfit(system, f, z) + eps_term
    return BoundCheck(holds=lhs <= rhs, slack=rhs - lhs, lhs=lhs, rhs=float(rhs))


@one_blas_thread
def verify_coefficient_bound(solution: RegularizedSolution, f, z) -> BoundCheck:
    """Check ||x_eps|| <= (1 / eps) ||f - Tz||_M + ||z||."""
    z = _comparison_vector(solution, z)
    lhs = float(np.linalg.norm(solution.coefficients))
    rhs = _discrete_misfit(solution.system, f, z) / solution.epsilon + float(np.linalg.norm(z))
    return BoundCheck(holds=lhs <= rhs, slack=rhs - lhs, lhs=lhs, rhs=rhs)
