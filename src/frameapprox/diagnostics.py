"""Stability constants of the regularized solve and the stable sampling rate.

kappa measures the worst-case discrete-to-continuous amplification of the
regularized fit applied to unit data; lambda measures the truncation
leakage of the discarded singular directions, scaled by 1/epsilon.  Both
are continuous L2 norms, ||T V pinv(Sigma_eps)|| and
(1 / eps) ||T V (I - I_eps)||, where I_eps selects the singular values
strictly above the cutoff.  A quadrature factor H of the continuous Gram
(H* H = Gram) turns the L2 norm of the expansion with coefficients x into
||H x||.  Writing H = QR with Q having orthonormal columns gives
||H X|| = ||Q R X|| = ||R X|| for every X, so both constants are computed
from the N x N triangular factor R alone:

    kappa  = || R V_r Sigma_r^-1 ||_2
    lambda = (1 / eps) || R V_d ||_2

with V_r the kept and V_d the discarded right singular vectors.  R is
computed once per frame by build_gram_factor and also feeds A'_{M,N}.

kappa divides by the kept singular values, and the SVD returns the small
ones with an absolute error of about u ||G|| (u the unit roundoff), a
relative error of up to u cond(G).  So Sigma_r is replaced by the
Rayleigh quotients d_j = u_j* G v_j, the diagonal of (U_r* G) V_r, whose
error is second order in that of the singular vectors; in exact
arithmetic d_j = sigma_j.  With D = diag(d_j),

    kappa  = || R V_r D^-1 ||_2

At full rank kappa = 1/sqrt(A'_{M,N}) exactly.  At Legendre points with
N = M = 10 (cond(G) = 7e7) dividing by the singular values puts kappa
2.9e-9 above 1/sqrt(A'); the Rayleigh quotients bring it within 5e-10.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .frames import FrameSpec
from .gram import GramFactor, GramSystem, build_gram_factor, build_system
from .sampling import SamplingScheme, SchemeFamily, SchemeKind, _richness_from_matrices

__all__ = [
    "DiagnosticsReport",
    "SweepRow",
    "compute_kappa",
    "compute_lambda",
    "diagnose",
    "stable_sampling_rate",
    "constants_sweep",
]


def _kept_count(singular_values: np.ndarray, epsilon: float) -> int:
    return int(np.count_nonzero(singular_values > epsilon))


def compute_kappa(system: GramSystem, factor: GramFactor, epsilon: float) -> float:
    """Largest continuous norm of the regularized fit over unit data vectors.

    ||R V_r D^-1||_2 with the Rayleigh quotients d_j = u_j* G v_j in place
    of the SVD's sigma_j, whose absolute error of about u ||G|| would reach
    kappa as a relative error of u ||G|| / sigma_j.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if factor.N != system.N:
        raise ValueError("factor and system disagree on the frame size")
    r = _kept_count(system.singular_values, epsilon)
    if r == 0:
        return 0.0
    Vt = system.Vt[:r]
    d = np.einsum("jk,jk->j", system.U[:, :r].T @ system.matrix, Vt)
    X = factor.R @ (Vt.T / d)
    return float(np.linalg.norm(X, 2))


def compute_lambda(system: GramSystem, factor: GramFactor, epsilon: float) -> float:
    """Scaled continuous norm of the discarded singular directions."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if factor.N != system.N:
        raise ValueError("factor and system disagree on the frame size")
    r = _kept_count(system.singular_values, epsilon)
    if r == system.N:
        return 0.0
    X = factor.R @ system.Vt[r:].T
    return float(np.linalg.norm(X, 2)) / epsilon


@dataclass
class DiagnosticsReport:
    """Stability constants of one (frame, scheme, epsilon) configuration."""

    kappa: float
    lam: float
    kept_rank: int
    sigma_max: float
    sigma_min: float
    A_prime_MN: float
    epsilon: float

    def bound_violations(
        self, frame: FrameSpec, scheme: SamplingScheme, rel_slack: float = 1e-9
    ) -> List[str]:
        """Check the a-priori bounds; returns one message per violation."""
        out = []
        cap = math.sqrt(frame.B_upper) / self.epsilon
        for name, value in (("kappa", self.kappa), ("lambda", self.lam)):
            if value > cap * (1.0 + rel_slack):
                out.append(f"{name} = {value:.6g} exceeds sqrt(B)/eps = {cap:.6g}")
        if scheme.kind is SchemeKind.BASIS_INNER_PRODUCTS:
            cap = 1.0 / math.sqrt(self.epsilon)
            for name, value in (("kappa", self.kappa), ("lambda", self.lam)):
                if value > cap * (1.0 + rel_slack):
                    out.append(f"{name} = {value:.6g} exceeds 1/sqrt(eps) = {cap:.6g}")
        if self.A_prime_MN > 0:
            cap = 1.0 / math.sqrt(self.A_prime_MN)
            for name, value in (("kappa", self.kappa), ("lambda", self.lam)):
                if value > cap * (1.0 + rel_slack):
                    out.append(
                        f"{name} = {value:.6g} exceeds 1/sqrt(A'_MN) = {cap:.6g}"
                    )
        return out


def diagnose(system: GramSystem, factor: GramFactor, epsilon: float) -> DiagnosticsReport:
    """Assemble the full stability report for one sampled system."""
    kappa = compute_kappa(system, factor, epsilon)
    lam = compute_lambda(system, factor, epsilon)
    s = system.singular_values
    a_prime = _richness_from_matrices(system.matrix, factor.R)
    return DiagnosticsReport(
        kappa=kappa,
        lam=lam,
        kept_rank=_kept_count(s, epsilon),
        sigma_max=float(s[0]),
        sigma_min=float(s[-1]),
        A_prime_MN=a_prime,
        epsilon=epsilon,
    )


def stable_sampling_rate(
    frame: FrameSpec,
    scheme_family: SchemeFamily,
    N: int,
    theta: float,
    epsilon: float,
    M_max: Optional[int] = None,
    stride: Optional[int] = None,
) -> Optional[int]:
    """Smallest M >= N on the search grid with max(kappa, lambda) <= theta.

    Returns None when the grid is exhausted without a hit.
    """
    if frame.N != N:
        raise ValueError("frame must have exactly N elements")
    if theta <= 1.0:
        raise ValueError("theta must be > 1")
    if M_max is None:
        M_max = 64 * N
    if stride is None:
        stride = max(1, N // 20)

    factor = build_gram_factor(frame)
    for M in range(N, M_max + 1, stride):
        system = build_system(frame, scheme_family.realize(M))
        # lambda cannot rescue a step that kappa alone fails, so it is
        # only computed when kappa passes
        if (compute_kappa(system, factor, epsilon) <= theta
                and compute_lambda(system, factor, epsilon) <= theta):
            return M
    return None


@dataclass(frozen=True)
class SweepRow:
    """One cell of a constants sweep."""

    gamma: float
    N: int
    epsilon: float
    M: int
    kappa: float
    lam: float
    kept_rank: int
    A_prime_MN: float


def constants_sweep(
    frame_family: Callable[[int], FrameSpec],
    scheme_family: SchemeFamily,
    gammas: Sequence[float],
    Ns: Sequence[int],
    epsilons: Sequence[float],
    workers: int = 1,
) -> List[SweepRow]:
    """kappa/lambda over the grid M = ceil(gamma N), canonically ordered.

    The factor and the sampled system of a cell are shared across the
    epsilon values; cells may be evaluated by a small worker pool.
    """
    factors = {N: build_gram_factor(frame_family(N)) for N in sorted(set(Ns))}

    def cell(args) -> List[SweepRow]:
        gamma, N = args
        M = max(N, math.ceil(gamma * N))
        frame = frame_family(N)
        system = build_system(frame, scheme_family.realize(M))
        factor = factors[N]
        a_prime = _richness_from_matrices(system.matrix, factor.R)
        rows = []
        for eps in epsilons:
            rows.append(
                SweepRow(
                    gamma=float(gamma),
                    N=int(N),
                    epsilon=float(eps),
                    M=M,
                    kappa=compute_kappa(system, factor, eps),
                    lam=compute_lambda(system, factor, eps),
                    kept_rank=_kept_count(system.singular_values, eps),
                    A_prime_MN=a_prime,
                )
            )
        return rows

    cells = [(gamma, N) for gamma in gammas for N in Ns]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(cell, cells))
    else:
        chunks = [cell(c) for c in cells]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.gamma, r.N, r.epsilon))
    return rows
