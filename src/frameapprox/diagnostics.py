"""Stability constants of the regularized solve and the stable sampling rate.

kappa measures the worst-case discrete-to-continuous amplification of the
regularized fit applied to unit data; lambda measures the truncation
leakage of the discarded singular directions, scaled by 1/epsilon.  Both
are continuous L2 norms, ||T V pinv(Sigma_eps)|| and
(1 / eps) ||T V (I - I_eps)||, where I_eps selects the singular values
strictly above the cutoff, counted by GramSystem.kept_rank as in the
solver.  The Gram factor R of build_gram_factor is an N x N square root
of the continuous Gram (R* R = Gram, in closed form), so the L2 norm of
the expansion with coefficients x is ||R x||, and both constants are
computed from R alone:

    kappa  = || R V_r Sigma_r^-1 ||_2
    lambda = (1 / eps) || R V_d ||_2

with V_r the kept and V_d the discarded right singular vectors.

kappa and lambda are functions of the sampled system alone: R is that of
its frame, which build_gram_factor keeps for the last frame asked for.
The richness constant A'_{M,N} = sigma_min(G R^-1)^2
(sampling.richness_estimate) is computed in double from the polynomial
columns of G and the sampled residuals of the frame's span, and it bounds
both constants by 1/sqrt(A'_{M,N}).  diagnose returns one report per
cutoff and computes A' once.  constants_sweep gives each (gamma, N) cell
the reports diagnose would, to the bit, but evaluates each frame once
per stack of cells: the distinct M of one N, in ascending order and in
runs of at most _CHUNK_VALUES stacked matrix values or a single M, as the
chunks of stable_sampling_rate below.  One Legendre table on a stack's
nodes gives G and the rows phi_{n-1}, phi_n (and below n when N < 2K)
that A' reads, and the cells' systems are then formed on their rows one
at a time.

kappa divides by the kept singular values, and the SVD returns the small
ones with an absolute error of about u ||G|| (u the unit roundoff), a
relative error of up to u cond(G).  So Sigma_r is replaced by the
Rayleigh quotients d_j = u_j* G v_j, the diagonal of (U_r* G) V_r, whose
error is second order in that of the singular vectors; in exact
arithmetic d_j = sigma_j.  They do not depend on the cutoff, so
GramSystem.rayleigh_quotients forms them once per system and each
cutoff's kappa reads the first r.  With D = diag(d_j),

    kappa  = || R V_r D^-1 ||_2

At full rank kappa = 1/sqrt(A'_{M,N}) exactly.  At Legendre points with
N = M = 10 (cond(G) = 7e7) dividing by the singular values puts kappa
2.9e-9 above 1/sqrt(A'); the Rayleigh quotients bring it within 5e-10.

stable_sampling_rate asks at each grid step only whether
max(kappa, lambda) <= theta, and most steps fail.  One vector can prove a
failure without an SVD.  The regularized operator splits every
coefficient vector as T z = T G_eps^+ G z + T (I - G_eps^+ G) z
(Adcock & Huybrechs, arXiv 1802.01950); in terms of R that is
z = V_r V_r* z + V_d V_d* z, and since ||Sigma_r V_r* z|| <= ||G z||,

    ||R z|| <= kappa ||G z|| + eps lambda ||z||
            <= max(kappa, lambda) (||G z|| + eps ||z||).

So a z with ||R z|| > theta (||G z|| + eps ||z||) proves max(kappa,
lambda) > theta.  The witnesses are the last kept and the first discarded
right singular vectors of the last step evaluated in full: two directions
at the cutoff, which cost nothing once that step's SVD is taken.  They
are not the directions that attain kappa and lambda.  kappa's is
V_r D^-1 w, with w the top right singular vector of R V_r D^-1, and
lambda's is V_d w', with w' that of R V_d.  No witness beats the bound

    ||R z|| / (||G z|| + eps ||z||) <= || R V (Sigma^2 + eps^2)^(-1/2) ||_2,

since ||G z|| + eps ||z|| >= ||(Sigma^2 + eps^2)^(1/2) V* z||.  At
Legendre points with K = 5, N = 60 and eps = 1e-8 that bound is 2.004
at M = 243, below the test's theta (1 + delta) = 2.03, while kappa is
2.27 there and stays above theta = 2 until M_theta = 270.  Such steps
take the full route whatever the witness; adding kappa's direction as a
third witness made searches slower (ROADMAP, "Tried and not planned").

The grid is scanned in chunks of consecutive steps: as many as fit in
_CHUNK_VALUES (2^14) stacked matrix values, and always at least one.  A
chunk's matrices come from one _stacked_matrix call, as a constants
stack's do: one _system_matrix call on one point scheme whose nodes and
scales are those of its steps, concatenated, or row prefixes of the
inner-product matrix of the chunk's largest M.  Every entry is formed
elementwise, so each step's block is its G to the bit, and each step's
scheme is realized once.
One witness test covers all remaining steps of the chunk at once: a step
fails without an SVD when, for some witness z,

    ||R z|| > theta (1 + delta) (||G z|| + eps ||z||),

with ||G||_F and ||G z|| summed over the step's own segment of rows.  The
scan jumps to the first step not ruled out, which takes the full route
on its rows of the chunk: the SVD, kappa, lambda if kappa passes, and
new witnesses, tested against the rest of the chunk.  The margin
delta makes the test imply that the full route, in floating point, would
fail the step too, so M_theta is unchanged by construction.  The chunk
that holds M_theta is built whole, so a search evaluates at most the rest
of it past M_theta: fewer than _CHUNK_VALUES / N^2 steps, each sampled but
given no SVD, and none once every chunk is a single step (N >= 90 at
the default stride).  For Legendre points those steps' rules enter the
cache of _gauss_legendre_cached on the first search and are hits after.

With u = 2^-52, numpy's machine epsilon, and

    x = (M + N) sqrt(N) u (1 + (||G||_F + ||R||_F) / eps),

each rounding error in play moves the comparison by at most a factor
1 + x to first order.  Each is a relative error of at most x, or an
absolute one of at most x eps ||z||, which is relative x since eps ||z||
is at most the right-hand side; an absolute error of x in kappa or
lambda is a relative one of at most x at the threshold, since theta > 1.
The SVD is taken as exact for G + E with ||E|| <= (M + N) sqrt(N) u
||G||_F and singular vectors orthonormal to that level (LAPACK bounds
both by p(M, N) u ||G|| with p modest).  The factors are

- the backward error E, which enlarges ||G z|| by ||E|| ||z||: 1 factor;
- the computed V not quite orthonormal, which moves the splitting: 1;
- the Rayleigh quotients, within about ||E|| + (M + N) u ||G||_F of the
  singular values of G + E, that is within a relative x of those above
  eps, counting U, V and the M-term products of U* G: 3;
- the rounding of R V_r D^-1 (at most N u ||R||_F sqrt(N) / eps) and of
  its 2-norm, or of R V_d and its 2-norm for lambda: 2;
- the rounding of R z, G z and their norms, and of eps ||z|| and the sum
  it enters: 5.

That is 12 factors, and 1 + delta = (1 + x)^16 leaves room for their
second-order terms.  Where x is not small the first-order count no
longer holds, but delta then grows so fast that the test seldom fires.
At Legendre points with K = 5, delta is 1.6e-2 at eps = 1e-8, N = 60,
M = 270 and 8e-5 at eps = 1e-5, N = 200, M = 360.  At eps = 1e-14 and
N = 12 it exceeds 1e30, far above ||R z|| / (eps ||z||) <= ||R|| / eps,
so no step is ruled out there.

The witness test sums squares over segments of stacked rows, not as
np.linalg.norm of each step's matrix, and that changes none of the
count.  A sum of M nonnegative terms is within a relative (M - 1) u of
its exact value whatever the order of the additions; with the rounding
of the squares and of the square root, the norm of a segment of G z is
within a relative (M / 2 + 1) u, below x, and stays one of the 5 factors
above.  ||G||_F enters only x, where its rounding moves delta at second
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .blas import one_blas_thread
from .frames import FrameSpec, _node_table
from .gram import GramSystem, _require, _system_matrix, build_gram_factor
from .sampling import SamplingScheme, SchemeFamily, _richness_from_table, richness_estimate

__all__ = [
    "DiagnosticsReport",
    "compute_kappa",
    "compute_lambda",
    "diagnose",
    "stable_sampling_rate",
    "constants_sweep",
]

# relative tolerance of DiagnosticsReport.bound_violations on each a-priori cap
_BOUND_REL_SLACK = 1e-9

# stacked matrix values per chunk of stable_sampling_rate's grid steps
# (128 KiB of doubles); a step larger than this is a chunk of its own
_CHUNK_VALUES = 2**14


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:  # also rejects nan
        raise ValueError("epsilon must be finite and > 0")


@one_blas_thread
def compute_kappa(system: GramSystem, epsilon: float) -> float:
    """Largest continuous norm of the regularized fit over unit data vectors.

    ||R V_r D^-1||_2 with the Rayleigh quotients d_j = u_j* G v_j in place
    of the SVD's sigma_j, whose absolute error of about u ||G|| would reach
    kappa as a relative error of u ||G|| / sigma_j.
    """
    _check_epsilon(epsilon)
    _require(system, "frame")
    R = build_gram_factor(system.frame).R
    r = system.kept_rank(epsilon)
    if r == 0:
        return 0.0
    X = R @ (system.Vt[:r].T / system.rayleigh_quotients[:r])
    # the largest singular value, equal to np.linalg.norm(X, 2) to the bit
    return float(np.linalg.svd(X, compute_uv=False)[0])


@one_blas_thread
def compute_lambda(system: GramSystem, epsilon: float) -> float:
    """Scaled continuous norm of the discarded singular directions, for M >= N."""
    _check_epsilon(epsilon)
    _require(system, "frame")
    R = build_gram_factor(system.frame).R
    if system.M < system.N:
        raise ValueError("lambda requires M >= N: the thin SVD misses the null space of G")
    r = system.kept_rank(epsilon)
    if r == system.N:
        return 0.0
    X = R @ system.Vt[r:].T
    return float(np.linalg.svd(X, compute_uv=False)[0]) / epsilon


@dataclass
class DiagnosticsReport:
    """Stability constants of one M x N sampled system at one cutoff epsilon."""

    M: int
    N: int
    epsilon: float
    kappa: float
    lam: float
    kept_rank: int
    sigma_max: float
    sigma_min: float
    A_prime_MN: float

    def bound_violations(self, frame: FrameSpec, scheme: SamplingScheme) -> List[str]:
        """Check the a-priori bounds; returns one message per violation."""
        caps = [("sqrt(B)/eps", math.sqrt(frame.B_upper) / self.epsilon)]
        if scheme.nodes is None:  # inner products
            caps.append(("1/sqrt(eps)", 1.0 / math.sqrt(self.epsilon)))
        if self.A_prime_MN > 0:
            caps.append(("1/sqrt(A'_MN)", 1.0 / math.sqrt(self.A_prime_MN)))
        return [
            f"{name} = {value:.6g} exceeds {label} = {cap:.6g}"
            for label, cap in caps
            for name, value in (("kappa", self.kappa), ("lambda", self.lam))
            if value > cap * (1.0 + _BOUND_REL_SLACK)
        ]


@one_blas_thread
def diagnose(system: GramSystem, epsilons: Sequence[float]) -> List[DiagnosticsReport]:
    """Stability reports of one sampled system, one per cutoff in epsilons.

    A'_{M,N} does not depend on the cutoff and is computed once.
    """
    return _reports(system, epsilons, richness_estimate(system))


def _reports(system: GramSystem, epsilons: Sequence[float], a_prime: float
             ) -> List[DiagnosticsReport]:
    """diagnose's reports, given the system's A'_{M,N}."""
    s = system.singular_values
    return [
        DiagnosticsReport(
            M=system.M,
            N=system.N,
            epsilon=eps,
            kappa=compute_kappa(system, eps),
            lam=compute_lambda(system, eps),
            kept_rank=system.kept_rank(eps),
            sigma_max=float(s[0]),
            sigma_min=float(s[-1]),
            A_prime_MN=a_prime,
        )
        for eps in epsilons
    ]


@one_blas_thread
def stable_sampling_rate(
    frame: FrameSpec,
    scheme_family: SchemeFamily,
    theta: float,
    epsilon: float,
    M_max: Optional[int] = None,
    stride: Optional[int] = None,
) -> Optional[int]:
    """Smallest M >= frame.N on the search grid with max(kappa, lambda) <= theta.

    The grid M = N, N + stride, ..., M_max is scanned in chunks of
    consecutive steps, each holding at most _CHUNK_VALUES stacked matrix
    values or a single step (module docstring).  Returns None when the grid
    is exhausted without a hit; raises ValueError for a theta not above 1,
    a stride below 1 or an M_max below frame.N.
    """
    if not theta > 1.0:  # also rejects nan
        raise ValueError("theta must be > 1")
    _check_epsilon(epsilon)
    N = frame.N
    if M_max is None:
        M_max = 64 * N
    if stride is None:
        stride = max(1, N // 20)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if M_max < N:
        raise ValueError(f"M_max must be at least frame.N = {N}, got {M_max}")

    R = build_gram_factor(frame).R
    R_norm = np.linalg.norm(R)
    witnesses = None
    for chunk in _stacks(range(N, M_max + 1, stride), N):
        G, schemes, _ = _stacked_matrix(frame, scheme_family, chunk)
        Ms = np.array(chunk)
        starts = np.cumsum(Ms) - Ms
        # each step's ||G||_F, which no witness changes
        G_norms = np.sqrt(np.add.reduceat(np.einsum("ij,ij->i", G, G), starts))
        step = 0
        while step < Ms.size:
            if witnesses is not None:
                open_steps = np.flatnonzero(~_ruled_out(
                    G[starts[step]:], starts[step:] - starts[step], Ms[step:], G_norms[step:],
                    R_norm, witnesses, theta, epsilon))
                if open_steps.size == 0:
                    break
                step += int(open_steps[0])
            M = int(Ms[step])
            system = GramSystem.from_matrix(G[starts[step]:starts[step] + M], frame=frame,
                                            scheme=schemes[step])
            # lambda cannot rescue a step that kappa alone fails, so it is
            # only computed when kappa passes
            if (compute_kappa(system, epsilon) <= theta
                    and compute_lambda(system, epsilon) <= theta):
                return M
            r = system.kept_rank(epsilon)
            Z = system.Vt[max(r - 1, 0):r + 1].T
            # ||R z|| and eps ||z|| hold until the witnesses are refreshed
            witnesses = (Z, np.linalg.norm(R @ Z, axis=0),
                         epsilon * np.linalg.norm(Z, axis=0))
            step += 1
    return None


def _stacks(Ms: Sequence[int], N: int) -> Iterator[Sequence[int]]:
    """Runs of consecutive entries of Ms, each of at most _CHUNK_VALUES values or one M.

    A run of an M x N matrix per entry holds sum(run) * N values.  Ms may
    be a lazy range: each run is sliced off as it is reached.
    """
    first = 0
    while first < len(Ms):
        last, rows = first + 1, Ms[first]
        while last < len(Ms) and (rows + Ms[last]) * N <= _CHUNK_VALUES:
            rows += Ms[last]
            last += 1
        yield Ms[first:last]
        first = last


def _stacked_matrix(
    frame: FrameSpec, scheme_family: SchemeFamily, Ms: Sequence[int], degree: Optional[int] = None
) -> Tuple[np.ndarray, List[SamplingScheme], Optional[np.ndarray]]:
    """The family's matrices at each M in Ms stacked by rows, their schemes, and a table.

    Point schemes are evaluated as one scheme on their concatenated nodes
    and scales.  Given a degree, the elements are read from the Legendre
    table of the stacked nodes of that degree or the frame's, if higher
    (frames._node_table), which is returned with them; otherwise the table
    is None and freed before the matrix is formed, as in build_system.
    Inner-product matrices are row prefixes of the one at the largest M,
    the last (_log_moments), and their table is None.  Every entry is
    formed elementwise from its own node or index, so each block equals the
    matrix of its M built alone, to the bit, and each column block of the
    table the table of its M.
    """
    schemes = [scheme_family.realize(M) for M in Ms]
    if schemes[-1].nodes is None:  # inner products
        G = _system_matrix(frame, schemes[-1])
        return np.concatenate([G[:M] for M in Ms]), schemes, None
    stacked = SamplingScheme(
        M=sum(Ms),
        nodes=np.concatenate([scheme.nodes for scheme in schemes]),
        scales=np.concatenate([scheme.scales for scheme in schemes]),
    )
    if degree is None:
        return _system_matrix(frame, stacked), schemes, None
    table = _node_table(frame, stacked.nodes, degree)
    return _system_matrix(frame, stacked, table), schemes, table


def _ruled_out(
    G: np.ndarray, starts: np.ndarray, Ms: np.ndarray, G_norms: np.ndarray, R_norm: float,
    witnesses: Tuple[np.ndarray, np.ndarray, np.ndarray], theta: float, epsilon: float,
) -> np.ndarray:
    """For each step stacked in G, whether a witness rules it out.

    G stacks the steps' matrices by rows, Ms[i] rows for step i from row
    starts[i], and G_norms[i] is that step's ||G||_F.  A step is ruled out
    when a witness z has ||R z|| > theta (1 + delta)(||G z|| + eps ||z||)
    on its rows, which proves max(kappa, lambda) > theta for it, with the
    margin delta of the module docstring; the norms are summed per segment
    of rows.  R_norm is ||R||_F; witnesses holds the z as columns of Z with
    their ||R z|| and eps ||z||.
    """
    Z, R_norms, eps_norms = witnesses
    N = G.shape[1]
    GZ_norms = np.sqrt(np.add.reduceat(np.square(G @ Z), starts))
    x = ((Ms + N) * math.sqrt(N) * np.finfo(float).eps
         * (1.0 + (G_norms + R_norm) / epsilon))
    margin = theta * (1.0 + x) ** 16
    return np.any(R_norms > margin[:, None] * (GZ_norms + eps_norms), axis=1)


@one_blas_thread
def constants_sweep(
    frame_family: Callable[[int], FrameSpec],
    scheme_family: SchemeFamily,
    gammas: Sequence[float],
    Ns: Sequence[int],
    epsilons: Sequence[float],
) -> List[Tuple[float, DiagnosticsReport]]:
    """(gamma, report) over the grid M = ceil(gamma N), ordered by (gamma, N, epsilon).

    Each cell's reports equal diagnose(build_system(frame, scheme),
    epsilons) to the bit.  The frames are taken one at a time, so their
    cells share one Gram factor build.  The distinct M of one N are
    evaluated in stacks (module docstring), each from one _stacked_matrix
    call whose Legendre table gives G and the rows A' reads; each M's
    system is then formed on its rows, one at a time.
    """
    reports = {}
    for N in sorted(set(Ns)):
        frame = frame_family(N)
        Ms = sorted({max(N, math.ceil(gamma * N)) for gamma in gammas})
        for stack in _stacks(Ms, N):
            # A' reads phi_n, n = N - K, of an enriched frame, and no table
            # of a pure basis
            G, schemes, table = _stacked_matrix(frame, scheme_family, stack,
                                                N - frame.K if frame.K else None)
            start = 0
            for M, scheme in zip(stack, schemes):
                block = slice(start, start + M)
                system = GramSystem.from_matrix(G[block], frame=frame, scheme=scheme)
                a_prime = _richness_from_table(system, None if table is None else table[:, block])
                reports[N, M] = _reports(system, epsilons, a_prime)
                start += M
    rows = [(float(gamma), report) for gamma in gammas for N in Ns
            for report in reports[N, max(N, math.ceil(gamma * N))]]
    rows.sort(key=lambda row: (row[0], row[1].N, row[1].epsilon))
    return rows
