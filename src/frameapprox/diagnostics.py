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

Before the first full route there are no such vectors, and the first
step, M = N, would take its SVD only to find them.  Its witness comes
from the bound above instead.  At M >= N, G* G + eps^2 I = V (Sigma^2 +
eps^2) V*, so the bound's square is the top eigenvalue of the pencil
(R* R, G* G + eps^2 I), and a z's test ratio lies within a factor
sqrt(2) below the root of its quotient ||R z||^2 / (||G z||^2 + eps^2
||z||^2).  The seed seeks that top in the span of the columns of
Z = [I_K; -G_Phi* G_Psi], G_Psi the weighted and G_Phi the polynomial
columns of G: each is one weighted element minus the adjoint of the
sampled polynomials applied to its samples.  At Gauss points with M = N,
G_Phi is orthonormal, so G Z is the part of those samples that no
polynomial explains, while R Z keeps the elements' L2 residuals, which
the samples see far more weakly.  With Y = G Z, one inverse-iteration
step (Golub & Van Loan, Matrix Computations, sec. 8.7) on the K x K
pencil (Z* R* R Z, Y* Y + eps^2 Z* Z) from the ones vector,

    z = Z (Y* Y + eps^2 Z* Z)^+ Z* R* R Z 1,

takes one np.linalg.pinv of a K x K matrix and no SVD of G
(_residual_witness).  In nine searches with K = 5, at Legendre points
and with inner products, the small pencil's top is within 0.6% of the
full one's and 130 to 2e6 times its second eigenvalue, and a second step
or the exact top moved no full-route step.  The one-step test ratio is
68.2 at N = 10 and 99.4 at N = 200, eps = 1e-5, and 2213 at N = 60,
eps = 1e-8, at Legendre points with K = 5; with inner products and
K = 1 it is 2.29 to 4.48 at N = 10 to 40, eps = 1e-5; all against
margins of about 2.  pinv runs LAPACK's gesdd, as the scan's SVDs do, so
it fails only where they would, and the test is homogeneous in z, which
needs no normalization.  A pure basis (K = 0) has no seed.

The witness test's rounding count below holds for any z however it was
found, so M_theta is unchanged by construction.  A z that does not rule
out the first step is replaced at once by the full route.  The seed
costs about 40 us at N = 10 and 0.12 ms at N = 200, against 4.6 ms there
for the SVD, kappa step and witnesses of M = 200 that it rules out.
Only the first step is seeded: past it the pencil's top falls towards
theta, and an N x N pencil seed before every full route ruled out no
further step at N = 100 or 200, eps = 1e-5, while the N = 60,
eps = 1e-8 search paid it at each of its 31 full-route steps and got
slower.

The grid is scanned in chunks of consecutive steps: as many as fit in
_CHUNK_VALUES (2^14) stacked matrix values, and always at least one.  A
chunk's matrices come from one _stacked_matrix call, as a constants
stack's do: one _system_matrix call on one point scheme whose nodes and
scales are those of its steps, concatenated, or row prefixes of the
inner-product matrix of the chunk's largest M.  Every entry is formed
elementwise, so each step's block is its G to the bit, and each step's
scheme is realized once.

A step fails without an SVD when, for some witness z,

    ||R z|| > theta (1 + delta) (||G z|| + eps ||z||).

The margin theta (1 + delta) depends on the step alone, through its M
and its ||G||_F (below), so the chunk's margins are computed once, with
||G||_F summed over each step's own segment of rows, and ||R z|| and
eps ||z|| once per witness.  One witness test then covers all remaining
steps of the chunk at once, with ||G z|| summed over the same segments.
The scan jumps to the first step not ruled out, which takes the full
route on its rows of the chunk: the SVD, kappa, lambda if kappa passes,
and new witnesses, tested against the rest of the chunk.  The margin
delta makes the test imply that the full route, in floating point, would
fail the step too, so M_theta is unchanged by construction.  The chunk
that holds M_theta is built whole, so a search evaluates at most the rest
of it past M_theta: fewer than _CHUNK_VALUES / N^2 steps, each sampled but
given no SVD, and none once every chunk is a single step (N >= 90 on
the grid M = N, N + s, ... with s = max(1, N // 20)).  For Legendre
points those steps' rules enter the cache of _gauss_legendre_cached on
the first search and are hits after.

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
so no step is ruled out there, and at eps = 1e-40 and N = 10 (1 + x)^16
overflows to an infinite margin, which rules nothing out either.

The witness test sums squares over segments of stacked rows, not as
np.linalg.norm of each step's matrix, and that changes none of the
count.  A sum of M nonnegative terms is within a relative (M - 1) u of
its exact value whatever the order of the additions; with the rounding
of the squares and of the square root, the norm of a segment of G z is
within a relative (M / 2 + 1) u, below x, and stays one of the 5 factors
above.  ||G||_F enters only x, where its rounding moves delta at second
order.

A step that takes the full route forms X = R V_r D^-1 (_kappa_matrix,
the matrix whose 2-norm compute_kappa returns), and one power step on X
proves most failing steps' kappa > theta before its SVD
(_norm_2_exceeds).
With x_j the column of X of largest norm and v = X* x_j, ||X v|| / ||v||
lies between ||x_j|| (since v_j = ||x_j||^2) and ||X||_2, so

    ||X v|| > theta (1 + 8 x') ||v||,   x' = (N + r) sqrt(N) u,

proves ||X||_2 > theta.  Otherwise the step takes the SVD of the same X
for kappa, and lambda if kappa passes.  The margin makes the test imply
that the full route, in floating point, fails the step too, so M_theta is
unchanged by construction.  Both read the same computed X, so its own
rounding does not enter; with s = ||X||_2 of that X,

- X v is computed within r u || |X| ||_2 ||v|| <= r sqrt(r) u s ||v||,
  at most x' s ||v||: 1 factor;
- the norms of X v and of v, sums of N and r squares: 2;
- theta (1 + 8 x') ||v||, three roundings of u <= x' / 2 each: 1.5;
- LAPACK's largest singular value of X, taken within a relative
  p(N, r) u <= x' of s, as the SVD of G is above: 1.

That is 5.5 factors, so a test that fires puts the full route's kappa
above theta (1 + 2.5 x') to first order, and the second-order terms stay
below 2.5 x' while x' < 1e-3, that is for every N < 10^8.  8 x' is 3e-13
at N = 20 and 1e-11 at N = 200.  At Legendre points with K = 5 and
theta = 2, a search takes 2 singular-value-only SVDs at eps = 1e-8,
N = 40 (17 without the power step), 3 at eps = 1e-8, N = 60 (32) and 2 at
eps = 1e-5, N = 200 (4): kappa's and lambda's at M_theta, and at most one
more.  The steps that the witnesses leave are mostly certified.  It takes
the SVD of G at 12 steps at eps = 1e-8, N = 40 (16 without the seed's
witness), at 31 at eps = 1e-8, N = 60 (31) and at 2 at eps = 1e-5,
N = 200 (3).
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
    return _norm_2(_kappa_matrix(system, epsilon))


def _kappa_matrix(system: GramSystem, epsilon: float) -> np.ndarray:
    """R V_r D^-1, whose 2-norm is kappa; N x 0 when no direction is kept."""
    R = build_gram_factor(system.frame).R
    r = system.kept_rank(epsilon)
    return R @ (system.Vt[:r].T / system.rayleigh_quotients[:r])


def _norm_2(X: np.ndarray) -> float:
    """The largest singular value, equal to np.linalg.norm(X, 2) to the bit; 0 without columns."""
    return float(np.linalg.svd(X, compute_uv=False)[0]) if X.shape[1] else 0.0


def _norm_2_exceeds(X: np.ndarray, theta: float) -> bool:
    """Whether _norm_2(X) > theta, without the SVD where one power step proves it.

    The step starts from the column x_j of X with the largest norm: with
    v = X* x_j, ||X v|| / ||v|| <= ||X||_2, and a ratio above theta by the
    margin 1 + 8 x' of the module docstring decides.
    """
    N, r = X.shape
    if r:
        v = X.T @ X[:, np.argmax(np.einsum("ij,ij->j", X, X))]
        x = (N + r) * math.sqrt(N) * np.finfo(float).eps
        if np.linalg.norm(X @ v) > theta * (1.0 + 8.0 * x) * np.linalg.norm(v):
            return True
    return _norm_2(X) > theta


@one_blas_thread
def compute_lambda(system: GramSystem, epsilon: float) -> float:
    """Scaled continuous norm of the discarded singular directions, for M >= N."""
    _check_epsilon(epsilon)
    _require(system, "frame")
    R = build_gram_factor(system.frame).R
    if system.M < system.N:
        raise ValueError("lambda requires M >= N: the thin SVD misses the null space of G")
    return _norm_2(R @ system.Vt[system.kept_rank(epsilon):].T) / epsilon


@dataclass
class DiagnosticsReport:
    """Stability constants of one M x N sampled system at one cutoff epsilon."""

    M: int
    N: int
    epsilon: float
    kappa: float
    lam: float
    kept_rank: int
    A_prime_MN: float


@one_blas_thread
def diagnose(system: GramSystem, epsilons: Sequence[float]) -> List[DiagnosticsReport]:
    """Stability reports of one sampled system, one per cutoff in epsilons.

    A'_{M,N} does not depend on the cutoff and is computed once.
    """
    return _reports(system, epsilons, richness_estimate(system))


def _reports(system: GramSystem, epsilons: Sequence[float], a_prime: float
             ) -> List[DiagnosticsReport]:
    """diagnose's reports, given the system's A'_{M,N}."""
    return [
        DiagnosticsReport(
            M=system.M,
            N=system.N,
            epsilon=eps,
            kappa=compute_kappa(system, eps),
            lam=compute_lambda(system, eps),
            kept_rank=system.kept_rank(eps),
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
) -> Optional[int]:
    """Smallest M >= frame.N on the search grid with max(kappa, lambda) <= theta.

    The grid M = N, N + s, ..., M_max with s = max(1, N // 20) is scanned in
    chunks of consecutive steps, each holding at most _CHUNK_VALUES stacked
    matrix values or a single step (module docstring).  Returns None when
    the grid is exhausted without a hit; raises ValueError for a theta not
    above 1 or an M_max below frame.N.
    """
    if not theta > 1.0:  # also rejects nan
        raise ValueError("theta must be > 1")
    _check_epsilon(epsilon)
    N = frame.N
    if M_max is None:
        M_max = 64 * N
    if M_max < N:
        raise ValueError(f"M_max must be at least frame.N = {N}, got {M_max}")

    R = build_gram_factor(frame).R
    R_norm = np.linalg.norm(R)
    Z = None  # the witnesses as columns: the seed's, then the last full route's
    for chunk in _stacks(range(N, M_max + 1, max(1, N // 20)), N):
        G, schemes, _ = _stacked_matrix(frame, scheme_family, chunk)
        Ms = np.array(chunk)
        starts = np.cumsum(Ms) - Ms
        # each step's ||G||_F and witness margin theta (1 + delta), which no
        # witness changes; an infinite margin rules nothing out
        G_norms = np.sqrt(np.add.reduceat(np.einsum("ij,ij->i", G, G), starts))
        with np.errstate(over="ignore"):
            x = (Ms + N) * math.sqrt(N) * np.finfo(float).eps * (1.0 + (G_norms + R_norm) / epsilon)
            margins = theta * (1.0 + x) ** 16
        step = 0
        while step < Ms.size:
            if Z is None and frame.K:
                # the first step's witness, without an SVD; the full route
                # replaces it at once unless it rules that step out
                Z = _residual_witness(G[:Ms[0]], R, epsilon, frame.K)
                RZ_norms = np.linalg.norm(R @ Z, axis=0)
                eps_Z_norms = epsilon * np.linalg.norm(Z, axis=0)
            if Z is not None:
                # ||G z|| per step's segment of rows, for the steps left
                GZ_norms = np.sqrt(np.add.reduceat(np.square(G[starts[step]:] @ Z),
                                                   starts[step:] - starts[step]))
                ruled_out = np.any(RZ_norms > margins[step:, None] * (GZ_norms + eps_Z_norms),
                                   axis=1)
                open_steps = np.flatnonzero(~ruled_out)
                if open_steps.size == 0:
                    break
                step += int(open_steps[0])
            M = int(Ms[step])
            system = GramSystem.from_matrix(G[starts[step]:starts[step] + M], frame=frame,
                                            scheme=schemes[step])
            # one power step proves most failing steps' kappa above theta
            # without its SVD; lambda cannot rescue a step that kappa alone
            # fails, so it is only computed when kappa passes
            if (not _norm_2_exceeds(_kappa_matrix(system, epsilon), theta)
                    and compute_lambda(system, epsilon) <= theta):
                return M
            r = system.kept_rank(epsilon)
            Z = system.Vt[max(r - 1, 0):r + 1].T
            # ||R z|| and eps ||z|| hold until the witnesses are refreshed
            RZ_norms = np.linalg.norm(R @ Z, axis=0)
            eps_Z_norms = epsilon * np.linalg.norm(Z, axis=0)
            step += 1
    return None


def _residual_witness(G: np.ndarray, R: np.ndarray, epsilon: float, K: int) -> np.ndarray:
    """One inverse-iteration step on the pencil (R* R, G* G + eps^2 I) in the span of Z.

    Z = [I_K; -G_Phi* G_Psi], and z = Z (Y* Y + eps^2 Z* Z)^+ Z* R* R Z 1
    with Y = G Z, as a column (module docstring).
    """
    Z = np.concatenate((np.eye(K), -G[:, K:].T @ G[:, :K]))
    Y, RZ = G @ Z, R @ Z
    c = np.linalg.pinv(Y.T @ Y + epsilon**2 * (Z.T @ Z)) @ (RZ.T @ RZ.sum(axis=1))
    return Z @ c[:, None]


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
