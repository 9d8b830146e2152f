"""Sampled Gram systems, their SVDs, and the closed-form factor of the continuous Gram."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .blas import one_blas_thread
from .frames import _LOG_NORM_SQ, FrameSpec, _elements_from_table, element_matrix
from .orthopoly import hp_log_quadrature

if TYPE_CHECKING:  # sampling imports this module
    from .sampling import SamplingScheme

__all__ = [
    "GramSystem",
    "GramFactor",
    "build_system",
    "build_gram_factor",
]


@dataclass
class GramSystem:
    """An M x N sampled frame matrix together with its singular value decomposition.

    from_matrix takes numpy's thin SVD as it comes and does not rebuild
    U Sigma V* to check it; test_svd_factors_reconstruct_and_are_orthogonal
    checks that the factors reproduce the matrix and are orthonormal.
    """

    matrix: np.ndarray
    U: np.ndarray
    singular_values: np.ndarray
    Vt: np.ndarray
    frame: Optional[FrameSpec] = None
    scheme: Optional[SamplingScheme] = None

    @property
    def M(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    @one_blas_thread
    def from_matrix(cls, matrix, frame=None, scheme=None) -> "GramSystem":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two dimensional")
        U, s, Vt = np.linalg.svd(matrix, full_matrices=False)
        return cls(matrix=matrix, U=U, singular_values=s, Vt=Vt, frame=frame, scheme=scheme)

    def kept_rank(self, epsilon: float) -> int:
        """Number of singular values strictly above the cutoff epsilon."""
        return int(np.count_nonzero(self.singular_values > epsilon))

    @cached_property
    def rayleigh_quotients(self) -> np.ndarray:
        """d_j = u_j* G v_j for every singular triple, computed once per system.

        d_j does not depend on the cutoff, so every kappa of one system
        reads the first kept_rank entries of the same product.
        """
        return np.einsum("jk,jk->j", self.U.T @ self.matrix, self.Vt)


def _require(system: GramSystem, *fields: str) -> None:
    """Raise a ValueError naming each of fields ("frame", "scheme") that system lacks."""
    missing = " and no ".join(name for name in fields if getattr(system, name) is None)
    if missing:
        raise ValueError(f"the system has no {missing}: build it with build_system")


@dataclass(frozen=True)
class GramFactor:
    """A square root of the continuous Gram of the frame, in closed form.

    In the order [Phi, Psi], the N - K polynomials phi_j first and the K
    weighted elements psi_k = log(x) phi_k last, the factor is

        [[I, C], [0, R22]],    C = L[:K, :N - K]*,    R22* R22 = W,

    with L the matrix of log(x) in the orthonormal shifted Legendre basis
    (`_log_moments`) and W the Gram of the psi_k minus their projections
    onto the phi_j.  `R` is that factor with its columns in frame order
    (psi first), so R* R is the Gram, ||R x|| is the L2(0, 1) norm of the
    expansion with coefficients x, and R is not triangular.  Every entry of
    R is its exact value correctly rounded in double: C ((N - K) x K) is
    R[:N - K, :K] and R22 (K x K, upper triangular) is R[N - K:, :K].
    `matrix` is the quadrature factor H of the same Gram (H* H = Gram to
    about 1e-13), evaluated on every read for checks that want a route
    independent of the closed forms; no library path uses it.  Frozen,
    with R read-only, since build_gram_factor's cache shares it.
    """

    R: np.ndarray
    frame: FrameSpec

    @property
    def matrix(self) -> np.ndarray:
        """H, 41 (N + 12) x N: row k holds sqrt(w_k) times the elements at node k of an hp rule."""
        rule = hp_log_quadrature(levels=40, order=max(12, self.frame.N + 12))
        return np.sqrt(rule.weights)[:, None] * element_matrix(self.frame, rule.nodes).T


def _log_moments(K: int, M: int) -> np.ndarray:
    """L[k, m] = <log(x) phi_k, phi_m> for k < K and m < M, in closed form, in O(MK).

    L is the matrix of log(x) in the orthonormal shifted Legendre basis:
    L[k, m] = sqrt(2k + 1) sqrt(2m + 1) s_km with the rationals
    s_km = (-1)^(k+m+1) / (|m - k| (m + k + 1)) for m != k and
    s_kk = -(2 (H_{2k+1} - H_k) - 1 / (2k + 1)) / (2k + 1), H_n the
    harmonic numbers.  Each s_km is correctly rounded in double and each
    entry formed from its own k and m with two more roundings, so a shorter
    L is a prefix of a longer one to the bit.  This is the inner-product
    system's formula; build_gram_factor rounds each entry of L once.
    """
    k = np.arange(K)[:, None]
    m = np.arange(M)
    s = np.where((k + m) % 2, 1.0, -1.0) / (np.maximum(np.abs(m - k), 1) * (m + k + 1))
    E, diagonal = _log_moment_diagonal(min(K, M))
    for j, ratio in enumerate(diagonal):
        s[j, j] = ratio / E
    return s * np.sqrt(2 * k + 1) * np.sqrt(2 * m + 1)


def _log_moment_diagonal(d: int) -> Tuple[int, List[int]]:
    """E and the integers E s_kk for k < d, E = lcm(1, ..., 2d - 1)^2 (see _log_moments)."""
    E = math.lcm(*range(1, 2 * d)) ** 2
    return E, [_log_moment_ratio(k, k, E) for k in range(d)]


def _system_matrix(
    frame: FrameSpec, scheme: SamplingScheme, table: Optional[np.ndarray] = None
) -> np.ndarray:
    """The M x N sampled matrix: entry (m, j) is functional m applied to element j.

    A point scheme's elements are read from table when it is given, the
    frames._node_table of its nodes, and from element_matrix otherwise.
    """
    if scheme.nodes is not None:
        elements = (element_matrix(frame, scheme.nodes) if table is None
                    else _elements_from_table(frame, scheme.nodes, table))
        return scheme.scales[:, None] * elements.T
    # each element's first M Legendre coefficients: I for phi, rows of L for psi
    G = np.eye(scheme.M, frame.N, frame.K)
    G[:, : frame.K] = _log_moments(frame.K, scheme.M).T
    if frame.normalize_psi:
        G[:, 0] /= np.sqrt(_LOG_NORM_SQ)
    return G


@one_blas_thread
def build_system(frame: FrameSpec, scheme: SamplingScheme) -> GramSystem:
    """Sample every frame element, returning the M x N system with its SVD.

    Entry (m, j) is the m-th sampling functional applied to frame element j.
    """
    return GramSystem.from_matrix(_system_matrix(frame, scheme), frame=frame, scheme=scheme)


@lru_cache(maxsize=1)  # one entry: a dense R is N^2 doubles, 1 GiB at N = 11585
def build_gram_factor(frame: FrameSpec) -> GramFactor:
    """The closed-form square root of the continuous Gram of the frame (see GramFactor).

    Every entry of R is correctly rounded in double.  C is the first N - K
    columns of the K rows of `_log_moments` (`_log_moment_block`).  With
    n0 = N - K and D = diag(sqrt(2k + 1)), the tail Gram is
    W = sum_{j >= n0} L[:, j] L[:, j]* = D S D, where (2j + 1) L[k, j]
    L[l, j] / ((2k + 1)(2l + 1)) is (-1)^(k+l) (2j + 1) / ((j - k)(j + k + 1)
    (j - l)(j + l + 1)) for j >= K, a sum of four simple fractions in j.
    Summed over j >= n0 >= K they telescope to

        S_kk = 1 / (2k + 1) sum_{i = n0 - k}^{n0 + k} 1 / i^2,
        S_kl = (-1)^(k+l) (sum_{i = n0 - k}^{n0 - l - 1} 1 / i
               - sum_{i = n0 + l + 1}^{n0 + k} 1 / i) / ((k - l)(k + l + 1)),  k > l.

    When n0 < K the terms j = n0, ..., K - 1 are added exactly
    (`_log_moment_ratio`).  W is so ill conditioned (its pivots fall to
    about 1e-37 at N = 200) that no floating-point Cholesky factor of it
    holds, so R22 comes from an exact LDL* of the integer matrix Q S by
    fraction-free (Bareiss) elimination, each entry rounded once.  With no
    quadrature the cost is O(N^2) to fill R and O(NK) for C, plus O(K^3)
    operations on integers of O(K^2 log N) bits for R22, which dominate as
    K grows (cli.MAX_FACTOR_K).  The normalized single enrichment scales
    psi_0's column of C and of R22 by 1 / sqrt(2).
    """
    K, N = frame.K, frame.N
    n0 = N - K
    A, Q = _tail_gram(K, n0)
    if frame.normalize_psi:
        Q *= 2
    R = np.eye(N, N, K)
    R[:n0, :K] = _log_moment_block(K, n0, frame.normalize_psi)
    R[n0:, :K] = _exact_cholesky(A, Q, range(1, 2 * K, 2))
    R.flags.writeable = False
    return GramFactor(R=R, frame=frame)


def _log_moment_block(K: int, n0: int, normalize_psi: bool) -> np.ndarray:
    """C = L[:K, :n0]*, psi_0's column over sqrt(2) if normalize_psi, correctly rounded in double.

    Off the diagonal |C[m, k]| = sqrt(a) / d with the integers
    a = (2k + 1)(2m + 1) and d = |m - k| (m + k + 1), or 2a and 2d in a
    normalized column, which `_sqrt_quotients` rounds in vectorized steps.
    A diagonal entry (2k + 1) s_kk is a quotient of integers, and psi_0's
    normalized one is -sqrt(1 / 2).
    """
    width = K | 1  # odd, so that an entry's flat index has the parity of m + k
    m = np.arange(1, 2 * n0, 2.0)  # 2m + 1
    k = np.arange(1, 2 * width, 2.0)  # 2k + 1
    a = m[:, None] * k
    # |m - k| (m + k + 1) = |(2m + 1)^2 - (2k + 1)^2| / 4, made 1 where m = k
    d = np.maximum(np.abs((m * m)[:, None] - k * k), 4) * 0.25
    if normalize_psi:
        a[:, 0] *= 2
        d[:, 0] *= 2
    C = _sqrt_quotients(a, d)
    C.reshape(-1)[::2] *= -1  # the sign (-1)^(m+k+1)
    E, diagonal = _log_moment_diagonal(min(K, n0))
    for j, ratio in enumerate(diagonal):
        C[j, j] = (2 * j + 1) * ratio / E
    if normalize_psi and n0:
        C[0, 0] = -_sqrt_ratio(1, 2)  # L[0, 0] = -1
    return C[:, :K]


def _tail_gram(K: int, n0: int) -> Tuple[List[List[int]], int]:
    """Integers A and Q with S = A / Q exactly (build_gram_factor's S)."""
    m = max(n0, K)
    P = math.lcm(*range(m - K + 1, m + K))
    h = {i: P // i for i in range(m - K + 1, m + K)}
    D = math.lcm(*range(1, 2 * K, 2), *((k - l) * (k + l + 1) for k in range(K) for l in range(k)))
    A = [[0] * K for _ in range(K)]
    for k in range(K):
        A[k][k] = D // (2 * k + 1) * sum(h[i] ** 2 for i in range(m - k, m + k + 1))
        for l in range(k):
            head = sum(h[i] for i in range(m - k, m - l))
            tail = sum(h[i] for i in range(m + l + 1, m + k + 1))
            A[k][l] = A[l][k] = (-1) ** (k + l) * (D // ((k - l) * (k + l + 1))) * P * (head - tail)
    Q = D * P * P
    if n0 < K:
        # add the terms j = n0, ..., K - 1, where j may equal k or l: each
        # sum over j is exact over E^2, E the common denominator of the s_kj,
        # and S takes the lcm of their reduced denominators, not E^2 (which
        # would multiply the size of every integer Bareiss handles)
        E = math.lcm(*range(1, 2 * K)) ** 2
        s = [[_log_moment_ratio(k, j, E) for j in range(n0, K)] for k in range(K)]
        T = [[sum((2 * j + 1) * a * b for j, a, b in zip(range(n0, K), s[k], s[l]))
              for l in range(K)] for k in range(K)]
        # E^2 / gcd(T, E^2) is the denominator of T / E^2 in lowest terms
        Q_sum = math.lcm(Q, *(E * E // math.gcd(t, E * E) for row in T for t in row))
        A = [[A[k][l] * (Q_sum // Q) + T[k][l] * Q_sum // (E * E) for l in range(K)]
             for k in range(K)]
        Q = Q_sum
    return A, Q


def _log_moment_ratio(k: int, j: int, E: int) -> int:
    """E L[k, j] / sqrt((2k + 1)(2j + 1)), an integer for E = lcm(1, ..., 2K - 1)^2."""
    if j != k:
        return (-1) ** (j + k + 1) * E // (abs(j - k) * (j + k + 1))
    # -(2 (H_{2k+1} - H_k) - 1 / (2k + 1)) / (2k + 1), H_n the harmonic numbers
    root = math.isqrt(E)
    harmonic = sum(root // i for i in range(k + 1, 2 * k + 2))
    return -(2 * harmonic - root // (2 * k + 1)) * (root // (2 * k + 1))


def _exact_cholesky(A: List[List[int]], Q: int, weights: Sequence[int]) -> np.ndarray:
    """Upper-triangular R with R* R = D A D / Q, D = diag(sqrt(weights)), in double.

    Bareiss elimination keeps every intermediate an integer: after step k,
    B[l][k] is the minor of A on rows 0..k-1, l and columns 0..k, and
    B[k][k] is the leading minor Delta_{k+1}.  The LDL* of A has
    d_k = Delta_{k+1} / Delta_k and L[l, k] = B[l][k] / Delta_{k+1}, so
    R[k, l] = B[l][k] sqrt(weights[l] / (Q Delta_k Delta_{k+1})), each
    entry correctly rounded in double by `_sqrt_ratio`.
    """
    K = len(A)
    B = [row[:] for row in A]
    R = np.zeros((K, K))
    previous = 1
    for k in range(K):
        pivot = B[k][k]
        for l in range(k, K):
            b = B[l][k]
            root = _sqrt_ratio(b * b * weights[l], Q * previous * pivot)
            R[k, l] = -root if b < 0 else root
        for i in range(k + 1, K):
            for j in range(k + 1, K):
                B[i][j] = (pivot * B[i][j] - B[i][k] * B[k][j]) // previous
        previous = pivot
    return R


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for integers p >= 0 and q > 0, correctly rounded in double.

    m = isqrt(floor(p 4^e / q)) is the integer part of the scaled root and
    has 56 or 57 bits.  Setting its last bit when the root is not m itself
    (a sticky bit) leaves float()'s one round to nearest, ties to even, as
    the rounding of the root; ldexp is exact unless the result underflows.
    """
    e = (112 - p.bit_length() + q.bit_length()) // 2
    n, rest = divmod(p << 2 * e, q) if e >= 0 else divmod(p, q << -2 * e)
    m = math.isqrt(n)
    return math.ldexp(float(m | (rest > 0 or m * m < n)), -e)


def _sqrt_quotients(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sqrt(a) / d for arrays of integers a, d >= 1 held in doubles, correctly rounded in double.

    s = fl(sqrt(a)) and y0 = fl(s / d) leave remainders a - s^2 and
    s - y0 d that Dekker's two-product gives exactly, so y0 + t with
    t = ((s - y0 d) + (a - s^2) / 2s) / d is the quotient to within about
    2^-100 relative.  Where y0 + t - delta and y0 + t + delta, delta =
    2^-90 y0, round to the same double, no midpoint between doubles lies
    near, and that double is the correctly rounded quotient; `_sqrt_ratio`
    rounds the other entries.
    """
    s = np.sqrt(a)
    s_hi, s_lo = _split(s)
    sq = s * s
    sq_lo = ((s_hi * s_hi - sq) + 2 * s_hi * s_lo) + s_lo * s_lo  # s^2 = sq + sq_lo
    y0 = s / d
    (y_hi, y_lo), (d_hi, d_lo) = _split(y0), _split(d)
    p = y0 * d
    p_lo = ((y_hi * d_hi - p) + y_hi * d_lo + y_lo * d_hi) + y_lo * d_lo  # y0 d = p + p_lo
    t = ((s - p) - p_lo + ((a - sq) - sq_lo) / (s + s)) / d
    delta = 2.0**-90 * y0
    y = y0 + (t + delta)
    for i in np.flatnonzero(y != y0 + (t - delta)):
        y.flat[i] = _sqrt_ratio(int(a.flat[i]), int(d.flat[i]) ** 2)
    return y


def _split(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split x = hi + lo into halves of at most 26 bits, for Dekker's two-product."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi
