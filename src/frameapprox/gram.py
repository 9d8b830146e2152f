"""Sampled Gram systems, their SVDs, and the closed-form factor of the continuous Gram."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .blas import one_blas_thread
from .frames import _LOG_NORM_SQ, FrameSpec, element_matrix
from .orthopoly import hp_log_quadrature
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


@dataclass
class GramFactor:
    """A square root of the continuous Gram of the frame, in closed form.

    In the order [Phi, Psi], the N - K polynomials phi_j first and the K
    weighted elements psi_k = log(x) phi_k last, the factor is

        [[I, C], [0, R22]],    C = L[:K, :N - K]*,    R22* R22 = W,

    with L the matrix of log(x) in the orthonormal shifted Legendre basis
    (`_log_moments`) and W the Gram of the psi_k minus their projections
    onto the phi_j.  `R` is that factor with its columns in frame order
    (psi first), so R* R is the Gram, ||R x|| is the L2(0, 1) norm of the
    expansion with coefficients x, and R is not triangular.  C ((N - K) x K)
    and R22 (K x K, upper triangular) are kept in long double for A'.
    `matrix` is the quadrature factor H of the same Gram (H* H = Gram to
    about 1e-13), evaluated on every read for checks that want a route
    independent of the closed forms; no library path uses it.
    """

    R: np.ndarray
    C: np.ndarray
    R22: np.ndarray
    frame: FrameSpec

    @property
    def N(self) -> int:
        return self.R.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """H, 41 (N + 12) x N: row k holds sqrt(w_k) times the elements at node k of an hp rule."""
        rule = hp_log_quadrature(levels=40, order=max(12, self.frame.N + 12))
        return np.sqrt(rule.weights)[:, None] * element_matrix(self.frame, rule.nodes).T


def _log_moments(K: int, M: int, dtype=float) -> np.ndarray:
    """L[k, m] = <log(x) phi_k, phi_m> for k < K and m < M, in closed form, in O(MK).

    L is the matrix of log(x) in the orthonormal shifted Legendre basis:
    L[k, m] = sqrt(2k + 1) sqrt(2m + 1) s_km with the rationals
    s_km = (-1)^(k+m+1) / (|m - k| (m + k + 1)) for m != k and
    s_kk = -(2 (H_{2k+1} - H_k) - 1 / (2k + 1)) / (2k + 1), H_n the
    harmonic numbers.  Each entry is formed in dtype from its own k and m
    with a few roundings, so a shorter L is a prefix of a longer one to
    the bit.
    """
    k = np.arange(K)[:, None]
    m = np.arange(M)
    sign = np.where((k + m) % 2, 1, -1).astype(dtype)
    s = sign / (np.maximum(np.abs(m - k), 1) * (m + k + 1))
    d = min(K, M)
    if d:
        E = math.lcm(*range(1, 2 * d)) ** 2
        # s_kk < 0, and _ratios takes nonnegative numerators
        s[range(d), range(d)] = -_ratios([-_log_moment_ratio(j, j, E) for j in range(d)], [E] * d)
    return s * np.sqrt(2 * k + 1, dtype=dtype) * np.sqrt(2 * m + 1, dtype=dtype)


def _system_matrix(frame: FrameSpec, scheme: SamplingScheme, dtype=float) -> np.ndarray:
    """The M x N sampled matrix: entry (m, j) is functional m applied to element j.

    dtype=np.longdouble evaluates it in long double, from the double nodes
    and scales taken as exact.
    """
    if scheme.nodes is not None:
        nodes = scheme.nodes.astype(dtype, copy=False)
        return scheme.scales.astype(dtype, copy=False)[:, None] * element_matrix(frame, nodes).T
    # each element's first M Legendre coefficients: I for phi, rows of L for psi
    G = np.eye(scheme.M, frame.N, frame.K, dtype=dtype)
    G[:, : frame.K] = _log_moments(frame.K, scheme.M, dtype).T
    if frame.normalize_psi:
        G[:, 0] /= np.sqrt(G.dtype.type(_LOG_NORM_SQ))
    return G


@one_blas_thread
def build_system(frame: FrameSpec, scheme: SamplingScheme) -> GramSystem:
    """Sample every frame element, returning the M x N system with its SVD.

    Entry (m, j) is the m-th sampling functional applied to frame element j.
    """
    return GramSystem.from_matrix(_system_matrix(frame, scheme), frame=frame, scheme=scheme)


def build_gram_factor(frame: FrameSpec) -> GramFactor:
    """The closed-form square root of the continuous Gram of the frame (see GramFactor).

    C is the first N - K columns of the K rows of `_log_moments`, in long
    double.  With n0 = N - K and D = diag(sqrt(2k + 1)), the tail Gram is
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
    C = _log_moments(K, n0, np.longdouble).T
    A, Q = _tail_gram(K, n0)
    if frame.normalize_psi:
        C[:, 0] /= np.sqrt(np.longdouble(_LOG_NORM_SQ))
        Q *= 2
    R22 = _exact_cholesky(A, Q)
    R = np.eye(N, N, K)
    R[:n0, :K] = C
    R[n0:, :K] = R22
    return GramFactor(R=R, C=C, R22=R22, frame=frame)


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


def _exact_cholesky(A: List[List[int]], Q: int) -> np.ndarray:
    """Upper-triangular R22 with R22* R22 = D A D / Q, each entry rounded once.

    Bareiss elimination keeps every intermediate an integer: after step k,
    B[l][k] is the minor of A on rows 0..k-1, l and columns 0..k, and
    B[k][k] is the leading minor Delta_{k+1}.  The LDL* of A has
    d_k = Delta_{k+1} / Delta_k and L[l, k] = B[l][k] / Delta_{k+1}, so
    R22[k, l] = B[l][k] sqrt((2l + 1) / (Q Delta_k Delta_{k+1})).
    """
    K = len(A)
    B = [row[:] for row in A]
    # R22 = signs * sqrt(p / q) entrywise, zero below the diagonal
    p, q, signs = [0] * (K * K), [1] * (K * K), [1] * (K * K)
    previous = 1
    for k in range(K):
        pivot = B[k][k]
        for l in range(k, K):
            b = B[l][k]
            p[k * K + l] = b * b * (2 * l + 1)
            q[k * K + l] = Q * previous * pivot
            signs[k * K + l] = -1 if b < 0 else 1
        for i in range(k + 1, K):
            for j in range(k + 1, K):
                B[i][j] = (pivot * B[i][j] - B[i][k] * B[k][j]) // previous
        previous = pivot
    return (np.sqrt(_ratios(p, q)) * signs).reshape(K, K)


def _ratios(p: List[int], q: List[int]) -> np.ndarray:
    """p / q for integers p >= 0 and q > 0, in long double within 2^-61 relative.

    Each quotient goes through a 62-bit integer mantissa and np.ldexp:
    float() would round it to double first, and big p and q overflow it.
    """
    mantissas, exponents = [], []
    for a, b in zip(p, q):
        # a 2^shift / b lies in [2^61, 2^63)
        shift = 62 - a.bit_length() + b.bit_length()
        mantissas.append((a << shift) // b if shift >= 0 else a // (b << -shift))
        exponents.append(-shift)
    return np.ldexp(np.array(mantissas, np.longdouble), np.array(exponents, np.intc))
