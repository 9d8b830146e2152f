"""Sampled Gram systems, their SVDs, and quadrature factors of the continuous Gram."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .frames import _LOG_NORM_SQ, FrameSpec, element_matrix
from .orthopoly import QuadratureRule, _node_blocks, hp_log_quadrature
from .sampling import SamplingScheme, SchemeKind

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
    """The N x N upper-triangular factor R of the continuous Gram of the frame.

    R* R = H* H is the Gram, where H is the tall quadrature factor: row k
    of H holds sqrt(w_k) times the frame elements at node k of `rule`, so
    H* H reproduces the pairwise L2(0, 1) inner products.  R is the R of
    H = QR (Q with orthonormal columns), so ||H X|| = ||R X|| for every X
    and the stability constants need only R.  H itself is not kept;
    `matrix` evaluates it again from the rule and the frame.
    """

    R: np.ndarray
    rule: QuadratureRule
    frame: FrameSpec

    @property
    def N(self) -> int:
        return self.R.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """H, rebuilt on every read (41 (N + 12) x N values)."""
        return _weighted_elements(self.frame, self.rule, slice(None))


def _weighted_elements(frame: FrameSpec, rule: QuadratureRule, block: slice) -> np.ndarray:
    # the rows of H at the rule's nodes in block
    return np.sqrt(rule.weights[block])[:, None] * element_matrix(frame, rule.nodes[block]).T


def _log_moments(K: int, M: int) -> np.ndarray:
    """L[k, m] = <log(x) phi_k, phi_m> for k < K and m < M, in O(MK) without quadrature.

    Row 0 of L, the matrix of log(x) in the orthonormal shifted Legendre
    basis, is L[0, 0] = -1, L[0, m] = (-1)^(m+1) sqrt(2m + 1) / (m (m + 1)).
    L commutes with the Jacobi matrix of x (diagonal 1/2, off-diagonal
    a_n = n / (2 sqrt(4n^2 - 1))), which gives each row from the two above
    it, one column shorter: L[i+1, j] = (a_j L[i, j-1] + a_{j+1} L[i, j+1]
    - a_i L[i-1, j]) / a_{i+1}.
    """
    m = np.arange(1.0, M + K - 1)
    row = np.concatenate(([-1.0], (-1.0) ** (m + 1) * np.sqrt(2 * m + 1) / (m * (m + 1))))
    n = np.arange(1.0, M + K)
    a = np.concatenate(([0.0], n / (2.0 * np.sqrt(4.0 * n * n - 1.0))))
    above = np.zeros_like(row)
    L = np.empty((K, M))
    for i in range(K):
        L[i] = row[:M]
        below = a[1:row.size] * row[1:]
        below[1:] += a[1:row.size - 1] * row[:-2]
        below -= a[i] * above[:below.size]
        above, row = row, below / a[i + 1]
    return L


def _system_matrix(frame: FrameSpec, scheme: SamplingScheme) -> np.ndarray:
    """The M x N sampled matrix: entry (m, j) is functional m applied to element j."""
    if scheme.kind is SchemeKind.WEIGHTED_POINT_VALUES:
        return scheme.scales[:, None] * element_matrix(frame, scheme.nodes).T
    # each element's first M Legendre coefficients: I for phi, rows of L for psi
    G = np.eye(scheme.M, frame.N, frame.K)
    G[:, : frame.K] = _log_moments(frame.K, scheme.M).T
    if frame.normalize_psi:
        G[:, 0] /= np.sqrt(_LOG_NORM_SQ)
    return G


def build_system(frame: FrameSpec, scheme: SamplingScheme) -> GramSystem:
    """Sample every frame element, returning the M x N system with its SVD.

    Entry (m, j) is the m-th sampling functional applied to frame element j.
    """
    return GramSystem.from_matrix(_system_matrix(frame, scheme), frame=frame, scheme=scheme)


def build_gram_factor(frame: FrameSpec) -> GramFactor:
    """Triangular factor R of the continuous Gram of the frame, computed once per frame.

    The rule subdivides geometrically toward the singular endpoint with
    per-cell order scaled to N, which keeps every Gram entry accurate to
    about 1e-10 or better through N = 60.  R is built block by block
    (sequential tall-skinny QR): each block of rows of H is stacked under
    the running R and the stack is factored again, so at most one block of
    H exists at a time.  Through N = 60 the rule is one block.
    """
    rule = hp_log_quadrature(levels=40, order=max(12, frame.N + 12))
    R = None
    for block in _node_blocks(rule.size, frame.N):
        rows = _weighted_elements(frame, rule, block)
        R = np.linalg.qr(rows if R is None else np.vstack((R, rows)), mode="r")
    return GramFactor(R=R, rule=rule, frame=frame)
