"""Sampled Gram systems, their SVDs, and quadrature factors of the continuous Gram."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .frames import FrameSpec, element_matrix
from .orthopoly import QuadratureRule, hp_log_quadrature, legendre_table
from .sampling import SamplingScheme, SchemeKind

__all__ = [
    "GramSystem",
    "GramFactor",
    "build_system",
    "build_gram_factor",
]

# node-block size for quadrature assembly, keeps the basis table memory bounded
_CHUNK = 8192


@dataclass
class GramSystem:
    """An M x N sampled frame matrix together with its singular value decomposition."""

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
        scale = np.linalg.norm(matrix)
        recon = np.linalg.norm(U @ (s[:, None] * Vt) - matrix)
        if scale > 0 and recon > 1e-12 * scale:
            raise np.linalg.LinAlgError("SVD reconstruction outside tolerance")
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
    """A tall matrix H with H* H equal to the continuous Gram of the frame.

    Row k of H holds sqrt(w_k) times the frame elements at quadrature
    node k, so H* H reproduces the pairwise L2(0, 1) inner products.
    R is the N x N upper-triangular factor of H = QR (Q with orthonormal
    columns), so R* R is the same Gram and ||H X|| = ||R X|| for every X:
    the stability constants need only R.
    """

    matrix: np.ndarray
    R: np.ndarray
    rule: QuadratureRule
    frame: FrameSpec

    @property
    def N(self) -> int:
        return self.matrix.shape[1]


def _assemble_inner_product_matrix(frame: FrameSpec, M: int, rule: QuadratureRule) -> np.ndarray:
    G = np.zeros((M, frame.N))
    for start in range(0, rule.size, _CHUNK):
        stop = min(start + _CHUNK, rule.size)
        nodes = rule.nodes[start:stop]
        weights = rule.weights[start:stop]
        basis = legendre_table(M - 1, nodes)
        elems = element_matrix(frame, nodes)
        G += (basis * weights[None, :]) @ elems.T
    return G


def build_system(frame: FrameSpec, scheme: SamplingScheme) -> GramSystem:
    """Sample every frame element, returning the M x N system with its SVD.

    Entry (m, j) is the m-th sampling functional applied to frame element j.
    """
    if scheme.kind is SchemeKind.WEIGHTED_POINT_VALUES:
        matrix = scheme.scales[:, None] * element_matrix(frame, scheme.nodes).T
    else:
        matrix = _assemble_inner_product_matrix(frame, scheme.M, scheme.rule)
    return GramSystem.from_matrix(matrix, frame=frame, scheme=scheme)


def build_gram_factor(frame: FrameSpec) -> GramFactor:
    """Quadrature factor H of the continuous Gram of the frame.

    Also holds the triangular factor R of H, computed here once per frame.

    The rule subdivides geometrically toward the singular endpoint with
    per-cell order scaled to N, which keeps every Gram entry accurate to
    about 1e-10 or better through N = 60.
    """
    rule = hp_log_quadrature(levels=40, order=max(12, frame.N + 12))
    H = np.sqrt(rule.weights)[:, None] * element_matrix(frame, rule.nodes).T
    return GramFactor(matrix=H, R=np.linalg.qr(H, mode="r"), rule=rule, frame=frame)
