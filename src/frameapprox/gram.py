"""Sampled Gram systems, their SVDs, and quadrature factors of the continuous Gram."""

from __future__ import annotations

from dataclasses import dataclass
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
    "continuous_gram",
    "condition_number",
    "dump_matrix",
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
    rhs: Optional[np.ndarray] = None

    @property
    def M(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_matrix(cls, matrix, frame=None, scheme=None, rhs=None) -> "GramSystem":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two dimensional")
        U, s, Vt = np.linalg.svd(matrix, full_matrices=False)
        scale = np.linalg.norm(matrix)
        recon = np.linalg.norm(U @ (s[:, None] * Vt) - matrix)
        if scale > 0 and recon > 1e-12 * scale:
            raise np.linalg.LinAlgError("SVD reconstruction outside tolerance")
        return cls(matrix=matrix, U=U, singular_values=s, Vt=Vt,
                   frame=frame, scheme=scheme, rhs=rhs)


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


def build_system(
    frame: FrameSpec,
    scheme: SamplingScheme,
    M: Optional[int] = None,
    N: Optional[int] = None,
) -> GramSystem:
    """Sample every frame element, returning the M x N system with its SVD.

    Entry (m, j) is the m-th sampling functional applied to frame element j.
    """
    if M is not None and M != scheme.M:
        raise ValueError("M disagrees with scheme.M")
    if N is not None and N != frame.N:
        raise ValueError("N disagrees with frame.N")
    if scheme.kind is SchemeKind.WEIGHTED_POINT_VALUES:
        matrix = scheme.scales[:, None] * element_matrix(frame, scheme.nodes).T
    else:
        matrix = _assemble_inner_product_matrix(frame, scheme.M, scheme.rule)
    return GramSystem.from_matrix(matrix, frame=frame, scheme=scheme)


def build_gram_factor(
    frame: FrameSpec, N: Optional[int] = None, rule: Optional[QuadratureRule] = None
) -> GramFactor:
    """Quadrature factor H of the continuous Gram of the first N frame elements.

    Also holds the triangular factor R of H, computed here once per frame.

    The default rule subdivides geometrically toward the singular endpoint
    with per-cell order scaled to N, which keeps every Gram entry accurate
    to about 1e-10 or better through N = 60.
    """
    if N is None:
        N = frame.N
    if N != frame.N:
        from .sampling import _subframe

        frame = _subframe(frame, N)
    if rule is None:
        rule = hp_log_quadrature(levels=40, order=max(12, N + 12))
    H = np.sqrt(rule.weights)[:, None] * element_matrix(frame, rule.nodes).T
    return GramFactor(matrix=H, R=np.linalg.qr(H, mode="r"), rule=rule, frame=frame)


def continuous_gram(factor: GramFactor) -> np.ndarray:
    """The Gram matrix H* H of pairwise L2 inner products."""
    return factor.matrix.T @ factor.matrix


def condition_number(system: GramSystem) -> float:
    """Ratio of extreme singular values; infinite when the smallest is 0."""
    s = system.singular_values
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def dump_matrix(matrix: np.ndarray, path) -> None:
    """Write a matrix to CSV, row-major, 17 significant digits, LF endings."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
