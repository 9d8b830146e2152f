"""Sampled Gram systems, their SVDs, and quadrature factors of the continuous Gram."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .frames import FrameSpec, _elements_from_table, _table_degree, element_matrix
from .orthopoly import QuadratureRule, hp_log_quadrature, legendre_table
from .sampling import SamplingScheme, SchemeKind

__all__ = [
    "GramSystem",
    "GramFactor",
    "build_system",
    "build_gram_factor",
]

# Values per node block of both quadrature assemblies (2 MiB of doubles): N
# element values per node for the Gram factor, M basis plus N element values
# for an inner-product system (whose one Legendre table per block serves
# both).  The N = 60 Gram factor rule (41 * 72 nodes) and every
# inner-product system up to M = 46 at N = 40 are one block.
_BLOCK_VALUES = 2**18


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


def _node_blocks(size: int, values_per_node: int):
    step = max(1, _BLOCK_VALUES // values_per_node)
    return (slice(start, min(start + step, size)) for start in range(0, size, step))


def _weighted_elements(frame: FrameSpec, rule: QuadratureRule, block: slice) -> np.ndarray:
    # the rows of H at the rule's nodes in block
    return np.sqrt(rule.weights[block])[:, None] * element_matrix(frame, rule.nodes[block]).T


def _assemble_inner_product_matrix(frame: FrameSpec, M: int, rule: QuadratureRule) -> np.ndarray:
    """G[m, j] = sum_k w_k phi_m(x_k) elem_j(x_k) over the rule, block by block.

    Per node block one Legendre table of degree max(M - 1, frame degree)
    gives both the M basis rows (its first M rows) and the frame elements,
    since row n of the table does not depend on its length.
    """
    G = np.zeros((M, frame.N))
    degree = max(M - 1, _table_degree(frame))
    for block in _node_blocks(rule.size, M + frame.N):
        nodes = rule.nodes[block]
        table = legendre_table(degree, nodes)
        elems = _elements_from_table(frame, nodes, table)
        G += (table[:M] * rule.weights[block][None, :]) @ elems.T
    return G


def _system_matrix(frame: FrameSpec, scheme: SamplingScheme) -> np.ndarray:
    """The M x N sampled matrix: entry (m, j) is functional m applied to element j."""
    if scheme.kind is SchemeKind.WEIGHTED_POINT_VALUES:
        return scheme.scales[:, None] * element_matrix(frame, scheme.nodes).T
    return _assemble_inner_product_matrix(frame, scheme.M, scheme.rule)


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
