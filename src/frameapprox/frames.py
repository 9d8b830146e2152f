"""Truncated frames on [0, 1]: a Legendre basis optionally enriched by weighted copies.

A frame is fixed by (K, N): the Legendre orthonormal basis (K = 0) or its
enrichment by K weighted elements psi_k = w(x) phi_k(x) with w(x) = log(x),
the single enrichment (K = 1) normalized to unit norm.  Elements are
ordered enrichments first: indices 0..K-1 are the psi_k and indices
K..N-1 are the polynomials phi_0, ..., phi_{N-K-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import _as_nodes, legendre_table

__all__ = [
    "FrameSpec",
    "legendre_onb",
    "onb_plus_k",
    "element_matrix",
    "synthesize",
    "target_function",
]

# squared L2(0,1) norm of the weight log(x)
_LOG_NORM_SQ = 2.0


@dataclass(frozen=True)
class FrameSpec:
    """A truncated frame of N elements, the first K of them weighted by log(x).

    B_upper bounds the upper frame constant of the full (infinite) system
    the truncation is drawn from, not of the truncation itself; it follows
    from K.
    """

    K: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.K < 0 or self.K > self.N:
            raise ValueError("K must satisfy 0 <= K <= N")

    @property
    def normalize_psi(self) -> bool:
        """Whether psi_0 is scaled to unit norm: only the single enrichment is."""
        return self.K == 1

    @property
    def max_poly_degree(self) -> int:
        return self.N - self.K - 1

    @property
    def B_upper(self) -> float:
        # a normalized single enrichment gives B = 1 + ||w||^2 / ||w||^2 = 2
        if self.normalize_psi:
            return 2.0
        return 1.0 + _LOG_NORM_SQ * self.K * self.K


def legendre_onb(N: int) -> FrameSpec:
    """The first N orthonormal shifted Legendre polynomials (A = B = 1)."""
    return FrameSpec(K=0, N=N)


def onb_plus_k(N: int, K: int) -> FrameSpec:
    """Legendre basis enriched by K weighted elements psi_k = log(x) phi_k.

    With K = 1 the single enrichment is normalized, giving frame bounds
    A = 1, B = 2; for K >= 2 the enrichments are kept unnormalized and
    B <= 1 + ||log||^2 K^2.  K = 0 is the pure basis.
    """
    return FrameSpec(K=K, N=N)


def element_matrix(frame: FrameSpec, x) -> np.ndarray:
    """All frame elements evaluated at the points x, shape (N, len(x)).

    Any input is evaluated in double.  Evaluation of a weighted element
    (row j < K) at x <= 0 is a domain error.  The values are formed from
    one Legendre table, of the highest degree among the polynomials and
    the weighted copies.
    """
    x = _as_nodes(x)
    return _elements_from_table(frame, x, _node_table(frame, x))


def _node_table(frame: FrameSpec, x: np.ndarray, degree: int = 0) -> np.ndarray:
    """The Legendre table of the 1-d points x, of the frame's degree or of degree if higher.

    The points are checked against the frame's domain first.
    """
    if x.size:
        # fmin and fmax skip NaN: a NaN node is no domain error, and hides
        # no point outside [0, 1] beside it
        lowest, highest = np.fmin.reduce(x), np.fmax.reduce(x)
        if lowest < 0.0 or highest > 1.0:
            raise ValueError("evaluation points must lie in [0, 1]")
        if frame.K > 0 and lowest <= 0.0:
            raise ValueError("weighted frame elements are undefined at x = 0")
    return legendre_table(max(frame.max_poly_degree, frame.K - 1, degree, 0), x)


def _elements_from_table(frame: FrameSpec, x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """element_matrix at the points x from their _node_table.

    Each element is formed elementwise from its own row, so a table that
    runs past the frame's degree gives the same values.
    """
    K, N = frame.K, frame.N
    out = np.empty((N, x.size))
    if K > 0:
        out[:K] = np.log(x)[None, :] * table[:K]
        if frame.normalize_psi:
            out[0] /= np.sqrt(_LOG_NORM_SQ)
    if N > K:
        out[K:] = table[: N - K]
    return out


def synthesize(frame: FrameSpec, coefficients, x):
    """Evaluate the frame expansion sum_j c_j elem_j at the points x."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (frame.N,):
        raise ValueError("coefficient length must equal frame.N")
    x_arr = np.asarray(x, dtype=float)
    vals = coefficients @ element_matrix(frame, x_arr.ravel())
    if x_arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(x_arr.shape)


def target_function(x):
    """Benchmark target exp(x) + log(x) cos(x), singular at x = 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("target function requires x > 0")
    vals = np.exp(x_arr) + np.log(x_arr) * np.cos(x_arr)
    if x_arr.ndim == 0:
        return float(vals)
    return vals
