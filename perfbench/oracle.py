"""Dense reference route for kappa and lambda, and the tolerances of the checks.

The library applies the Gram factor H to the kept right-singular block and
asks for one spectral norm.  The reference builds the whole data-to-
approximant operator H V pinv(Sigma_eps) U* (for lambda, H V_d V_d*) and
takes the largest eigenvalue of its Gram matrix, the same route as the
repository's test oracle, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of every comparison against a bound or the dense route.
# It sits above the largest disagreement between the library and the dense
# route on the constants grid (1.1e-7, lambda at N = 55, M = 165, eps = 1e-8),
# and above the known kappa * sqrt(A') - 1 = 2.9e-9 at N = M = 10 on
# Legendre points.  A constant off by a factor of 2 misses it by 6 orders.
RTOL = 1e-6


def within(value: float, cap: float) -> bool:
    return value <= cap * (1.0 + RTOL)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= RTOL * max(abs(value), abs(reference))


def _top_singular_value(L: np.ndarray) -> float:
    return math.sqrt(max(0.0, np.linalg.eigvalsh(L.T @ L)[-1]))


def dense_kappa(system, factor, epsilon: float) -> float:
    U, s, Vt = np.linalg.svd(system.matrix, full_matrices=False)
    kept = s > epsilon
    if not kept.any():
        return 0.0
    inv = np.zeros_like(s)
    inv[kept] = 1.0 / s[kept]
    return _top_singular_value(factor.matrix @ (Vt.T * inv) @ U.T)


def dense_lambda(system, factor, epsilon: float) -> float:
    _, s, Vt = np.linalg.svd(system.matrix, full_matrices=False)
    dropped = ~(s > epsilon)
    if not dropped.any():
        return 0.0
    V_d = Vt.T[:, dropped]
    return _top_singular_value(factor.matrix @ (V_d @ V_d.T)) / epsilon


def check_constants(system, factor, eps, kappa, lam, a_prime, B_upper):
    """None when one CSV row's kappa and lambda pass every check, else the reason."""
    caps = [("sqrt(B)/eps", math.sqrt(B_upper) / eps)]
    if a_prime > 0:
        caps.append(("1/sqrt(A')", 1.0 / math.sqrt(a_prime)))
    for name, value, reference in (("kappa", kappa, dense_kappa(system, factor, eps)),
                                   ("lambda", lam, dense_lambda(system, factor, eps))):
        for cap_name, cap in caps:
            if not within(value, cap):
                return f"{name} = {value:.9g} exceeds {cap_name} = {cap:.9g}"
        if not close(value, reference):
            return f"{name} = {value:.12g}, dense route gives {reference:.12g}"
    return None
