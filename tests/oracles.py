"""Brute-force reference computations for the stability constants.

The production code takes the economical route: it applies the N x N
closed-form square root R of the continuous Gram (R* R = Gram) to the
small right-singular blocks and asks for one spectral norm.  These
oracles instead apply the tall quadrature factor H of the same Gram
(H* H = Gram to about 1e-13, GramFactor.matrix, evaluated again on each
read), build the full operator matrices entry by entry and extract the
largest eigenvalue of the associated quadratic form.  Production never
evaluates H, so the H route here is an independent check of both the
closed forms and the algorithm, and agreement is evidence and not
tautology.
"""

import numpy as np


def dense_kappa(system, factor, epsilon):
    """sup over data y of ||T V (Sigma_eps)^+ U* y|| / ||y||, dense route."""
    s = system.singular_values
    kept = s > epsilon
    if not kept.any():
        return 0.0
    # full M-column operator: data vector -> Gram-factor image of x^eps
    inv = np.zeros_like(s)
    inv[kept] = 1.0 / s[kept]
    L = factor.matrix @ (system.Vt.T * inv) @ system.U.T
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(L.T @ L)[-1])))


def dense_lambda(system, factor, epsilon):
    """Deviation-from-projection norm, scaled by 1/epsilon, dense route."""
    s = system.singular_values
    dropped = ~(s > epsilon)
    if not dropped.any():
        return 0.0
    V_d = system.Vt.T[:, dropped]
    L = factor.matrix @ (V_d @ V_d.T)
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(L.T @ L)[-1]))) / epsilon


def random_vector_lower_estimate(system, factor, epsilon, draws, rng):
    """Largest Rayleigh quotient over random unit data vectors.

    Never exceeds the true kappa; used to confirm the eigensolver value
    is an upper envelope of the sampled quotients.
    """
    s = system.singular_values
    kept = s > epsilon
    if not kept.any():
        return 0.0
    inv = np.zeros_like(s)
    inv[kept] = 1.0 / s[kept]
    H = factor.matrix  # each read evaluates H again
    best = 0.0
    for _ in range(draws):
        y = rng.standard_normal(system.M)
        y /= np.linalg.norm(y)
        x = (system.Vt.T * inv) @ (system.U.T @ y)
        best = max(best, float(np.linalg.norm(H @ x)))
    return best
