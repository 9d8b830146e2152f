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

import math

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
    """Deviation-from-projection norm, scaled by 1/epsilon, dense route.

    V_d is taken from the full N x N V, so for M < N it includes the
    N - M null directions of G that the thin SVD leaves out.
    """
    r = int(np.count_nonzero(system.singular_values > epsilon))
    if r == system.N:
        return 0.0
    V_d = np.linalg.svd(system.matrix)[2][r:].T
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


def oracle_richness(frame, scheme):
    """A'_{M,N} in extended precision, from a basis of the frame's span.

    A' is the smallest value of ||g||_M^2 over unit-norm g in the span, so
    any basis of the span serves: here x^i (i < N - K) and log(x) x^l
    (l < K), whose Gram is exact, 1 / (i + j + 1), -1 / (i + l + 1)^2 and
    2 / (l + m + 1)^3.  Point values are taken at the double nodes and
    scales as exact; inner products are exact rationals times
    sqrt(2j + 1), from the monomial coefficients of phi_j.  The smallest
    eigenvalue of L^-1 G* G L^-*, with L L* the Gram, comes from
    mp.eigsy at max(60, 4N) digits.
    """
    from fractions import Fraction

    import mpmath

    K, N = frame.K, frame.N
    n = N - K
    with mpmath.workdps(max(60, 4 * N)):
        mp = mpmath.mp
        if scheme.nodes is not None:
            rows = []
            for x, s in zip(scheme.nodes, scheme.scales):
                x, s = mp.mpf(float(x)), mp.mpf(float(s))
                rows.append([s * x**i for i in range(n)]
                            + [s * mp.log(x) * x**l for l in range(K)])
        else:
            def coefficients(j):
                # phi_j / sqrt(2j + 1) = sum_i (-1)^(j+i) C(j, i) C(j+i, i) x^i
                return [(-1) ** (j + i) * math.comb(j, i) * math.comb(j + i, i)
                        for i in range(j + 1)]

            rows = []
            for j in range(scheme.M):
                a = coefficients(j)
                root = mp.sqrt(2 * j + 1)
                rows.append([root * _mp_fraction(sum(Fraction(c, i + p + 1) for i, c in enumerate(a)))
                             for p in range(n)]
                            + [root * _mp_fraction(sum(Fraction(-c, (i + l + 1) ** 2)
                                                       for i, c in enumerate(a)))
                               for l in range(K)])
        G = mp.matrix(rows)
        gram = mp.matrix(N, N)
        for a in range(N):
            for b in range(N):
                if a < n and b < n:
                    gram[a, b] = mp.mpf(1) / (a + b + 1)
                elif a < n or b < n:
                    i, l = min(a, b), max(a, b) - n
                    gram[a, b] = -mp.mpf(1) / (i + l + 1) ** 2
                else:
                    gram[a, b] = mp.mpf(2) / (a + b - 2 * n + 1) ** 3
        L_inv = mp.inverse(mp.cholesky(gram))
        X = G * L_inv.T
        return float(min(mp.eigsy(X.T * X, eigvals_only=True)))


def _mp_fraction(value):
    import mpmath

    return mpmath.mpf(value.numerator) / value.denominator


def oracle_inner_product_constants(frame, M, epsilon):
    """(kept rank, kappa, lambda) of the exact inner-product system of an enriched frame.

    The inner-product G and the Gram factor R are exact rationals times
    square roots, so at 60 digits this gives the constants of the exact
    problem, with no rounding of the double data.  The log moments
    L[k, m] = sqrt((2k + 1)(2m + 1)) s_km take the rationals s_km of
    gram._log_moments, the diagonal from harmonic numbers; psi_0's column
    is divided by sqrt(2) in a normalized frame.  R = [[C, I], [R22, 0]]
    in frame order, C = L[:K, :N - K]* and R22 the Cholesky factor of
    D (A / Q) D, D = diag(sqrt(2k + 1)), with A and Q from gram._tail_gram
    (Q doubled in a normalized frame).  V and Sigma come from mp.eigsy of
    G* G, and kappa = ||R V_r Sigma_r^-1||_2, lambda = ||R V_d||_2 / eps
    with the singular values strictly above eps kept, eps taken as the
    double it is.
    """
    from fractions import Fraction

    import mpmath

    from frameapprox.gram import _tail_gram

    K, N = frame.K, frame.N
    n = N - K

    def harmonic(j):
        return sum(Fraction(1, i) for i in range(1, j + 1))

    def s(k, m):
        if k != m:
            return Fraction((-1) ** (k + m + 1), abs(m - k) * (m + k + 1))
        return -(2 * (harmonic(2 * k + 1) - harmonic(k)) - Fraction(1, 2 * k + 1)) / (2 * k + 1)

    def norm2(X):
        return mpmath.sqrt(max(mpmath.mp.eigsy(X.T * X, eigvals_only=True)))

    with mpmath.workdps(60):
        mp = mpmath.mp
        scale = 1 / mp.sqrt(2) if frame.normalize_psi else mp.mpf(1)

        def L(k, m):
            value = mp.sqrt((2 * k + 1) * (2 * m + 1)) * _mp_fraction(s(k, m))
            return value * scale if k == 0 else value

        G = mp.matrix(M, N)
        for j in range(M):
            for k in range(K):
                G[j, k] = L(k, j)
            if j < n:
                G[j, K + j] = 1
        A, Q = _tail_gram(K, n)
        if frame.normalize_psi:
            Q *= 2
        W = mp.matrix(K, K)
        for k in range(K):
            for l in range(K):
                W[k, l] = mp.sqrt((2 * k + 1) * (2 * l + 1)) * mp.mpf(A[k][l]) / Q
        R22 = mp.cholesky(W).T
        R = mp.matrix(N, N)
        for i in range(n):
            R[i, K + i] = 1
            for k in range(K):
                R[i, k] = L(k, i)
        for i in range(K):
            for k in range(K):
                R[n + i, k] = R22[i, k]
        E, V = mp.eigsy(G.T * G)
        order = sorted(range(N), key=lambda j: -E[j])
        sigma = [mp.sqrt(max(E[j], 0)) for j in order]
        r = sum(1 for value in sigma if value > epsilon)
        kept = mp.matrix(N, max(r, 1))
        dropped = mp.matrix(N, max(N - r, 1))
        for c, j in enumerate(order):
            for i in range(N):
                if c < r:
                    kept[i, c] = V[i, j] / sigma[c]
                else:
                    dropped[i, c - r] = V[i, j]
        kappa = norm2(R * kept) if r else 0
        lam = norm2(R * dropped) / epsilon if r < N else 0
        return r, float(kappa), float(lam)
