"""End-to-end acceptance suite.

Each test reports one PASS/FAIL line for its criterion; the lines are
echoed in the terminal summary after the run.
"""

import time

import numpy as np
import pytest

import acceptance_report
import oracles
from frameapprox import diagnostics, frames, gram, orthopoly, sampling, solver

_PROBES = (0.2, 0.5, 0.9)


def _report(number, description, passed):
    line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}"
    acceptance_report.record(line)
    assert passed, line


def _frame(N, K):
    return frames.onb_plus_k(N, K) if K else frames.legendre_onb(N)


def test_criterion_01_log_moment_closed_form():
    start = time.perf_counter()
    rule = orthopoly.hp_log_quadrature(order=32)
    worst = 0.0
    for n in range(1, 21):
        value = rule.integrate(
            lambda x: orthopoly.legendre_table(n, x)[n] * np.log(x)
        ) / np.sqrt(2 * n + 1)
        worst = max(worst, abs(value - (-1.0) ** (n + 1) / (n * (n + 1))))
    elapsed = time.perf_counter() - start
    _report(1, f"log moments n=1..20 within 1e-11 (worst {worst:.2e}, {elapsed:.2f}s)",
            worst < 1e-11 and elapsed < 1.0)


def test_criterion_02_stability_constant_bounds():
    eps_grid = (1e-5, 1e-8)
    worst_b, worst_a = 0.0, 0.0
    for builder in (sampling.legendre_point_scheme, sampling.equispaced_point_scheme):
        for N in (10, 20, 40):
            frame = _frame(N, 5)
            cap_b_scale = np.sqrt(1.0 + 2.0 * 5 ** 2)
            for gamma in (1, 2, 4):
                scheme = builder(gamma * N)
                system = gram.build_system(frame, scheme)
                a_prime = sampling.richness_estimate(system)
                cap_a = 1.0 / np.sqrt(a_prime)
                for eps in eps_grid:
                    for value in (diagnostics.compute_kappa(system, eps),
                                  diagnostics.compute_lambda(system, eps)):
                        worst_b = max(worst_b, value / (cap_b_scale / eps))
                        worst_a = max(worst_a, value / cap_a)
    ok = worst_b <= 1 + 1e-9 and worst_a <= 1 + 1e-9
    _report(2, "kappa, lambda within sqrt(B)/eps and 1/sqrt(A') on the 36-cell grid "
               f"(worst ratios {worst_b:.3e}, {1 - worst_a:+.2e} slack)", ok)


def _bound_cells():
    cells = [
        (20, 5, sampling.legendre_points(), 40, 1e-5),
        (20, 5, sampling.legendre_points(), 40, 1e-8),
        (20, 5, sampling.equispaced_points(), 60, 1e-5),
        (20, 5, sampling.chebyshev_points(), 40, 1e-8),
        (15, 1, sampling.inner_products(), 30, 1e-5),
        (25, 5, sampling.inner_products(), 50, 1e-8),
    ]
    return [solver.approximate(frames.target_function, _frame(N, K), family, M=M, epsilon=eps)
            for N, K, family, M, eps in cells]


def _random_z(rng, N):
    return rng.standard_normal(N) * 10.0 ** rng.integers(-3, 2)


def test_criterion_03_error_bound_inequality():
    rng = np.random.default_rng(2026)
    violations = 0
    worst = np.inf
    for approx in _bound_cells():
        N = approx.system.N
        for _ in range(100):
            check = solver.verify_error_bound(
                approx, frames.target_function, _random_z(rng, N))
            worst = min(worst, check.slack / max(1.0, check.rhs))
            violations += check.slack < -1e-9 * max(1.0, check.rhs)
    _report(3, f"error bound held for 600 random z (min relative slack {worst:.2e})",
            violations == 0)


def test_criterion_04_coefficient_bound_inequality():
    rng = np.random.default_rng(2027)
    violations = 0
    worst = np.inf
    for approx in _bound_cells():
        N = approx.system.N
        for _ in range(100):
            check = solver.verify_coefficient_bound(
                approx, frames.target_function, _random_z(rng, N))
            worst = min(worst, check.slack / max(1.0, check.rhs))
            violations += check.slack < -1e-9 * max(1.0, check.rhs)
    _report(4, f"coefficient bound held for 600 random z (min relative slack {worst:.2e})",
            violations == 0)


def test_criterion_05_sampling_rate_bound():
    results = {}
    for N in (5, 10, 20, 40):
        frame = frames.onb_plus_k(N, 1)
        results[N] = diagnostics.stable_sampling_rate(
            frame, sampling.inner_products(), 2.0, 1e-5)
    ok = all(theta is not None and theta <= np.sqrt(2.0) * N + 1
             for N, theta in results.items())
    _report(5, f"enriched-basis sampling rate {results} within sqrt(2) N + 1", ok)


def test_criterion_06_enrichment_pays_off():
    eps = 2e-13
    errors = {}
    for K in (5, 0):
        frame = frames.onb_plus_k(60, K) if K else frames.legendre_onb(60)
        approx = solver.approximate(frames.target_function, frame,
                                    sampling.chebyshev_points(), M=120, epsilon=eps)
        report = solver.error_report(approx, frames.target_function, _PROBES)
        errors[K] = report.max_error
    ok = errors[5] <= 1e-6 and errors[0] >= 1e3 * errors[5]
    _report(6, f"enriched error {errors[5]:.2e} vs polynomial-only {errors[0]:.2e} "
               "at the N=60, M=2N budget", ok)


def test_criterion_07_oversampling_plateau():
    # polynomial degree 40 plus five enrichment elements, so 46 in total
    frame = frames.onb_plus_k(46, 5)
    errors = {}
    for M in (40, 120, 240):
        approx = solver.approximate(frames.target_function, frame,
                                    sampling.legendre_points(), M=M, epsilon=1e-13)
        errors[M] = solver.error_report(approx, frames.target_function, _PROBES).max_error
    drop = errors[120] / errors[40]
    plateau = max(errors[240] / errors[120], errors[120] / errors[240])
    _report(7, f"error falls by {drop:.2e} from M=40 to M=120, then changes "
               f"by {plateau:.2f}x to M=240", drop <= 0.01 and plateau < 10)


def test_criterion_08_node_family_contrast():
    eps = 1e-5
    frame = _frame(60, 5)
    values = {}
    for name, builder in (("legendre", sampling.legendre_point_scheme),
                          ("equispaced", sampling.equispaced_point_scheme)):
        system = gram.build_system(frame, builder(120))
        values[name] = (diagnostics.compute_kappa(system, eps),
                        diagnostics.compute_lambda(system, eps))
    ok = max(values["legendre"]) <= 100 and max(values["equispaced"]) >= 1e3
    _report(8, f"legendre constants {tuple(f'{v:.3g}' for v in values['legendre'])} "
               f"vs equispaced {tuple(f'{v:.3g}' for v in values['equispaced'])}", ok)


def test_criterion_09_discrete_projection_structure():
    worst_pair, worst_resid = 0.0, 0.0
    for N, K, scheme in ((10, 1, sampling.legendre_point_scheme(20)),
                         (12, 3, sampling.chebyshev_point_scheme(24)),
                         (12, 2, sampling.inner_product_scheme(20))):
        frame = _frame(N, K)
        system = gram.build_system(frame, scheme)
        eps = 1e-8
        y = sampling.sample(scheme, frames.target_function)
        sol = solver.truncated_svd_solve(system, y.values, eps)
        r = sol.kept_rank
        # brute force: synthesize each right singular vector and resample it
        xi_samples = np.column_stack([
            sampling.sample(scheme, lambda x: frames.synthesize(frame, system.Vt[n], x)).values
            for n in range(system.N)
        ])
        pair = xi_samples.T @ xi_samples
        s = system.singular_values
        worst_pair = max(worst_pair, np.abs(pair - np.diag(s ** 2)).max())
        residual = y.values - system.matrix @ sol.coefficients
        if r:
            worst_resid = max(worst_resid, np.abs(xi_samples[:, :r].T @ residual).max())
    ok = worst_pair < 1e-9 and worst_resid < 1e-9
    _report(9, f"xi orthogonality dev {worst_pair:.2e}, residual orthogonality "
               f"dev {worst_resid:.2e}", ok)


def test_criterion_10_dense_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for N, K, scheme, eps in ((8, 1, sampling.legendre_point_scheme(16), 1e-4),
                              (12, 3, sampling.chebyshev_point_scheme(24), 1e-6),
                              (10, 2, sampling.inner_product_scheme(20), 1e-5),
                              (12, 5, sampling.equispaced_point_scheme(24), 1e-3)):
        frame = _frame(N, K)
        factor = gram.build_gram_factor(frame)
        system = gram.build_system(frame, scheme)
        kappa = diagnostics.compute_kappa(system, eps)
        lam = diagnostics.compute_lambda(system, eps)
        ref_k = oracles.dense_kappa(system, factor, eps)
        ref_l = oracles.dense_lambda(system, factor, eps)
        worst = max(worst, abs(kappa - ref_k) / ref_k)
        if ref_l:
            worst = max(worst, abs(lam - ref_l) / ref_l)
        sampled = oracles.random_vector_lower_estimate(system, factor, eps, 500, rng)
        assert sampled <= kappa * (1 + 1e-9)
    _report(10, f"production constants match the dense oracle (worst rel dev {worst:.2e})",
            worst < 1e-6)
