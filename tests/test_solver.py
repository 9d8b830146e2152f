"""Truncated-SVD solving, approximants, and the error bounds."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameapprox import frames, gram, sampling, solver


def _diag_system(entries):
    return gram.GramSystem.from_matrix(np.diag(entries))


def test_truncation_is_strict_at_ties():
    system = _diag_system([2.0, 1.0, 0.5])
    sol = solver.truncated_svd_solve(system, np.ones(3), epsilon=1.0)
    assert sol.kept_rank == 1
    assert np.allclose(sol.coefficients, [0.5, 0.0, 0.0])


def test_zero_epsilon_keeps_all_positive_singular_values():
    system = _diag_system([2.0, 1e-9, 0.5])
    sol = solver.truncated_svd_solve(system, np.array([2.0, 1e-9, 1.0]), epsilon=0.0)
    assert sol.kept_rank == 3
    assert np.allclose(sol.coefficients, [1.0, 1.0, 2.0])


def test_cutoff_above_spectrum_gives_zero_solution():
    system = _diag_system([2.0, 1.0])
    y = np.array([3.0, 4.0])
    sol = solver.truncated_svd_solve(system, y, epsilon=5.0)
    assert sol.kept_rank == 0
    assert np.all(sol.coefficients == 0)
    assert np.linalg.norm(system.matrix @ sol.coefficients - y) == pytest.approx(5.0)


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        solver.truncated_svd_solve(_diag_system([1.0]), np.ones(1), epsilon=-1e-3)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_nonfinite_epsilon_rejected(eps):
    # nan would compare False against every singular value and keep nothing
    with pytest.raises(ValueError, match="epsilon"):
        solver.truncated_svd_solve(_diag_system([1.0]), np.ones(1), epsilon=eps)


def test_matches_least_squares_when_nothing_truncated():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 5)) + 3 * np.eye(12, 5)
    y = rng.standard_normal(12)
    system = gram.GramSystem.from_matrix(A)
    sol = solver.truncated_svd_solve(system, y, epsilon=1e-10)
    reference = np.linalg.lstsq(A, y, rcond=None)[0]
    assert np.abs(sol.coefficients - reference).max() < 1e-10
    assert np.linalg.norm(A @ sol.coefficients - y) == pytest.approx(
        np.linalg.norm(A @ reference - y), abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_kept_rank_and_norm_shrink_as_cutoff_grows(data):
    n = data.draw(st.integers(1, 6))
    sing = sorted(data.draw(st.lists(
        st.floats(1e-6, 10.0), min_size=n, max_size=n)), reverse=True)
    y = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    system = _diag_system(sing)
    eps_pair = sorted((data.draw(st.floats(0, 11.0)), data.draw(st.floats(0, 11.0))))
    lo = solver.truncated_svd_solve(system, y, epsilon=eps_pair[0])
    hi = solver.truncated_svd_solve(system, y, epsilon=eps_pair[1])
    assert hi.kept_rank <= lo.kept_rank
    assert np.linalg.norm(hi.coefficients) <= np.linalg.norm(lo.coefficients) + 1e-12
    residual = lambda sol: np.linalg.norm(system.matrix @ sol.coefficients - y)
    assert residual(lo) <= residual(hi) + 1e-12


def test_zero_cutoff_reproduces_in_range_data_exactly():
    # with eps = 0 and a full-rank system the solve is plain least squares,
    # so data lying in the range is reproduced in the discrete norm
    rng = np.random.default_rng(3)
    frame = frames.onb_plus_k(8, 1)
    scheme = sampling.legendre_point_scheme(16)
    system = gram.build_system(frame, scheme)
    for _ in range(5):
        z = rng.standard_normal(8)
        y = system.matrix @ z
        sol = solver.truncated_svd_solve(system, y, epsilon=0.0)
        assert np.linalg.norm(system.matrix @ sol.coefficients - y) < 1e-9


def test_residual_orthogonal_to_kept_directions():
    frame = frames.onb_plus_k(10, 2)
    scheme = sampling.legendre_point_scheme(20)
    system = gram.build_system(frame, scheme)
    y = sampling.sample(scheme, frames.target_function)
    sol = solver.truncated_svd_solve(system, y.values, epsilon=1e-8)
    residual = y.values - system.matrix @ sol.coefficients
    kept_images = system.matrix @ system.Vt[: sol.kept_rank].T
    assert np.abs(kept_images.T @ residual).max() < 1e-9


def test_approximate_recovers_basis_function_exactly():
    frame = frames.legendre_onb(8)
    target = lambda x: frames.element_matrix(frame, x)[3]
    approx = solver.approximate(target, frame, sampling.inner_products(), M=8,
                                epsilon=1e-12)
    expected = np.zeros(8)
    expected[3] = 1.0
    assert np.abs(approx.coefficients - expected).max() < 1e-12
    x = np.linspace(0.05, 1.0, 13)
    assert np.abs(approx(x) - target(x)).max() < 1e-12


def test_approximate_enriched_target_accuracy():
    approx = solver.approximate(
        frames.target_function, frames.onb_plus_k(20, 1),
        sampling.legendre_points(), M=40, epsilon=1e-13)
    report = solver.error_report(approx, frames.target_function, (0.2, 0.5, 0.9, 1.0))
    assert report.max_error < 1e-6
    assert report.coefficient_norm == pytest.approx(
        np.linalg.norm(approx.coefficients))


def test_error_report_fields():
    frame = frames.onb_plus_k(10, 1)
    approx = solver.approximate(frames.target_function, frame,
                                sampling.chebyshev_points(), M=20, epsilon=1e-10)
    probes = (0.25, 0.75)
    report = solver.error_report(approx, frames.target_function, probes)
    assert np.array_equal(report.probes, probes)
    assert len(report.errors) == 2
    assert report.max_error == np.max(report.errors)
    # the fit leaves the part of the data outside its kept left singular vectors
    system = approx.system
    y = sampling.sample(system.scheme, frames.target_function).values
    kept = system.U[:, :approx.kept_rank]
    expected_resid = np.linalg.norm(y - kept @ (kept.T @ y))
    resid = np.linalg.norm(y - system.matrix @ approx.coefficients)
    assert resid == pytest.approx(expected_resid, abs=1e-13)


def test_error_report_rejects_empty_probe_points():
    approx = solver.approximate(frames.target_function, frames.onb_plus_k(6, 1),
                                sampling.chebyshev_points(), M=12, epsilon=1e-10)
    for probes in ([], (), np.empty(0)):
        with pytest.raises(ValueError, match="probe_points is empty"):
            solver.error_report(approx, frames.target_function, probes)


@pytest.mark.parametrize("family,M", [
    (sampling.legendre_points(), 24),
    (sampling.inner_products(), 24),
])
def test_error_bound_holds_for_structured_z(family, M):
    frame = frames.onb_plus_k(12, 1)
    approx = solver.approximate(frames.target_function, frame, family, M=M, epsilon=1e-6)
    for z in (np.zeros(12), approx.coefficients):
        check = solver.verify_error_bound(approx, frames.target_function, z)
        assert check.holds
        assert check.lhs <= check.rhs


@pytest.mark.parametrize("family,samples", [
    (sampling.legendre_points(), 1),
    (sampling.inner_products(), 0),
])
def test_error_bound_evaluates_the_frame_once(family, samples, monkeypatch):
    frame = frames.onb_plus_k(12, 1)
    approx = solver.approximate(frames.target_function, frame, family, M=24, epsilon=1e-6)
    calls = {"element_matrix": [], "synthesize": 0, "sample": 0}

    def counted_elements(original):
        def wrapper(frame, x):
            calls["element_matrix"].append(np.asarray(x).size)
            return original(frame, x)
        return wrapper

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (solver, frames):
        monkeypatch.setattr(module, "element_matrix", counted_elements(module.element_matrix))
        monkeypatch.setattr(module, "synthesize", counted("synthesize", module.synthesize))
    monkeypatch.setattr(solver, "sample", counted("sample", solver.sample))
    check = solver.verify_error_bound(approx, frames.target_function, np.zeros(12))
    assert check.holds
    assert calls == {"element_matrix": [solver._verification_rule(12).size],
                     "synthesize": 0, "sample": samples}


def test_error_bound_holds_for_random_z():
    rng = np.random.default_rng(11)
    frame = frames.onb_plus_k(12, 1)
    approx = solver.approximate(frames.target_function, frame, sampling.legendre_points(),
                                M=24, epsilon=1e-6)
    for _ in range(20):
        z = rng.standard_normal(12) * 10.0 ** rng.integers(-2, 2)
        check = solver.verify_error_bound(approx, frames.target_function, z)
        assert check.holds
        coeff = solver.verify_coefficient_bound(
            approx, frames.target_function, z)
        assert coeff.holds


def test_coefficient_bound_with_zero_z_controls_norm():
    frame = frames.onb_plus_k(12, 1)
    approx = solver.approximate(frames.target_function, frame, sampling.legendre_points(),
                                M=24, epsilon=1e-6)
    check = solver.verify_coefficient_bound(
        approx, frames.target_function, np.zeros(12))
    # with z = 0 the statement reads ||x|| <= ||f||_M / eps
    assert check.holds
    y = sampling.sample(approx.system.scheme, frames.target_function)
    assert check.rhs == pytest.approx(y.norm() / 1e-6, rel=1e-10)


def test_readme_quickstart_runs_and_meets_its_claim(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # "~5e-15 despite cond(Gram) >> 1/eps"
    assert namespace["report"].max_error < 1e-13
    assert float(capsys.readouterr().out) == namespace["report"].max_error
