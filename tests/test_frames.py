"""Frame construction, element evaluation, and synthesis."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameapprox import frames, orthopoly


def test_frame_validation():
    with pytest.raises(ValueError):
        frames.onb_plus_k(5, 6)  # more enrichment elements than slots
    with pytest.raises(ValueError):
        frames.onb_plus_k(0, 0)
    assert frames.onb_plus_k(10, 0) == frames.legendre_onb(10)


def test_frame_is_fixed_by_k_and_n():
    # the single enrichment is normalized however the frame is made
    frame = frames.FrameSpec(K=1, N=10)
    assert frame == frames.onb_plus_k(10, 1)
    assert frame.B_upper == frames.onb_plus_k(10, 1).B_upper == 2.0


def test_frame_bounds_metadata():
    onb = frames.legendre_onb(12)
    assert onb.K == 0 and onb.B_upper == 1.0
    assert onb.max_poly_degree == 11

    plus_one = frames.onb_plus_k(12, 1)
    assert plus_one.normalize_psi is True
    assert plus_one.B_upper == 2.0
    assert plus_one.max_poly_degree == 10

    plus_five = frames.onb_plus_k(20, 5)
    assert plus_five.normalize_psi is False
    assert plus_five.B_upper == 1.0 + 2.0 * 25
    assert plus_five.max_poly_degree == 14


def test_element_matrix_pure_basis_matches_legendre_table():
    frame = frames.legendre_onb(6)
    x = np.linspace(0.1, 1.0, 9)
    assert np.allclose(frames.element_matrix(frame, x),
                       orthopoly.legendre_table(5, x), atol=0)


def test_element_matrix_enriched_rows():
    x = np.array([0.2, 0.7, 1.0])
    plus_one = frames.onb_plus_k(6, 1)
    elems = frames.element_matrix(plus_one, x)
    assert np.allclose(elems[0], np.log(x) / np.sqrt(2.0), atol=1e-15)
    assert np.allclose(elems[1:], orthopoly.legendre_table(4, x), atol=0)

    plus_two = frames.onb_plus_k(8, 2)
    elems = frames.element_matrix(plus_two, x)
    table = orthopoly.legendre_table(5, x)
    assert np.allclose(elems[0], np.log(x) * table[0], atol=1e-15)
    assert np.allclose(elems[1], np.log(x) * table[1], atol=1e-15)
    assert np.allclose(elems[2:], table, atol=0)


def test_element_matrix_domain_errors():
    frame = frames.onb_plus_k(4, 1)
    with pytest.raises(ValueError):
        frames.element_matrix(frame, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        frames.element_matrix(frame, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        frames.element_matrix(frames.legendre_onb(4), np.array([0.5, -0.25]))
    with pytest.raises(ValueError):
        frames.element_matrix(frame, np.array([-0.0, 0.5]))
    # the log weight never sees zero for a pure polynomial frame
    vals = frames.element_matrix(frames.legendre_onb(4), np.array([0.0, -0.0, 1.0]))
    assert np.isfinite(vals).all()
    assert frames.element_matrix(frame, np.array([])).shape == (4, 0)
    # a NaN node is no domain error and gives a NaN column, but does not hide
    # a point outside [0, 1] beside it
    vals = frames.element_matrix(frame, np.array([np.nan, 0.5]))
    assert np.isnan(vals[0, 0]) and np.isfinite(vals[:, 1]).all()
    for bad in (-1.0, 2.0, 0.0):
        with pytest.raises(ValueError):
            frames.element_matrix(frame, np.array([np.nan, bad]))


def _mp_elements(frame, x):
    # every element at the exact value of each point, 40 digits
    cols = []
    with mpmath.workdps(40):
        for xi in x:
            p, q = xi.as_integer_ratio()
            t = mpmath.mpf(p) / q
            poly = [mpmath.sqrt(2 * n + 1) * mpmath.legendre(n, 2 * t - 1)
                    for n in range(max(frame.K, frame.N - frame.K))]
            cols.append([mpmath.log(t) * v for v in poly[:frame.K]] + poly[:frame.N - frame.K])
    return np.array(cols, dtype=object).T


def test_long_double_points_give_long_double_elements():
    frame = frames.onb_plus_k(20, 5)
    x = np.linspace(0.01, 0.99, 9, dtype=np.longdouble) / 3
    elems = frames.element_matrix(frame, x)
    assert elems.dtype == np.longdouble
    assert orthopoly.legendre_table(19, x).dtype == np.longdouble
    assert frames.element_matrix(frame, x.astype(np.float32)).dtype == np.float64
    eps = np.finfo(np.longdouble).eps
    if eps < np.finfo(float).eps:  # else long double is double on this platform
        ref = _mp_elements(frame, x)
        with mpmath.workdps(40):
            err = max(abs(mpmath.mpf(p) / q - r) for v, r in zip(elems.ravel(), ref.ravel())
                      for p, q in [v.as_integer_ratio()])
            scale = max(abs(r) for r in ref.ravel())
        # the long double error is about 5 eps; double evaluation gives 6e3 eps
        assert err < 64 * eps * scale


@settings(deadline=None)
@given(data=st.data())
def test_synthesis_is_linear(data):
    N = data.draw(st.integers(2, 10))
    K = data.draw(st.integers(0, min(3, N - 1)))
    frame = frames.onb_plus_k(N, K) if K else frames.legendre_onb(N)
    c1 = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=N, max_size=N)))
    c2 = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=N, max_size=N)))
    a = data.draw(st.floats(-2, 2))
    x = np.linspace(0.1, 1.0, 5)
    lhs = frames.synthesize(frame, a * c1 + c2, x)
    rhs = a * frames.synthesize(frame, c1, x) + frames.synthesize(frame, c2, x)
    scale = 1.0 + np.abs(c1).sum() + np.abs(c2).sum()
    assert np.abs(lhs - rhs).max() < 1e-9 * scale


def test_synthesize_rejects_coefficients_of_another_length():
    frame = frames.onb_plus_k(3, 1)
    x = np.linspace(0.1, 1.0, 4)
    for coeffs in (np.zeros(frame.N + 1), np.zeros(frame.N - 1), np.zeros((1, frame.N))):
        with pytest.raises(ValueError):
            frames.synthesize(frame, coeffs, x)


def test_target_function_values():
    # exp(x) + log(x) cos(x); at x = 1 the singular part vanishes
    assert abs(frames.target_function(1.0) - np.e) < 1e-15
    assert abs(frames.target_function(0.5) - 1.0404273922172426) < 1e-12
    with pytest.raises(ValueError):
        frames.target_function(0.0)
    vals = frames.target_function(np.array([0.3, 0.6]))
    assert vals.shape == (2,)


def test_subframe_capture_of_target_singularity():
    # the enriched frame reproduces log times low degree polynomials exactly
    frame = frames.onb_plus_k(6, 1)
    x = np.linspace(0.05, 1.0, 40)
    coeffs = np.zeros(6)
    coeffs[0] = np.sqrt(2.0)
    assert np.abs(frames.synthesize(frame, coeffs, x) - np.log(x)).max() < 1e-13
