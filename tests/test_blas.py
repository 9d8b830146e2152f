"""The one-BLAS-thread pin at the library's public entry points (frameapprox.blas).

Each test reads the thread count through a (get, set) pair that logs
every set: numpy's own OpenBLAS calls where numpy links OpenBLAS, and a
simulated count of 3 otherwise, so the pin's bookkeeping is checked on
every BLAS and its effect on the real one where there is one.  The work
inside an entry point is observed from np.linalg.svd, np.linalg.norm,
GramSystem.kept_rank (which the solve reads before its two products) and
the sampled function, whichever the entry point reaches.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import frameapprox as fa
from frameapprox import blas

EPS = 1e-6
WAIT_S = 30

ENTRY_POINTS = {
    "approximate": lambda c, f: fa.approximate(f, c.frame, fa.legendre_points(), 16, EPS),
    "build_system": lambda c, f: fa.build_system(c.frame, c.scheme),
    "GramSystem.from_matrix": lambda c, f: fa.GramSystem.from_matrix(c.system.matrix),
    "truncated_svd_solve": lambda c, f: fa.truncated_svd_solve(c.system, c.y, EPS),
    "sample": lambda c, f: fa.sample(c.scheme, f),
    "compute_kappa": lambda c, f: fa.compute_kappa(c.system, EPS),
    # a cutoff above sigma_min, so some direction is discarded
    "compute_lambda": lambda c, f: fa.compute_lambda(c.system, c.sigma_mid),
    "richness_estimate": lambda c, f: fa.richness_estimate(c.system),
    "diagnose": lambda c, f: fa.diagnose(c.system, [EPS]),
    "stable_sampling_rate": lambda c, f: fa.stable_sampling_rate(
        c.frame, fa.legendre_points(), 2.0, EPS),
    "constants_sweep": lambda c, f: fa.constants_sweep(
        lambda N: c.frame, fa.legendre_points(), [2.0], [c.frame.N], [EPS]),
    "verify_error_bound": lambda c, f: fa.verify_error_bound(c.approx, f, c.z),
    "verify_coefficient_bound": lambda c, f: fa.verify_coefficient_bound(
        c.approx, f, c.z),
}


@pytest.fixture(scope="module")
def case():
    frame = fa.onb_plus_k(8, 2)
    scheme = fa.legendre_point_scheme(16)
    system = fa.build_system(frame, scheme)
    approx = fa.approximate(fa.target_function, frame, fa.legendre_points(), 16, EPS)
    return SimpleNamespace(
        frame=frame, scheme=scheme, system=system,
        approx=approx, y=np.ones(16), z=np.zeros(frame.N),
        sigma_mid=float(system.singular_values[frame.N // 2]),
    )


@pytest.fixture
def calls(monkeypatch):
    """The (get, set) pair the pin uses, with `sets` logging every count set."""
    for name in blas.THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    sets = []
    real = blas.openblas_thread_calls()
    if real is None:
        count = [3]
        get = lambda: count[0]
        set_real = lambda n: count.__setitem__(0, n)
    else:
        get, set_real = real

    def set_(n):
        sets.append(n)
        set_real(n)

    monkeypatch.setattr(blas, "openblas_thread_calls", lambda: (get, set_))
    return SimpleNamespace(get=get, sets=sets)


@pytest.fixture
def hook(monkeypatch):
    """hook.fn(), if set, runs at every SVD, norm, kept rank and sample inside the library."""
    state = SimpleNamespace(fn=None)

    def observed(original):
        def call(*args, **kwargs):
            if state.fn is not None:
                state.fn()
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", observed(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "norm", observed(np.linalg.norm))
    monkeypatch.setattr(fa.GramSystem, "kept_rank", observed(fa.GramSystem.kept_rank))
    state.f = observed(fa.target_function)
    return state


class Boom(Exception):
    pass


def _raise():
    raise Boom


def _run_threads(targets):
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # reported by the test thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
        assert not thread.is_alive()
    assert errors == []


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_runs_on_one_blas_thread(name, case, calls, hook, monkeypatch):
    entry = ENTRY_POINTS[name]
    before = calls.get()
    seen = []
    hook.fn = lambda: seen.append(calls.get())

    # the work sees one thread; the entry points it calls in turn pass
    # straight through, so the count is set once and restored once
    entry(case, hook.f)
    assert seen and set(seen) == {1}
    assert calls.sets == [1, before] and calls.get() == before

    # the saved count comes back when the body raises
    calls.sets.clear()
    hook.fn = _raise
    with pytest.raises(Boom):
        entry(case, hook.f)
    assert calls.sets == [1, before] and calls.get() == before

    # an exported count wins: the BLAS is left alone
    hook.fn = lambda: seen.append(calls.get())
    for var in blas.THREAD_VARS:
        with monkeypatch.context() as env:
            env.setenv(var, "2")
            calls.sets.clear()
            seen.clear()
            entry(case, hook.f)
            assert seen and set(seen) == {before}
            assert calls.sets == []

    # nested in another pinned call: still one set and one restore
    calls.sets.clear()
    seen.clear()
    blas.one_blas_thread(entry)(case, hook.f)
    assert set(seen) == {1}
    assert calls.sets == [1, before] and calls.get() == before

    # two Python threads interleave: A enters, B enters, A exits, B exits
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    role = threading.local()

    def step():
        seen.append(calls.get())
        who = getattr(role, "name", None)
        if who == "a" and not a_in.is_set():
            a_in.set()
            assert b_in.wait(WAIT_S)
        elif who == "b" and not b_in.is_set():
            b_in.set()
            assert a_out.wait(WAIT_S)

    def run_a():
        role.name = "a"
        entry(case, hook.f)
        a_out.set()

    def run_b():
        role.name = "b"
        assert a_in.wait(WAIT_S)
        entry(case, hook.f)

    hook.fn = step
    calls.sets.clear()
    seen.clear()
    _run_threads([run_a, run_b])
    assert a_out.is_set() and b_in.is_set()
    assert set(seen) == {1}
    assert calls.sets == [1, before] and calls.get() == before


def test_entry_points_listed_are_the_pinned_ones():
    pin = blas.one_blas_thread(len).__code__
    pinned = {name for name, obj in vars(fa).items() if getattr(obj, "__code__", None) is pin}
    if fa.GramSystem.from_matrix.__func__.__code__ is pin:
        pinned.add("GramSystem.from_matrix")
    assert pinned == set(ENTRY_POINTS)


def test_pin_holds_under_thread_stress(case, calls, hook):
    # more threads than cores, switching as often as the interpreter allows:
    # a lost update of the count of open threads would restore the thread
    # count while an entry is open, or never restore it
    before = calls.get()
    seen = []
    hook.fn = lambda: seen.append(calls.get())

    def work():
        for _ in range(200):
            fa.truncated_svd_solve(case.system, case.y, EPS)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads([work] * 6)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 6 * 200 and set(seen) == {1}
    assert calls.get() == before
    assert calls.sets[::2] == [1] * (len(calls.sets) // 2)
    assert calls.sets[1::2] == [before] * (len(calls.sets) // 2)
