"""Stability constants, their bounds, sweeps, and the sampling rate."""

import dataclasses

import numpy as np
import pytest

import oracles
from frameapprox import diagnostics, frames, gram, sampling


def _cell(N, K, scheme):
    frame = frames.onb_plus_k(N, K) if K else frames.legendre_onb(N)
    return frame, gram.build_system(frame, scheme)


def _assert_within_caps(report, frame, scheme):
    # the a-priori caps sqrt(B)/eps, 1/sqrt(A'_MN) and, for inner products,
    # 1/sqrt(eps), each with a relative slack of 1e-9
    caps = [np.sqrt(frame.B_upper) / report.epsilon]
    if report.A_prime_MN > 0:
        caps.append(1.0 / np.sqrt(report.A_prime_MN))
    if scheme.nodes is None:
        caps.append(1.0 / np.sqrt(report.epsilon))
    for cap in caps:
        assert max(report.kappa, report.lam) <= cap * (1 + 1e-9)


def test_identity_system_constants():
    frame, system = _cell(8, 0, sampling.inner_product_scheme(8))
    assert diagnostics.compute_kappa(system, 1e-5) == pytest.approx(1.0, abs=1e-10)
    assert diagnostics.compute_lambda(system, 1e-5) == 0.0


def test_lambda_vanishes_when_nothing_is_truncated():
    frame, system = _cell(10, 1, sampling.legendre_point_scheme(20))
    eps = 0.5 * system.singular_values[-1]
    assert diagnostics.compute_lambda(system, eps) == 0.0


def test_constants_equal_the_norm_route_to_the_bit():
    # the 2-norm is taken as the first singular value, as np.linalg.norm(X, 2) takes it
    for N, K, M, eps in ((10, 5, 20, 1e-5), (30, 5, 75, 1e-13), (40, 5, 80, 1e-8)):
        frame, system = _cell(N, K, sampling.legendre_point_scheme(M))
        R = gram.build_gram_factor(frame).R
        r = system.kept_rank(eps)
        kept = R @ (system.Vt[:r].T / system.rayleigh_quotients[:r])
        assert diagnostics.compute_kappa(system, eps) == float(np.linalg.norm(kept, 2))
        if r < N:
            dropped = R @ system.Vt[r:].T
            assert (diagnostics.compute_lambda(system, eps)
                    == float(np.linalg.norm(dropped, 2)) / eps)


def test_constants_input_validation():
    frame, system = _cell(6, 1, sampling.legendre_point_scheme(12))
    with pytest.raises(ValueError):
        diagnostics.compute_kappa(system, 0.0)


@pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
def test_constants_reject_a_nonpositive_or_nonfinite_epsilon(eps):
    frame, system = _cell(6, 1, sampling.legendre_point_scheme(12))
    for constant in (diagnostics.compute_kappa, diagnostics.compute_lambda):
        with pytest.raises(ValueError, match="epsilon"):
            constant(system, eps)
    with pytest.raises(ValueError, match="epsilon"):
        diagnostics.stable_sampling_rate(frame, sampling.legendre_points(), 2.0, eps)


def test_constants_read_the_factor_of_their_own_frame():
    # the two frames have the same N and differ in the number of weighted
    # elements, so the normalized psi_0 of the first is unnormalized in the
    # second; alternating them makes the one-entry factor cache swap on
    # every call, and each constant must still read its own frame's R
    frame = frames.onb_plus_k(10, 1)
    other = frames.onb_plus_k(10, 2)
    assert frame != other
    assert frame == frames.onb_plus_k(10, 1)
    assert hash(frame) == hash(frames.onb_plus_k(10, 1))
    eps = 0.05  # above the smallest singular value of both systems
    cells = []
    for f in (frame, other):
        system = gram.build_system(f, sampling.legendre_point_scheme(20))
        r = system.kept_rank(eps)
        assert 0 < r < f.N
        R = gram.build_gram_factor.__wrapped__(f).R  # built afresh, past the cache
        kappa = np.linalg.svd(R @ (system.Vt[:r].T / system.rayleigh_quotients[:r]),
                              compute_uv=False)[0]
        lam = np.linalg.svd(R @ system.Vt[r:].T, compute_uv=False)[0] / eps
        cells.append((system, float(kappa), float(lam)))
    assert cells[0][1:] != cells[1][1:]
    for system, kappa, lam in cells * 3:
        assert diagnostics.compute_kappa(system, eps) == kappa
        assert diagnostics.compute_lambda(system, eps) == lam


def test_constants_regression_enriched_gauss_cell():
    frame, system = _cell(40, 5, sampling.legendre_point_scheme(80))
    kappa = diagnostics.compute_kappa(system, 1e-5)
    lam = diagnostics.compute_lambda(system, 1e-5)
    assert kappa == pytest.approx(3.8335014568999006, rel=1e-6)
    assert lam == pytest.approx(0.07195146655083595, rel=1e-6)


def test_kappa_matches_extended_precision_oracle():
    # full rank (cond(G) = 7e7), so kappa = 1/sqrt(A'); A' = 3.1070470398e-7
    # is a 50-digit mpmath value on the same hp rule
    frame, system = _cell(10, 5, sampling.legendre_point_scheme(10))
    eps = 1e-8
    assert diagnostics.compute_kappa(system, eps) == pytest.approx(
        1.0 / np.sqrt(3.1070470398e-7), rel=1e-9)
    [report] = diagnostics.diagnose(system, [eps])
    _assert_within_caps(report, frame, system.scheme)


def test_constants_match_dense_oracle():
    rng = np.random.default_rng(5)
    cells = [
        (8, 1, sampling.legendre_point_scheme(16), 1e-4),
        (12, 3, sampling.chebyshev_point_scheme(24), 1e-6),
        (10, 2, sampling.inner_product_scheme(20), 1e-5),
        (12, 5, sampling.equispaced_point_scheme(18), 1e-3),
        # production applies the N x N factor R, the oracle the tall H
        (60, 5, sampling.legendre_point_scheme(120), 1e-5),
        (60, 5, sampling.legendre_point_scheme(180), 1e-5),
        (40, 5, sampling.equispaced_point_scheme(80), 1e-5),
        (40, 5, sampling.inner_product_scheme(80), 1e-5),
    ]
    for N, K, scheme, eps in cells:
        frame, system = _cell(N, K, scheme)
        factor = gram.build_gram_factor(frame)
        kappa = diagnostics.compute_kappa(system, eps)
        lam = diagnostics.compute_lambda(system, eps)
        assert kappa == pytest.approx(oracles.dense_kappa(system, factor, eps), rel=1e-8)
        assert lam == pytest.approx(oracles.dense_lambda(system, factor, eps), rel=1e-8)
        sampled = oracles.random_vector_lower_estimate(system, factor, eps, 100, rng)
        assert sampled <= kappa * (1 + 1e-9)


@pytest.mark.parametrize("N, M, exact", [
    pytest.param(20, 20, None, id="20-20"),
    pytest.param(20, 40, None, id="20-40"),
    # the oracle's reading, 3 s a cell at N = 60 (constants_node_blocks.csv)
    pytest.param(60, 60, (56, 2.4964878400442986442, 5.4830883118115623865), id="60-60-frozen"),
    pytest.param(60, 120, (57, 1.5975457742313443278, 0.0028813407795938880549),
                 id="60-120-frozen"),
])
def test_inner_product_constants_match_the_exact_data_oracle(N, M, exact):
    # production reads kappa to 2.2e-12 and lambda to 7.0e-10 in these cells
    # (N = 20, M = 40 and N = 60, M = 120), from its double G and R
    eps = 1e-5
    frame, system = _cell(N, 5, sampling.inner_product_scheme(M))
    rank, kappa, lam = exact or oracles.oracle_inner_product_constants(frame, M, eps)
    assert system.kept_rank(eps) == rank
    assert diagnostics.compute_kappa(system, eps) == pytest.approx(kappa, rel=3e-11, abs=0)
    assert diagnostics.compute_lambda(system, eps) == pytest.approx(lam, rel=1e-8, abs=0)


@pytest.mark.parametrize("M", [15, 19])
def test_lambda_rejects_fewer_samples_than_elements(M):
    # the thin SVD misses the N - M null directions of G: at M = 15 (r = M)
    # it leaves lambda no columns, at M = 19 (r < M) a lambda 8.8e-8 too low
    frame, system = _cell(20, 5, sampling.legendre_point_scheme(M))
    with pytest.raises(ValueError, match="M >= N"):
        diagnostics.compute_lambda(system, 1e-5)


def test_dense_lambda_oracle_counts_the_null_directions():
    frame, system = _cell(20, 5, sampling.legendre_point_scheme(15))
    assert system.kept_rank(1e-5) == 15
    lam = oracles.dense_lambda(system, gram.build_gram_factor(frame), 1e-5)
    assert lam == pytest.approx(1.1577e4, rel=1e-4)


def test_constants_respect_all_upper_bounds():
    eps = 1e-5
    for K, scheme_builder in ((5, sampling.legendre_point_scheme),
                              (5, sampling.equispaced_point_scheme)):
        for N, mult in ((10, 2), (20, 2), (10, 4)):
            frame, system = _cell(N, K, scheme_builder(mult * N))
            kappa = diagnostics.compute_kappa(system, eps)
            lam = diagnostics.compute_lambda(system, eps)
            assert max(kappa, lam) <= np.sqrt(frame.B_upper) / eps
            a_prime = sampling.richness_estimate(system)
            cap = 1.0 / np.sqrt(a_prime)
            assert max(kappa, lam) <= cap * (1 + 1e-9)


def test_heavily_oversampled_constants_settle_near_one():
    # the asymptotic envelope for unit-richness schemes is 1/sqrt(A') = 1
    frame, system = _cell(10, 5, sampling.legendre_point_scheme(320))
    kappa = diagnostics.compute_kappa(system, 1e-5)
    lam = diagnostics.compute_lambda(system, 1e-5)
    assert kappa == pytest.approx(1.0134106773956857, rel=1e-6)
    assert lam == pytest.approx(0.3213673180534122, rel=1e-6)
    assert max(kappa, lam) < 1.2


def test_inner_product_constants_stay_below_eps_envelope():
    for N, M, eps in ((10, 10, 1e-5), (20, 40, 1e-8), (40, 40, 1e-5)):
        frame, system = _cell(N, 5, sampling.inner_product_scheme(M))
        kappa = diagnostics.compute_kappa(system, eps)
        lam = diagnostics.compute_lambda(system, eps)
        assert max(kappa, lam) <= 1.0 / np.sqrt(eps)


def test_diagnose_report_consistency():
    frame, system = _cell(12, 2, sampling.legendre_point_scheme(24))
    eps = 1e-6
    [report] = diagnostics.diagnose(system, [eps])
    assert report.kappa == pytest.approx(diagnostics.compute_kappa(system, eps))
    assert report.lam == pytest.approx(diagnostics.compute_lambda(system, eps))
    assert report.kept_rank == int(np.sum(system.singular_values > eps))
    assert (report.M, report.N) == (24, 12)
    assert report.A_prime_MN == pytest.approx(sampling.richness_estimate(system))
    _assert_within_caps(report, frame, system.scheme)


def test_sweep_grid_and_ordering():
    rows = diagnostics.constants_sweep(
        lambda n: frames.onb_plus_k(n, 2),
        sampling.legendre_points(),
        gammas=(2.0, 1.0), Ns=(10, 5), epsilons=(1e-5, 1e-8))
    assert len(rows) == 8
    keys = [(gamma, r.N, r.epsilon) for gamma, r in rows]
    assert keys == sorted(keys)
    for gamma, r in rows:
        assert r.M == max(r.N, int(np.ceil(gamma * r.N)))
        assert r.kappa > 0 and r.A_prime_MN > 0


def test_sweep_factors_each_frame_once(monkeypatch):
    # one Gram factor per frame and one Legendre table per stack of cells
    # (here one stack per N); per (gamma, N) cell one sampling of the
    # residuals for A' and one product U* G for the Rayleigh quotients of
    # every cutoff's kappa
    calls = {"_residual_samples": 0, "einsum": 0, "legendre_table": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(sampling, "_residual_samples")
    counting(np, "einsum")
    for module in (frames, sampling):
        counting(module, "legendre_table")
    gram.build_gram_factor.cache_clear()
    rows = diagnostics.constants_sweep(
        lambda n: frames.onb_plus_k(n, 2),
        sampling.legendre_points(),
        gammas=(1.0, 1.5, 2.0, 3.0), Ns=(5, 10), epsilons=(1e-5, 1e-8))
    assert len(rows) == 16
    # builds, not lookups: a miss is a call that runs the build
    assert gram.build_gram_factor.cache_info().misses == 2
    assert calls == {"_residual_samples": 8, "einsum": 8, "legendre_table": 2}


def _bits(report):
    # repr round-trips a float exactly and tells -0.0 from 0.0
    return [repr(value) for value in dataclasses.astuple(report)]


@pytest.mark.parametrize("cap", [2**14, 300])
@pytest.mark.parametrize("scheme_family", [
    sampling.chebyshev_points(),
    sampling.chebyshev_points(weighted=True),
    sampling.legendre_points(),
    sampling.equispaced_points(),
    sampling.inner_products(),
], ids=["chebyshev", "chebyshev-weighted", "legendre", "equispaced", "inner"])
def test_sweep_equals_diagnose_of_each_cell_to_the_bit(scheme_family, cap, monkeypatch):
    # cap 2^14: each N is one stack; cap 300: stacks of one or two cells at
    # N = 12.  Gammas out of order, with 1.5 and 1.6 giving M = 8 at N = 5;
    # N = 7 at K = 5 has N < 2K, where A' reads the table's rows below n
    monkeypatch.setattr(diagnostics, "_CHUNK_VALUES", cap)
    gammas, Ns, epsilons = (3.0, 1.0, 1.5, 1.6), (12, 5, 7), (1e-3, 1e-10)
    for K in (0, 1, 5):
        family = (lambda n: frames.onb_plus_k(n, K)) if K else frames.legendre_onb
        rows = diagnostics.constants_sweep(family, scheme_family, gammas, Ns, epsilons)
        expected = []
        for gamma in gammas:
            for N in Ns:
                frame, M = family(N), max(N, int(np.ceil(gamma * N)))
                system = gram.build_system(frame, scheme_family.realize(M))
                reports = diagnostics.diagnose(system, epsilons)
                expected += [(gamma, report) for report in reports]
        expected.sort(key=lambda row: (row[0], row[1].N, row[1].epsilon))
        assert [(g, _bits(r)) for g, r in rows] == [(g, _bits(r)) for g, r in expected], K


def test_sweep_stacks_stay_within_the_chunk_cap(monkeypatch):
    # 40 cells of 12 to 480 rows at N = 12, 118080 values in all, and one
    # cell of 28800 values, above the cap on its own; no stack may exceed
    # the cap unless it is a single cell, so a sweep at the CLI's size cap
    # holds one 1 GiB system at a time, not one per gamma
    stacks = []
    stacked_matrix = diagnostics._stacked_matrix

    def recording(*args):
        G, schemes, table = stacked_matrix(*args)
        stacks.append(([scheme.M for scheme in schemes], G.shape, table.shape))
        return G, schemes, table

    monkeypatch.setattr(diagnostics, "_stacked_matrix", recording)
    gammas = [200.0] + [float(g) for g in range(40, 0, -1)]
    rows = diagnostics.constants_sweep(
        lambda n: frames.onb_plus_k(n, 1), sampling.legendre_points(), gammas, (12,), (1e-5,))
    assert [gamma for gamma, _ in rows] == sorted(gammas)
    assert all(r.M == gamma * 12 for gamma, r in rows)
    assert len(stacks) > 8
    cap = diagnostics._CHUNK_VALUES
    for Ms, G_shape, table_shape in stacks:
        assert G_shape == (sum(Ms), 12) and table_shape == (12, sum(Ms))
        assert len(Ms) == 1 or sum(Ms) * 12 <= cap
    # every M once, in ascending order, and the largest cell alone
    assert sum((Ms for Ms, _, _ in stacks), []) == sorted(12 * int(g) for g in gammas)
    assert stacks[-1][0] == [2400]


def test_ssr_realizes_each_grid_step_once():
    realized = []

    def counting(M):
        realized.append(M)
        return sampling.legendre_point_scheme(M)

    frame = frames.onb_plus_k(40, 5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.SchemeFamily(counting), 2.0, 1e-8) == 170
    assert realized == list(range(40, realized[-1] + 1, 2))


def test_ssr_leaves_the_richness_data_unbuilt():
    # the residual Gram factor and the t-rule are built for A' only, once
    # per (K, N - K)
    sampling._residual_basis.cache_clear()
    frame = frames.onb_plus_k(20, 5)
    M = diagnostics.stable_sampling_rate(frame, sampling.legendre_points(), 2.0, 1e-5)
    assert M is not None and sampling._residual_basis.cache_info().currsize == 0
    for M in (20, 40):
        sampling.richness_estimate(gram.build_system(frame, sampling.legendre_point_scheme(M)))
    assert sampling._residual_basis.cache_info().currsize == 1


def test_ssr_pure_basis_needs_no_oversampling():
    for N in (5, 10):
        frame = frames.legendre_onb(N)
        assert diagnostics.stable_sampling_rate(
            frame, sampling.inner_products(), 2.0, 1e-5) == N


def test_ssr_enriched_basis_inner_products_regression():
    # one extra sample absorbs the enrichment element at small N
    frame = frames.onb_plus_k(10, 1)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.inner_products(), 2.0, 1e-5) == 11


def test_ssr_gauss_points_regression():
    frame = frames.onb_plus_k(20, 5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.legendre_points(), 2.0, 1e-5) == 64
    assert diagnostics.stable_sampling_rate(
        frame, sampling.legendre_points(), 2.0, 1e-8) == 96


def test_ssr_reports_unreachable_grid_with_sentinel():
    frame = frames.onb_plus_k(15, 5)
    result = diagnostics.stable_sampling_rate(
        frame, sampling.equispaced_points(), 2.0, 1e-5, M_max=30)
    assert result is None


def test_ssr_equispaced_oversampling_grows_superlinearly():
    thetas = {}
    for N in (5, 10):
        frame = frames.onb_plus_k(N, min(5, N - 1) if N > 5 else 1)
        thetas[N] = diagnostics.stable_sampling_rate(
            frame, sampling.equispaced_points(), 2.0, 1e-5)
    assert thetas[5] is not None and thetas[10] is not None
    assert thetas[10] / 10 > thetas[5] / 5


def test_ssr_respects_stride_grid():
    # the grid's stride is max(1, N // 20) = 3 at N = 60
    frame = frames.onb_plus_k(60, 5)
    found = diagnostics.stable_sampling_rate(frame, sampling.legendre_points(), 2.0, 1e-5)
    assert found == 183
    assert (found - 60) % 3 == 0


def _full_scan(frame, scheme_family, theta, epsilon, M_max):
    # every grid step through build_system, kappa and lambda, with no witness test
    for M in range(frame.N, M_max + 1, max(1, frame.N // 20)):
        system = gram.build_system(frame, scheme_family.realize(M))
        if (diagnostics.compute_kappa(system, epsilon) <= theta
                and diagnostics.compute_lambda(system, epsilon) <= theta):
            return M
    return None


@pytest.mark.parametrize("scheme_family", [
    sampling.chebyshev_points(),
    sampling.chebyshev_points(weighted=True),
    sampling.legendre_points(),
    sampling.equispaced_points(),
    sampling.inner_products(),
], ids=["chebyshev", "chebyshev-weighted", "legendre", "equispaced", "inner"])
def test_ssr_matches_the_full_scan(scheme_family):
    for N in (6, 12):
        for K in (0, 1, 5):
            frame = frames.onb_plus_k(N, K) if K else frames.legendre_onb(N)
            for eps in (1e-3, 1e-8, 1e-14):
                for theta in (1.2, 2.0, 8.0):
                    expected = _full_scan(frame, scheme_family, theta, eps, 8 * N)
                    found = diagnostics.stable_sampling_rate(
                        frame, scheme_family, theta, eps, M_max=8 * N)
                    assert found == expected, (N, K, eps, theta)


@pytest.mark.parametrize("N,eps", [(40, 1e-5), (40, 1e-8), (60, 1e-5), (60, 1e-8),
                                   (70, 1e-5), (80, 1e-5), (90, 1e-5),
                                   (100, 1e-5), (100, 1e-8), (200, 1e-5)])
def test_ssr_matches_the_full_scan_where_the_power_step_certifies(N, eps):
    # Legendre points with K = 5, where most full-route steps are failed by
    # one power step on R V_r D^-1 without kappa's SVD, and from N = 100 the
    # pencil's witness rules out the first step
    frame, family = frames.onb_plus_k(N, 5), sampling.legendre_points()
    expected = _full_scan(frame, family, 2.0, eps, 64 * N)
    assert diagnostics.stable_sampling_rate(frame, family, 2.0, eps) == expected


@pytest.mark.parametrize("N,r", [(1, 1), (12, 5), (200, 196)])
def test_kappa_power_step_decides_only_beyond_its_margin(N, r, monkeypatch):
    # columns of theta I with permuted rows and signs: every singular value
    # is theta, and one power step reads it exactly
    theta = 2.0
    rng = np.random.default_rng(N)
    Q = np.eye(N)[rng.permutation(N)][:, :r] * rng.choice([-1.0, 1.0], r)
    eta = 8 * (N + r) * np.sqrt(N) * np.finfo(float).eps
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert diagnostics._norm_2(theta * Q) == theta
    # within the margin the SVD decides, beyond it the power step alone
    for scale, exceeds, svds in ((1, False, 1), (1 + eta / 2, True, 1), (1 + 2 * eta, True, 0)):
        calls.clear()
        assert diagnostics._norm_2_exceeds(theta * scale * Q, theta) == exceeds
        assert len(calls) == svds, scale
    assert not diagnostics._norm_2_exceeds(np.zeros((N, 0)), theta)


def test_ssr_legendre_rate_drops_with_one_more_truncated_direction():
    # K = 5, eps = 1e-5: Theta / N is about 3 up to N = 70 and about 1.8
    # from N = 90, and N - r at M_theta goes from 3 to 4 between them
    family = sampling.legendre_points()
    for N, rate, truncated in ((70, 217, 3), (80, 168, 4)):
        frame = frames.onb_plus_k(N, 5)
        assert diagnostics.stable_sampling_rate(frame, family, 2.0, 1e-5) == rate
        system = gram.build_system(frame, family.realize(rate))
        assert N - system.kept_rank(1e-5) == truncated


def test_ssr_skips_most_svds_of_failing_steps(monkeypatch):
    # 66 grid steps (M = 40, 42, ..., 170); the pencil's witness rules out
    # the first 18 and the full route's witnesses most of the rest, and one
    # power step fails the others without kappa's SVD, so only kappa's and
    # lambda's at M_theta remain of the 17 singular-value-only SVDs a search
    # without the power step takes
    calls, norm_svds = [], []
    from_matrix = gram.GramSystem.from_matrix.__func__
    svd = np.linalg.svd

    def counting(cls, matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return from_matrix(cls, matrix, *args, **kwargs)

    def counting_norms(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            norm_svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(gram.GramSystem, "from_matrix", classmethod(counting))
    monkeypatch.setattr(np.linalg, "svd", counting_norms)
    frame = frames.onb_plus_k(40, 5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.legendre_points(), 2.0, 1e-8) == 170
    assert calls[0] == 76 and calls[-1] == 170
    assert len(calls) <= 12
    assert len(norm_svds) <= 2


def _record_scan(monkeypatch):
    """Record the grid steps of each chunk and the rows of each full-route system."""
    chunks, full = [], []
    stacked_matrix = diagnostics._stacked_matrix

    def stacking(frame, scheme_family, Ms):
        chunks.append(list(Ms))
        return stacked_matrix(frame, scheme_family, Ms)

    from_matrix = gram.GramSystem.from_matrix.__func__

    def counting(cls, matrix, *args, **kwargs):
        full.append(matrix.shape[0])
        return from_matrix(cls, matrix, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "_stacked_matrix", stacking)
    monkeypatch.setattr(gram.GramSystem, "from_matrix", classmethod(counting))
    return chunks, full


def test_ssr_crosses_chunks_as_the_full_scan_does(monkeypatch):
    frame, family = frames.onb_plus_k(40, 5), sampling.legendre_points()
    expected = _full_scan(frame, family, 2.0, 1e-8, 64 * 40)
    chunks, _ = _record_scan(monkeypatch)
    assert diagnostics.stable_sampling_rate(frame, family, 2.0, 1e-8) == expected == 170
    assert len(chunks) > 5
    # consecutive steps, and none evaluated past the chunk of the hit
    steps = sum(chunks, [])
    assert steps == list(range(40, steps[-1] + 1, 2))
    assert 170 in chunks[-1]


@pytest.mark.parametrize("cap", [1, 600])
@pytest.mark.parametrize("scheme_family", [
    sampling.chebyshev_points(),
    sampling.chebyshev_points(weighted=True),
    sampling.legendre_points(),
    sampling.equispaced_points(),
    sampling.inner_products(),
], ids=["chebyshev", "chebyshev-weighted", "legendre", "equispaced", "inner"])
def test_ssr_matches_the_full_scan_under_small_chunk_caps(scheme_family, cap, monkeypatch):
    # cap 1: every step exceeds the cap on its own and is a chunk alone;
    # cap 600: chunks of a few steps at N = 12, of many at N = 6
    monkeypatch.setattr(diagnostics, "_CHUNK_VALUES", cap)
    for N in (6, 12):
        for K in (0, 1, 5):
            frame = frames.onb_plus_k(N, K)
            for eps in (1e-3, 1e-8):
                for theta in (1.2, 2.0):
                    expected = _full_scan(frame, scheme_family, theta, eps, 8 * N)
                    chunks, _ = _record_scan(monkeypatch)
                    found = diagnostics.stable_sampling_rate(
                        frame, scheme_family, theta, eps, M_max=8 * N)
                    assert found == expected, (N, K, eps, theta)
                    assert all(len(Ms) == 1 or sum(Ms) * N <= cap for Ms in chunks)
                    if cap == 1:
                        assert max(map(len, chunks)) == 1


def test_ssr_hit_inside_a_chunk_right_after_a_full_route_step(monkeypatch):
    frame, family = frames.onb_plus_k(10, 5), sampling.legendre_points()
    expected = _full_scan(frame, family, 1.2, 1e-8, 64 * 10)
    chunks, full = _record_scan(monkeypatch)
    assert diagnostics.stable_sampling_rate(frame, family, 1.2, 1e-8) == expected == 91
    assert len(chunks) > 1
    i = chunks[-1].index(91)
    # the step before the hit, in the same chunk, took the full route
    assert i >= 1 and full[-2:] == [chunks[-1][i - 1], 91]


def test_ssr_builds_few_stacked_matrices_within_the_cap(monkeypatch):
    # 66 grid steps (M = 40, 42, ..., 170); one _system_matrix call per chunk
    shapes = []
    system_matrix = diagnostics._system_matrix

    def recording(frame, scheme, *args):
        G = system_matrix(frame, scheme, *args)
        shapes.append(G.shape)
        return G

    monkeypatch.setattr(diagnostics, "_system_matrix", recording)
    _, full = _record_scan(monkeypatch)
    frame = frames.onb_plus_k(40, 5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.legendre_points(), 2.0, 1e-8) == 170
    assert len(shapes) < 66 / 3
    # the largest step evaluated is M = 172, the one after the hit
    assert max(M * N for M, N in shapes) <= max(diagnostics._CHUNK_VALUES, 172 * 40)
    # the scan of one step at a time made 16 full-route systems here, and 12
    # once the pencil's witness rules out the first step
    assert len(full) <= 12


@pytest.mark.parametrize("N,M_theta,rows", [(100, 175, [155, 175]), (200, 360, [310, 360])],
                         ids=["100", "200"])
def test_ssr_seeds_its_first_witness_without_an_svd(N, M_theta, rows, monkeypatch):
    # one inverse-iteration step on (R* R, G* G + eps^2 I) rules out M = N,
    # whose full route the scan would otherwise take first
    _, full = _record_scan(monkeypatch)
    frame = frames.onb_plus_k(N, 5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.legendre_points(), 2.0, 1e-5) == M_theta
    assert full == rows


@pytest.mark.parametrize("solve", ["raises", "nan"])
def test_ssr_takes_the_full_route_where_the_seed_fails(solve, monkeypatch):
    def failing(a, b):
        if solve == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(b, np.nan)

    _, full = _record_scan(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", failing)
    frame = frames.onb_plus_k(100, 5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.legendre_points(), 2.0, 1e-5) == 175
    assert full == [100, 155, 175]


def test_ssr_seed_leaves_a_first_step_that_meets_theta():
    # no witness rules out a step with max(kappa, lambda) <= theta, the
    # pencil's included
    frame, family = frames.onb_plus_k(5, 1), sampling.inner_products()
    assert diagnostics.stable_sampling_rate(frame, family, 2.0, 1e-5) == 5
    assert _full_scan(frame, family, 2.0, 1e-5, 5) == 5


@pytest.mark.filterwarnings("error")
def test_ssr_at_a_tiny_epsilon_warns_of_no_overflow():
    # eps = 1e-40 makes every witness margin infinite: nothing is ruled out
    # and the seed's solve is all but singular, both silently
    frame, family = frames.onb_plus_k(10, 5), sampling.legendre_points()
    assert diagnostics.stable_sampling_rate(frame, family, 2.0, 1e-40) == 41
    assert _full_scan(frame, family, 2.0, 1e-40, 64 * 10) == 41


def test_ssr_scans_a_huge_grid_lazily():
    # a grid of 1e12 steps would not fit in memory as an array
    frame = frames.legendre_onb(5)
    assert diagnostics.stable_sampling_rate(
        frame, sampling.inner_products(), 2.0, 1e-5, M_max=10**12) == 5


def test_ssr_rejects_theta_at_or_below_one():
    frame = frames.legendre_onb(5)
    for theta in (1.0, float("nan")):
        with pytest.raises(ValueError, match="theta"):
            diagnostics.stable_sampling_rate(frame, sampling.inner_products(), theta, 1e-5)


# a single case, under its ID from when the grid's stride was a parameter
@pytest.mark.parametrize("grid,name", [
    pytest.param({"M_max": 4}, "M_max", id="grid2-M_max"),
])
def test_ssr_rejects_an_invalid_search_grid(grid, name):
    frame = frames.legendre_onb(5)
    with pytest.raises(ValueError, match=name):
        diagnostics.stable_sampling_rate(frame, sampling.inner_products(), 2.0, 1e-5, **grid)
