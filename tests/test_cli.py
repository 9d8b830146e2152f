"""Experiment driver: flags, file formats, exit codes, determinism."""

import argparse
import dataclasses
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frameapprox import blas, cli, orthopoly, sampling


def _read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def test_pointwise_error_schema(tmp_path):
    out = tmp_path / "pe.csv"
    code = cli.main(["pointwise_error", "--K", "1", "--N", "5:5:15",
                     "--M-rule", "2N", "--eps", "1e-10", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["N", "M", "probe", "error", "coeff_norm"]
    assert len(rows) == 3 * 4  # three N values, four default probes
    probes = sorted({float(r[2]) for r in rows})
    assert probes == [0.2, 0.5, 0.9, 1.0]
    # 17 significant digit round trip
    assert rows[0][2] == format(0.2, ".17g")
    for r in rows:
        assert int(r[1]) == 2 * int(r[0])
        assert float(r[3]) >= 0


def test_pointwise_error_fixed_m_rule(tmp_path):
    out = tmp_path / "pe.csv"
    assert cli.main(["pointwise_error", "--N", "5:5:10", "--M-rule", "30",
                     "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert {r[1] for r in rows} == {"30"}


def test_oversampling_schema(tmp_path):
    out = tmp_path / "os.csv"
    code = cli.main(["oversampling", "--K", "1", "--N", "10", "--nodes", "legendre",
                     "--M", "10:10:30", "--eps", "1e-12", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["N", "M", "max_error", "coeff_norm"]
    assert [r[1] for r in rows] == ["10", "20", "30"]


def test_constants_schema_and_order(tmp_path):
    out = tmp_path / "c.csv"
    code = cli.main(["constants", "--K", "2", "--nodes", "legendre",
                     "--N", "5:5:10", "--gammas", "2,1", "--eps", "1e-5,1e-8",
                     "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["gamma", "N", "M", "eps", "kappa", "lambda", "kept_rank", "A_prime"]
    assert len(rows) == 8
    keys = [(float(r[0]), int(r[1]), float(r[3])) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("K, warned", [(5, False), (14, True)])
def test_constants_warns_past_the_verified_a_prime_range(K, warned, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.main(["constants", "--K", str(K), "--nodes", "legendre", "--N", str(K + 2),
                     "--gammas", "2", "--eps", "1e-5", "--out", str(out)]) == 0
    warning = "warning: A' is verified only for K <= 12 (ROADMAP item 21)\n"
    assert capsys.readouterr().err == (warning if warned else "")
    _, rows = _read_csv(out)
    assert len(rows) == 1


def test_rejected_constants_run_is_not_warned(tmp_path, capsys):
    # K = 14 would warn, but the gamma is invalid, so only the error is written
    out = tmp_path / "c.csv"
    assert cli.main(["constants", "--K", "14", "--N", "20", "--gammas", "0.5",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: gamma must be finite and at least 1, got 0.5\n"
    assert not out.exists()


def test_ssr_search_grid_stays_within_the_system_cap(tmp_path, monkeypatch):
    # 64 N x N is within 2^27 values up to N = 1448 and above it from N = 1449
    seen = {}

    def record(frame, family, theta, eps, M_max=None):
        seen[frame.N] = M_max

    monkeypatch.setattr(cli.diagnostics, "stable_sampling_rate", record)
    assert cli.main(["ssr", "--N", "1448:1:1449", "--eps", "1e-5",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert seen == {1448: 64 * 1448, 1449: cli.MAX_SYSTEM_VALUES // 1449}
    assert 1449 * seen[1449] <= cli.MAX_SYSTEM_VALUES < 1449 * 64 * 1449


def test_ssr_schema(tmp_path):
    out = tmp_path / "s.csv"
    code = cli.main(["ssr", "--K", "1", "--nodes", "inner", "--theta", "2",
                     "--N", "5:5:10", "--eps", "1e-5", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["N", "theta", "eps", "M_theta"]
    assert [int(r[3]) for r in rows] == [5, 11]


def test_ssr_writes_sentinel_for_unreachable_target(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.diagnostics, "stable_sampling_rate",
                        lambda *a, **k: None)
    out = tmp_path / "s.csv"
    assert cli.main(["ssr", "--N", "5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert rows[0][3] == "-1"


def test_single_approx_summary(tmp_path, capsys):
    out = tmp_path / "sa.csv"
    code = cli.main(["single_approx", "--K", "1", "--N", "10", "--M", "20",
                     "--nodes", "legendre", "--eps", "1e-10", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "kept_rank=" in captured and "max_error=" in captured
    header, rows = _read_csv(out)
    assert header == ["probe", "error"]
    assert len(rows) == 4


@pytest.mark.parametrize("argv", [
    ["pointwise_error", "--N", "5:5:10", "--eps", "0"],
    ["pointwise_error", "--N", "10:5:5"],
    ["pointwise_error", "--N", "abc"],
    ["pointwise_error"],  # missing N sweep
    ["pointwise_error", "--N", "5", "--probes", "0.5,1.5"],
    ["pointwise_error", "--N", "5", "--M-rule", "-2N"],
    ["oversampling", "--N", "5:5:10", "--M", "10:10:20"],
    ["oversampling", "--N", "10"],  # missing M sweep
    ["constants", "--N", "5", "--gammas", "0.5"],
    ["ssr", "--N", "5", "--theta", "1.0"],
    ["single_approx", "--N", "5", "--M", "10:10:20"],
    ["pointwise_error", "--N", "5", "--K", "-1"],
    ["bogus_experiment"],
    ["pointwise_error", "--N", "5", "--nodes", "hermite"],
    ["pointwise_error", "--N", "5:5:10", "--K", "10"],  # K exceeds an N
    ["pointwise_error", "--frame", "onb", "--N", "10", "--K", "3"],
    # the Gram factor's exact elimination grows steeply with K
    ["constants", "--K", "100", "--N", "210", "--gammas", "1"],
    ["ssr", "--K", "100", "--N", "210"],
    # schemas without an eps column take one cutoff
    ["pointwise_error", "--N", "5", "--eps", "1e-5,1e-8"],
    ["oversampling", "--N", "10", "--M", "10:10:20", "--eps", "1e-5,1e-8"],
    ["single_approx", "--N", "10", "--M", "20", "--eps", "1e-5,1e-8"],
    # non-finite values, which no comparison with a bound catches
    ["ssr", "--N", "5", "--theta", "nan"],
    ["constants", "--N", "5", "--gammas", "nan"],
    ["constants", "--N", "5", "--gammas", "inf"],
    ["pointwise_error", "--N", "5", "--M-rule", "nanN"],
    ["pointwise_error", "--N", "5", "--M-rule", "infN"],
    ["--N", "5"],  # no experiment
    ["--N", "5", "bogus_experiment"],
    # a cutoff above every singular value keeps nothing
    ["constants", "--N", "5", "--eps", "inf"],
    ["pointwise_error", "--N", "5", "--eps", "inf"],
    ["ssr", "--N", "5", "--eps", "inf"],
    ["ssr", "--N", "5", "--theta", "inf"],
    ["selftest", "--seed", "-1"],  # numpy's generator takes no negative seed
    ["constants", "--N", "5", "--workers", "2"],  # only 1 is accepted
])
def test_invalid_configurations_exit_one(argv, tmp_path, capsys):
    code = cli.main(argv + ["--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["pointwise_error", "--N", "5", "--M-rule", "1e300N"],
    ["pointwise_error", "--N", "5", "--M-rule", "1e308N"],  # coefficient times N is inf
    ["pointwise_error", "--N", "5", "--M-rule", "100000000000"],
    ["pointwise_error", "--N", "5:5:20", "--M-rule", "2000000N"],  # only N >= 10 is too big
    ["constants", "--N", "5", "--gammas", "1e300"],
    ["oversampling", "--N", "5", "--M", "100000000000"],
    ["oversampling", "--N", "5", "--M", "1" + "0" * 400],  # no float holds this M
    ["single_approx", "--N", "5", "--M", "100000000000"],
    ["ssr", "--N", "20000"],
    # ranges whose list alone would not fit in memory
    ["oversampling", "--N", "5", "--M", "1:1:100000000000"],
    ["pointwise_error", "--N", "5:5:100000000000"],
    ["constants", "--N", "5:1:" + "1" + "0" * 400],
    # 2^27 values, each within the cap alone: too long to expand, too big at N = 5
    ["oversampling", "--N", "5", "--M", "1:1:134217728"],
    # single values too large for a float
    ["pointwise_error", "--N", "1" + "0" * 400],
    ["constants", "--N", "1" + "0" * 400],
])
def test_oversized_systems_exit_one_before_computing(argv, tmp_path):
    # in a child limited to 1.5 GB of address space, so that a sweep expanded
    # into a list fails there with a MemoryError
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSE_TO_COMPUTE, *argv, "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},  # one BLAS buffer, whatever the cores
    )
    assert proc.returncode == 1, proc.stderr
    err = proc.stderr
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"cap of {cli.MAX_SYSTEM_VALUES} values" in err


_REFUSE_TO_COMPUTE = """
import sys
from frameapprox import cli

def refuse(*args, **kwargs):
    raise AssertionError("computed before the system size was checked")

for owner, name in ((cli.solver, "approximate"), (cli.diagnostics, "constants_sweep"),
                    (cli.diagnostics, "stable_sampling_rate")):
    setattr(owner, name, refuse)
sys.exit(cli.main(sys.argv[1:]))
"""


def _limit_address_space():
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_out_of_memory_exits_one_with_an_error_line(tmp_path):
    # M N = 2e5 is far inside the cap, but numpy's Gauss-Legendre rule asks
    # for an M x M companion matrix of 74.5 GiB
    argv = ["oversampling", "--frame", "onb", "--nodes", "legendre", "--N", "2",
            "--M", "100000", "--out", str(tmp_path / "x.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "frameapprox.cli", *argv],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_second_main_call_builds_no_parser(tmp_path, monkeypatch):
    argv = ["pointwise_error", "--N", "5", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 0
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert cli.main(argv) == 0
    assert calls == []


# expected configurations as the parser with one subparser per experiment gave them
@pytest.mark.parametrize("argv,expected", [
    (["pointwise_error", "--frame", "onbk", "--K", "5", "--nodes", "chebyshev",
      "--M-rule", "1.5N", "--N", "5:5:20", "--eps", "2e-13", "--probes", "0.2,0.5,0.9",
      "--out", "pe.csv"],
     cli.ExperimentConfig("pointwise_error", K=5, N_values=range(5, 21, 5), M_rule="1.5N",
                          epsilons=[2e-13], probes=[0.2, 0.5, 0.9], out=Path("pe.csv"))),
    (["oversampling", "--K", "2", "--N", "46",
      "--nodes", "legendre", "--M", "40:40:200", "--seed", "3"],
     cli.ExperimentConfig("oversampling", K=2, nodes="legendre",
                          N_values=range(46, 47), M_values=range(40, 201, 40), seed=3)),
    (["constants", "--K", "5", "--eps", "1e-5,1e-8", "--gammas", "1,1.5,2,3",
      "--nodes", "equispaced", "--N", "5:5:20"],
     cli.ExperimentConfig("constants", K=5, nodes="equispaced", N_values=range(5, 21, 5),
                          gammas=[1.0, 1.5, 2.0, 3.0], epsilons=[1e-5, 1e-8])),
    (["ssr", "--K", "1", "--nodes", "inner", "--theta", "2.5", "--N", "5:5:15",
      "--eps", "1e-5"],
     cli.ExperimentConfig("ssr", nodes="inner", N_values=range(5, 16, 5), epsilons=[1e-5],
                          theta=2.5)),
    (["single_approx", "--frame", "onb", "--K", "0", "--N", "20", "--M", "40",
      "--nodes", "chebyshev-weighted", "--eps", "2e-13"],
     cli.ExperimentConfig("single_approx", frame="onb", K=0, nodes="chebyshev-weighted",
                          N_values=range(20, 21), M_values=range(40, 41), epsilons=[2e-13])),
    (["selftest", "--seed", "7"], cli.ExperimentConfig("selftest", seed=7)),
])
def test_parsed_configuration(argv, expected, tmp_path):
    assert cli._build_config(cli._PARSER.parse_args(argv)) == expected
    # the same keys from a config file give the same configuration
    experiment, options = argv[0], argv[1:]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{flag.lstrip('-')} = {value}\n"
                              for flag, value in zip(options[::2], options[1::2])))
    args = cli._PARSER.parse_args([experiment, "--config", str(config)])
    assert cli._build_config(args) == expected


def test_options_may_precede_the_experiment(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["--K", "2", "--nodes", "legendre", "constants", "--N", "5",
                     "--out", str(a)]) == 0
    assert cli.main(["constants", "--K", "2", "--nodes", "legendre", "--N", "5",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["constants", "--help"]])
def test_help_lists_every_experiment(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("pointwise_error", "oversampling", "constants", "ssr", "single_approx",
                 "selftest"):
        assert f"\n  {name} " in out


@pytest.mark.parametrize("name,builder", [
    ("chebyshev", sampling.chebyshev_point_scheme),
    ("chebyshev-weighted", lambda M: sampling.chebyshev_point_scheme(M, weighted=True)),
    ("legendre", sampling.legendre_point_scheme),
    ("equispaced", sampling.equispaced_point_scheme),
    ("inner", sampling.inner_product_scheme),
])
def test_node_names_select_their_scheme(name, builder):
    got = cli.ExperimentConfig("constants", nodes=name).scheme_family().realize(12)
    want = builder(12)
    assert (got.nodes is None) is (want.nodes is None)
    for attr in ("nodes", "scales"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert (a is None and b is None) or np.array_equal(a, b)


def test_numerical_failure_exits_two(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(cli.solver, "approximate", boom)
    code = cli.main(["pointwise_error", "--N", "5",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "experiment = pointwise_error\n"
        "K = 1\n"
        "nodes = legendre  # sampling family\n"
        "\n"
        "M_rule = 2N\n"
        "N = 5:5:10\n"
        "eps = 1e-10\n"
    )
    out = tmp_path / "a.csv"
    assert cli.main(["pointwise_error", "--config", str(config),
                     "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert sorted({r[0] for r in rows}) == ["10", "5"]


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("N = 5:5:10\neps = 1e-10\n")
    out = tmp_path / "b.csv"
    assert cli.main(["pointwise_error", "--config", str(config),
                     "--N", "5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert {r[0] for r in rows} == {"5"}


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("frobnicate = 3\n")
    assert cli.main(["pointwise_error", "--config", str(bad_key), "--N", "5"]) == 1

    mismatch = tmp_path / "mismatch.cfg"
    mismatch.write_text("experiment = constants\n")
    assert cli.main(["pointwise_error", "--config", str(mismatch), "--N", "5"]) == 1

    assert cli.main(["pointwise_error", "--config", str(tmp_path / "missing.cfg"),
                     "--N", "5"]) == 1

    # the worker pool is gone, so workers is an unknown key
    bad_workers = tmp_path / "workers.cfg"
    bad_workers.write_text("workers = 1\n")
    assert cli.main(["pointwise_error", "--config", str(bad_workers), "--N", "5"]) == 1

    enriched = tmp_path / "enriched.cfg"
    enriched.write_text("K = 3\n")
    assert cli.main(["pointwise_error", "--config", str(enriched), "--frame", "onb",
                     "--N", "5"]) == 1


def test_plain_frame_accepts_zero_enrichment(tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main(["pointwise_error", "--frame", "onb", "--K", "0", "--N", "5",
                     "--out", str(out)]) == 0
    assert cli.main(["pointwise_error", "--frame", "onb", "--N", "5", "--out", str(out)]) == 0


def test_unwritable_output_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["pointwise_error", "--N", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize("out", [
    lambda tmp_path: str(tmp_path / "missing" / "x.csv"),
    lambda tmp_path: str(tmp_path),
    lambda tmp_path: "",  # the working directory
], ids=["missing_directory", "existing_directory", "empty_path"])
def test_unwritable_output_checked_before_computing(out, tmp_path, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")
    monkeypatch.setattr(cli.diagnostics, "constants_sweep", sweep)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["constants", "--N", "5", "--out", out(tmp_path)]) == 1


def test_output_files_are_deterministic(tmp_path):
    args = ["pointwise_error", "--K", "1", "--N", "5:5:10", "--eps", "1e-12"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def blas_threads(monkeypatch):
    """get() of numpy's OpenBLAS thread count, or None for another BLAS."""
    for name in blas.THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    calls = blas.openblas_thread_calls()
    return calls[0] if calls else None


def _count_reader(monkeypatch, get, seen):
    """Record the BLAS thread count inside every SVD the library takes."""
    svd = np.linalg.svd

    def reader(*args, **kwargs):
        seen.append(get() if get else None)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", reader)


# one approximation: one SVD, of the 10 x 5 system
_ONE_SVD = ["single_approx", "--N", "5", "--M", "10"]


def test_blas_pinned_to_one_thread_during_a_run(tmp_path, monkeypatch, blas_threads):
    seen = []
    _count_reader(monkeypatch, blas_threads, seen)
    assert cli.main(_ONE_SVD + ["--out", str(tmp_path / "s.csv")]) == 0
    assert len(seen) == 1
    if blas_threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert seen == [1]


@pytest.mark.parametrize("argv,code", [
    (["constants", "--N", "5"], 0),
    (["constants", "--N", "5", "--gammas", "0.5"], 1),  # found inside the run
    (["pointwise_error", "--N", "5"], 2),
])
def test_blas_thread_count_restored_on_every_exit(argv, code, tmp_path, monkeypatch,
                                                  blas_threads):
    # raised inside approximate, so the exit 2 leaves a pinned entry point
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(cli.solver, "truncated_svd_solve", boom)
    before = blas_threads() if blas_threads else None
    assert cli.main(argv + ["--out", str(tmp_path / "x.csv")]) == code
    if blas_threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert blas_threads() == before


@pytest.mark.parametrize("name", blas.THREAD_VARS)
def test_blas_pin_defers_to_exported_thread_count(name, tmp_path, monkeypatch, blas_threads):
    monkeypatch.setenv(name, "2")
    seen = []
    _count_reader(monkeypatch, blas_threads, seen)
    before = blas_threads() if blas_threads else None
    assert cli.main(_ONE_SVD + ["--out", str(tmp_path / "s.csv")]) == 0
    assert seen == [before]


@pytest.fixture
def fresh_blas_lookup():
    """Clear the cached BLAS lookup before and after a test that patches what it reads."""
    blas.openblas_thread_calls.cache_clear()
    yield
    blas.openblas_thread_calls.cache_clear()


def test_blas_lookup_made_once_per_process(tmp_path, monkeypatch, fresh_blas_lookup):
    # the exported-variable check stays per call
    # (test_blas_pin_defers_to_exported_thread_count)
    for name in blas.THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    lookups = []
    show_config = np.show_config

    def counting(*args, **kwargs):
        lookups.append(kwargs)
        return show_config(*args, **kwargs)

    monkeypatch.setattr(np, "show_config", counting)
    for name in ("a.csv", "b.csv"):
        assert cli.main(["constants", "--N", "5", "--out", str(tmp_path / name)]) == 0
    assert len(lookups) == 1


@pytest.mark.parametrize("patch", ["other_blas", "old_numpy", "no_symbols"])
def test_blas_pin_is_a_no_op_without_openblas(patch, tmp_path, monkeypatch, fresh_blas_lookup):
    if patch == "other_blas":
        monkeypatch.setattr(np, "show_config", lambda mode=None: {
            "Build Dependencies": {"blas": {"name": "accelerate"}}})
    elif patch == "old_numpy":  # show_config() takes no mode before numpy 1.25
        monkeypatch.setattr(np, "show_config", lambda: None)
    else:
        monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: object())
    assert blas.openblas_thread_calls() is None
    out = tmp_path / "c.csv"
    assert cli.main(["constants", "--N", "5", "--out", str(out)]) == 0
    assert out.exists()


def test_selftest_passes_on_fresh_build(capsys):
    assert cli.main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 9
    assert "FAIL" not in out


def test_selftest_detects_corrupted_quadrature(capsys, monkeypatch):
    true_rule = orthopoly.hp_log_quadrature

    def corrupted(levels=40, order=10):
        rule = true_rule(levels, order)
        return orthopoly.QuadratureRule(rule.nodes, rule.weights * 1.001)

    monkeypatch.setattr(cli.orthopoly, "hp_log_quadrature", corrupted)
    assert cli.main(["selftest", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "hp-log-integrals: FAIL" in out


def test_selftest_reports_are_byte_identical():
    runs = [
        subprocess.run([sys.executable, "-m", "frameapprox.cli", "selftest",
                        "--seed", "42"], capture_output=True)
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_import_loads_no_scipy(tmp_path):
    # scipy is not a dependency: neither the import nor an A' loads it
    code = ("import sys, frameapprox, frameapprox.cli; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "constants.csv"
    code = ("import sys; from frameapprox.cli import main; "
            f"code = main(['constants', '--K', '5', '--N', '10', '--out', {str(out)!r}]); "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[1].split(",")[-1] != ""  # a row with its A'


def test_import_loads_no_thread_pool():
    # nothing runs on a thread pool, so neither concurrent.futures nor the
    # logging it loads may slow the start-up
    code = ("import sys, frameapprox, frameapprox.cli; "
            "assert 'concurrent.futures' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script_installed():
    exe = shutil.which("frameapprox")
    assert exe is not None
    proc = subprocess.run([exe, "selftest", "--seed", "1"], capture_output=True)
    assert proc.returncode == 0
