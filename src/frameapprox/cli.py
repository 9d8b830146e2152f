"""Command line driver for the approximation experiments.

The first argument names the experiment; the options are shared.  Each
experiment runs one parameter sweep and writes a CSV file (comma delimiter,
LF endings, 17 significant digits) that a generic plotter can consume.
selftest runs seeded analytic checks and prints one pass/fail line per check.

Exit codes: 0 success, 1 invalid configuration or out of memory, 2 numerical
failure.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, frames, gram, orthopoly, sampling, solver

DEFAULT_PROBES = (0.2, 0.5, 0.9, 1.0)
# largest sampled system M x N the CLI builds: 2^27 values, 1 GiB of doubles
MAX_SYSTEM_VALUES = 2**27
# largest K whose Gram factor constants and ssr build: at N = 11585, the
# largest N that MAX_SYSTEM_VALUES admits, one factor took 0.6 s at K = 20
# and 5 s at K = 32 on a 2-core x86-64 VM, its time doubling every 4 in K
MAX_FACTOR_K = 20
# largest K at which A' matches the extended-precision oracle (README)
MAX_VERIFIED_A_PRIME_K = 12

_SCHEME_FAMILIES = {
    "chebyshev": sampling.chebyshev_points(),
    "chebyshev-weighted": sampling.chebyshev_points(weighted=True),
    "legendre": sampling.legendre_points(),
    "equispaced": sampling.equispaced_points(),
    "inner": sampling.inner_products(),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on usage errors; route them to exit 1 instead
    def error(self, message):
        raise ConfigError(message)


def _parse_int_range(text: str, name: str) -> range:
    """Parse '40' or an inclusive 'start:step:stop' range like '5:5:60' of positive values.

    The range is never expanded into a list: the runners check its largest
    value against the system size cap, then iterate it.
    """
    text = text.strip()
    parts = text.split(":")
    try:
        if len(parts) == 1:
            start = stop = int(parts[0])
            step = 1
        elif len(parts) == 3:
            start, step, stop = (int(p) for p in parts)
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"expected an integer or start:step:stop range, got {text!r}") from None
    if step <= 0 or stop < start:
        raise ConfigError(f"empty or descending range {text!r}")
    # every value is a dimension of some system, so none may exceed the cap;
    # this also keeps the range's length within a machine integer
    if stop - (stop - start) % step > MAX_SYSTEM_VALUES:
        raise ConfigError(f"sweep {text!r} goes beyond the cap of {MAX_SYSTEM_VALUES} values")
    if start < 1:
        raise ConfigError(f"{name} values must be positive, got {start}")
    return range(start, stop + 1, step)


def _parse_float_list(text: str, name: str) -> List[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"could not parse {name} list {text!r}") from None
    if not values:
        raise ConfigError(f"{name} list is empty")
    return values


def _system_rows(M: float, N: int) -> int:
    """ceil(M), once the M x N system is known to fit MAX_SYSTEM_VALUES."""
    # compared before ceil, which would raise on an M that overflowed to inf
    if not M * N <= MAX_SYSTEM_VALUES:
        # M itself is not printed: an integer M may be too large for a float
        raise ConfigError(f"M x N at N = {N} exceeds the cap of {MAX_SYSTEM_VALUES} values")
    return max(1, math.ceil(M))


def _parse_m_rule(text: str) -> Callable[[int], int]:
    """Parse an M rule: '2N', '1.5N', 'N', or a fixed integer like '80'."""
    raw = text.strip()
    body = raw[:-1] if raw and raw[-1] in "nN" else None
    try:
        if body is not None:
            coeff = 1.0 if body == "" else float(body)
            if not 0 < coeff < math.inf:
                raise ValueError
            return lambda n: _system_rows(coeff * n, n)
        fixed = int(raw)
        if fixed < 1:
            raise ValueError
        return lambda n: _system_rows(fixed, n)
    except ValueError:
        raise ConfigError(f"could not parse M rule {text!r}") from None


_FRAMES = ("onbk", "onb")


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment run.

    Each field but experiment is named by its option (`_OPTIONS`).  N and M
    are ascending ranges of positive values, which the runners check by
    their ends and iterate without expanding.  Every value is checked here
    or by its option's parser, whichever experiment reads it; a runner
    checks only what its experiment needs besides, such as a single N or a
    system within the size cap.
    """

    experiment: str
    frame: str = "onbk"
    K: int = 1
    nodes: str = "chebyshev"
    N: range = range(0)
    M: range = range(0)
    M_rule: str = "2N"
    gammas: List[float] = field(default_factory=lambda: [2.0])
    eps: List[float] = field(default_factory=lambda: [solver.DEFAULT_EPSILON])
    theta: float = 2.0
    probes: List[float] = field(default_factory=lambda: list(DEFAULT_PROBES))
    out: Optional[Path] = None
    seed: int = 0

    def __post_init__(self):
        if self.frame not in _FRAMES:
            raise ConfigError(f"unknown frame {self.frame!r}")
        if self.nodes not in _SCHEME_FAMILIES:
            raise ConfigError(f"unknown node family {self.nodes!r}")
        if self.K < 0:
            raise ConfigError("K must be nonnegative")
        _parse_m_rule(self.M_rule)
        for gamma in self.gammas:
            if not 1 <= gamma < math.inf:
                raise ConfigError(f"gamma must be finite and at least 1, got {gamma}")
        for eps in self.eps:
            if not 0 < eps < math.inf:
                raise ConfigError("epsilon values must be positive and finite")
        for p in self.probes:
            if not 0 < p <= 1:
                raise ConfigError(f"probe point {p} outside (0, 1]")
        if not 1 < self.theta < math.inf:  # also rejects nan
            raise ConfigError("theta must be finite and exceed 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def frame_for(self, N: int) -> frames.FrameSpec:
        try:
            if self.frame == "onb":
                return frames.legendre_onb(N)
            return frames.onb_plus_k(N, self.K)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def scheme_family(self) -> sampling.SchemeFamily:
        return _SCHEME_FAMILIES[self.nodes]

    def out_path(self) -> Path:
        return self.out if self.out is not None else Path(f"{self.experiment}.csv")


def _read_config_file(path: str) -> dict:
    """Read 'key = value' lines; '#' starts a comment, blank lines ignored."""
    entries = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key.replace("-", "_")] = value
    return entries


# option -> (parser of its text, its line in --help, its flag's choices); each
# option is a flag (--M_rule spelled --M-rule), a config file key and an
# ExperimentConfig field, and a flag and a config file entry go through the
# same parser; an option given neither way leaves the field at its default
_OPTIONS = {
    "frame": (str, "frame family: enriched (onbk) or plain polynomial (onb)", _FRAMES),
    "K": (int, "number of enrichment elements", None),
    "nodes": (str, "sampling scheme family", _SCHEME_FAMILIES),
    "N": (lambda text: _parse_int_range(text, "N"), "N value or start:step:stop sweep", None),
    "M": (lambda text: _parse_int_range(text, "M"), "M value or start:step:stop sweep", None),
    "M_rule": (str, "M as a function of N, e.g. 2N, 1.5N, or a fixed integer", None),
    "gammas": (lambda text: _parse_float_list(text, "gamma"),
               "comma list of oversampling ratios", None),
    "eps": (lambda text: _parse_float_list(text, "epsilon"),
            "comma list of truncation thresholds", None),
    "theta": (float, "stability target for ssr", None),
    "probes": (lambda text: _parse_float_list(text, "probe"),
               "comma list of probe points in (0, 1]", None),
    "out": (Path, "output CSV path", None),
    "seed": (int, "seed for randomized checks", None),
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    texts = {}
    if args.config:
        texts.update(_read_config_file(args.config))
        unknown = texts.keys() - _OPTIONS.keys() - {"experiment"}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        experiment = texts.pop("experiment", args.experiment)
        if experiment != args.experiment:
            raise ConfigError(
                f"config file names experiment {experiment!r} "
                f"but the experiment argument is {args.experiment!r}"
            )
    # command-line flags win over config file entries
    for key in _OPTIONS:
        flag = getattr(args, key)
        if flag is not None:
            texts[key] = flag

    settings = {}
    for key, text in texts.items():
        try:
            settings[key] = _OPTIONS[key][0](text)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"could not parse {key} value {text!r}") from None
    # checked on the keys given, since K defaults to 1 for the enriched frame
    if settings.get("frame") == "onb" and settings.get("K"):
        raise ConfigError("frame onb has no enrichment: K must be 0")
    return ExperimentConfig(args.experiment, **settings)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    try:
        path.write_text("\n".join(lines) + "\n", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path: Path) -> None:
    # checked before the sweep, so a bad --out costs no computation
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = path.parent
    if not directory.is_dir():
        raise ConfigError(f"cannot write {path}: no directory {directory}")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write {path}: directory {directory} is not writable")


def _require_sweep(values: range, name: str) -> int:
    """The largest value of a nonempty sweep."""
    if not values:
        raise ConfigError(f"experiment requires a {name} sweep (use --{name})")
    return values[-1]


def _fits(cfg: ExperimentConfig, sizes: Iterable[Tuple[int, int]]) -> Iterator[tuple]:
    """(N, M, fit, report) of the target at each (N, M) of sizes, at the single eps."""
    # these schemas have no eps column, so a second cutoff has nowhere to go
    if len(cfg.eps) != 1:
        raise ConfigError(f"{cfg.experiment} takes a single eps")
    family = cfg.scheme_family()
    for N, M in sizes:
        # looked up on the module on each call, so that a caller can wrap it
        fit = solver.approximate(frames.target_function, cfg.frame_for(N), family,
                                 M=M, epsilon=cfg.eps[0])
        yield N, M, fit, solver.error_report(fit, frames.target_function, cfg.probes)


def run_pointwise_error(cfg: ExperimentConfig) -> Tuple[Sequence[str], List[tuple]]:
    """Pointwise error at probe points along an N sweep with M tied to N."""
    rule = _parse_m_rule(cfg.M_rule)
    rule(_require_sweep(cfg.N, "N"))  # M x N grows with N, so this checks every system
    rows = [(N, M, probe, err, report.coefficient_norm)
            for N, M, _, report in _fits(cfg, ((N, rule(N)) for N in cfg.N))
            for probe, err in zip(report.probes, report.errors)]
    return ("N", "M", "probe", "error", "coeff_norm"), rows


def run_oversampling(cfg: ExperimentConfig) -> Tuple[Sequence[str], List[tuple]]:
    """Error against M at fixed N; exposes the oversampling plateau."""
    _require_sweep(cfg.N, "N")
    if len(cfg.N) != 1:
        raise ConfigError("oversampling takes a single N")
    N = cfg.N[0]
    _system_rows(_require_sweep(cfg.M, "M"), N)
    rows = [(N, M, report.max_error, report.coefficient_norm)
            for N, M, _, report in _fits(cfg, ((N, M) for M in cfg.M))]
    return ("N", "M", "max_error", "coeff_norm"), rows


def _require_factor_k(cfg: ExperimentConfig) -> None:
    if cfg.K > MAX_FACTOR_K:
        raise ConfigError(f"{cfg.experiment} takes K up to {MAX_FACTOR_K}, got {cfg.K}")


def run_constants(cfg: ExperimentConfig) -> Tuple[Sequence[str], List[tuple]]:
    """Stability constants over a (gamma, N, epsilon) grid."""
    N_max = _require_sweep(cfg.N, "N")
    _require_factor_k(cfg)
    _system_rows(max(cfg.gammas) * N_max, N_max)
    # only a run that goes ahead is warned
    if cfg.K > MAX_VERIFIED_A_PRIME_K:
        print(f"warning: A' is verified only for K <= {MAX_VERIFIED_A_PRIME_K} (ROADMAP item 21)",
              file=sys.stderr)
    sweep = diagnostics.constants_sweep(cfg.frame_for, cfg.scheme_family(), cfg.gammas, cfg.N,
                                        cfg.eps)
    rows = [
        (gamma, r.N, r.M, r.epsilon, r.kappa, r.lam, r.kept_rank, r.A_prime_MN)
        for gamma, r in sweep
    ]
    return ("gamma", "N", "M", "eps", "kappa", "lambda", "kept_rank", "A_prime"), rows


def run_ssr(cfg: ExperimentConfig) -> Tuple[Sequence[str], List[tuple]]:
    """Stable sampling rate along an N sweep; -1 marks an unreachable target."""
    N_max = _require_sweep(cfg.N, "N")
    _system_rows(N_max, N_max)  # the first and smallest system of the largest search
    _require_factor_k(cfg)
    family = cfg.scheme_family()
    rows = []
    for N in cfg.N:
        frame = cfg.frame_for(N)
        # the search's default grid ends at M = 64 N, above the cap from N = 1449 on
        M_max = min(64 * N, MAX_SYSTEM_VALUES // N)
        for eps in cfg.eps:
            theta_M = diagnostics.stable_sampling_rate(frame, family, cfg.theta, eps, M_max=M_max)
            rows.append((N, cfg.theta, eps, -1 if theta_M is None else theta_M))
    return ("N", "theta", "eps", "M_theta"), rows


def run_single_approx(cfg: ExperimentConfig) -> Tuple[Sequence[str], List[tuple]]:
    """One approximation at fixed N and M; per-probe errors to CSV, a summary to stdout."""
    _require_sweep(cfg.N, "N")
    _require_sweep(cfg.M, "M")
    if len(cfg.N) != 1 or len(cfg.M) != 1:
        raise ConfigError("single_approx takes a single N and a single M")
    N = cfg.N[0]
    [(_, M, fit, report)] = _fits(cfg, [(N, _system_rows(cfg.M[0], N))])
    print(
        f"N={N} M={M} eps={cfg.eps[0]:g} kept_rank={fit.kept_rank} "
        f"max_error={report.max_error:.6e} coeff_norm={report.coefficient_norm:.6e}"
    )
    return ("probe", "error"), list(zip(report.probes, report.errors))


# ---------------------------------------------------------------------------
# selftest


def _check_gl_exactness():
    nodes, weights = orthopoly._gauss_legendre_cached(2)
    dev = abs(float(weights @ nodes ** 3) - 0.25)
    return dev < 1e-15, f"cubic dev {dev:.3e}"


def _check_log_integrals():
    # per-cell order must cover degree 20 times the log factor
    rule = orthopoly.hp_log_quadrature(order=32)
    worst = 0.0
    for n in range(1, 21):
        approx = rule.integrate(lambda x: orthopoly.legendre_table(n, x)[n] * np.log(x))
        closed = np.sqrt(2 * n + 1) * (-1.0) ** (n + 1) / (n * (n + 1))
        worst = max(worst, abs(approx - closed))
    return worst < 1e-11, f"max dev {worst:.3e}"


def _check_log_square():
    rule = orthopoly.hp_log_quadrature()
    dev = abs(rule.integrate(lambda x: np.log(x) ** 2) - 2.0)
    return dev < 1e-11, f"dev {dev:.3e}"


def _check_orthonormality():
    nodes, weights = orthopoly._gauss_legendre_cached(16)
    table = orthopoly.legendre_table(10, nodes)
    moments = (table * weights) @ table.T
    dev = np.abs(moments - np.eye(11)).max()
    return dev < 1e-12, f"max dev {dev:.3e}"


def _check_gram_identity():
    # the system is the identity block by construction, so this checks sample()
    scheme = sampling.inner_product_scheme(12)
    system = gram.build_system(frames.legendre_onb(8), scheme)
    data = [sampling.sample(scheme, lambda x, j=j: orthopoly.legendre_table(j, x)[j]).values
            for j in range(8)]
    dev = np.abs(np.transpose(data) - system.matrix).max()
    return dev < 1e-12, f"max dev {dev:.3e}"


def _check_tsvd_cutoff():
    system = gram.GramSystem.from_matrix(np.diag([2.0, 1.0, 0.5]))
    # strict cutoff: sigma equal to epsilon is discarded
    sol = solver.truncated_svd_solve(system, np.ones(3), epsilon=1.0)
    exact = solver.truncated_svd_solve(system, np.ones(3), epsilon=0.25)
    ok = sol.kept_rank == 1 and exact.kept_rank == 3
    ok = ok and np.allclose(exact.coefficients, [0.5, 1.0, 2.0])
    return ok, f"kept {sol.kept_rank} at tie, {exact.kept_rank} below"


def _check_projection_orthogonality():
    frame = frames.onb_plus_k(8, 1)
    system = gram.build_system(frame, sampling.legendre_point_scheme(16))
    y = sampling.sample(system.scheme, frames.target_function).values
    sol = solver.truncated_svd_solve(system, y, epsilon=1e-8)
    kept = system.matrix @ system.Vt[: sol.kept_rank].T
    residual = y - system.matrix @ sol.coefficients
    dev = np.abs(kept.T @ residual).max()
    return dev < 1e-9, f"max dev {dev:.3e}"


def _check_bound_invariants():
    worst = 0.0
    for gamma in (1, 2):
        frame = frames.onb_plus_k(10, 2)
        system = gram.build_system(frame, sampling.legendre_point_scheme(10 * gamma))
        eps = 1e-5
        kappa = diagnostics.compute_kappa(system, eps)
        lam = diagnostics.compute_lambda(system, eps)
        cap_b = np.sqrt(frame.B_upper) / eps
        cap_a = 1.0 / np.sqrt(sampling.richness_estimate(system))
        worst = max(worst, kappa / cap_b, lam / cap_b,
                    kappa / (cap_a * (1 + 1e-9)), lam / (cap_a * (1 + 1e-9)))
    return worst <= 1.0, f"worst cap ratio {worst:.6f}"


def _check_error_bound(rng):
    frame = frames.onb_plus_k(12, 1)
    approx = solver.approximate(
        frames.target_function, frame, sampling.legendre_points(), M=24, epsilon=1e-6
    )
    for _ in range(5):
        z = rng.standard_normal(frame.N)
        err = solver.verify_error_bound(approx, frames.target_function, z)
        coeff = solver.verify_coefficient_bound(approx, frames.target_function, z)
        if not (err.holds and coeff.holds):
            return False, "inequality violated"
    return True, "5 random z ok"


def run_selftest(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks = [
        ("gauss-legendre-exactness", _check_gl_exactness),
        ("hp-log-integrals", _check_log_integrals),
        ("hp-log-square-norm", _check_log_square),
        ("legendre-orthonormality", _check_orthonormality),
        ("onb-gram-identity", _check_gram_identity),
        ("tsvd-strict-cutoff", _check_tsvd_cutoff),
        ("projection-orthogonality", _check_projection_orthogonality),
        ("stability-bound-invariants", _check_bound_invariants),
        ("error-bound-random-z", lambda: _check_error_bound(rng)),
    ]
    failures = 0
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
        failures += not ok
    print(f"selftest: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------


# experiment -> (its line in --help, its runner); selftest prints its checks,
# and every other runner returns the header and rows of its CSV
_EXPERIMENTS = {
    "pointwise_error": ("error at probe points along an N sweep", run_pointwise_error),
    "oversampling": ("error against M at fixed N", run_oversampling),
    "constants": ("stability constants over a (gamma, N, eps) grid", run_constants),
    "ssr": ("stable sampling rate along an N sweep", run_ssr),
    "single_approx": ("one approximation at fixed N and M", run_single_approx),
    "selftest": ("seeded analytic and invariant checks", run_selftest),
}

# built once, since each add_argument call sizes a help formatter to the terminal
_PARSER = _Parser(prog="frameapprox", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter, epilog="experiments:\n"
                  + "\n".join(f"  {name:<16} {text}" for name, (text, _) in _EXPERIMENTS.items()))
_PARSER.add_argument("experiment", choices=_EXPERIMENTS, metavar="experiment",
                     help="experiment to run (listed below)")
for _key, (_, _help, _choices) in _OPTIONS.items():
    _PARSER.add_argument("--" + _key.replace("_", "-"), choices=_choices, help=_help)
# accepted only as 1 and ignored, for callers that still pass it; it goes
# when the benchmark's commands drop it (ROADMAP item 23)
_PARSER.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
_PARSER.add_argument("--config", help="key = value config file")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = _build_config(args)
        _, run = _EXPERIMENTS[cfg.experiment]
        if cfg.experiment == "selftest":
            return run(cfg)
        path = cfg.out_path()
        _check_writable(path)
        header, rows = run(cfg)
        _write_csv(path, header, rows)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a step below the size cap can still ask for more than the machine
        # has: numpy's Gauss-Legendre rule forms an M x M matrix
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
