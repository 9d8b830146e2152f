"""Command line driver for the approximation experiments.

The first argument names the experiment; the options are shared.  Each
experiment runs one parameter sweep and writes a CSV file (comma delimiter,
LF endings, 17 significant digits) that a generic plotter can consume.
selftest runs seeded analytic checks and prints one pass/fail line per check.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

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
_EXPERIMENTS = {
    "pointwise_error": "error at probe points along an N sweep",
    "oversampling": "error against M at fixed N",
    "constants": "stability constants over a (gamma, N, eps) grid",
    "ssr": "stable sampling rate along an N sweep",
    "single_approx": "one approximation at fixed N and M",
    "selftest": "seeded analytic and invariant checks",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on usage errors; route them to exit 1 instead
    def error(self, message):
        raise ConfigError(message)


def _parse_int_range(text: str) -> range:
    """Parse '40' or an inclusive 'start:step:stop' range like '5:5:60'.

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


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment run.

    N_values and M_values are ascending ranges, which the runners check by
    their ends and iterate without expanding.
    """

    experiment: str
    frame: str = "onbk"
    K: int = 1
    nodes: str = "chebyshev"
    N_values: range = range(0)
    M_values: range = range(0)
    M_rule: str = "2N"
    gammas: List[float] = field(default_factory=lambda: [2.0])
    epsilons: List[float] = field(default_factory=lambda: [1e-13])
    theta: float = 2.0
    probes: List[float] = field(default_factory=lambda: list(DEFAULT_PROBES))
    out: Optional[Path] = None
    seed: int = 0

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.frame not in ("onbk", "onb"):
            raise ConfigError(f"unknown frame {self.frame!r}")
        if self.nodes not in _SCHEME_FAMILIES:
            raise ConfigError(f"unknown node family {self.nodes!r}")
        if self.K < 0:
            raise ConfigError("K must be nonnegative")
        for eps in self.epsilons:
            if not 0 < eps < math.inf:
                raise ConfigError("epsilon values must be positive and finite")
        if not self.epsilons:
            raise ConfigError("epsilon sweep is empty")
        for p in self.probes:
            if not 0 < p <= 1:
                raise ConfigError(f"probe point {p} outside (0, 1]")
        if not self.probes:
            raise ConfigError("probe list is empty")
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


# config key -> (ExperimentConfig field, parser of its text); a flag and a
# config file entry go through the same parser, and a key given neither way
# leaves the field at its default
_CONFIG_KEYS = {
    "experiment": ("experiment", str),
    "frame": ("frame", str),
    "K": ("K", int),
    "nodes": ("nodes", str),
    "N": ("N_values", _parse_int_range),
    "M": ("M_values", _parse_int_range),
    "M_rule": ("M_rule", str),
    "gammas": ("gammas", lambda text: _parse_float_list(text, "gamma")),
    "eps": ("epsilons", lambda text: _parse_float_list(text, "epsilon")),
    "theta": ("theta", float),
    "probes": ("probes", lambda text: _parse_float_list(text, "probe")),
    "out": ("out", Path),
    "seed": ("seed", int),
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    texts = {}
    if args.config:
        texts.update(_read_config_file(args.config))
        unknown = set(texts) - _CONFIG_KEYS.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "experiment" in texts and texts["experiment"] != args.experiment:
            raise ConfigError(
                f"config file names experiment {texts['experiment']!r} "
                f"but the experiment argument is {args.experiment!r}"
            )
    # command-line flags win over config file entries
    for key, flag in vars(args).items():
        if key in _CONFIG_KEYS and flag is not None:
            texts[key] = flag

    settings = {}
    for key, text in texts.items():
        name, parse = _CONFIG_KEYS[key]
        try:
            settings[name] = parse(text)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"could not parse {key} value {text!r}") from None
    # checked on the keys given, since K defaults to 1 for the enriched frame
    if settings.get("frame") == "onb" and settings.get("K"):
        raise ConfigError("frame onb has no enrichment: K must be 0")
    return ExperimentConfig(**settings)


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
    """The largest value of a nonempty ascending sweep of positive values."""
    if not values:
        raise ConfigError(f"experiment requires a {name} sweep (use --{name})")
    if values[0] < 1:
        raise ConfigError(f"{name} values must be positive, got {values[0]}")
    return values[-1]


def _single_epsilon(cfg: ExperimentConfig) -> float:
    # these schemas have no eps column, so a second cutoff has nowhere to go
    if len(cfg.epsilons) != 1:
        raise ConfigError(f"{cfg.experiment} takes a single eps")
    return cfg.epsilons[0]


def run_pointwise_error(cfg: ExperimentConfig) -> Path:
    """Pointwise error at probe points along an N sweep with M tied to N."""
    Ns = cfg.N_values
    rule = _parse_m_rule(cfg.M_rule)
    rule(_require_sweep(Ns, "N"))  # M x N grows with N, so this checks every system
    eps = _single_epsilon(cfg)
    family = cfg.scheme_family()
    rows = []
    for N in Ns:
        M = rule(N)
        frame = cfg.frame_for(N)
        approx = solver.approximate(frames.target_function, frame, family, M=M, epsilon=eps)
        report = solver.error_report(approx, frames.target_function, cfg.probes)
        for probe, err in zip(report.probes, report.errors):
            rows.append((N, M, probe, err, report.coefficient_norm))
    path = cfg.out_path()
    _write_csv(path, ("N", "M", "probe", "error", "coeff_norm"), rows)
    return path


def run_oversampling(cfg: ExperimentConfig) -> Path:
    """Error against M at fixed N; exposes the oversampling plateau."""
    Ns, Ms = cfg.N_values, cfg.M_values
    _require_sweep(Ns, "N")
    if len(Ns) != 1:
        raise ConfigError("oversampling takes a single N")
    N = Ns[0]
    _system_rows(_require_sweep(Ms, "M"), N)
    eps = _single_epsilon(cfg)
    frame = cfg.frame_for(N)
    family = cfg.scheme_family()
    rows = []
    for M in Ms:
        approx = solver.approximate(frames.target_function, frame, family, M=M, epsilon=eps)
        report = solver.error_report(approx, frames.target_function, cfg.probes)
        rows.append((N, M, report.max_error, report.coefficient_norm))
    path = cfg.out_path()
    _write_csv(path, ("N", "M", "max_error", "coeff_norm"), rows)
    return path


def _require_factor_k(cfg: ExperimentConfig) -> None:
    if cfg.K > MAX_FACTOR_K:
        raise ConfigError(f"{cfg.experiment} takes K up to {MAX_FACTOR_K}, got {cfg.K}")


def run_constants(cfg: ExperimentConfig) -> Path:
    """Stability constants over a (gamma, N, epsilon) grid."""
    Ns = cfg.N_values
    N_max = _require_sweep(Ns, "N")
    _require_factor_k(cfg)
    for gamma in cfg.gammas:
        if not 1 <= gamma < math.inf:
            raise ConfigError(f"gamma must be finite and at least 1, got {gamma}")
        _system_rows(gamma * N_max, N_max)
    # only a run that goes ahead is warned
    if cfg.K > MAX_VERIFIED_A_PRIME_K:
        print(f"warning: A' is verified only for K <= {MAX_VERIFIED_A_PRIME_K} (ROADMAP item 21)",
              file=sys.stderr)
    sweep = diagnostics.constants_sweep(
        cfg.frame_for, cfg.scheme_family(), cfg.gammas, Ns, cfg.epsilons
    )
    rows = [
        (gamma, r.N, r.M, r.epsilon, r.kappa, r.lam, r.kept_rank, r.A_prime_MN)
        for gamma, r in sweep
    ]
    path = cfg.out_path()
    _write_csv(path, ("gamma", "N", "M", "eps", "kappa", "lambda", "kept_rank", "A_prime"), rows)
    return path


def run_ssr(cfg: ExperimentConfig) -> Path:
    """Stable sampling rate along an N sweep; -1 marks an unreachable target."""
    Ns = cfg.N_values
    N_max = _require_sweep(Ns, "N")
    _system_rows(N_max, N_max)  # the first and smallest system of the largest search
    _require_factor_k(cfg)
    family = cfg.scheme_family()
    rows = []
    for N in Ns:
        frame = cfg.frame_for(N)
        # the search's default grid ends at M = 64 N, above the cap from N = 1449 on
        M_max = min(64 * N, MAX_SYSTEM_VALUES // N)
        for eps in cfg.epsilons:
            theta_M = diagnostics.stable_sampling_rate(frame, family, cfg.theta, eps, M_max=M_max)
            rows.append((N, cfg.theta, eps, -1 if theta_M is None else theta_M))
    path = cfg.out_path()
    _write_csv(path, ("N", "theta", "eps", "M_theta"), rows)
    return path


def run_single_approx(cfg: ExperimentConfig) -> Path:
    """One approximation at fixed N and M; per-probe errors to CSV."""
    Ns, Ms = cfg.N_values, cfg.M_values
    _require_sweep(Ns, "N")
    _require_sweep(Ms, "M")
    if len(Ns) != 1 or len(Ms) != 1:
        raise ConfigError("single_approx takes a single N and a single M")
    N, M = Ns[0], _system_rows(Ms[0], Ns[0])
    eps = _single_epsilon(cfg)
    approx = solver.approximate(
        frames.target_function, cfg.frame_for(N), cfg.scheme_family(), M=M, epsilon=eps
    )
    report = solver.error_report(approx, frames.target_function, cfg.probes)
    rows = list(zip(report.probes, report.errors))
    path = cfg.out_path()
    _write_csv(path, ("probe", "error"), rows)
    print(
        f"N={N} M={M} eps={eps:g} kept_rank={approx.kept_rank} "
        f"max_error={report.max_error:.6e} coeff_norm={report.coefficient_norm:.6e}"
    )
    return path


# ---------------------------------------------------------------------------
# selftest


def _check_gl_exactness():
    rule = orthopoly.gauss_legendre_rule(2)
    dev = abs(rule.integrate(lambda x: x ** 3) - 0.25)
    return dev < 1e-15, f"cubic dev {dev:.3e}"


def _check_log_integrals():
    # per-cell order must cover degree 20 times the log factor
    rule = orthopoly.hp_log_quadrature(order=32)
    worst = 0.0
    for n in range(1, 21):
        approx = rule.integrate(lambda x: orthopoly.legendre_shifted(n, x) * np.log(x))
        closed = np.sqrt(2 * n + 1) * (-1.0) ** (n + 1) / (n * (n + 1))
        worst = max(worst, abs(approx - closed))
    return worst < 1e-11, f"max dev {worst:.3e}"


def _check_log_square():
    rule = orthopoly.hp_log_quadrature()
    dev = abs(rule.integrate(lambda x: np.log(x) ** 2) - 2.0)
    return dev < 1e-11, f"dev {dev:.3e}"


def _check_orthonormality():
    rule = orthopoly.gauss_legendre_rule(16)
    table = orthopoly.legendre_table(10, rule.nodes)
    moments = (table * rule.weights) @ table.T
    dev = np.abs(moments - np.eye(11)).max()
    return dev < 1e-12, f"max dev {dev:.3e}"


def _check_gram_identity():
    # the system is the identity block by construction, so this checks sample()
    scheme = sampling.inner_product_scheme(12)
    system = gram.build_system(frames.legendre_onb(8), scheme)
    data = [sampling.sample(scheme, lambda x, j=j: orthopoly.legendre_shifted(j, x)).values
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


# built once, since each add_argument call sizes a help formatter to the terminal
_PARSER = _Parser(prog="frameapprox", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter, epilog="experiments:\n"
                  + "\n".join(f"  {name:<16} {text}" for name, text in _EXPERIMENTS.items()))
_PARSER.add_argument("experiment", choices=_EXPERIMENTS, metavar="experiment",
                     help="experiment to run (listed below)")
_PARSER.add_argument("--frame", choices=("onbk", "onb"),
                     help="frame family: enriched (onbk) or plain polynomial (onb)")
_PARSER.add_argument("--K", help="number of enrichment elements")
_PARSER.add_argument("--nodes", choices=_SCHEME_FAMILIES, help="sampling scheme family")
_PARSER.add_argument("--N", help="N value or start:step:stop sweep")
_PARSER.add_argument("--M", help="M value or start:step:stop sweep")
_PARSER.add_argument("--M-rule", dest="M_rule",
                     help="M as a function of N, e.g. 2N, 1.5N, or a fixed integer")
_PARSER.add_argument("--gammas", help="comma list of oversampling ratios")
_PARSER.add_argument("--eps", help="comma list of truncation thresholds")
_PARSER.add_argument("--theta", help="stability target for ssr")
_PARSER.add_argument("--probes", help="comma list of probe points in (0, 1]")
_PARSER.add_argument("--out", help="output CSV path")
_PARSER.add_argument("--seed", help="seed for randomized checks")
# accepted only as 1 and ignored, for callers that still pass it; it goes
# when the benchmark's commands drop it (ROADMAP item 23)
_PARSER.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
_PARSER.add_argument("--config", help="key = value config file")


_RUNNERS = {
    "pointwise_error": run_pointwise_error,
    "oversampling": run_oversampling,
    "constants": run_constants,
    "ssr": run_ssr,
    "single_approx": run_single_approx,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = _build_config(args)
        if cfg.experiment == "selftest":
            return run_selftest(cfg)
        _check_writable(cfg.out_path())
        path = _RUNNERS[cfg.experiment](cfg)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
