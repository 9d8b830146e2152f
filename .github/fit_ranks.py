"""Write the kept rank of every fit that the fit presets make, and its margin.

Runs scripts/run_pointwise_error.py and scripts/run_oversampling.py of the
working directory, with the frameapprox that python imports there, into a
temporary directory, and records every call of solver.approximate.  OUT_CSV
gets one row per fit, in the order of the fits:

    file,N,M,eps,kept_rank,margin

file names the preset CSV that prints the fit's row, and margin is
min_j |sigma_j - eps| / (u sigma_1), u = 2^-53: how far the singular value
nearest the cutoff lies from it, in units of the rounding of the system's
norm.  The fit CSVs print no kept rank, so kernel_spread.py gates these
ranks across BLAS kernels through this file's kept_rank column; the margin
column is reported there, not gated.

    python .github/fit_ranks.py OUT_CSV
"""

import runpy
import sys
import tempfile
from pathlib import Path

from frameapprox import cli, solver

SCRIPTS = ("scripts/run_pointwise_error.py", "scripts/run_oversampling.py")
UNIT_ROUNDOFF = 2.0 ** -53


def main(out_csv):
    rows = []
    files = []
    approximate, cli_main = solver.approximate, cli.main

    def recording_main(argv):
        files.append(Path(argv[argv.index("--out") + 1]).name)
        return cli_main(argv)

    def recording_approximate(*args, **kwargs):
        fit = approximate(*args, **kwargs)
        s = fit.system.singular_values
        margin = abs(s - fit.epsilon).min() / (UNIT_ROUNDOFF * s[0])
        rows.append((files[-1], fit.system.N, fit.system.M, format(fit.epsilon, ".17g"),
                     fit.kept_rank, format(margin, ".17g")))
        return fit

    # the presets import main from the CLI, which calls solver.approximate
    # through the module, so both are wrapped where they are looked up
    solver.approximate, cli.main = recording_approximate, recording_main
    with tempfile.TemporaryDirectory() as tmp:
        for script in SCRIPTS:
            sys.argv = [script, tmp]
            try:
                runpy.run_path(script, run_name="__main__")
            except SystemExit as exc:
                if exc.code:
                    sys.exit(f"{script} exited with {exc.code}")
    lines = ["file,N,M,eps,kept_rank,margin"]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    Path(out_csv).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: fit_ranks.py OUT_CSV")
    main(sys.argv[1])
