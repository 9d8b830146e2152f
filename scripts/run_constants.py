#!/usr/bin/env python3
"""Stability constants kappa and lambda across oversampling ratios.

Enriched frame (K = 5), gamma in {1, 1.5, 2, 3}, both truncation
thresholds.  Gauss-Legendre points keep the constants bounded;
equispaced points drive them toward 1/eps.
"""

import sys
from pathlib import Path

from frameapprox.cli import main

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
out_dir.mkdir(parents=True, exist_ok=True)

common = ["--frame", "onbk", "--K", "5", "--N", "5:5:60",
          "--gammas", "1,1.5,2,3", "--eps", "1e-5,1e-8"]
codes = [
    main(["constants", "--nodes", "legendre", *common,
          "--out", str(out_dir / "constants_legendre.csv")]),
    main(["constants", "--nodes", "equispaced", *common,
          "--out", str(out_dir / "constants_equispaced.csv")]),
]
sys.exit(max(codes))
