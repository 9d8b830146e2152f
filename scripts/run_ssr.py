#!/usr/bin/env python3
"""Stable sampling rate sweeps.

For the singly enriched basis with coefficient data the rate stays
within sqrt(2) N + 1 at theta = 2.  For Gauss-Legendre point data with
K = 5 and eps = 1e-5 the rate is not linear in N: Theta / N is about 3 up
to N = 70 and about 1.8 from N = 90, a drop that comes with one more
truncated direction at M_theta.  A -1 entry means the search grid was
exhausted without reaching the target.
"""

import sys
from pathlib import Path

from frameapprox.cli import main

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
out_dir.mkdir(parents=True, exist_ok=True)

codes = [
    main(["ssr", "--frame", "onbk", "--K", "1", "--nodes", "inner",
          "--theta", "2", "--N", "5:5:40", "--eps", "1e-5",
          "--out", str(out_dir / "ssr_inner_products.csv")]),
    main(["ssr", "--frame", "onbk", "--K", "5", "--nodes", "legendre",
          "--theta", "2", "--N", "10:5:20", "--eps", "1e-5,1e-8",
          "--out", str(out_dir / "ssr_legendre_points.csv")]),
]
sys.exit(max(codes))
