#!/usr/bin/env bash
# Write every preset CSV, the selftest report and the extra CLI runs below
# into the directory named by the one argument.  The presets are the
# scripts/run_*.py of the working directory, run with the frameapprox that
# python imports there (installed, or from PYTHONPATH).
#
#   bash .github/presets.sh OUT_DIR
set -euo pipefail

out="$1"
mkdir -p "$out"
for script in scripts/run_*.py; do
  python "$script" "$out"
done
python -m frameapprox.cli selftest --seed 0 > "$out/selftest.txt"
# no preset reaches N = 100 or 200, where the Gram factor's tail Gram is
# most ill conditioned and the search takes the most steps, nor an
# inner-product system at N = 60; the file names date from when these runs
# covered the Gram factor's node blocks, and stay so that outputs of older
# commits compare by name
python -m frameapprox.cli ssr --K 5 --nodes legendre --theta 2 --N 100:100:200 \
  --eps 1e-5 --out "$out/ssr_node_blocks.csv"
python -m frameapprox.cli constants --K 5 --nodes inner --N 60 --gammas 1,2 \
  --eps 1e-5 --out "$out/constants_node_blocks.csv"
# searches in which the witness test rules out most steps
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
python -m frameapprox.cli ssr --K 5 --nodes equispaced --theta 2 --N 10 \
  --eps 1e-5 --out "$tmp/equispaced.csv"
python -m frameapprox.cli ssr --K 5 --nodes chebyshev-weighted --theta 2 --N 20:20:40 \
  --eps 1e-8 --out "$tmp/chebyshev.csv"
cat "$tmp/equispaced.csv" "$tmp/chebyshev.csv" > "$out/ssr_certified.csv"
# stacked constants sweeps that no preset reaches: Chebyshev points plain
# and weighted, K = 1, cells with N < 2K, a pure basis, and gammas out of
# order, two of which give equal M at small N
python -m frameapprox.cli constants --K 1 --nodes chebyshev-weighted --N 1:1:12 \
  --gammas 3,1,1.05 --eps 1e-5,1e-12 --out "$tmp/k1.csv"
python -m frameapprox.cli constants --K 5 --nodes chebyshev --N 5:1:12 \
  --gammas 3,1,1.05 --eps 1e-5,1e-12 --out "$tmp/k5.csv"
python -m frameapprox.cli constants --frame onb --nodes equispaced --N 1:1:12 \
  --gammas 3,1,1.05 --eps 1e-5,1e-12 --out "$tmp/onb.csv"
cat "$tmp/k1.csv" "$tmp/k5.csv" "$tmp/onb.csv" > "$out/constants_stacked.csv"
