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
# inner-product system at N = 60; at eps = 1e-8 one power step proves
# kappa > theta at most of those steps (M_theta up to 650), so the
# compares below also cover large searches that are mostly certified; the
# file names date from when these runs covered the Gram factor's node
# blocks, and stay so that outputs of older commits compare by name
python -m frameapprox.cli ssr --K 5 --nodes legendre --theta 2 --N 100:100:200 \
  --eps 1e-5,1e-8 --out "$out/ssr_node_blocks.csv"
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
# order, of which 1.5 and 1.6 give equal M at N = 1, 3 and 5
python -m frameapprox.cli constants --K 1 --nodes chebyshev-weighted --N 1:1:12 \
  --gammas 3,1,1.5,1.6 --eps 1e-5,1e-12 --out "$tmp/k1.csv"
python -m frameapprox.cli constants --K 5 --nodes chebyshev --N 5:1:12 \
  --gammas 3,1,1.5,1.6 --eps 1e-5,1e-12 --out "$tmp/k5.csv"
python -m frameapprox.cli constants --frame onb --nodes equispaced --N 1:1:12 \
  --gammas 3,1,1.5,1.6 --eps 1e-5,1e-12 --out "$tmp/onb.csv"
cat "$tmp/k1.csv" "$tmp/k5.csv" "$tmp/onb.csv" > "$out/constants_stacked.csv"
# the one experiment that no preset runs; its stdout summary reads kept_rank
# from the fit, and the "wrote" line is left out, since its path differs
# between runs
python -m frameapprox.cli single_approx --K 5 --N 20 --M 40 --nodes chebyshev \
  --eps 2e-13 --out "$out/single_approx.csv" | grep -v '^wrote ' > "$out/single_approx.txt"
