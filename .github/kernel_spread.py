"""Check that preset outputs written under other BLAS kernels make the same decisions.

Compares each file of the first directory with the file of the same name
in every other directory.  For a CSV that differs it prints, per column
with a changed cell, the number of changed cells and the worst relative
move and ratio (csv_moves.py).  The exit status is 1 when a file is
missing, a CSV's header or row count differs, a cell of an integer column
(N, M, kept_rank, M_theta) differs, or the kept_rank= field of
single_approx.txt does.  Float columns and other text are reported, not
gated: their last digits vary with the kernel.

    python .github/kernel_spread.py REFERENCE_DIR OTHER_DIR...
"""

import re
import sys
from pathlib import Path

from csv_moves import print_moves, read_rows

# the sizes a run echoes and the ranks and rates it decides
INTEGER_COLUMNS = ("N", "M", "kept_rank", "M_theta")


def _kept_rank(path):
    match = re.search(r"\bkept_rank=(\d+)", path.read_text())
    return match.group(1) if match else None


def _decisions_agree(ref, other):
    """Print how other differs from ref; returns whether every gated value agrees."""
    if ref.suffix == ".csv":
        changed = print_moves(read_rows(ref), read_rows(other))
        if changed is None:
            return False
        moved = [name for name in INTEGER_COLUMNS if name in changed]
        if moved:
            print(f"  integer columns differ: {', '.join(moved)}")
        return not moved
    if ref.name == "single_approx.txt":
        ranks = _kept_rank(ref), _kept_rank(other)
        print(f"  kept_rank: {ranks[0]} against {ranks[1]}")
        return ranks[0] is not None and ranks[0] == ranks[1]
    print("  text differs (not gated)")
    return True


def main(reference, *others):
    if not others:
        sys.exit("usage: kernel_spread.py REFERENCE_DIR OTHER_DIR...")
    ok = True
    for ref in sorted(Path(reference).iterdir()):
        for directory in others:
            other = Path(directory) / ref.name
            if not other.is_file():
                print(f"{ref.name}: missing from {directory}")
                ok = False
            elif ref.read_bytes() == other.read_bytes():
                print(f"{ref.name}: identical in {directory}")
            else:
                print(f"{ref.name}: differs in {directory}")
                ok = _decisions_agree(ref, other) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
