"""Summarize how a CSV output differs from a reference copy of it.

Prints, for each column with a changed cell, the number of changed cells,
the largest relative move |new - old| / |old| (absolute where old is 0,
"n/a" where a cell is not a number) and the largest ratio
max(|new / old|, |old / new|) ("inf" where one of the two is 0).  A fall
by any large factor reads as a move of about 1, so only the ratio shows
its size.  The exit status is always 0: the caller decides what a
difference means.  kernel_spread.py reads its tables through
column_moves and print_moves.

    python .github/csv_moves.py OLD.csv NEW.csv
"""

import csv
import sys


def _move(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    return abs(b - a) / abs(a) if a else abs(b - a)


def _ratio(old, new):
    try:
        a, b = abs(float(old)), abs(float(new))
    except ValueError:
        return None
    if a == b:
        return 1.0
    return max(a / b, b / a) if a and b else float("inf")


def _worst(worst, value):
    return None if value is None or worst is None else max(worst, value)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def column_moves(old, new):
    """{column: (changed cells, worst move, worst ratio)} of two CSVs' rows.

    None when the header or the row count differs.  A move or ratio is None
    where a changed cell is not a number.
    """
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return None
    changed = {}
    for old_row, new_row in zip(old[1:], new[1:]):
        for name, a, b in zip(old[0], old_row, new_row):
            if a != b:
                count, move, ratio = changed.get(name, (0, 0.0, 1.0))
                changed[name] = (count + 1, _worst(move, _move(a, b)), _worst(ratio, _ratio(a, b)))
    return changed


def print_moves(old, new):
    """Print column_moves per column; returns it."""
    changed = column_moves(old, new)
    if changed is None:
        print(f"  header or row count differs: {len(old)} against {len(new)} rows")
        return None
    for name, (count, move, ratio) in changed.items():
        move = "n/a" if move is None else f"{move:.3g}"
        ratio = "n/a" if ratio is None else f"{ratio:.6g}"
        print(f"  {name}: {count} cells changed, worst relative move {move}, worst ratio {ratio}")
    return changed


def main(old_path, new_path):
    print_moves(read_rows(old_path), read_rows(new_path))


if __name__ == "__main__":
    main(*sys.argv[1:])
