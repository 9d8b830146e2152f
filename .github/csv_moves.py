"""Summarize how a CSV output differs from a reference copy of it.

Prints, for each column with a changed cell, the number of changed cells
and the largest relative move |new - old| / |old| (absolute where old is
0, "n/a" where a cell is not a number).  The exit status is always 0: the
caller decides what a difference means.

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


def main(old_path, new_path):
    with open(old_path, newline="") as f:
        old = list(csv.reader(f))
    with open(new_path, newline="") as f:
        new = list(csv.reader(f))
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        print(f"  header or row count differs: {len(old)} against {len(new)} rows")
        return
    changed = {}
    for old_row, new_row in zip(old[1:], new[1:]):
        for name, a, b in zip(old[0], old_row, new_row):
            if a != b:
                count, worst = changed.get(name, (0, 0.0))
                move = _move(a, b)
                worst = None if move is None or worst is None else max(worst, move)
                changed[name] = (count + 1, worst)
    for name, (count, worst) in changed.items():
        shown = "n/a" if worst is None else f"{worst:.3g}"
        print(f"  {name}: {count} cells changed, worst relative move {shown}")


if __name__ == "__main__":
    main(*sys.argv[1:])
