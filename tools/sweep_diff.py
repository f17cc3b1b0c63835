#!/usr/bin/env python3
"""Compare two sweep tables exported by `qfuca sweep` (sweep.csv).

Both files must list the same rows: the same (axis value, system) keys in
the same order.  If they do not, the first mismatch is reported and the exit
status is 1.  Otherwise one line per system gives its row count, the number
of rows whose SE differs, and the largest relative SE difference
|new - old| / |old|.  Free of simulator imports, like se_oracle.py.

Usage: sweep_diff.py OLD_SWEEP_CSV NEW_SWEEP_CSV
"""

import csv
import sys


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [((row["axis"], row["system"]), float(row["se_bps_hz"]))
                for row in csv.DictReader(fh)]


def relative_difference(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def compare(old_rows: list, new_rows: list) -> dict:
    """Per system: [rows, changed rows, largest relative difference].
    Raises ValueError when the row keys differ."""
    if len(old_rows) != len(new_rows):
        raise ValueError(f"row counts differ: {len(old_rows)} vs {len(new_rows)}")
    stats = {}
    for i, ((old_key, old), (new_key, new)) in enumerate(zip(old_rows, new_rows), start=1):
        if old_key != new_key:
            raise ValueError(f"row {i}: key {old_key} vs {new_key}")
        entry = stats.setdefault(old_key[1], [0, 0, 0.0])
        entry[0] += 1
        rel = relative_difference(old, new)
        if rel:
            entry[1] += 1
            entry[2] = max(entry[2], rel)
    return stats


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        stats = compare(read_rows(argv[1]), read_rows(argv[2]))
    except ValueError as exc:
        print(f"keys differ: {exc}", file=sys.stderr)
        return 1
    print("system,rows,changed,max_rel_diff")
    for system in sorted(stats):
        rows, changed, worst = stats[system]
        print(f"{system},{rows},{changed},{worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
