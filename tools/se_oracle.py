#!/usr/bin/env python3
"""Independent spectrum-efficiency recomputation.

Reads the per-mode table exported by `qfuca loopback` (modes.csv) and sums
log2(1 + |lambda|^2 P / sigma^2_{p,l}) with plain arithmetic, with each
mode's noise power sigma^2_{p,l} from the noise_power column, assuming power
is averagely allocated over the modes.  Deliberately free of any simulator
imports so it can serve as an external cross-check.

Usage: se_oracle.py MODES_CSV [TOTAL_POWER]
"""

import csv
import math
import sys


def spectrum_efficiency(path: str, total_power: float = 1.0) -> float:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SystemExit("no mode rows in " + path)
    per_mode_power = total_power / len(rows)
    total = 0.0
    for row in rows:
        lam2 = float(row["lambda_re"]) ** 2 + float(row["lambda_im"]) ** 2
        noise = float(row["noise_power"])
        signal = lam2 * per_mode_power
        if signal == 0.0:
            continue
        if noise == 0.0:
            raise SystemExit("zero noise power with nonzero signal")
        total += math.log2(1.0 + signal / noise)
    return total


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total_power = float(argv[2]) if len(argv) == 3 else 1.0
    print(repr(spectrum_efficiency(argv[1], total_power)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
