"""The host-speed reference: a process that repeats one fixed numpy work unit
at low priority on the CPU the benchmark's children are pinned to, for as
long as a run lasts.

    calibrator.py COUNTERS

COUNTERS is a 16-byte file that this process maps shared and overwrites
after every unit with two doubles: units done so far and its own CPU time.
A child reads the pair before and after the span it times.  Units per CPU
second over that span is how fast the CPU ran while the child ran beside it,
under the same contention.  On a shared host the speed of one CPU swings by
up to 2.3x for minutes at a time.  CPU time alone does not remove that,
because the slowed CPU still counts the time as the process's own.

At nice 10 the calibrator gets about a tenth of the CPU while a child runs,
in slices spread over the child's whole run.

The unit mixes the two kinds of work qfuca does: elementwise complex
arithmetic over a quadrature grid, as in channel.diag_approx_block, and a
chain of small-matrix products, as in the per-frame txrx chain.  Its code is
frozen: changing it changes every scaled figure.
"""

import mmap
import os
import struct
import sys
import time

FORMAT = "dd"
SIZE = struct.calcsize(FORMAT)
NICE = 10

# Units per CPU second, as measured once on a 2-vCPU Xeon VM.  A time scaled
# by speed / REFERENCE_SPEED is in seconds of a CPU running at that speed.
# The constant only sets the scale of every scaled figure and must never
# change.
REFERENCE_SPEED = 128.0


def read(path) -> tuple[float, float]:
    """(units done, calibrator CPU seconds), as last written to COUNTERS."""
    with open(path, "rb") as fh:
        while True:
            first = fh.read(SIZE)
            fh.seek(0)
            if fh.read(SIZE) == first:
                return struct.unpack(FORMAT, first)
            fh.seek(0)


def speed(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Units per calibrator CPU second between two readings."""
    units, cpu = after[0] - before[0], after[1] - before[1]
    if units <= 0 or cpu <= 0:
        raise ValueError("the calibrator completed no unit in the span")
    return units / cpu


def main() -> int:
    import numpy as np

    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    x = np.arange(1, 33)[:, None] * 0.37

    def unit(order: int) -> float:
        total = float(np.abs(np.exp(1j * (x * np.cos(phi) - order * phi)).sum(axis=1)).sum())
        m = np.eye(16) + 0.01j
        for _ in range(30):
            m = m @ m.conj().T
            m /= np.abs(m).max()
        return total

    os.nice(NICE)
    with open(sys.argv[1], "r+b") as fh:
        counters = mmap.mmap(fh.fileno(), SIZE)
    done = 0
    while True:
        unit(done % 8)
        done += 1
        counters[:SIZE] = struct.pack(FORMAT, done, time.process_time())


if __name__ == "__main__":
    sys.exit(main())
