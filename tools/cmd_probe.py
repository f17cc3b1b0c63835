#!/usr/bin/env python3
"""Peak memory, CPU time and page faults of one qfuca command, run in-process.

Imports the CLI (and with it numpy), then runs `qfuca.cli.main(ARGS)` once
and prints, after the command's own output, one `name value` line each:

  maxrss_before_mb  peak resident set size once qfuca is imported (MB = 2^20 B)
  maxrss_after_mb   peak resident set size after the command
  cpu_s             CPU time (user + system) of the command
  minflt            minor page faults during the command
  exit              the command's exit status

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.  The qfuca it
imports is the one on PYTHONPATH, so one probe can measure two checkouts.

Usage: cmd_probe.py QFUCA_ARGS...
  e.g. PYTHONPATH=src python tools/cmd_probe.py loopback --out out --frames 200
"""

import os
import resource
import sys
import time


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import qfuca.cli

    before = resource.getrusage(resource.RUSAGE_SELF)
    cpu = time.process_time()
    code = qfuca.cli.main(argv[1:])
    cpu = time.process_time() - cpu
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(f"maxrss_before_mb {before.ru_maxrss / 1024:.2f}")
    print(f"maxrss_after_mb {after.ru_maxrss / 1024:.2f}")
    print(f"cpu_s {cpu:.4f}")
    print(f"minflt {after.ru_minflt - before.ru_minflt}")
    print(f"exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
