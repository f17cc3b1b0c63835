#!/usr/bin/env python3
"""Calibrator units per operation span in perfbench runs.

perfbench scales each operation's CPU time by the host speed that its
calibrator measures over the operation's span: the units the calibrator
completed between the child's two readings, per calibrator CPU second.  A
span with no unit fails the operation ("the calibrator completed no unit in
the span"), and a span of one or two units gives a coarse speed.  This tool
shows how close a run came to that floor.

Reads the operation reports op<i>.json of each run directory, not the traces
(op<i>.json.spans.json) nor the set-up reports (setup<i>.json), and prints
one CSV row per run: the operation reports read, the minimum, median and
mean calibrator units per operation span, the number of spans with 0 units,
the median CPU seconds of the spans, the shortest span in calibrator
periods, and the speedup that keeps that span at or above one period.  The
mean estimates the units L that a span completes: a speedup s leaves about
L / s units per span, and operations start to fail as that nears 1.

A period is the run's wall time per unit: the wall time of all its spans
over the units completed in them.  A span shorter than one period may
complete no unit, so the shortest span sets how fast the command may get
before operations fail.  A speedup s shortens every span s-fold, the
calibrator's slices inside it included, so the largest speedup that keeps
the shortest span at or above one period is that span's length in periods:
below 1, the run already had spans that could miss every unit.  Units take
uneven wall time, so a span somewhat longer than one period can still
complete none: a loopback run whose shortest span read 1.1 periods had a
92 ms span in which the calibrator got no CPU at all.  Free of simulator
imports.

Usage: span_units.py [RUN_DIR ...]
  With no argument, every run under .perfbench_runs/ in the checkout.
"""

import json
import re
import statistics
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parents[1] / ".perfbench_runs"
OP_REPORT = re.compile(r"op\d+\.json")


def span_figures(run_dir: Path) -> tuple:
    """(operations, min units, median units, mean units, spans with 0
    units, median span CPU seconds, shortest span in periods) of the
    operation reports in run_dir.  Raises ValueError when it has none."""
    units, cpu, wall = [], [], []
    for path in sorted(run_dir.iterdir()):
        if not OP_REPORT.fullmatch(path.name):
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        units.append(report["calibrator_done"][0] - report["calibrator_start"][0])
        cpu.append(report["done_cpu"] - report["start_cpu"])
        wall.append(report["done"] - report["start"])
    if not units:
        raise ValueError(f"{run_dir}: no operation reports")
    # with no unit in any span, a period outlasts every span
    periods = min(wall) * sum(units) / sum(wall) if sum(units) > 0 else 0.0
    return (len(units), min(units), statistics.median(units), statistics.mean(units),
            sum(u <= 0 for u in units), statistics.median(cpu), periods)


def main(argv):
    runs = [Path(a) for a in argv[1:]] or sorted(p for p in RUNS.glob("*") if p.is_dir())
    if not runs:
        print(f"no runs under {RUNS}", file=sys.stderr)
        return 1
    try:
        rows = [(run.name, *span_figures(run)) for run in runs]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("run,ops,min_units,median_units,mean_units,zero_unit_ops,median_cpu_s,"
          "min_periods,max_speedup")
    for name, ops, low, median, mean, zero, cpu, periods in rows:
        # the largest speedup is the shortest span's length in periods
        print(f"{name},{ops},{low:g},{median:g},{mean:.3g},{zero},{cpu:.4g},"
              f"{periods:.3g},{periods:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
