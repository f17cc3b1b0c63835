"""Record the reference outputs that perfbench checks every operation against.

    PYTHONPATH=src python3 perfbench/record_references.py

Runs each workload's command once per recorded seed through
`qfuca.cli.main`, and writes perfbench/references.json.  The references
freeze the simulator's outputs at the commit that defined the benchmark; a
later change that alters an output on purpose re-records them and says so.
For the loopback it also records the smallest relative ML decision margin
per seed (gap between the best and second-best candidate distance over the
second-best), showing that the recorded error counts do not rest on ties.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import qfuca.cli
from qfuca import txrx

from workloads import (RECORDED_SEEDS, REFERENCES, WORKLOADS, parse_loopback,
                       parse_sweep)

ROOT = Path(__file__).resolve().parent.parent


def run_command(workload, out_dir: Path, seed: int) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qfuca.cli.main(workload.argv(ROOT, out_dir, seed))
    if code != 0:
        raise SystemExit(f"{workload.name} seed {seed} exited with {code}")
    return buf.getvalue()


@contextlib.contextmanager
def margin_probe():
    """Wrap txrx.ml_detect to record the smallest relative decision margin."""
    original = txrx.ml_detect
    smallest = [np.inf]

    def probe(s_tilde_p, lambda_row, constellation, amplitudes=None):
        amps = np.ones(len(s_tilde_p)) if amplitudes is None else amplitudes
        for s, lam, a in zip(s_tilde_p, lambda_row, amps):
            dist = np.sort(np.abs(s - lam * a * constellation.points))
            smallest[0] = min(smallest[0], (dist[1] - dist[0]) / dist[1])
        return original(s_tilde_p, lambda_row, constellation, amplitudes)

    txrx.ml_detect = probe
    try:
        yield smallest
    finally:
        txrx.ml_detect = original


def main() -> int:
    refs = {"recorded_with": {"numpy": np.__version__, "python": sys.version.split()[0]}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            if workload.command[0] == "loopback":
                entry = {"per_seed": {}}
                for seed in RECORDED_SEEDS:
                    out = Path(tmp) / f"{name}-{seed}"
                    with margin_probe() as smallest:
                        parsed = parse_loopback(out, run_command(workload, out, seed))
                    shared = {k: parsed[k] for k in ("degenerate_modes", "max_isr",
                                                     "modes_header", "modes",
                                                     "channel_rows", "channel_energy")}
                    if "modes" in entry and any(entry[k] != v for k, v in shared.items()):
                        raise SystemExit("seed-independent loopback outputs differ by seed")
                    entry.update(shared)
                    entry["per_seed"][str(seed)] = {
                        "per_frame_errors": [r[1] for r in parsed["frame_rows"]],
                        "symbol_errors": parsed["symbol_errors"],
                        "min_relative_margin": float(smallest[0]),
                    }
            else:
                out = Path(tmp) / name
                run_command(workload, out, RECORDED_SEEDS[0])
                entry = {"rows": parse_sweep(out)}
            refs[name] = entry
            print(f"recorded {name}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
