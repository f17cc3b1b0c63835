"""The benchmark's workloads: one qfuca CLI command each, and the checks that
decide whether a run of that command produced the right output.

Every workload is a closed loop of identical commands; the command's argv is
derived from the workload seed only.  The checks read the files the command
wrote and the text it printed, and compare them with references recorded
from the simulator at the commit that defined the benchmark
(references.json, written by record_references.py).  They use only the
standard library so the parent process never imports numpy.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Frozen-regression tolerance for floating-point outputs.
REL_TOL = 1e-9

# sigma^2 of the default scenario at 15 dB SNR, 100 m and 5.8 GHz; noisy
# frames keep ML decisions away from exact ties, so error counts are exact.
LOOPBACK_NOISE_VARIANCE = "5.350146702828524e-11"
LOOPBACK_FRAMES = 200

# Seeds whose seed-dependent outputs are recorded.  Seed 1 is the default;
# seed 7 is held out so that a later claim can be re-checked on a seed not
# used while the change was written.
RECORDED_SEEDS = (1, 7)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str           # file under perfbench/configs
    command: tuple        # CLI argv after --config/--out/--seed
    items: int            # frames or sweep points per command
    item_unit: str

    def grid(self) -> dict[str, int]:
        """The integer `key = value` settings of the workload's config."""
        text = (HERE / "configs" / self.config).read_text(encoding="utf-8")
        pairs = (line.split("#")[0].split("=") for line in text.splitlines())
        return {p[0].strip(): int(p[1]) for p in pairs if len(p) == 2}

    @property
    def n_cells(self) -> int:
        return self.grid()["n_cells"]

    @property
    def elems(self) -> int:
        return self.grid()["tx_elems"]

    def argv(self, root: Path, out_dir: Path, seed: int) -> list[str]:
        return [self.command[0], "--config", str(root / "perfbench" / "configs" / self.config),
                "--out", str(out_dir), "--seed", str(seed), *self.command[1:]]


SNR_POINTS = tuple(range(30))
DISTANCES = (20, 50, 100, 200)

WORKLOADS = {
    w.name: w for w in (
        Workload("loopback_8x16", "grid_8x16.cfg",
                 ("loopback", "--frames", str(LOOPBACK_FRAMES),
                  "--noise-variance", LOOPBACK_NOISE_VARIANCE),
                 LOOPBACK_FRAMES, "frames"),
        Workload("snr_sweep_8x16", "grid_8x16.cfg",
                 ("sweep", "--axis", "snr_db",
                  "--values", ",".join(str(v) for v in SNR_POINTS)),
                 len(SNR_POINTS), "points"),
        Workload("distance_sweep_16x32", "grid_16x32.cfg",
                 ("sweep", "--axis", "distance_m",
                  "--values", ",".join(str(v) for v in DISTANCES)),
                 len(DISTANCES), "points"),
    )
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * scale)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def parse_sweep(out_dir: Path) -> list[list]:
    rows = _read_csv(out_dir / "sweep.csv")
    if rows[0] != ["axis", "system", "se_bps_hz", "aux"]:
        raise ValueError(f"sweep.csv header {rows[0]}")
    return [[float(r[0]), r[1], float(r[2])] for r in rows[1:]]


def check_sweep(rows: list[list], ref_rows: list[list], axis: str) -> list[str]:
    """Compare sweep rows with the reference; return the mismatches found."""
    problems = []
    if len(rows) != len(ref_rows):
        return [f"sweep has {len(rows)} rows, reference {len(ref_rows)}"]
    for got, want in zip(rows, ref_rows):
        if got[0] != want[0] or got[1] != want[1]:
            problems.append(f"row key {got[:2]} != {want[:2]}")
        elif not math.isfinite(got[2]) or not _close(got[2], want[2]):
            problems.append(f"SE at {got[:2]}: {got[2]!r} != {want[2]!r}")
    if axis == "snr_db":
        by_system: dict[str, list[float]] = {}
        for _, system, se in rows:
            by_system.setdefault(system, []).append(se)
        for system, ses in by_system.items():
            if any(b < a for a, b in zip(ses, ses[1:])):
                problems.append(f"SE of {system} decreases with SNR")
    return problems


_SUMMARY = re.compile(r"frames: (\d+)\s+symbol errors: (\d+)/(\d+)")
_DIAG = re.compile(r"degenerate modes: (\d+)\s+max interference-to-signal: (\S+)")


def parse_loopback(out_dir: Path, stdout: str) -> dict:
    frames = _read_csv(out_dir / "loopback.csv")
    if frames[0] != ["frame", "symbol_errors", "symbols"]:
        raise ValueError(f"loopback.csv header {frames[0]}")
    summary = _SUMMARY.search(stdout)
    diag = _DIAG.search(stdout)
    if summary is None or diag is None:
        raise ValueError("loopback summary lines missing from the command output")
    modes = _read_csv(out_dir / "modes.csv")
    chan = _read_csv(out_dir / "channel.csv")
    return {
        "frame_rows": [[int(x) for x in r] for r in frames[1:]],
        "frames": int(summary.group(1)),
        "symbol_errors": int(summary.group(2)),
        "symbols": int(summary.group(3)),
        "degenerate_modes": int(diag.group(1)),
        "max_isr": float(diag.group(2)),
        "modes_header": modes[0],
        "modes": [[float(x) for x in r] for r in modes[1:]],
        "channel_rows": len(chan) - 1,
        "channel_energy": math.fsum(float(r[4]) ** 2 + float(r[5]) ** 2 for r in chan[1:]),
    }


def check_loopback(got: dict, ref: dict, seed: int, workload: Workload) -> list[str]:
    """Structural invariants for every seed; exact error counts for the
    recorded seeds; seed-independent link figures against the reference."""
    problems = []
    per_frame_symbols = workload.n_cells * workload.elems
    rows = got["frame_rows"]
    if [r[0] for r in rows] != list(range(LOOPBACK_FRAMES)):
        problems.append(f"loopback.csv has frames {len(rows)}, expected {LOOPBACK_FRAMES}")
    if any(r[2] != per_frame_symbols or not 0 <= r[1] <= r[2] for r in rows):
        problems.append("a frame row has errors outside [0, symbols]")
    errors = [r[1] for r in rows]
    if got["frames"] != LOOPBACK_FRAMES or got["symbol_errors"] != sum(errors) \
            or got["symbols"] != LOOPBACK_FRAMES * per_frame_symbols:
        problems.append("printed totals disagree with loopback.csv")
    recorded = ref["per_seed"].get(str(seed))
    if recorded is not None:
        if errors != recorded["per_frame_errors"]:
            problems.append(f"per-frame errors differ from the seed-{seed} reference")
        if got["symbol_errors"] != recorded["symbol_errors"]:
            problems.append(f"total errors {got['symbol_errors']} != {recorded['symbol_errors']}")
    if got["degenerate_modes"] != ref["degenerate_modes"]:
        problems.append(f"degenerate modes {got['degenerate_modes']}")
    if not _close(got["max_isr"], ref["max_isr"]):
        problems.append(f"max ISR {got['max_isr']!r} != {ref['max_isr']!r}")
    if got["modes_header"] != ref["modes_header"] or len(got["modes"]) != len(ref["modes"]):
        problems.append("modes.csv shape differs from the reference")
    else:
        scales = [max(abs(r[c]) for r in ref["modes"]) for c in range(len(ref["modes_header"]))]
        for g, w in zip(got["modes"], ref["modes"]):
            if not all(_close(a, b, s) for a, b, s in zip(g, w, scales)):
                problems.append(f"modes.csv row p={w[0]:g}, l={w[1]:g} differs")
                break
    if got["channel_rows"] != ref["channel_rows"]:
        problems.append(f"channel.csv has {got['channel_rows']} entries")
    elif not _close(got["channel_energy"], ref["channel_energy"]):
        problems.append("channel.csv energy differs from the reference")
    return problems


def check_output(workload: Workload, out_dir: Path, stdout: str, seed: int,
                 refs: dict) -> list[str]:
    """All mismatches of one command's output; empty when it is correct."""
    ref = refs[workload.name]
    try:
        if workload.command[0] == "loopback":
            return check_loopback(parse_loopback(out_dir, stdout), ref, seed, workload)
        return check_sweep(parse_sweep(out_dir), ref["rows"], workload.command[2])
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
