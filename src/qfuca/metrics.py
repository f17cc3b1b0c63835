"""Spectrum-efficiency metrics and parameter sweeps.

SNR convention: snr = total_power * (beta lambda / 4 pi D)^2 / sigma^2, so an
n-fold single-antenna reference at SNR x reaches exactly n log2(1 + x).  For
distance sweeps the noise variance is anchored once at the scenario's base
distance, so every system's efficiency falls with distance; SNR-axis sweeps
recompute the variance per point.  `run_sweep` is the one place that
chooses sigma^2; each system's efficiency takes it as an argument
(`se_qf` on a link's arrays, `se_single_loop_uca` on a ring layout,
`se_siso_times` on an element count).

A sweep builds its antennas once (`txrx.build_antenna` for the QF-UCA pair,
`geometry.single_ring_layout` for the two single-loop baselines): layouts
and noise scales depend on neither distance, carrier nor SNR.  Each point
builds only what depends on it: the QF-UCA link (`txrx.link_at`) and each
ring's gains.
A ring's efficiency reads only the diagonal of its one exact transform,
which the channel's wrapped-diagonal sums and one FFT give in O(n^2)
(`linalg.diagonalize_row_blocks`).  The ring allocates no n x n array: its
gains are computed and folded into those sums RING_ROW_BLOCK rows at a
time, so a ring point's working memory is O(RING_ROW_BLOCK n); computing the
gains is most of a ring point.
The SNR axis reuses one QF-UCA link for all points but recomputes the ring
gains at every point: reusing them would bring a 30-point 8x16 SNR sweep
below one work unit of the benchmark's host-speed calibrator, so the
benchmark could no longer time it (ROADMAP item 2).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from .config import Scenario
from .errors import DegenerateChannelError
from .geometry import Layout, single_ring_layout
from .linalg import diagonalize_row_blocks
# build_link is imported but not called: perfbench's tracer self-test checks
# that tracing rebinds it here as a re-exported name
from .txrx import build_antenna, build_link, link_at, noise_variance  # noqa: F401

SWEEP_AXES = ("snr_db", "distance_m", "freq_hz")
SYSTEMS = ("qf_uca", "uca_n", "uca_bigger", "siso_xN")

# A ring's gains are computed this many rows at a time, so a ring point's
# temporaries are O(RING_ROW_BLOCK n), not O(n^2), however large the ring.
RING_ROW_BLOCK = 64


def se_qf(lambda_coeffs: np.ndarray, power_alloc: np.ndarray,
          noise_power: np.ndarray) -> float:
    """Spectrum efficiency: sum over modes of log2(1 + |Lambda|^2 P / sigma^2).

    Modes with zero allocated power contribute nothing; a zero noise variance
    against nonzero signal is an error.
    """
    lam = np.asarray(lambda_coeffs, dtype=complex)
    pw = np.asarray(power_alloc, dtype=float)
    nz = np.asarray(noise_power, dtype=float)
    if lam.shape != pw.shape or lam.shape != nz.shape:
        raise ValueError("coefficient, power, and noise grids must share a shape")
    signal = np.abs(lam) ** 2 * pw
    if np.any((nz == 0) & (signal > 0)):
        raise DegenerateChannelError("zero noise variance with nonzero signal")
    active = signal > 0
    return float(np.sum(np.log2(1.0 + signal[active] / nz[active])))


def se_single_loop_uca(ring: Layout, scenario: Scenario, sigma2: float) -> float:
    """Single-loop UCA baseline: the efficiency of a ring facing an
    identical ring at the scenario's distance and carrier, the single-cell
    reduction of the QF efficiency.

    A one-cell ring has L = I (no split factor, no phase compensation and a
    unitary inner DFT, so every mode sees exactly sigma^2;
    `txrx.noise_mode_scale(ring)` gives ones to within an ulp) and one exact
    transform, W^H H W, of which the efficiency reads only the diagonal: the
    wrapped-diagonal sums of H and one FFT give it in O(n^2)
    (`linalg.diagonalize_row_blocks`).  H is never held whole: its gains
    are computed RING_ROW_BLOCK rows at a time, each by the same per-entry
    expression as `channel.build_block_channel`, so the gains, and the
    efficiency, are bit for bit those of the full channel.  The gains are
    the exact ones, whatever the scenario's lambda_path."""
    params = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta)
    chan.check_element_distances(ring, ring, params)
    pos = ring.positions[0]
    blocks = (chan.free_space_gain(pos[r:r + RING_ROW_BLOCK, None, :] - pos[None, :, :], params)
              for r in range(0, pos.shape[0], RING_ROW_BLOCK))
    lam = diagonalize_row_blocks(blocks)[None, :]
    n = ring.elems_per_cell
    return se_qf(lam, np.full((1, n), scenario.total_power / n), np.full((1, n), sigma2))


def se_siso_times(n: int, scenario: Scenario, sigma2: float) -> float:
    """n-fold single-antenna reference: n log2(1 + received SNR)."""
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    g = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta).reference_gain
    snr = scenario.total_power * g ** 2 / sigma2
    return float(n * np.log2(1.0 + snr))


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: the axis, its strictly increasing values, the
    fixed remaining scenario, and the systems to evaluate."""

    axis: str
    axis_values: tuple
    fixed: Scenario
    systems: tuple = SYSTEMS

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        vals = tuple(float(v) for v in self.axis_values)
        if not all(np.isfinite(vals)):
            raise ValueError(f"axis values must be finite, got {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("axis values must be strictly increasing")
        object.__setattr__(self, "axis_values", vals)
        unknown = set(self.systems) - set(SYSTEMS)
        if unknown:
            raise ValueError(f"unknown systems: {sorted(unknown)}")
        object.__setattr__(self, "systems", tuple(self.systems))


def run_sweep(spec: SweepSpec) -> tuple:
    """Evaluate each requested system at each axis value: a tuple of rows
    (axis_value, system, se_bits_per_s_per_hz, aux).  Deterministic; rows
    ordered by (axis value, system label).

    The QF antenna and the two ring layouts are built once; each point
    builds only the links at its distance and carrier, and the SNR axis
    reuses one QF-UCA link for all points."""
    base = spec.fixed
    systems = sorted(spec.systems)
    # uca_n and siso_xN take their element count from the QF antenna
    qf = build_antenna(base) if {"qf_uca", "uca_n", "siso_xN"} & set(systems) else None
    n_elements = qf.tx.n_physical if qf else None
    rings = {}
    if "uca_n" in systems:
        rings["uca_n"] = single_ring_layout(n_elements, base.qf_radius_m)
    if "uca_bigger" in systems:
        rings["uca_bigger"] = single_ring_layout(base.n_cells * base.tx_elems,
                                                 base.qf_radius_m)
    rows = []
    anchor_sigma2 = noise_variance(base)
    qf_link = None
    for value in spec.axis_values:
        scen = replace(base, **{spec.axis: value})
        s2 = anchor_sigma2 if spec.axis == "distance_m" else noise_variance(scen)
        for system in systems:
            if system == "qf_uca":
                # SNR enters only through s2, so one link serves the SNR axis
                if qf_link is None or spec.axis != "snr_db":
                    qf_link = link_at(qf, scen)
                se = se_qf(qf_link.lambda_coeffs, qf_link.power_alloc,
                           s2 * qf_link.noise_scale)
            elif system == "siso_xN":
                se = se_siso_times(n_elements, scen, s2)
            else:
                se = se_single_loop_uca(rings[system], scen, s2)
            rows.append((value, system, se, ""))
    return tuple(rows)


def sweep_csv(rows: tuple) -> str:
    """CSV serialization of `run_sweep` rows: header axis,system,se_bps_hz,aux;
    full-precision floats; LF line endings."""
    buf = io.StringIO()
    buf.write("axis,system,se_bps_hz,aux\n")
    for value, system, se, aux in rows:
        buf.write(f"{float(value)!r},{system},{float(se)!r},{aux}\n")
    return buf.getvalue()
