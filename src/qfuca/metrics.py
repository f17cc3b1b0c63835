"""Spectrum-efficiency metrics and parameter sweeps.

SNR convention: snr = total_power * (beta lambda / 4 pi D)^2 / sigma^2, so an
n-fold single-antenna reference at SNR x reaches exactly n log2(1 + x).  For
distance sweeps the noise variance is anchored once at the scenario's base
distance, so every system's efficiency falls with distance; SNR-axis sweeps
recompute the variance per point.

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
from .txrx import Link, build_antenna, build_link, link_at, noise_variance

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


def se_single_loop_uca(n_elements: int, scenario: Scenario,
                       distance_m: float | None = None) -> float:
    """Single-loop UCA baseline: one ring of n elements at the antenna radius,
    evaluated as the single-cell reduction of the QF efficiency, with the
    exact per-mode gains taken in O(n^2) (see `_se_ring`)."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    work = scenario if distance_m is None else replace(scenario, distance_m=distance_m)
    return _se_ring(single_ring_layout(n_elements, scenario.qf_radius_m), work,
                    noise_variance(scenario))


def _se_ring(ring: Layout, scenario: Scenario, sigma2: float) -> float:
    """Efficiency of a ring facing an identical ring at the scenario's
    distance and carrier.

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
    pos = ring.positions[0]
    blocks = (chan.free_space_gain(pos[r:r + RING_ROW_BLOCK, None, :] - pos[None, :, :], params)
              for r in range(0, pos.shape[0], RING_ROW_BLOCK))
    lam = diagonalize_row_blocks(blocks)[None, :]
    n = ring.elems_per_cell
    return se_qf(lam, np.full((1, n), scenario.total_power / n), np.full((1, n), sigma2))


def se_siso_times(n: int, scenario: Scenario, distance_m: float | None = None,
                  sigma2: float | None = None) -> float:
    """n-fold single-antenna reference: n log2(1 + received SNR)."""
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    d = scenario.distance_m if distance_m is None else distance_m
    g = chan.PropagationParams.from_frequency(d, scenario.freq_hz, scenario.beta).reference_gain
    s2 = noise_variance(scenario) if sigma2 is None else sigma2
    snr = scenario.total_power * g ** 2 / s2
    return float(n * np.log2(1.0 + snr))


def se_qf_scenario(scenario: Scenario, distance_m: float | None = None) -> float:
    """QF-UCA spectrum efficiency for a scenario, optionally at an overridden
    distance with the noise variance anchored at the scenario's own."""
    work = scenario if distance_m is None else replace(scenario, distance_m=distance_m)
    return _se_qf_link(build_link(work), noise_variance(scenario))


def _se_qf_link(link: Link, sigma2: float) -> float:
    return se_qf(link.lambda_coeffs, link.power_alloc, sigma2 * link.noise_scale)


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
        if spec.axis == "snr_db":
            scen = replace(base, snr_db=value)
            s2 = noise_variance(scen)
        elif spec.axis == "distance_m":
            scen, s2 = replace(base, distance_m=value), anchor_sigma2
        else:
            scen = replace(base, freq_hz=value)
            s2 = noise_variance(scen)
        for system in systems:
            if system == "qf_uca":
                # SNR enters only through s2, so one link serves the SNR axis
                if qf_link is None or spec.axis != "snr_db":
                    qf_link = link_at(qf, scen)
                se = _se_qf_link(qf_link, s2)
            elif system == "siso_xN":
                se = se_siso_times(n_elements, scen, sigma2=s2)
            else:
                se = _se_ring(rings[system], scen, s2)
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
