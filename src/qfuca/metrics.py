"""Spectrum-efficiency metrics and parameter sweeps.

SNR convention: snr = total_power * (beta lambda / 4 pi D)^2 / sigma^2, so an
n-fold single-antenna reference at SNR x reaches exactly n log2(1 + x).  For
distance sweeps the noise variance is anchored once at the scenario's base
distance, so every system's efficiency falls with distance; SNR-axis sweeps
recompute the variance per point.  `run_sweep` is the one place that
chooses sigma^2; each system's efficiency takes it as an argument
(`se_qf` on a link's arrays, `se_single_loop_uca` on a ring layout or
`se_qf` on a ring's eigenvalues, `se_siso_times` on an element count).

A sweep builds its antennas once (`txrx.build_antenna` for the QF-UCA pair,
`geometry.single_ring_layout` for the two single-loop baselines): layouts
and noise scales depend on neither distance, carrier nor SNR.  Each point
builds only what depends on it: the QF-UCA link (`txrx.link_at`), of which
it keeps only `se_qf`'s inputs, and each ring's gains.
A coaxial ring's channel is circulant, so its efficiency reads only the
eigenvalues, one inverse FFT of the channel's wrapped-diagonal sums
(`ring_eigenvalues`).  The ring allocates no n x n array: its gains are
computed and folded into those sums in blocks of whole rows holding at most
RING_BLOCK_GAINS gains each (one row once n passes it), so a ring's
temporaries do not grow with the ring below n = 8,192; computing the gains
is most of a ring point.  About half of a block's work, its squared
in-plane offsets and wrap indices, depends on neither distance nor carrier,
so a distance or carrier sweep evaluates each ring at all its points in one
pass over the row blocks; it holds the points' (P, n) eigenvalues on top of
one point's temporaries.
The SNR axis reuses one QF-UCA link for all points but recomputes the ring
gains at every point, one `se_single_loop_uca` call each: reusing them would
bring a 30-point 8x16 SNR sweep below one work unit of the benchmark's
host-speed calibrator, so the benchmark could no longer time it (ROADMAP
item 2).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from .config import Scenario
from .errors import DegenerateChannelError, DomainError
from .geometry import Layout, single_ring_layout
# build_link is imported but not called: perfbench's tracer self-test checks
# that tracing rebinds it here as a re-exported name
from .txrx import build_antenna, build_link, link_at, noise_variance  # noqa: F401

SWEEP_AXES = ("snr_db", "distance_m", "freq_hz")
SYSTEMS = ("qf_uca", "uca_n", "uca_bigger", "siso_xN")

# A ring's gains are computed max(1, RING_BLOCK_GAINS // n) rows at a time, so
# each temporary holds at most 2^13 gains (128 KiB of complex128) up to
# n = 8,192, and one row beyond.  Rings of up to 128 elements take at most
# two blocks.
RING_BLOCK_GAINS = 8192


def se_qf(lambda_coeffs: np.ndarray, power_alloc: np.ndarray,
          noise_power: np.ndarray) -> float:
    """Spectrum efficiency: sum over modes of log2(1 + |Lambda|^2 P / sigma^2).

    Modes with zero allocated power contribute nothing; a zero noise variance
    against nonzero signal is an error, and so is a mode SNR past the float
    range (a noise variance far too small for the channel, such as a distance
    sweep's anchored sigma^2 at a point far closer than the anchor).
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
    with np.errstate(over="ignore"):
        se = float(np.sum(np.log2(1.0 + signal[active] / nz[active])))
    if not math.isfinite(se):
        raise DomainError("spectrum efficiency overflows: a mode's SNR |Lambda|^2 P / sigma^2 "
                          f"leaves the float range at noise power {float(nz[active].min())!r}")
    return se


def ring_eigenvalues(ring: Layout, points: list) -> np.ndarray:
    """The (P, n) eigenvalues of a coaxial ring's channel to an identical
    ring at each of the P propagation points (`channel.PropagationParams`),
    from one pass over the channel's row blocks.

    The channel is circulant, so its eigenvalues are ifft(s), with s_d =
    sum_a H[a, (a + d) mod n] the wrapped-diagonal sums.  H is never held
    whole: its entries are taken max(1, RING_BLOCK_GAINS // n) rows at a
    time.  A block's squared offsets, in wrapped order, are computed once for
    all points, since they depend on neither distance nor carrier; each
    point's gains then go through one shared block buffer, whose first row is
    that point's running sums, and are added to them in one reduction.  numpy
    reduces axis 0 one row at a time, so the sums, and the eigenvalues, are
    bit for bit those of the full channel wherever the blocks cut it, and
    whatever the other points.  Beyond the (P, n) result, the pass holds
    O(max(RING_BLOCK_GAINS, n)) temporaries, not O(n^2), nor a block per
    point.  The gains are the exact ones (`channel.gain_from_squared_offsets`)."""
    pos, n = ring.positions[0], ring.elems_per_cell
    rows = max(1, RING_BLOCK_GAINS // n)
    shift = np.arange(n)
    sums = np.zeros((len(points), n), dtype=complex)
    buf = np.empty((min(rows, n) + 1, n), dtype=complex)
    for r in range(0, n, rows):
        a = np.arange(min(rows, n - r))[:, None]
        # row a of the block is row r + a of H, wrapped to start at its diagonal
        squared = np.take(chan.squared_offsets(pos[r:r + rows, None, :] - pos[None, :, :]),
                          a * n + (r + a + shift) % n)
        block = buf[:len(a) + 1]
        for sums_p, params in zip(sums, points):
            block[0] = sums_p
            block[1:] = chan.gain_from_squared_offsets(squared, params)
            np.add.reduce(block, axis=0, out=sums_p)
    for sums_p in sums:
        sums_p[:] = np.fft.ifft(sums_p)
    return sums


def _ring_se(lam: np.ndarray, scenario: Scenario, sigma2: float) -> float:
    """A ring's efficiency from its n eigenvalues: every mode gets power
    total_power / n and sees exactly sigma^2."""
    n = lam.size
    return se_qf(lam[None, :], np.full((1, n), scenario.total_power / n),
                 np.full((1, n), sigma2))


def _ring_point(ring: Layout, scenario: Scenario) -> chan.PropagationParams:
    """The propagation point of a ring at the scenario's distance and
    carrier; raises ValueError when its channel cannot be evaluated."""
    params = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta)
    chan.check_element_distances(ring, ring, params)
    return params


def se_single_loop_uca(ring: Layout, scenario: Scenario, sigma2: float) -> float:
    """Single-loop UCA baseline: the efficiency of a ring facing an
    identical ring at the scenario's distance and carrier, the single-cell
    reduction of the QF efficiency.

    A one-cell ring has no phase compensation and a unitary inner DFT, so
    every mode sees exactly sigma^2 (no element is shared;
    `txrx.noise_mode_scale(ring)` gives exactly ones) and one exact
    transform, W^H H W, of which the efficiency reads only the diagonal: the
    eigenvalues of the circulant H, from `ring_eigenvalues` at this one
    point in O(n^2) time and O(max(RING_BLOCK_GAINS, n)) memory.  The gains
    are the exact ones, whatever the scenario's lambda_path."""
    lam = ring_eigenvalues(ring, [_ring_point(ring, scenario)])[0]
    return _ring_se(lam, scenario, sigma2)


def se_siso_times(n: int, scenario: Scenario, sigma2: float) -> float:
    """n-fold single-antenna reference: n log2(1 + received SNR)."""
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    g = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta).reference_gain
    snr = scenario.total_power * g ** 2 / sigma2
    if not math.isfinite(snr):
        raise DomainError(f"spectrum efficiency overflows: the SNR at distance "
                          f"{scenario.distance_m!r} m with noise variance {sigma2!r} "
                          "leaves the float range")
    return float(n * np.log2(1.0 + snr))


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: the axis, its strictly increasing values, the
    fixed remaining scenario, and the distinct systems to evaluate."""

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
        systems = tuple(self.systems)
        if not systems:
            raise ValueError(f"no systems: name at least one of {SYSTEMS}")
        unknown = set(systems) - set(SYSTEMS)
        if unknown:
            raise ValueError(f"unknown systems: {sorted(unknown)}")
        repeated = {s for s in systems if systems.count(s) > 1}
        if repeated:
            raise ValueError(f"repeated systems: {sorted(repeated)}")
        object.__setattr__(self, "systems", systems)


def run_sweep(spec: SweepSpec) -> tuple:
    """Evaluate each requested system at each axis value: a tuple of rows
    (axis_value, system, se_bits_per_s_per_hz, aux).  Deterministic; rows
    ordered by (axis value, system label).

    The QF antenna and the two ring layouts are built once; each point
    builds only the links at its distance and carrier, and the SNR axis
    reuses one QF-UCA link for all points.  Of a QF-UCA link the sweep keeps
    only `se_qf`'s three (N, K) inputs: the link's sub-channels and exact
    transforms are freed before the next point's link is built.  On the
    distance and carrier axes each ring's eigenvalues at every point come
    first, from one `ring_eigenvalues` pass, and only for the leading points
    whose ring channel can be evaluated; the efficiencies then follow point
    by point, so a sweep stops at its first failing point with the error a
    point-by-point evaluation gives.  The SNR axis evaluates each ring per
    point."""
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
    # each distance or carrier point needs every ring gain anew: one pass over
    # a ring's row blocks gives its eigenvalues at the leading points it can
    # evaluate, and the loop below raises at the first it cannot, in order
    ring_lams = {}
    if spec.axis != "snr_db":
        for system, ring in rings.items():
            points = []
            for value in spec.axis_values:
                try:
                    points.append(_ring_point(ring, replace(base, **{spec.axis: value})))
                except ValueError:
                    break
            if points:
                ring_lams[system] = ring_eigenvalues(ring, points)
    rows = []
    anchor_sigma2 = noise_variance(base)
    qf_inputs = None
    for i, value in enumerate(spec.axis_values):
        scen = replace(base, **{spec.axis: value})
        s2 = anchor_sigma2 if spec.axis == "distance_m" else noise_variance(scen)
        for system in systems:
            if system == "qf_uca":
                # SNR enters only through s2, so one link serves the SNR axis
                if qf_inputs is None or spec.axis != "snr_db":
                    link = link_at(qf, scen)
                    # se_qf's (N, K) inputs are none of them views of the
                    # link's (N, K, K) arrays, which go here
                    qf_inputs = link.lambda_coeffs, link.power_alloc, link.noise_scale
                    del link
                lam, power, scale = qf_inputs
                se = se_qf(lam, power, s2 * scale)
            elif system == "siso_xN":
                se = se_siso_times(n_elements, scen, s2)
            elif system in ring_lams and i < len(ring_lams[system]):
                se = _ring_se(ring_lams[system][i], scen, s2)
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
