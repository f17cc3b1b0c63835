"""Spectrum-efficiency metrics and parameter sweeps.

SNR convention: snr = total_power * (beta lambda / 4 pi D)^2 / sigma^2, so an
n-fold single-antenna reference at SNR x reaches exactly n log2(1 + x).  For
distance sweeps the noise variance is anchored once at the scenario's base
distance, so every system's efficiency falls with distance; SNR-axis sweeps
recompute the variance per point and reuse one QF-UCA link for all points.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from .config import Scenario
from .errors import DegenerateChannelError
from .geometry import single_ring_layout, sharing_matrix
from .txrx import Link, build_link, noise_mode_scale

SWEEP_AXES = ("snr_db", "distance_m", "freq_hz")
SYSTEMS = ("qf_uca", "uca_n", "uca_bigger", "siso_xN")


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


def _sigma2(scenario: Scenario) -> float:
    """Noise variance anchored at the scenario's own distance and wavelength."""
    g0 = scenario.beta * scenario.wavelength_m / (4 * np.pi * scenario.distance_m)
    return scenario.total_power * g0 ** 2 / scenario.snr_linear


def _ring_lambda(n_elements: int, radius: float, params: chan.PropagationParams):
    """Exact per-mode gains of a single ring (no sharing, L = I)."""
    ring = single_ring_layout(n_elements, radius)
    sharing = sharing_matrix(ring)
    g = chan.exact_mode_matrix(ring, ring, params, sharing, 0)
    return np.diag(g)[None, :], ring


def se_single_loop_uca(n_elements: int, scenario: Scenario,
                       distance_m: float | None = None,
                       sigma2: float | None = None) -> float:
    """Single-loop UCA baseline: one ring of n elements at the antenna radius,
    evaluated as the single-cell reduction of the QF efficiency."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    d = scenario.distance_m if distance_m is None else distance_m
    params = chan.PropagationParams.from_frequency(d, scenario.freq_hz, scenario.beta)
    lam, ring = _ring_lambda(n_elements, scenario.qf_radius_m, params)
    s2 = _sigma2(scenario) if sigma2 is None else sigma2
    noise = s2 * noise_mode_scale(ring, 1)
    power = np.full((1, n_elements), scenario.total_power / n_elements)
    return se_qf(lam, power, noise)


def se_siso_times(n: int, scenario: Scenario, distance_m: float | None = None,
                  sigma2: float | None = None) -> float:
    """n-fold single-antenna reference: n log2(1 + received SNR)."""
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    d = scenario.distance_m if distance_m is None else distance_m
    g = scenario.beta * scenario.wavelength_m / (4 * np.pi * d)
    s2 = _sigma2(scenario) if sigma2 is None else sigma2
    snr = scenario.total_power * g ** 2 / s2
    return float(n * np.log2(1.0 + snr))


def se_qf_scenario(scenario: Scenario, distance_m: float | None = None,
                   sigma2: float | None = None) -> float:
    """QF-UCA spectrum efficiency for a scenario, optionally at an overridden
    distance and noise variance (used by sweeps)."""
    work = scenario if distance_m is None else replace(scenario, distance_m=distance_m)
    s2 = _sigma2(scenario) if sigma2 is None else sigma2
    return _se_qf_link(build_link(work), s2)


def _se_qf_link(link: Link, sigma2: float) -> float:
    return se_qf(link.lambda_coeffs, link.power_alloc, sigma2 * link.noise_scale)


def se_gain(se_a: float, se_b: float) -> float:
    """Ratio of spectrum efficiencies at matched SNR and geometry."""
    if se_b <= 0:
        raise DegenerateChannelError("gain undefined against zero efficiency")
    return se_a / se_b


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
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("axis values must be strictly increasing")
        object.__setattr__(self, "axis_values", vals)
        unknown = set(self.systems) - set(SYSTEMS)
        if unknown:
            raise ValueError(f"unknown systems: {sorted(unknown)}")
        object.__setattr__(self, "systems", tuple(self.systems))


@dataclass(frozen=True)
class SweepResult:
    """Rows of (axis_value, system, se_bits_per_s_per_hz, aux)."""

    axis: str
    rows: tuple


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate each requested system at each axis value.  Deterministic;
    rows ordered by (axis value, system label)."""
    base = spec.fixed
    n_elements = None
    if {"qf_uca", "uca_n", "uca_bigger", "siso_xN"} & set(spec.systems):
        from .geometry import build_layout
        tx = build_layout(base.n_cells, base.tx_elems, base.tx_ratio, base.qf_radius_m)
        n_elements = tx.n_physical
    n_modes = base.n_cells * base.tx_elems
    rows = []
    anchor_sigma2 = _sigma2(base)
    qf_link = None
    for value in spec.axis_values:
        if spec.axis == "snr_db":
            scen = replace(base, snr_db=value)
            d, s2 = scen.distance_m, _sigma2(scen)
        elif spec.axis == "distance_m":
            scen, d, s2 = base, value, anchor_sigma2
        else:
            scen = replace(base, freq_hz=value)
            d, s2 = scen.distance_m, _sigma2(scen)
        for system in sorted(spec.systems):
            if system == "qf_uca":
                # SNR enters only through s2, so one link serves the SNR axis
                if qf_link is None or spec.axis != "snr_db":
                    qf_link = build_link(replace(scen, distance_m=d))
                se = _se_qf_link(qf_link, s2)
            elif system == "uca_n":
                se = se_single_loop_uca(n_elements, scen, distance_m=d, sigma2=s2)
            elif system == "uca_bigger":
                se = se_single_loop_uca(n_modes, scen, distance_m=d, sigma2=s2)
            else:
                se = se_siso_times(n_elements, scen, distance_m=d, sigma2=s2)
            rows.append((value, system, se, ""))
    return SweepResult(axis=spec.axis, rows=tuple(rows))


def sweep_csv(result: SweepResult) -> str:
    """CSV serialization: header axis,system,se_bps_hz,aux; full-precision
    floats; LF line endings."""
    buf = io.StringIO()
    buf.write("axis,system,se_bps_hz,aux\n")
    for value, system, se, aux in result.rows:
        buf.write(f"{float(value)!r},{system},{float(se)!r},{aux}\n")
    return buf.getvalue()
