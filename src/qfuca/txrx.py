"""Transceiver chain: two-dimension OAM modulation (TOM), physical
propagation, two-dimension demodulation (TOD), and mode-wise ML detection.

The chain is one set of stage functions, each taking a stack of frames
(leading axes index frames): `tom_modulate` applies idft_matrix(N) @ S @
idft_matrix(K) to the (N, K) symbol grids and sums the slots onto the shared
elements; propagation is one product with the transposed physical gain
matrix; `tod_split_compensate` splits each observation back to the logical
slots and compensates by dft_matrix(N); `tod_inner_demodulate` applies L and
dft_matrix(K) to every branch at once.  `run_loopback` builds the gain
matrix and the ML candidates once per run, sends its frames through the
stages FRAME_BLOCK at a time, and detects them by one tie-stable argmin over
the constellation.

A link is built in two halves: `build_antenna` makes the part that depends
on neither distance, carrier nor SNR, and `link_at` adds the propagation
part.  `build_link` is their composition; sweeps keep the antenna and call
`link_at` per point.

`ml_detect` is the detector for one branch.  The tests hold each stage
against its direct-summation form, the physical path against the logical
block-circulant path, and `run_loopback` against a frame-by-frame loop over
the stages and `ml_detect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as chan
from .errors import DimensionError
from .geometry import Layout, build_layout, duplicate_to_slots, slot_group_sum
from .linalg import dft_matrix, idft_matrix

# Frames go through the engine in blocks of this many, so its temporaries
# (the largest is the (frames, N, K, alphabet) distance tensor) keep one size
# however many frames a run sends.
FRAME_BLOCK = 32

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
_BPSK = np.array([1 + 0j, -1 + 0j])

# ML candidates within this relative distance of the nearest one are ties and
# resolve to the lowest constellation index.  Ties in the noiseless default
# chain sit at or below 1e-14 relative; noisy decision margins of the 8x16
# perfbench loopback are 9e-9 and above.
TIE_RTOL = 1e-12


def _qam16_points() -> np.ndarray:
    re, im = np.meshgrid([-3, -1, 1, 3], [-3, -1, 1, 3])
    pts = (re + 1j * im).reshape(-1)
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


@dataclass(frozen=True)
class Constellation:
    """Finite symbol alphabet with unit average energy."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("constellation needs a non-empty 1-D point set")
        if abs(np.mean(np.abs(pts) ** 2) - 1.0) > 1e-12:
            raise ValueError("constellation points must have unit average energy")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        table = {"qpsk": _QPSK, "bpsk": _BPSK, "16qam": _qam16_points()}
        if name not in table:
            raise ValueError(f"unknown constellation {name!r}, expected one of {sorted(table)}")
        return cls(points=table[name])


@dataclass(frozen=True)
class NoiseModel:
    """Circular complex white noise per physical receive element."""

    element_variance: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.element_variance):
            raise ValueError(f"noise variance must be finite, got {self.element_variance!r}")
        if self.element_variance < 0:
            raise ValueError("noise variance must be nonnegative")

    def rng(self, frame: int = 0) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, frame)))

    def sample(self, n: int, frame: int = 0) -> np.ndarray:
        if self.element_variance == 0:
            return np.zeros(n, dtype=complex)
        scale = np.sqrt(self.element_variance / 2)
        g = self.rng(frame)
        return g.normal(scale=scale, size=n) + 1j * g.normal(scale=scale, size=n)


def tom_modulate(symbols: np.ndarray, tx: Layout) -> np.ndarray:
    """Physical transmit feed: the two-dimension IDFT of each (N, K) symbol
    grid, (1/sqrt(NK)) sum_{p,l} s e^{j2pi kl/K} e^{j2pi np/N}, superposed
    onto the shared elements; the last axis indexes physical elements and
    leading axes index frames."""
    sym = np.asarray(symbols, dtype=complex)
    n, k = tx.n_cells, tx.elems_per_cell
    if sym.shape[-2:] != (n, k):
        raise DimensionError("symbol grid does not match the transmit layout")
    return slot_group_sum(tx, idft_matrix(n) @ sym @ idft_matrix(k))


def split_received(rx_signals: np.ndarray, rx: Layout) -> np.ndarray:
    """Split each physical element's observation into its logical slots: the
    shared element's value is divided equally among the co-using cells (the
    1/L_v of the gain definition), which the inner demodulation's L undoes.
    Leading axes of `rx_signals` index frames."""
    y = np.asarray(rx_signals, dtype=complex)
    if y.shape[-1:] != (rx.n_physical,):
        raise DimensionError("receive vector does not match the physical element count")
    return duplicate_to_slots(rx, y / rx.element_sharing)


def tod_split_compensate(rx_signals: np.ndarray, rx: Layout) -> np.ndarray:
    """Split physical observations to logical slots, then separate the
    inter-cell modes by the N-point phase compensation dft_matrix(N): row p
    of the result is x~_p.  Leading axes of `rx_signals` index frames."""
    return dft_matrix(rx.n_cells) @ split_received(rx_signals, rx)


def tod_inner_demodulate(x_tilde: np.ndarray, rx: Layout) -> np.ndarray:
    """Inner demodulation of every branch: s~_p = W^H L x~_p, with L the
    receive layout's sharing frequencies, applied to the branches x~_p as
    row vectors (last axis); leading axes index branches and frames."""
    x = np.asarray(x_tilde, dtype=complex)
    v = rx.elems_per_cell
    if x.shape[-1:] != (v,):
        raise DimensionError("branch length does not match the receive cell")
    return x @ (rx.sharing_freqs[:, None] * dft_matrix(v).T)


def _nearest(s_tilde: np.ndarray, candidates: np.ndarray):
    """Tie-stable ML decision for every mode: the lowest index among the
    candidates (last axis: Lambda times the scaled alphabet) whose distance
    to s~ is within TIE_RTOL of the nearest one, and whether there was more
    than one such candidate (a near-tie)."""
    dist = np.abs(s_tilde[..., None] - candidates)
    within = dist <= dist.min(axis=-1, keepdims=True) * (1 + TIE_RTOL)
    return np.argmax(within, axis=-1), np.count_nonzero(within, axis=-1) > 1


def ml_detect(s_tilde_p: np.ndarray, lambda_row: np.ndarray,
              constellation: Constellation,
              amplitudes: np.ndarray | None = None):
    """Mode-wise ML detection of one branch.

    Per inner mode l independently, picks argmin over the (amplitude-scaled)
    alphabet of |s~_p(l) - Lambda_{p,l} s|; candidates within TIE_RTOL of the
    nearest resolve to the lowest constellation index.  Modes with Lambda
    exactly zero are undetectable and flagged; they return the tie-break
    symbol.

    Returns (detected values, detected indices, degenerate flags).
    """
    s_tilde = np.asarray(s_tilde_p, dtype=complex)
    lam = np.asarray(lambda_row, dtype=complex)
    if s_tilde.shape != lam.shape:
        raise DimensionError("branch and coefficient lengths differ")
    if not np.all(np.isfinite(lam.view(float))):
        raise ValueError("detection coefficients must be finite")
    if amplitudes is None:
        amplitudes = np.ones(s_tilde.size)
    scaled = np.asarray(amplitudes)[:, None] * constellation.points
    indices, _ = _nearest(s_tilde, lam[:, None] * scaled)
    return scaled[np.arange(s_tilde.size), indices], indices, lam == 0


@dataclass(frozen=True)
class Diagnostics:
    """Per-mode link diagnostics, all (n_inter, n_inner) in DFT-index order."""

    signal_power: np.ndarray
    interference_power: np.ndarray
    noise_power: np.ndarray

    @property
    def max_interference_to_signal(self) -> float:
        """Largest finite interference-to-signal ratio over the modes (0 if
        none is finite; a mode without signal has none)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            isr = np.where(self.signal_power > 0,
                           self.interference_power / self.signal_power, np.inf)
        return float(np.max(isr[np.isfinite(isr)], initial=0.0))


def noise_mode_scale(rx: Layout) -> np.ndarray:
    """sigma^2_{p,l} / sigma^2: row power of the linear map taking the
    physical element noise vector to s~_p(l) through split, compensation,
    post-decoding, and the inner DFT.  The split's 1/L_v and the
    post-decoding L_v cancel, since every cell shares its elements as cell 0
    does, leaving only the coherent accumulation of each element's
    duplicates.

    The map is built one branch p at a time, a (V, n_physical) slice, so
    the working memory does not grow with N."""
    n_inter, v = rx.n_cells, rx.elems_per_cell
    groups = rx.slot_group
    m = p = np.arange(n_inter)
    # exp(-1j * angle) keeps the bits of the scalar exp(-2j * pi * m * p / n)
    # for every n; numpy's complex division by n rounds differently
    phase = np.exp(-1j * (2 * np.pi * m[None, :] * p[:, None] / n_inter)) / np.sqrt(n_inter)
    dft = dft_matrix(v)
    out = np.empty((n_inter, v))
    for p in range(n_inter):
        a = np.zeros((v, rx.n_physical), dtype=complex)
        np.add.at(a, (np.arange(v), groups), phase[p][:, None])
        out[p] = np.sum(np.abs(dft @ a) ** 2, axis=1)
    return out


@dataclass(frozen=True)
class Antenna:
    """The half of a link that depends on neither distance, carrier nor SNR:
    both layouts and sigma^2_{p,l} / sigma^2.  A sweep builds each of its
    antennas once and reuses it at every point."""

    tx: Layout
    rx: Layout
    noise_scale: np.ndarray


def build_antenna(scenario) -> Antenna:
    """The QF-UCA antenna pair of a scenario (see qfuca.config.Scenario)."""
    tx = build_layout(scenario.n_cells, scenario.tx_elems, scenario.tx_ratio,
                      scenario.qf_radius_m)
    rx = build_layout(scenario.n_cells, scenario.rx_elems, scenario.rx_ratio,
                      scenario.qf_radius_m)
    return Antenna(tx=tx, rx=rx, noise_scale=noise_mode_scale(rx))


@dataclass(frozen=True)
class Link:
    """Everything derived from a scenario that the pipeline needs:
    subchannels are the (N, V, K) block-circulant sub-channels H_q,
    exact_matrices the (N, K, K) exact transforms and lambda_coeffs the
    (N, K) detection coefficients."""

    tx: Layout
    rx: Layout
    params: chan.PropagationParams
    subchannels: np.ndarray
    exact_matrices: np.ndarray
    lambda_coeffs: np.ndarray
    constellation: Constellation
    power_alloc: np.ndarray
    sigma2: float
    noise_scale: np.ndarray
    seed: int = 0

    @property
    def n_inter(self) -> int:
        return self.tx.n_cells

    @property
    def n_inner(self) -> int:
        return self.tx.elems_per_cell

    @property
    def noise_power(self) -> np.ndarray:
        return self.sigma2 * self.noise_scale

    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.power_alloc)


def noise_variance(scenario) -> float:
    """sigma^2 of a scenario: total power times the squared boresight gain
    at its own distance and carrier, over its linear SNR."""
    g = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta).reference_gain
    sigma2 = scenario.total_power * g ** 2 / scenario.snr_linear
    if not np.isfinite(sigma2):
        raise ValueError(f"snr_db {scenario.snr_db!r} with total_power "
                         f"{scenario.total_power!r} puts the noise variance "
                         "out of the float range")
    return sigma2


def link_at(antenna: Antenna, scenario) -> Link:
    """The propagation half of a link: the antenna at the scenario's
    distance, carrier, beta and SNR.  Builds the sub-channels, the exact
    transforms and the detection coefficients: the exact transforms'
    diagonals, or the Bessel-route diagonals summed over offsets; the total
    power is allocated equally over the antenna's N x K modes."""
    tx, rx = antenna.tx, antenna.rx
    params = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta)
    subchannels = chan.build_block_channel(tx, rx, params)
    exact = chan.detection_coeffs(subchannels, rx)
    if scenario.lambda_path == "exact":
        lam = np.einsum("pll->pl", exact).copy()
    else:
        lam = chan.bessel_diagonals(tx, rx, params, scenario.bessel_order,
                                    scenario.bessel_correction).sum(axis=1)
    n, k = tx.n_cells, tx.elems_per_cell
    return Link(tx=tx, rx=rx, params=params, subchannels=subchannels,
                exact_matrices=exact, lambda_coeffs=lam,
                constellation=Constellation.from_name(scenario.constellation),
                power_alloc=np.full((n, k), scenario.total_power / (n * k)),
                sigma2=noise_variance(scenario),
                noise_scale=antenna.noise_scale, seed=scenario.seed)


def build_link(scenario) -> Link:
    """Assemble layouts, channel, detection coefficients, and noise figures
    for one scenario (see qfuca.config.Scenario): its antenna, then the
    link at its distance, carrier and SNR."""
    return link_at(build_antenna(scenario), scenario)


def mode_diagnostics(link: Link) -> Diagnostics:
    """Per-mode signal, interference and noise powers of a link under its
    power allocation.  They do not depend on the frame, so one table serves
    every frame, the loopback report and modes.csv."""
    pa = link.power_alloc
    lam = link.lambda_coeffs
    row_gain = np.abs(link.exact_matrices) ** 2
    # hypot and one dot product per mode row: the rounding modes.csv is
    # recorded with (np.abs of a complex array rounds differently)
    coupling = np.array([[row @ pa_p for row in gain_p]
                         for gain_p, pa_p in zip(row_gain, pa)])
    return Diagnostics(signal_power=np.hypot(lam.real, lam.imag) ** 2 * pa,
                       interference_power=coupling - np.einsum("pll->pl", row_gain) * pa,
                       noise_power=link.noise_power)


@dataclass(frozen=True)
class LoopbackReport:
    frames: int
    symbol_errors: int
    symbols_counted: int
    degenerate_modes: int
    near_ties: int
    per_mode_errors: np.ndarray
    diagnostics: Diagnostics
    per_frame_errors: list = field(default_factory=list)

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols_counted if self.symbols_counted else 0.0

    @property
    def max_interference_to_signal(self) -> float:
        return self.diagnostics.max_interference_to_signal


def check_loopback(n_frames: int, noise_variance: float):
    """Reject a negative frame count, or a noise variance NoiseModel
    rejects, without building a link."""
    if n_frames < 0:
        raise ValueError(f"frame count must be nonnegative, got {n_frames}")
    NoiseModel(element_variance=noise_variance)


def run_loopback(link: Link, n_frames: int, noise_variance: float = 0.0) -> LoopbackReport:
    """Transmit n_frames random constellation grids through the link's
    chain, FRAME_BLOCK frames at a time: modulate, propagate, split and
    compensate, inner-demodulate, detect.  Counts symbol errors in total, per
    frame and per mode (an (N, K) count), and ML near-ties, all over the
    non-degenerate modes.  Deterministic from the link seed: frame f takes
    the next grid of the seed's symbol stream and the noise of
    NoiseModel(noise_variance, seed) at frame f.  Zero frames are a valid
    (empty) run; a negative count is rejected (`check_loopback`)."""
    check_loopback(n_frames, noise_variance)
    n, k = link.n_inter, link.n_inner
    noise = NoiseModel(element_variance=noise_variance, seed=link.seed)
    sym_rng = np.random.default_rng(np.random.SeedSequence((link.seed, 0xA11CE)))
    points = link.constellation.points
    amplitudes = link.amplitudes()
    gain_t = chan.physical_gain_matrix(link.tx, link.rx, link.params).T
    # the ML alphabet of every mode: Lambda times the scaled constellation
    candidates = link.lambda_coeffs[..., None] * (amplitudes[..., None] * points)
    counted = link.lambda_coeffs != 0
    per_frame = []
    per_mode = np.zeros((n, k), dtype=int)
    near_ties = 0
    for start in range(0, n_frames, FRAME_BLOCK):
        frames = range(start, min(start + FRAME_BLOCK, n_frames))
        idx = np.stack([sym_rng.integers(0, points.size, size=(n, k)) for _ in frames])
        symbols = amplitudes * points[idx]
        received = tom_modulate(symbols, link.tx) @ gain_t \
            + np.stack([noise.sample(link.rx.n_physical, f) for f in frames])
        s_tilde = tod_inner_demodulate(tod_split_compensate(received, link.rx), link.rx)
        indices, ties = _nearest(s_tilde, candidates)
        detected = amplitudes * points[indices]
        errors = (detected != symbols) & counted
        per_frame += errors.sum(axis=(1, 2)).tolist()
        per_mode += errors.sum(axis=0)
        near_ties += int(np.count_nonzero(ties & counted))
    n_counted = int(counted.sum())
    return LoopbackReport(frames=n_frames, symbol_errors=int(per_mode.sum()),
                          symbols_counted=n_frames * n_counted,
                          degenerate_modes=n_frames * (n * k - n_counted),
                          near_ties=near_ties, per_mode_errors=per_mode,
                          diagnostics=mode_diagnostics(link),
                          per_frame_errors=per_frame)
