"""Transceiver chain: two-dimension OAM modulation (TOM), physical
propagation, two-dimension demodulation (TOD), and mode-wise ML detection.

Frames travel through one batched engine, `FrameChain`, built once per link:
a stack of (N, K) symbol grids is modulated by idft_matrix(N) @ S @
idft_matrix(K), summed onto the shared elements, propagated by one product
with the physical gain matrix, split back to the logical slots, compensated
by dft_matrix(N), inner-demodulated by L and dft_matrix(K), and detected by
one tie-stable argmin over the constellation.  `run_loopback` sends its
frames through it FRAME_BLOCK at a time; `end_to_end` is the one-frame case.

A link is built in two halves: `build_antenna` (or `ring_antenna` for a
single-loop baseline) makes the part that depends on neither distance,
carrier nor SNR, and `link_at` adds the propagation part.  `build_link` is
their composition; sweeps keep the antenna and call `link_at` per point.

The per-frame stage functions (`tom_modulate`, `propagate`,
`tod_split_compensate`, `tod_inner_demodulate`, `ml_detect`) are the
engine's expressions for one frame.  The tests hold each against its
direct-summation form, the physical path against the logical
block-circulant path, and the engine against a frame-by-frame loop over the
stage functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as chan
from .errors import DimensionError
from .geometry import Layout, build_layout, duplicate_to_slots, single_ring_layout, \
    slot_group_sum
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

    name: str
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
        return cls(name=name, points=table[name])


@dataclass(frozen=True)
class SymbolGrid:
    """Transmit symbols s_{p,l} and their power budget.

    Arrays are (n_inter, n_inner) in DFT-index order; row/column index i
    corresponds to mode i for i <= n/2 and i - n beyond, matching the
    centered summation ranges.
    """

    n_inter: int
    n_inner: int
    symbols: np.ndarray
    power_alloc: np.ndarray

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=complex)
        pw = np.asarray(self.power_alloc, dtype=float)
        if sym.shape != (self.n_inter, self.n_inner) or pw.shape != sym.shape:
            raise DimensionError("symbol and power grids must be (n_inter, n_inner)")
        if np.any(pw < 0):
            raise ValueError("power allocation must be nonnegative")
        object.__setattr__(self, "symbols", sym)
        object.__setattr__(self, "power_alloc", pw)

    @property
    def total_power(self) -> float:
        return float(self.power_alloc.sum())

    def symbol(self, p: int, l: int) -> complex:
        return self.symbols[p % self.n_inter, l % self.n_inner]

    @classmethod
    def uniform(cls, n_inter: int, n_inner: int, symbols=None,
                total_power: float = 1.0) -> "SymbolGrid":
        """Grid with power averagely allocated over all modes."""
        if symbols is None:
            symbols = np.zeros((n_inter, n_inner), dtype=complex)
        pw = np.full((n_inter, n_inner), total_power / (n_inter * n_inner))
        return cls(n_inter=n_inter, n_inner=n_inner, symbols=symbols, power_alloc=pw)


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


def logical_modulated(grid: SymbolGrid) -> np.ndarray:
    """Pre-superposition logical signals x_{n,k}: the two-dimension IDFT of
    the symbol grid, (1/sqrt(NK)) sum_{p,l} s e^{j2pi kl/K} e^{j2pi np/N}."""
    wn = idft_matrix(grid.n_inter)
    wk = idft_matrix(grid.n_inner)
    return wn @ grid.symbols @ wk


def tom_modulate(grid: SymbolGrid, tx: Layout) -> np.ndarray:
    """Physical transmit feed: the two-dimension IDFT of the symbol grid,
    superposed onto the shared elements; indexed by physical element id."""
    if (grid.n_inter, grid.n_inner) != (tx.n_cells, tx.elems_per_cell):
        raise ValueError("symbol grid does not match the transmit layout")
    return slot_group_sum(tx, logical_modulated(grid))


def propagate(tx_signals: np.ndarray, tx: Layout, rx: Layout,
              params: chan.PropagationParams, noise: NoiseModel,
              frame: int = 0) -> np.ndarray:
    """Physical element-to-element propagation plus receiver noise.

    Deterministic given (noise.seed, frame)."""
    x = np.asarray(tx_signals, dtype=complex)
    if x.size != tx.n_physical:
        raise DimensionError("transmit vector does not match the physical element count")
    g = chan.physical_gain_matrix(tx, rx, params)
    return g @ x + noise.sample(rx.n_physical, frame)


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


def tod_inner_demodulate(x_tilde_p: np.ndarray, rx: Layout) -> np.ndarray:
    """Inner demodulation of one branch: s~_p = W^H L x~_p, with L the
    receive layout's sharing frequencies."""
    x = np.asarray(x_tilde_p, dtype=complex)
    if x.size != rx.elems_per_cell:
        raise DimensionError("branch length does not match the receive cell")
    return dft_matrix(x.size) @ (rx.sharing_freqs * x)


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
    def snr(self) -> np.ndarray:
        """Signal over noise power per mode (interference not counted); 0
        where a mode carries no signal."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.signal_power > 0,
                           self.signal_power / self.noise_power, 0.0)
        return out

    @property
    def interference_to_signal(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.signal_power > 0,
                            self.interference_power / self.signal_power, np.inf)

    @property
    def max_interference_to_signal(self) -> float:
        """Largest finite interference-to-signal ratio over the modes (0 if
        none is finite)."""
        isr = self.interference_to_signal
        return float(np.max(isr[np.isfinite(isr)], initial=0.0))


@dataclass(frozen=True)
class EndToEndResult:
    detected: np.ndarray
    detected_idx: np.ndarray
    degenerate: np.ndarray
    mode_errors: np.ndarray
    diagnostics: Diagnostics

    @property
    def symbol_errors(self) -> int:
        return int(self.mode_errors.sum())


def noise_mode_scale(rx: Layout, n_inter: int) -> np.ndarray:
    """sigma^2_{p,l} / sigma^2: row power of the linear map taking the
    physical element noise vector to s~_p(l) through split, compensation,
    post-decoding, and the inner DFT.  The split's 1/L_v and the
    post-decoding L_v cancel, since every cell shares its elements as cell 0
    does, leaving only the coherent accumulation of each element's
    duplicates.

    The map is built one branch p at a time, a (V, n_physical) slice, so
    the working memory does not grow with N."""
    v = rx.elems_per_cell
    groups = rx.slot_group
    m, p = np.arange(rx.n_cells), np.arange(n_inter)
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
    return Antenna(tx=tx, rx=rx, noise_scale=noise_mode_scale(rx, scenario.n_cells))


def ring_antenna(n_elements: int, radius: float) -> Antenna:
    """Single-loop UCA baseline: a ring of n elements facing an identical
    ring, the one-cell antenna (no sharing, L = I).  With no split, no phase
    compensation and a unitary inner DFT, every mode sees exactly sigma^2:
    its noise scale is ones (`noise_mode_scale(ring, 1)` computes them to
    within an ulp)."""
    ring = single_ring_layout(n_elements, radius)
    return Antenna(tx=ring, rx=ring, noise_scale=np.ones((1, n_elements)))


@dataclass(frozen=True)
class Link:
    """Everything derived from a scenario that the pipeline needs."""

    tx: Layout
    rx: Layout
    params: chan.PropagationParams
    mode: chan.ModeChannel
    block_channel: chan.BlockChannel
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
    return scenario.total_power * g ** 2 / scenario.snr_linear


def link_at(antenna: Antenna, scenario) -> Link:
    """The propagation half of a link: the antenna at the scenario's
    distance, carrier, beta and SNR.  Builds the block channel, the exact
    transforms and the detection coefficients; the symbol grid takes the
    antenna's shape."""
    tx, rx = antenna.tx, antenna.rx
    params = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta)
    block_channel = chan.build_block_channel(tx, rx, params)
    mode = chan.detection_coeffs(tx, rx, params,
                                 j_order=scenario.bessel_order,
                                 correction=scenario.bessel_correction,
                                 channel=block_channel)
    lam = mode.lambda_coeffs if scenario.lambda_path == "exact" \
        else chan.bessel_lambda(mode)
    grid = SymbolGrid.uniform(tx.n_cells, tx.elems_per_cell,
                              total_power=scenario.total_power)
    return Link(tx=tx, rx=rx, params=params, mode=mode,
                block_channel=block_channel, lambda_coeffs=lam,
                constellation=Constellation.from_name(scenario.constellation),
                power_alloc=grid.power_alloc, sigma2=noise_variance(scenario),
                noise_scale=antenna.noise_scale, seed=scenario.seed)


def build_link(scenario) -> Link:
    """Assemble layouts, channel, detection coefficients, and noise figures
    for one scenario (see qfuca.config.Scenario): its antenna, then the
    link at its distance, carrier and SNR."""
    return link_at(build_antenna(scenario), scenario)


def mode_diagnostics(link: Link, power_alloc: np.ndarray | None = None) -> Diagnostics:
    """Per-mode signal, interference and noise powers of a link under a power
    allocation (the link's own by default).  They do not depend on the
    frame, so one table serves every frame, the loopback report and
    modes.csv."""
    pa = link.power_alloc if power_alloc is None else np.asarray(power_alloc, dtype=float)
    lam = link.lambda_coeffs
    row_gain = np.abs(link.mode.exact_matrices) ** 2
    # hypot and one dot product per mode row: the rounding modes.csv is
    # recorded with (np.abs of a complex array rounds differently)
    coupling = np.array([[row @ pa_p for row in gain_p]
                         for gain_p, pa_p in zip(row_gain, pa)])
    return Diagnostics(signal_power=np.hypot(lam.real, lam.imag) ** 2 * pa,
                       interference_power=coupling - np.einsum("pll->pl", row_gain) * pa,
                       noise_power=link.noise_power)


class FrameChain:
    """A link's frame chain as operators built once, applied to stacks of
    frames.  Symbols are (F, N, K) in DFT-index order; `amplitudes` is the
    (N, K) symbol scale the ML alphabet is matched to."""

    def __init__(self, link: Link, amplitudes: np.ndarray):
        n, k = link.n_inter, link.n_inner
        self.tx, self.rx = link.tx, link.rx
        self.gain_t = chan.physical_gain_matrix(link.tx, link.rx, link.params).T
        self.idft_n, self.idft_k = idft_matrix(n), idft_matrix(k)
        # s~_p = W^H L x~_p for every branch, acting on x~ as row vectors
        self.inner = link.rx.sharing_freqs[:, None] * dft_matrix(k).T
        self.amplitudes, self.points = amplitudes, link.constellation.points
        self.candidates = link.lambda_coeffs[..., None] * (amplitudes[..., None] * self.points)

    def detect(self, symbols: np.ndarray, noise: NoiseModel, frames):
        """Modulate, propagate (frame f draws noise.sample(.., f)), split,
        compensate, inner-demodulate and ML-detect a stack of frames.

        Returns (detected indices, detected values, near-tie flags), each
        (F, N, K)."""
        feed = slot_group_sum(self.tx, self.idft_n @ symbols @ self.idft_k)
        received = feed @ self.gain_t \
            + np.stack([noise.sample(self.rx.n_physical, f) for f in frames])
        x_tilde = tod_split_compensate(received, self.rx)
        indices, near_ties = _nearest(x_tilde @ self.inner, self.candidates)
        return indices, self.amplitudes * self.points[indices], near_ties


def end_to_end(grid: SymbolGrid, link: Link, noise: NoiseModel,
               frame: int = 0) -> EndToEndResult:
    """Full chain for one frame (the one-frame case of the loopback engine):
    modulate, propagate, split/compensate, inner demodulate, detect.  Symbol
    errors are counted per mode over non-degenerate modes against the
    transmitted grid; the diagnostics use the grid's power allocation."""
    if (grid.n_inter, grid.n_inner) != (link.n_inter, link.n_inner):
        raise ValueError("symbol grid does not match the transmit layout")
    chain = FrameChain(link, np.sqrt(grid.power_alloc))
    indices, detected, _ = chain.detect(grid.symbols[None], noise, [frame])
    degenerate = link.lambda_coeffs == 0
    return EndToEndResult(detected=detected[0], detected_idx=indices[0],
                          degenerate=degenerate,
                          mode_errors=(detected[0] != grid.symbols) & ~degenerate,
                          diagnostics=mode_diagnostics(link, grid.power_alloc))


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
    chain, FRAME_BLOCK frames at a time.  Counts symbol errors in total, per
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
    chain = FrameChain(link, amplitudes)
    counted = link.lambda_coeffs != 0
    per_frame = []
    per_mode = np.zeros((n, k), dtype=int)
    near_ties = 0
    for start in range(0, n_frames, FRAME_BLOCK):
        frames = range(start, min(start + FRAME_BLOCK, n_frames))
        idx = np.stack([sym_rng.integers(0, points.size, size=(n, k)) for _ in frames])
        symbols = amplitudes * points[idx]
        _, detected, ties = chain.detect(symbols, noise, frames)
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
