"""Transceiver chain: OAM frames over a QF-UCA link, two-dimension
demodulation (TOD) and mode-wise ML detection.

Two-dimension OAM modulation (TOM), the physical channel and TOD
block-diagonalise the link: branch p of TOD after the channel after TOM is
the K x K exact transform T_p, which the link holds as
`Link.exact_matrices`.  So `run_loopback` sends its frames to the receiver
as s~_p = T_p s_p, one batched product, and only the element noise, on a
noisy run, takes TOD.  `tod` reads each observation at every slot on its
element and takes one unitary 2-D FFT over (cell, slot), the adjoint of TOM;
leading axes index frames.  The paper's 1/L_v split of a shared element and
its L after the inner DFT cancel, so neither is applied.  `run_loopback`
takes its frames in blocks of BLOCK_DECISIONS decisions and detects them by
one tie-stable ML rule over the link's alphabet, its read-only point array
from ALPHABETS, with tables built once per run (`_detector`).  Every
alphabet is a grid of real and imaginary levels, so the rule is a slicer:
each axis of s~ / (Lambda a) rounds to its nearest level, and only
decisions near a tie measure their distance to every point.

A link is built in two halves: `build_antenna` makes the part that depends
on neither distance, carrier nor SNR, and `link_at` adds the propagation
part.  `build_link` is their composition; sweeps keep the antenna and call
`link_at` per point.  The noise scale is one 2-D DFT of the receive layout's
shared-slot pairs (`noise_mode_scale`); where it is 0, Lambda is 0 too.

`_nearest` makes every ML decision; `ml_detect` is it for one branch.  The
tests hold `tod` against its direct-summation form and as TOM's adjoint,
the transforms against the physical path (TOM and the dense element gain
matrix, in tests/reference.py, then `tod`), that path against the logical
block-circulant path, and `run_loopback` against a frame-by-frame loop over
the physical path and the alphabet search of tests/reference.py, the
detector's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .errors import DimensionError
from .geometry import Layout, build_layout

# Frames go through the engine in blocks of this many ML decisions, N K per
# frame and at least one frame (`Link.block_frames`), so its temporaries keep
# one size however many frames a run sends and however many modes the link
# has: the element noise, (frames, N, K) arrays of symbols, observations and
# the slicer's per-axis terms, whatever the alphabet, and an (alphabet,
# decisions) distance array for the decisions near a tie alone.
BLOCK_DECISIONS = 2048

# ML candidates within this relative distance of the nearest one are ties and
# resolve to the lowest constellation index.  The slicer measures it in
# z = s~ / (Lambda a), where every distance scales by 1 / |Lambda a|, and
# sends each decision with a candidate within twice it to the distance search
# that applies it.  Ties in the noiseless default chain sit at or below 1e-14
# relative; noisy decision margins of the 8x16 perfbench loopback are 9e-9
# and above.
TIE_RTOL = 1e-12


def _qam16_points() -> np.ndarray:
    re, im = np.meshgrid([-3, -1, 1, 3], [-3, -1, 1, 3])
    pts = (re + 1j * im).reshape(-1)
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


# Each constellation's unit-energy points in index order: the loopback maps
# its drawn indices through them and near-ties resolve to the lowest index.
# Every link shares these arrays, so they are read-only.
ALPHABETS = {"qpsk": np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2),
             "bpsk": np.array([1 + 0j, -1 + 0j]),
             "16qam": _qam16_points()}
for _points in ALPHABETS.values():
    _points.flags.writeable = False


def element_noise(n: int, variance: float, seed: int, frame: int) -> np.ndarray:
    """Circular complex white noise of the given variance on n physical
    receive elements at one frame: the real parts, then the imaginary
    parts, drawn from (seed, frame)."""
    scale = np.sqrt(variance / 2)
    g = np.random.default_rng(np.random.SeedSequence((seed, frame)))
    return g.normal(scale=scale, size=n) + 1j * g.normal(scale=scale, size=n)


def tod(observations: np.ndarray, rx: Layout) -> np.ndarray:
    """Two-dimension OAM demodulation: read each physical observation at
    every logical slot on its element, then take the unitary 2-D FFT over
    (cell, slot), the N-point phase compensation across the cells and then
    every branch's K-point inner DFT.  Entry (p, l) is the paper's s~_p(l);
    the map is the adjoint of TOM.  The last axis of `observations` indexes
    physical elements and leading axes index frames."""
    y = np.asarray(observations, dtype=complex)
    if y.shape[-1:] != (rx.n_physical,):
        raise DimensionError("receive vector does not match the physical element count")
    # numpy transforms the listed axes last-first: the cells, then the slots
    return np.fft.fftn(y[..., rx.slot_group], axes=(-1, -2), norm="ortho")


def _lattice(points: np.ndarray):
    """The per-axis tables of a grid alphabet, real and imaginary, and
    grid[i, j], the index of point re[j] + 1j im[i].  An axis table holds the
    sorted levels and their midpoints and twice their steps, both padded by
    an infinitely far level at each end: level k's neighbours are entries k
    and k + 1.  The slicer is exact only on a full grid, so any other
    alphabet raises ValueError."""
    # sorted sets, not np.unique, which imports numpy.ma into the process
    re = np.array(sorted(set(points.real.tolist())))
    im = np.array(sorted(set(points.imag.tolist())))
    grid = np.full((im.size, re.size), -1)
    grid[np.searchsorted(im, points.imag), np.searchsorted(re, points.real)] \
        = np.arange(points.size)
    if grid.size == 0 or grid.size != points.size or np.any(grid < 0) \
            or not np.all(np.isfinite(points)):
        raise ValueError("ML detection slices each axis, so its alphabet must be a "
                         f"full grid of real and imaginary levels, got {points}")
    axes = []
    for levels in (re, im):
        mid = np.concatenate(([-np.inf], (levels[1:] + levels[:-1]) / 2, [np.inf]))
        axes.append((levels, mid, np.concatenate(([np.inf], 2 * np.diff(levels), [np.inf]))))
    return (*axes, grid)


def _detector(lam: np.ndarray, amplitudes: np.ndarray, points: np.ndarray):
    """Every table `_nearest` derives from a link alone, built once per run:
    the alphabet's `_lattice`, each mode's scale Lambda a, its candidates
    Lambda a c laid out one row per point, the amplitudes and the points."""
    candidates = lam[..., None] * (amplitudes[..., None] * points)
    return (_lattice(points), lam * amplitudes, candidates.reshape(-1, points.size).T,
            amplitudes, points)


def _slice_axis(x, axis):
    """The index of the level nearest each coordinate x, (x - near)^2, and
    how much farther in squared distance the nearer of its two neighbouring
    levels is, (x - other)^2 - (x - near)^2 = 2 |other - near| |x - midpoint|
    (inf where it has none): no other level on this axis is nearer.  `axis`
    is one axis table of `_lattice`."""
    levels, mid, width = axis
    k = np.zeros(x.shape, dtype=np.intp)
    for m in mid[1:-1]:
        k += x > m
    second = np.abs(x - mid[k])
    second *= width[k]
    above = np.abs(x - mid[k + 1])
    above *= width[k + 1]
    np.minimum(second, above, out=second)
    offset = x - levels[k]
    offset *= offset
    return k, offset, second


def _slice(s_tilde: np.ndarray, scale: np.ndarray, lattice: tuple):
    """The grid index of the nearest point of every decision in
    z = s~ / scale, and whether the decision is close (`_nearest`)."""
    re, im, grid = lattice
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.divide(s_tilde, scale, out=np.full(s_tilde.shape, np.inf, dtype=complex),
                      where=scale != 0)
    close = ~np.isfinite(z)
    # close already; a finite stand-in keeps inf out of the slice
    z[close] = 0
    r = 2 * TIE_RTOL
    with np.errstate(over="ignore"):
        kx, slack, second_x = _slice_axis(z.real, re)
        ky, offset, second_y = _slice_axis(z.imag, im)
        # (2 r + r^2) |z - c*|^2
        slack += offset
        slack *= r * (2 + r)
    close |= (second_x <= slack) | (second_y <= slack)
    return grid[ky, kx], close


def _nearest(s_tilde: np.ndarray, detector: tuple):
    """Tie-stable ML decision for every mode of s~ (extra leading axes index
    frames) over its alphabet, Lambda times the amplitude-scaled points:
    the lowest index within TIE_RTOL of the nearest distance wins.  Returns
    the detected values and indices and the near-tie flags (more than one
    candidate within TIE_RTOL).

    The alphabet is a grid of real and imaginary levels, and `detector` holds
    its `_detector` tables, so the nearest point is a slice: each axis of
    z = s~ / (Lambda a) rounds to its nearest level.  Candidate c lies within
    a relative tolerance r of the nearest c* iff |z - c|^2 - |z - c*|^2, the
    sum of the two axes' excesses (`_slice_axis`), is at most
    (2 r + r^2) |z - c*|^2, so a decision has a candidate within r iff the
    nearer neighbour on some axis does.  Decisions with one within twice
    TIE_RTOL, and those where Lambda a is 0 or z overflows, are close: they
    take the distance to every candidate, |s~ - Lambda a c|, and the
    rounding of those distances, on which the recorded outputs rest,
    decides a tie at TIE_RTOL.  Every other decision is its slice, which no
    rounding of those distances can move.  The slice takes complex division
    and real arithmetic, which round alike at every SIMD level that numpy
    dispatches to."""
    lattice, scale, per_point, amplitudes, points = detector
    indices, close = _slice(s_tilde, scale, lattice)
    ties = np.zeros(indices.shape, dtype=bool)
    flat = np.flatnonzero(close)
    if flat.size:
        # each close decision's distances to its mode's candidates
        # Lambda a c, by the alphabet search's own expressions, one row per
        # point so that every reduction runs along the decisions
        dist = np.take(per_point, flat % per_point.shape[1], axis=1)
        np.subtract(np.take(s_tilde, flat), dist, out=dist)
        dist = np.abs(dist)
        within = dist <= dist.min(axis=0) * (1 + TIE_RTOL)
        np.put(indices, flat, np.argmax(within, axis=0))
        np.put(ties, flat, np.count_nonzero(within, axis=0) > 1)
    return amplitudes * points[indices], indices, ties


def ml_detect(s_tilde_p: np.ndarray, lambda_row: np.ndarray,
              points: np.ndarray,
              amplitudes: np.ndarray | None = None):
    """Mode-wise ML detection of one branch.

    Per inner mode l independently, picks argmin over the (amplitude-scaled)
    alphabet `points` of |s~_p(l) - Lambda_{p,l} s| by `_nearest`, the
    slicer that `run_loopback` detects with.  Modes with Lambda exactly zero
    are undetectable and flagged; they return the tie-break symbol, index
    0.  `points` must be a full grid of real and imaginary levels, as every
    alphabet of ALPHABETS is; any other raises ValueError.

    Returns (detected values, detected indices, degenerate flags).
    """
    s_tilde = np.asarray(s_tilde_p, dtype=complex)
    lam = np.asarray(lambda_row, dtype=complex)
    if s_tilde.shape != lam.shape:
        raise DimensionError("branch and coefficient lengths differ")
    if not np.all(np.isfinite(lam.view(float))):
        raise ValueError("detection coefficients must be finite")
    amplitudes = np.ones(s_tilde.size) if amplitudes is None else np.asarray(amplitudes)
    points = np.asarray(points, dtype=complex)
    detected, indices, _ = _nearest(s_tilde, _detector(lam, amplitudes, points))
    return detected, indices, lam == 0


def noise_mode_scale(rx: Layout) -> np.ndarray:
    """sigma^2_{p,l} / sigma^2: the power of row (p, l) of `tod`, the
    linear map taking the physical element noise vector to s~.  Every slot
    reads its element's whole observation, so slot (m, v) reaches s~_p(l)
    with weight e^{-j2pi(pm/N + lv/K)} / sqrt(NK) and the slots on one
    element add coherently: the power is 1 plus 1/NK times the phase sum
    over ordered pairs of distinct slots on one element.  Turning a pair by
    one cell gives a pair, so cell 0's pairs stand for N each, and the sum
    is one 2-D DFT of their counts by cell and slot offset.  A mode whose receive row
    is all zero comes out within rounding of 0 (3.3e-16 over every layout up
    to 64x128), and every other mode at 0.2 or more, so every scale at or
    below chan.NULL_RTOL is set to exactly 0."""
    n, k = rx.n_cells, rx.elems_per_cell
    v, m, w = np.nonzero(rx.slot_group[0][:, None, None] == rx.slot_group[None])
    other = (m != 0) | (v != w)
    pairs = np.zeros((n, k))
    np.add.at(pairs, (-m[other] % n, (v - w)[other] % k), 1)
    scale = 1.0 + np.fft.fft2(pairs).real / k
    scale[scale <= chan.NULL_RTOL] = 0.0
    return scale


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
    subchannels are the (N, V, K) block-circulant sub-channel gains G_q
    (the paper's H_q times L, see `chan.build_block_channel`),
    exact_matrices the (N, K, K) exact transforms, lambda_coeffs the
    (N, K) detection coefficients and points the constellation's read-only
    point array from ALPHABETS.  The per-mode powers under the power
    allocation are (N, K) properties in DFT-index order; they do not depend
    on the frame, so one table serves every frame and modes.csv."""

    tx: Layout
    rx: Layout
    params: chan.PropagationParams
    subchannels: np.ndarray
    exact_matrices: np.ndarray
    lambda_coeffs: np.ndarray
    points: np.ndarray
    power_alloc: np.ndarray
    sigma2: float
    noise_scale: np.ndarray
    seed: int = 0

    @property
    def noise_power(self) -> np.ndarray:
        return self.sigma2 * self.noise_scale

    @property
    def signal_power(self) -> np.ndarray:
        """The detector's assumed signal per mode, |Lambda|^2 P, from
        lambda_coeffs: on lambda_path = bessel these are the Bessel-route
        coefficients, not the exact diagonal that the frames carry, while
        interference_power always comes from the exact transforms."""
        lam = self.lambda_coeffs
        # hypot, not np.abs, whose rounding of complex arrays varies with
        # numpy's SIMD level
        return np.hypot(lam.real, lam.imag) ** 2 * self.power_alloc

    @property
    def interference_power(self) -> np.ndarray:
        """Per mode, the power the rest of its branch puts on it, by branch."""
        gains = (t.real ** 2 + t.imag ** 2 for t in self.exact_matrices)
        return np.array([np.sum(g * pa, axis=-1) - np.einsum("ll->l", g) * pa
                         for g, pa in zip(gains, self.power_alloc)])

    @property
    def block_frames(self) -> int:
        """`run_loopback`'s frames per block: at least 1, of N K decisions."""
        return max(1, BLOCK_DECISIONS // self.lambda_coeffs.size)

    @property
    def max_interference_to_signal(self) -> float:
        """Largest finite interference-to-signal ratio over the modes (0 if
        none is finite; a mode without signal has none)."""
        signal, interference = self.signal_power, self.interference_power
        with np.errstate(divide="ignore", invalid="ignore"):
            isr = np.where(signal > 0, interference / signal, np.inf)
        return float(np.max(isr[np.isfinite(isr)], initial=0.0))

    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.power_alloc)


def noise_variance(scenario) -> float:
    """sigma^2 of a scenario: total power times the squared boresight gain
    at its own distance and carrier, over its linear SNR."""
    g = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta).reference_gain
    sigma2 = scenario.total_power * g ** 2 / scenario.snr_linear
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"snr_db {scenario.snr_db!r} with total_power "
                         f"{scenario.total_power!r} puts the noise variance "
                         "out of the float range")
    return sigma2


def link_at(antenna: Antenna, scenario) -> Link:
    """The propagation half of a link: the antenna at the scenario's
    distance, carrier, beta and SNR.  Builds the sub-channels, the exact
    transforms and the detection coefficients: the exact transforms'
    diagonals, or the Bessel-route diagonals (`chan.bessel_diagonals`); the
    total power is allocated equally over the antenna's N x K modes."""
    tx, rx = antenna.tx, antenna.rx
    params = chan.PropagationParams.from_frequency(
        scenario.distance_m, scenario.freq_hz, scenario.beta)
    subchannels = chan.build_block_channel(tx, rx, params)
    exact = chan.detection_coeffs(subchannels)
    if scenario.lambda_path == "exact":
        lam = np.einsum("pll->pl", exact)
    else:
        lam = chan.bessel_diagonals(tx, rx, params, scenario.bessel_order,
                                    scenario.bessel_correction)
    # a mode whose receive row is all zero observes nothing: degenerate
    lam = np.where(antenna.noise_scale == 0, 0, lam)
    n, k = tx.n_cells, tx.elems_per_cell
    return Link(tx=tx, rx=rx, params=params, subchannels=subchannels,
                exact_matrices=exact, lambda_coeffs=lam,
                points=ALPHABETS[scenario.constellation],
                power_alloc=np.full((n, k), scenario.total_power / (n * k)),
                sigma2=noise_variance(scenario),
                noise_scale=antenna.noise_scale, seed=scenario.seed)


def build_link(scenario) -> Link:
    """Assemble layouts, channel, detection coefficients, and noise figures
    for one scenario (see qfuca.config.Scenario): its antenna, then the
    link at its distance, carrier and SNR."""
    return link_at(build_antenna(scenario), scenario)


@dataclass(frozen=True)
class LoopbackReport:
    frames: int
    symbol_errors: int
    symbols_counted: int
    degenerate_modes: int
    near_ties: int
    per_mode_errors: np.ndarray
    per_frame_errors: list

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols_counted if self.symbols_counted else 0.0


def check_loopback(n_frames: int, noise_variance: float):
    """Reject a negative frame count, or a noise variance that is not finite
    and nonnegative, without building a link."""
    if n_frames < 0:
        raise ValueError(f"frame count must be nonnegative, got {n_frames}")
    if not np.isfinite(noise_variance):
        raise ValueError(f"noise variance must be finite, got {noise_variance!r}")
    if noise_variance < 0:
        raise ValueError("noise variance must be nonnegative")


def run_loopback(link: Link, n_frames: int, noise_variance: float = 0.0) -> LoopbackReport:
    """Transmit n_frames random constellation grids over the link,
    `link.block_frames` frames at a time: each branch reaches the receiver
    through its exact transform, s~_p = T_p s_p, plus, at a positive noise
    variance, the element noise taken through `tod`; then detect, with the
    detector's tables built once.  Counts symbol errors in total, per frame
    and per mode (an (N, K) count), and ML near-ties, all over the modes
    that are not degenerate (Lambda exactly zero; the report counts them
    once per link).  Deterministic from the link seed: frame f takes the
    next grid of the seed's symbol stream and `element_noise` at (seed, f),
    and a noiseless run draws none, so no output depends on the block size.
    Zero frames are a valid (empty) run; a negative count is rejected
    (`check_loopback`)."""
    check_loopback(n_frames, noise_variance)
    n, k = link.tx.n_cells, link.tx.elems_per_cell
    sym_rng = np.random.default_rng(np.random.SeedSequence((link.seed, 0xA11CE)))
    points, amplitudes, block = link.points, link.amplitudes(), link.block_frames
    detector = _detector(link.lambda_coeffs, amplitudes, points)
    degenerate = link.lambda_coeffs == 0
    per_frame = []
    per_mode = np.zeros((n, k), dtype=int)
    near_ties = 0
    for start in range(0, n_frames, block):
        frames = range(start, min(start + block, n_frames))
        idx = np.stack([sym_rng.integers(0, points.size, size=(n, k)) for _ in frames])
        symbols = amplitudes * points[idx]
        s_tilde = (link.exact_matrices @ symbols[..., None])[..., 0]
        if noise_variance > 0:
            noise = np.stack([element_noise(link.rx.n_physical, noise_variance, link.seed, f)
                              for f in frames])
            s_tilde += tod(noise, link.rx)
        detected, _, ties = _nearest(s_tilde, detector)
        errors = (detected != symbols) & ~degenerate
        per_frame += errors.sum(axis=(1, 2)).tolist()
        per_mode += errors.sum(axis=0)
        near_ties += int(np.count_nonzero(ties & ~degenerate))
    return LoopbackReport(frames=n_frames, symbol_errors=int(per_mode.sum()),
                          symbols_counted=n_frames * int(np.count_nonzero(~degenerate)),
                          degenerate_modes=int(np.count_nonzero(degenerate)),
                          near_ties=near_ties, per_mode_errors=per_mode,
                          per_frame_errors=per_frame)
