"""Exact and approximate line-of-sight channel models.

The element-to-element channel is free-space propagation between the planar
layouts of the two antennas, separated by the boresight distance D.  Because
both antennas have the same cell count and N-fold rotational symmetry, the
logical channel is block-circulant: sub-channel G_q depends only on the cell
offset q = ((n + N - m)) mod N.

A link is three plain arrays.  The exact route (coordinate distances, exact
sums) is the reference: the (N, V, K) sub-channels (`build_block_channel`,
filled one transmit cell at a time) and the (N, K, K) exact transforms
(`detection_coeffs`, whose two mode FFTs run in place), so a link build
peaks at about the arrays it keeps.  The Fresnel/Bessel
closed forms mirror the analytical approximation chain: the (N, K)
diagonals (`bessel_diagonals`) behind the gap study and the approximate
detection coefficients.  Their Bessel functions are `bessel_j`'s: every
integer order at once from one FFT of e^{j x sin t} (the Jacobi-Anger
expansion), to about 3e-14 absolute.  The per-entry distance, gain and equivalent-gain
sums of both routes live with the tests (tests/reference.py), which hold the
matrix forms here against them.

Convention note: the closed forms measure element azimuths from each cell's
tangential axis, a quarter turn ahead of the layout's radial azimuths.  The
shift cancels on diagonal mode entries whenever both layouts use the same
element-grid offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import DimensionError, DomainError
from .geometry import Layout

C_LIGHT = 299792458.0

_J_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

# the reach of `bessel_j`, and so of the Bessel route: its orders and
# arguments
MAX_BESSEL_ORDER = 64
MAX_BESSEL_ARG = 1.0e4

# the Bessel order of the route's leading factor (`diag_approx_block`)
BESSEL_ORDERS = ("matched", "first")

# azimuth nodes of the corrected Bessel-route bracket; perfbench reads it to
# count quadrature evaluations
_QUAD_NODES = 4096

# A per-p exact transform whose Frobenius norm is at most this fraction of
# the rms norm of all N transforms is numerically null: the offsets' phases
# cancelled it down to rounding, which reaches 2e-14 at N = 64, K = 1, while
# real transforms go down to 1.5e-11 (16x32 grid at 2 km).  Its relative gap
# is undefined.
NULL_RTOL = 1e-12


def j_power(l):
    """(j)^l for an integer l or an int array of them, exact for all four
    residues."""
    return _J_POWERS[np.asarray(l) % 4]


def mode_values(n: int) -> np.ndarray:
    """Centered mode orders in DFT-index order: index i maps to i for
    i <= floor(n/2) and i - n otherwise, covering [1 - floor(n/2), floor(n/2)]."""
    idx = np.arange(n)
    return np.where(idx <= n // 2, idx, idx - n)


@dataclass(frozen=True)
class PropagationParams:
    """Link geometry and path-loss constants."""

    distance_m: float
    wavelength_m: float
    beta: float

    def __post_init__(self):
        # nan passes every comparison below; the carrier frequency is checked
        # through its wavelength
        if not np.all(np.isfinite([self.distance_m, self.wavelength_m, self.beta])):
            raise ValueError("distance, wavelength, beta, and frequency must be finite")
        if self.distance_m <= 0 or self.wavelength_m <= 0 or self.beta <= 0:
            raise ValueError("distance, wavelength, beta, and frequency must be positive")
        # element distances take D^2 and sigma^2 takes the squared boresight
        # gain (Python float products overflow to inf, underflow to 0 silently)
        g, d = float(self.reference_gain), float(self.distance_m)
        if not d * d > 0:
            raise ValueError(f"distance {self.distance_m!r} m is too short for the channel "
                             "model: its square leaves the float range")
        if not np.isfinite(d * d):
            raise ValueError(f"distance {self.distance_m!r} m is too long for the channel "
                             "model: its square leaves the float range")
        if not (np.isfinite(g * g) and g * g > 0):
            raise ValueError(f"distance {self.distance_m!r} m, wavelength "
                             f"{self.wavelength_m!r} m and beta {self.beta!r} put the "
                             "squared boresight gain out of the float range")

    @classmethod
    def from_frequency(cls, distance_m: float, freq_hz: float,
                       beta: float = 1.0) -> "PropagationParams":
        if freq_hz <= 0:
            raise ValueError(f"carrier frequency must be positive, got {freq_hz}")
        return cls(distance_m=distance_m, wavelength_m=C_LIGHT / freq_hz, beta=beta)

    @property
    def reference_gain(self) -> float:
        """Boresight free-space amplitude beta lambda / (4 pi D)."""
        return self.beta * self.wavelength_m / (4 * np.pi * self.distance_m)


def free_space_gain(offsets: np.ndarray, params: PropagationParams) -> np.ndarray:
    """Free-space gain (beta lambda / 4 pi) e^{-j 2 pi d / lambda} / d between
    elements whose in-plane offsets (receive minus transmit position, last
    axis x, y) are `offsets`, with d the 3-D distance across the boresight
    gap D.  The one per-entry expression behind every exact channel."""
    return gain_from_squared_offsets(squared_offsets(offsets), params)


def squared_offsets(offsets: np.ndarray) -> np.ndarray:
    """The squared in-plane element distances of `offsets` (last axis x,
    y): the part of `free_space_gain` that depends on neither distance nor
    carrier."""
    return np.sum(offsets**2, axis=-1)


def gain_from_squared_offsets(squared: np.ndarray,
                              params: PropagationParams) -> np.ndarray:
    """`free_space_gain` of the offsets whose `squared_offsets` are
    `squared`, entry by entry, with the same bits."""
    d = np.sqrt(params.distance_m**2 + squared)
    lam = params.wavelength_m
    return (params.beta * lam / (4 * np.pi)) * np.exp(-2j * np.pi * d / lam) / d


def check_element_distances(tx: Layout, rx: Layout, params: PropagationParams):
    """Reject antennas whose element distances the channel cannot square:
    elements reach R_Q + R from the axis (a ring's R_Q is 0), so in plane
    they lie up to the two reaches apart, across the boresight gap D
    (Python float sums of squares overflow to inf silently)."""
    span = float(tx.qf_radius + tx.cell_radius + rx.qf_radius + rx.cell_radius)
    d = float(params.distance_m)
    if not np.isfinite(d * d + span * span):
        # a QF antenna's radius is R_Q, a ring's is its cell radius
        radius = max(tx.qf_radius, tx.cell_radius)
        raise ValueError(f"distance {d!r} m and antenna radius {float(radius)!r} m are too "
                         "large together for the channel model: the square of their "
                         "element distances leaves the float range")


def _cell_gains(tx: Layout, rx: Layout, params: PropagationParams, q: int) -> np.ndarray:
    """The (V, K) exact gains from transmit cell q to receive cell 0: the
    sub-channel G_q."""
    return free_space_gain(rx.positions[0][:, None, :] - tx.positions[q][None, :, :], params)


def build_block_channel(tx: Layout, rx: Layout,
                        params: PropagationParams) -> np.ndarray:
    """The (N, V, K) sub-channel gains G_q of the block-circulant logical
    channel, from exact element gains: block (m, n) of the assembled channel
    is G_{((n + N - m)) mod N}.  The receive chain never applies the 1/L_v
    split of the paper's H_q = G_q / L_v, so only `channel_csv` forms H_q.

    The gains are filled in one transmit cell at a time, so the build holds
    the result and one cell's temporaries, never an (N, V, K, 2) offset
    tensor; each gain is an entrywise expression, so its bits are those of
    one whole-array call."""
    if tx.n_cells != rx.n_cells:
        raise ValueError("unsupported configuration: cell counts must match")
    check_element_distances(tx, rx, params)
    out = np.empty((tx.n_cells, rx.elems_per_cell, tx.elems_per_cell), dtype=complex)
    for q in range(tx.n_cells):
        out[q] = _cell_gains(tx, rx, params, q)
    return out


def _alpha_of_azimuth(tx: Layout, rx: Layout, q: int, phi: np.ndarray) -> np.ndarray:
    """alpha_{q, phi} as a continuous function of the receive azimuth."""
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    x = phi - phi_q / 2
    return np.arctan2(2 * rq * rt * s * np.sin(x),
                      2 * rq * rt * s * np.cos(x) + rr * rt)


def bessel_j(order, x: float):
    """Bessel function of the first kind J_order(x) for an integer order, or
    for an int array of orders at the one argument x.

    By the Jacobi-Anger expansion e^{j x sin t} = sum_l J_l(x) e^{j l t},
    bin l mod M of the M-point FFT of e^{j x sin t} is M J_l(x) plus the
    aliases J_{l +- M}(x), which are far below rounding at
    M = 2 (floor|x| + MAX_BESSEL_ORDER + 32).  Negative orders read the
    wrapped bins, and a negative x needs no reflection.  Accurate to about
    3e-14 absolute over |order| <= 64, |x| <= 1e4.
    """
    orders = np.asarray(order)
    if orders.dtype.kind not in "iuf" or not np.all(np.isfinite(orders)) \
            or np.any(orders != np.round(orders)):
        raise DomainError(f"Bessel order must be an integer, got {order!r}")
    x = float(x)
    too_high = orders[(orders < -MAX_BESSEL_ORDER) | (orders > MAX_BESSEL_ORDER)]
    if too_high.size:
        raise DomainError(f"|order| must be <= {MAX_BESSEL_ORDER}, got {int(too_high[0])}")
    if not np.isfinite(x) or abs(x) > MAX_BESSEL_ARG:
        raise DomainError(f"|x| must be <= {MAX_BESSEL_ARG:g}, got {x!r}")
    m = 2 * (int(abs(x)) + MAX_BESSEL_ORDER + 32)
    t = 2 * np.pi * np.arange(m) / m
    values = np.fft.fft(np.exp(1j * x * np.sin(t))).real[orders.astype(int) % m] / m
    return float(values) if values.ndim == 0 else values


def diag_approx_block(tx: Layout, rx: Layout, params: PropagationParams,
                      q: int, j_order: str = "matched",
                      correction: bool = True) -> np.ndarray:
    """Diagonal, in DFT-index order, of the Bessel-route approximation of
    the q-th summand of the exact p = 0 mode transform; its off-diagonal
    entries are zero.

    j_order selects the Bessel order of the leading factor: "matched" uses
    the mode order l, "first" the printed first-order variant.  With
    correction=True the azimuth integral is evaluated by quadrature; with
    correction=False it collapses to J_0(z_q) e^{-j alpha_{q,0} l}.
    """
    if tx.elems_per_cell != rx.elems_per_cell:
        raise DimensionError("diagonal approximation requires V = K")
    if j_order not in BESSEL_ORDERS:
        raise ValueError(f"unknown j_order {j_order!r}")
    kc = tx.elems_per_cell
    if j_order == "matched" and kc // 2 > MAX_BESSEL_ORDER:
        raise DomainError(f"{kc} elements per cell need Bessel orders up to {kc // 2}, past "
                          f"the matched Bessel route's limit of {MAX_BESSEL_ORDER}; "
                          "bessel_order = first has no such limit")
    lam = params.wavelength_m
    d = params.distance_m
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    if not lam * d > 0:
        raise DomainError(f"distance {d!r} m is too short for the Bessel route at wavelength "
                          f"{lam!r} m: their product, which its arguments divide by, "
                          "underflows to 0")
    # a quotient by lambda D past the float range is inf, and a phase's exp
    # then nan, which the checks below reject
    with np.errstate(over="ignore", invalid="ignore"):
        b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * d)
        z_q = 4 * np.pi * rq * rr * s / (lam * d)
        pref = params.beta * lam * kc / (4 * np.pi * d) \
            * np.exp(-2j * np.pi * (d + rt**2 / (2 * d)) / lam) \
            * np.exp(-1j * np.pi * (4 * rq**2 * s**2 + rr**2) / (lam * d))
    # the quadrature bracket takes z_q through exp, not through bessel_j
    arg = b_q if correction else max(b_q, abs(z_q))
    if arg > MAX_BESSEL_ARG:
        raise DomainError(f"distance {d!r} m is too short for the Bessel route: its "
                          f"Bessel argument {float(arg)!r} exceeds {MAX_BESSEL_ARG:g}")
    # the Fresnel phase pi (4 R_Q^2 s^2 + R_r^2) / (lambda D) is at least z_q,
    # so this also rejects a z_q past the float range
    if not np.isfinite(pref):
        raise DomainError(f"distance {d!r} m is too short for the Bessel route at wavelength "
                          f"{lam!r} m: its Fresnel phase leaves the float range")
    modes = mode_values(kc)
    jl = bessel_j(1 if j_order == "first" else modes, b_q)
    if correction:
        phi = 2 * np.pi * np.arange(_QUAD_NODES) / _QUAD_NODES
        # one (K, nodes) integrand per mode, built in one buffer: fresh
        # temporaries of that size are paged in anew at every offset
        rot = -1j * _alpha_of_azimuth(tx, rx, q, phi) * modes[:, None]
        np.exp(rot, out=rot)
        np.multiply(np.exp(-1j * z_q * np.cos(phi - phi_q / 2)), rot, out=rot)
        bracket = rot.mean(axis=1)
    else:
        alpha0 = float(_alpha_of_azimuth(tx, rx, q, np.array(0.0)))
        bracket = bessel_j(0, z_q) * np.exp(-1j * alpha0 * modes)
    # equal grid offsets make the azimuth-convention factor drop out on the
    # diagonal; unequal offsets leave e^{j (w_r - w_t) l}
    domega = rx.elem_offset - tx.elem_offset
    return pref * j_power(modes) * np.exp(-1j * phi_q * modes) * jl * bracket \
        * np.exp(1j * domega * modes)


def bessel_diagonals(tx: Layout, rx: Layout, params: PropagationParams,
                     j_order: str = "matched", correction: bool = True) -> np.ndarray:
    """(N, K) Bessel-route diagonals: row p approximates the diagonal of the
    p-th exact transform, sum_q e^{j 2 pi p q / N} times the q-th summand's
    diagonal.  p enters the route only through that phase, so the N offsets
    are evaluated at p = 0 and summed for every p by one inverse FFT, as
    `detection_coeffs` sums the sub-channels."""
    base = np.stack([diag_approx_block(tx, rx, params, q, j_order, correction)
                     for q in range(tx.n_cells)])
    return np.fft.ifft(base, axis=0, norm="forward")


def superposition_gap(exact: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """Per-p relative squared Frobenius gap between the exact transforms and
    the (N, K) Bessel-route diagonals; inf where the exact transform is
    numerically null (see NULL_RTOL)."""
    residual = exact.copy()
    k = np.arange(exact.shape[-1])
    residual[:, k, k] -= diagonals
    # plain sums of squares: a complex matrix norm would go through BLAS
    denom = np.sum(exact.real ** 2 + exact.imag ** 2, axis=(1, 2))
    err = np.sum(residual.real ** 2 + residual.imag ** 2, axis=(1, 2))
    return np.divide(err, denom, out=np.full(len(exact), np.inf),
                     where=denom > NULL_RTOL ** 2 * denom.mean())


def approx_gap(tx: Layout, rx: Layout, params: PropagationParams,
               j_order: str = "matched", correction: bool = True) -> float:
    """Relative squared Frobenius gap between the aligned (q = 0) summand of
    the exact transforms, W^H G_0 W, and its diagonal Bessel
    approximation: `superposition_gap` over the one offset q = 0.  Both
    phase factors e^{j 2 pi p q / N} are 1 at q = 0, so the gap is the same
    for every branch p.  A null summand has gap inf.  Only G_0 is built,
    by `_cell_gains`, which fills every block of `build_block_channel`, so
    it is bit for bit that function's block 0.
    """
    check_element_distances(tx, rx, params)
    aligned = detection_coeffs(_cell_gains(tx, rx, params, 0)[None])
    diagonal = diag_approx_block(tx, rx, params, 0, j_order, correction)
    return float(superposition_gap(aligned, diagonal[None])[0])


def detection_coeffs(channel: np.ndarray) -> np.ndarray:
    """The (N, K, K) exact per-p transforms W^H (sum_q e^{j 2 pi p q / N} G_q) W
    of the sub-channel gains for every p at once, with W the unitary K-point
    IDFT matrix: the paper's W^H L (sum_q ... H_q) W, whose L cancels the
    1/L_v of H_q.  The sum over q is an inverse FFT across the offsets, and
    W^H and W are unitary FFTs down the columns and along the rows, both run
    in place in the array returned, so the transform holds its input and
    output only."""
    _, v, k = channel.shape
    if v != k:
        raise DimensionError("mode transform requires V = K")
    hp = np.fft.ifft(channel, axis=0, norm="forward")
    np.fft.fft(hp, axis=-2, norm="ortho", out=hp)
    return np.fft.ifft(hp, axis=-1, norm="ortho", out=hp)


def channel_csv(h: np.ndarray, rx: Layout, fh: TextIO) -> None:
    """Write the CSV of the paper's block channel to the text stream `fh`:
    m, n, v, k, re, im per entry.  Its sub-channels are H_q = G_q / L_v, the
    (N, V, K) gains `h` over the receive layout's sharing frequencies, with
    cell 0's L_v standing for every receive cell's.  One (m, n) block is
    formatted at a time, so the export holds one block's text, not the
    table's."""
    h = h / rx.sharing_freqs.astype(float)[:, None]
    fh.write("m,n,v,k,re,im\n")
    n = h.shape[0]
    for m in range(n):
        for nn in range(n):
            blk = h[(nn + n - m) % n]
            fh.write("".join(
                f"{m},{nn},{v},{k},{float(blk[v, k].real)!r},{float(blk[v, k].imag)!r}\n"
                for v in range(blk.shape[0]) for k in range(blk.shape[1])))
