"""Exact and approximate line-of-sight channel models.

The element-to-element channel is free-space propagation between the planar
layouts of the two antennas, separated by the boresight distance D.  Because
both antennas have the same cell count and N-fold rotational symmetry, the
logical channel is block-circulant: sub-channel H_q depends only on the cell
offset q = ((n + N - m)) mod N.

A link is three plain arrays.  The exact route (coordinate distances, exact
sums) is the reference: the (N, V, K) sub-channels (`build_block_channel`)
and the (N, K, K) exact transforms (`detection_coeffs`).  The Fresnel/Bessel
closed forms mirror the analytical approximation chain: the (N, N, K)
diagonals (`bessel_diagonals`) behind the gap study and the approximate
detection coefficients.  The per-entry distance, gain and equivalent-gain
sums of both routes live with the tests (tests/reference.py), which hold the
matrix forms here against them.

Convention note: the closed forms measure element azimuths from each cell's
tangential axis, a quarter turn ahead of the layout's radial azimuths.  The
shift cancels on diagonal mode entries whenever both layouts use the same
element-grid offset.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, DimensionError, DomainError
from .geometry import Layout
from .linalg import MAX_BESSEL_ARG, bessel_j, idft_matrix

C_LIGHT = 299792458.0

_J_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_QUAD_NODES = 4096

# A per-p exact transform whose Frobenius norm is at most this fraction of
# the rms norm of all N transforms is numerically null: the offsets' phases
# cancelled it down to rounding, which reaches 2e-14 at N = 64, K = 1, while
# real transforms go down to 1.5e-11 (16x32 grid at 2 km).  Its relative gap
# is undefined.
NULL_RTOL = 1e-12


def j_power(l: int) -> complex:
    """(j)^l for integer l, exact for all four residues."""
    return _J_POWERS[l % 4]


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
        # sigma^2 takes the squared boresight gain and every element distance
        # the squared distance (Python float products overflow to inf silently)
        g, d = float(self.reference_gain), float(self.distance_m)
        if not (np.isfinite(g * g) and d * d > 0):
            raise ValueError(f"distance {self.distance_m!r} m is too short for the channel "
                             "model: its squared boresight gain or distance leaves the float range")
        if not np.isfinite(d * d):
            raise ValueError(f"distance {self.distance_m!r} m is too long for the channel "
                             "model: its square leaves the float range")

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
    d = np.sqrt(params.distance_m**2 + np.sum(offsets**2, axis=-1))
    lam = params.wavelength_m
    return (params.beta * lam / (4 * np.pi)) * np.exp(-2j * np.pi * d / lam) / d


def physical_gain_matrix(tx: Layout, rx: Layout,
                         params: PropagationParams) -> np.ndarray:
    """Free-space gain matrix between physical elements (N_r x N_t), without
    any sharing factors; this is what actually propagates."""
    tp = tx.group_positions()
    rp = rx.group_positions()
    return free_space_gain(rp[:, None, :] - tp[None, :, :], params)


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


def build_block_channel(tx: Layout, rx: Layout,
                        params: PropagationParams) -> np.ndarray:
    """The (N, V, K) sub-channels H_q of the block-circulant logical channel,
    from exact element gains: block (m, n) of the assembled channel is
    H_{((n + N - m)) mod N}.

    The superpose/split operators act at the pipeline level; the sub-channels
    here carry only the 1/L_v split factor of the gain definition, with
    cell 0's L_v standing for every receive cell's.
    """
    if tx.n_cells != rx.n_cells:
        raise ValueError("unsupported configuration: cell counts must match")
    check_element_distances(tx, rx, params)
    lv = rx.sharing_freqs.astype(float)
    h = free_space_gain(rx.positions[0][None, :, None, :] - tx.positions[:, None, :, :],
                        params)
    return h / lv[:, None]


def _alpha_of_azimuth(tx: Layout, rx: Layout, q: int, phi: np.ndarray) -> np.ndarray:
    """alpha_{q, phi} as a continuous function of the receive azimuth."""
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    x = phi - phi_q / 2
    return np.arctan2(2 * rq * rt * s * np.sin(x),
                      2 * rq * rt * s * np.cos(x) + rr * rt)


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
    if j_order not in ("matched", "first"):
        raise ValueError(f"unknown j_order {j_order!r}")
    kc = tx.elems_per_cell
    lam = params.wavelength_m
    d = params.distance_m
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * d)
    z_q = 4 * np.pi * rq * rr * s / (lam * d)
    # the quadrature bracket takes z_q through exp, not through bessel_j
    arg = b_q if correction else max(b_q, abs(z_q))
    if arg > MAX_BESSEL_ARG:
        raise DomainError(f"distance {d!r} m is too short for the Bessel route: its "
                          f"Bessel argument {float(arg)!r} exceeds {MAX_BESSEL_ARG:g}")
    pref = params.beta * lam * kc / (4 * np.pi * d) \
        * np.exp(-2j * np.pi * (d + rt**2 / (2 * d)) / lam) \
        * np.exp(-1j * np.pi * (4 * rq**2 * s**2 + rr**2) / (lam * d))
    if correction:
        phi = 2 * np.pi * np.arange(_QUAD_NODES) / _QUAD_NODES
        osc = np.exp(-1j * z_q * np.cos(phi - phi_q / 2))
        alpha_grid = _alpha_of_azimuth(tx, rx, q, phi)
    alpha0 = float(_alpha_of_azimuth(tx, rx, q, np.array(0.0)))
    modes = mode_values(kc)
    out = np.zeros(kc, dtype=complex)
    # equal grid offsets make the azimuth-convention factor drop out on the
    # diagonal; unequal offsets leave e^{j (w_r - w_t) l}
    domega = rx.elem_offset - tx.elem_offset
    for idx, l in enumerate(modes):
        l = int(l)
        jl = bessel_j(1 if j_order == "first" else l, b_q)
        if correction:
            bracket = complex(np.mean(osc * np.exp(-1j * alpha_grid * l)))
        else:
            bracket = bessel_j(0, z_q) * np.exp(-1j * alpha0 * l)
        out[idx] = pref * j_power(l) * np.exp(-1j * phi_q * l) * jl * bracket \
            * np.exp(1j * domega * l)
    return out


def bessel_diagonals(tx: Layout, rx: Layout, params: PropagationParams,
                     j_order: str = "matched", correction: bool = True) -> np.ndarray:
    """(N, N, K) Bessel-route diagonals: [p, q] approximates the q-th summand
    of the p-th exact transform.  p enters the route only through
    e^{j 2 pi p q / N}, so the N offsets are evaluated at p = 0 and the
    phase is applied once."""
    n = tx.n_cells
    base = np.stack([diag_approx_block(tx, rx, params, q, j_order, correction)
                     for q in range(n)])
    phi = 2 * np.pi * np.arange(n) / n
    phase = np.exp(1j * phi[None, :] * np.arange(n)[:, None])
    return phase[:, :, None] * base[None]


def superposition_gap(exact: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """Per-p relative squared Frobenius gap between the exact transforms and
    the Bessel-route diagonals summed over offsets; inf where the exact
    transform is numerically null (see NULL_RTOL)."""
    denom = np.array([np.linalg.norm(e, "fro") ** 2 for e in exact])
    out = np.full(len(exact), np.inf)
    for p in np.flatnonzero(denom > NULL_RTOL ** 2 * denom.mean()):
        approx = np.diag(diagonals[p].sum(axis=0))
        out[p] = float(np.linalg.norm(exact[p] - approx, "fro") ** 2 / denom[p])
    return out


def approx_gap(tx: Layout, rx: Layout, params: PropagationParams,
               j_order: str = "matched", correction: bool = True) -> float:
    """Relative squared Frobenius gap between the aligned (q = 0) summand of
    the exact transforms, W^H L H_0 W, and its diagonal Bessel
    approximation.  Both phase factors e^{j 2 pi p q / N} are 1 at q = 0,
    so the gap is the same for every branch p.  A null summand raises
    DegenerateChannelError.  The gap against the full superposition over
    offsets is `superposition_gap`.
    """
    channel = build_block_channel(tx, rx, params)
    w = idft_matrix(tx.elems_per_cell)
    exact = w.conj().T @ (rx.sharing_freqs[:, None] * channel[0]) @ w
    approx = np.diag(diag_approx_block(tx, rx, params, 0, j_order, correction))
    denom = np.linalg.norm(exact, "fro") ** 2
    if denom <= 0.0:
        raise DegenerateChannelError("null channel has no relative gap")
    return float(np.linalg.norm(exact - approx, "fro") ** 2 / denom)


def detection_coeffs(channel: np.ndarray, rx: Layout) -> np.ndarray:
    """The (N, K, K) exact per-p transforms of the sub-channels,
    W^H L (sum_q e^{j 2 pi p q / N} H_q) W for every p at once; their
    diagonals are the exact per-mode gains."""
    n, v, k = channel.shape
    if v != k:
        raise DimensionError("mode transform requires V = K")
    p = np.arange(n)
    hp = np.zeros_like(channel)
    for q in range(n):
        # the phase is exp(1j * angle), not exp(2j * pi * p * q / n): numpy's
        # complex division by n rounds differently from a float one
        hp = hp + np.exp(1j * (2 * np.pi * p * q / n))[:, None, None] * channel[q]
    w = idft_matrix(k)
    # w.conj().T is dft_matrix(K), bit for bit and in the same memory layout
    return w.conj().T @ (rx.sharing_freqs[:, None] * hp) @ w


def channel_csv(h: np.ndarray) -> str:
    """CSV of the block channel assembled from its (N, V, K) sub-channels:
    m, n, v, k, re, im per entry."""
    buf = io.StringIO()
    buf.write("m,n,v,k,re,im\n")
    n = h.shape[0]
    for m in range(n):
        for nn in range(n):
            blk = h[(nn + n - m) % n]
            for v in range(blk.shape[0]):
                for k in range(blk.shape[1]):
                    buf.write(f"{m},{nn},{v},{k},{float(blk[v, k].real)!r},{float(blk[v, k].imag)!r}\n")
    return buf.getvalue()
