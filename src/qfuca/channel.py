"""Exact and approximate line-of-sight channel models.

The element-to-element channel is free-space propagation between the planar
layouts of the two antennas, separated by the boresight distance D.  Because
both antennas have the same cell count and N-fold rotational symmetry, the
logical channel is block-circulant: sub-channel H_q depends only on the cell
offset q = ((n + N - m)) mod N.

Two routes are kept side by side everywhere: the exact route (coordinate
distances, exact sums) is the reference; the Fresnel/Bessel closed forms
mirror the analytical approximation chain and are used for the gap study and
the approximate detection coefficients.

Convention note: the closed forms measure element azimuths from each cell's
tangential axis, a quarter turn ahead of the layout's radial azimuths.  The
shift cancels on diagonal mode entries whenever both layouts use the same
element-grid offset.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateChannelError, DimensionError, GeometryError
from .geometry import Layout, SharingMatrix, sharing_matrix
from .linalg import BlockMatrix, bessel_j, dft_matrix, idft_matrix

C_LIGHT = 299792458.0

# quarter-turn between layout azimuths and the expansion's azimuths
_AZ_SHIFT = np.pi / 2

_J_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_QUAD_NODES = 4096


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
    carrier_hz: float

    def __post_init__(self):
        if self.distance_m <= 0 or self.wavelength_m <= 0 or self.beta <= 0 \
                or self.carrier_hz <= 0:
            raise ValueError("distance, wavelength, beta, and frequency must be positive")
        if abs(self.wavelength_m * self.carrier_hz - C_LIGHT) > 1e-6 * C_LIGHT:
            raise ValueError("wavelength and carrier frequency are inconsistent with c")

    @classmethod
    def from_frequency(cls, distance_m: float, freq_hz: float,
                       beta: float = 1.0) -> "PropagationParams":
        if freq_hz <= 0:
            raise ValueError(f"carrier frequency must be positive, got {freq_hz}")
        return cls(distance_m=distance_m, wavelength_m=C_LIGHT / freq_hz,
                   beta=beta, carrier_hz=freq_hz)

    @property
    def reference_gain(self) -> float:
        """Boresight free-space amplitude beta lambda / (4 pi D)."""
        return self.beta * self.wavelength_m / (4 * np.pi * self.distance_m)


@dataclass(frozen=True)
class BlockChannel:
    """Block-circulant logical channel: N sub-channels H_q of shape V x K."""

    n_cells: int
    subchannels: tuple

    def block(self, m: int, n: int) -> np.ndarray:
        """Block (m, n) of the assembled matrix, H_{((n + N - m)) mod N}."""
        return self.subchannels[(n + self.n_cells - m) % self.n_cells]

    @property
    def assembled(self) -> BlockMatrix:
        n = self.n_cells
        return BlockMatrix.from_grid(
            [[self.block(m, nn) for nn in range(n)] for m in range(n)])


@dataclass(frozen=True)
class ModeChannel:
    """Per-mode equivalent channel after the full transform chain.

    lambda_coeffs[p, l] is the effective complex gain of mode pair (p, l) in
    DFT-index order; exact_matrices[p] is the exact K x K transform.  The
    Bessel-route study is computed on first access only: approx_blocks[p, q]
    is the diagonal Bessel-route approximation of the q-th sub-channel
    summand, and gap[p] is the relative squared Frobenius gap between the
    exact transform and the summed diagonal approximation.
    """

    lambda_coeffs: np.ndarray
    exact_matrices: np.ndarray
    tx: Layout
    rx: Layout
    params: PropagationParams
    sharing: SharingMatrix
    j_order: str
    correction: bool

    @cached_property
    def approx_blocks(self) -> np.ndarray:
        """(N, N, K, K) diagonal blocks.  p enters the Bessel route only
        through e^{j phi_q p}, so only the N offset blocks at p = 0 are
        evaluated and blocks[p, q] = e^{j 2 pi p q / N} blocks[0, q]."""
        n = self.tx.n_cells
        base = np.stack([diag_approx_block(self.tx, self.rx, self.params,
                                           self.sharing, 0, q, self.j_order,
                                           self.correction)
                         for q in range(n)])
        phi = 2 * np.pi * np.arange(n) / n
        phase = np.exp(1j * phi[None, :] * np.arange(n)[:, None])
        return phase[:, :, None, None] * base[None]

    @cached_property
    def gap(self) -> np.ndarray:
        """Per-p full-superposition gap; inf where the exact transform is null."""
        out = np.zeros(self.tx.n_cells)
        for p, (exact, blocks) in enumerate(zip(self.exact_matrices,
                                                self.approx_blocks)):
            denom = np.linalg.norm(exact, "fro") ** 2
            out[p] = np.inf if denom == 0 else \
                float(np.linalg.norm(exact - blocks.sum(axis=0), "fro") ** 2 / denom)
        return out


def _check_indices(tx: Layout, rx: Layout, q: int, v: int, k: int):
    if tx.n_cells != rx.n_cells:
        raise ValueError("transmit and receive antennas must have equal cell counts")
    if not 0 <= q < tx.n_cells:
        raise ValueError(f"offset q out of range: {q}")
    if not 0 <= v < rx.elems_per_cell:
        raise ValueError(f"receive element index out of range: {v}")
    if not 0 <= k < tx.elems_per_cell:
        raise ValueError(f"transmit element index out of range: {k}")


def exact_distance(tx: Layout, rx: Layout, params: PropagationParams,
                   q: int, v: int, k: int) -> float:
    """Exact 3-D distance between receive slot (m, v) and transmit slot (n, k)
    for cell offset q = ((n + N - m)) mod N, from the layout coordinates."""
    _check_indices(tx, rx, q, v, k)
    dxy = rx.positions[0, v] - tx.positions[q, k]
    return float(np.hypot(params.distance_m, np.hypot(dxy[0], dxy[1])))


def fresnel_terms(tx: Layout, rx: Layout, params: PropagationParams,
                  q: int, v: int) -> tuple[float, float, bool]:
    """Second-order expansion terms (B_{q,v} in meters, alpha_{q,v} in radians,
    degenerate flag).  alpha solves the sine/cosine pair with a two-argument
    arctangent; when B vanishes the angle is reported as 0 and flagged."""
    _check_indices(tx, rx, q, v, 0)
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    d = params.distance_m
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    x = (rx.elem_azimuths[v] + _AZ_SHIFT) - phi_q / 2
    b = rt * np.sqrt(4 * rq**2 * s**2 + 4 * rq * rr * s * np.cos(x) + rr**2) / d
    if b == 0.0:
        return 0.0, 0.0, True
    alpha = float(np.arctan2(2 * rq * rt * s * np.sin(x),
                             2 * rq * rt * s * np.cos(x) + rr * rt))
    return float(b), alpha, False


def approx_distance(tx: Layout, rx: Layout, params: PropagationParams,
                    q: int, v: int, k: int) -> float:
    """Fresnel expansion of the exact distance:
    D + Rt^2/(2D) + D B^2/(2 Rt^2) - B cos(psi_k - phi_v + phi_q + alpha)."""
    _check_indices(tx, rx, q, v, k)
    d = params.distance_m
    rt = tx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    b, alpha, _ = fresnel_terms(tx, rx, params, q, v)
    psi = tx.elem_azimuths[k] + _AZ_SHIFT
    phi = rx.elem_azimuths[v] + _AZ_SHIFT
    return float(d + rt**2 / (2 * d) + d * b**2 / (2 * rt**2)
                 - b * np.cos(psi - phi + phi_q + alpha))


def element_gain(tx: Layout, rx: Layout, params: PropagationParams,
                 sharing: SharingMatrix, q: int, v: int, k: int,
                 far_field: bool = False) -> complex:
    """Complex gain (1/L_v) (beta lambda / 4 pi) e^{-j 2 pi d / lambda} / d.

    With far_field=True the phase uses the Fresnel distance and the amplitude
    uses 1/D, the closed-form variant."""
    _check_indices(tx, rx, q, v, k)
    lam = params.wavelength_m
    lv = sharing.diag_values[v]
    if far_field:
        d_phase = approx_distance(tx, rx, params, q, v, k)
        d_amp = params.distance_m
    else:
        d_phase = exact_distance(tx, rx, params, q, v, k)
        d_amp = d_phase
        if d_amp == 0.0:
            raise GeometryError("colocated transmit and receive elements")
    return (params.beta * lam / (4 * np.pi * lv)) \
        * np.exp(-2j * np.pi * d_phase / lam) / d_amp


def physical_gain_matrix(tx: Layout, rx: Layout,
                         params: PropagationParams) -> np.ndarray:
    """Free-space gain matrix between physical elements (N_r x N_t), without
    any sharing factors; this is what actually propagates."""
    tp = tx.group_positions()
    rp = rx.group_positions()
    diff = rp[:, None, :] - tp[None, :, :]
    d = np.sqrt(params.distance_m**2 + np.sum(diff**2, axis=2))
    lam = params.wavelength_m
    return (params.beta * lam / (4 * np.pi)) * np.exp(-2j * np.pi * d / lam) / d


def build_block_channel(tx: Layout, rx: Layout, params: PropagationParams,
                        sharing: SharingMatrix | None = None) -> BlockChannel:
    """Assemble the block-circulant logical channel from exact element gains.

    The superpose/split operators act at the pipeline level; the sub-channels
    here carry only the 1/L_v split factor of the gain definition.
    """
    if tx.n_cells != rx.n_cells:
        raise ValueError("unsupported configuration: cell counts must match")
    if sharing is None:
        sharing = sharing_matrix(rx)
    n = tx.n_cells
    lam = params.wavelength_m
    lv = sharing.diag_values.astype(float)
    subs = []
    for q in range(n):
        diff = rx.positions[0][:, None, :] - tx.positions[q][None, :, :]
        d = np.sqrt(params.distance_m**2 + np.sum(diff**2, axis=2))
        h = (params.beta * lam / (4 * np.pi)) * np.exp(-2j * np.pi * d / lam) / d
        subs.append(h / lv[:, None])
    return BlockChannel(n_cells=n, subchannels=tuple(subs))


def superposed_subchannel(channel: BlockChannel, p: int) -> np.ndarray:
    """Linear superposition of the sub-channels with the p-th IDFT column's
    phases: sum_q e^{j 2 pi p q / N} H_q."""
    n = channel.n_cells
    out = np.zeros_like(channel.subchannels[0])
    for q in range(n):
        out = out + np.exp(2j * np.pi * p * q / n) * channel.subchannels[q]
    return out


def exact_mode_matrix(tx: Layout, rx: Layout, params: PropagationParams,
                      sharing: SharingMatrix, p: int,
                      channel: BlockChannel | None = None) -> np.ndarray:
    """Exact per-p transform W^H L (sum_q e^{j 2 pi p q / N} H_q) W."""
    if tx.elems_per_cell != rx.elems_per_cell:
        raise DimensionError("mode transform requires V = K")
    if channel is None:
        channel = build_block_channel(tx, rx, params, sharing)
    k = tx.elems_per_cell
    hp = superposed_subchannel(channel, p)
    return dft_matrix(k) @ (sharing.diag_values[:, None] * hp) @ idft_matrix(k)


def equivalent_mode_gain(tx: Layout, rx: Layout, params: PropagationParams,
                         sharing: SharingMatrix, m: int, p: int, v: int, l: int,
                         path: str = "exact") -> complex:
    """Equivalent gain of mode pair (p, l) seen at receive slot (m, v).

    The exact path evaluates the double sum over cell offsets and transmit
    elements with exact gains; the bessel path evaluates the closed form with
    the simplified (azimuth-free) Bessel argument.
    """
    n = tx.n_cells
    k_count = tx.elems_per_cell
    theta_m = 2 * np.pi * m / n
    if path == "exact":
        total = 0.0 + 0.0j
        for q in range(n):
            phi_q = 2 * np.pi * q / n
            inner = 0.0 + 0.0j
            for k in range(k_count):
                inner += np.exp(2j * np.pi * k * l / k_count) \
                    * element_gain(tx, rx, params, sharing, q, v, k)
            total += np.exp(1j * phi_q * p) * inner
        return complex(np.exp(1j * theta_m * p) / np.sqrt(n * k_count) * total)
    if path != "bessel":
        raise ValueError(f"unknown path {path!r}")
    lam = params.wavelength_m
    d = params.distance_m
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    lv = sharing.diag_values[v]
    hbar = params.reference_gain
    phi_v = rx.elem_azimuths[v] + _AZ_SHIFT
    total = 0.0 + 0.0j
    for q in range(n):
        phi_q = 2 * np.pi * q / n
        s = np.sin(phi_q / 2)
        b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * d)
        b_v, alpha, _ = fresnel_terms(tx, rx, params, q, v)
        amp = np.exp(-2j * np.pi * (d + rt**2 / (2 * d)) / lam) \
            * np.exp(-1j * np.pi * d * b_v**2 / (lam * rt**2)) / lv
        total += amp * np.exp(1j * (phi_q * p - alpha * l)) \
            * np.exp(1j * (phi_v - phi_q) * l) * bessel_j(l, b_q)
    # converts the expansion's azimuth phases back to index-based modulation
    grid_phase = np.exp(-1j * (tx.elem_offset + _AZ_SHIFT) * l)
    return complex(j_power(l) * np.sqrt(k_count / n) * hbar
                   * np.exp(1j * theta_m * p) * grid_phase * total)


def _alpha_of_azimuth(tx: Layout, rx: Layout, q: int, phi: np.ndarray) -> np.ndarray:
    """alpha_{q, phi} as a continuous function of the receive azimuth."""
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    x = phi - phi_q / 2
    return np.arctan2(2 * rq * rt * s * np.sin(x),
                      2 * rq * rt * s * np.cos(x) + rr * rt)


def diag_approx_block(tx: Layout, rx: Layout, params: PropagationParams,
                      sharing: SharingMatrix, p: int, q: int,
                      j_order: str = "matched",
                      correction: bool = True) -> np.ndarray:
    """Diagonal K x K matrix approximating the q-th summand of the exact
    mode transform via the Bessel route; off-diagonal entries are exactly
    zero, rows/columns in DFT-index order.

    j_order selects the Bessel order of the leading factor: "matched" uses
    the mode order l, "first" the printed first-order variant.  With
    correction=True the azimuth integral is evaluated by quadrature; with
    correction=False it collapses to J_0(z_q) e^{-j alpha_{q,0} l}.
    """
    if tx.elems_per_cell != rx.elems_per_cell:
        raise DimensionError("diagonal approximation requires V = K")
    if j_order not in ("matched", "first"):
        raise ValueError(f"unknown j_order {j_order!r}")
    n = tx.n_cells
    kc = tx.elems_per_cell
    lam = params.wavelength_m
    d = params.distance_m
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / n
    s = np.sin(phi_q / 2)
    b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * d)
    z_q = 4 * np.pi * rq * rr * s / (lam * d)
    pref = params.beta * lam * kc / (4 * np.pi * d) \
        * np.exp(1j * phi_q * p) \
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
    return np.diag(out)


def approx_gap(tx: Layout, rx: Layout, params: PropagationParams,
               sharing: SharingMatrix, p: int, q: int | None = None,
               channel: BlockChannel | None = None,
               j_order: str = "matched", correction: bool = True) -> float:
    """Relative squared Frobenius gap between the exact transform and its
    diagonal Bessel approximation.

    With q given, the comparison is against the single aligned sub-channel
    summand (W^H L H_q W with the p-th phase); with q=None it is against the
    full superposition over offsets.
    """
    if channel is None:
        channel = build_block_channel(tx, rx, params, sharing)
    kc = tx.elems_per_cell
    w, wh = idft_matrix(kc), dft_matrix(kc)
    lv = sharing.diag_values[:, None]
    n = tx.n_cells
    if q is None:
        exact = exact_mode_matrix(tx, rx, params, sharing, p, channel)
        approx = np.zeros((kc, kc), dtype=complex)
        for qq in range(n):
            approx += diag_approx_block(tx, rx, params, sharing, p, qq,
                                        j_order, correction)
    else:
        exact = np.exp(2j * np.pi * p * q / n) \
            * (wh @ (lv * channel.subchannels[q]) @ w)
        approx = diag_approx_block(tx, rx, params, sharing, p, q,
                                   j_order, correction)
    denom = np.linalg.norm(exact, "fro") ** 2
    if denom == 0.0:
        raise DegenerateChannelError("null channel has no relative gap")
    return float(np.linalg.norm(exact - approx, "fro") ** 2 / denom)


def detection_coeffs(tx: Layout, rx: Layout, params: PropagationParams,
                     sharing: SharingMatrix | None = None,
                     j_order: str = "matched",
                     correction: bool = True,
                     channel: BlockChannel | None = None) -> ModeChannel:
    """Mode channel from the exact per-p transforms of a block channel
    (built here when not given).

    lambda_coeffs holds the exact per-mode gains (diagonals of the exact
    transforms).  The Bessel-route blocks and the per-p gap, with the given
    j_order and correction, are evaluated only when first read.
    """
    if sharing is None:
        sharing = sharing_matrix(rx)
    if channel is None:
        channel = build_block_channel(tx, rx, params, sharing)
    exact = np.stack([exact_mode_matrix(tx, rx, params, sharing, p, channel)
                      for p in range(tx.n_cells)])
    lam_exact = np.einsum("pll->pl", exact).copy()
    return ModeChannel(lambda_coeffs=lam_exact, exact_matrices=exact,
                       tx=tx, rx=rx, params=params, sharing=sharing,
                       j_order=j_order, correction=correction)


def bessel_lambda(mode: ModeChannel) -> np.ndarray:
    """Approximate-variant detection coefficients: per-offset diagonal blocks
    summed over the offset index."""
    return np.einsum("pqll->pl", mode.approx_blocks)


def channel_csv(channel: BlockChannel) -> str:
    """CSV of the assembled block channel: m, n, v, k, re, im per entry."""
    buf = io.StringIO()
    buf.write("m,n,v,k,re,im\n")
    n = channel.n_cells
    for m in range(n):
        for nn in range(n):
            blk = channel.block(m, nn)
            for v in range(blk.shape[0]):
                for k in range(blk.shape[1]):
                    buf.write(f"{m},{nn},{v},{k},{float(blk[v, k].real)!r},{float(blk[v, k].imag)!r}\n")
    return buf.getvalue()
