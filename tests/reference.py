"""Direct-summation and dense-matrix oracles the tests hold the package against.

Each oracle computes what a production function computes, by the paper's
per-entry sums, by a dense matrix or, for the spectrum efficiencies, by a
fresh link or ring per scenario, so that a test can compare the two paths.
None of it runs in the simulator.
"""

from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
from scipy import special

from qfuca import channel as chan
from qfuca import metrics, txrx
from qfuca.errors import DegenerateChannelError, DimensionError, GeometryError
from qfuca.geometry import Layout, single_ring_layout

# quarter-turn between layout azimuths and the expansion's azimuths
_AZ_SHIFT = np.pi / 2


def idft_matrix(n: int) -> np.ndarray:
    """Unitary n-point IDFT matrix, entry (a, b) = e^{j 2 pi a b / n} / sqrt(n):
    the dense form of the chain's inverse FFTs.  Its conjugate transpose is
    the (unitary) DFT matrix."""
    if n < 1:
        raise DimensionError(f"IDFT matrix needs n >= 1, got {n}")
    a = np.arange(n)
    return np.exp(2j * np.pi / n * np.outer(a, a)) / np.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix (conjugate transpose of idft_matrix)."""
    return idft_matrix(n).conj().T


def dft_diagonal(c) -> np.ndarray:
    """The diagonal of W^H C W for a square C, W = idft_matrix(n): entry k
    is ifft(s)[k], with s_d = sum_a C[a, (a + d) mod n] the wrapped-diagonal
    sums.  For a circulant C these are its eigenvalues.  The sums are one
    axis-0 reduction over the whole matrix: the one-block form of the
    streamed sums in `metrics.ring_eigenvalues`."""
    c = np.asarray(c, dtype=complex)
    n = c.shape[0]
    if c.ndim != 2 or c.shape[1] != n:
        raise DimensionError(f"the DFT diagonal needs a square matrix, got {c.shape}")
    a = np.arange(n)[:, None]
    return np.fft.ifft(np.add.reduce(c[a, (a + np.arange(n)) % n], axis=0))


def elem_azimuths(layout: Layout) -> np.ndarray:
    """Within-cell element azimuths, by `build_layout`'s own expression."""
    k = layout.elems_per_cell
    return layout.elem_offset + 2 * np.pi * np.arange(k) / k


def circulant_from_first_row(row) -> np.ndarray:
    """Square circulant matrix whose row r is the first row right-rotated r slots.

    C[r, c] = row[(c - r) mod n].
    """
    row = np.asarray(row, dtype=complex)
    if row.ndim != 1 or row.size == 0:
        raise DimensionError("first row must be a non-empty 1-D sequence")
    n = row.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return row[idx]


def coincidence_groups(positions: np.ndarray, tol: float) -> np.ndarray:
    """Union-find clustering of slot positions closer than tol, comparing
    every pair: the oracle of `geometry._coincidence_groups`, which compares
    cell 0 with its N rotations."""
    flat = positions.reshape(-1, 2)
    n = flat.shape[0]
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        d = np.hypot(flat[:, 0] - flat[i, 0], flat[:, 1] - flat[i, 1])
        for j in np.nonzero(d < tol)[0]:
            if j > i:
                parent[find(j)] = find(i)
    ids = {}
    group = np.empty(n, dtype=int)
    for i in range(n):
        r = find(i)
        if r not in ids:
            ids[r] = len(ids)
        group[i] = ids[r]
    return group.reshape(positions.shape[:2])


def aligning_offset(n_cells: int, elems_per_cell: int, ratio: float) -> float:
    """Element-grid rotation that lands elements on as many inter-cell
    intersection points as possible, one cell and one candidate at a time:
    the oracle of `geometry._aligning_offset`, which does it in arrays.
    Near-ties resolve to the smallest offset."""
    gammas = []  # where cell 0's circle meets cell j's, seen from its center
    for j in range(1, n_cells):
        separation = 2.0 * np.sin(np.pi * j / n_cells)  # |center_j - center_0| / R_Q
        if separation > 2.0 * ratio + 1e-12:
            continue
        toward = np.pi / 2 + np.pi * j / n_cells  # direction of center_j from center_0
        if abs(separation - 2.0 * ratio) <= 1e-12:
            gammas.append(toward % (2 * np.pi))
            continue
        half_aperture = np.arccos(min(1.0, separation / (2.0 * ratio)))
        gammas.append((toward - half_aperture) % (2 * np.pi))
        gammas.append((toward + half_aperture) % (2 * np.pi))
    if not gammas:
        return 0.0
    step = 2 * np.pi / elems_per_cell

    def aligned(offset):
        return sum(1 for g in gammas
                   if min((g - offset) % step, step - (g - offset) % step) < 1e-9)

    best, best_score = 0.0, -1
    for cand in sorted({0.0} | {g % step for g in gammas}):
        score = aligned(cand)
        if score > best_score:
            best, best_score = cand, score
    return best


def superpose_operators(layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    """Transmit and receive superpose operators over the N*K logical slots,
    as dense matrices.

    Transmit: each slot is replaced by the sum over its element group (the
    shared element radiates the superposition).  Receive: each slot is
    assigned its physical element's value; on physically consistent inputs
    this is lossless duplication (implemented as the group average, which is
    exactly that on consistent inputs).
    """
    group = layout.slot_group.reshape(-1)
    same = (group[:, None] == group[None, :]).astype(float)
    return same, same / same.sum(axis=1, keepdims=True)


def _check_indices(tx: Layout, rx: Layout, q: int, v: int, k: int):
    if tx.n_cells != rx.n_cells:
        raise ValueError("transmit and receive antennas must have equal cell counts")
    if not 0 <= q < tx.n_cells:
        raise ValueError(f"offset q out of range: {q}")
    if not 0 <= v < rx.elems_per_cell:
        raise ValueError(f"receive element index out of range: {v}")
    if not 0 <= k < tx.elems_per_cell:
        raise ValueError(f"transmit element index out of range: {k}")


def exact_distance(tx: Layout, rx: Layout, params: chan.PropagationParams,
                   q: int, v: int, k: int) -> float:
    """Exact 3-D distance between receive slot (m, v) and transmit slot (n, k)
    for cell offset q = ((n + N - m)) mod N, from the layout coordinates."""
    _check_indices(tx, rx, q, v, k)
    dxy = rx.positions[0, v] - tx.positions[q, k]
    return float(np.hypot(params.distance_m, np.hypot(dxy[0], dxy[1])))


def fresnel_terms(tx: Layout, rx: Layout, params: chan.PropagationParams,
                  q: int, v: int) -> tuple[float, float, bool]:
    """Second-order expansion terms (B_{q,v} in meters, alpha_{q,v} in radians,
    degenerate flag).  alpha solves the sine/cosine pair with a two-argument
    arctangent; when B vanishes the angle is reported as 0 and flagged."""
    _check_indices(tx, rx, q, v, 0)
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    d = params.distance_m
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    x = (elem_azimuths(rx)[v] + _AZ_SHIFT) - phi_q / 2
    b = rt * np.sqrt(4 * rq**2 * s**2 + 4 * rq * rr * s * np.cos(x) + rr**2) / d
    if b == 0.0:
        return 0.0, 0.0, True
    alpha = float(np.arctan2(2 * rq * rt * s * np.sin(x),
                             2 * rq * rt * s * np.cos(x) + rr * rt))
    return float(b), alpha, False


def approx_distance(tx: Layout, rx: Layout, params: chan.PropagationParams,
                    q: int, v: int, k: int) -> float:
    """Fresnel expansion of the exact distance:
    D + Rt^2/(2D) + D B^2/(2 Rt^2) - B cos(psi_k - phi_v + phi_q + alpha)."""
    _check_indices(tx, rx, q, v, k)
    d = params.distance_m
    rt = tx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    b, alpha, _ = fresnel_terms(tx, rx, params, q, v)
    psi = elem_azimuths(tx)[k] + _AZ_SHIFT
    phi = elem_azimuths(rx)[v] + _AZ_SHIFT
    return float(d + rt**2 / (2 * d) + d * b**2 / (2 * rt**2)
                 - b * np.cos(psi - phi + phi_q + alpha))


def element_gain(tx: Layout, rx: Layout, params: chan.PropagationParams,
                 sharing: np.ndarray, q: int, v: int, k: int,
                 far_field: bool = False) -> complex:
    """Complex gain (1/L_v) (beta lambda / 4 pi) e^{-j 2 pi d / lambda} / d.

    With far_field=True the phase uses the Fresnel distance and the amplitude
    uses 1/D, the closed-form variant."""
    _check_indices(tx, rx, q, v, k)
    lam = params.wavelength_m
    lv = sharing[v]
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


def equivalent_mode_gain(tx: Layout, rx: Layout, params: chan.PropagationParams,
                         sharing: np.ndarray, m: int, p: int, v: int, l: int,
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
    lv = sharing[v]
    hbar = params.reference_gain
    phi_v = elem_azimuths(rx)[v] + _AZ_SHIFT
    total = 0.0 + 0.0j
    for q in range(n):
        phi_q = 2 * np.pi * q / n
        s = np.sin(phi_q / 2)
        b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * d)
        b_v, alpha, _ = fresnel_terms(tx, rx, params, q, v)
        amp = np.exp(-2j * np.pi * (d + rt**2 / (2 * d)) / lam) \
            * np.exp(-1j * np.pi * d * b_v**2 / (lam * rt**2)) / lv
        total += amp * np.exp(1j * (phi_q * p - alpha * l)) \
            * np.exp(1j * (phi_v - phi_q) * l) * special.jv(l, b_q)
    # converts the expansion's azimuth phases back to index-based modulation
    grid_phase = np.exp(-1j * (tx.elem_offset + _AZ_SHIFT) * l)
    return complex(chan.j_power(l) * np.sqrt(k_count / n) * hbar
                   * np.exp(1j * theta_m * p) * grid_phase * total)


def diag_approx_block_loop(tx: Layout, rx: Layout, params: chan.PropagationParams,
                           q: int, j_order: str = "matched",
                           correction: bool = True) -> np.ndarray:
    """The Bessel-route diagonal of the q-th summand one mode at a time, on
    scipy's J_l and with the azimuth angle alpha_{q, phi} written out: the
    oracle of `channel.diag_approx_block`."""
    kc = tx.elems_per_cell
    lam, d = params.wavelength_m, params.distance_m
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    s = np.sin(phi_q / 2)
    b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * d)
    z_q = 4 * np.pi * rq * rr * s / (lam * d)
    pref = params.beta * lam * kc / (4 * np.pi * d) \
        * np.exp(-2j * np.pi * (d + rt**2 / (2 * d)) / lam) \
        * np.exp(-1j * np.pi * (4 * rq**2 * s**2 + rr**2) / (lam * d))
    phi = 2 * np.pi * np.arange(chan._QUAD_NODES) / chan._QUAD_NODES
    alpha = np.arctan2(2 * rq * rt * s * np.sin(phi - phi_q / 2),
                       2 * rq * rt * s * np.cos(phi - phi_q / 2) + rr * rt)
    alpha0 = float(np.arctan2(2 * rq * rt * s * np.sin(-phi_q / 2),
                              2 * rq * rt * s * np.cos(-phi_q / 2) + rr * rt))
    out = np.zeros(kc, dtype=complex)
    for idx, l in enumerate(chan.mode_values(kc)):
        l = int(l)
        jl = special.jv(1 if j_order == "first" else l, b_q)
        if correction:
            bracket = complex(np.mean(np.exp(-1j * z_q * np.cos(phi - phi_q / 2))
                                      * np.exp(-1j * alpha * l)))
        else:
            bracket = special.jv(0, z_q) * np.exp(-1j * alpha0 * l)
        out[idx] = pref * chan.j_power(l) * np.exp(-1j * phi_q * l) * jl * bracket \
            * np.exp(1j * (rx.elem_offset - tx.elem_offset) * l)
    return out


def superposed_subchannel(channel: np.ndarray, p: int) -> np.ndarray:
    """sum_q e^{j 2 pi p q / N} H_q for one p, one offset at a time."""
    n = channel.shape[0]
    out = np.zeros_like(channel[0])
    for q in range(n):
        out = out + np.exp(2j * np.pi * p * q / n) * channel[q]
    return out


def exact_transform(channel: np.ndarray, p: int) -> np.ndarray:
    """The exact p-th transform W^H (sum_q e^{j 2 pi p q / N} G_q) W of the
    sub-channel gains for one p: the oracle of `channel.detection_coeffs`."""
    k = channel.shape[2]
    return dft_matrix(k) @ superposed_subchannel(channel, p) @ idft_matrix(k)


def full_superposition_gap(tx: Layout, rx: Layout, params: chan.PropagationParams,
                           p: int,
                           channel: np.ndarray | None = None,
                           j_order: str = "matched", correction: bool = True) -> float:
    """Relative squared Frobenius gap between the exact p-th transform and
    the sum of its diagonal Bessel approximations over all offsets, one p at
    a time: the oracle of `channel.superposition_gap`.  A numerically null
    transform (see chan.NULL_RTOL) raises DegenerateChannelError."""
    if channel is None:
        channel = chan.build_block_channel(tx, rx, params)
    n, kc = tx.n_cells, tx.elems_per_cell
    exact = chan.detection_coeffs(channel)[p]
    approx = np.zeros((kc, kc), dtype=complex)
    for q in range(n):
        approx += np.exp(2j * np.pi * p * q / n) \
            * np.diag(chan.diag_approx_block(tx, rx, params, q, j_order, correction))
    # the mean squared norm of the N transforms, by Parseval over q
    floor = chan.NULL_RTOL ** 2 * sum(np.linalg.norm(h, "fro") ** 2 for h in channel)
    denom = np.linalg.norm(exact, "fro") ** 2
    if denom <= floor:
        raise DegenerateChannelError("null channel has no relative gap")
    return float(np.linalg.norm(exact - approx, "fro") ** 2 / denom)


def aligned_gap(tx: Layout, rx: Layout, params: chan.PropagationParams,
                j_order: str = "matched", correction: bool = True) -> float:
    """Relative squared Frobenius gap between the aligned (q = 0) summand
    W^H G_0 W, built directly, and its diagonal Bessel approximation: the
    oracle of `channel.approx_gap`.  A null summand raises
    DegenerateChannelError."""
    channel = chan.build_block_channel(tx, rx, params)
    w = idft_matrix(tx.elems_per_cell)
    exact = w.conj().T @ channel[0] @ w
    approx = np.diag(chan.diag_approx_block(tx, rx, params, 0, j_order, correction))
    denom = np.linalg.norm(exact, "fro") ** 2
    if denom <= 0.0:
        raise DegenerateChannelError("null channel has no relative gap")
    return float(np.linalg.norm(exact - approx, "fro") ** 2 / denom)


# The physical path: TOM superposes each frame's slots onto the shared
# elements, the dense element gain matrix propagates the feed, and TOD
# (`txrx.tod`, TOM's adjoint) reads it back.  Branch p of it is the exact
# transform T_p that `txrx.run_loopback` sends its frames through; the tests
# hold the two together.

def physical_gain_matrix(tx: Layout, rx: Layout,
                         params: chan.PropagationParams) -> np.ndarray:
    """Free-space gain matrix between physical elements (N_r x N_t), without
    any sharing factors; this is what actually propagates."""
    tp = tx.group_positions()
    rp = rx.group_positions()
    return chan.free_space_gain(rp[:, None, :] - tp[None, :, :], params)


def slot_group_sum(layout: Layout, logical: np.ndarray) -> np.ndarray:
    """Collapse per-slot values to per-physical-element sums (transmit feed).

    `logical` is one frame (a flat N*K vector or the (N, K) slot grid) or a
    stack of (N, K) grids; the result has one row of n_physical per frame."""
    x = np.asarray(logical, dtype=complex)
    n_slots = layout.n_cells * layout.elems_per_cell
    flat = x.reshape(x.shape[:-2] + (-1,))
    if flat.shape[-1] != n_slots:
        raise DimensionError("logical vector does not match layout slot count")
    out = np.zeros(flat.shape[:-1] + (layout.n_physical,), dtype=complex)
    np.add.at(out, (..., layout.slot_group.reshape(-1)), flat)
    return out


def tom_modulate(symbols: np.ndarray, tx: Layout) -> np.ndarray:
    """Physical transmit feed: the two-dimension IDFT of each (N, K) symbol
    grid, (1/sqrt(NK)) sum_{p,l} s e^{j2pi kl/K} e^{j2pi np/N}, superposed
    onto the shared elements; the last axis indexes physical elements and
    leading axes index frames."""
    sym = np.asarray(symbols, dtype=complex)
    if sym.shape[-2:] != (tx.n_cells, tx.elems_per_cell):
        raise DimensionError("symbol grid does not match the transmit layout")
    return slot_group_sum(tx, np.fft.ifft2(sym, norm="ortho"))


def tom_modulate_loops(symbols: np.ndarray, tx: Layout) -> np.ndarray:
    """Physical transmit feed of one (N, K) symbol grid by direct double
    summation and explicit per-element superposition of shared slots."""
    n, k = symbols.shape
    if (n, k) != (tx.n_cells, tx.elems_per_cell):
        raise ValueError("symbol grid does not match the transmit layout")
    p_modes = chan.mode_values(n)
    l_modes = chan.mode_values(k)
    logical = np.zeros((n, k), dtype=complex)
    for nn in range(n):
        for kk in range(k):
            acc = 0.0 + 0.0j
            for pi, p in enumerate(p_modes):
                for li, l in enumerate(l_modes):
                    acc += symbols[pi, li] \
                        * np.exp(2j * np.pi * kk * l / k) \
                        * np.exp(2j * np.pi * nn * p / n)
            logical[nn, kk] = acc / np.sqrt(n * k)
    feed = np.zeros(tx.n_physical, dtype=complex)
    for nn in range(n):
        for kk in range(k):
            feed[tx.slot_group[nn, kk]] += logical[nn, kk]
    return feed


def assembled_channel(channel: np.ndarray) -> np.ndarray:
    """The block-circulant channel of the (N, V, K) sub-channels as one dense
    (N V) x (N K) matrix: block (m, n) is H_{((n + N - m)) mod N}."""
    n = channel.shape[0]
    return np.block([[channel[(nn + n - m) % n] for nn in range(n)] for m in range(n)])


def channel_csv_blocks(text: str) -> np.ndarray:
    """The (N, N, V, K) blocks of a `channel.channel_csv` table, read back
    bit for bit: [m, n] is block (m, n) of the assembled channel."""
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    idx = rows[:, :4].astype(int)
    out = np.zeros(tuple(idx.max(axis=0) + 1), dtype=complex)
    out[tuple(idx.T)] = rows[:, 4] + 1j * rows[:, 5]
    return out


def propagate_logical(symbols: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Noise-free logical path: the assembled block-circulant channel applied
    to the pre-superposition logical signals, the two-dimension IDFT of the
    (N, K) symbol grid; returns the (M, V) grid."""
    n, k = symbols.shape
    x = (idft_matrix(n) @ symbols @ idft_matrix(k)).reshape(-1)
    return (assembled_channel(channel) @ x).reshape(channel.shape[:2])


def tod_split_compensate_loops(rx_signals: np.ndarray, rx: Layout) -> np.ndarray:
    """Direct-summation form of TOD's first stage, the compensation across
    the cells: (1/sqrt(N)) sum_m y_{g(m, v)} e^{-j Theta_m p} at (p, v),
    with g(m, v) the physical element of slot (m, v).  The K-point inner
    DFT of every branch, `dft_matrix(K)`, completes `txrx.tod`."""
    y = np.asarray(rx_signals, dtype=complex)
    n, v = rx.slot_group.shape
    out = np.zeros((n, v), dtype=complex)
    for p in range(n):
        for m in range(n):
            out[p] += y[rx.slot_group[m]] * np.exp(-2j * np.pi * m * p / n)
    return out / np.sqrt(n)


# The paper's form of the receive chain and the mode transforms.  It splits
# each shared element's observation by 1/L_v and multiplies by L = diag(L_v)
# after the inner DFT, and its sub-channels are H_q = G_q / L_v.  The package
# applies neither factor, since they cancel; these oracles apply both, by the
# expressions the package used while it applied them, so a test can hold the
# two forms together.

def split_received(rx_signals: np.ndarray, rx: Layout) -> np.ndarray:
    """The paper's split: each physical element's observation divided
    equally among the co-using cells' slots.  Leading axes of `rx_signals`
    index frames."""
    y = np.asarray(rx_signals, dtype=complex)
    if y.shape[-1:] != (rx.n_physical,):
        raise DimensionError("receive vector does not match the physical element count")
    return (y / rx.element_sharing)[..., rx.slot_group]


def paper_demodulate(rx_signals: np.ndarray, rx: Layout) -> np.ndarray:
    """s~ by the paper's TOD: split, the N-point phase compensation across
    the cells, L, then the K-point inner DFT of every branch."""
    x_tilde = np.fft.fft(split_received(rx_signals, rx), axis=-2, norm="ortho")
    return np.fft.fft(x_tilde * rx.sharing_freqs, axis=-1, norm="ortho")


def paper_subchannels(gains: np.ndarray, rx: Layout) -> np.ndarray:
    """The paper's sub-channels H_q = G_q / L_v of the (N, V, K) gains."""
    return gains / rx.sharing_freqs.astype(float)[:, None]


def paper_detection_coeffs(subchannels: np.ndarray, rx: Layout) -> np.ndarray:
    """The (N, K, K) transforms W^H L (sum_q e^{j 2 pi p q / N} H_q) W of
    the paper's sub-channels, by the FFTs of `channel.detection_coeffs`."""
    hp = np.fft.ifft(subchannels, axis=0, norm="forward")
    lh = np.fft.fft(rx.sharing_freqs[:, None] * hp, axis=-2, norm="ortho")
    return np.fft.ifft(lh, axis=-1, norm="ortho")


# The ML detector before the lattice slicer: the distance from every mode to
# every point of its alphabet.  `txrx._nearest` is held to it decision by
# decision, and the per-frame loopback reference detects with it.

def alphabet_search(s_tilde: np.ndarray, lam: np.ndarray, amplitudes: np.ndarray,
                    points: np.ndarray):
    """Tie-stable ML decision for every mode of s~ (extra leading axes index
    frames) over its alphabet, Lambda times the amplitude-scaled points: the
    lowest index within TIE_RTOL of the nearest distance wins.  Returns the
    detected values and indices and the near-tie flags (more than one
    candidate within TIE_RTOL)."""
    dist = np.abs(s_tilde[..., None] - lam[..., None] * (amplitudes[..., None] * points))
    within = dist <= dist.min(axis=-1, keepdims=True) * (1 + txrx.TIE_RTOL)
    indices = np.argmax(within, axis=-1)
    return (amplitudes * points[indices], indices,
            np.count_nonzero(within, axis=-1) > 1)


def se_qf_scenario(scenario, distance_m: float | None = None) -> float:
    """QF-UCA spectrum efficiency for a scenario from a fresh link,
    optionally at an overridden distance with the noise variance anchored
    at the scenario's own: the per-point oracle of a sweep's qf_uca row."""
    work = scenario if distance_m is None else replace(scenario, distance_m=distance_m)
    link = txrx.build_link(work)
    return metrics.se_qf(link.lambda_coeffs, link.power_alloc,
                         txrx.noise_variance(scenario) * link.noise_scale)


def se_single_loop_uca(n_elements: int, scenario, distance_m: float | None = None) -> float:
    """Single-loop UCA efficiency of a fresh n-element ring at the antenna
    radius, with the same distance override and noise anchor."""
    work = scenario if distance_m is None else replace(scenario, distance_m=distance_m)
    return metrics.se_single_loop_uca(single_ring_layout(n_elements, scenario.qf_radius_m),
                                      work, txrx.noise_variance(scenario))


def se_siso_times(n: int, scenario, distance_m: float | None = None) -> float:
    """n-fold single-antenna reference, n log2(1 + received SNR), with the
    same distance override and noise anchor."""
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    d = scenario.distance_m if distance_m is None else distance_m
    g = chan.PropagationParams.from_frequency(d, scenario.freq_hz, scenario.beta).reference_gain
    snr = scenario.total_power * g ** 2 / txrx.noise_variance(scenario)
    return float(n * np.log2(1.0 + snr))
