"""Quasi-fractal UCA layout construction.

A QF-UCA antenna is N uniform circular cells of radius R placed on a circle
of radius R_Q; cells may physically share array elements wherever their
circles intersect on the element grid.  This module builds layouts, detects
shared elements by coordinate coincidence, and derives sharing-frequency
matrices, the slot-to-element superposition, and admissibility conditions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DimensionError, GeometryError

# Coincidence tolerance for shared-element detection, relative to R_Q.
COINCIDENCE_RTOL = 1e-9

ADMISSIBILITY_CASES = ("tangent", "overlapped", "through-center")


@dataclass(frozen=True)
class Layout:
    """Full geometric description of one QF-UCA antenna.

    positions[n, k] is the planar coordinate (meters) of logical slot k of
    cell n; slot_group[n, k] is the physical element id the slot maps to.
    elem_azimuths are within-cell angles (the cell's local frame rotates with
    the cell azimuth, so the global direction of slot (n, k) is
    cell_azimuths[n] + elem_azimuths[k]).
    """

    n_cells: int
    elems_per_cell: int
    cell_radius: float
    qf_radius: float
    elem_offset: float
    cell_azimuths: np.ndarray
    elem_azimuths: np.ndarray
    positions: np.ndarray
    slot_group: np.ndarray
    n_physical: int

    @property
    def sharing_freqs(self) -> np.ndarray:
        """Per-slot sharing frequency L_v of cell 0 (identical for every cell)."""
        counts = np.bincount(self.slot_group.ravel(), minlength=self.n_physical)
        return counts[self.slot_group[0]]

    def group_positions(self) -> np.ndarray:
        """Physical element coordinates indexed by physical id."""
        out = np.zeros((self.n_physical, 2))
        out[self.slot_group.reshape(-1)] = self.positions.reshape(-1, 2)
        return out


@dataclass(frozen=True)
class SharingMatrix:
    """Diagonal matrix L of per-slot sharing frequencies for one cell."""

    diag_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.diag_values, dtype=int)
        if v.ndim != 1 or v.size == 0 or np.any(v < 1):
            raise GeometryError("sharing frequencies must be positive integers")
        object.__setattr__(self, "diag_values", v)


def _intersection_azimuths(n_cells: int, ratio: float) -> list[float]:
    """Azimuths, seen from cell 0's center, where cell 0's circle meets the
    circle of any other cell (tangency yields a single azimuth)."""
    out = []
    for j in range(1, n_cells):
        separation = 2.0 * np.sin(np.pi * j / n_cells)  # |center_j - center_0| / R_Q
        if separation > 2.0 * ratio + 1e-12:
            continue
        toward = np.pi / 2 + np.pi * j / n_cells  # direction of center_j from center_0
        if abs(separation - 2.0 * ratio) <= 1e-12:
            out.append(toward % (2 * np.pi))
            continue
        half_aperture = np.arccos(min(1.0, separation / (2.0 * ratio)))
        out.append((toward - half_aperture) % (2 * np.pi))
        out.append((toward + half_aperture) % (2 * np.pi))
    return out


def _aligning_offset(n_cells: int, elems_per_cell: int, ratio: float) -> float:
    """Element-grid rotation that lands elements on as many inter-cell
    intersection points as possible.  Zero when nothing can align (or when
    zero already aligns; near-ties resolve to the smallest offset)."""
    gammas = _intersection_azimuths(n_cells, ratio)
    if not gammas:
        return 0.0
    step = 2 * np.pi / elems_per_cell

    def aligned(offset):
        return sum(1 for g in gammas
                   if min((g - offset) % step, step - (g - offset) % step) < 1e-9)

    candidates = sorted({0.0} | {g % step for g in gammas})
    best, best_score = 0.0, -1
    for cand in candidates:
        score = aligned(cand)
        if score > best_score:
            best, best_score = cand, score
    return best


def _coincidence_groups(positions: np.ndarray, tol: float) -> np.ndarray:
    """Cluster slot positions closer than tol: the connected components of
    the pairs with distance d < tol, numbered in order of their first slot.

    A pair with d < tol is less than tol apart in x, so the pairs are found
    by a sweep over the slots sorted by x: the slots s places apart in that
    order are compared for s = 1, 2, ... until none of them is within tol in
    x.  That costs O(n log n + n r) for r the longest run of slots within
    tol of one another in x, against O(n^2) for comparing every pair."""
    flat = positions.reshape(-1, 2)
    order = np.argsort(flat[:, 0], kind="stable")
    xs = flat[order, 0]
    pairs = []
    for s in range(1, flat.shape[0]):
        near = np.flatnonzero(xs[s:] - xs[:-s] < tol)
        if near.size == 0:
            break
        i, j = order[near], order[near + s]
        close = np.hypot(flat[j, 0] - flat[i, 0], flat[j, 1] - flat[i, 1]) < tol
        pairs += zip(i[close].tolist(), j[close].tolist())
    # union-find whose roots are each component's first slot
    root = list(range(flat.shape[0]))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in pairs:
        low, high = sorted((find(a), find(b)))
        root[high] = low
    ids = {}
    group = [ids.setdefault(find(a), len(ids)) for a in range(flat.shape[0])]
    return np.array(group).reshape(positions.shape[:2])


def build_layout(n_cells: int, elems_per_cell: int, ratio: float,
                 qf_radius: float) -> Layout:
    """Construct a QF-UCA layout from cell count, per-cell element count,
    cell-to-antenna radius ratio R/R_Q, and antenna radius R_Q.

    Cell n sits at azimuth 2 pi n / N on the circle of radius R_Q; element k
    of each cell sits at within-cell azimuth 2 pi k / K plus a common offset
    chosen so the element grid lands on the inter-cell intersection points
    whenever that is geometrically possible.  Shared elements are detected by
    coordinate coincidence.
    """
    if n_cells < 3:
        raise ValueError(f"a QF layout needs at least 3 cells, got {n_cells}")
    if elems_per_cell < 1:
        raise ValueError(f"elems_per_cell must be >= 1, got {elems_per_cell}")
    if qf_radius <= 0:
        raise ValueError(f"qf_radius must be positive, got {qf_radius}")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    if ratio > 1:
        raise GeometryError(f"ratio R/R_Q must be <= 1, got {ratio}")

    offset = _aligning_offset(n_cells, elems_per_cell, ratio)
    cell_az = 2 * np.pi * np.arange(n_cells) / n_cells
    elem_az = offset + 2 * np.pi * np.arange(elems_per_cell) / elems_per_cell
    centers = qf_radius * np.stack([np.cos(cell_az), np.sin(cell_az)], axis=1)
    global_az = cell_az[:, None] + elem_az[None, :]
    positions = centers[:, None, :] + ratio * qf_radius * np.stack(
        [np.cos(global_az), np.sin(global_az)], axis=2)

    group = _coincidence_groups(positions, COINCIDENCE_RTOL * qf_radius)
    n_physical = int(group.max()) + 1
    return Layout(n_cells=n_cells, elems_per_cell=elems_per_cell,
                  cell_radius=ratio * qf_radius, qf_radius=qf_radius,
                  elem_offset=offset, cell_azimuths=cell_az,
                  elem_azimuths=elem_az, positions=positions,
                  slot_group=group, n_physical=n_physical)


def single_ring_layout(n_elements: int, radius: float) -> Layout:
    """Degenerate single-cell layout: one ring of n elements at the given
    radius, centered on the axis.  Used for single-loop UCA baselines."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    elem_az = 2 * np.pi * np.arange(n_elements) / n_elements
    positions = radius * np.stack([np.cos(elem_az), np.sin(elem_az)], axis=1)[None]
    return Layout(n_cells=1, elems_per_cell=n_elements, cell_radius=radius,
                  qf_radius=0.0, elem_offset=0.0, cell_azimuths=np.zeros(1),
                  elem_azimuths=elem_az, positions=positions,
                  slot_group=np.arange(n_elements)[None, :],
                  n_physical=n_elements)


def sharing_matrix(layout: Layout) -> SharingMatrix:
    """Sharing-frequency matrix L of one cell: L_v is the number of cells
    whose element set contains the physical element at slot v.  Reported in
    element-index order of cell 0."""
    freqs = layout.sharing_freqs
    # one cell never holds two coincident elements, so the group size equals
    # the number of distinct cells using the element
    return SharingMatrix(diag_values=freqs)


def admissible_elem_counts(n_cells: int, case: str, max_v: int) -> tuple[int, ...]:
    """Admissible per-cell element counts V <= max_v for one geometric case.

    tangent        R/R_Q = sin(pi/N), adjacent cells share one element;
    through-center R/R_Q = 1, all cells share the center element;
    overlapped     sin(pi/N) < R/R_Q < 1, adjacent cells share two elements
                   (admissibility determined geometrically).
    """
    if n_cells < 3:
        raise ValueError(f"n_cells must be >= 3, got {n_cells}")
    if case not in ADMISSIBILITY_CASES:
        raise ValueError(f"unknown case {case!r}, expected one of {ADMISSIBILITY_CASES}")
    if case in ("tangent", "through-center"):
        # V = i * 2N/(N-2) with i and V integer: multiples of 2N / gcd(2N, N-2)
        base = 2 * n_cells // gcd(2 * n_cells, n_cells - 2)
        return tuple(range(base, max_v + 1, base))
    return tuple(v for v in range(1, max_v + 1) if overlapped_ratios(n_cells, v))


def overlapped_ratios(n_cells: int, elems_per_cell: int) -> tuple[float, ...]:
    """Ratios R/R_Q strictly between sin(pi/N) and 1 for which adjacent cells
    share exactly two on-grid elements and no other sharing occurs.

    Both circle-intersection azimuths must land on the element grid; their sum
    is fixed at pi + 2 pi / N, so a necessary condition is V (N+2) / (2N)
    integer.  Each candidate is verified by building the layout.
    """
    n, v = n_cells, elems_per_cell
    if (v * (n + 2)) % (2 * n) != 0:
        return ()
    out = []
    for k1 in range(1, v + 1):
        delta = 2 * np.pi * k1 / v - np.pi / n
        if not (np.pi / n + 1e-12 < delta < np.pi / 2 - 1e-12):
            continue
        ratio = np.sin(np.pi / n) / np.sin(delta)
        layout = build_layout(n, v, ratio, 1.0)
        freqs = layout.sharing_freqs
        # exactly four doubly-shared slots per cell, nothing deeper
        if np.sum(freqs == 2) == 4 and np.sum(freqs == 1) == v - 4:
            out.append(float(ratio))
    return tuple(sorted(set(out)))


def slot_group_sum(layout: Layout, logical: np.ndarray) -> np.ndarray:
    """Collapse per-slot values to per-physical-element sums (transmit feed).

    `logical` is one frame (a flat N*K vector or the (N, K) slot grid) or a
    stack of (N, K) grids; the result has one row of n_physical per frame."""
    x = np.asarray(logical, dtype=complex)
    n_slots = layout.n_cells * layout.elems_per_cell
    flat = x.reshape(x.shape[:-2] + (-1,)) if x.ndim > 2 else x.reshape(-1)
    if flat.shape[-1] != n_slots:
        raise DimensionError("logical vector does not match layout slot count")
    out = np.zeros(flat.shape[:-1] + (layout.n_physical,), dtype=complex)
    np.add.at(out, (..., layout.slot_group.reshape(-1)), flat)
    return out


def duplicate_to_slots(layout: Layout, physical: np.ndarray) -> np.ndarray:
    """Expand per-physical-element values (last axis) to the (n_cells, elems)
    slot grid; leading axes index frames."""
    phys = np.asarray(physical, dtype=complex)
    if phys.shape[-1:] != (layout.n_physical,):
        raise DimensionError("physical vector does not match layout element count")
    return phys[..., layout.slot_group]


def rotation_shift(q: int, n_cells: int, qf_radius: float) -> tuple[float, float, float]:
    """Rotation angle and center displacements between a cell pair at offset q:
    phi_q = 2 pi q / N, a_q = -R_Q sin(phi_q), b_q = -R_Q (1 - cos(phi_q))."""
    if not 0 <= q < n_cells:
        raise ValueError(f"offset q must be in [0, {n_cells}), got {q}")
    phi = 2 * np.pi * q / n_cells
    return phi, -qf_radius * np.sin(phi), -qf_radius * (1 - np.cos(phi))


def layout_csv(layout: Layout) -> str:
    """CSV of the layout: cell_index, elem_index, x_m, y_m, physical_id,
    sharing_freq.  One row per physical element; cell_index/elem_index name
    its first logical slot."""
    counts = np.bincount(layout.slot_group.ravel(), minlength=layout.n_physical)
    first_slot = {}
    for n in range(layout.n_cells):
        for k in range(layout.elems_per_cell):
            first_slot.setdefault(int(layout.slot_group[n, k]), (n, k))
    buf = io.StringIO()
    buf.write("cell_index,elem_index,x_m,y_m,physical_id,sharing_freq\n")
    for g in range(layout.n_physical):
        n, k = first_slot[g]
        x, y = layout.positions[n, k]
        buf.write(f"{n},{k},{float(x)!r},{float(y)!r},{g},{counts[g]}\n")
    return buf.getvalue()
