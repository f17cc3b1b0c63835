"""Quasi-fractal UCA layout construction.

A QF-UCA antenna is N uniform circular cells of radius R placed on a circle
of radius R_Q; cells may physically share array elements wherever their
circles intersect on the element grid.  This module builds layouts, detects
shared elements by coordinate coincidence, and derives the sharing
frequencies, the slot-to-element map, and admissibility conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import GeometryError

# Coincidence tolerance for shared-element detection, relative to R_Q.
COINCIDENCE_RTOL = 1e-9

ADMISSIBILITY_CASES = ("tangent", "overlapped", "through-center")


@dataclass(frozen=True)
class Layout:
    """Full geometric description of one QF-UCA antenna.

    positions[n, k] is the planar coordinate (meters) of logical slot k of
    cell n; slot_group[n, k] is the physical element id the slot maps to.
    Slot (n, k) sits at azimuth 2 pi n / N + elem_offset + 2 pi k / K about
    its cell's center (the cell's local frame rotates with the cell).
    """

    n_cells: int
    elems_per_cell: int
    cell_radius: float
    qf_radius: float
    elem_offset: float
    positions: np.ndarray
    slot_group: np.ndarray
    n_physical: int

    @property
    def element_sharing(self) -> np.ndarray:
        """Per-physical-element sharing frequency: how many slots, and so how
        many cells (one cell never holds two coincident elements), use it."""
        return np.bincount(self.slot_group.ravel(), minlength=self.n_physical)

    @property
    def sharing_freqs(self) -> np.ndarray:
        """diag(L): per-slot sharing frequency L_v of cell 0, identical for
        every cell by the N-fold symmetry."""
        return self.element_sharing[self.slot_group[0]]

    @property
    def first_slots(self) -> np.ndarray:
        """Per-physical-element flat index (n K + k) of its first slot, the
        slot its id is numbered by and where the element sits."""
        first = np.full(self.n_physical, self.slot_group.size)
        np.minimum.at(first, self.slot_group.reshape(-1), np.arange(self.slot_group.size))
        return first

    def group_positions(self) -> np.ndarray:
        """Physical element coordinates indexed by physical id: each element
        at its first slot, as layout.csv writes it."""
        return self.positions.reshape(-1, 2)[self.first_slots]


def _aligning_offset(n_cells: int, elems_per_cell: int, ratio: float) -> float:
    """Element-grid rotation that lands elements on as many inter-cell
    intersection points as possible: the azimuths, seen from cell 0's
    center, where its circle meets another cell's (tangency yields one).
    Zero when nothing can align (or when zero already aligns; near-ties
    resolve to the smallest offset)."""
    j = np.arange(1, n_cells)
    separation = 2.0 * np.sin(np.pi * j / n_cells)  # |center_j - center_0| / R_Q
    toward = np.pi / 2 + np.pi * j / n_cells  # direction of center_j from center_0
    tangent = np.abs(separation - 2.0 * ratio) <= 1e-12
    cross = (separation <= 2.0 * ratio + 1e-12) & ~tangent
    half_aperture = np.arccos(np.minimum(1.0, separation[cross] / (2.0 * ratio)))
    gammas = np.concatenate([toward[tangent], toward[cross] - half_aperture,
                             toward[cross] + half_aperture]) % (2 * np.pi)
    if not gammas.size:
        return 0.0
    step = 2 * np.pi / elems_per_cell
    candidates = np.sort(np.append(0.0, gammas % step))
    apart = (gammas - candidates[:, None]) % step
    aligned = np.count_nonzero(np.minimum(apart, step - apart) < 1e-9, axis=1)
    return float(candidates[np.argmax(aligned)])


def _coincidence_groups(positions: np.ndarray, tol: float) -> np.ndarray:
    """Cluster slot positions closer than tol: the connected components of
    the pairs with distance d < tol, numbered in order of their first slot.

    positions[n] is cell 0 turned by n N-ths of a circle, so slots (m, k)
    and (m + c, k') pair exactly when (0, k) and (c, k') do: cell 0's slots
    are compared with every slot (x first, then the distance of the few
    within tol in x), and those pairs are turned through all N cells.  With
    one cell that compares every pair.  The x search holds one (K, N, K)
    array, |dx| taken in place; the few pairs within tol recompute dx by the
    same subtraction."""
    n, k = positions.shape[:2]
    x, y = positions[..., 0], positions[..., 1]
    adx = x - x[0][:, None, None]  # (k, c, k'): slot k' of cell c against slot k of cell 0
    np.abs(adx, out=adx)
    a, c, b = np.unravel_index(np.flatnonzero(adx < tol), adx.shape)
    close = np.hypot(x[c, b] - x[0, a], y[c, b] - y[0, a]) < tol
    a, c, b = a[close], c[close], b[close]
    cells = np.arange(n)[:, None]
    slot, partner = (cells * k + a).ravel(), ((cells + c) % n * k + b).ravel()
    # both ends of each pair take the lower root, since rounding can find a
    # pair from one end only, until none moves: chains of pairs merge, and
    # every root is its component's first slot
    root = np.arange(n * k)
    while True:
        low = root.copy()
        np.minimum.at(low, slot, root[partner])
        np.minimum.at(low, partner, root[slot])
        if np.array_equal(low, root):
            return (np.cumsum(root == np.arange(n * k)) - 1)[root].reshape(n, k)
        root = low


def _check_offsets_square(extent: float, radius: float):
    """Reject an antenna whose elements reach `extent` from the axis if the
    channel cannot square their offsets: two such antennas face each other
    with elements up to 2 extent apart in plane (Python float products
    overflow to inf silently)."""
    span = 2.0 * float(extent)
    if not np.isfinite(span * span):
        raise GeometryError(f"antenna radius {float(radius)!r} m is too large for the channel "
                            "model: the square of its element offsets leaves the float range")


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
    _check_offsets_square(qf_radius + ratio * qf_radius, qf_radius)

    offset = _aligning_offset(n_cells, elems_per_cell, ratio)
    cell_az = 2 * np.pi * np.arange(n_cells) / n_cells
    elem_az = offset + 2 * np.pi * np.arange(elems_per_cell) / elems_per_cell
    centers = qf_radius * np.stack([np.cos(cell_az), np.sin(cell_az)], axis=1)
    global_az = cell_az[:, None] + elem_az[None, :]
    positions = centers[:, None, :] + ratio * qf_radius * np.stack(
        [np.cos(global_az), np.sin(global_az)], axis=2)

    group = _coincidence_groups(positions, COINCIDENCE_RTOL * qf_radius)
    if np.any(np.diff(np.sort(group, axis=1), axis=1) == 0):
        raise GeometryError(f"ratio {ratio!r} is too small for {elems_per_cell} elements "
                            "per cell: a cell's own elements coincide")
    n_physical = int(group.max()) + 1
    return Layout(n_cells=n_cells, elems_per_cell=elems_per_cell,
                  cell_radius=ratio * qf_radius, qf_radius=qf_radius,
                  elem_offset=offset, positions=positions,
                  slot_group=group, n_physical=n_physical)


def single_ring_layout(n_elements: int, radius: float) -> Layout:
    """Degenerate single-cell layout: one ring of n elements at the given
    radius, centered on the axis.  Used for single-loop UCA baselines."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    _check_offsets_square(radius, radius)
    elem_az = 2 * np.pi * np.arange(n_elements) / n_elements
    positions = radius * np.stack([np.cos(elem_az), np.sin(elem_az)], axis=1)[None]
    return Layout(n_cells=1, elems_per_cell=n_elements, cell_radius=radius,
                  qf_radius=0.0, elem_offset=0.0, positions=positions,
                  slot_group=np.arange(n_elements)[None, :],
                  n_physical=n_elements)


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


def layout_csv(layout: Layout) -> str:
    """CSV of the layout: cell_index, elem_index, x_m, y_m, physical_id,
    sharing_freq.  One row per physical element; cell_index/elem_index name
    its first logical slot."""
    cells, elems = np.divmod(layout.first_slots, layout.elems_per_cell)
    rows = zip(cells.tolist(), elems.tolist(), layout.group_positions().tolist(),
               layout.element_sharing.tolist())
    return "cell_index,elem_index,x_m,y_m,physical_id,sharing_freq\n" + "".join(
        f"{n},{k},{x!r},{y!r},{g},{count}\n" for g, (n, k, (x, y), count) in enumerate(rows))
