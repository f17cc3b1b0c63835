"""Admissible QF-UCA layouts for the property tests."""

import numpy as np

from qfuca import geometry


def admissible_layouts(max_cells: int = 6, max_elems: int = 12) -> list:
    """Every (n_cells, elems_per_cell, ratio) of the three geometric cases
    with at most max_cells cells of max_elems elements."""
    out = []
    for n in range(3, max_cells + 1):
        for case in geometry.ADMISSIBILITY_CASES:
            for v in geometry.admissible_elem_counts(n, case, max_elems):
                if case == "tangent":
                    ratios = (float(np.sin(np.pi / n)),)
                elif case == "through-center":
                    ratios = (1.0,)
                else:
                    ratios = geometry.overlapped_ratios(n, v)
                out += [(n, v, r) for r in ratios]
    return out


# The grids of the golden outputs and the benchmark, and layouts whose
# sharing frequencies are not all powers of two (L_v of 3, 5 or 6).
NAMED_LAYOUTS = [(4, 4, 1.0), (4, 8, 1.0), (4, 16, 1.0), (8, 16, 1.0), (16, 32, 1.0),
                 (3, 6, 1.0), (5, 10, 1.0), (6, 3, 1.0), (6, 6, 1.0)]


def power_of_two_sharing(layout) -> bool:
    """Whether every sharing frequency of the layout is a power of two, so
    that dividing and multiplying by it are exact."""
    f = layout.element_sharing
    return bool(np.all(f & (f - 1) == 0))
