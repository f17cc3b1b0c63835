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
