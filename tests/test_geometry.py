from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfuca.errors import GeometryError
from qfuca.geometry import (COINCIDENCE_RTOL, admissible_elem_counts, build_layout,
                            layout_csv, overlapped_ratios, single_ring_layout)
from qfuca.geometry import _aligning_offset, _coincidence_groups

from layouts import admissible_layouts
from reference import (aligning_offset, coincidence_groups, slot_group_sum,
                       superpose_operators)


def circulant_shift_equal(a, b):
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    return any(a[s:] + a[:s] == b for s in range(len(a)))


class TestBuildLayout:
    def test_9_element_through_center(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        assert lay.n_physical == 9

    def test_25_element_through_center(self):
        lay = build_layout(4, 8, 1.0, 1.0)
        assert lay.n_physical == 25

    def test_12_element_tangent(self):
        lay = build_layout(4, 4, np.sin(np.pi / 4), 1.0)
        assert lay.n_physical == 12
        assert sorted(lay.sharing_freqs) == [1, 1, 2, 2]

    def test_invalid_arguments(self):
        with pytest.raises(GeometryError):
            build_layout(4, 4, 1.2, 1.0)
        with pytest.raises(ValueError):
            build_layout(2, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_layout(4, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_layout(4, 4, 1.0, -1.0)
        with pytest.raises(ValueError):
            build_layout(4, 4, 0.0, 1.0)

    def test_radius_whose_squared_offsets_overflow_rejected(self):
        # two facing antennas hold elements up to 2 (R_Q + R) apart in plane
        with pytest.raises(GeometryError, match="antenna radius 1e\\+160 m"):
            build_layout(4, 4, 1.0, 1e160)
        with pytest.raises(GeometryError, match="antenna radius 1e\\+160 m"):
            single_ring_layout(9, 1e160)
        assert build_layout(4, 4, 1.0, 1e150).n_physical == 9
        assert single_ring_layout(9, 1e150).n_physical == 9

    @pytest.mark.parametrize("elems, ratio", [(4, 1e-10), (64, 1e-8)])
    def test_cell_whose_own_elements_coincide_rejected(self, elems, ratio):
        # the sharing vector counts one cell per slot of an element
        with pytest.raises(GeometryError, match=f"ratio {ratio!r} is too small"):
            build_layout(4, elems, ratio, 1.0)

    def test_smallest_cell_keeps_its_elements_apart(self):
        lay = build_layout(16, 64, 1e-6, 1.0)
        assert np.all(lay.element_sharing == 1)

    def test_position_round_trip(self):
        lay = build_layout(5, 6, 0.8, 2.5)
        cell_az = 2 * np.pi * np.arange(5) / 5
        elem_az = lay.elem_offset + 2 * np.pi * np.arange(6) / 6
        for n in range(5):
            center = 2.5 * np.array([np.cos(cell_az[n]), np.sin(cell_az[n])])
            for k in range(6):
                ang = elem_az[k] + cell_az[n]
                pos = center + lay.cell_radius * np.array([np.cos(ang), np.sin(ang)])
                assert np.max(np.abs(pos - lay.positions[n, k])) < 1e-12 * 2.5

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(admissible_layouts()),
           st.floats(min_value=0.05, max_value=20.0))
    def test_shared_elements_match_all_pairs_oracle(self, layout, qf_radius):
        # cell 0 against its N rotations finds the same pairs as comparing
        # every pair, so the partition and the physical numbering are the same
        lay = build_layout(*layout, qf_radius)
        expect = coincidence_groups(lay.positions, COINCIDENCE_RTOL * qf_radius)
        assert np.array_equal(lay.slot_group, expect)

    @pytest.mark.parametrize("n, v, ratio", [(16, 32, 1.0), (16, 32, np.sin(np.pi / 16)),
                                             (32, 64, 1.0), (64, 1, 1.0),
                                             (16, 32, 1 - 1e-9), (8, 16, 1 - 5e-10),
                                             (6, 12, 1 - 8e-10), (32, 64, 1 - 1.5e-9)])
    def test_shared_elements_match_all_pairs_oracle_on_large_grids(self, n, v, ratio):
        # at ratio 1 every cell's slot at the center is one element; just
        # below 1 those slots lie on a circle smaller than the tolerance, and
        # form one group whose ends are more than the tolerance apart: a
        # chain of pairs, which one pass over the pairs would split
        lay = build_layout(n, v, ratio, 0.5)
        expect = coincidence_groups(lay.positions, COINCIDENCE_RTOL * 0.5)
        assert np.array_equal(lay.slot_group, expect)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40))
    def test_coincidence_chains_match_all_pairs_oracle(self, points):
        # points 0.45 tol apart on a lattice form chains whose ends are more
        # than tol apart: the groups are the chains' connected components
        positions = 0.45 * np.array(points, dtype=float).reshape(1, -1, 2)
        assert np.array_equal(_coincidence_groups(positions, 1.0),
                              coincidence_groups(positions, 1.0))

    def test_peak_memory_is_about_one_x_search_array(self):
        # the coincidence search takes |dx| in place, so building a 32x64
        # layout holds one (K, N, K) float array of x offsets (1 MB) at a
        # time, not the offsets and their absolute values side by side
        search_bytes = 64 * 32 * 64 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            build_layout(32, 64, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * search_bytes

    def test_aligning_offset_matches_loop_oracle(self):
        # the array search picks the very offset of the one-candidate-at-a-
        # time loop, bit for bit; at ratio 1e-310 no circles cross, and the
        # arccos argument of the cells that do not would overflow
        cases = [(n, k, ratio) for n in range(3, 33)
                 for k in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)
                 for ratio in (1.0, np.sin(np.pi / n), 0.5, 0.7, 1 - 1e-9)]
        rng = np.random.default_rng(28)
        cases += [(int(rng.integers(3, 65)), int(rng.integers(1, 129)),
                   10 ** rng.uniform(-6, 0)) for _ in range(3000)]
        cases += [(3, 1, 1e-310), (64, 128, 1e-310)]
        for n, k, ratio in cases:
            assert _aligning_offset(n, k, ratio) == aligning_offset(n, k, ratio), (n, k, ratio)

    @pytest.mark.parametrize("n, v, ratio", admissible_layouts() + [(16, 32, 1.0),
                                                                    (32, 64, 1.0)])
    def test_shared_element_sits_at_its_first_slot(self, n, v, ratio):
        # the physical channel and layout.csv place a shared element at one
        # slot, its first, bit for bit: its other slots sit up to 1.6e-15
        # R_Q away at ratio 1
        lay = build_layout(n, v, ratio, 1.0)
        first = np.unique(lay.slot_group, return_index=True)[1]
        at_first = lay.positions.reshape(-1, 2)[first]
        assert np.array_equal(lay.group_positions(), at_first)
        rows = [line.split(",") for line in layout_csv(lay).splitlines()[1:]]
        written = np.array([[float(row[2]), float(row[3])] for row in rows])
        assert np.array_equal(written, at_first)

    def test_counting_identity_exact(self):
        # N_t = N * sum_v 1/L_v as an exact rational identity
        for n in range(3, 9):
            for case in ("tangent", "through-center"):
                ratio = np.sin(np.pi / n) if case == "tangent" else 1.0
                for v in admissible_elem_counts(n, case, 16):
                    lay = build_layout(n, v, ratio, 1.0)
                    total = n * sum(Fraction(1, int(f)) for f in lay.sharing_freqs)
                    assert total == lay.n_physical

    def test_group_symmetry_adjacent_pairs(self):
        # every adjacent cell pair shares the same number of elements
        for (n, v, ratio) in [(4, 8, np.sin(np.pi / 4)), (4, 12, None), (6, 9, None)]:
            if ratio is None:
                candidates = overlapped_ratios(n, v)
                if not candidates:
                    continue
                ratio = candidates[0]
            lay = build_layout(n, v, ratio, 1.0)
            shared = []
            for j in range(n):
                a = set(lay.slot_group[j])
                b = set(lay.slot_group[(j + 1) % n])
                shared.append(len(a & b))
            assert len(set(shared)) == 1


class TestSharingMatrix:
    def test_4x4_through_center(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        diag = list(lay.sharing_freqs)
        assert circulant_shift_equal(diag, [2, 1, 2, 4])

    def test_4x8_through_center(self):
        lay = build_layout(4, 8, 1.0, 1.0)
        diag = list(lay.sharing_freqs)
        assert circulant_shift_equal(diag, [2, 1, 1, 1, 2, 1, 4, 1])

    def test_disjoint_cells_identity(self):
        for n in (3, 4, 6):
            ratio = 0.9 * np.sin(np.pi / n)
            lay = build_layout(n, 5, ratio, 1.0)
            assert np.array_equal(lay.sharing_freqs, np.ones(5, dtype=int))

    def test_tangent_case_one_shared_pattern(self):
        # two slots at frequency 2 (one per neighbor), rest unshared
        lay = build_layout(4, 8, np.sin(np.pi / 4), 1.0)
        diag = sorted(lay.sharing_freqs)
        assert diag == [1, 1, 1, 1, 1, 1, 2, 2]

    def test_tangent_4x4_matches_closed_form_vector(self):
        lay = build_layout(4, 4, np.sin(np.pi / 4), 1.0)
        diag = [int(x) for x in lay.sharing_freqs]
        assert circulant_shift_equal(diag, [2, 2, 1, 1])

    def test_tangent_closed_form_all_admissible(self):
        # every admissible tangent layout realizes exactly one shared element
        # per adjacent pair: the sharing vector is two 2s among ones
        for n in range(3, 9):
            for v in admissible_elem_counts(n, "tangent", 12):
                lay = build_layout(n, v, np.sin(np.pi / n), 1.0)
                diag = sorted(lay.sharing_freqs)
                assert diag == [1] * (v - 2) + [2, 2], (n, v)
                assert lay.n_physical == n * v - n


def assert_cells_share_as_cell_0(lay):
    """Every cell's slots see the sharing frequencies of cell 0's slots, the
    symmetry channel_csv relies on when it divides every receive cell by
    cell 0's L."""
    per_slot = lay.element_sharing[lay.slot_group]
    assert (per_slot == lay.sharing_freqs).all(), per_slot


class TestCellSymmetry:
    def test_admissible_layouts(self):
        for n, v, ratio in admissible_layouts():
            assert_cells_share_as_cell_0(build_layout(n, v, ratio, 1.0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(3, 8), st.integers(1, 16),
           st.floats(min_value=0.01, max_value=1.0))
    def test_random_ratios(self, n, v, ratio):
        assert_cells_share_as_cell_0(build_layout(n, v, ratio, 1.0))

    @pytest.mark.parametrize("n, v, ratio", [(16, 32, 1.0), (16, 32, np.sin(np.pi / 16)),
                                             (32, 64, 1.0), (32, 64, np.sin(np.pi / 32))])
    def test_large_grids(self, n, v, ratio):
        assert_cells_share_as_cell_0(build_layout(n, v, ratio, 1.0))


class TestAdmissibility:
    def test_through_center_n4(self):
        assert admissible_elem_counts(4, "through-center", 12) == (4, 8, 12)

    def test_tangent_n4(self):
        assert admissible_elem_counts(4, "tangent", 8) == (4, 8)

    def test_tangent_n6(self):
        assert admissible_elem_counts(6, "tangent", 9) == (3, 6, 9)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            admissible_elem_counts(4, "mystery", 8)

    def test_overlapped_n4(self):
        assert admissible_elem_counts(4, "overlapped", 16) == (12, 16)

    def test_shared_slots_coincide_to_rounding(self):
        # a ratio or grid offset cut to 12 digits left shared slots up to
        # 7e-13 R_Q apart, enough to split the physical and logical paths
        for layout in admissible_layouts(max_cells=6, max_elems=16):
            lay = build_layout(*layout, 1.0)
            apart = lay.group_positions()[lay.slot_group] - lay.positions
            assert np.max(np.abs(apart)) <= 1e-14, layout

    def test_overlapped_layout_structure(self):
        for v in (12, 16):
            for ratio in overlapped_ratios(4, v):
                assert np.sin(np.pi / 4) < ratio < 1.0
                lay = build_layout(4, v, ratio, 1.0)
                # two shared elements per adjacent pair: N_t = N (V - 2)
                assert lay.n_physical == 4 * (v - 2)


class TestSuperpose:
    def test_identity_when_unshared(self):
        lay = build_layout(4, 4, 0.5, 1.0)
        t_t, t_r = superpose_operators(lay)
        assert np.array_equal(t_t, np.eye(16))
        assert np.array_equal(t_r, np.eye(16))

    def test_shared_pair_sums(self):
        lay = build_layout(4, 8, np.sin(np.pi / 4), 1.0)
        t_t, _ = superpose_operators(lay)
        group = lay.slot_group.reshape(-1)
        shared_id = [g for g in range(lay.n_physical)
                     if np.sum(group == g) == 2][0]
        slots = np.nonzero(group == shared_id)[0]
        x = np.zeros(group.size, dtype=complex)
        x[slots[0]], x[slots[1]] = 2.0, 3.0 + 1j
        out = t_t @ x
        assert out[slots[0]] == out[slots[1]] == 5.0 + 1j

    def test_transmit_on_ones_gives_sharing_freqs(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        t_t, _ = superpose_operators(lay)
        out = (t_t @ np.ones(16)).reshape(4, 4)
        counts = np.bincount(lay.slot_group.ravel())
        for n in range(4):
            assert np.array_equal(out[n].real, counts[lay.slot_group[n]])

    def test_transmit_idempotent_up_to_group_size(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        t_t, _ = superpose_operators(lay)
        rng = np.random.default_rng(2)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        once = t_t @ x
        twice = t_t @ once
        counts = np.bincount(lay.slot_group.ravel())[lay.slot_group.reshape(-1)]
        assert np.max(np.abs(twice - counts * once)) < 1e-12

    def test_receive_duplication_lossless(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        _, t_r = superpose_operators(lay)
        rng = np.random.default_rng(3)
        phys = rng.normal(size=lay.n_physical) + 1j * rng.normal(size=lay.n_physical)
        consistent = phys[lay.slot_group.reshape(-1)]
        assert np.max(np.abs(t_r @ consistent - consistent)) < 1e-12

    def test_group_sum_matches_operator(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        t_t, _ = superpose_operators(lay)
        rng = np.random.default_rng(4)
        # a flat frame, one (N, K) grid and a stack of grids
        for shape in ((16,), (4, 4), (3, 4, 4)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            physical = slot_group_sum(lay, x)
            assert physical.shape == shape[:-2] + (lay.n_physical,)
            replicated = x.reshape(-1, 16) @ t_t.T
            got = physical[..., lay.slot_group.reshape(-1)].reshape(-1, 16)
            assert np.max(np.abs(replicated - got)) < 1e-12


class TestExportsAndRings:
    def test_layout_csv_one_row_per_element(self):
        lay = build_layout(4, 4, 1.0, 1.0)
        lines = layout_csv(lay).strip().split("\n")
        assert lines[0] == "cell_index,elem_index,x_m,y_m,physical_id,sharing_freq"
        assert len(lines) == 1 + 9

    def test_single_ring(self):
        ring = single_ring_layout(9, 0.5)
        assert ring.n_physical == 9
        assert np.array_equal(ring.sharing_freqs, np.ones(9, dtype=int))
        radii = np.hypot(ring.positions[0, :, 0], ring.positions[0, :, 1])
        assert np.max(np.abs(radii - 0.5)) < 1e-12
