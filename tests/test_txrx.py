import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qfuca import channel as chan
from qfuca import txrx
from qfuca.config import Scenario
from qfuca.errors import DimensionError
from qfuca.geometry import build_layout, single_ring_layout
from qfuca.metrics import se_qf

import reference
from layouts import NAMED_LAYOUTS, admissible_layouts, power_of_two_sharing

FREQ = 5.8e9
LAM = 299792458.0 / FREQ


@pytest.fixture(scope="module")
def qf9():
    lay = build_layout(4, 4, 1.0, 1.0)
    return lay, lay.sharing_freqs


@pytest.fixture(scope="module")
def params100():
    return chan.PropagationParams.from_frequency(100.0, FREQ, 1.0)


@pytest.fixture(scope="module")
def link9():
    return txrx.build_link(Scenario())


@pytest.fixture(scope="module")
def link_32x64():
    return txrx.build_link(Scenario(n_cells=32, tx_elems=64, rx_elems=64, seed=7))


# Links whose frames the engine cuts differently at every decision budget:
# 16 decisions a frame with rank-deficient branches (noiseless ties), 18 with
# 3 degenerate modes, and 128 with unequal antennas
BLOCK_SCENARIOS = {"4x4": Scenario(),
                   "6x3": Scenario(n_cells=6, tx_elems=3, rx_elems=3),
                   "8x16_unequal": Scenario(n_cells=8, tx_elems=16, rx_elems=16,
                                            rx_ratio=0.5)}


@functools.lru_cache(maxsize=None)
def block_link(name, constellation):
    return txrx.build_link(replace(BLOCK_SCENARIOS[name], constellation=constellation))


def noise_mode_scale_loops(rx, n_inter):
    """In-test oracle: the noise map accumulated entry by entry."""
    v = rx.elems_per_cell
    counts = np.bincount(rx.slot_group.ravel(), minlength=rx.n_physical)
    out = np.zeros((n_inter, v))
    for p in range(n_inter):
        a = np.zeros((v, rx.n_physical), dtype=complex)
        for m in range(rx.n_cells):
            for vv in range(v):
                g = rx.slot_group[m, vv]
                a[vv, g] += np.exp(-2j * np.pi * m * p / n_inter) / np.sqrt(n_inter) \
                    * (counts[rx.slot_group[0, vv]] / counts[g])
        out[p] = np.sum(np.abs(reference.dft_matrix(v) @ a) ** 2, axis=1)
    return out


def noise_mode_scale_dense(rx, n_inter):
    """In-test oracle: the noise map of every branch accumulated at once
    into one dense (n_inter, V, n_physical) tensor."""
    v = rx.elems_per_cell
    groups = rx.slot_group
    counts = np.bincount(groups.ravel(), minlength=rx.n_physical)
    phase = np.array([[np.exp(-2j * np.pi * m * p / n_inter) / np.sqrt(n_inter)
                       for m in range(rx.n_cells)] for p in range(n_inter)])
    weight = counts[groups[0]][None, :] / counts[groups]
    a = np.zeros((n_inter, v, rx.n_physical), dtype=complex)
    np.add.at(a, (np.arange(n_inter)[:, None, None], np.arange(v), groups),
              phase[:, :, None] * weight)
    return np.sum(np.abs(reference.dft_matrix(v) @ a) ** 2, axis=2)


def noise_mode_scale_pair_sum(rx):
    """In-test oracle: 1/NK times the phase sum over every ordered pair of
    slots on one element, in extended precision, each phase reduced to
    whole turns of 2pi/NK by integer arithmetic."""
    n, k = rx.n_cells, rx.elems_per_cell
    groups = rx.slot_group.ravel()
    m, v = np.divmod(np.arange(n * k), k)
    i, j = np.nonzero(groups[:, None] == groups[None])
    turns = (np.arange(n)[:, None, None] * (m[i] - m[j]) * k
             + np.arange(k)[None, :, None] * (v[i] - v[j]) * n) % (n * k)
    two_pi = 8 * np.arctan(np.longdouble(1))
    return np.sum(np.cos(two_pi * turns / np.longdouble(n * k)), axis=-1) / (n * k)


# The loops and dense oracles' own rounding: 3.6e-15 up to 16x32
ORACLE_ROUNDING = 5e-15

HAS_LONG_DOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_long_double = pytest.mark.skipif(not HAS_LONG_DOUBLE,
                                       reason="long double is plain double here")


def run_loopback_per_frame(link, n_frames, noise_variance=0.0):
    """In-test reference for the batched engine: the loopback one frame at a
    time through the physical path and `tod`, detected branch by branch by
    the alphabet search of tests/reference.py, not the engine's slicer, with
    the interference table recomputed from the exact transforms.  Returns
    (per-frame errors, per-mode errors, max ISR)."""
    n, k = link.tx.n_cells, link.tx.elems_per_cell
    sym_rng = np.random.default_rng(np.random.SeedSequence((link.seed, 0xA11CE)))
    amp = link.amplitudes()
    points = link.points
    gain = reference.physical_gain_matrix(link.tx, link.rx, link.params)
    per_frame, per_mode = [], np.zeros((n, k), dtype=int)
    for frame in range(n_frames):
        symbols = amp * points[sym_rng.integers(0, points.size, size=(n, k))]
        received = gain @ reference.tom_modulate(symbols, link.tx) \
            + txrx.element_noise(link.rx.n_physical, noise_variance, link.seed, frame)
        s_tilde = txrx.tod(received, link.rx)
        errors = np.zeros((n, k), dtype=bool)
        for p in range(n):
            detected, _, _ = reference.alphabet_search(
                s_tilde[p], link.lambda_coeffs[p], amp[p], points)
            errors[p] = (detected != symbols[p]) & (link.lambda_coeffs[p] != 0)
        per_frame.append(int(errors.sum()))
        per_mode += errors
    signal = np.abs(link.lambda_coeffs) ** 2 * link.power_alloc
    interference = np.stack([np.abs(g) ** 2 @ pa - np.abs(np.diag(g)) ** 2 * pa
                             for g, pa in zip(link.exact_matrices, link.power_alloc)])
    return per_frame, per_mode, float(np.max(interference / signal))


def random_grid(rng, n, k):
    return rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))


# Each alphabet in index order: the loopback maps its drawn indices through
# these arrays, so reordering one moves every loopback byte.
PINNED_ALPHABETS = {
    "qpsk": np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2),
    "bpsk": np.array([1 + 0j, -1 + 0j]),
    "16qam": np.array([complex(re, im) for im in (-3, -1, 1, 3)
                       for re in (-3, -1, 1, 3)]) / np.sqrt(10),
}


class TestConstellation:
    @pytest.mark.parametrize("name", list(txrx.ALPHABETS))
    def test_unit_energy(self, name):
        points = txrx.ALPHABETS[name]
        assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("name", list(PINNED_ALPHABETS))
    def test_index_order_is_pinned(self, name):
        points = txrx.ALPHABETS[name]
        assert points.dtype == complex
        assert np.array_equal(points, PINNED_ALPHABETS[name])

    @pytest.mark.parametrize("name", list(txrx.ALPHABETS))
    def test_table_arrays_are_read_only(self, name):
        with pytest.raises(ValueError):
            txrx.ALPHABETS[name][0] = 0

    def test_write_into_link_points_raises_and_next_link_is_intact(self):
        link = txrx.build_link(Scenario())
        with pytest.raises(ValueError):
            link.points[0] = 0
        assert np.array_equal(txrx.build_link(Scenario()).points, PINNED_ALPHABETS["qpsk"])


class TestSymbolGrid:
    def test_power_sums_to_total(self):
        # the link allocates its total power equally over the N x K modes
        link = txrx.build_link(Scenario(total_power=2.5))
        assert abs(link.power_alloc.sum() - 2.5) < 1e-12

    def test_shape_mismatch(self, qf9):
        lay, _ = qf9
        with pytest.raises(DimensionError):
            reference.tom_modulate(np.zeros((2, 3)), lay)


class TestModulation:
    def test_zero_grid(self, qf9):
        lay, _ = qf9
        assert np.all(reference.tom_modulate(np.zeros((4, 4)), lay) == 0)

    def test_dc_symbol_without_sharing(self):
        # s_{0,0} = sqrt(NK): every logical slot carries 1
        lay = build_layout(4, 4, 0.5, 1.0)
        sym = np.zeros((4, 4), dtype=complex)
        sym[0, 0] = 4.0
        feed = reference.tom_modulate(sym, lay)
        assert np.max(np.abs(feed - 1.0)) < 1e-12

    def test_dc_symbol_shared_element_superposes(self, qf9):
        lay, _ = qf9
        sym = np.zeros((4, 4), dtype=complex)
        sym[0, 0] = 4.0
        feed = reference.tom_modulate(sym, lay)
        counts = np.bincount(lay.slot_group.ravel())
        assert np.max(np.abs(feed - counts)) < 1e-12

    def test_matrix_and_loop_paths_agree(self, qf9):
        lay, _ = qf9
        rng = np.random.default_rng(1)
        g = random_grid(rng, 4, 4)
        a = reference.tom_modulate(g, lay)
        b = reference.tom_modulate_loops(g, lay)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_energy_preservation_before_superposition(self):
        # without sharing each slot is its own element: the feed is the
        # pre-superposition signal
        lay = build_layout(4, 4, 0.5, 1.0)
        rng = np.random.default_rng(2)
        g = random_grid(rng, 4, 4)
        logical = reference.tom_modulate(g, lay)
        assert abs(np.sum(np.abs(logical) ** 2)
                   - np.sum(np.abs(g) ** 2)) < 1e-12 * np.sum(np.abs(g) ** 2)

    def test_layout_mismatch(self, qf9):
        lay, _ = qf9
        with pytest.raises(ValueError):
            reference.tom_modulate(np.zeros((4, 8)), lay)


class TestPropagation:
    def test_zero_in_zero_noise(self, qf9, params100):
        lay, _ = qf9
        y = reference.physical_gain_matrix(lay, lay, params100) @ np.zeros(9, dtype=complex) \
            + txrx.element_noise(9, 0.0, 0, 0)
        assert np.all(y == 0)

    def test_seed_reproducibility(self):
        y1 = txrx.element_noise(9, 1e-10, 42, 3)
        y2 = txrx.element_noise(9, 1e-10, 42, 3)
        assert np.array_equal(y1, y2)
        y3 = txrx.element_noise(9, 1e-10, 42, 4)
        assert not np.array_equal(y1, y3)

    def test_physical_path_equals_logical_path(self, qf9, params100):
        lay, _ = qf9
        rng = np.random.default_rng(3)
        g = random_grid(rng, 4, 4)
        y = reference.physical_gain_matrix(lay, lay, params100) \
            @ reference.tom_modulate(g, lay)
        r_phys = y[lay.slot_group]
        bc = chan.build_block_channel(lay, lay, params100)
        r_log = reference.propagate_logical(g, bc)
        scale = np.max(np.abs(r_log))
        assert np.max(np.abs(r_phys - r_log)) < 1e-12 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(admissible_layouts()),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_physical_path_equals_logical_path_on_admissible_layouts(
            self, params100, layout, seed):
        # shared elements superpose on the physical path; the logical path
        # carries them as separate slots, each reading its element's whole
        # observation.  Both see the same element distances: a 1-ulp change
        # of one distance would move its phase by 2 pi D eps / lambda, about
        # 3e-12 here
        lay = build_layout(*layout, 1.0)
        g = random_grid(np.random.default_rng(seed), lay.n_cells, lay.elems_per_cell)
        feed = reference.tom_modulate(g, lay)
        y = reference.physical_gain_matrix(lay, lay, params100) @ feed
        r_phys = y[lay.slot_group]
        r_log = reference.propagate_logical(g, chan.build_block_channel(lay, lay, params100))
        assert np.max(np.abs(r_phys - r_log)) <= 1e-12 * np.max(np.abs(r_log))

    def test_transforms_equal_physical_path_on_admissible_and_named_layouts(self):
        # branch p of TOD after the physical channel after TOM is the exact
        # transform T_p: the identity that run_loopback sends its frames
        # through, on every grid up to 8x16 and on the named ones
        layouts = sorted(set(admissible_layouts(8, 16)) | set(NAMED_LAYOUTS))
        rng = np.random.default_rng(31)
        for n, v, ratio in layouts:
            link = txrx.build_link(Scenario(n_cells=n, tx_elems=v, rx_elems=v,
                                            tx_ratio=ratio, rx_ratio=ratio))
            symbols = rng.normal(size=(3, n, v)) + 1j * rng.normal(size=(3, n, v))
            got = (link.exact_matrices @ symbols[..., None])[..., 0]
            received = reference.tom_modulate(symbols, link.tx) \
                @ reference.physical_gain_matrix(link.tx, link.rx, link.params).T
            expect = txrx.tod(received, link.rx)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect)), \
                (n, v, ratio)

class TestDemodulation:
    @pytest.mark.parametrize("length", [8, 10])
    def test_receive_length_must_match_the_antenna(self, qf9, length):
        # the default antenna has 9 physical elements
        lay, _ = qf9
        for shape in ((length,), (3, length)):
            with pytest.raises(DimensionError):
                txrx.tod(np.zeros(shape, dtype=complex), lay)

    def test_chain_equals_paper_form(self):
        # the paper splits by 1/L_v and multiplies by L after the inner DFT;
        # the chain does neither.  Exact where every L_v is a power of two,
        # within rounding of the dropped factors elsewhere
        layouts = admissible_layouts(16, 32)
        assert set(NAMED_LAYOUTS) <= set(layouts)
        rng = np.random.default_rng(21)
        for layout in layouts:
            lay = build_layout(*layout, 1.0)
            y = rng.normal(size=(2, lay.n_physical)) + 1j * rng.normal(size=(2, lay.n_physical))
            got = txrx.tod(y, lay)
            expect = reference.paper_demodulate(y, lay)
            if power_of_two_sharing(lay):
                assert np.array_equal(got, expect), layout
            else:
                assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect)), layout

    def test_single_cell_compensation_is_identity(self):
        # one cell: the compensation across the cells leaves the ring's
        # observations as they are, and tod is the inner DFT alone
        ring = single_ring_layout(5, 1.0)
        y = np.arange(5) + 1j
        s = txrx.tod(y, ring)
        assert s.shape == (1, 5)
        assert np.max(np.abs(s[0] - reference.dft_matrix(5) @ y)) < 1e-12

    def test_zero_in_zero_out(self, qf9):
        lay, _ = qf9
        s = txrx.tod(np.zeros(9, dtype=complex), lay)
        assert np.all(s == 0)

    def test_matrix_and_loop_paths_agree(self, qf9):
        lay, _ = qf9
        rng = np.random.default_rng(4)
        y = rng.normal(size=9) + 1j * rng.normal(size=9)
        a = txrx.tod(y, lay)
        b = reference.tod_split_compensate_loops(y, lay) @ reference.dft_matrix(4).T
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_inner_demodulation_recovers_idft_column(self):
        # a ring shares no element: L = I
        ring = single_ring_layout(6, 1.0)
        w = reference.idft_matrix(6)
        for l in (0, 2, 5):
            s = txrx.tod(3.5 * w[:, l], ring)
            expect = np.zeros((1, 6), dtype=complex)
            expect[0, l] = 3.5
            assert np.max(np.abs(s - expect)) < 1e-12

    def test_inner_demodulation_zero(self, qf9):
        lay, _ = qf9
        s = txrx.tod(np.zeros((3, 9)), lay)
        assert s.shape == (3, 4, 4)
        assert np.all(s == 0)

    def test_tod_is_the_adjoint_of_tom(self):
        # <s, tod(y)> = <tom(s), y> for every grid s and observation y: the
        # orientation of the one map that reads the receive antenna back
        layouts = sorted(set(admissible_layouts(16, 32)) | set(NAMED_LAYOUTS))
        rng = np.random.default_rng(33)
        for layout in layouts:
            lay = build_layout(*layout, 1.0)
            y = rng.normal(size=lay.n_physical) + 1j * rng.normal(size=lay.n_physical)
            s = random_grid(rng, lay.n_cells, lay.elems_per_cell)
            lhs = np.vdot(s, txrx.tod(y, lay))
            rhs = np.vdot(reference.tom_modulate(s, lay), y)
            assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(y) * np.linalg.norm(s), layout


class TestMlDetect:
    def test_noiseless_exact_recovery(self):
        points = txrx.ALPHABETS["qpsk"]
        rng = np.random.default_rng(5)
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        idx = rng.integers(0, 4, size=4)
        s = points[idx]
        detected, got_idx, degenerate = txrx.ml_detect(lam * s, lam, points)
        assert np.array_equal(got_idx, idx)
        assert not degenerate.any()

    def test_perturbation_inside_decision_radius(self):
        # unit-energy QPSK: minimum distance sqrt(2), radius |Lambda| sqrt(2)/2
        points = txrx.ALPHABETS["qpsk"]
        lam = np.array([0.5 * np.exp(1j * np.pi / 4)])
        s = np.array([(1 + 1j) / np.sqrt(2)])
        radius = abs(lam[0]) * np.sqrt(2) / 2
        for angle in np.linspace(0, 2 * np.pi, 9):
            bump = 0.95 * radius * np.exp(1j * angle)
            detected, idx, _ = txrx.ml_detect(lam * s + bump, lam, points)
            assert detected[0] == s[0]

    def test_zero_coefficient_flagged(self):
        points = txrx.ALPHABETS["qpsk"]
        detected, idx, degenerate = txrx.ml_detect(
            np.array([1.0 + 0j]), np.array([0.0 + 0j]), points)
        assert degenerate[0]
        assert idx[0] == 0  # tie-break: lowest constellation index

    def test_exact_tie_breaks_to_lowest_index(self):
        points = txrx.ALPHABETS["bpsk"]
        detected, idx, _ = txrx.ml_detect(np.array([0j]), np.array([1.0 + 0j]), points)
        assert idx[0] == 0

    def test_near_tie_resolves_to_lowest_index(self):
        # -1e-14 is nearer to -1 (index 1), but the two distances differ by
        # 2e-14 relative, inside TIE_RTOL; -1e-9 is outside it
        points = txrx.ALPHABETS["bpsk"]
        lam = np.array([1.0 + 0j])
        _, near, _ = txrx.ml_detect(np.array([-1e-14 + 0j]), lam, points)
        _, far, _ = txrx.ml_detect(np.array([-1e-9 + 0j]), lam, points)
        assert near[0] == 0
        assert far[0] == 1


def same_decisions(s_tilde, lam, amplitudes, points):
    """The engine's decisions on these inputs, after asserting that its
    values, indices and near-tie flags equal the alphabet search's."""
    got = txrx._nearest(s_tilde, txrx._detector(lam, amplitudes, points))
    want = reference.alphabet_search(s_tilde, lam, amplitudes, points)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return got


def neighbour_squares(points):
    """Every square of four neighbouring points of a grid alphabet as a
    2 x 2 index array, [[lower-left, lower-right], [upper-left,
    upper-right]] in (imaginary, real) level order."""
    _, _, grid = txrx._lattice(points)
    return [grid[i:i + 2, j:j + 2] for i in range(grid.shape[0] - 1)
            for j in range(grid.shape[1] - 1)]


class TestSlicer:
    """`_nearest` slices each axis of its grid alphabet; the alphabet search
    in tests/reference.py is its oracle on every decision."""

    @pytest.mark.parametrize("name", list(PINNED_ALPHABETS))
    def test_exact_midpoints_resolve_to_the_lowest_index(self, name):
        # the midpoint of every two points one level step apart, and the
        # centre of every square of four, ties them all
        points = txrx.ALPHABETS[name]
        _, _, grid = txrx._lattice(points)
        groups = [grid[i, j:j + 2] for i in range(grid.shape[0])
                  for j in range(grid.shape[1] - 1)]
        groups += [grid[i:i + 2, j] for i in range(grid.shape[0] - 1)
                   for j in range(grid.shape[1])]
        groups += [square.ravel() for square in neighbour_squares(points)]
        z = np.array([points[g].mean() for g in groups])
        rng = np.random.default_rng(17)
        lam = rng.normal(size=z.size) + 1j * rng.normal(size=z.size)
        amplitudes = rng.uniform(0.5, 2.0, size=z.size)
        _, indices, ties = same_decisions(lam * amplitudes * z, lam, amplitudes, points)
        assert indices.tolist() == [int(g.min()) for g in groups]
        assert ties.all()

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    @pytest.mark.parametrize("fractions, within", [
        ((0.3, 0.3), {(0, 0), (0, 1), (1, 0), (1, 1)}),
        ((0.7, 0.7), {(0, 0), (0, 1), (1, 0)}),
        ((0.7, 3.0), {(0, 0), (0, 1)}),
        ((3.0, 0.7), {(0, 0), (1, 0)}),
        ((3.0, 3.0), {(0, 0)})])
    def test_double_near_ties(self, name, fractions, within):
        # z sits off the centre of a square of four points, toward one
        # corner c*, by a fraction f of the offset at which a neighbour's
        # distance leaves TIE_RTOL on each axis: the neighbour across an axis
        # is within iff that axis's f <= 1, the diagonal one iff the two f
        # add up to at most 1; the lowest index within wins
        points = txrx.ALPHABETS[name]
        rng = np.random.default_rng(23)
        r = txrx.TIE_RTOL
        cases, expect = [], []
        for square in neighbour_squares(points):
            corners = points[square]
            step = corners[1, 1] - corners[0, 0]
            centre = corners.mean()
            for ci, cj in np.ndindex(2, 2):
                toward = (1 if cj else -1, 1 if ci else -1)
                offset = complex(toward[0] * fractions[0] * r * step.real / 2,
                                 toward[1] * fractions[1] * r * step.imag / 2)
                cases.append(centre + offset)
                # (across imaginary, across real) steps from c*
                expect.append(min(square[ci ^ di, cj ^ dj] for di, dj in within))
        z = np.array(cases)
        lam = rng.normal(size=z.size) + 1j * rng.normal(size=z.size)
        amplitudes = np.full(z.size, np.sqrt(0.5))
        _, indices, ties = same_decisions(lam * amplitudes * z, lam, amplitudes, points)
        assert indices.tolist() == expect
        assert np.all(ties == (len(within) > 1))

    @pytest.mark.parametrize("fraction, tie", [(0.7, True), (3.0, False)])
    def test_bpsk_near_tie_on_its_one_axis(self, fraction, tie):
        # BPSK's imaginary axis has one level, so only its real axis ties:
        # at z = x + 0.3j, with |x| << 1, the far point leaves TIE_RTOL at
        # |x| = TIE_RTOL |z - c*|^2 / 2, |z - c*|^2 = 1.09
        points = txrx.ALPHABETS["bpsk"]
        x = fraction * txrx.TIE_RTOL * 1.09 / 2
        z = np.array([x + 0.3j, -x + 0.3j])
        lam = np.array([0.8 - 0.6j, -2.0 + 1.0j])
        _, indices, ties = same_decisions(lam * z, lam, np.ones(2), points)
        assert indices.tolist() == ([0, 0] if tie else [0, 1])
        assert np.all(ties == tie)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(admissible_layouts(8, 16)), st.sampled_from(sorted(PINNED_ALPHABETS)),
           st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_slicer_equals_alphabet_search(self, layout, name, noisy, seed):
        # noiseless frames on rank-deficient branches put decisions on exact
        # ties; some modes get Lambda = 0 and some no power
        n, k, ratio = layout
        link = txrx.build_link(Scenario(n_cells=n, tx_elems=k, rx_elems=k, tx_ratio=ratio,
                                        rx_ratio=ratio, constellation=name))
        rng = np.random.default_rng(seed)
        lam = np.where(rng.random((n, k)) < 0.1, 0, link.lambda_coeffs)
        amplitudes = np.where(rng.random((n, k)) < 0.1, 0, link.amplitudes())
        symbols = amplitudes * link.points[rng.integers(0, link.points.size, size=(6, n, k))]
        s_tilde = (link.exact_matrices @ symbols[..., None])[..., 0]
        if noisy:
            noise = np.stack([txrx.element_noise(link.rx.n_physical, link.sigma2, seed, f)
                              for f in range(6)])
            s_tilde += txrx.tod(noise, link.rx)
        same_decisions(s_tilde, lam, amplitudes, link.points)

    def test_non_grid_alphabet_rejected(self):
        # the slicer is exact only on a full grid of per-axis levels
        psk8 = np.exp(2j * np.pi * np.arange(8) / 8)
        with pytest.raises(ValueError, match="full grid") as info:
            txrx.ml_detect(np.array([1 + 0j]), np.array([1 + 0j]), psk8)
        assert str(psk8) in str(info.value)
        qpsk = txrx.ALPHABETS["qpsk"]
        for points in (qpsk[:3], np.concatenate([qpsk, qpsk[:1]])):
            with pytest.raises(ValueError, match="full grid"):
                txrx.ml_detect(np.array([1 + 0j]), np.array([1 + 0j]), points)


class TestNoiseModel:
    """`element_noise` and the variance check that `check_loopback` makes
    before any draw."""

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            txrx.check_loopback(1, -1.0)

    @pytest.mark.parametrize("variance", [np.nan, np.inf, -np.inf])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="finite"):
            txrx.check_loopback(1, variance)

    def test_zero_variance_samples_zero(self):
        assert np.all(txrx.element_noise(4, 0.0, 5, 0) == 0)

    def test_variance_statistics(self):
        draws = np.concatenate([txrx.element_noise(1000, 2.0, 9, f) for f in range(20)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(2.0, rel=0.05)


class TestNoiseModeScale:
    def test_unshared_layout_unit_scale(self):
        lay = build_layout(4, 4, 0.5, 1.0)
        assert np.all(txrx.noise_mode_scale(lay) == 1.0)

    def test_against_operator_probe(self, qf9):
        # feed unit vectors through the actual receive chain and accumulate
        # the row powers; must match the closed-form scale exactly
        lay, _ = qf9
        rows = txrx.tod(np.eye(9), lay)
        expect = np.sum(np.abs(rows) ** 2, axis=0)
        scale = txrx.noise_mode_scale(lay)
        assert np.max(np.abs(scale - expect)) < 1e-12

    @needs_long_double
    @pytest.mark.parametrize("layout", admissible_layouts()
                             + [(8, 16, 1.0), (16, 32, 1.0), (6, 12, 0.5), (14, 7, 1.0)])
    def test_matches_extended_precision_oracle(self, layout):
        n, v, ratio = layout
        lay = build_layout(n, v, ratio, 1.0)
        error = np.abs(txrx.noise_mode_scale(lay) - noise_mode_scale_pair_sum(lay))
        assert np.max(error) <= 4.4e-16

    @pytest.mark.parametrize("n, k", [(4, 4), (8, 16), (16, 32)])
    def test_matches_loops_at_ratio_one(self, n, k):
        lay = build_layout(n, k, 1.0, 1.0)
        error = np.abs(txrx.noise_mode_scale(lay) - noise_mode_scale_loops(lay, n))
        assert np.max(error) <= ORACLE_ROUNDING

    @pytest.mark.parametrize("n_elements", [1, 9, 128])
    def test_matches_loops_on_single_rings(self, n_elements):
        ring = single_ring_layout(n_elements, 1.0)
        error = np.abs(txrx.noise_mode_scale(ring) - noise_mode_scale_loops(ring, 1))
        assert np.max(error) <= ORACLE_ROUNDING

    @pytest.mark.parametrize("layout", admissible_layouts() + [(8, 16, 1.0), (16, 32, 1.0)])
    def test_matches_dense_form(self, layout):
        n, v, ratio = layout
        lay = build_layout(n, v, ratio, 1.0)
        error = np.abs(txrx.noise_mode_scale(lay) - noise_mode_scale_dense(lay, n))
        assert np.max(error) <= ORACLE_ROUNDING

    def test_peak_memory_below_one_dense_tensor(self):
        # the working set stays below the one complex (N, V, n_physical)
        # tensor the dense form fills (3.15 MB at 16x32)
        lay = build_layout(16, 32, 1.0, 1.0)
        dense_bytes = 16 * 32 * lay.n_physical * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            txrx.noise_mode_scale(lay)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes

    def test_matches_loops_with_overlaps(self):
        lay = build_layout(6, 12, 0.5, 1.0)
        scale = txrx.noise_mode_scale(lay)
        assert np.max(np.abs(scale - noise_mode_scale_loops(lay, 6))) <= ORACLE_ROUNDING
        if HAS_LONG_DOUBLE:
            # the loops oracle is itself 1.2e-15 relative off here
            expect = noise_mode_scale_pair_sum(lay)
            assert np.max(np.abs(scale - expect) / expect) <= 1e-15

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_null_receive_modes_get_exactly_zero(self, n):
        # at ratio 1 with K = N/2 and N = 2 (mod 4), half the modes have a
        # receive row that is identically zero: the odd p, one l each
        lay = build_layout(n, n // 2, 1.0, 1.0)
        scale = txrx.noise_mode_scale(lay)
        p, _ = np.nonzero(scale == 0)
        assert np.array_equal(p, np.arange(1, n, 2))
        assert np.min(scale[scale != 0]) >= 1 / 3
        rows = txrx.tod(np.eye(lay.n_physical), lay)
        assert np.max(np.abs(rows[:, scale == 0])) < 1e-12

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_null_receive_modes_exactly_zero_without_long_double(self, monkeypatch, n):
        # where long double is plain double (Windows, Apple arm64) the null
        # modes must still read exactly 0, or a rounding-level Lambda would
        # count as a detectable mode
        monkeypatch.setattr(np, "longdouble", np.float64)
        self.test_null_receive_modes_get_exactly_zero(n)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.sampled_from(admissible_layouts(8, 32)),
                     st.tuples(st.integers(min_value=3, max_value=8),
                               st.integers(min_value=1, max_value=32),
                               st.floats(min_value=0.05, max_value=1.0))))
    def test_sharing_is_rotation_symmetric(self, layout):
        # the closed form counts cell 0's shared-slot pairs once for all N
        # cells: slots (m, v) and (m', w) share an element exactly when
        # (m + 1, v) and (m' + 1, w) do
        n, v, ratio = layout
        group = build_layout(n, v, ratio, 1.0).slot_group
        turned = np.roll(group, -1, axis=0)
        assert np.array_equal(group[:, :, None, None] == group[None, None],
                              turned[:, :, None, None] == turned[None, None])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=3, max_value=8),
           st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.05, max_value=1.0))
    def test_unit_scale_without_shared_elements(self, n, k, ratio):
        lay = build_layout(n, k, ratio, 1.0)
        assume(np.all(lay.sharing_freqs == 1))
        assert np.all(txrx.noise_mode_scale(lay) == 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=64))
    def test_unit_scale_on_single_rings(self, n_elements):
        ring = single_ring_layout(n_elements, 1.0)
        assert np.all(txrx.noise_mode_scale(ring) == 1.0)

    @pytest.mark.parametrize("n_elements", [1, 9, 385, 512])
    def test_ring_antenna_scale_is_exactly_one(self, n_elements):
        # one cell: no split, no compensation and a unitary inner DFT, so a
        # ring's efficiency takes sigma^2 itself as every mode's noise
        computed = txrx.noise_mode_scale(single_ring_layout(n_elements, 1.0))
        assert np.array_equal(computed, np.ones((1, n_elements)))


class TestBuildLink:
    def test_composition_of_antenna_and_link_at(self):
        # one antenna serves every distance and carrier
        base = Scenario(n_cells=6, tx_elems=12, rx_elems=12)
        antenna = txrx.build_antenna(base)
        for scen in (replace(base, distance_m=30.0), replace(base, freq_hz=28e9),
                     replace(base, snr_db=0.0)):
            link, fresh = txrx.link_at(antenna, scen), txrx.build_link(scen)
            assert np.array_equal(link.lambda_coeffs, fresh.lambda_coeffs)
            assert np.array_equal(link.noise_scale, fresh.noise_scale)
            assert link.sigma2 == fresh.sigma2
            assert link.params == fresh.params

    @pytest.mark.parametrize("lambda_path", ["exact", "bessel"])
    @pytest.mark.parametrize("n", [6, 10])
    def test_null_receive_modes_are_degenerate(self, n, lambda_path):
        # a mode whose receive row is identically zero observes nothing: its
        # Lambda is exactly 0, so detection, the error count, the ISR and
        # the efficiency all skip it
        link = txrx.build_link(Scenario(n_cells=n, tx_elems=n // 2, rx_elems=n // 2,
                                        lambda_path=lambda_path))
        null = link.noise_scale == 0
        assert np.count_nonzero(null) == n // 2
        assert np.all(link.lambda_coeffs[null] == 0)
        assert np.all(link.lambda_coeffs[~null] != 0)
        report = txrx.run_loopback(link, 4, noise_variance=link.sigma2)
        assert report.degenerate_modes == n // 2
        assert report.symbols_counted == 4 * (n * (n // 2) - n // 2)
        assert not np.any(report.per_mode_errors[null])
        signal = link.signal_power[~null]
        assert se_qf(link.lambda_coeffs, link.power_alloc, link.noise_power) \
            == pytest.approx(np.sum(np.log2(1 + signal / link.noise_power[~null])), rel=1e-14)
        assert np.isfinite(link.max_interference_to_signal)

    def test_exact_path_builds_one_block_channel_and_no_bessel_blocks(self, count_calls):
        diag_calls = count_calls(chan, "diag_approx_block")
        channel_calls = count_calls(chan, "build_block_channel")
        link = txrx.build_link(Scenario())
        assert len(diag_calls) == 0
        assert len(channel_calls) == 1
        diagonals = chan.bessel_diagonals(link.tx, link.rx, link.params)
        assert chan.superposition_gap(link.exact_matrices, diagonals).shape == (link.tx.n_cells,)
        assert diagonals.shape == (4, 4)
        assert len(diag_calls) == link.tx.n_cells
        assert sorted(args[3] for args in diag_calls) == list(range(link.tx.n_cells))


class TestEndToEnd:
    def test_sinr_diagnostics_consistent(self, link9):
        # |Lambda|^2 |s|^2 / sigma^2 recomputed independently
        expect = np.abs(link9.lambda_coeffs) ** 2 * link9.power_alloc \
            / (link9.sigma2 * link9.noise_scale)
        snr = link9.signal_power / link9.noise_power
        assert np.max(np.abs(snr - expect) / np.maximum(expect, 1e-30)) < 1e-9

    def test_zero_signal_gives_tiebreak_and_zero_sinr(self, link9):
        # with no power every candidate of every mode ties at distance 0;
        # each decision resolves to the lowest index, whose scaled point is
        # the zero symbol sent, so no mode errs
        silent = replace(link9, power_alloc=np.zeros((4, 4)))
        report = txrx.run_loopback(silent, 3)
        assert report.near_ties == report.symbols_counted
        assert report.symbol_errors == 0
        assert np.all(silent.signal_power / silent.noise_power == 0)

    def test_loopback_deterministic(self, link9):
        a = txrx.run_loopback(link9, 3)
        b = txrx.run_loopback(link9, 3)
        assert a.per_frame_errors == b.per_frame_errors
        assert a.symbol_errors == b.symbol_errors

    def test_loopback_per_mode_errors_add_up(self, link9):
        report = txrx.run_loopback(link9, 5, noise_variance=link9.sigma2)
        assert report.per_mode_errors.shape == (4, 4)
        assert report.symbol_errors > 0
        assert report.per_mode_errors.sum() == report.symbol_errors \
            == sum(report.per_frame_errors)

    def test_interference_power_peaks_below_a_quarter_of_the_transforms(self, link_32x64):
        # one (K, K) branch at a time, not three (N, K, K) temporaries, which
        # peaked at 1.03 times the transforms' bytes
        link = link_32x64
        tracemalloc.start()
        try:
            link.interference_power
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < link.exact_matrices.nbytes / 4, peak

    def test_interference_threshold_frozen(self, link9):
        # frozen by the pre-build pipeline probe: max ratio 3.0 at the
        # 9-element scenario (the rank-deficient mode rows)
        assert link9.max_interference_to_signal <= 3.02

    def test_single_ring_noiseless_loopback_is_error_free(self):
        # the single-cell channel is exactly circulant, so mode-wise
        # detection is interference-free
        ring = single_ring_layout(9, 1.0)
        params = chan.PropagationParams.from_frequency(100.0, FREQ, 1.0)
        bc = chan.build_block_channel(ring, ring, params)
        exact = chan.detection_coeffs(bc)
        link = txrx.Link(tx=ring, rx=ring, params=params, subchannels=bc,
                         exact_matrices=exact, lambda_coeffs=np.einsum("pll->pl", exact),
                         points=txrx.ALPHABETS["qpsk"],
                         power_alloc=np.full((1, 9), 1 / 9), sigma2=1e-12,
                         noise_scale=txrx.noise_mode_scale(ring), seed=3)
        report = txrx.run_loopback(link, 20)
        assert report.symbol_errors == 0
        assert link.max_interference_to_signal < 1e-20

    @pytest.mark.parametrize("snr_db", [0.0, 4.0, 8.0])
    def test_noisy_ring_ser_matches_qpsk_theory(self, snr_db):
        # a 16-element ring at R = 1 m and 20 m: the transform is diagonal to
        # rounding and every mode sees its own element noise, so the QPSK
        # errors of F frames, pooled over the modes, are a sum of binomials
        # with p_l = 2 Q(sqrt(gamma_l)) - Q(sqrt(gamma_l))^2; this holds the
        # noise draw, the noise scale, the SNR convention and the detector
        # together.  z read -0.52, -0.55 and 0.06 at 0, 4 and 8 dB.
        ring = single_ring_layout(16, 1.0)
        antenna = txrx.Antenna(ring, ring, txrx.noise_mode_scale(ring))
        link = txrx.link_at(antenna, Scenario(distance_m=20.0))
        t = link.exact_matrices[0]
        assert np.max(np.abs(t - np.diag(np.diag(t)))) < 1e-14 * np.max(np.abs(t))
        signal = link.signal_power.ravel()
        assert signal.max() < 10 ** 1.2 * signal.min()
        variance = float(np.mean(signal)) * 10 ** (-snr_db / 10)
        frames = 4000
        report = txrx.run_loopback(link, frames, noise_variance=variance)
        q = [0.5 * math.erfc(math.sqrt(g / 2))
             for g in signal / (variance * link.noise_scale.ravel())]
        p = np.array([2 * x - x * x for x in q])
        mean, sd = frames * p.sum(), math.sqrt(frames * np.sum(p * (1 - p)))
        assert abs(report.symbol_errors - mean) < 3 * sd


class TestBatchedEngine:
    @pytest.mark.parametrize("seed", [1, 11])
    def test_noiseless_4x4_matches_per_frame_reference(self, seed):
        link = txrx.build_link(Scenario(seed=seed))
        report = txrx.run_loopback(link, 100)
        per_frame, per_mode, max_isr = run_loopback_per_frame(link, 100)
        assert report.per_frame_errors == per_frame
        assert np.array_equal(report.per_mode_errors, per_mode)
        assert link.max_interference_to_signal == pytest.approx(max_isr, rel=1e-12)

    def test_noisy_8x16_matches_per_frame_reference(self):
        link = txrx.build_link(Scenario(n_cells=8, tx_elems=16, rx_elems=16, seed=7))
        report = txrx.run_loopback(link, 40, noise_variance=link.sigma2)
        per_frame, per_mode, max_isr = run_loopback_per_frame(link, 40, link.sigma2)
        assert report.per_frame_errors == per_frame
        assert np.array_equal(report.per_mode_errors, per_mode)
        assert link.max_interference_to_signal == pytest.approx(max_isr, rel=1e-12)
        assert report.near_ties == 0

    def test_unequal_ratios_match_per_frame_reference(self):
        # with one layout at both ends every exact transform is symmetric,
        # so only unequal antennas tell T_p from its transpose
        link = txrx.build_link(Scenario(n_cells=8, tx_elems=16, rx_elems=16,
                                        rx_ratio=0.5, seed=3))
        assert not np.allclose(link.exact_matrices, link.exact_matrices.swapaxes(-1, -2))
        report = txrx.run_loopback(link, 40, noise_variance=link.sigma2)
        per_frame, per_mode, _ = run_loopback_per_frame(link, 40, link.sigma2)
        assert report.per_frame_errors == per_frame
        assert np.array_equal(report.per_mode_errors, per_mode)

    def test_block_boundaries_keep_frame_prefixes(self, link9):
        block = link9.block_frames
        sizes = (0, 1, block - 1, block, block + 1, 2 * block + 1)
        reports = {f: txrx.run_loopback(link9, f, noise_variance=link9.sigma2)
                   for f in sizes}
        longest = reports[sizes[-1]].per_frame_errors
        assert longest == run_loopback_per_frame(link9, sizes[-1], link9.sigma2)[0]
        for f, report in reports.items():
            assert report.per_frame_errors == longest[:f]
            assert report.symbol_errors == sum(longest[:f])
            assert report.symbols_counted == 16 * f

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(BLOCK_SCENARIOS)), st.sampled_from(sorted(PINNED_ALPHABETS)),
           st.booleans(), st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_outputs_do_not_depend_on_the_block_size(self, name, alphabet, noisy, frames,
                                                     seed):
        # each frame draws its own symbols and noise and every decision is
        # made on its own, so one frame a block, a few, and the whole run in
        # one block all count the same errors and near-ties
        link = replace(block_link(name, alphabet), seed=seed)
        variance = link.sigma2 if noisy else 0.0
        reports = []
        for budget in (16, 48, 2048, 10**6):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(txrx, "BLOCK_DECISIONS", budget)
                reports.append(txrx.run_loopback(link, frames, noise_variance=variance))
        first = reports[0]
        for report in reports[1:]:
            assert report.per_frame_errors == first.per_frame_errors
            assert np.array_equal(report.per_mode_errors, first.per_mode_errors)
            assert report.near_ties == first.near_ties

    def test_degenerate_modes_are_flagged_and_not_counted(self, link9):
        lam = link9.lambda_coeffs.copy()
        lam[1, 2] = lam[3, 0] = 0
        link = replace(link9, lambda_coeffs=lam)
        report = txrx.run_loopback(link, 40, noise_variance=link.sigma2)
        with np.errstate(divide="ignore"):
            per_frame, per_mode, _ = run_loopback_per_frame(link, 40, link.sigma2)
        assert report.degenerate_modes == 2
        assert report.symbols_counted == 14 * 40
        assert report.per_frame_errors == per_frame
        assert np.array_equal(report.per_mode_errors, per_mode)
        assert report.per_mode_errors[1, 2] == report.per_mode_errors[3, 0] == 0

    def test_run_evaluates_no_element_gain(self, link9, count_calls):
        # the frames go through the link's transforms, so a run builds no
        # channel and evaluates no element-to-element gain
        gains = count_calls(chan, "free_space_gain")
        blocks = count_calls(chan, "build_block_channel")
        txrx.run_loopback(link9, 2 * link9.block_frames + 1, noise_variance=link9.sigma2)
        assert len(gains) == len(blocks) == 0

    def test_peak_memory_below_half_a_dense_gain_matrix(self):
        # the working set of a noisy 100-frame run at 32x64 stays below half
        # of one complex n_physical x n_physical matrix (18.9 MB), the gain
        # matrix that the physical path multiplies every frame by
        link = txrx.build_link(Scenario(n_cells=32, tx_elems=64, rx_elems=64, seed=7))
        dense_bytes = link.rx.n_physical * link.tx.n_physical * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            txrx.run_loopback(link, 100, noise_variance=link.sigma2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2

    def test_32x64_run_peaks_below_one_mib(self, link_32x64):
        # a block holds BLOCK_DECISIONS decisions, one 32x64 frame, and the
        # detector's tables are built once per run, so the working set of a
        # noisy 100-frame run stays below 1 MiB (10.0 MiB with 32-frame
        # blocks)
        link = link_32x64
        assert link.block_frames == 1
        # a first run imports what numpy loads lazily (numpy.random)
        txrx.run_loopback(link, 1, noise_variance=link.sigma2)
        tracemalloc.start()
        try:
            txrx.run_loopback(link, 100, noise_variance=link.sigma2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_16qam_peak_memory_within_64_kib_of_qpsk(self):
        # the detector slices each axis, so its temporaries are (frames, N,
        # K) arrays whatever the alphabet; a (frames, N, K, alphabet)
        # distance tensor and its magnitude would add about 1.2 MB per
        # block for 16-QAM's 16 points over QPSK's 4
        peaks = {}
        for name in ("qpsk", "16qam"):
            link = txrx.build_link(Scenario(n_cells=8, tx_elems=16, rx_elems=16,
                                            constellation=name, seed=7))
            # a first run imports what numpy loads lazily (numpy.random)
            txrx.run_loopback(link, 1, noise_variance=link.sigma2)
            tracemalloc.start()
            try:
                txrx.run_loopback(link, 64, noise_variance=link.sigma2)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["16qam"] <= peaks["qpsk"] + 64 * 1024, peaks

    def test_noiseless_run_draws_no_noise(self, link9, count_calls):
        # a noiseless run sends its frames through the transforms alone
        draws = count_calls(txrx, "element_noise")
        demodulations = count_calls(txrx, "tod")
        txrx.run_loopback(link9, 2 * link9.block_frames + 1)
        assert len(draws) == len(demodulations) == 0

    def test_noiseless_ties_are_counted(self, link9):
        # the default link's rank-deficient branches put noiseless ML
        # decisions on exact ties; noise moves them off
        assert txrx.run_loopback(link9, 20).near_ties > 0
        assert txrx.run_loopback(link9, 20, noise_variance=link9.sigma2).near_ties == 0

    @pytest.mark.parametrize("n, k", [(4, 4), (8, 16)])
    def test_stages_on_a_frame_stack_equal_frame_by_frame(self, n, k):
        lay = build_layout(n, k, 1.0, 1.0)
        rng = np.random.default_rng(8)
        frames = [random_grid(rng, n, k) for _ in range(5)]
        feed = reference.tom_modulate(np.stack(frames), lay)
        assert feed.shape == (5, lay.n_physical)
        assert np.array_equal(feed, np.stack([reference.tom_modulate(s, lay) for s in frames]))
        y = rng.normal(size=(5, lay.n_physical)) + 1j * rng.normal(size=(5, lay.n_physical))
        s_tilde = txrx.tod(y, lay)
        assert s_tilde.shape == (5, n, k)
        assert np.array_equal(s_tilde, np.stack([txrx.tod(frame, lay) for frame in y]))
