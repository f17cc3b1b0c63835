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
from qfuca.linalg import dft_matrix, idft_matrix

import reference
from layouts import admissible_layouts

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
        out[p] = np.sum(np.abs(dft_matrix(v) @ a) ** 2, axis=1)
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
    return np.sum(np.abs(dft_matrix(v) @ a) ** 2, axis=2)


def run_loopback_per_frame(link, n_frames, noise_variance=0.0):
    """In-test reference for the batched engine: the loopback one frame at a
    time through the stage functions, detected branch by branch with
    ml_detect, with the interference table recomputed from the exact
    transforms.  Returns (per-frame errors, per-mode errors, max ISR)."""
    n, k = link.n_inter, link.n_inner
    noise = txrx.NoiseModel(noise_variance, seed=link.seed)
    sym_rng = np.random.default_rng(np.random.SeedSequence((link.seed, 0xA11CE)))
    amp = link.amplitudes()
    points = link.constellation.points
    gain = chan.physical_gain_matrix(link.tx, link.rx, link.params)
    per_frame, per_mode = [], np.zeros((n, k), dtype=int)
    for frame in range(n_frames):
        symbols = amp * points[sym_rng.integers(0, points.size, size=(n, k))]
        received = gain @ txrx.tom_modulate(symbols, link.tx) \
            + noise.sample(link.rx.n_physical, frame)
        x_tilde = txrx.tod_split_compensate(received, link.rx)
        errors = np.zeros((n, k), dtype=bool)
        for p in range(n):
            s_tilde = txrx.tod_inner_demodulate(x_tilde[p], link.rx)
            detected, _, degenerate = txrx.ml_detect(
                s_tilde, link.lambda_coeffs[p], link.constellation, amp[p])
            errors[p] = (detected != symbols[p]) & ~degenerate
        per_frame.append(int(errors.sum()))
        per_mode += errors
    signal = np.abs(link.lambda_coeffs) ** 2 * link.power_alloc
    interference = np.stack([np.abs(g) ** 2 @ pa - np.abs(np.diag(g)) ** 2 * pa
                             for g, pa in zip(link.mode.exact_matrices, link.power_alloc)])
    return per_frame, per_mode, float(np.max(interference / signal))


def random_grid(rng, n, k):
    return rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))


class TestConstellation:
    @pytest.mark.parametrize("name", ["qpsk", "bpsk", "16qam"])
    def test_unit_energy(self, name):
        c = txrx.Constellation.from_name(name)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    def test_unknown(self):
        with pytest.raises(ValueError):
            txrx.Constellation.from_name("256apsk")

    def test_non_unit_energy_rejected(self):
        with pytest.raises(ValueError):
            txrx.Constellation(name="bad", points=np.array([2.0 + 0j]))


class TestSymbolGrid:
    def test_power_sums_to_total(self):
        # the link allocates its total power equally over the N x K modes
        link = txrx.build_link(Scenario(total_power=2.5))
        assert abs(link.power_alloc.sum() - 2.5) < 1e-12

    def test_shape_mismatch(self, qf9):
        lay, _ = qf9
        with pytest.raises(DimensionError):
            txrx.tom_modulate(np.zeros((2, 3)), lay)


class TestModulation:
    def test_zero_grid(self, qf9):
        lay, _ = qf9
        assert np.all(txrx.tom_modulate(np.zeros((4, 4)), lay) == 0)

    def test_dc_symbol_without_sharing(self):
        # s_{0,0} = sqrt(NK): every logical slot carries 1
        lay = build_layout(4, 4, 0.5, 1.0)
        sym = np.zeros((4, 4), dtype=complex)
        sym[0, 0] = 4.0
        feed = txrx.tom_modulate(sym, lay)
        assert np.max(np.abs(feed - 1.0)) < 1e-12

    def test_dc_symbol_shared_element_superposes(self, qf9):
        lay, _ = qf9
        sym = np.zeros((4, 4), dtype=complex)
        sym[0, 0] = 4.0
        feed = txrx.tom_modulate(sym, lay)
        counts = np.bincount(lay.slot_group.ravel())
        assert np.max(np.abs(feed - counts)) < 1e-12

    def test_matrix_and_loop_paths_agree(self, qf9):
        lay, _ = qf9
        rng = np.random.default_rng(1)
        g = random_grid(rng, 4, 4)
        a = txrx.tom_modulate(g, lay)
        b = reference.tom_modulate_loops(g, lay)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_energy_preservation_before_superposition(self):
        # without sharing each slot is its own element: the feed is the
        # pre-superposition signal
        lay = build_layout(4, 4, 0.5, 1.0)
        rng = np.random.default_rng(2)
        g = random_grid(rng, 4, 4)
        logical = txrx.tom_modulate(g, lay)
        assert abs(np.sum(np.abs(logical) ** 2)
                   - np.sum(np.abs(g) ** 2)) < 1e-12 * np.sum(np.abs(g) ** 2)

    def test_layout_mismatch(self, qf9):
        lay, _ = qf9
        with pytest.raises(ValueError):
            txrx.tom_modulate(np.zeros((4, 8)), lay)


class TestPropagation:
    def test_zero_in_zero_noise(self, qf9, params100):
        lay, _ = qf9
        noise = txrx.NoiseModel(0.0, 0)
        y = chan.physical_gain_matrix(lay, lay, params100) @ np.zeros(9, dtype=complex) \
            + noise.sample(9)
        assert np.all(y == 0)

    def test_seed_reproducibility(self):
        noise = txrx.NoiseModel(1e-10, seed=42)
        y1 = noise.sample(9, frame=3)
        y2 = noise.sample(9, frame=3)
        assert np.array_equal(y1, y2)
        y3 = noise.sample(9, frame=4)
        assert not np.array_equal(y1, y3)

    def test_physical_path_equals_logical_path(self, qf9, params100):
        lay, _ = qf9
        rng = np.random.default_rng(3)
        g = random_grid(rng, 4, 4)
        y = chan.physical_gain_matrix(lay, lay, params100) @ txrx.tom_modulate(g, lay)
        r_phys = txrx.split_received(y, lay)
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
        # carries them as separate slots with the 1/L_v split factor.  Both
        # see the same element distances: a 1-ulp change of one distance
        # would move its phase by 2 pi D eps / lambda, about 3e-12 here
        lay = build_layout(*layout, 1.0)
        g = random_grid(np.random.default_rng(seed), lay.n_cells, lay.elems_per_cell)
        feed = txrx.tom_modulate(g, lay)
        y = chan.physical_gain_matrix(lay, lay, params100) @ feed
        r_phys = txrx.split_received(y, lay)
        r_log = reference.propagate_logical(g, chan.build_block_channel(lay, lay, params100))
        assert np.max(np.abs(r_phys - r_log)) <= 1e-12 * np.max(np.abs(r_log))

class TestDemodulation:
    def test_single_cell_compensation_is_identity(self):
        ring = single_ring_layout(5, 1.0)
        y = np.arange(5) + 1j
        xt = txrx.tod_split_compensate(y, ring)
        assert xt.shape == (1, 5)
        assert np.max(np.abs(xt[0] - y)) < 1e-12

    def test_zero_in_zero_out(self, qf9):
        lay, _ = qf9
        xt = txrx.tod_split_compensate(np.zeros(9, dtype=complex), lay)
        assert np.all(xt == 0)

    def test_matrix_and_loop_paths_agree(self, qf9):
        lay, _ = qf9
        rng = np.random.default_rng(4)
        y = rng.normal(size=9) + 1j * rng.normal(size=9)
        a = txrx.tod_split_compensate(y, lay)
        b = reference.tod_split_compensate_loops(y, lay)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_inner_demodulation_recovers_idft_column(self):
        # a ring shares no element: L = I
        ring = single_ring_layout(6, 1.0)
        w = idft_matrix(6)
        for l in (0, 2, 5):
            s = txrx.tod_inner_demodulate(3.5 * w[:, l], ring)
            expect = np.zeros(6, dtype=complex)
            expect[l] = 3.5
            assert np.max(np.abs(s - expect)) < 1e-12

    def test_inner_demodulation_zero(self, qf9):
        lay, _ = qf9
        assert np.all(txrx.tod_inner_demodulate(np.zeros(4), lay) == 0)

    def test_inner_demodulation_length_mismatch(self, qf9):
        lay, _ = qf9
        with pytest.raises(DimensionError):
            txrx.tod_inner_demodulate(np.zeros(5), lay)


class TestMlDetect:
    def test_noiseless_exact_recovery(self):
        c = txrx.Constellation.from_name("qpsk")
        rng = np.random.default_rng(5)
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        idx = rng.integers(0, 4, size=4)
        s = c.points[idx]
        detected, got_idx, degenerate = txrx.ml_detect(lam * s, lam, c)
        assert np.array_equal(got_idx, idx)
        assert not degenerate.any()

    def test_perturbation_inside_decision_radius(self):
        # unit-energy QPSK: minimum distance sqrt(2), radius |Lambda| sqrt(2)/2
        c = txrx.Constellation.from_name("qpsk")
        lam = np.array([0.5 * np.exp(1j * np.pi / 4)])
        s = np.array([(1 + 1j) / np.sqrt(2)])
        radius = abs(lam[0]) * np.sqrt(2) / 2
        for angle in np.linspace(0, 2 * np.pi, 9):
            bump = 0.95 * radius * np.exp(1j * angle)
            detected, idx, _ = txrx.ml_detect(lam * s + bump, lam, c)
            assert detected[0] == s[0]

    def test_zero_coefficient_flagged(self):
        c = txrx.Constellation.from_name("qpsk")
        detected, idx, degenerate = txrx.ml_detect(
            np.array([1.0 + 0j]), np.array([0.0 + 0j]), c)
        assert degenerate[0]
        assert idx[0] == 0  # tie-break: lowest constellation index

    def test_exact_tie_breaks_to_lowest_index(self):
        c = txrx.Constellation.from_name("bpsk")
        detected, idx, _ = txrx.ml_detect(np.array([0j]), np.array([1.0 + 0j]), c)
        assert idx[0] == 0

    def test_near_tie_resolves_to_lowest_index(self):
        # -1e-14 is nearer to -1 (index 1), but the two distances differ by
        # 2e-14 relative, inside TIE_RTOL; -1e-9 is outside it
        c = txrx.Constellation.from_name("bpsk")
        lam = np.array([1.0 + 0j])
        _, near, _ = txrx.ml_detect(np.array([-1e-14 + 0j]), lam, c)
        _, far, _ = txrx.ml_detect(np.array([-1e-9 + 0j]), lam, c)
        assert near[0] == 0
        assert far[0] == 1


class TestNoiseModel:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            txrx.NoiseModel(element_variance=-1.0)

    @pytest.mark.parametrize("variance", [np.nan, np.inf, -np.inf])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="finite"):
            txrx.NoiseModel(element_variance=variance)

    def test_zero_variance_samples_zero(self):
        assert np.all(txrx.NoiseModel(0.0, 5).sample(4) == 0)

    def test_variance_statistics(self):
        noise = txrx.NoiseModel(element_variance=2.0, seed=9)
        draws = np.concatenate([noise.sample(1000, frame=f) for f in range(20)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(2.0, rel=0.05)


class TestNoiseModeScale:
    def test_unshared_layout_unit_scale(self):
        lay = build_layout(4, 4, 0.5, 1.0)
        scale = txrx.noise_mode_scale(lay)
        assert np.max(np.abs(scale - 1.0)) < 1e-12

    def test_against_operator_probe(self, qf9):
        # feed unit vectors through the actual receive chain and accumulate
        # the row powers; must match the closed-form scale exactly
        lay, _ = qf9
        probe = np.zeros((4, 4, 9))
        for j in range(9):
            e = np.zeros(9, dtype=complex)
            e[j] = 1.0
            xt = txrx.tod_split_compensate(e, lay)
            for p in range(4):
                s = txrx.tod_inner_demodulate(xt[p], lay)
                probe[p, :, j] = np.abs(s) ** 2
        expect = probe.sum(axis=2)
        scale = txrx.noise_mode_scale(lay)
        assert np.max(np.abs(scale - expect)) < 1e-12

    @pytest.mark.parametrize("n, k", [(4, 4), (8, 16), (16, 32)])
    def test_bit_identical_to_loops_at_ratio_one(self, n, k):
        lay = build_layout(n, k, 1.0, 1.0)
        assert np.array_equal(txrx.noise_mode_scale(lay),
                              noise_mode_scale_loops(lay, n))

    @pytest.mark.parametrize("n_elements", [1, 9, 128])
    def test_bit_identical_to_loops_on_single_rings(self, n_elements):
        ring = single_ring_layout(n_elements, 1.0)
        assert np.array_equal(txrx.noise_mode_scale(ring),
                              noise_mode_scale_loops(ring, 1))

    @pytest.mark.parametrize("layout", admissible_layouts() + [(8, 16, 1.0), (16, 32, 1.0)])
    def test_bit_identical_to_dense_form(self, layout):
        n, v, ratio = layout
        lay = build_layout(n, v, ratio, 1.0)
        assert np.array_equal(txrx.noise_mode_scale(lay), noise_mode_scale_dense(lay, n))

    def test_peak_memory_below_one_dense_tensor(self):
        # branch by branch, the working set stays below the one complex
        # (N, V, n_physical) tensor the dense form fills (3.15 MB at 16x32)
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
        expect = noise_mode_scale_loops(lay, 6)
        assert np.max(np.abs(txrx.noise_mode_scale(lay) - expect) / expect) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=3, max_value=8),
           st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.05, max_value=1.0))
    def test_unit_scale_without_shared_elements(self, n, k, ratio):
        lay = build_layout(n, k, ratio, 1.0)
        assume(np.all(lay.sharing_freqs == 1))
        assert np.max(np.abs(txrx.noise_mode_scale(lay) - 1.0)) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=64))
    def test_unit_scale_on_single_rings(self, n_elements):
        ring = single_ring_layout(n_elements, 1.0)
        assert np.max(np.abs(txrx.noise_mode_scale(ring) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n_elements", [1, 9, 385, 512])
    def test_ring_antenna_scale_is_exactly_one(self, n_elements):
        # one cell: no split, no compensation and a unitary inner DFT
        ring = txrx.ring_antenna(n_elements, 1.0)
        assert np.array_equal(ring.noise_scale, np.ones((1, n_elements)))
        computed = txrx.noise_mode_scale(ring.rx)
        assert np.max(np.abs(computed - ring.noise_scale)) <= 4 * np.finfo(float).eps


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

    def test_exact_path_builds_one_block_channel_and_no_bessel_blocks(self, count_calls):
        diag_calls = count_calls(chan, "diag_approx_block")
        channel_calls = count_calls(chan, "build_block_channel")
        link = txrx.build_link(Scenario())
        assert len(diag_calls) == 0
        assert len(channel_calls) == 1
        assert link.mode.gap.shape == (link.n_inter,)
        assert link.mode.approx_blocks.shape == (4, 4, 4, 4)
        assert len(diag_calls) == link.n_inter
        assert all(args[3] == 0 for args in diag_calls)


class TestEndToEnd:
    def test_sinr_diagnostics_consistent(self, link9):
        # |Lambda|^2 |s|^2 / sigma^2 recomputed independently
        expect = np.abs(link9.lambda_coeffs) ** 2 * link9.power_alloc \
            / (link9.sigma2 * link9.noise_scale)
        assert np.max(np.abs(txrx.mode_diagnostics(link9).snr - expect)
                      / np.maximum(expect, 1e-30)) < 1e-9

    def test_zero_signal_gives_tiebreak_and_zero_sinr(self, link9):
        # with no power every candidate of every mode ties at distance 0;
        # each decision resolves to the lowest index, whose scaled point is
        # the zero symbol sent, so no mode errs
        silent = replace(link9, power_alloc=np.zeros((4, 4)))
        report = txrx.run_loopback(silent, 3)
        assert report.near_ties == report.symbols_counted
        assert report.symbol_errors == 0
        assert np.all(txrx.mode_diagnostics(silent).snr == 0)

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

    def test_interference_threshold_frozen(self, link9):
        # frozen by the pre-build pipeline probe: max ratio 3.0 at the
        # 9-element scenario (the rank-deficient mode rows)
        report = txrx.run_loopback(link9, 2)
        assert report.max_interference_to_signal <= 3.02

    def test_single_ring_noiseless_loopback_is_error_free(self):
        # the single-cell channel is exactly circulant, so mode-wise
        # detection is interference-free
        ring = single_ring_layout(9, 1.0)
        params = chan.PropagationParams.from_frequency(100.0, FREQ, 1.0)
        mode = chan.detection_coeffs(ring, ring, params)
        link = txrx.Link(tx=ring, rx=ring, params=params, mode=mode,
                         block_channel=chan.build_block_channel(ring, ring, params),
                         lambda_coeffs=mode.lambda_coeffs,
                         constellation=txrx.Constellation.from_name("qpsk"),
                         power_alloc=np.full((1, 9), 1 / 9), sigma2=1e-12,
                         noise_scale=txrx.noise_mode_scale(ring), seed=3)
        report = txrx.run_loopback(link, 20)
        assert report.symbol_errors == 0
        assert report.max_interference_to_signal < 1e-20


class TestBatchedEngine:
    @pytest.mark.parametrize("seed", [1, 11])
    def test_noiseless_4x4_matches_per_frame_reference(self, seed):
        link = txrx.build_link(Scenario(seed=seed))
        report = txrx.run_loopback(link, 100)
        per_frame, per_mode, max_isr = run_loopback_per_frame(link, 100)
        assert report.per_frame_errors == per_frame
        assert np.array_equal(report.per_mode_errors, per_mode)
        assert report.max_interference_to_signal == pytest.approx(max_isr, rel=1e-12)

    def test_noisy_8x16_matches_per_frame_reference(self):
        link = txrx.build_link(Scenario(n_cells=8, tx_elems=16, rx_elems=16, seed=7))
        report = txrx.run_loopback(link, 40, noise_variance=link.sigma2)
        per_frame, per_mode, max_isr = run_loopback_per_frame(link, 40, link.sigma2)
        assert report.per_frame_errors == per_frame
        assert np.array_equal(report.per_mode_errors, per_mode)
        assert report.max_interference_to_signal == pytest.approx(max_isr, rel=1e-12)
        assert report.near_ties == 0

    def test_block_boundaries_keep_frame_prefixes(self, link9):
        sizes = (0, 1, txrx.FRAME_BLOCK - 1, txrx.FRAME_BLOCK, txrx.FRAME_BLOCK + 1,
                 2 * txrx.FRAME_BLOCK + 1)
        reports = {f: txrx.run_loopback(link9, f, noise_variance=link9.sigma2)
                   for f in sizes}
        longest = reports[sizes[-1]].per_frame_errors
        assert longest == run_loopback_per_frame(link9, sizes[-1], link9.sigma2)[0]
        for f, report in reports.items():
            assert report.per_frame_errors == longest[:f]
            assert report.symbol_errors == sum(longest[:f])
            assert report.symbols_counted == 16 * f
            assert report.max_interference_to_signal \
                == reports[sizes[-1]].max_interference_to_signal

    def test_gain_matrix_built_once_per_run(self, link9, count_calls):
        calls = count_calls(chan, "physical_gain_matrix")
        txrx.run_loopback(link9, 2 * txrx.FRAME_BLOCK + 1, noise_variance=link9.sigma2)
        assert len(calls) == 1

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
        feed = txrx.tom_modulate(np.stack(frames), lay)
        assert feed.shape == (5, lay.n_physical)
        assert np.array_equal(feed, np.stack([txrx.tom_modulate(s, lay) for s in frames]))
        x_tilde = np.stack([random_grid(rng, n, k) for _ in range(5)])
        s_tilde = txrx.tod_inner_demodulate(x_tilde, lay)
        assert s_tilde.shape == (5, n, k)
        assert np.array_equal(s_tilde,
                              np.stack([txrx.tod_inner_demodulate(x, lay) for x in x_tilde]))
