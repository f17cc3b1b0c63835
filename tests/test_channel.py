import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfuca import channel as chan
from qfuca import cli, txrx
from qfuca.config import Scenario
from qfuca.errors import DegenerateChannelError, DimensionError
from qfuca.geometry import build_layout, single_ring_layout

import reference
from layouts import NAMED_LAYOUTS, admissible_layouts, power_of_two_sharing

FREQ = 5.8e9
LAM = 299792458.0 / FREQ


# (N, K) -> the ratio of each geometric case at which K is admissible
GRID_RATIOS = {}
for _n, _k, _ratio in admissible_layouts(8, 16):
    GRID_RATIOS.setdefault((_n, _k), []).append(_ratio)


@pytest.fixture(scope="module")
def qf9():
    lay = build_layout(4, 4, 1.0, 1.0)
    return lay, lay.sharing_freqs


@pytest.fixture(scope="module")
def params100():
    return chan.PropagationParams.from_frequency(100.0, FREQ, 1.0)


def trig_expansion_distance(tx, rx, d, q, v, k):
    """In-test oracle: the fully expanded exact distance in trigonometric
    form, with azimuths measured from the tangential axis."""
    rq, rt, rr = tx.qf_radius, tx.cell_radius, rx.cell_radius
    phi_q = 2 * np.pi * q / tx.n_cells
    phi_v = reference.elem_azimuths(rx)[v] + np.pi / 2
    psi_k = reference.elem_azimuths(tx)[k] + np.pi / 2
    s = np.sin(phi_q / 2)
    return np.sqrt(d * d + 2 * rq**2 + rr**2 + rt**2
                   + 4 * rq * rr * s * np.cos(phi_v - phi_q / 2)
                   - 4 * rq * rt * s * np.cos(psi_k + phi_q / 2)
                   - 2 * rr * rt * np.cos(psi_k + phi_q - phi_v)
                   - 2 * rq**2 * np.cos(phi_q))


class TestPropagationParams:
    def test_from_frequency(self):
        p = chan.PropagationParams.from_frequency(100.0, FREQ)
        assert p.wavelength_m == pytest.approx(LAM)

    def test_positivity(self):
        with pytest.raises(ValueError):
            chan.PropagationParams.from_frequency(-1.0, FREQ)

    def test_zero_frequency_rejected(self):
        # the wavelength divides by the frequency; Scenario rejects 0 Hz
        # first on every CLI path, so only a library call reaches this check
        with pytest.raises(ValueError, match="carrier frequency must be positive, got 0.0"):
            chan.PropagationParams.from_frequency(100.0, 0.0)

    @pytest.mark.parametrize("field", ["distance_m", "wavelength_m", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        # nan passes a positivity check
        kwargs = dict(distance_m=100.0, wavelength_m=LAM, beta=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="must be finite"):
            chan.PropagationParams(**kwargs)


class TestDistances:
    def test_aligned_same_azimuth_is_boresight(self, qf9, params100):
        lay, _ = qf9
        for v in range(4):
            assert reference.exact_distance(lay, lay, params100, 0, v, v) \
                == pytest.approx(100.0, abs=1e-12)

    def test_aligned_opposite_azimuth(self, qf9, params100):
        lay, _ = qf9
        r = lay.cell_radius
        expect = np.hypot(100.0, 2 * r)
        for v in range(4):
            k = (v + 2) % 4
            assert reference.exact_distance(lay, lay, params100, 0, v, k) \
                == pytest.approx(expect, rel=1e-14)

    def test_matches_trig_expansion(self, params100):
        # coordinate geometry against the expanded closed form, all indices
        lay = build_layout(4, 4, 1.0, 1.0)
        for q in range(4):
            for v in range(4):
                for k in range(4):
                    d_coord = reference.exact_distance(lay, lay, params100, q, v, k)
                    d_trig = trig_expansion_distance(lay, lay, 100.0, q, v, k)
                    assert d_coord == pytest.approx(d_trig, rel=1e-12)

    def test_index_range(self, qf9, params100):
        lay, _ = qf9
        with pytest.raises(ValueError):
            reference.exact_distance(lay, lay, params100, 4, 0, 0)
        with pytest.raises(ValueError):
            reference.exact_distance(lay, lay, params100, 0, 4, 0)


class TestFresnel:
    def test_aligned_terms(self, params100):
        # q=0, Rt=Rr: B = Rt Rr / D and the phase constraint pair gives alpha=0
        lay = build_layout(4, 4, 1.0, 1.0)
        for v in range(4):
            b, alpha, degenerate = reference.fresnel_terms(lay, lay, params100, 0, v)
            assert b == pytest.approx(1.0 * 1.0 / 100.0, rel=1e-12)
            assert alpha == pytest.approx(0.0, abs=1e-12)
            assert not degenerate

    def test_degenerate_flag(self):
        # a zero-radius receive ring makes B vanish at q=0
        tx = single_ring_layout(4, 1.0)
        rx = single_ring_layout(4, 1e-300)
        params = chan.PropagationParams.from_frequency(100.0, FREQ)
        b, alpha, degenerate = reference.fresnel_terms(tx, rx, params, 0, 0)
        assert degenerate and alpha == 0.0

    def test_error_bound_at_frozen_geometry(self):
        # D=100 m, R_Q=1 m, R=0.5 m, f=5.8 GHz: below lambda/100 everywhere
        lay = build_layout(4, 4, 0.5, 1.0)
        params = chan.PropagationParams.from_frequency(100.0, FREQ)
        worst = max(abs(reference.approx_distance(lay, lay, params, q, v, k)
                        - reference.exact_distance(lay, lay, params, q, v, k))
                    for q in range(4) for v in range(4) for k in range(4))
        assert worst < LAM / 100
        assert worst < 1.05e-5  # frozen from the sweep oracle

    def test_error_improves_with_distance(self):
        lay = build_layout(4, 4, 0.5, 1.0)
        errs = []
        for d in (50.0, 100.0, 200.0):
            params = chan.PropagationParams.from_frequency(d, FREQ)
            errs.append(max(abs(reference.approx_distance(lay, lay, params, q, v, k)
                                - reference.exact_distance(lay, lay, params, q, v, k))
                            for q in range(4) for v in range(4) for k in range(4)))
        assert errs[2] < errs[1] < errs[0]


class TestElementGain:
    def test_unit_sharing_one_wavelength(self):
        # colocated planar projections at D = lambda: gain is 1/(4 pi)
        ring = single_ring_layout(4, 1.0)
        params = chan.PropagationParams.from_frequency(LAM, FREQ)
        sharing = ring.sharing_freqs
        g = reference.element_gain(ring, ring, params, sharing, 0, 1, 1)
        assert g == pytest.approx(1 / (4 * np.pi), rel=1e-12)

    def test_sharing_halves_gain(self, qf9, params100):
        lay, sharing = qf9
        ones = np.ones(4, dtype=int)
        g_shared = reference.element_gain(lay, lay, params100, sharing, 1, 1, 3)
        g_unshared = reference.element_gain(lay, lay, params100, ones, 1, 1, 3)
        assert g_shared == pytest.approx(g_unshared / sharing[1], rel=1e-14)

    def test_magnitude_bounds(self, qf9, params100):
        lay, sharing = qf9
        ref = params100.reference_gain
        for q in range(4):
            for v in range(4):
                for k in range(4):
                    g = abs(reference.element_gain(lay, lay, params100, sharing, q, v, k))
                    bound = ref / sharing[v]
                    assert 0.9 * bound <= g <= 1.1 * bound

    def test_far_field_variant(self, qf9, params100):
        # amplitude pinned to 1/D, phase from the expanded distance
        lay, sharing = qf9
        lam = params100.wavelength_m
        for (q, v, k) in [(0, 0, 1), (1, 2, 3), (2, 3, 0)]:
            g = reference.element_gain(lay, lay, params100, sharing, q, v, k,
                                       far_field=True)
            d_ph = reference.approx_distance(lay, lay, params100, q, v, k)
            expect = lam / (4 * np.pi * 100.0 * sharing[v]) \
                * np.exp(-2j * np.pi * d_ph / lam)
            assert g == pytest.approx(expect, rel=1e-12)
            exact = reference.element_gain(lay, lay, params100, sharing, q, v, k)
            assert abs(g - exact) < 2e-3 * abs(exact)

    def test_singular_value_profile_is_scale_invariant(self):
        # R_Q -> s R_Q and D -> s^2 D keep the Fresnel parameter
        # c = k a_t a_r / D, so the 8x16 physical gain matrix keeps its
        # normalized singular values up to the terms past the paraxial
        # expansion: they moved by at most 1.27e-3 (s = 0.5) above 1e-3
        thresholds = np.array([1e-1, 1e-2, 1e-3, 1e-6])
        profiles = {}
        for s in (1.0, 0.5, 2.0, 4.0):
            lay = build_layout(8, 16, 1.0, s)
            params = chan.PropagationParams.from_frequency(100.0 * s * s, FREQ, 1.0)
            sv = np.linalg.svd(reference.physical_gain_matrix(lay, lay, params),
                               compute_uv=False)
            profiles[s] = sv / sv[0]
            counts = np.count_nonzero(profiles[s] > thresholds[:, None], axis=1)
            assert counts.tolist() == [17, 26, 38, 69], s
        base = profiles[1.0]
        strong = base > 1e-3
        for s, sv in profiles.items():
            assert np.max(np.abs(sv[strong] - base[strong])) < 2e-3, s


class TestBlockChannel:
    def test_single_cell_degenerate(self):
        ring = single_ring_layout(5, 1.0)
        params = chan.PropagationParams.from_frequency(100.0, FREQ)
        bc = chan.build_block_channel(ring, ring, params)
        assert len(bc) == 1
        assert reference.assembled_channel(bc).shape == (5, 5)

    def test_block_offset_identity(self, qf9, params100):
        lay, _ = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        buf = io.StringIO()
        chan.channel_csv(bc, lay, buf)
        blocks = reference.channel_csv_blocks(buf.getvalue())
        h = reference.paper_subchannels(bc, lay)
        for m in range(4):
            for n in range(4):
                assert np.array_equal(blocks[m, n], h[(n + 4 - m) % 4])

    def test_blocks_match_raw_index_recomputation(self, qf9, params100):
        # no q shortcut: entry (m, v), (n, k) of the paper's H from raw
        # coordinates; the tolerance carries the unavoidable phase roundoff
        # of 2 pi d / lambda
        lay, sharing = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        buf = io.StringIO()
        chan.channel_csv(bc, lay, buf)
        blocks = reference.channel_csv_blocks(buf.getvalue())
        lam = params100.wavelength_m
        eps = np.finfo(float).eps
        for m in range(4):
            for n in range(4):
                blk = blocks[m, n]
                for v in range(4):
                    for k in range(4):
                        diff = lay.positions[m, v] - lay.positions[n, k]
                        d = np.sqrt(100.0**2 + diff @ diff)
                        h = (lam / (4 * np.pi * sharing[v])) \
                            * np.exp(-2j * np.pi * d / lam) / d
                        tol = 1e-12 + 8 * eps * 2 * np.pi * d / lam
                        assert abs(blk[v, k] - h) < tol * abs(h)

    def test_mismatched_cell_counts_rejected(self, params100):
        a = build_layout(4, 4, 1.0, 1.0)
        b = build_layout(5, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            chan.build_block_channel(a, b, params100)

    def test_aligned_block_is_circulant_after_post_decoding(self, qf9, params100):
        # G_0 = L H_0 is the post-decoded aligned block: W^H G_0 W diagonal
        # to 1e-10 of total energy; first-row symmetry
        lay, _ = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        lh0 = bc[0]
        w = reference.idft_matrix(4)
        product = w.conj().T @ lh0 @ w
        total = np.linalg.norm(product, "fro") ** 2
        offdiag = total - np.sum(np.abs(np.diag(product)) ** 2)
        assert offdiag <= 1e-10 * total
        row = lh0[0]
        for k1 in range(1, 4):
            k2 = 4 - k1
            assert abs(row[k1] - row[k2]) < 1e-10 * abs(row[k1])

    def test_aligned_eigenvalues_match_closed_form(self, qf9, params100):
        lay, _ = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        lh0 = bc[0]
        eig = reference.dft_diagonal(lh0)
        exact = chan.detection_coeffs(bc)[0]
        # p = 0 transform minus the q != 0 summands leaves the q = 0 block
        w = reference.idft_matrix(4)
        q0 = reference.dft_matrix(4) @ lh0 @ w
        assert np.max(np.abs(np.diag(q0) - eig)) < 1e-12 * np.max(np.abs(eig))
        assert exact.shape == (4, 4)


class TestEquivalentGains:
    def test_inner_mode_periodicity(self, qf9, params100):
        lay, sharing = qf9
        for l in (-1, 0, 2):
            a = reference.equivalent_mode_gain(lay, lay, params100, sharing, 1, 1, 2, l)
            b = reference.equivalent_mode_gain(lay, lay, params100, sharing, 1, 1, 2, l + 4)
            assert a == pytest.approx(b, rel=1e-12)

    def test_pipeline_probe_identity(self, qf9, params100):
        # unit symbol on one mode pair: the paper's split received signal at
        # (m, v) is exactly the equivalent gain
        lay, sharing = qf9
        gain = reference.physical_gain_matrix(lay, lay, params100)
        scale = params100.reference_gain
        tol = 1e-12 + 8 * np.finfo(float).eps * 2 * np.pi * 100.0 / LAM
        for (p, l) in [(0, 0), (1, -1), (2, 2)]:
            sym = np.zeros((4, 4), dtype=complex)
            sym[p % 4, l % 4] = 1.0
            r = reference.split_received(gain @ reference.tom_modulate(sym, lay), lay)
            for m in range(4):
                for v in range(4):
                    h = reference.equivalent_mode_gain(lay, lay, params100, sharing,
                                                       m, p, v, l)
                    assert abs(r[m, v] - h) < tol * max(abs(h), scale)

    def test_bessel_variant_scale(self, params100):
        # closed form deviates from the exact sum within the tolerance the
        # gap study establishes at these parameters (frozen)
        lay = build_layout(4, 16, 1.0, 1.0)
        sharing = lay.sharing_freqs
        exact, bessel = [], []
        for v in range(0, 16, 4):
            for l in (-2, -1, 0, 1, 2):
                exact.append(reference.equivalent_mode_gain(lay, lay, params100,
                                                            sharing, 0, 1, v, l, "exact"))
                bessel.append(reference.equivalent_mode_gain(lay, lay, params100,
                                                             sharing, 0, 1, v, l, "bessel"))
        exact, bessel = np.array(exact), np.array(bessel)
        rms = np.sqrt(np.mean(np.abs(exact) ** 2))
        assert np.sqrt(np.mean(np.abs(exact - bessel) ** 2)) / rms < 0.55

    def test_bessel_variant_converges_on_single_ring(self):
        # fixed 2 m aperture: the closed form tightens as the element count
        # grows (the discrete sums approach their integral forms)
        params = chan.PropagationParams.from_frequency(100.0, FREQ)

        def max_dev(n):
            ring = single_ring_layout(n, 2.0)
            sharing = ring.sharing_freqs
            ex, be = [], []
            for v in range(0, n, n // 8):
                for l in (-2, -1, 0, 1, 2):
                    ex.append(reference.equivalent_mode_gain(ring, ring, params,
                                                             sharing, 0, 0, v, l, "exact"))
                    be.append(reference.equivalent_mode_gain(ring, ring, params,
                                                             sharing, 0, 0, v, l, "bessel"))
            ex, be = np.array(ex), np.array(be)
            return np.max(np.abs(ex - be)) / np.sqrt(np.mean(np.abs(ex) ** 2))

        dev8, dev32 = max_dev(8), max_dev(32)
        assert dev32 < dev8
        assert dev32 < 0.01

    def test_unknown_path(self, qf9, params100):
        lay, sharing = qf9
        with pytest.raises(ValueError):
            reference.equivalent_mode_gain(lay, lay, params100, sharing, 0, 0, 0, 0, "fft")


class TestDiagApprox:
    def test_aligned_block_reduces_to_circulant_eigenvalues(self, params100):
        # q=0: the closed form approximates the exact circulant eigenvalues
        # (K=8, where the edge-mode aliasing is already below one percent)
        lay = build_layout(4, 8, 1.0, 1.0)
        bc = chan.build_block_channel(lay, lay, params100)
        lh0 = bc[0]
        eig = reference.dft_diagonal(lh0)
        approx = chan.diag_approx_block(lay, lay, params100, 0)
        scale = np.max(np.abs(eig))
        assert np.max(np.abs(approx - eig)) < 0.01 * scale
        gap = chan.approx_gap(lay, lay, params100)
        assert gap < 5e-5  # frozen: 2.87e-5 at K=8, D=100

    def test_aligned_gap_frozen_at_k4(self, qf9, params100):
        lay, _ = qf9
        gap = chan.approx_gap(lay, lay, params100)
        assert gap == pytest.approx(2.894258e-2, rel=1e-3)

    def test_quadrature_bracket_against_independent_quadrature(self, params100):
        # reimplement the azimuth integral with a different rule and node count
        lay = build_layout(4, 8, 1.0, 1.0)
        q = 1
        entries = chan.diag_approx_block(lay, lay, params100, q, correction=True)
        rq = lay.qf_radius
        rt = rr = lay.cell_radius
        lam = params100.wavelength_m
        phi_q = 2 * np.pi * q / 4
        s = np.sin(phi_q / 2)
        b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * 100.0)
        z_q = 4 * np.pi * rq * rr * s / (lam * 100.0)
        pref = lam * 8 / (4 * np.pi * 100.0) \
            * np.exp(-2j * np.pi * (100.0 + rt**2 / 200.0) / lam) \
            * np.exp(-1j * np.pi * (4 * rq**2 * s**2 + rr**2) / (lam * 100.0))
        from scipy import special
        from scipy.integrate import simpson
        phi = np.linspace(0, 2 * np.pi, 9001)
        alpha = np.arctan2(2 * rq * rt * s * np.sin(phi - phi_q / 2),
                           2 * rq * rt * s * np.cos(phi - phi_q / 2) + rr * rt)
        modes = chan.mode_values(8)
        for idx in (0, 1, 7):
            l = int(modes[idx])
            integrand = np.exp(-1j * z_q * np.cos(phi - phi_q / 2)) \
                * np.exp(-1j * alpha * l)
            bracket = simpson(integrand, x=phi) / (2 * np.pi)
            expect = pref * chan.j_power(l) * np.exp(-1j * phi_q * l) \
                * special.jv(l, b_q) * bracket
            assert abs(entries[idx] - expect) < 1e-6 * max(abs(expect), 1e-30)

    def test_j_order_variants_differ_only_in_bessel_order(self, qf9, params100):
        lay, _ = qf9
        matched = chan.diag_approx_block(lay, lay, params100, 1)
        first = chan.diag_approx_block(lay, lay, params100, 1, j_order="first")
        phi_q = np.pi / 2
        s = np.sin(phi_q / 2)
        b_q = 2 * np.pi * np.sqrt(4 * s**2 + 1) / (params100.wavelength_m * 100.0)
        modes = chan.mode_values(4)
        for idx, l in enumerate(modes):
            jl, j1 = chan.bessel_j(int(l), b_q), chan.bessel_j(1, b_q)
            if jl != 0:
                assert first[idx] == pytest.approx(matched[idx] * j1 / jl, rel=1e-10)

    @pytest.mark.parametrize("tx_shape,rx_shape", [
        ((4, 4, 1.0), (4, 4, 1.0)),
        ((4, 8, 0.5), (4, 8, 0.5)),
        ((8, 16, 1.0), (8, 16, 1.0)),
        # unequal ratios: element offsets pi/4 and 0, so e^{j (w_r - w_t) l} != 1
        ((4, 4, float(np.sin(np.pi / 4))), (4, 4, 1.0))])
    @pytest.mark.parametrize("j_order", ["matched", "first"])
    @pytest.mark.parametrize("correction", [True, False])
    def test_matches_per_mode_oracle(self, params100, tx_shape, rx_shape, j_order,
                                     correction):
        tx, rx = build_layout(*tx_shape, 1.0), build_layout(*rx_shape, 1.0)
        for q in range(tx.n_cells):
            got = chan.diag_approx_block(tx, rx, params100, q, j_order, correction)
            expect = reference.diag_approx_block_loop(tx, rx, params100, q, j_order,
                                                      correction)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_requires_square_modes(self, params100):
        a = build_layout(4, 4, 1.0, 1.0)
        b = build_layout(4, 8, 1.0, 1.0)
        with pytest.raises(DimensionError):
            chan.diag_approx_block(a, b, params100, 0)


class TestApproxGap:
    def test_gap_zero_when_approximation_is_exact(self, qf9, params100, monkeypatch):
        # denominator structure: a null channel has no relative gap; H_0 is
        # built from free_space_gain alone
        lay, _ = qf9
        monkeypatch.setattr(chan, "free_space_gain",
                            lambda offsets, params: np.zeros(offsets.shape[:-1], dtype=complex))
        assert chan.approx_gap(lay, lay, params100) == np.inf

    def test_equals_the_aligned_summand_oracle_bit_for_bit(self):
        # approx_gap is superposition_gap over the one offset q = 0.  The
        # name is kept from when both took the DFT by the same dense
        # products; against the dense W^H L H_0 W form the FFTs move it by
        # rounding only, at most 1.5e-10 relative over these 288 cases (the
        # gap is a relative squared difference, so it magnifies rounding)
        for n, v, ratio in admissible_layouts():
            lay = build_layout(n, v, ratio, 1.0)
            for d in (20.0, 100.0, 500.0):
                params = chan.PropagationParams.from_frequency(d, FREQ, 1.0)
                for j_order in ("matched", "first"):
                    for correction in (True, False):
                        assert chan.approx_gap(lay, lay, params, j_order, correction) \
                            == pytest.approx(reference.aligned_gap(lay, lay, params, j_order,
                                                                   correction), rel=5e-10)

    def test_full_superposition_gap_matches_mode_channel(self, qf9, params100):
        lay, _ = qf9
        gap = full_gap(lay, params100)
        for p in range(4):
            eps = reference.full_superposition_gap(lay, lay, params100, p)
            assert eps == pytest.approx(gap[p], rel=1e-12)


class TestNullTransforms:
    """One element per cell at ratio 1 puts every element at the center, so
    every transform but p = 0 cancels down to rounding."""

    @pytest.fixture(scope="class")
    def center(self):
        return build_layout(4, 1, 1.0, 1.0)

    def test_mode_channel_reports_inf(self, center, params100):
        lay = center
        gap = full_gap(lay, params100)
        assert np.isfinite(gap[0])
        assert np.all(np.isinf(gap[1:]))

    def test_full_superposition_gap_raises(self, center, params100):
        lay = center
        assert reference.full_superposition_gap(lay, lay, params100, 0) \
            == pytest.approx(full_gap(lay, params100)[0], rel=1e-12)
        for p in range(1, 4):
            with pytest.raises(DegenerateChannelError):
                reference.full_superposition_gap(lay, lay, params100, p)

    def test_small_but_real_transforms_keep_their_gap(self):
        # 8x16 at 2 km: the weakest transform is 1e-5 of the rms norm
        lay = build_layout(8, 16, 1.0, 1.0)
        params = chan.PropagationParams.from_frequency(2000.0, FREQ, 1.0)
        assert np.all(np.isfinite(full_gap(lay, params)))


class TestExactModeMatrix:
    # one cell is the single ring of a baseline: 97 elements is the uca_n
    # ring of the 8x16 sweeps, 385 and 512 are the rings of the 16x32 ones;
    # 3 and 6 cells are N that are not powers of two.  The name is kept from
    # when both sides took the same dense products; the FFTs round
    # differently, by at most 1.4e-13 of the branch's largest entry (16x32).
    @pytest.mark.parametrize("n, k", [(4, 4), (16, 32), (1, 97), (1, 385), (1, 512),
                                      (3, 12), (6, 6)])
    def test_bit_identical_to_dft_form(self, params100, n, k):
        lay = single_ring_layout(k, 1.0) if n == 1 else build_layout(n, k, 1.0, 1.0)
        bc = chan.build_block_channel(lay, lay, params100)
        exact = chan.detection_coeffs(bc)
        for p in range(n):
            expect = reference.exact_transform(bc, p)
            assert np.max(np.abs(exact[p] - expect)) <= 5e-13 * np.max(np.abs(expect))

    def test_unequal_element_counts_rejected(self, params100):
        tx, rx = build_layout(4, 4, 1.0, 1.0), build_layout(4, 8, 1.0, 1.0)
        with pytest.raises(DimensionError):
            chan.detection_coeffs(chan.build_block_channel(tx, rx, params100))


class TestDetectionCoeffs:
    def test_transforms_equal_paper_form(self, params100):
        # W^H (sum G_q) W against the paper's W^H L (sum H_q) W with
        # H_q = G_q / L_v: exact where every L_v is a power of two, within
        # rounding of the dropped factors elsewhere
        layouts = admissible_layouts(16, 32)
        assert set(NAMED_LAYOUTS) <= set(layouts)
        for layout in layouts:
            lay = build_layout(*layout, 1.0)
            gains = chan.build_block_channel(lay, lay, params100)
            got = chan.detection_coeffs(gains)
            expect = reference.paper_detection_coeffs(reference.paper_subchannels(gains, lay),
                                                      lay)
            if power_of_two_sharing(lay):
                assert np.array_equal(got, expect), layout
            else:
                assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect)), layout

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(GRID_RATIOS)).flatmap(
        lambda grid: st.tuples(st.just(grid), st.sampled_from(GRID_RATIOS[grid]),
                               st.sampled_from(GRID_RATIOS[grid]))))
    def test_swapping_the_antennas_mirrors_the_transforms(self, case):
        # free space is reciprocal, G_BA = G_AB^T, so link B, which swaps
        # link A's transmit and receive ratios, has T^B_p = J (T^A_-p)^T J,
        # where J takes mode l to -l mod K; the plain transpose (T^A_p)^T is
        # off by 0.18 to 1.3 of max|T| on unequal antennas.  Transposing
        # every link, or relabelling p or l alike on both sides, keeps the
        # identity, so it pins how the two ends are treated against each
        # other: a receive DFT of the wrong sign breaks it.  Element
        # positions round to about eps R_Q, which turns a gain's phase by up
        # to 2 pi eps R_Q / lambda (2.7e-14 at R_Q = 1 m); the two sides
        # differ by up to 1.5e-14 of max|T| (7x14 and 8x16 with shared
        # elements) and by ~1e-16 elsewhere
        (n, k), tx_ratio, rx_ratio = case
        a = txrx.build_link(Scenario(n_cells=n, tx_elems=k, rx_elems=k,
                                     tx_ratio=tx_ratio, rx_ratio=rx_ratio))
        b = txrx.build_link(Scenario(n_cells=n, tx_elems=k, rx_elems=k,
                                     tx_ratio=rx_ratio, rx_ratio=tx_ratio))
        neg_p, neg_l = -np.arange(n) % n, -np.arange(k) % k
        mirrored = a.exact_matrices[neg_p].swapaxes(-1, -2)[:, neg_l][:, :, neg_l]
        rounding = np.finfo(float).eps * 2 * np.pi * a.tx.qf_radius / LAM
        assert np.max(np.abs(b.exact_matrices - mirrored)) \
            <= rounding * np.max(np.abs(a.exact_matrices))

    def test_single_cell_lambda_is_exact_diagonal(self):
        ring = single_ring_layout(6, 1.0)
        params = chan.PropagationParams.from_frequency(100.0, FREQ)
        bc = chan.build_block_channel(ring, ring, params)
        lam = np.diag(chan.detection_coeffs(bc)[0])
        exact = reference.exact_transform(bc, 0)
        assert np.max(np.abs(lam - np.diag(exact))) < 1e-15

    def test_exact_lambda_matches_pipeline_probe(self, qf9, params100):
        # probing the full pipeline with a unit symbol reproduces Lambda
        from qfuca.config import Scenario
        from qfuca.txrx import build_link, tod
        lay, _ = qf9
        lam = build_link(Scenario()).lambda_coeffs
        gain = reference.physical_gain_matrix(lay, lay, params100)
        scale = params100.reference_gain
        for (p, l) in [(0, 0), (1, 1), (2, -1)]:
            sym = np.zeros((4, 4), dtype=complex)
            sym[p % 4, l % 4] = 1.0
            y = gain @ reference.tom_modulate(sym, lay)
            s_tilde = tod(y, lay)
            assert abs(s_tilde[p % 4, l % 4] - lam[p % 4, l % 4]) \
                < 1e-12 * scale

    def test_bessel_lambda_sums_blocks(self, qf9, params100):
        from qfuca.config import Scenario
        from qfuca.txrx import build_link
        lay, _ = qf9
        lam_b = build_link(Scenario(lambda_path="bessel")).lambda_coeffs
        summed = chan.bessel_diagonals(lay, lay, params100)
        assert np.max(np.abs(lam_b - summed)) == 0.0


def full_gap(lay, params):
    """Per-p full-superposition gap of a layout facing itself."""
    exact = chan.detection_coeffs(chan.build_block_channel(lay, lay, params))
    return chan.superposition_gap(exact, chan.bessel_diagonals(lay, lay, params))


def direct_approx_diagonals(lay, params):
    """In-test oracle: every offset's diagonal evaluated by its own call,
    and each p's sum over q taken term by term with its phase
    e^{j 2 pi p q / N}."""
    n = lay.n_cells
    blocks = [chan.diag_approx_block(lay, lay, params, q) for q in range(n)]
    return np.array([sum(np.exp(2j * np.pi * p * q / n) * blocks[q] for q in range(n))
                     for p in range(n)])


class TestLazyBesselBlocks:
    @pytest.mark.parametrize("n, k", [(4, 4), (8, 16)])
    def test_hoisted_p_matches_direct_blocks(self, n, k, params100):
        lay = build_layout(n, k, 1.0, 1.0)
        diagonals = chan.bessel_diagonals(lay, lay, params100)
        direct = direct_approx_diagonals(lay, params100)
        assert diagonals.shape == (n, k)
        assert np.max(np.abs(diagonals - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_bessel_link_matches_direct_evaluation(self, qf9, params100):
        from qfuca.config import Scenario
        from qfuca.txrx import build_link
        lay, _ = qf9
        link = build_link(Scenario(lambda_path="bessel"))
        direct = direct_approx_diagonals(lay, params100)
        assert np.max(np.abs(link.lambda_coeffs - direct)) \
            <= 1e-12 * np.max(np.abs(direct))
        gap = chan.superposition_gap(link.exact_matrices,
                                     chan.bessel_diagonals(lay, lay, params100))
        for p in range(4):
            assert gap[p] == pytest.approx(
                reference.full_superposition_gap(lay, lay, params100, p), rel=1e-12)


def test_channel_csv_header(qf9, params100):
    lay, _ = qf9
    bc = chan.build_block_channel(lay, lay, params100)
    buf = io.StringIO()
    chan.channel_csv(bc, lay, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "m,n,v,k,re,im"
    assert len(lines) == 1 + 4 * 4 * 4 * 4


def test_channel_csv_peaks_below_one_copy_of_the_sub_channels(params100):
    # each block is divided by L_v as it is formatted, so the export holds
    # one block's H_q and text (4.2 kB at 32x4), not a divided copy of all N
    # sub-channels (18.3 kB with it); at 64x128 that copy is 16 MiB
    lay = build_layout(32, 4, 1.0, 1.0)
    bc = chan.build_block_channel(lay, lay, params100)

    class Discard:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        chan.channel_csv(bc, lay, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bc.nbytes, peak


@pytest.mark.parametrize("n,k", [(16, 32), (32, 64)])
def test_link_build_peaks_at_the_arrays_it_keeps(n, k):
    # the sub-channels are filled one transmit cell at a time and the mode
    # FFTs run in place, so a link build holds little beyond its (N, K, K)
    # sub-channels and exact transforms: no (N, K, K, 2) offset tensor, no
    # full-size FFT intermediates
    scen = Scenario(n_cells=n, tx_elems=k, rx_elems=k)
    antenna = txrx.build_antenna(scen)
    tracemalloc.start()
    try:
        link = txrx.link_at(antenna, scen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (link.subchannels.nbytes + link.exact_matrices.nbytes)


def test_channel_csv_streams_in_constant_memory(tmp_path):
    # the 8x16 table is 16,384 rows (890 KB); formatted one (m, n) block at
    # a time, the export holds one 256-row block's text, never the table's
    link = txrx.build_link(Scenario(n_cells=8, tx_elems=16, rx_elems=16))
    with cli._open_output(tmp_path, "channel.csv") as fh:
        tracemalloc.start()
        try:
            chan.channel_csv(link.subchannels, link.rx, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 ** 17
    with open(tmp_path / "channel.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 8 * 8 * 16 * 16
