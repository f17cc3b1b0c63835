import numpy as np
import pytest

from qfuca import channel as chan
from qfuca import linalg
from qfuca.errors import DegenerateChannelError, DimensionError
from qfuca.geometry import build_layout, single_ring_layout
from qfuca.linalg import diagonalize_row_blocks, dft_matrix, idft_matrix

import reference

FREQ = 5.8e9
LAM = 299792458.0 / FREQ


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
        blocks = reference.channel_csv_blocks(chan.channel_csv(bc))
        for m in range(4):
            for n in range(4):
                assert np.array_equal(blocks[m, n], bc[(n + 4 - m) % 4])

    def test_blocks_match_raw_index_recomputation(self, qf9, params100):
        # no q shortcut: entry (m, v), (n, k) from raw coordinates; the
        # tolerance carries the unavoidable phase roundoff of 2 pi d / lambda
        lay, sharing = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        blocks = reference.channel_csv_blocks(chan.channel_csv(bc))
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
        # W^H (L H_0) W diagonal to 1e-10 of total energy; first-row symmetry
        lay, sharing = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        lh0 = sharing[:, None] * bc[0]
        w = idft_matrix(4)
        product = w.conj().T @ lh0 @ w
        total = np.linalg.norm(product, "fro") ** 2
        offdiag = total - np.sum(np.abs(np.diag(product)) ** 2)
        assert offdiag <= 1e-10 * total
        row = lh0[0]
        for k1 in range(1, 4):
            k2 = 4 - k1
            assert abs(row[k1] - row[k2]) < 1e-10 * abs(row[k1])

    def test_aligned_eigenvalues_match_closed_form(self, qf9, params100):
        lay, sharing = qf9
        bc = chan.build_block_channel(lay, lay, params100)
        lh0 = sharing[:, None] * bc[0]
        eig = diagonalize_row_blocks([lh0])
        exact = chan.detection_coeffs(bc, lay)[0]
        # p = 0 transform minus the q != 0 summands leaves the q = 0 block
        w = idft_matrix(4)
        q0 = dft_matrix(4) @ lh0 @ w
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
        # unit symbol on one mode pair: the split received signal at (m, v)
        # is exactly the equivalent gain
        from qfuca.txrx import split_received, tom_modulate
        lay, sharing = qf9
        gain = chan.physical_gain_matrix(lay, lay, params100)
        scale = params100.reference_gain
        tol = 1e-12 + 8 * np.finfo(float).eps * 2 * np.pi * 100.0 / LAM
        for (p, l) in [(0, 0), (1, -1), (2, 2)]:
            sym = np.zeros((4, 4), dtype=complex)
            sym[p % 4, l % 4] = 1.0
            r = split_received(gain @ tom_modulate(sym, lay), lay)
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
        sharing = lay.sharing_freqs
        bc = chan.build_block_channel(lay, lay, params100)
        lh0 = sharing[:, None] * bc[0]
        eig = diagonalize_row_blocks([lh0])
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
        q, p = 1, 1
        entries = chan.bessel_diagonals(lay, lay, params100, correction=True)[p, q]
        rq = lay.qf_radius
        rt = rr = lay.cell_radius
        lam = params100.wavelength_m
        phi_q = 2 * np.pi * q / 4
        s = np.sin(phi_q / 2)
        b_q = 2 * np.pi * rt * np.sqrt(4 * rq**2 * s**2 + rr**2) / (lam * 100.0)
        z_q = 4 * np.pi * rq * rr * s / (lam * 100.0)
        pref = lam * 8 / (4 * np.pi * 100.0) * np.exp(1j * phi_q * p) \
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
        from qfuca.linalg import bessel_j
        phi_q = np.pi / 2
        s = np.sin(phi_q / 2)
        b_q = 2 * np.pi * np.sqrt(4 * s**2 + 1) / (params100.wavelength_m * 100.0)
        modes = chan.mode_values(4)
        for idx, l in enumerate(modes):
            jl, j1 = bessel_j(int(l), b_q), bessel_j(1, b_q)
            if jl != 0:
                assert first[idx] == pytest.approx(matched[idx] * j1 / jl, rel=1e-10)

    def test_requires_square_modes(self, params100):
        a = build_layout(4, 4, 1.0, 1.0)
        b = build_layout(4, 8, 1.0, 1.0)
        with pytest.raises(DimensionError):
            chan.diag_approx_block(a, b, params100, 0)


class TestApproxGap:
    def test_gap_zero_when_approximation_is_exact(self, qf9, params100, monkeypatch):
        # denominator structure: a null channel is degenerate
        lay, _ = qf9
        zero = np.zeros((4, 4, 4), dtype=complex)
        monkeypatch.setattr(chan, "build_block_channel", lambda *args: zero)
        with pytest.raises(DegenerateChannelError):
            chan.approx_gap(lay, lay, params100)

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
    def test_one_idft_per_transform(self, qf9, params100, count_calls):
        lay, _ = qf9
        # dft_matrix would call linalg's own idft_matrix
        bc = chan.build_block_channel(lay, lay, params100)
        idft_calls = (count_calls(chan, "idft_matrix"), count_calls(linalg, "idft_matrix"))
        chan.detection_coeffs(bc, lay)
        chan.detection_coeffs(bc, lay)
        assert sum(map(len, idft_calls)) == 2

    # one cell is the single ring of a baseline: 97 elements is the uca_n
    # ring of the 8x16 sweeps, 385 and 512 are the rings of the 16x32 ones;
    # 3 and 6 cells are N that are not powers of two, where a phase computed
    # with numpy's complex division by N would round differently
    @pytest.mark.parametrize("n, k", [(4, 4), (16, 32), (1, 97), (1, 385), (1, 512),
                                      (3, 12), (6, 6)])
    def test_bit_identical_to_dft_form(self, params100, n, k):
        lay = single_ring_layout(k, 1.0) if n == 1 else build_layout(n, k, 1.0, 1.0)
        bc = chan.build_block_channel(lay, lay, params100)
        exact = chan.detection_coeffs(bc, lay)
        for p in range(n):
            assert np.array_equal(exact[p],
                                  reference.exact_transform(bc, lay.sharing_freqs, p))

    def test_unequal_element_counts_rejected(self, params100):
        tx, rx = build_layout(4, 4, 1.0, 1.0), build_layout(4, 8, 1.0, 1.0)
        with pytest.raises(DimensionError):
            chan.detection_coeffs(chan.build_block_channel(tx, rx, params100), rx)


class TestDetectionCoeffs:
    def test_single_cell_lambda_is_exact_diagonal(self):
        ring = single_ring_layout(6, 1.0)
        params = chan.PropagationParams.from_frequency(100.0, FREQ)
        bc = chan.build_block_channel(ring, ring, params)
        lam = np.diag(chan.detection_coeffs(bc, ring)[0])
        exact = reference.exact_transform(bc, ring.sharing_freqs, 0)
        assert np.max(np.abs(lam - np.diag(exact))) < 1e-15

    def test_exact_lambda_matches_pipeline_probe(self, qf9, params100):
        # probing the full pipeline with a unit symbol reproduces Lambda
        from qfuca.config import Scenario
        from qfuca.txrx import build_link, tod_inner_demodulate, tod_split_compensate, \
            tom_modulate
        lay, _ = qf9
        lam = build_link(Scenario()).lambda_coeffs
        gain = chan.physical_gain_matrix(lay, lay, params100)
        scale = params100.reference_gain
        for (p, l) in [(0, 0), (1, 1), (2, -1)]:
            sym = np.zeros((4, 4), dtype=complex)
            sym[p % 4, l % 4] = 1.0
            y = gain @ tom_modulate(sym, lay)
            x_tilde = tod_split_compensate(y, lay)
            s_tilde = tod_inner_demodulate(x_tilde[p % 4], lay)
            assert abs(s_tilde[l % 4] - lam[p % 4, l % 4]) \
                < 1e-12 * scale

    def test_bessel_lambda_sums_blocks(self, qf9, params100):
        from qfuca.config import Scenario
        from qfuca.txrx import build_link
        lay, _ = qf9
        lam_b = build_link(Scenario(lambda_path="bessel")).lambda_coeffs
        summed = chan.bessel_diagonals(lay, lay, params100).sum(axis=1)
        assert np.max(np.abs(lam_b - summed)) == 0.0


def full_gap(lay, params):
    """Per-p full-superposition gap of a layout facing itself."""
    exact = chan.detection_coeffs(chan.build_block_channel(lay, lay, params), lay)
    return chan.superposition_gap(exact, chan.bessel_diagonals(lay, lay, params))


def direct_approx_blocks(lay, params):
    """In-test oracle: every (p, q) diagonal evaluated by its own call, with
    its phase e^{j 2 pi p q / N} applied there."""
    n = lay.n_cells
    return np.array([[np.exp(2j * np.pi * p * q / n) * chan.diag_approx_block(lay, lay, params, q)
                      for q in range(n)] for p in range(n)])


class TestLazyBesselBlocks:
    @pytest.mark.parametrize("n, k", [(4, 4), (8, 16)])
    def test_hoisted_p_matches_direct_blocks(self, n, k, params100):
        lay = build_layout(n, k, 1.0, 1.0)
        blocks = chan.bessel_diagonals(lay, lay, params100)
        direct = direct_approx_blocks(lay, params100)
        assert blocks.shape == (n, n, k)
        assert np.max(np.abs(blocks - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_bessel_link_matches_direct_evaluation(self, qf9, params100):
        from qfuca.config import Scenario
        from qfuca.txrx import build_link
        lay, _ = qf9
        link = build_link(Scenario(lambda_path="bessel"))
        direct = direct_approx_blocks(lay, params100).sum(axis=1)
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
    text = chan.channel_csv(bc)
    lines = text.strip().split("\n")
    assert lines[0] == "m,n,v,k,re,im"
    assert len(lines) == 1 + 4 * 4 * 4 * 4
