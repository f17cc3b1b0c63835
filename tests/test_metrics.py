import math
from dataclasses import replace

import numpy as np
import pytest

from qfuca import metrics
from qfuca.config import Scenario
from qfuca.errors import DegenerateChannelError


@pytest.fixture(scope="module")
def scen():
    return Scenario()  # R_Q = 1 m, D = 100 m, 15 dB, 5.8 GHz, beta = 1


class TestSeQf:
    def test_all_zero(self):
        lam = np.zeros((2, 2), dtype=complex)
        assert metrics.se_qf(lam, np.ones((2, 2)), np.ones((2, 2))) == 0.0

    def test_single_mode_log2_4(self):
        # one mode with |Lambda|^2 P / sigma^2 = 3 -> log2(4) = 2
        lam = np.zeros((2, 2), dtype=complex)
        lam[0, 0] = np.sqrt(3.0)
        power = np.zeros((2, 2))
        power[0, 0] = 1.0
        assert metrics.se_qf(lam, power, np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    def test_zero_noise_with_signal_rejected(self):
        lam = np.ones((1, 1), dtype=complex)
        with pytest.raises(DegenerateChannelError):
            metrics.se_qf(lam, np.ones((1, 1)), np.zeros((1, 1)))

    def test_removing_power_never_increases_se(self, scen):
        from qfuca.txrx import build_link
        link = build_link(scen)
        noise = link.sigma2 * link.noise_scale
        full = metrics.se_qf(link.lambda_coeffs, link.power_alloc, noise)
        for p in range(4):
            for l in range(4):
                cut = link.power_alloc.copy()
                cut[p, l] = 0.0
                assert metrics.se_qf(link.lambda_coeffs, cut, noise) <= full + 1e-12

    def test_regression_9_element(self, scen):
        # frozen from the package's own exact path, cross-checked against an
        # independent recomputation outside the package
        assert metrics.se_qf_scenario(scen) == pytest.approx(54.42570603172034, rel=1e-9)


class TestSingleLoopUca:
    def test_equals_single_cell_reduction(self, scen):
        # the baseline is literally the N = 1 evaluation of the QF formula
        from qfuca import channel as chan
        from qfuca.geometry import single_ring_layout, sharing_matrix
        from qfuca.txrx import noise_mode_scale
        params = chan.PropagationParams.from_frequency(100.0, scen.freq_hz, scen.beta)
        ring = single_ring_layout(9, scen.qf_radius_m)
        sharing = sharing_matrix(ring)
        lam = np.diag(chan.exact_mode_matrix(ring, ring, params, sharing, 0))[None, :]
        sigma2 = scen.total_power * params.reference_gain ** 2 / scen.snr_linear
        manual = metrics.se_qf(lam, np.full((1, 9), 1 / 9),
                               sigma2 * noise_mode_scale(ring, 1))
        assert metrics.se_single_loop_uca(9, scen) == pytest.approx(manual, rel=1e-12)

    def test_nondecreasing_in_snr(self, scen):
        values = [metrics.se_single_loop_uca(9, replace(scen, snr_db=s))
                  for s in (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_regression_baselines(self, scen):
        assert metrics.se_single_loop_uca(9, scen) == pytest.approx(
            26.391306688982205, rel=1e-9)
        assert metrics.se_single_loop_uca(16, scen) == pytest.approx(
            30.895378217335114, rel=1e-9)


class TestSiso:
    def test_unit_snr(self, scen):
        # SNR = 1 linear: n log2(2) = n
        assert metrics.se_siso_times(9, replace(scen, snr_db=0.0)) \
            == pytest.approx(9.0, rel=1e-12)

    def test_25x_at_15db(self, scen):
        expect = 25 * math.log2(1 + 10 ** 1.5)
        assert metrics.se_siso_times(25, scen) == pytest.approx(expect, rel=1e-12)

    def test_multiplier_validation(self, scen):
        with pytest.raises(ValueError):
            metrics.se_siso_times(0, scen)


class TestSeGain:
    def test_equal_inputs(self):
        assert metrics.se_gain(3.0, 3.0) == 1.0

    def test_double(self):
        assert metrics.se_gain(4.0, 2.0) == 2.0

    def test_zero_denominator(self):
        with pytest.raises(DegenerateChannelError):
            metrics.se_gain(1.0, 0.0)


class TestSweeps:
    def test_empty_axis(self, scen):
        spec = metrics.SweepSpec(axis="snr_db", axis_values=(), fixed=scen,
                                 systems=("siso_xN",))
        assert metrics.run_sweep(spec).rows == ()

    def test_axis_must_increase(self, scen):
        with pytest.raises(ValueError):
            metrics.SweepSpec(axis="snr_db", axis_values=(3.0, 1.0), fixed=scen)

    def test_unknown_axis_and_system(self, scen):
        with pytest.raises(ValueError):
            metrics.SweepSpec(axis="phase", axis_values=(1.0,), fixed=scen)
        with pytest.raises(ValueError):
            metrics.SweepSpec(axis="snr_db", axis_values=(1.0,), fixed=scen,
                              systems=("vaporware",))

    def test_snr_sweep_monotone(self, scen):
        spec = metrics.SweepSpec(axis="snr_db",
                                 axis_values=(0.0, 10.0, 20.0, 30.0),
                                 fixed=scen)
        result = metrics.run_sweep(spec)
        by_system = {}
        for value, system, se, _ in result.rows:
            by_system.setdefault(system, []).append(se)
        for system, series in by_system.items():
            assert all(b >= a for a, b in zip(series, series[1:])), system

    def test_rows_ordered(self, scen):
        spec = metrics.SweepSpec(axis="snr_db", axis_values=(0.0, 10.0),
                                 fixed=scen, systems=("uca_n", "qf_uca"))
        rows = metrics.run_sweep(spec).rows
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, "qf_uca"), (0.0, "uca_n"), (10.0, "qf_uca"), (10.0, "uca_n")]

    @pytest.mark.parametrize("axis, values, builds", [
        ("snr_db", (0.0, 10.0, 20.0), 1),
        ("distance_m", (50.0, 100.0, 200.0), 3),
        ("freq_hz", (2.4e9, 5.8e9), 2)])
    def test_qf_link_builds_per_axis(self, scen, count_calls, axis, values, builds):
        calls = count_calls(metrics, "build_link")
        spec = metrics.SweepSpec(axis=axis, axis_values=values, fixed=scen)
        metrics.run_sweep(spec)
        assert len(calls) == builds

    def test_snr_sweep_matches_per_point_links(self, scen):
        values = (0.0, 10.0, 20.0)
        spec = metrics.SweepSpec(axis="snr_db", axis_values=values, fixed=scen,
                                 systems=("qf_uca",))
        per_point = [metrics.se_qf_scenario(replace(scen, snr_db=v)) for v in values]
        assert [row[2] for row in metrics.run_sweep(spec).rows] == per_point

    def test_csv_header_and_shape(self, scen):
        spec = metrics.SweepSpec(axis="snr_db", axis_values=(), fixed=scen)
        text = metrics.sweep_csv(metrics.run_sweep(spec))
        assert text == "axis,system,se_bps_hz,aux\n"
        spec = metrics.SweepSpec(axis="snr_db", axis_values=(15.0,), fixed=scen,
                                 systems=("siso_xN",))
        text = metrics.sweep_csv(metrics.run_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0] == "axis,system,se_bps_hz,aux"
        assert len(lines) == 2
        assert lines[1].startswith("15.0,siso_xN,")
