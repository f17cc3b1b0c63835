import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfuca
from qfuca import channel as chan
from qfuca import geometry, metrics, txrx
from qfuca.config import Scenario
from qfuca.errors import DegenerateChannelError, DomainError

import reference
from layouts import admissible_layouts


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

    def test_snr_past_the_float_range_rejected(self):
        # |Lambda|^2 P / sigma^2 = 1e300 / 1e-100 overflows
        lam = np.full((1, 1), 1e150, dtype=complex)
        with pytest.raises(DomainError, match="leaves the float range at noise power 1e-100"):
            metrics.se_qf(lam, np.ones((1, 1)), np.full((1, 1), 1e-100))

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
        assert reference.se_qf_scenario(scen) == pytest.approx(54.42570603172034, rel=1e-9)


class TestSingleLoopUca:
    def test_equals_single_cell_reduction(self, scen):
        # the baseline is literally the N = 1 evaluation of the QF formula
        from qfuca import channel as chan
        from qfuca.geometry import single_ring_layout
        from qfuca.txrx import noise_mode_scale
        params = chan.PropagationParams.from_frequency(100.0, scen.freq_hz, scen.beta)
        ring = single_ring_layout(9, scen.qf_radius_m)
        exact = chan.detection_coeffs(chan.build_block_channel(ring, ring, params))[0]
        lam = np.diag(exact)[None, :]
        sigma2 = scen.total_power * params.reference_gain ** 2 / scen.snr_linear
        manual = metrics.se_qf(lam, np.full((1, 9), 1 / 9),
                               sigma2 * noise_mode_scale(ring))
        assert metrics.se_single_loop_uca(ring, scen, txrx.noise_variance(scen)) \
            == pytest.approx(manual, rel=1e-12)

    @pytest.fixture
    def ring_blocks(self, monkeypatch):
        """The row counts of the blocks that ring_eigenvalues works through,
        one (squared, gains) entry per call: `squared` lists the blocks whose
        squared offsets it computed, `gains` per point the blocks whose gains
        it computed at that point.  The wrappers record only inside
        ring_eigenvalues."""
        seen = []
        real_batch, real_squared, real_gain = \
            metrics.ring_eigenvalues, chan.squared_offsets, chan.gain_from_squared_offsets

        def batch(ring, points):
            squared_rows, gain_calls = [], []

            def squared(offsets):
                squared_rows.append(offsets.shape[0])
                return real_squared(offsets)

            def gain(sq, params):
                gain_calls.append((params, sq.shape[0]))
                return real_gain(sq, params)

            monkeypatch.setattr(chan, "squared_offsets", squared)
            monkeypatch.setattr(chan, "gain_from_squared_offsets", gain)
            try:
                return real_batch(ring, points)
            finally:
                monkeypatch.setattr(chan, "squared_offsets", real_squared)
                monkeypatch.setattr(chan, "gain_from_squared_offsets", real_gain)
                seen.append((squared_rows, [[rows for q, rows in gain_calls if q is p]
                                            for p in points]))

        monkeypatch.setattr(metrics, "ring_eigenvalues", batch)
        return seen

    @pytest.mark.parametrize("n_elements", [97, 128, 385, 512])
    def test_ring_gains_match_link_oracle(self, scen, n_elements):
        # link_at on the ring antenna, with its full exact transform, is the
        # oracle for the streamed gains of a two-point batch and for the
        # efficiency of each point alone
        ring = geometry.single_ring_layout(n_elements, scen.qf_radius_m)
        antenna = txrx.Antenna(tx=ring, rx=ring, noise_scale=txrx.noise_mode_scale(ring))
        sigma2 = txrx.noise_variance(scen)
        works = [replace(scen, distance_m=d) for d in (25.0, 400.0)]
        batch = metrics.ring_eigenvalues(ring, [
            chan.PropagationParams.from_frequency(w.distance_m, w.freq_hz, w.beta)
            for w in works])
        for work, streamed in zip(works, batch):
            se = metrics.se_single_loop_uca(ring, work, sigma2)
            link = txrx.link_at(antenna, work)  # scen takes the exact path
            lam = link.lambda_coeffs[0]
            assert np.max(np.abs(streamed - lam)) <= 1e-14 * np.max(np.abs(lam))
            assert se == pytest.approx(metrics.se_qf(link.lambda_coeffs, link.power_alloc,
                                                     sigma2 * link.noise_scale), rel=1e-14)

    @pytest.mark.parametrize("n_elements, budget, blocks", [
        # the default budget: 84 + 13 rows at 97, 64 + 64 at 128, and 19 and
        # 32 blocks at 385 and 512
        *(pytest.param(n, None, b, id=str(n))
          for n, b in ((97, 2), (128, 2), (385, 19), (512, 32))),
        # one-row blocks, as every ring of 8,192 elements or more takes
        *(pytest.param(n, 1, n, id=f"{n}-one-row") for n in (97, 128)),
        # 9 x 10 + 7 and 18 x 7 + 2 rows: a ragged last block
        pytest.param(97, 1000, 10, id="97-ragged"),
        pytest.param(128, 1000, 19, id="128-ragged"),
        # the whole channel in one block
        *(pytest.param(n, 128 * 128, 1, id=f"{n}-one-block") for n in (97, 128))])
    def test_streamed_ring_gains_bit_identical_to_full_channel(
            self, scen, ring_blocks, monkeypatch, n_elements, budget, blocks):
        # wherever the gain budget cuts the ring's channel, one pass over its
        # row blocks gives, at every point of a batch, the very bits of that
        # point's full-channel one-block diagonalization
        if budget is not None:
            monkeypatch.setattr(metrics, "RING_BLOCK_GAINS", budget)
        ring = geometry.single_ring_layout(n_elements, scen.qf_radius_m)
        points = [chan.PropagationParams.from_frequency(d, f, scen.beta)
                  for d, f in ((25.0, scen.freq_hz), (400.0, scen.freq_hz), (100.0, 2.4e9))]
        batch = metrics.ring_eigenvalues(ring, points)
        squared_rows, gain_rows = ring_blocks[-1]
        # each block's offsets are squared once, and its gains computed once
        # per point
        assert len(squared_rows) == blocks and sum(squared_rows) == n_elements
        assert gain_rows == [squared_rows] * len(points)
        for params, streamed in zip(points, batch):
            h = chan.build_block_channel(ring, ring, params)[0]
            assert np.array_equal(streamed, reference.dft_diagonal(h))

    def test_nondecreasing_in_snr(self, scen):
        values = [reference.se_single_loop_uca(9, replace(scen, snr_db=s))
                  for s in (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_regression_baselines(self, scen):
        assert reference.se_single_loop_uca(9, scen) == pytest.approx(
            26.391306688982205, rel=1e-9)
        assert reference.se_single_loop_uca(16, scen) == pytest.approx(
            30.895378217335114, rel=1e-9)


class TestSiso:
    def test_unit_snr(self, scen):
        # SNR = 1 linear: n log2(2) = n
        unit = replace(scen, snr_db=0.0)
        assert metrics.se_siso_times(9, unit, txrx.noise_variance(unit)) \
            == pytest.approx(9.0, rel=1e-12)

    def test_25x_at_15db(self, scen):
        expect = 25 * math.log2(1 + 10 ** 1.5)
        assert metrics.se_siso_times(25, scen, txrx.noise_variance(scen)) \
            == pytest.approx(expect, rel=1e-12)

    def test_multiplier_validation(self, scen):
        with pytest.raises(ValueError):
            metrics.se_siso_times(0, scen, txrx.noise_variance(scen))

    def test_snr_past_the_float_range_rejected(self, scen):
        with pytest.raises(DomainError, match="at distance 100.0 m with noise variance 1e-320"):
            metrics.se_siso_times(9, scen, 1e-320)


class TestSweeps:
    def test_empty_axis(self, scen):
        spec = metrics.SweepSpec(axis="snr_db", axis_values=(), fixed=scen,
                                 systems=("siso_xN",))
        assert metrics.run_sweep(spec) == ()

    def test_axis_must_increase(self, scen):
        with pytest.raises(ValueError):
            metrics.SweepSpec(axis="snr_db", axis_values=(3.0, 1.0), fixed=scen)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_axis_values_must_be_finite(self, scen, bad):
        # a nan breaks no strict-increase comparison, so it is checked first
        with pytest.raises(ValueError, match="finite"):
            metrics.SweepSpec(axis="snr_db", axis_values=(10.0, bad, 20.0), fixed=scen)

    def test_unknown_axis_and_system(self, scen):
        with pytest.raises(ValueError):
            metrics.SweepSpec(axis="phase", axis_values=(1.0,), fixed=scen)
        with pytest.raises(ValueError):
            metrics.SweepSpec(axis="snr_db", axis_values=(1.0,), fixed=scen,
                              systems=("vaporware",))
        # no label would write a header-only table
        with pytest.raises(ValueError, match="no systems"):
            metrics.SweepSpec(axis="snr_db", axis_values=(1.0,), fixed=scen, systems=())
        # a repeated label would write each of its rows twice
        with pytest.raises(ValueError, match=r"repeated systems: \['qf_uca'\]"):
            metrics.SweepSpec(axis="snr_db", axis_values=(1.0,), fixed=scen,
                              systems=("qf_uca", "siso_xN", "qf_uca"))

    def test_snr_sweep_monotone(self, scen):
        spec = metrics.SweepSpec(axis="snr_db",
                                 axis_values=(0.0, 10.0, 20.0, 30.0),
                                 fixed=scen)
        by_system = {}
        for value, system, se, _ in metrics.run_sweep(spec):
            by_system.setdefault(system, []).append(se)
        for system, series in by_system.items():
            assert all(b >= a for a, b in zip(series, series[1:])), system

    def test_rows_ordered(self, scen):
        spec = metrics.SweepSpec(axis="snr_db", axis_values=(0.0, 10.0),
                                 fixed=scen, systems=("uca_n", "qf_uca"))
        rows = metrics.run_sweep(spec)
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, "qf_uca"), (0.0, "uca_n"), (10.0, "qf_uca"), (10.0, "uca_n")]

    @pytest.mark.parametrize("axis, values, builds", [
        ("snr_db", (0.0, 10.0, 20.0), 1),
        ("distance_m", (50.0, 100.0, 200.0), 3),
        ("freq_hz", (2.4e9, 5.8e9), 2)])
    def test_qf_link_builds_per_axis(self, scen, count_calls, axis, values, builds):
        # only QF-UCA links come from link_at and build block channels; the
        # rings build no block channel and no exact transform.  On the
        # distance and carrier axes each ring streams its gains at every
        # point in one pass over its row blocks; on the SNR axis it streams
        # them anew at each point
        calls = count_calls(metrics, "link_at")
        exact_calls = count_calls(chan, "detection_coeffs")
        channel_calls = count_calls(chan, "build_block_channel")
        ring_calls = count_calls(metrics, "se_single_loop_uca")
        ring_passes = count_calls(metrics, "ring_eigenvalues")
        spec = metrics.SweepSpec(axis=axis, axis_values=values, fixed=scen)
        metrics.run_sweep(spec)
        assert all(args[0].tx.n_cells == scen.n_cells for args in calls)
        assert len(calls) == builds
        assert all(len(args[0]) == scen.n_cells for args in exact_calls)
        assert len(exact_calls) == builds
        assert all(args[0].n_cells == scen.n_cells for args in channel_calls)
        assert len(channel_calls) == builds
        if axis == "snr_db":
            assert len(ring_calls) == 2 * len(values)
            assert [len(args[1]) for args in ring_passes] == [1] * (2 * len(values))
        else:
            assert ring_calls == []
            assert [len(args[1]) for args in ring_passes] == [len(values)] * 2

    def test_snr_sweep_matches_per_point_links(self, scen):
        values = (0.0, 10.0, 20.0)
        spec = metrics.SweepSpec(axis="snr_db", axis_values=values, fixed=scen,
                                 systems=("qf_uca",))
        per_point = [reference.se_qf_scenario(replace(scen, snr_db=v)) for v in values]
        assert [row[2] for row in metrics.run_sweep(spec)] == per_point

    @pytest.mark.parametrize("axis, values", [
        ("snr_db", (0.0, 15.0)), ("distance_m", (50.0, 200.0)), ("freq_hz", (2.4e9, 5.8e9))])
    def test_subset_sweeps_equal_the_full_sweep_rows(self, scen, count_calls, axis, values):
        # uca_bigger alone needs no QF antenna; every subset gives the full
        # sweep's rows for its systems, bit for bit
        full = metrics.run_sweep(metrics.SweepSpec(axis=axis, axis_values=values, fixed=scen))
        antenna_calls = count_calls(metrics, "build_antenna")
        for systems in (("uca_bigger",), ("siso_xN", "uca_n")):
            spec = metrics.SweepSpec(axis=axis, axis_values=values, fixed=scen,
                                     systems=systems)
            rows = metrics.run_sweep(spec)
            if systems == ("uca_bigger",):
                assert antenna_calls == []
            assert rows == tuple(row for row in full if row[1] in systems)

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


class TestSweepReuse:
    """A sweep builds its three antennas once; every point builds only its
    links, and no product of size n^2 outlives its point."""

    @pytest.mark.parametrize("values", [(100.0,), (25.0, 50.0, 100.0, 200.0)])
    def test_antennas_built_once_per_distance_sweep(self, scen, count_calls, values):
        noise_calls = count_calls(txrx, "noise_mode_scale")
        layout_calls = (count_calls(txrx, "build_layout"),
                        count_calls(geometry, "build_layout"))
        spec = metrics.SweepSpec(axis="distance_m", axis_values=values, fixed=scen)
        metrics.run_sweep(spec)
        # the QF receive antenna only: a ring's noise scale is exactly ones
        assert [args[0].n_cells for args in noise_calls] == [scen.n_cells]
        assert sum(map(len, layout_calls)) <= 2

    @pytest.fixture(scope="class")
    def traced_peaks(self):
        # a fresh interpreter, so that nothing an earlier test left allocated
        # (a cache, say) hides from the trace; the sweep runs first
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(qfuca.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                             capture_output=True, text=True, check=True).stdout
        return dict(zip(("sweep", "ring", "link", "ring_2048", "antenna", "batch",
                         "batch_2048"), map(int, out.split())))

    def test_peak_memory_of_costliest_point(self, traced_peaks):
        assert traced_peaks["sweep"] <= 1.10 * (traced_peaks["ring"] + traced_peaks["link"])

    def test_sweep_holds_no_link_through_the_rings(self, traced_peaks):
        # the sweep keeps only se_qf's (N, K) inputs of a QF-UCA link, so its
        # peak is a ring point's on top of the antenna it holds throughout
        assert traced_peaks["sweep"] <= 1.10 * (traced_peaks["ring"] + traced_peaks["antenna"])

    def test_ring_point_peak_memory_below_one_channel(self, traced_peaks):
        # a ring point holds one block of at most RING_BLOCK_GAINS gains at a
        # time, never the n x n channel (4.19 MB of complex entries at 512),
        # so its peak does not grow with n; 64-row blocks would peak at
        # 2.8 MB at 512 elements and 11 MB at 2,048
        assert traced_peaks["ring"] < 1.5 * 2 ** 20
        assert traced_peaks["ring_2048"] < 1.5 * 2 ** 20

    @pytest.mark.parametrize("n, ring, batch", [(512, "ring", "batch"),
                                                (2048, "ring_2048", "batch_2048")])
    def test_ring_batch_shares_one_block_buffer(self, traced_peaks, n, ring, batch):
        # a 4-point batch holds a ring point's working set, one block buffer
        # shared by all points, plus the 4 rows of sums it returns (16 B per
        # entry); a block buffer per point would add about 0.41 MB at 512
        # elements and 0.46 MB at 2,048
        assert traced_peaks[batch] <= traced_peaks[ring] + 4 * n * 16 + 2 ** 14


# tracemalloc peaks of a 4-point distance sweep at the 16x32 grid and of its
# costliest point alone: the 512-element ring, and the QF-UCA link, which the
# sweep frees before it evaluates the rings; then of one 2,048-element ring
# point, the uca_bigger ring of the 32x64 grid; then of the QF-UCA antenna
# build, whose result the sweep holds throughout; then of the 4-point ring
# batches that a distance sweep makes at 512 and 2,048 elements
MEMORY_PROBE = """
import tracemalloc
from qfuca import channel, metrics, txrx
from qfuca.config import Scenario
from qfuca.geometry import single_ring_layout

def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

base = Scenario(n_cells=16, tx_elems=32, rx_elems=32)
spec = metrics.SweepSpec(axis="distance_m", axis_values=(25.0, 50.0, 100.0, 200.0),
                         fixed=base)
sweep = traced_peak(lambda: metrics.run_sweep(spec))
ring = traced_peak(lambda: metrics.se_single_loop_uca(
    single_ring_layout(base.n_cells * base.tx_elems, base.qf_radius_m), base,
    txrx.noise_variance(base)))
qf = txrx.build_antenna(base)
link = traced_peak(lambda: txrx.link_at(qf, base))
ring_2048 = traced_peak(lambda: metrics.se_single_loop_uca(
    single_ring_layout(2048, base.qf_radius_m), base, txrx.noise_variance(base)))
antenna = traced_peak(lambda: txrx.build_antenna(base))
points = [channel.PropagationParams.from_frequency(d, base.freq_hz, base.beta)
          for d in spec.axis_values]
batch, batch_2048 = (traced_peak(lambda: metrics.ring_eigenvalues(
    single_ring_layout(n, base.qf_radius_m), points)) for n in (512, 2048))
print(sweep, ring, link, ring_2048, antenna, batch, batch_2048)
"""


LAYOUTS = st.sampled_from(admissible_layouts())
AXIS_VALUES = {
    "snr_db": st.floats(min_value=-20.0, max_value=40.0),
    "distance_m": st.floats(min_value=10.0, max_value=1000.0),
    "freq_hz": st.floats(min_value=1e9, max_value=6e10),
}


def layout_scenario(layout) -> Scenario:
    n, v, ratio = layout
    return Scenario(n_cells=n, tx_elems=v, rx_elems=v, tx_ratio=ratio, rx_ratio=ratio)


def rows_by_system(rows) -> dict:
    out = {}
    for value, system, se, _ in rows:
        out.setdefault(system, []).append((value, se))
    return out


class TestSweepProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(LAYOUTS, st.sampled_from(metrics.SWEEP_AXES), st.data())
    def test_rows_equal_fresh_per_point_evaluations(self, layout, axis, data):
        base = layout_scenario(layout)
        values = sorted(data.draw(st.sets(AXIS_VALUES[axis], min_size=1, max_size=3)))
        rows = metrics.run_sweep(metrics.SweepSpec(axis=axis, axis_values=values,
                                                   fixed=base))
        n_physical = geometry.build_layout(*layout, base.qf_radius_m).n_physical
        expect = []
        for x in values:
            # the distance axis keeps the noise variance of the base distance
            if axis == "distance_m":
                scen, d = base, x
            else:
                scen, d = replace(base, **{axis: x}), None
            per_system = {
                "qf_uca": reference.se_qf_scenario(scen, distance_m=d),
                "siso_xN": reference.se_siso_times(n_physical, scen, distance_m=d),
                "uca_bigger": reference.se_single_loop_uca(base.n_cells * base.tx_elems,
                                                           scen, distance_m=d),
                "uca_n": reference.se_single_loop_uca(n_physical, scen, distance_m=d),
            }
            expect += [(x, system, per_system[system], "") for system in sorted(per_system)]
        assert list(rows) == expect

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(LAYOUTS, st.sets(AXIS_VALUES["snr_db"], min_size=2, max_size=4))
    def test_se_nondecreasing_in_snr(self, layout, snrs):
        spec = metrics.SweepSpec(axis="snr_db", axis_values=sorted(snrs),
                                 fixed=layout_scenario(layout))
        for system, series in rows_by_system(metrics.run_sweep(spec)).items():
            se = [value for _, value in series]
            assert all(b >= a for a, b in zip(se, se[1:])), system

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(LAYOUTS, st.sets(AXIS_VALUES["snr_db"], min_size=1, max_size=4))
    def test_siso_reference_is_n_log2_one_plus_snr(self, layout, snrs):
        base = layout_scenario(layout)
        spec = metrics.SweepSpec(axis="snr_db", axis_values=sorted(snrs), fixed=base,
                                 systems=("siso_xN",))
        n = geometry.build_layout(*layout, base.qf_radius_m).n_physical
        eps = np.finfo(float).eps
        for snr_db, se in rows_by_system(metrics.run_sweep(spec))["siso_xN"]:
            # exact up to the rounding of the SNR's round trip through sigma^2
            expect = n * math.log2(1 + 10 ** (snr_db / 10))
            assert math.isclose(se, expect, rel_tol=1e-14, abs_tol=4 * n * eps)
