import contextlib
import csv
import filecmp
import io
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qfuca import cli, metrics
from qfuca.cli import main
from qfuca.config import Scenario, parse_config, serialize_scenario
from qfuca.errors import ConfigError

FLOAT_KEYS = [f.name for f in fields(Scenario) if isinstance(getattr(Scenario(), f.name), float)]

# each passes its own overflow check, but D^2 plus the squared element
# span (2 (R_Q + R))^2 overflows
FAR_AND_WIDE = "distance_m = 1.3e154\nqf_radius_m = 3e153\n"
DISTANCE_AND_RADIUS = "distance 1.3e+154 m and antenna radius 3e+153 m are too large together"

# each passes its own range check, but the wavelength times TINY_D
# underflows to 0, and the Bessel route divides by that product
TINY_D = 1.5274334733869842e-153
LAMBDA_D_UNDERFLOW = "n_cells = 6\ntx_elems = 3\nrx_elems = 3\nfreq_hz = 6.642490972796287e+283\n"
TINY_TX_CELL = "n_cells = 3\ntx_elems = 1\nrx_elems = 1\ntx_ratio = 1e-310\nfreq_hz = 3e162\n"
FRESNEL_OVERFLOW = "distance 1e-154 m is too short for the Bessel route at wavelength"


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        scen = parse_config("")
        assert scen == Scenario()
        assert scen.freq_hz == 5.8e9
        assert scen.distance_m == 100.0
        assert scen.beta == 1.0

    def test_comments_and_blanks(self):
        scen = parse_config("# a comment\n\ndistance_m = 50 # trailing\n")
        assert scen.distance_m == 50.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("distance_m = -5")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("beta = 1\nwarp_factor = 9\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("beta = 1\nbeta = 2\n")

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("n_cells = four")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words")

    def test_bool_words(self):
        assert parse_config("bessel_correction = off").bessel_correction is False
        assert parse_config("bessel_correction = on").bessel_correction is True

    def test_round_trip(self):
        scen = Scenario(n_cells=4, tx_elems=8, rx_elems=8, qf_radius_m=0.5,
                        distance_m=42.5, snr_db=7.25, seed=99,
                        lambda_path="bessel", bessel_correction=False)
        assert parse_config(serialize_scenario(scen)) == scen

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
           st.floats(min_value=-20.0, max_value=40.0, allow_nan=False),
           st.integers(min_value=0, max_value=2**31))
    def test_round_trip_property(self, distance, snr, seed):
        scen = Scenario(distance_m=distance, snr_db=snr, seed=seed)
        assert parse_config(serialize_scenario(scen)) == scen

    def test_invariant_violations(self):
        with pytest.raises(ConfigError):
            parse_config("n_cells = 2")
        with pytest.raises(ConfigError):
            parse_config("tx_ratio = 1.5")
        with pytest.raises(ConfigError):
            parse_config("constellation = morse")

    def test_unequal_element_counts_rejected(self):
        with pytest.raises(ConfigError, match="tx_elems .8. and rx_elems .4."):
            parse_config("tx_elems = 8\nrx_elems = 4\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, key, raw):
        # nan slips through every range check; inf fails late in the metrics
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            parse_config(f"{key} = {raw}\n")

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_snr_db_past_the_float_range_rejected(self, snr_db):
        # 10^(snr_db/10) overflows (OverflowError) or underflows to 0, which
        # the noise variance divides by
        with pytest.raises(ConfigError, match=f"^snr_db {snr_db!r} "):
            Scenario(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-3000.0, 3000.0])
    def test_snr_db_within_the_float_range_accepted(self, snr_db):
        assert 0 < Scenario(snr_db=snr_db).snr_linear < float("inf")


class TestCli:
    def test_geometry_writes_element_tables(self, tmp_path, capsys):
        assert main(["geometry", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tx_layout.csv").read_text().strip().split("\n")
        assert lines[0] == "cell_index,elem_index,x_m,y_m,physical_id,sharing_freq"
        assert len(lines) == 1 + 9
        assert (tmp_path / "rx_layout.csv").exists()
        assert "9 physical elements" in capsys.readouterr().out

    def test_loopback_outputs(self, tmp_path, capsys):
        assert main(["loopback", "--out", str(tmp_path), "--frames", "2"]) == 0
        assert (tmp_path / "loopback.csv").exists()
        modes = (tmp_path / "modes.csv").read_text().strip().split("\n")
        assert modes[0] == ("p,l,lambda_re,lambda_im,sigma2,signal_power,"
                            "interference_power,noise_power")
        assert len(modes) == 1 + 16
        assert (tmp_path / "channel.csv").exists()
        out = capsys.readouterr().out
        assert "symbol errors" in out

    def test_sweep_empty_axis(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), "--axis", "snr_db"]) == 0
        assert (tmp_path / "sweep.csv").read_text() == "axis,system,se_bps_hz,aux\n"

    def test_gap_csv(self, tmp_path):
        assert main(["gap", "--out", str(tmp_path), "--values", "50,100",
                     "--elems", "4,8"]) == 0
        lines = (tmp_path / "gap.csv").read_text().strip().split("\n")
        assert lines[0] == "D_m,K,epsilon"
        assert [line.split(",")[:2] for line in lines[1:]] \
            == [["50.0", "4"], ["100.0", "4"], ["50.0", "8"], ["100.0", "8"]]

    def test_gap_computed_once_per_elems_and_distance(self, tmp_path, monkeypatch):
        # the aligned-pair gap does not depend on p: each (K, D) is computed
        # once and written on one row, in call order
        calls = []
        real = cli.chan.approx_gap

        def recorded(tx, rx, params, **kwargs):
            eps = real(tx, rx, params, **kwargs)
            calls.append([repr(params.distance_m), str(tx.elems_per_cell), repr(float(eps))])
            return eps

        monkeypatch.setattr(cli.chan, "approx_gap", recorded)
        assert main(["gap", "--out", str(tmp_path), "--values", "50,100,200",
                     "--elems", "4,8"]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "gap.csv").read_text().strip().split("\n")[1:]]
        assert len(calls) == 2 * 3
        assert rows == calls

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("distance_m = -1\n")
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["geometry"], ["loopback", "--frames", "2"]])
    def test_cell_too_small_for_its_elements_exits_nonzero(self, tmp_path, capsys, command):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("tx_ratio = 1e-10\nrx_ratio = 1e-10\n")
        assert main([command[0], "--config", str(cfg), "--out", str(tmp_path / "out"),
                     *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ratio 1e-10 is too small")
        assert err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_unequal_element_counts_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "unequal.cfg"
        cfg.write_text("tx_elems = 8\nrx_elems = 4\n")
        assert main(["loopback", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tx_elems (8) and rx_elems (4) must be equal")
        assert not (tmp_path / "loopback.csv").exists()

    @pytest.mark.parametrize("line", ["distance_m = nan", "snr_db = nan", "snr_db = inf"])
    def test_non_finite_config_sweep_exits_nonzero(self, tmp_path, capsys, line):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                     "--axis", "distance_m", "--values", "50,100"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]} must be finite")
        assert not (tmp_path / "sweep.csv").exists()

    def test_nan_axis_value_exits_nonzero(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), "--axis", "snr_db",
                     "--values", "10,nan,20"]) == 1
        assert "axis values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("systems", [",", ""])
    def test_empty_system_list_exits_nonzero(self, tmp_path, capsys, systems):
        # a --systems value that names no system would write a header-only
        # sweep.csv
        assert main(["sweep", "--out", str(tmp_path), "--axis", "snr_db",
                     "--values", "0,10", "--systems", systems]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no systems: name at least one of")
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gap", "--values=,"], "--values ',' names no value"),
        (["gap", "--values", ""], "--values '' names no value"),
        (["gap", "--elems=,"], "--elems ',' names no value"),
        (["sweep", "--axis", "snr_db", "--values=,"], "--values ',' names no value"),
        (["gap", "--values", "abc"], "--values names 'abc', which is not a number"),
        (["gap", "--elems", "4.0"], "--elems names '4.0', which is not an integer"),
        (["gap", "--elems", "0"], "--elems names 0, but element counts must be >= 1"),
        (["gap", "--elems", "-4"], "--elems names -4, but element counts must be >= 1"),
        (["gap", "--elems", "4, 8,0"], "--elems names 0, but element counts must be >= 1"),
        (["sweep", "--axis", "snr_db", "--values", "0, x"],
         "--values names 'x', which is not a number"),
    ], ids=["gap_values_comma", "gap_values_empty", "gap_elems_comma", "sweep_values_comma",
            "gap_values_word", "gap_elems_float", "gap_elems_zero", "gap_elems_negative",
            "gap_elems_zero_in_list", "sweep_values_word"])
    def test_empty_value_list_exits_nonzero(self, tmp_path, capsys, argv, message):
        # a list flag that names no value would write a header-only CSV, or
        # (gap --values "") run the default grid; a token the flag cannot
        # use is named with its flag, not by a Python conversion error or a
        # config key the command line never set
        assert main([argv[0], "--out", str(tmp_path), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_system_exits_nonzero(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), "--axis", "snr_db",
                     "--values", "0,10", "--systems", "qf_uca,qf_uca"]) == 1
        err = capsys.readouterr().err
        assert err == "error: repeated systems: ['qf_uca']\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--values", "50,100,50.0"], "repeated distances: [50.0]"),
        (["--values", "50", "--elems", "4,8,4"], "repeated element counts: [4]"),
    ], ids=["distance", "elems"])
    def test_repeated_gap_value_exits_nonzero(self, tmp_path, capsys, flags, message):
        # a repeated value would write duplicate gap.csv rows
        assert main(["gap", "--out", str(tmp_path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "gap.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_variance_exits_nonzero(self, tmp_path, capsys, value):
        assert main(["loopback", "--out", str(tmp_path), "--frames", "2",
                     "--noise-variance", value]) == 1
        assert capsys.readouterr().err.startswith("error: noise variance must be finite")
        assert not (tmp_path / "loopback.csv").exists()

    @pytest.mark.parametrize("values", ["inf", "nan", "50,1e400"])
    def test_non_finite_gap_distance_exits_nonzero(self, tmp_path, capsys, values):
        assert main(["gap", "--out", str(tmp_path), "--values", values,
                     "--elems", "4"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: distance, wavelength, beta, and frequency must be finite")
        assert not (tmp_path / "gap.csv").exists()

    @pytest.mark.parametrize("config, argv", [
        ("", ["gap", "--elems", "130", "--values", "100"]),
        ("tx_elems = 130\nrx_elems = 130\nlambda_path = bessel\n", ["loopback", "--frames", "1"]),
    ], ids=["gap", "loopback_bessel"])
    def test_elements_past_the_matched_bessel_orders_exit_nonzero(self, tmp_path, capsys,
                                                                  config, argv):
        # 130 elements per cell need J_65, one order past bessel_j's: the
        # error names the element count, not the Bessel order alone
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 130 elements per cell need Bessel orders up to 65")
        assert "bessel_order = first" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("config, elems", [("", "129"), ("bessel_order = first\n", "130")],
                             ids=["matched_129", "first_130"])
    def test_elements_within_the_bessel_orders_run(self, tmp_path, config, elems):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        assert main(["gap", "--config", str(cfg), "--out", str(tmp_path),
                     "--elems", elems, "--values", "100"]) == 0
        assert (tmp_path / "gap.csv").exists()

    @pytest.mark.parametrize("config, argv, prefix", [
        ("distance_m = 1e-300\n", ["loopback", "--frames", "1"], "distance 1e-300 m is too short"),
        ("", ["sweep", "--axis", "distance_m", "--values", "1e-300,1"],
         "distance 1e-300 m is too short"),
        ("", ["gap", "--values", "0.01", "--elems", "4"], "distance 0.01 m is too short"),
        ("distance_m = 0.01\nlambda_path = bessel\n", ["loopback", "--frames", "1"],
         "distance 0.01 m is too short"),
        ("distance_m = 1e200\n", ["loopback", "--frames", "1"], "distance 1e+200 m is too long"),
        ("distance_m = 1e200\n", ["sweep", "--axis", "snr_db", "--values", "15"],
         "distance 1e+200 m is too long"),
        ("", ["gap", "--values", "1e200", "--elems", "4"], "distance 1e+200 m is too long"),
        # lambda D underflows to 0, or to a subnormal that the Bessel
        # argument overflows past
        (LAMBDA_D_UNDERFLOW, ["gap", f"--values={TINY_D}", "--elems", "1"],
         f"distance {TINY_D} m is too short for the Bessel route at wavelength"),
        (LAMBDA_D_UNDERFLOW + f"distance_m = {TINY_D}\nlambda_path = bessel\n",
         ["loopback", "--frames", "1"],
         f"distance {TINY_D} m is too short for the Bessel route at wavelength"),
        ("n_cells = 6\ntx_elems = 3\nrx_elems = 3\nfreq_hz = 3e168\n",
         ["gap", "--values=1e-160", "--elems", "3"], "distance 1e-160 m is too short"),
        # a transmit cell 1e-310 of the receive cell keeps the Bessel
        # argument small while the Fresnel phase overflows
        (TINY_TX_CELL, ["gap", "--values=1e-154", "--elems", "1"], FRESNEL_OVERFLOW),
        (TINY_TX_CELL + "distance_m = 1e-154\nlambda_path = bessel\n",
         ["loopback", "--frames", "1"], FRESNEL_OVERFLOW),
    ], ids=["loopback", "sweep", "gap", "loopback_bessel", "loopback_overflow",
            "sweep_overflow", "gap_overflow", "gap_lambda_d_zero",
            "loopback_bessel_lambda_d_zero", "gap_lambda_d_subnormal",
            "gap_fresnel_phase_overflow", "loopback_bessel_fresnel_phase_overflow"])
    def test_distance_the_routes_cannot_evaluate_exits_nonzero(
            self, tmp_path, capsys, config, argv, prefix):
        # a squared boresight gain or distance past the float range, or a
        # Bessel argument past bessel_j's: one error line naming the
        # distance, no warning
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("config, argv, prefix", [
        ("snr_db = 4000\n", ["loopback", "--frames", "1"], "snr_db 4000.0 "),
        ("", ["sweep", "--axis", "snr_db", "--values", "0,4000"], "snr_db 4000.0 "),
        ("snr_db = -4000\n", ["loopback", "--frames", "1"], "snr_db -4000.0 "),
        ("snr_db = -4000\n", ["sweep", "--axis", "distance_m", "--values", "100"],
         "snr_db -4000.0 "),
        ("qf_radius_m = 1e160\n", ["loopback", "--frames", "1"],
         "antenna radius 1e+160 m is too large"),
        ("qf_radius_m = 1e160\n", ["sweep", "--axis", "snr_db", "--values", "15"],
         "antenna radius 1e+160 m is too large"),
        (FAR_AND_WIDE, ["loopback", "--frames", "1"], DISTANCE_AND_RADIUS),
        (FAR_AND_WIDE, ["sweep", "--axis", "snr_db", "--values", "15"], DISTANCE_AND_RADIUS),
        ("qf_radius_m = 3e153\n", ["sweep", "--axis", "distance_m", "--values", "1.3e154"],
         DISTANCE_AND_RADIUS),
        ("qf_radius_m = 3e153\n", ["gap", "--values", "1.3e154", "--elems", "4"],
         DISTANCE_AND_RADIUS),
        ("snr_db = -3200\n", ["loopback", "--frames", "1"],
         "snr_db -3200.0 with total_power 1.0 "),
        ("snr_db = -3200\n", ["sweep", "--axis", "distance_m", "--values", "100"],
         "snr_db -3200.0 with total_power 1.0 "),
        ("total_power = 1e300\n", ["sweep", "--axis", "snr_db", "--values", "-200"],
         "snr_db -200.0 with total_power 1e+300 "),
        ("", ["sweep", "--axis", "freq_hz", "--values", "1e200"],
         "distance 100.0 m, wavelength 2.99792458e-192 m and beta 1.0 put the squared "
         "boresight gain"),
        ("freq_hz = 1e200\n", ["loopback", "--frames", "1"],
         "distance 100.0 m, wavelength 2.99792458e-192 m and beta 1.0 put the squared "
         "boresight gain"),
        ("", ["sweep", "--axis", "freq_hz", "--values", "1e-200"],
         "distance 100.0 m, wavelength 2.99792458e+208 m and beta 1.0 put the squared "
         "boresight gain"),
        ("beta = 1e-200\n", ["sweep", "--axis", "snr_db", "--values", "15"],
         "distance 100.0 m, wavelength 0.05168835482758621 m and beta 1e-200 put"),
        ("beta = 1e-300\n", ["gap", "--values", "100", "--elems", "4"],
         "distance 100.0 m, wavelength 0.05168835482758621 m and beta 1e-300 put"),
        ("beta = 1e200\n", ["loopback", "--frames", "1"],
         "distance 100.0 m, wavelength 0.05168835482758621 m and beta 1e+200 put"),
        ("total_power = 1e-320\n", ["sweep", "--axis", "snr_db", "--values", "15"],
         "snr_db 15.0 with total_power 1e-320 "),
        ("total_power = 1e-320\n", ["loopback", "--frames", "1"],
         "snr_db 15.0 with total_power 1e-320 "),
        # sigma^2 is anchored at 1e100 m, so the 1e-100 m point's SNR overflows
        ("distance_m = 1e100\n", ["sweep", "--axis", "distance_m", "--values", "1e-100,1.0"],
         "spectrum efficiency overflows: a mode's SNR |Lambda|^2 P / sigma^2 leaves"),
        ("distance_m = 1e100\n", ["sweep", "--axis", "distance_m", "--values", "1e-100,1.0",
                                   "--systems", "siso_xN"],
         "spectrum efficiency overflows: the SNR at distance 1e-100 m with noise variance"),
        # a finite linear SNR whose ring array gain overflows a mode's SNR
        ("", ["sweep", "--axis", "snr_db", "--values", "3080"],
         "spectrum efficiency overflows: a mode's SNR |Lambda|^2 P / sigma^2 leaves"),
    ], ids=["loopback_snr_overflow", "sweep_snr_overflow", "loopback_snr_underflow",
            "sweep_snr_underflow", "loopback_radius", "sweep_radius",
            "loopback_distance_and_radius", "sweep_distance_and_radius",
            "distance_sweep_distance_and_radius", "gap_distance_and_radius",
            "loopback_sigma2", "sweep_sigma2", "sweep_sigma2_total_power",
            "freq_sweep_gain_underflow", "loopback_freq_gain_underflow",
            "freq_sweep_gain_overflow", "sweep_beta_gain_underflow",
            "gap_beta_gain_underflow", "loopback_beta_gain_overflow",
            "sweep_sigma2_underflow", "loopback_sigma2_underflow",
            "distance_sweep_snr_overflow", "distance_sweep_siso_snr_overflow",
            "snr_sweep_ring_snr_overflow"])
    def test_value_past_the_float_range_exits_nonzero(
            self, tmp_path, capsys, config, argv, prefix):
        # a linear SNR, a squared element offset, element distance or
        # boresight gain, a noise variance or a mode's SNR that leaves the
        # float range:
        # one error line naming the values, no traceback, no CSV
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("config, argv", [
        ("qf_radius_m = 1e150\n", ["loopback", "--frames", "1"]),
        ("qf_radius_m = 1e150\n", ["sweep", "--axis", "snr_db", "--values", "15"]),
        ("distance_m = 1e154\nqf_radius_m = 1e150\n", ["loopback", "--frames", "1"]),
        ("distance_m = 1e154\nqf_radius_m = 1e150\n",
         ["sweep", "--axis", "snr_db", "--values", "15"]),
    ], ids=["argv0", "argv1", "far_loopback", "far_sweep"])
    def test_large_radius_within_the_float_range_runs(self, tmp_path, config, argv):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        assert main([argv[0], "--config", str(cfg), "--out", str(tmp_path), *argv[1:]]) == 0
        for path in tmp_path.glob("*.csv"):
            assert "nan" not in path.read_text()

    def test_negative_frame_count_exits_nonzero(self, tmp_path, capsys):
        assert main(["loopback", "--out", str(tmp_path), "--frames", "-5"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: frame count must be nonnegative, got -5")
        assert not (tmp_path / "loopback.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--frames", "-5"], "frame count must be nonnegative, got -5"),
        (["--noise-variance", "nan"], "noise variance must be finite"),
        (["--noise-variance", "inf"], "noise variance must be finite"),
    ])
    def test_bad_loopback_flags_rejected_before_the_link_build(
            self, tmp_path, capsys, monkeypatch, flags, message):
        def no_link(*args, **kwargs):
            raise AssertionError("build_link ran before the flags were checked")

        monkeypatch.setattr(cli, "build_link", no_link)
        assert main(["loopback", "--out", str(tmp_path)] + flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_zero_frames_is_an_empty_run(self, tmp_path, capsys):
        assert main(["loopback", "--out", str(tmp_path), "--frames", "0"]) == 0
        assert (tmp_path / "loopback.csv").read_text() == "frame,symbol_errors,symbols\n"
        assert "symbol errors: 0/0  SER: 0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("frames", [0, 5])
    def test_degenerate_count_is_the_link_mode_count(self, tmp_path, capsys, frames):
        # 6x3 has N/2 = 3 null receive modes of its 18, however many frames run
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n_cells = 6\ntx_elems = 3\nrx_elems = 3\n")
        assert main(["loopback", "--config", str(cfg), "--out", str(tmp_path),
                     "--frames", str(frames)]) == 0
        out = capsys.readouterr().out
        assert "degenerate modes: 3  " in out
        assert f"/{frames * 15}  SER" in out

    @pytest.mark.parametrize("layout, frames", [((6, 3), 3), ((3, 1), 2)])
    def test_frame_rows_sum_to_the_printed_symbols(self, tmp_path, capsys, layout, frames):
        # both layouts have degenerate modes, which no frame row counts
        n, k = layout
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"n_cells = {n}\ntx_elems = {k}\nrx_elems = {k}\n")
        assert main(["loopback", "--config", str(cfg), "--out", str(tmp_path),
                     "--frames", str(frames)]) == 0
        printed = capsys.readouterr().out.split("symbol errors: ")[1].split()[0]
        with open(tmp_path / "loopback.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == frames
        errors = sum(int(row["symbol_errors"]) for row in rows)
        assert printed == f"{errors}/{sum(int(row['symbols']) for row in rows)}"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("snr_db = 12\nseed = 7\n")
        for sub in ("a", "b"):
            assert main(["sweep", "--config", str(cfg), "--out",
                         str(tmp_path / sub), "--axis", "snr_db",
                         "--values", "0,10,20",
                         "--systems", "qf_uca,uca_n,siso_xN"]) == 0
            assert main(["loopback", "--config", str(cfg), "--out",
                         str(tmp_path / sub), "--frames", "2"]) == 0
        for name in ("sweep.csv", "loopback.csv", "modes.csv", "channel.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_seed_flag_overrides(self, tmp_path):
        assert main(["loopback", "--out", str(tmp_path / "s1"), "--frames", "1",
                     "--seed", "1"]) == 0
        assert main(["loopback", "--out", str(tmp_path / "s2"), "--frames", "1",
                     "--seed", "2"]) == 0
        a = (tmp_path / "s1" / "loopback.csv").read_text()
        b = (tmp_path / "s2" / "loopback.csv").read_text()
        # different seeds draw different symbols; per-mode tables are seedless
        assert (tmp_path / "s1" / "modes.csv").read_text() \
            == (tmp_path / "s2" / "modes.csv").read_text()
        assert a.split("\n")[0] == b.split("\n")[0]


def _key_values(key):
    # the whole positive float range, with a band where most commands run
    if key == "snr_db":
        return st.floats(-3000.0, 3000.0)
    return st.one_of(st.floats(5e-324, 1e300), st.floats(0.05, 1e4))


def run_cli(argv):
    """Exit code, stderr and the CSV rows that `main` leaves under a fresh
    output directory, with every RuntimeWarning raised as an error."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text(argv[0])
        code = main([argv[1], "--config", str(cfg), "--out", str(Path(tmp) / "out"), *argv[2:]])
        tables = {path.name: list(csv.reader(path.open())) for path in Path(tmp).rglob("*.csv")}
    return code, err.getvalue(), tables


class TestExitContract:
    # 1 to 3 float keys over their whole range, every grid and route, every
    # command: exit 0 with only finite CSV cells (but the gap's documented
    # inf), or exit 1 with one error line and no CSV; no warning, nothing
    # raised
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(overrides=st.lists(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=3, unique=True)
           .flatmap(lambda keys: st.fixed_dictionaries({k: _key_values(k) for k in keys})),
           grid=st.tuples(st.integers(3, 6), st.sampled_from([1, 2, 3, 4, 6, 8])),
           route=st.tuples(st.sampled_from(["exact", "bessel"]),
                           st.sampled_from(["matched", "first"]), st.booleans()),
           command=st.sampled_from(["loopback", "sweep", "gap", "geometry"]),
           axis=st.sampled_from(metrics.SWEEP_AXES),
           values=st.lists(st.one_of(_key_values("distance_m"), _key_values("snr_db")),
                           min_size=1, max_size=3))
    # lambda D underflows to 0 on the Bessel route
    @example(overrides={"freq_hz": 6.642490972796287e+283}, grid=(6, 1),
             route=("exact", "matched", True), command="gap", axis="snr_db",
             values=[1.5274334733869842e-153])
    def test_every_command_exits_0_or_1_cleanly(self, overrides, grid, route, command,
                                                axis, values):
        n, k = grid
        lambda_path, order, correction = route
        config = "".join(f"{key} = {value!r}\n" for key, value in overrides.items()) \
            + f"n_cells = {n}\ntx_elems = {k}\nrx_elems = {k}\nlambda_path = {lambda_path}\n" \
            f"bessel_order = {order}\nbessel_correction = {'on' if correction else 'off'}\n"
        # a list is attached to its flag: argparse reads "-10,0" as an option
        joined = ",".join(repr(v) for v in sorted(set(values)))
        flags = {"geometry": [], "gap": [f"--values={joined}", f"--elems={k}"],
                 "loopback": ["--frames", "2"],
                 "sweep": ["--axis", axis, f"--values={joined}"]}[command]
        code, err, tables = run_cli([config, command, *flags])
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not tables
            return
        assert code == 0 and not err
        for name, rows in tables.items():
            for row in rows[1:]:
                for column, cell in zip(rows[0], row):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value) or (name, column, value) \
                        == ("gap.csv", "epsilon", math.inf), (name, column, cell)
