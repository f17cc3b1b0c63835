import filecmp
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from qfuca import cli
from qfuca.cli import main
from qfuca.config import Scenario, parse_config, serialize_scenario
from qfuca.errors import ConfigError

FLOAT_KEYS = [f.name for f in fields(Scenario) if isinstance(getattr(Scenario(), f.name), float)]

# each passes its own overflow check, but D^2 plus the squared element
# span (2 (R_Q + R))^2 overflows
FAR_AND_WIDE = "distance_m = 1.3e154\nqf_radius_m = 3e153\n"
DISTANCE_AND_RADIUS = "distance 1.3e+154 m and antenna radius 3e+153 m are too large together"


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
                     "--elems", "4"]) == 0
        lines = (tmp_path / "gap.csv").read_text().strip().split("\n")
        assert lines[0] == "D_m,K,p,epsilon"
        assert len(lines) == 1 + 2 * 4

    def test_gap_computed_once_per_elems_and_distance(self, tmp_path, count_calls):
        # the aligned-pair gap does not depend on p: each (K, D) is computed
        # once and written on its N rows
        calls = count_calls(cli.chan, "approx_gap")
        assert main(["gap", "--out", str(tmp_path), "--values", "50,100,200",
                     "--elems", "4,8"]) == 0
        assert len(calls) == 2 * 3
        rows = [line.split(",") for line in
                (tmp_path / "gap.csv").read_text().strip().split("\n")[1:]]
        assert len(rows) == 2 * 3 * 4
        for i in range(0, len(rows), 4):
            assert len({(r[0], r[1], r[3]) for r in rows[i:i + 4]}) == 1

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
    ], ids=["loopback", "sweep", "gap", "loopback_bessel", "loopback_overflow",
            "sweep_overflow", "gap_overflow"])
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
    ], ids=["loopback_snr_overflow", "sweep_snr_overflow", "loopback_snr_underflow",
            "sweep_snr_underflow", "loopback_radius", "sweep_radius",
            "loopback_distance_and_radius", "sweep_distance_and_radius",
            "distance_sweep_distance_and_radius", "gap_distance_and_radius",
            "loopback_sigma2", "sweep_sigma2", "sweep_sigma2_total_power"])
    def test_value_past_the_float_range_exits_nonzero(
            self, tmp_path, capsys, config, argv, prefix):
        # a linear SNR, a squared element offset or element distance, or a
        # noise variance that leaves the float range: one error line naming
        # the values, no traceback, no CSV
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
