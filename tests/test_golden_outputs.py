"""Golden-output guard: the sha256 of every CSV the CLI writes for a fixed
command set.

The set is the criterion-10 commands plus a distance sweep, a frequency
sweep, a noisy loopback and the default gap study, all on the criterion-10
scenario, a distance, a frequency and an SNR sweep at the 8x16 grid, where
the single-ring baselines have 97 and 128 elements (the rounding of their
wrapped-diagonal sums and FFTs depends on the ring size; the SNR sweep reuses
one QF-UCA link and recomputes the ring gains at each point), a noisy loopback
at the 8x16 grid, whose modes.csv holds the gains of all 8 exact transforms,
a one-point distance sweep at the 16x32 grid, whose 385- and 512-element
rings are streamed in 19 and 32 row blocks, a loopback on the Bessel-route
detection coefficients (lambda_path = bessel), and a gap study and a
Bessel-route loopback with the first-order, uncorrected closed form
(bessel_order = first, bessel_correction = off).  The stdout of the commands
whose printout names no path (the loopbacks and `geometry`) is pinned as
text.  A change that alters any output byte on purpose must say so in
CHANGES.md and re-record the hashes and printouts with
`python tests/test_golden_outputs.py`.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from qfuca.cli import main as cli_main

SCENARIO = "snr_db = 15\nseed = 11\nqf_radius_m = 1.0\n"
GRID_8X16 = SCENARIO + "n_cells = 8\ntx_elems = 16\nrx_elems = 16\n"
GRID_16X32 = SCENARIO + "n_cells = 16\ntx_elems = 32\nrx_elems = 32\n"
BESSEL = SCENARIO + "lambda_path = bessel\n"
FIRST_UNCORRECTED = SCENARIO + "bessel_order = first\nbessel_correction = off\n"

COMMANDS = {
    "geometry": ("geometry",),
    "gap_criterion_10": ("gap", "--values", "50,100", "--elems", "4"),
    "loopback_criterion_10": ("loopback", "--frames", "3"),
    "sweep_snr_criterion_10": ("sweep", "--axis", "snr_db", "--values", "0,15,30"),
    "sweep_distance": ("sweep", "--axis", "distance_m", "--values", "20,50,100,200"),
    "sweep_freq": ("sweep", "--axis", "freq_hz", "--values", "2.4e9,5.8e9"),
    "loopback_noisy": ("loopback", "--frames", "20", "--noise-variance", "1e-12"),
    "gap_default": ("gap",),
    "sweep_distance_8x16": ("sweep", "--axis", "distance_m", "--values", "25,100,400"),
    "sweep_freq_8x16": ("sweep", "--axis", "freq_hz", "--values", "2.4e9,5.8e9,28e9"),
    "sweep_snr_8x16": ("sweep", "--axis", "snr_db", "--values", "0,15,29"),
    "sweep_distance_16x32": ("sweep", "--axis", "distance_m", "--values", "100"),
    "loopback_noisy_8x16": ("loopback", "--frames", "20", "--noise-variance", "1e-12"),
    "loopback_bessel": ("loopback", "--frames", "3"),
    "gap_first_uncorrected": ("gap", "--values", "50,100", "--elems", "4,8"),
    "loopback_bessel_first_uncorrected": ("loopback", "--frames", "3"),
}

# commands run on another scenario than SCENARIO
SCENARIOS = {"sweep_distance_8x16": GRID_8X16, "sweep_freq_8x16": GRID_8X16,
             "sweep_snr_8x16": GRID_8X16,
             "loopback_noisy_8x16": GRID_8X16, "sweep_distance_16x32": GRID_16X32,
             "loopback_bessel": BESSEL, "gap_first_uncorrected": FIRST_UNCORRECTED,
             "loopback_bessel_first_uncorrected": FIRST_UNCORRECTED
             + "lambda_path = bessel\n"}

GOLDEN = {
    'gap_criterion_10': {
        'gap.csv':
            '9684b91b393b1b727068eebaea67a874ceb7b39d8ba1a76346aa4bfaa1d37525',
    },
    'gap_default': {
        'gap.csv':
            'c9ecb4d80852fcb7ca78f180eb76abf7c1849bd49f0a507c44a021475c1d1cc8',
    },
    'gap_first_uncorrected': {
        'gap.csv':
            '4c779a460aa113aa0952ddc40abea8b826533140c9f459d3c91771cd5f8f2331',
    },
    'geometry': {
        'rx_layout.csv':
            '1279bf87d7895480290d4543cbff04bcfbd1a25cf8ab440338acc02b0fd8cb63',
        'tx_layout.csv':
            '1279bf87d7895480290d4543cbff04bcfbd1a25cf8ab440338acc02b0fd8cb63',
    },
    'loopback_bessel': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '731b3b1c74cb5371cced627695e2c6313913e7bb8ab838907b6d38c97870e50f',
        'modes.csv':
            'a7f5c2ac8b5cbf60fc0a2ad2fb4a134a8ef5175b764b1c903c32817e3e0d1236',
    },
    'loopback_bessel_first_uncorrected': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            'f3e8c7435f9d632f9468a132dbbeeab703a21f2f42b9b2e858ee5be3f9e841a3',
        'modes.csv':
            '51eeead93075e1d92299c021b550ac4a50b2d01bd98aa74adfb275635660667f',
    },
    'loopback_criterion_10': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '7d93e5467d234bc5436ac5ee137a47ce2f32b8c0269df800e1f3edd636721665',
        'modes.csv':
            'dbc54cd54ef946903d767808909dde0a3407c791cd96c3dae6591a2ba1bc0e6a',
    },
    'loopback_noisy': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '0f51c8ef78ef6ab9da7c6e3dca9ca0efc3d8d73865139b23397b0153091b27de',
        'modes.csv':
            'dbc54cd54ef946903d767808909dde0a3407c791cd96c3dae6591a2ba1bc0e6a',
    },
    'loopback_noisy_8x16': {
        'channel.csv':
            '6984e37a537a6d848af9e7963f1e869a4764382b80666c671326248e9f0b37a5',
        'loopback.csv':
            '216cc506d52e48578d8a6ee9af16355380eb4b5f86a11e13cdfd79d5ac5ddb22',
        'modes.csv':
            'b737cdca63404196c8451bc8c8aa9ac9c6019e91c26f3b0a0c7cf6dcd4c6e548',
    },
    'sweep_distance': {
        'sweep.csv':
            '01895185cca0c92eed40bca32ab919bcd25bf9bd6346db9bac39387c0be3e1aa',
    },
    'sweep_distance_16x32': {
        'sweep.csv':
            '6ba35a2580f91d3d57279dc7ca841b49648096a4361669f3d78cb2c249c3ebc1',
    },
    'sweep_distance_8x16': {
        'sweep.csv':
            '84c040840b4fd932f5825e2545cc7c5a60c6734336aad8c5acb1bfadfb530adf',
    },
    'sweep_freq': {
        'sweep.csv':
            'fbc1e3cc546380d2609156a2cdd3e38f4f92c7dd2b12e1b33341a4c414b74301',
    },
    'sweep_freq_8x16': {
        'sweep.csv':
            '64d65b3cd2e2e0ff10432989c8d1c5340072c7458bc0121d0f182dd855e57022',
    },
    'sweep_snr_8x16': {
        'sweep.csv':
            '432f764cc366475b9250669617d7ab166b529f691cac11f30e13a8b9d325462f',
    },
    'sweep_snr_criterion_10': {
        'sweep.csv':
            'e534fce91125d5acb8eaca8305c96ba758d07dbd3723607edef1eab0e04c1dc0',
    },
}

# the printout of every command of the set that names no output path
STDOUT = {
    'geometry':
        'tx: 9 physical elements, sharing [1, 2, 4, 2]\n'
        'rx: 9 physical elements, sharing [1, 2, 4, 2]\n',
    'loopback_bessel':
        'frames: 3  symbol errors: 26/48  SER: 0.5416666666666666\n'
        'degenerate modes: 0  max interference-to-signal: 2.770659093074573\n'
        'ML near-ties: 0\n',
    'loopback_bessel_first_uncorrected':
        'frames: 3  symbol errors: 36/48  SER: 0.75\n'
        'degenerate modes: 0  max interference-to-signal: 12.74027438845331\n'
        'ML near-ties: 0\n',
    'loopback_criterion_10':
        'frames: 3  symbol errors: 27/48  SER: 0.5625\n'
        'degenerate modes: 0  max interference-to-signal: 3.000000000000006\n'
        'ML near-ties: 4\n',
    'loopback_noisy':
        'frames: 20  symbol errors: 136/320  SER: 0.425\n'
        'degenerate modes: 0  max interference-to-signal: 3.000000000000006\n'
        'ML near-ties: 0\n',
    'loopback_noisy_8x16':
        'frames: 20  symbol errors: 1588/2560  SER: 0.6203125\n'
        'degenerate modes: 0  max interference-to-signal: 7434.2579659445\n'
        'ML near-ties: 0\n',
}


def run_hashes(name: str, work: Path) -> dict:
    """Run one command of the set under `work`; sha256 of each CSV written."""
    cfg = work / "scenario.cfg"
    cfg.write_text(SCENARIOS.get(name, SCENARIO), encoding="utf-8")
    out = work / name
    command, *rest = COMMANDS[name]
    assert cli_main([command, "--config", str(cfg), "--out", str(out), *rest]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_match_golden_hashes(tmp_path, name):
    assert run_hashes(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_matches_golden(tmp_path, capsys, name):
    run_hashes(name, tmp_path)
    assert capsys.readouterr().out == STDOUT[name]


if __name__ == "__main__":
    recorded, printed = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                recorded[name] = run_hashes(name, Path(tmp))
            printed[name] = buf.getvalue()
    sys.stdout.write("GOLDEN = {\n")
    for name, hashes in recorded.items():
        sys.stdout.write(f"    {name!r}: {{\n")
        for fname, digest in hashes.items():
            sys.stdout.write(f"        {fname!r}:\n            {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n\nSTDOUT = {\n")
    for name in sorted(STDOUT):
        lines = printed[name].splitlines(keepends=True)
        sys.stdout.write(f"    {name!r}:\n")
        sys.stdout.write("".join(f"        {line!r}\n" for line in lines[:-1]))
        sys.stdout.write(f"        {lines[-1]!r},\n")
    sys.stdout.write("}\n")
