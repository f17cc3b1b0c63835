"""Golden-output guard: the sha256 of every CSV the CLI writes for a fixed
command set.

The set is the criterion-10 commands plus a distance sweep, a frequency
sweep, a noisy loopback and the default gap study, all on the criterion-10
scenario, a distance and a frequency sweep at the 8x16 grid, where the
single-ring baselines have 97 and 128 elements (the rounding of their
wrapped-diagonal sums and FFTs depends on the ring size), a noisy loopback
at the 8x16 grid, whose modes.csv holds the gains of all 8 exact transforms,
a one-point distance sweep at the 16x32 grid, whose 385- and 512-element
rings are streamed in 7 and 8 row blocks, and a loopback on the Bessel-route
detection coefficients (lambda_path = bessel).  A change that alters any output
byte on purpose must say so in CHANGES.md and re-record the hashes with
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
    "sweep_distance_16x32": ("sweep", "--axis", "distance_m", "--values", "100"),
    "loopback_noisy_8x16": ("loopback", "--frames", "20", "--noise-variance", "1e-12"),
    "loopback_bessel": ("loopback", "--frames", "3"),
}

# commands run on another scenario than SCENARIO
SCENARIOS = {"sweep_distance_8x16": GRID_8X16, "sweep_freq_8x16": GRID_8X16,
             "loopback_noisy_8x16": GRID_8X16, "sweep_distance_16x32": GRID_16X32,
             "loopback_bessel": BESSEL}

GOLDEN = {
    'gap_criterion_10': {
        'gap.csv':
            '7ab5c796bc1a4a46889072b8f74bb6651fb5c0bdcbddb72c29f4097b58cd6360',
    },
    'gap_default': {
        'gap.csv':
            '5ab170cf46a44fdbbc77256d8eee1720998b069ef012a77c1b8cb74e28389695',
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
            'f5633aa8dd43b337a1f5395a43dbb333b3774a5c4303c392d41916a253faef52',
    },
    'loopback_criterion_10': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '7d93e5467d234bc5436ac5ee137a47ce2f32b8c0269df800e1f3edd636721665',
        'modes.csv':
            '956caeb6a860e2c3ab85517a3e02cd9b2101f149b4adce8de68361ea9ca7acce',
    },
    'loopback_noisy': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '0f51c8ef78ef6ab9da7c6e3dca9ca0efc3d8d73865139b23397b0153091b27de',
        'modes.csv':
            '956caeb6a860e2c3ab85517a3e02cd9b2101f149b4adce8de68361ea9ca7acce',
    },
    'loopback_noisy_8x16': {
        'channel.csv':
            '6984e37a537a6d848af9e7963f1e869a4764382b80666c671326248e9f0b37a5',
        'loopback.csv':
            '216cc506d52e48578d8a6ee9af16355380eb4b5f86a11e13cdfd79d5ac5ddb22',
        'modes.csv':
            '40e85412e24db052ce760d87df015e3c5d1fc7dd217bf05f1bdd25b72e430be8',
    },
    'sweep_distance': {
        'sweep.csv':
            'ca603d2389e62b83bee1eb63161080ce334f139bc903b79b269bdf180338a378',
    },
    'sweep_distance_16x32': {
        'sweep.csv':
            '03ca75d52ed5c7f5a7df786ec4371ba9f66886297be711a03712dfdb9ab5a9b1',
    },
    'sweep_distance_8x16': {
        'sweep.csv':
            '9b17779248e97eabe0f171707d5e12bc0189c2c44b1444b42485665565fd8742',
    },
    'sweep_freq': {
        'sweep.csv':
            'fbc1e3cc546380d2609156a2cdd3e38f4f92c7dd2b12e1b33341a4c414b74301',
    },
    'sweep_freq_8x16': {
        'sweep.csv':
            'bb0d4692f6435a552fc7bbf53f0ec5bf15184dd0471ae5bc520884931926a673',
    },
    'sweep_snr_criterion_10': {
        'sweep.csv':
            'e534fce91125d5acb8eaca8305c96ba758d07dbd3723607edef1eab0e04c1dc0',
    },
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        recorded = {name: run_hashes(name, Path(tmp)) for name in sorted(COMMANDS)}
    sys.stdout.write("GOLDEN = {\n")
    for name, hashes in recorded.items():
        sys.stdout.write(f"    {name!r}: {{\n")
        for fname, digest in hashes.items():
            sys.stdout.write(f"        {fname!r}:\n            {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
