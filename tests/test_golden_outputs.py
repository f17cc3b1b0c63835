"""Golden-output guard: the sha256 of every CSV the CLI writes for a fixed
command set.

The set is the criterion-10 commands plus a distance sweep, a frequency
sweep, a noisy loopback and the default gap study, all on the criterion-10
scenario.  A change that alters any output byte on purpose must say so in
CHANGES.md and re-record the hashes with `python tests/test_golden_outputs.py`.
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

COMMANDS = {
    "geometry": ("geometry",),
    "gap_criterion_10": ("gap", "--values", "50,100", "--elems", "4"),
    "loopback_criterion_10": ("loopback", "--frames", "3"),
    "sweep_snr_criterion_10": ("sweep", "--axis", "snr_db", "--values", "0,15,30"),
    "sweep_distance": ("sweep", "--axis", "distance_m", "--values", "20,50,100,200"),
    "sweep_freq": ("sweep", "--axis", "freq_hz", "--values", "2.4e9,5.8e9"),
    "loopback_noisy": ("loopback", "--frames", "20", "--noise-variance", "1e-12"),
    "gap_default": ("gap",),
}

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
    'sweep_distance': {
        'sweep.csv':
            '0385f18576b2d6ce1c82dff7c6433f6e43748936020c6ee0bcf9d30283ed6ac6',
    },
    'sweep_freq': {
        'sweep.csv':
            '9629009a806deef5bceb8efa09cf832fc9ab11d8ea24a6a30ce4f5385da5247a',
    },
    'sweep_snr_criterion_10': {
        'sweep.csv':
            '259b552e0cfeb246431ab522c429a7a0f89abebcccf76b2bd9b37cee73334236',
    },
}


def run_hashes(name: str, work: Path) -> dict:
    """Run one command of the set under `work`; sha256 of each CSV written."""
    cfg = work / "scenario.cfg"
    cfg.write_text(SCENARIO, encoding="utf-8")
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
