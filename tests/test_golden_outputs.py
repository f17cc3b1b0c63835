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
detection coefficients (lambda_path = bessel), a gap study and a
Bessel-route loopback with the first-order, uncorrected closed form
(bessel_order = first, bessel_correction = off), a noisy loopback at the
6x3 grid, whose 3 degenerate modes no frame row counts, and loopbacks on the
other two alphabets: noisy 8x16 ones with 16-QAM and with BPSK, a
noiseless 16-QAM one on the criterion-10 scenario, whose rank-deficient
branches put decisions on exact ties (36 near-ties), and a noisy 70-frame
loopback at the 8x16 grid with unequal antennas (rx_ratio = 0.5: 97
transmit and 128 receive elements), the one golden whose frames span
several of the engine's blocks and whose exact transforms are not
symmetric.  The stdout of the
commands whose printout names no path (the loopbacks and `geometry`) is
pinned as text.  A change that alters any output byte on purpose must say
so in CHANGES.md and re-record the hashes and printouts with
`python tests/test_golden_outputs.py`, which also prints the FINGERPRINT of
the numpy build they were recorded on.

The bytes are a function of the code, the numpy build and the SIMD targets
numpy dispatches to; every DFT is an FFT, so they do not depend on the
OpenBLAS kernel.  Two tiers hold that for the commands in PORTABLE, each in
fresh interpreters: under three forced OpenBLAS kernels every output is
byte-identical to the default run, and under numpy's dispatch cut to its
X86_V2 baseline every cell agrees to SIMD_RTOL.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import qfuca
from qfuca.cli import main as cli_main

SCENARIO = "snr_db = 15\nseed = 11\nqf_radius_m = 1.0\n"
GRID_8X16 = SCENARIO + "n_cells = 8\ntx_elems = 16\nrx_elems = 16\n"
GRID_16X32 = SCENARIO + "n_cells = 16\ntx_elems = 32\nrx_elems = 32\n"
BESSEL = SCENARIO + "lambda_path = bessel\n"
FIRST_UNCORRECTED = SCENARIO + "bessel_order = first\nbessel_correction = off\n"
GRID_6X3 = SCENARIO + "n_cells = 6\ntx_elems = 3\nrx_elems = 3\n"
QAM16 = SCENARIO + "constellation = 16qam\n"

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
    "loopback_degenerate_6x3": ("loopback", "--frames", "3", "--noise-variance", "1e-12"),
    "loopback_noisy_8x16_16qam": ("loopback", "--frames", "20", "--noise-variance", "1e-12"),
    "loopback_noisy_8x16_bpsk": ("loopback", "--frames", "20", "--noise-variance", "1e-12"),
    "loopback_16qam": ("loopback", "--frames", "20"),
    "loopback_unequal_8x16": ("loopback", "--frames", "70", "--noise-variance", "1e-12"),
}

# commands run on another scenario than SCENARIO
SCENARIOS = {"sweep_distance_8x16": GRID_8X16, "sweep_freq_8x16": GRID_8X16,
             "sweep_snr_8x16": GRID_8X16,
             "loopback_noisy_8x16": GRID_8X16, "sweep_distance_16x32": GRID_16X32,
             "loopback_bessel": BESSEL, "gap_first_uncorrected": FIRST_UNCORRECTED,
             "loopback_bessel_first_uncorrected": FIRST_UNCORRECTED
             + "lambda_path = bessel\n", "loopback_degenerate_6x3": GRID_6X3,
             "loopback_noisy_8x16_16qam": GRID_8X16 + "constellation = 16qam\n",
             "loopback_noisy_8x16_bpsk": GRID_8X16 + "constellation = bpsk\n",
             "loopback_16qam": QAM16,
             "loopback_unequal_8x16": GRID_8X16 + "rx_ratio = 0.5\n"}

# the numpy build the hashes and printouts were recorded on (`fingerprint`)
FINGERPRINT = {
    'numpy': '2.4.6',
    'simd': ['X86_V2', 'X86_V3', 'X86_V4', 'AVX512_ICL', 'AVX512_SPR'],
    'blas': 'scipy-openblas 0.3.31.188.0: OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64',
}

GOLDEN = {
    'gap_criterion_10': {
        'gap.csv':
            '16915b41fe4859d645070adee9799e7ddb824935cae95ff4d734a6fd4a659b09',
    },
    'gap_default': {
        'gap.csv':
            '533bbd4dcb6316d446fec11dffd825445f6c33766397c3bfc1cdcd41d0afaa54',
    },
    'gap_first_uncorrected': {
        'gap.csv':
            '13d9f0d2dcb2fa8b2725dcedbc9cc0596e316f357173c32bece3e28e3d20932e',
    },
    'geometry': {
        'rx_layout.csv':
            '1279bf87d7895480290d4543cbff04bcfbd1a25cf8ab440338acc02b0fd8cb63',
        'tx_layout.csv':
            '1279bf87d7895480290d4543cbff04bcfbd1a25cf8ab440338acc02b0fd8cb63',
    },
    'loopback_16qam': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '352c58480a6a5d92dbb24cb4b06818417a65162c1a5cc61057e19c849b56a3f4',
        'modes.csv':
            '3aaa3c54b6620d9a4c6095173317c03181f5c9a3982ce973116012c7a6f47fdc',
    },
    'loopback_bessel': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '731b3b1c74cb5371cced627695e2c6313913e7bb8ab838907b6d38c97870e50f',
        'modes.csv':
            'c160dbfdd3c9be79ec7c65aa7c8e09bd9fbb9f0dcd0637451c0c95871a0adba4',
    },
    'loopback_bessel_first_uncorrected': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            'f3e8c7435f9d632f9468a132dbbeeab703a21f2f42b9b2e858ee5be3f9e841a3',
        'modes.csv':
            '72300c099dc517796ada9ebc86953e987b71b8f138f96db4af9fa5ae96a718d2',
    },
    'loopback_criterion_10': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '7d93e5467d234bc5436ac5ee137a47ce2f32b8c0269df800e1f3edd636721665',
        'modes.csv':
            '3aaa3c54b6620d9a4c6095173317c03181f5c9a3982ce973116012c7a6f47fdc',
    },
    'loopback_degenerate_6x3': {
        'channel.csv':
            '844a01e5af75595e1a1f7be836399e3b19f2121c5308fdeb637970939f1c1cc4',
        'loopback.csv':
            '3b3803114d4954207c9a0c542a571140e44d6182fcbe85cb88244bcde8129a58',
        'modes.csv':
            '11e94fd00afc43c54e84a1a2a60293e08ee4fe20e00669e1e5e4fe1032e14317',
    },
    'loopback_noisy': {
        'channel.csv':
            'c75a9af55340b72fa0911bc450517d200155b460bcd9fce447f9303c08d447a3',
        'loopback.csv':
            '0f51c8ef78ef6ab9da7c6e3dca9ca0efc3d8d73865139b23397b0153091b27de',
        'modes.csv':
            '3aaa3c54b6620d9a4c6095173317c03181f5c9a3982ce973116012c7a6f47fdc',
    },
    'loopback_noisy_8x16': {
        'channel.csv':
            '6984e37a537a6d848af9e7963f1e869a4764382b80666c671326248e9f0b37a5',
        'loopback.csv':
            '216cc506d52e48578d8a6ee9af16355380eb4b5f86a11e13cdfd79d5ac5ddb22',
        'modes.csv':
            'a7c39b72fec7f46074feaf49b23e004fd733940d3807de708c3d8613b0664ec3',
    },
    'loopback_noisy_8x16_16qam': {
        'channel.csv':
            '6984e37a537a6d848af9e7963f1e869a4764382b80666c671326248e9f0b37a5',
        'loopback.csv':
            'f2ec5c9ea7b094dca4a7dd3008513994d33960ebad488cde998f744484593c00',
        'modes.csv':
            'a7c39b72fec7f46074feaf49b23e004fd733940d3807de708c3d8613b0664ec3',
    },
    'loopback_noisy_8x16_bpsk': {
        'channel.csv':
            '6984e37a537a6d848af9e7963f1e869a4764382b80666c671326248e9f0b37a5',
        'loopback.csv':
            '8a0b76680dfb89f59fe6758dc820cbf8f7aed86d37f6e753890d0b2e735fa90c',
        'modes.csv':
            'a7c39b72fec7f46074feaf49b23e004fd733940d3807de708c3d8613b0664ec3',
    },
    'loopback_unequal_8x16': {
        'channel.csv':
            '005a42dbb73fb83abf7f9d695a9d3aebfc0e0e4e5a34ec8d25628455f1d4215c',
        'loopback.csv':
            '138405c03e41e39643502bddf476213a620f9e04e2ffcb5fb4ada7358e61ea4e',
        'modes.csv':
            '39e6fb1c3a0af3e783c5a6d4b9de8f003e74196ab553f8b077db74a630fc0ce4',
    },
    'sweep_distance': {
        'sweep.csv':
            'aaa1f1e0b8ac0c1dad96ed2460841971718a620c555b690d72c94e072f4a394e',
    },
    'sweep_distance_16x32': {
        'sweep.csv':
            '03ca75d52ed5c7f5a7df786ec4371ba9f66886297be711a03712dfdb9ab5a9b1',
    },
    'sweep_distance_8x16': {
        'sweep.csv':
            '28b96e89e79be03c6c7659f7f9879775efa3e12634663c7afb51dd141b0f222e',
    },
    'sweep_freq': {
        'sweep.csv':
            '2dc1f823c5c5689e45c8d051be9da9f099bc5efc0bab9002c51ad7a413dfae46',
    },
    'sweep_freq_8x16': {
        'sweep.csv':
            '94fa4a31a6fc4443509ba9f4f107b9b139239dc4ad1b6a35029567c0d43d8115',
    },
    'sweep_snr_8x16': {
        'sweep.csv':
            'aa7eb94125b81e4c1e07a459ec4299ffd90c7a59d191a48b5ec3c94d96f163d5',
    },
    'sweep_snr_criterion_10': {
        'sweep.csv':
            '1e67bb5e971e64d0e32c80d2a4ab7899018195c46af4a7087da2afe21e6c352c',
    },
}

# the printout of every command of the set that names no output path
STDOUT = {
    'geometry':
        'tx: 9 physical elements, sharing [1, 2, 4, 2]\n'
        'rx: 9 physical elements, sharing [1, 2, 4, 2]\n',
    'loopback_16qam':
        'frames: 20  symbol errors: 250/320  SER: 0.78125\n'
        'degenerate modes: 0  max interference-to-signal: 2.999999999999999\n'
        'ML near-ties: 36\n',
    'loopback_bessel':
        'frames: 3  symbol errors: 26/48  SER: 0.5416666666666666\n'
        'degenerate modes: 0  max interference-to-signal: 2.7706590930745727\n'
        'ML near-ties: 0\n',
    'loopback_bessel_first_uncorrected':
        'frames: 3  symbol errors: 36/48  SER: 0.75\n'
        'degenerate modes: 0  max interference-to-signal: 12.74027438845331\n'
        'ML near-ties: 0\n',
    'loopback_criterion_10':
        'frames: 3  symbol errors: 27/48  SER: 0.5625\n'
        'degenerate modes: 0  max interference-to-signal: 2.999999999999999\n'
        'ML near-ties: 4\n',
    'loopback_degenerate_6x3':
        'frames: 3  symbol errors: 22/45  SER: 0.4888888888888889\n'
        'degenerate modes: 3  max interference-to-signal: 5.0\n'
        'ML near-ties: 0\n',
    'loopback_noisy':
        'frames: 20  symbol errors: 136/320  SER: 0.425\n'
        'degenerate modes: 0  max interference-to-signal: 2.999999999999999\n'
        'ML near-ties: 0\n',
    'loopback_noisy_8x16':
        'frames: 20  symbol errors: 1588/2560  SER: 0.6203125\n'
        'degenerate modes: 0  max interference-to-signal: 7434.257965952569\n'
        'ML near-ties: 0\n',
    'loopback_noisy_8x16_16qam':
        'frames: 20  symbol errors: 2269/2560  SER: 0.886328125\n'
        'degenerate modes: 0  max interference-to-signal: 7434.257965952569\n'
        'ML near-ties: 0\n',
    'loopback_noisy_8x16_bpsk':
        'frames: 20  symbol errors: 940/2560  SER: 0.3671875\n'
        'degenerate modes: 0  max interference-to-signal: 7434.257965952569\n'
        'ML near-ties: 0\n',
    'loopback_unequal_8x16':
        'frames: 70  symbol errors: 5822/8960  SER: 0.6497767857142858\n'
        'degenerate modes: 0  max interference-to-signal: 13567.403729363261\n'
        'ML near-ties: 0\n',
}


# the commands whose bytes moved with the OpenBLAS kernel while the chain
# took its DFTs by dense matrix products
PORTABLE = ("gap_default", "loopback_noisy_8x16", "sweep_freq_8x16")

# OpenBLAS kernels to force, each with the CPU flags it needs
KERNELS = {"Haswell": {"avx2", "fma"}, "SandyBridge": {"avx"}, "Prescott": {"pni"}}

# numpy's SIMD dispatch cut to its X86_V2 baseline, and the per-cell
# agreement it keeps: relative, or of the column's largest magnitude
REDUCED_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
SIMD_RTOL = 1e-13

# run in a fresh interpreter: command_outputs of the argument commands, as JSON
_CHILD = ("import json, sys, tempfile\n"
          "from pathlib import Path\n"
          "import test_golden_outputs as g\n"
          "with tempfile.TemporaryDirectory() as tmp:\n"
          "    print(json.dumps(g.command_outputs(sys.argv[1:], Path(tmp))))\n")


def fingerprint() -> dict:
    """What the bytes depend on besides the code: the numpy version, the SIMD
    targets numpy dispatches to on this host, and the BLAS build."""
    config = np.show_config(mode="dicts")
    simd, blas = config["SIMD Extensions"], config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "simd": simd["baseline"] + simd.get("found", []),
            "blas": f"{blas['name']} {blas.get('version', '')}: "
                    f"{blas.get('openblas configuration', '')}"}


def recorded_on() -> str:
    return f"golden outputs recorded on {FINGERPRINT}, this host is {fingerprint()}"


def run_hashes(name: str, work: Path) -> dict:
    """Run one command of the set under `work`; sha256 of each CSV written."""
    cfg = work / "scenario.cfg"
    cfg.write_text(SCENARIOS.get(name, SCENARIO), encoding="utf-8")
    out = work / name
    command, *rest = COMMANDS[name]
    assert cli_main([command, "--config", str(cfg), "--out", str(out), *rest]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def command_outputs(names, work: Path) -> dict:
    """Run commands of the set under `work`: the text of each CSV by file
    name, and the printout under "stdout" with `work` written as <work>."""
    outputs = {}
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run_hashes(name, work)
        outputs[name] = {p.name: p.read_text(encoding="utf-8")
                         for p in sorted((work / name).glob("*.csv"))}
        outputs[name]["stdout"] = buf.getvalue().replace(str(work), "<work>")
    return outputs


def outputs_under(**env) -> dict:
    """command_outputs of PORTABLE in a fresh interpreter with `env` set."""
    path = [str(Path(qfuca.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", _CHILD, *PORTABLE], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env))
    return json.loads(proc.stdout)


def cpu_flags() -> set:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _agree(a: str, b: str, scale: float) -> bool:
    """Two cells agree: equal text, or numbers within SIMD_RTOL relative or
    SIMD_RTOL * scale absolute."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return a == b
    return math.isclose(x, y, rel_tol=SIMD_RTOL, abs_tol=SIMD_RTOL * scale)


def assert_cells_agree(got: str, want: str, label: str):
    rows, ref = (list(csv.reader(io.StringIO(text))) for text in (got, want))
    assert [len(r) for r in rows] == [len(r) for r in ref] and rows[0] == ref[0], label
    scales = [max((abs(x) for x in map(_number, col) if x is not None and math.isfinite(x)),
                  default=0.0) for col in zip(*ref[1:])]
    for line, (row, want_row) in enumerate(zip(rows[1:], ref[1:]), start=2):
        assert all(map(_agree, row, want_row, scales)), f"{label} line {line}: {row} != {want_row}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_match_golden_hashes(tmp_path, name):
    assert run_hashes(name, tmp_path) == GOLDEN[name], recorded_on()


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_matches_golden(tmp_path, capsys, name):
    run_hashes(name, tmp_path)
    assert capsys.readouterr().out == STDOUT[name], recorded_on()


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return command_outputs(PORTABLE, tmp_path_factory.mktemp("default"))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_bytes_do_not_depend_on_the_blas_kernel(default_outputs, kernel):
    blas = fingerprint()["blas"]
    if "openblas" not in blas:
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS")
    if "DYNAMIC_ARCH" not in blas:
        pytest.skip("this OpenBLAS picks no kernel at run time (no DYNAMIC_ARCH)")
    if not KERNELS[kernel] <= cpu_flags():
        pytest.skip(f"this CPU lacks the {kernel} kernel's flags")
    assert outputs_under(OPENBLAS_CORETYPE=kernel) == default_outputs


def test_cells_agree_under_reduced_simd_dispatch(default_outputs):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD)
    if subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                      capture_output=True).returncode:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={REDUCED_SIMD!r}")
    reduced = outputs_under(NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD)
    for name, files in default_outputs.items():
        assert reduced[name].keys() == files.keys()
        for fname, text in files.items():
            if fname == "stdout":
                got, want = reduced[name][fname].split(), text.split()
                assert len(got) == len(want) and all(_agree(a, b, 0.0)
                                                     for a, b in zip(got, want)), name
            else:
                assert_cells_agree(reduced[name][fname], text, f"{name}/{fname}")


if __name__ == "__main__":
    recorded, printed = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                recorded[name] = run_hashes(name, Path(tmp))
            printed[name] = buf.getvalue()
    sys.stdout.write("FINGERPRINT = {\n")
    sys.stdout.write("".join(f"    {k!r}: {v!r},\n" for k, v in fingerprint().items()))
    sys.stdout.write("}\n\nGOLDEN = {\n")
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
