"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Regression numbers are frozen from the package's own exact-path
oracle chain and from the independent pre-build probe, never from figure
readouts.
"""

import filecmp
import io
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qfuca import channel as chan
from qfuca import metrics, txrx
from qfuca.channel import bessel_j
from qfuca.cli import main as cli_main
from qfuca.config import Scenario
from qfuca.geometry import admissible_elem_counts, build_layout, overlapped_ratios

import reference

FREQ = 5.8e9
LAM = 299792458.0 / FREQ

# frozen by the pre-build pipeline probe (max interference-to-signal ratio
# of the 9-element scenario at D = 100 m, R_Q = 1 m)
ISR_THRESHOLD = 3.02

# frozen outputs of the exact-path gap oracle (aligned block, R_Q = 1 m)
GAP_K8 = {20.0: 5.610293e-01, 50.0: 5.117099e-03,
          100.0: 2.872386e-05, 200.0: 1.237793e-07}
GAP_K16_AT_100 = 3.115210e-08

# frozen spectrum-efficiency regressions (exact path, 15 dB, D = 100 m,
# R_Q = 1 m, f = 5.8 GHz), cross-checked by tools/se_oracle.py
SE_QF9 = 54.42570603172034
SE_UCA9 = 26.391306688982205
SE_UCA16 = 30.895378217335114

# frozen distance-expansion error bound at D = 100 m, R_Q = 1 m, R = 0.5 m
DIST_ERR_100 = 1.05e-5


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def circulant_shift_equal(a, b):
    a, b = list(a), list(b)
    return len(a) == len(b) and any(a[s:] + a[:s] == b for s in range(len(a)))


def test_criterion_1_element_counts():
    start = time.perf_counter()
    n9 = build_layout(4, 4, 1.0, 1.0).n_physical
    n25 = build_layout(4, 8, 1.0, 1.0).n_physical
    elapsed = time.perf_counter() - start
    ok = n9 == 9 and n25 == 25 and elapsed < 1.0
    report(1, ok, f"counts {n9}/{n25}, {elapsed:.3f} s")
    assert n9 == 9 and n25 == 25
    assert elapsed < 1.0


def test_criterion_2_sharing_matrices():
    d1 = [int(x) for x in build_layout(4, 4, 1.0, 1.0).sharing_freqs]
    d2 = [int(x) for x in build_layout(4, 8, 1.0, 1.0).sharing_freqs]
    ok_examples = circulant_shift_equal(d1, [2, 1, 2, 4]) \
        and circulant_shift_equal(d2, [2, 1, 1, 1, 2, 1, 4, 1])

    checked = 0
    ok_identity = True
    for n in range(3, 9):
        cases = [(v, np.sin(np.pi / n)) for v in admissible_elem_counts(n, "tangent", 16)]
        cases += [(v, 1.0) for v in admissible_elem_counts(n, "through-center", 16)]
        for v in admissible_elem_counts(n, "overlapped", 16):
            cases += [(v, r) for r in overlapped_ratios(n, v)]
        for v, ratio in cases:
            lay = build_layout(n, v, ratio, 1.0)
            total = n * sum(Fraction(1, int(f)) for f in lay.sharing_freqs)
            ok_identity &= (total == lay.n_physical)
            checked += 1
    ok = ok_examples and ok_identity
    report(2, ok, f"examples {d1}/{d2}, counting identity exact on {checked} layouts")
    assert ok_examples
    assert ok_identity


def test_criterion_3_circulant_machinery():
    lay = build_layout(4, 4, 1.0, 1.0)
    params = chan.PropagationParams.from_frequency(100.0, FREQ, 1.0)
    # the post-decoded aligned block L H_0 is the gain block G_0
    lh0 = chan.build_block_channel(lay, lay, params)[0]
    w = reference.idft_matrix(4)
    product = w.conj().T @ lh0 @ w
    total = np.linalg.norm(product, "fro") ** 2
    offdiag_energy = (total - np.sum(np.abs(np.diag(product)) ** 2)) / total
    eig_dev = np.max(np.abs(np.diag(product) - reference.dft_diagonal(lh0))) \
        / np.max(np.abs(np.diag(product)))
    row = lh0[0]
    sym_dev = max(abs(row[k1] - row[4 - k1]) / abs(row[k1]) for k1 in (1, 2, 3))
    ok = offdiag_energy <= 1e-10 and eig_dev <= 1e-10 and sym_dev <= 1e-10
    report(3, ok, f"offdiag {offdiag_energy:.2e}, eig dev {eig_dev:.2e}, "
                  f"row symmetry {sym_dev:.2e}")
    assert offdiag_energy <= 1e-10
    assert eig_dev <= 1e-10
    assert sym_dev <= 1e-10


def test_criterion_4_gap_behavior():
    start = time.perf_counter()
    gaps = {}
    for k in (8, 16):
        lay = build_layout(4, k, 1.0, 1.0)
        for d in (20.0, 50.0, 100.0, 200.0):
            params = chan.PropagationParams.from_frequency(d, FREQ, 1.0)
            gaps[(k, d)] = chan.approx_gap(lay, lay, params)
    elapsed = time.perf_counter() - start
    series8 = [gaps[(8, d)] for d in (20.0, 50.0, 100.0, 200.0)]
    decreasing = all(b < a for a, b in zip(series8, series8[1:]))
    k_ordered = gaps[(16, 100.0)] < gaps[(8, 100.0)]
    frozen_ok = all(gaps[(8, d)] == pytest.approx(GAP_K8[d], rel=1e-3)
                    for d in GAP_K8) \
        and gaps[(16, 100.0)] == pytest.approx(GAP_K16_AT_100, rel=1e-3)
    ok = decreasing and k_ordered and frozen_ok and elapsed < 30.0
    report(4, ok, "K=8 gaps " + " ".join(f"{g:.3e}" for g in series8)
           + f", K=16@100m {gaps[(16, 100.0)]:.3e}, {elapsed:.1f} s")
    assert decreasing
    assert k_ordered
    assert frozen_ok
    assert elapsed < 30.0


def test_criterion_5_noiseless_loopback():
    """Noiseless 100-frame loopback at the 9-element scenario: the chain
    reproduces the exact mode transforms, and every mode whose interference
    cannot move the ML decision is detected without error.

    Zero errors on all 16 modes is impossible for any receiver: the 16 mode
    symbols reach the receiver through the N_t = 9 element feeds, so the
    per-p exact transforms have ranks summing to at most 9 (3 + 2 + 2 + 2
    here), and each branch maps distinct QPSK vectors to the same noiseless
    image.  That rank limit is asserted instead.  A mode (p, l) is safe when
    its worst-case interference, sum over j != l of |G_p[l, j]| a_{p,j}
    max|c|, stays below |Lambda_{p,l}| a_{p,l} d_min / 2; the safe set must be
    non-empty and its modes error-free.  The other modes' ML decisions sit on
    exact ties, so their error counts are not asserted.  The physical path
    (modulate, propagate, compensate, inner demodulate), which the loopback
    replaces by the exact transforms, must equal G_p @ s_p on all modes to
    1e-12 relative.  The interference threshold holds at its frozen bound.
    """
    start = time.perf_counter()
    link = txrx.build_link(Scenario())
    report_lb = txrx.run_loopback(link, 100)
    elapsed = time.perf_counter() - start
    isr_ok = link.max_interference_to_signal <= ISR_THRESHOLD

    n, k = link.tx.n_cells, link.tx.elems_per_cell
    gmats = link.exact_matrices
    tol = 1e-10 * np.max(np.abs(gmats))
    ranks = [int(np.linalg.matrix_rank(g, tol=tol)) for g in gmats]
    rank_ok = sum(ranks) <= link.tx.n_physical < n * k

    # ML on the exact diagonals: the correct point is nearest whenever the
    # interference is shorter than half the scaled minimum distance
    lam = np.einsum("pll->pl", gmats)
    lam_ok = np.array_equal(link.lambda_coeffs, lam)
    amp = link.amplitudes()
    pts = link.points
    d_min = np.min(np.abs(pts[:, None] - pts[None, :])[~np.eye(pts.size, dtype=bool)])
    worst_interference = (np.sum(np.abs(gmats) * amp[:, None, :], axis=2)
                          - np.abs(lam) * amp) * np.max(np.abs(pts))
    margin = worst_interference / (np.abs(lam) * amp * d_min / 2)
    safe = margin < 1.0
    safe_errors = report_lb.per_mode_errors[safe]
    safe_ok = bool(safe.any()) and not safe_errors.any()

    rng = np.random.default_rng(5)
    gain = reference.physical_gain_matrix(link.tx, link.rx, link.params)
    chain_dev = 0.0
    for frame in range(100):
        symbols = amp * pts[rng.integers(0, pts.size, size=(n, k))]
        received = gain @ reference.tom_modulate(symbols, link.tx)
        got = txrx.tod(received, link.rx)
        expect = np.einsum("plj,pj->pl", gmats, symbols)
        chain_dev = max(chain_dev,
                        np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    chain_ok = chain_dev <= 1e-12

    ok = isr_ok and rank_ok and lam_ok and safe_ok and chain_ok and elapsed < 30.0
    safe_modes = [tuple(int(i) for i in m) for m in np.argwhere(safe)]
    report(5, ok, f"max ISR {link.max_interference_to_signal:.3f} "
                  f"(threshold {ISR_THRESHOLD}); ranks {ranks} sum "
                  f"{sum(ranks)} <= {link.tx.n_physical} elements < {n * k} modes; "
                  f"safe modes {safe_modes} at margins "
                  f"{[round(float(x), 2) for x in margin[safe]]}, errors "
                  f"{safe_errors.tolist()}; chain deviation {chain_dev:.1e}; "
                  f"{elapsed:.1f} s")
    assert isr_ok
    assert elapsed < 30.0
    assert rank_ok, (
        f"per-p transform ranks {ranks} must sum to at most the "
        f"{link.tx.n_physical} physical elements, below the {n * k} modes")
    assert lam_ok, "the detector must use the exact transforms' diagonals"
    assert safe_ok, (
        f"modes whose interference cannot move the decision {safe_modes} "
        f"must exist and be error-free, got errors {safe_errors.tolist()}")
    assert chain_ok, (
        f"noiseless chain output deviates from G_p @ s_p by {chain_dev:.2e} "
        "relative")


def test_criterion_6_se_ordering(tmp_path):
    start = time.perf_counter()
    scen = Scenario()
    se_qf9 = reference.se_qf_scenario(scen)
    se_uca9 = reference.se_single_loop_uca(9, scen)
    se_uca16 = reference.se_single_loop_uca(16, scen)
    ordering = se_qf9 > se_uca9 and se_qf9 > se_uca16

    gains = {}
    for rq in (0.5, 1.0, 2.0, 4.0):
        s = replace(scen, qf_radius_m=rq)
        gains[rq] = reference.se_qf_scenario(s) / reference.se_single_loop_uca(9, s)
    gains_ok = all(g > 1.0 for g in gains.values())

    frozen_ok = se_qf9 == pytest.approx(SE_QF9, rel=1e-9) \
        and se_uca9 == pytest.approx(SE_UCA9, rel=1e-9) \
        and se_uca16 == pytest.approx(SE_UCA16, rel=1e-9)

    # independent recomputation by the standalone oracle script
    assert cli_main(["loopback", "--out", str(tmp_path), "--frames", "1"]) == 0
    oracle = Path(__file__).resolve().parents[1] / "tools" / "se_oracle.py"
    out = subprocess.run([sys.executable, str(oracle),
                          str(tmp_path / "modes.csv"), "1.0"],
                         capture_output=True, text=True, check=True)
    se_oracle = float(out.stdout.strip())
    oracle_ok = se_oracle == pytest.approx(se_qf9, rel=1e-9)
    elapsed = time.perf_counter() - start
    ok = ordering and gains_ok and frozen_ok and oracle_ok and elapsed < 60.0
    report(6, ok, f"QF9 {se_qf9:.3f} > UCA9 {se_uca9:.3f}, UCA16 {se_uca16:.3f}; "
                  f"gains {[round(g, 3) for g in gains.values()]}; "
                  f"oracle {se_oracle:.3f}; {elapsed:.1f} s")
    assert ordering
    assert gains_ok
    assert frozen_ok
    assert oracle_ok
    assert elapsed < 60.0


def test_criterion_7_distance_sweep():
    """Every system's efficiency falls with distance, and the 9-element
    quasi-fractal antenna exceeds all three baselines past 25 m.

    The monotone-decrease clause and the single-loop-UCA comparisons hold.
    The comparison against the 9-fold single-antenna reference cannot hold at
    the far grid points under any noise anchoring: the reference is nine
    parallel full-SNR streams, while the quasi-fractal mode gains carry
    Bessel factors whose arguments shrink like 1/D, so its efficiency decays
    strictly faster and crosses below between 50 m and 100 m.  Asserted as
    stated; fails on that clause.
    """
    scen = replace(Scenario(), qf_radius_m=0.5)
    spec = metrics.SweepSpec(axis="distance_m",
                             axis_values=(25.0, 50.0, 100.0, 200.0),
                             fixed=scen)
    table = {}
    for value, system, se, _ in metrics.run_sweep(spec):
        table.setdefault(system, {})[value] = se
    decreasing = all(
        all(table[sys_][b] < table[sys_][a]
            for a, b in zip((25.0, 50.0, 100.0), (50.0, 100.0, 200.0)))
        for sys_ in table)
    above_ucas = all(
        table["qf_uca"][d] > table[sys_][d]
        for d in (50.0, 100.0, 200.0)
        for sys_ in ("uca_n", "uca_bigger"))
    above_siso = all(table["qf_uca"][d] > table["siso_xN"][d]
                     for d in (50.0, 100.0, 200.0))
    ok = decreasing and above_ucas and above_siso
    qf = [round(table["qf_uca"][d], 2) for d in (25.0, 50.0, 100.0, 200.0)]
    si = [round(table["siso_xN"][d], 2) for d in (25.0, 50.0, 100.0, 200.0)]
    report(7, ok, f"all decreasing: {decreasing}; above UCA baselines: "
                  f"{above_ucas}; above 9-SISO: {above_siso}; QF {qf} vs SISO {si}")
    assert decreasing
    assert above_ucas
    assert above_siso, (
        "the nine-fold single-antenna reference overtakes the quasi-fractal "
        "system beyond ~50 m at R_Q = 0.5 m, 5.8 GHz, under every noise "
        "anchoring; see the sweep table in the printed report")


def test_criterion_8_dual_path_identities():
    lay = build_layout(4, 4, 1.0, 1.0)
    params = chan.PropagationParams.from_frequency(100.0, FREQ, 1.0)
    rng = np.random.default_rng(12)
    sym = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    feed_m = reference.tom_modulate(sym, lay)
    feed_l = reference.tom_modulate_loops(sym, lay)
    mod_dev = np.max(np.abs(feed_m - feed_l)) / np.max(np.abs(feed_m))

    y = reference.physical_gain_matrix(lay, lay, params) @ feed_m
    dem_dev = np.max(np.abs(txrx.tod(y, lay)
                            - reference.tod_split_compensate_loops(y, lay)
                            @ reference.dft_matrix(4).T)) \
        / np.max(np.abs(y))

    # every slot reads its element's whole observation: the paper's split
    # identity, r = H s, times L row by row
    bc = chan.build_block_channel(lay, lay, params)
    r_phys = y[lay.slot_group]
    r_log = reference.propagate_logical(sym, bc)
    prop_dev = np.max(np.abs(r_phys - r_log)) / np.max(np.abs(r_log))

    buf = io.StringIO()
    chan.channel_csv(bc, lay, buf)
    blocks = reference.channel_csv_blocks(buf.getvalue())
    h = reference.paper_subchannels(bc, lay)
    block_exact = all(
        np.array_equal(blocks[m, n], h[(n + 4 - m) % 4])
        for m in range(4) for n in range(4))

    ok = mod_dev < 1e-12 and dem_dev < 1e-12 and prop_dev < 1e-12 and block_exact
    report(8, ok, f"modulation {mod_dev:.2e}, demodulation {dem_dev:.2e}, "
                  f"propagation {prop_dev:.2e}, block identity exact: {block_exact}")
    assert mod_dev < 1e-12
    assert dem_dev < 1e-12
    assert prop_dev < 1e-12
    assert block_exact


def test_criterion_9_numerics():
    unit_dev = 0.0
    for n in range(1, 65):
        w = reference.idft_matrix(n)
        unit_dev = max(unit_dev, np.max(np.abs(w @ w.conj().T - np.eye(n))))

    rec_dev = 0.0
    for l in range(1, 9):
        for x in np.linspace(0.5, 50.0, 34):
            rec_dev = max(rec_dev, abs(bessel_j(l - 1, x) + bessel_j(l + 1, x)
                                       - 2 * l / x * bessel_j(l, x)))

    lay = build_layout(4, 4, 0.5, 1.0)
    errs = {}
    for d in (50.0, 100.0, 200.0):
        params = chan.PropagationParams.from_frequency(d, FREQ, 1.0)
        errs[d] = max(abs(reference.approx_distance(lay, lay, params, q, v, k)
                          - reference.exact_distance(lay, lay, params, q, v, k))
                      for q in range(4) for v in range(4) for k in range(4))
    dist_ok = errs[100.0] < DIST_ERR_100 and errs[200.0] < errs[100.0] < errs[50.0]

    ok = unit_dev < 1e-12 and rec_dev < 1e-8 and dist_ok
    report(9, ok, f"unitarity {unit_dev:.2e}, recurrence {rec_dev:.2e}, "
                  f"distance errors {errs[50.0]:.2e}/{errs[100.0]:.2e}/{errs[200.0]:.2e}")
    assert unit_dev < 1e-12
    assert rec_dev < 1e-8
    assert dist_ok


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("snr_db = 15\nseed = 11\nqf_radius_m = 1.0\n", encoding="utf-8")
    files = ("tx_layout.csv", "rx_layout.csv", "gap.csv", "loopback.csv",
             "modes.csv", "channel.csv", "sweep.csv")
    for sub in ("run1", "run2"):
        out = str(tmp_path / sub)
        assert cli_main(["geometry", "--config", str(cfg), "--out", out]) == 0
        assert cli_main(["gap", "--config", str(cfg), "--out", out,
                         "--values", "50,100", "--elems", "4"]) == 0
        assert cli_main(["loopback", "--config", str(cfg), "--out", out,
                         "--frames", "3"]) == 0
        assert cli_main(["sweep", "--config", str(cfg), "--out", out,
                         "--axis", "snr_db", "--values", "0,15,30"]) == 0
    identical = {name: filecmp.cmp(tmp_path / "run1" / name,
                                   tmp_path / "run2" / name, shallow=False)
                 for name in files}
    ok = all(identical.values())
    report(10, ok, f"byte-identical: {sorted(k for k, v in identical.items() if v)}")
    assert ok, identical
