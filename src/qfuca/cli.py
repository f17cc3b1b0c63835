"""Command-line front end.

Subcommands:
  geometry  write the physical-element tables of both antennas
  gap       diagonal-approximation gap over distance and element-count grids
  loopback  noiseless (or noisy) end-to-end frames, per-mode diagnostics,
            and the exact channel export
  sweep     spectrum-efficiency sweeps over snr_db / distance_m / freq_hz

All outputs are CSV files under --out, reproducible byte-for-byte from the
same (config, seed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import channel as chan
from . import metrics
from .config import Scenario, parse_config
from .errors import ConfigError
from .geometry import build_layout, layout_csv, sharing_matrix
from .txrx import build_link, check_loopback, run_loopback


def _load_scenario(args) -> Scenario:
    if args.config:
        scenario = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        scenario = Scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def cmd_geometry(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    tx = build_layout(scenario.n_cells, scenario.tx_elems, scenario.tx_ratio,
                      scenario.qf_radius_m)
    rx = build_layout(scenario.n_cells, scenario.rx_elems, scenario.rx_ratio,
                      scenario.qf_radius_m)
    _write(out, "tx_layout.csv", layout_csv(tx))
    _write(out, "rx_layout.csv", layout_csv(rx))
    for label, lay in (("tx", tx), ("rx", rx)):
        freqs = [int(x) for x in sharing_matrix(lay).diag_values]
        print(f"{label}: {lay.n_physical} physical elements, sharing {freqs}")
    return 0


def cmd_gap(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    distances = _float_list(args.values) if args.values else [20.0, 50.0, 100.0, 200.0]
    elem_counts = _int_list(args.elems) if args.elems else [8, 16]
    lines = ["D_m,K,p,epsilon"]
    for k in elem_counts:
        scen_k = replace(scenario, tx_elems=k, rx_elems=k)
        tx = build_layout(scen_k.n_cells, k, scen_k.tx_ratio, scen_k.qf_radius_m)
        rx = build_layout(scen_k.n_cells, k, scen_k.rx_ratio, scen_k.qf_radius_m)
        sharing = sharing_matrix(rx)
        for d in distances:
            params = chan.PropagationParams.from_frequency(d, scen_k.freq_hz,
                                                           scen_k.beta)
            block = chan.build_block_channel(tx, rx, params, sharing)
            for p_idx in range(scen_k.n_cells):
                eps = chan.approx_gap(tx, rx, params, sharing, p_idx, q=0,
                                      channel=block,
                                      j_order=scen_k.bessel_order,
                                      correction=scen_k.bessel_correction)
                p_mode = int(chan.mode_values(scen_k.n_cells)[p_idx])
                lines.append(f"{float(d)!r},{k},{p_mode},{float(eps)!r}")
    _write(out, "gap.csv", "\n".join(lines) + "\n")
    print(f"wrote {out / 'gap.csv'}")
    return 0


def cmd_loopback(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    # the link build is most of the command: reject bad flags before it
    check_loopback(args.frames, args.noise_variance)
    link = build_link(scenario)
    report = run_loopback(link, args.frames, noise_variance=args.noise_variance)

    frame_lines = ["frame,symbol_errors,symbols"]
    per_frame_symbols = link.n_inter * link.n_inner
    for i, err in enumerate(report.per_frame_errors):
        frame_lines.append(f"{i},{err},{per_frame_symbols}")
    _write(out, "loopback.csv", "\n".join(frame_lines) + "\n")

    mode_lines = ["p,l,lambda_re,lambda_im,sigma2,signal_power,interference_power,noise_power"]
    p_modes = chan.mode_values(link.n_inter)
    l_modes = chan.mode_values(link.n_inner)
    diags = report.diagnostics
    for pi in range(link.n_inter):
        for li in range(link.n_inner):
            lam = link.lambda_coeffs[pi, li]
            noise = float(diags.noise_power[pi, li])
            mode_lines.append(
                f"{int(p_modes[pi])},{int(l_modes[li])},{float(lam.real)!r},{float(lam.imag)!r},"
                f"{noise!r},{float(diags.signal_power[pi, li])!r},"
                f"{float(diags.interference_power[pi, li])!r},{noise!r}")
    _write(out, "modes.csv", "\n".join(mode_lines) + "\n")
    _write(out, "channel.csv", chan.channel_csv(link.block_channel))

    print(f"frames: {report.frames}  symbol errors: {report.symbol_errors}"
          f"/{report.symbols_counted}  SER: {report.ser!r}")
    print(f"degenerate modes: {report.degenerate_modes}  "
          f"max interference-to-signal: {report.max_interference_to_signal!r}")
    print(f"ML near-ties: {report.near_ties}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    values = _float_list(args.values) if args.values else []
    systems = tuple(tok.strip() for tok in args.systems.split(",") if tok.strip()) \
        if args.systems else metrics.SYSTEMS
    spec = metrics.SweepSpec(axis=args.axis, axis_values=tuple(values),
                             fixed=scenario, systems=systems)
    result = metrics.run_sweep(spec)
    _write(out, "sweep.csv", metrics.sweep_csv(result))
    print(f"wrote {out / 'sweep.csv'} ({len(result.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfuca",
        description="Link-level simulator for quasi-fractal UCA OAM transmission")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_geom = sub.add_parser("geometry", help="export antenna element tables")
    common(p_geom)
    p_geom.set_defaults(func=cmd_geometry)

    p_gap = sub.add_parser("gap", help="diagonal-approximation gap study")
    common(p_gap)
    p_gap.add_argument("--values", help="comma-separated distance grid in meters")
    p_gap.add_argument("--elems", help="comma-separated per-cell element counts")
    p_gap.set_defaults(func=cmd_gap)

    p_loop = sub.add_parser("loopback", help="end-to-end frame transmission")
    common(p_loop)
    p_loop.add_argument("--frames", type=int, default=100)
    p_loop.add_argument("--noise-variance", type=float, default=0.0)
    p_loop.set_defaults(func=cmd_loopback)

    p_sweep = sub.add_parser("sweep", help="spectrum-efficiency sweep")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=metrics.SWEEP_AXES)
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.add_argument("--systems", help="comma-separated system labels")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
