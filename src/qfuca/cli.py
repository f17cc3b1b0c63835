"""Command-line front end.

Subcommands:
  geometry  write the physical-element tables of both antennas
  gap       diagonal-approximation gap over distance and element-count grids
  loopback  noiseless (or noisy) end-to-end frames, per-mode diagnostics,
            and the exact channel export
  sweep     spectrum-efficiency sweeps over snr_db / distance_m / freq_hz

All outputs are CSV files under --out, reproducible byte-for-byte from the
same (config, seed) on one numpy build and SIMD level; other builds and SIMD
levels move the last bits of some values.  Every DFT is an FFT, so the BLAS
kernel moves no byte, except that loopback.csv also rests on the one BLAS
product of the propagation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import channel as chan
from . import metrics
from .config import Scenario, parse_config
from .geometry import layout_csv
from .txrx import build_antenna, build_link, check_loopback, run_loopback


def _load_scenario(args) -> Scenario:
    if args.config:
        scenario = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        scenario = Scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario


def _open_output(out_dir: Path, name: str):
    """Open output file `name` under out_dir for text writing: the one place
    that fixes how every CSV is written (UTF-8, LF line endings)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return open(out_dir / name, "w", encoding="utf-8", newline="\n")


def _write(out_dir: Path, name: str, text: str):
    with _open_output(out_dir, name) as fh:
        fh.write(text)


def _values(raw: str, kind, flag: str) -> list:
    """The values of a comma-separated list flag, which must name one."""
    values = []
    for tok in filter(str.strip, raw.split(",")):
        try:
            values.append(kind(tok))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"--{flag} names {tok.strip()!r}, which is not {noun}") from None
    if not values:
        raise ValueError(f"--{flag} {raw!r} names no value")
    return values


def cmd_geometry(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    antenna = build_antenna(scenario)
    _write(out, "tx_layout.csv", layout_csv(antenna.tx))
    _write(out, "rx_layout.csv", layout_csv(antenna.rx))
    for label, lay in (("tx", antenna.tx), ("rx", antenna.rx)):
        freqs = [int(x) for x in lay.sharing_freqs]
        print(f"{label}: {lay.n_physical} physical elements, sharing {freqs}")
    return 0


def cmd_gap(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    distances = _values(args.values, float, "values")
    elem_counts = _values(args.elems, int, "elems")
    if min(elem_counts) < 1:
        raise ValueError(f"--elems names {min(elem_counts)}, but element counts must be >= 1")
    for label, values in (("distances", distances), ("element counts", elem_counts)):
        repeated = sorted({x for x in values if values.count(x) > 1})
        if repeated:
            raise ValueError(f"repeated {label}: {repeated}")
    lines = ["D_m,K,epsilon"]
    for k in elem_counts:
        scen_k = replace(scenario, tx_elems=k, rx_elems=k)
        antenna = build_antenna(scen_k)
        for d in distances:
            params = chan.PropagationParams.from_frequency(d, scen_k.freq_hz,
                                                           scen_k.beta)
            eps = chan.approx_gap(antenna.tx, antenna.rx, params,
                                  j_order=scen_k.bessel_order,
                                  correction=scen_k.bessel_correction)
            lines.append(f"{float(d)!r},{k},{float(eps)!r}")
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
    n, k = link.tx.n_cells, link.tx.elems_per_cell
    # a frame's errors count over its modes that are not degenerate
    counted = n * k - report.degenerate_modes
    for i, err in enumerate(report.per_frame_errors):
        frame_lines.append(f"{i},{err},{counted}")
    _write(out, "loopback.csv", "\n".join(frame_lines) + "\n")

    mode_lines = ["p,l,lambda_re,lambda_im,sigma2,signal_power,interference_power,noise_power"]
    p_modes = chan.mode_values(n)
    l_modes = chan.mode_values(k)
    signal, interference, noise_power = \
        link.signal_power, link.interference_power, link.noise_power
    for pi in range(n):
        for li in range(k):
            lam = link.lambda_coeffs[pi, li]
            noise = float(noise_power[pi, li])
            mode_lines.append(
                f"{int(p_modes[pi])},{int(l_modes[li])},{float(lam.real)!r},{float(lam.imag)!r},"
                f"{noise!r},{float(signal[pi, li])!r},"
                f"{float(interference[pi, li])!r},{noise!r}")
    _write(out, "modes.csv", "\n".join(mode_lines) + "\n")
    with _open_output(out, "channel.csv") as fh:
        chan.channel_csv(link.subchannels, link.rx, fh)

    print(f"frames: {report.frames}  symbol errors: {report.symbol_errors}"
          f"/{report.symbols_counted}  SER: {report.ser!r}")
    print(f"degenerate modes: {report.degenerate_modes}  "
          f"max interference-to-signal: {link.max_interference_to_signal!r}")
    print(f"ML near-ties: {report.near_ties}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    out = Path(args.out)
    values = _values(args.values, float, "values") if args.values is not None else []
    systems = tuple(tok.strip() for tok in args.systems.split(",") if tok.strip()) \
        if args.systems is not None else metrics.SYSTEMS
    spec = metrics.SweepSpec(axis=args.axis, axis_values=tuple(values),
                             fixed=scenario, systems=systems)
    rows = metrics.run_sweep(spec)
    _write(out, "sweep.csv", metrics.sweep_csv(rows))
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
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
    p_gap.add_argument("--values", default="20,50,100,200",
                       help="comma-separated distance grid in meters")
    p_gap.add_argument("--elems", default="8,16",
                       help="comma-separated per-cell element counts")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
