"""qfuca benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one qfuca CLI
command, run in a fresh child interpreter through `qfuca.cli.main(argv)`;
the next starts only after the previous one has returned and its output has
been checked (a closed loop with one client).  Operations are issued while
one of typical length still ends within the measuring time.  Each child is
pinned to one CPU and timed in its own CPU time, scaled by the host speed
that calibrator.py measures beside it on that CPU.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced run, in which every
other operation runs with perfbench's tracer installed, and the untraced
ones give the tracing overhead.  Records of the run (environment, samples,
failures, spans) go to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import calibrator
from tracer import LAYERS
from workloads import WORKLOADS, Workload, check_output, load_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_LAUNCHES = 5          # set-up-only interpreters before the first operation
RUN_LIMIT_S = 170           # every operation ends before this, or is killed
CHILD_CPU = max(os.sched_getaffinity(0))    # the one CPU every child runs on

END_TO_END = ("items_per_s", "setup_s", "peak_rss_mb", "success_ratio")

# Per-layer metrics come from the traced operations of a run, as the median
# over operations of a per-operation value.  Most are <module>.<function>.<what>
# with what one of calls, self_s (span time minus the time its child spans
# cover) or total_s (span time).
CALLS = ("channel.diag_approx_block", "linalg.bessel_j", "txrx.build_link",
         "channel.build_block_channel", "channel.physical_gain_matrix",
         "txrx.ml_detect")
SELF = ("channel.diag_approx_block", "channel.detection_coeffs",
        "channel.build_block_channel", "channel.exact_mode_matrix",
        "channel.physical_gain_matrix", "channel.channel_csv", "linalg.bessel_j",
        "txrx.run_loopback", "txrx.end_to_end", "txrx.ml_detect", "txrx.propagate",
        "txrx.tom_modulate", "txrx.tod_split_compensate", "txrx.tod_inner_demodulate",
        "txrx.noise_mode_scale", "geometry.build_layout", "metrics.se_single_loop_uca",
        "metrics.run_sweep", "cli.cmd_loopback", "cli.cmd_sweep", "config.parse_config")
TOTAL = ("cli.main", "txrx.build_link", "txrx.end_to_end", "metrics.run_sweep")
OVERHEAD = ("trace.items_per_s_untraced", "trace.items_per_s_traced", "trace.overhead_ratio")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return ([(f"{f}.calls", "count/op", "lower") for f in CALLS]
            + [(f"{f}.self_s", "s/op", "lower") for f in SELF]
            + [(f"{f}.total_s", "s/op", "lower") for f in TOTAL]
            + [(f"layer.{m}.self_s", "s/op", "lower") for m in LAYERS]
            + [("txrx.build_link.useful_ratio", "ratio", "higher"),
               ("channel.build_block_channel.per_build_link", "ratio", "lower"),
               ("channel.quadrature_evals", "count/op", "lower"),
               ("txrx.ml_candidates", "count/op", "lower"),
               ("trace.items_per_s_untraced", "1/s", "higher"),
               ("trace.items_per_s_traced", "1/s", "higher"),
               ("trace.overhead_ratio", "ratio", "lower")])


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(RuntimeError):
    pass


def pin():
    os.sched_setaffinity(0, {CHILD_CPU})


@contextmanager
def calibrator_running(counters: Path, env: dict):
    """Run calibrator.py on CHILD_CPU until the block ends; wait for its first unit."""
    counters.write_bytes(bytes(calibrator.SIZE))
    proc = subprocess.Popen([sys.executable, str(HERE / "calibrator.py"), str(counters)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, preexec_fn=pin)
    try:
        started = now()
        while calibrator.read(counters)[0] < 1:
            if proc.poll() is not None:
                raise ChildFailed(f"the calibrator exited with {proc.returncode}: "
                                  + proc.stderr.read().decode().strip()[-2000:])
            if now() - started > 60:
                raise ChildFailed("the calibrator completed no unit within 60 s")
            time.sleep(0.01)
        yield
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def launch(report: Path, mode: str, operation: int, workload: Workload, argv: list[str],
           env: dict, timeout: float) -> tuple[dict, str]:
    """Run one child interpreter on CHILD_CPU; return its report and its stdout."""
    cmd = [sys.executable, str(HERE / "op_child.py"), str(report), mode, str(operation),
           str(ROOT / "perfbench" / "configs" / workload.config),
           str(report.parent / "calibrator.bin"), *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} child killed after {timeout:.0f} s") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not report.is_file():
        raise ChildFailed(f"{mode} child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(report.read_text(encoding="utf-8")), out


def digest(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def layer_metrics(traced: list[dict], untraced_rates: list[float],
                  traced_rates: list[float], workload: Workload) -> dict:
    """Per-layer metrics from the span summaries of the traced operations."""
    per_op = []
    for layers in traced:
        fns = layers["functions"]

        def get(name, key):
            return fns.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})[key]

        values = dict(layers["derived"])
        values.update({f"{f}.calls": get(f, "calls") for f in CALLS})
        values.update({f"{f}.self_s": get(f, "self_s") for f in SELF})
        values.update({f"{f}.total_s": get(f, "total_s") for f in TOTAL})
        values.update({f"layer.{m}.self_s": sum(v["self_s"] for k, v in fns.items()
                                                if k.startswith(m + "."))
                       for m in LAYERS})
        # computed, not counted: nodes and candidates per call times calls
        values["channel.quadrature_evals"] = \
            get("channel.diag_approx_block", "calls") * layers["quad_nodes"] * workload.elems
        values["txrx.ml_candidates"] = get("txrx.ml_detect", "calls") * workload.elems * 4
        per_op.append(values)
    untraced = statistics.median(untraced_rates)
    traced_rate = statistics.median(traced_rates)
    values = {"trace.items_per_s_untraced": untraced,
              "trace.items_per_s_traced": traced_rate,
              "trace.overhead_ratio": untraced / traced_rate}
    for name, unit, _ in per_layer_metrics():
        if name not in OVERHEAD:
            median = statistics.median_low if unit == "count/op" else statistics.median
            values[name] = median(v[name] for v in per_op)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_metrics()}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    run_dir = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    with calibrator_running(run_dir / "calibrator.bin", env):
        return measure(workload, seed, seconds, trace, run_dir, env)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path,
            env: dict) -> dict:
    refs = load_references()
    counters = run_dir / "calibrator.bin"
    began = now()

    # Set-up CPU time is scaled by the host speed over all set-up launches,
    # or over the operation for an operation's own launch.
    setup_cpu, env_record = [], {}
    before = calibrator.read(counters)
    for i in range(SETUP_LAUNCHES):
        report, _ = launch(run_dir / f"setup{i}.json", "setup", -1, workload, [],
                           env, RUN_LIMIT_S - (now() - began))
        setup_cpu.append(report["ready_cpu"])
        env_record = {"python": report["python"], "numpy": report["numpy"]}
    scale = calibrator.speed(before, calibrator.read(counters)) / calibrator.REFERENCE_SPEED
    setup_samples = [cpu * scale for cpu in setup_cpu]
    env_record.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                      child_cpu=CHILD_CPU, blas_threads=BLAS_THREADS)

    ops, failures, first_digest, durations = [], [], None, []
    deadline = now() + seconds
    # Start a command only if one of typical length still ends in time, so a
    # run lasts no longer than its measuring time plus set-up.
    while len(ops) < (2 if trace else 1) or \
            now() + statistics.median(durations) <= deadline:
        started = now()
        i = len(ops)
        traced = trace and i % 2 == 1
        out_dir = run_dir / f"op{i}"
        op = {"traced": traced, "ok": False}
        ops.append(op)
        try:
            report, stdout = launch(
                run_dir / f"op{i}.json", "trace" if traced else "run", i, workload,
                workload.argv(ROOT, out_dir, seed), env, RUN_LIMIT_S - (now() - began))
            speed = calibrator.speed(report["calibrator_start"], report["calibrator_done"])
        except (ChildFailed, ValueError) as exc:
            failures.append(f"op {i}: {exc}")
            durations.append(now() - started)
            continue
        cpu = report["done_cpu"] - report["start_cpu"]
        scale = speed / calibrator.REFERENCE_SPEED
        if not traced:
            setup_samples.append(report["ready_cpu"] * scale)
        op.update(rate=workload.items / (cpu * scale), cpu_rate=workload.items / cpu,
                  wall_rate=workload.items / (report["done"] - report["start"]), speed=speed,
                  rss_mb=report["max_rss_kb"] / 1024, layers=report.get("layers"))
        problems = [] if report["code"] == 0 else [f"exit code {report['code']}"]
        problems += check_output(workload, out_dir, stdout, seed, refs)
        if not problems:
            files = digest(out_dir)
            first_digest = first_digest or files
            if files != first_digest:
                problems.append("output differs from the run's first command")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems[:5]))
        op["ok"] = not problems
        durations.append(now() - started)

    ok = [op for op in ops if op["ok"]]
    plain = [op["rate"] for op in ok if not op["traced"]] or [0.0]
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures)}
    if trace:
        traced_ops = [op for op in ok if op["traced"]]
        if traced_ops:
            result["metrics"] = layer_metrics([op["layers"] for op in traced_ops], plain,
                                              [op["rate"] for op in traced_ops], workload)
        else:
            result["metrics"] = {}
    else:
        result["metrics"] = {
            "items_per_s": {"value": statistics.median(plain), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op["rss_mb"] for op in ok)
                            if ok else 0.0, "unit": "MB"},
            "success_ratio": {"value": 1 - len(failures) / len(ops), "unit": "ratio"},
        }
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "item_unit": workload.item_unit, "environment": env_record,
              "samples": {"items_per_s": [op.get("rate") for op in ops],
                          "items_per_s_cpu": [op.get("cpu_rate") for op in ops],
                          "items_per_s_wall": [op.get("wall_rate") for op in ops],
                          "calibrator_speed": [op.get("speed") for op in ops],
                          "traced": [op["traced"] for op in ops],
                          "setup_s": setup_samples},
              "failures": failures, "result": result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_summary(record: dict):
    result = record["result"]
    print(f"environment: {json.dumps(record['environment'])}")
    samples = record["samples"]
    untraced = [i for i, (r, t) in enumerate(zip(samples["items_per_s"], samples["traced"]))
                if r is not None and not t]
    print(f"{record['workload']} seed {record['seed']}: {result['attempted']} operations, "
          f"{result['failed']} failed; {len(untraced)} untraced samples of items_per_s "
          f"({record['item_unit']} per reference CPU second), "
          f"{len(samples['setup_s'])} of setup_s")
    if untraced:
        print("unscaled items_per_s, for the record: median "
              + ", ".join(f"{statistics.median(samples[k][i] for i in untraced):.6g} {what}"
                          for k, what in (("items_per_s_cpu", "per CPU second"),
                                          ("items_per_s_wall", "per wall-clock second")))
              + f"; calibrator speed median "
              f"{statistics.median(samples['calibrator_speed'][i] for i in untraced):.5g} "
              f"units/s (reference {calibrator.REFERENCE_SPEED})")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = result["metrics"]
    if record["trace"]:
        selfs = sorted(((v["value"], k) for k, v in metrics.items()
                        if k.endswith(".self_s") and not k.startswith("layer.")), reverse=True)
        print("largest self times per operation: "
              + ", ".join(f"{k} {v:.4f} s" for v, k in selfs[:6]))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfuca" / "cli.py").is_file():
        print(f"error: no qfuca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
