"""One benchmark operation: a fresh interpreter that imports the CLI, parses
the scenario, then runs one command through `qfuca.cli.main(argv)`.

Usage: op_child.py REPORT MODE OPERATION CONFIG COUNTERS [CLI ARGS...]

MODE is `setup` (stop once the CLI is imported and the config parsed),
`run` (run the command) or `trace` (run it with every layer function
wrapped by perfbench's tracer, its spans tagged with OPERATION; the tracer
is installed before the set-up parse, so that parse is traced too).

REPORT receives a JSON object with the process's CPU time (user + system,
from `time.process_time`, which counts from the start of the process) when
set-up ended and around `cli.main`, the calibrator's COUNTERS read around
`cli.main` (see calibrator.py), and CLOCK_MONOTONIC timestamps for the
wall-clock record.  A traced run also writes its spans to REPORT with the
suffix `.spans.json`.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    report_path, mode, operation, config, counters, *argv = sys.argv[1:]
    report_path = Path(report_path)
    import qfuca.channel
    import qfuca.cli
    import qfuca.config

    tracer = None
    if mode == "trace":
        from tracer import Tracer, summarize_operation
        tracer = Tracer(int(operation))
        tracer.install()
    qfuca.config.parse_config(Path(config).read_text(encoding="utf-8"))
    report = {"ready_cpu": time.process_time(), "ready": now()}
    if mode == "setup":
        import numpy
        report.update(numpy=numpy.__version__, python=sys.version.split()[0])
        report_path.write_text(json.dumps(report), encoding="utf-8")
        return 0

    from calibrator import read
    report["calibrator_start"] = read(counters)
    report["start"], report["start_cpu"] = now(), time.process_time()
    try:
        code = qfuca.cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    report["done_cpu"], report["done"] = time.process_time(), now()
    report["calibrator_done"] = read(counters)
    if tracer is not None:
        tracer.restore()
        report["layers"] = summarize_operation(tracer.spans)
        report["layers"]["quad_nodes"] = qfuca.channel._QUAD_NODES
        spans_path = report_path.with_name(report_path.name + ".spans.json")
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    report["code"] = code
    report["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
