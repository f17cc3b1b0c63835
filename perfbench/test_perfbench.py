"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import struct
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrator  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, attr=None):
    return [name, start, end, parent, 0, attr]


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("txrx.build_link", 1.0, 4.0, parent=0),
        span("channel.detection_coeffs", 1.5, 3.5, parent=1),
        span("channel.diag_approx_block", 2.0, 3.0, parent=2),
        span("txrx.run_loopback", 5.0, 9.0, parent=0),
        # overlaps its sibling: the covered interval counts once
        span("txrx.end_to_end", 6.0, 8.0, parent=4),
        span("txrx.ml_detect", 7.0, 9.5, parent=4),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.5])
    summary = tracer.summarize_operation(spans)["functions"]
    assert summary["cli.main"] == {"calls": 1, "self_s": pytest.approx(3.0), "total_s": 10.0}


def test_derived_ratios_from_spans():
    spans = [span("metrics.run_sweep", 0.0, 10.0)]
    for i, key in enumerate(["a", "a", "b"]):
        parent = len(spans)
        spans.append(span("txrx.build_link", i * 3.0, i * 3.0 + 2.0, parent=0, attr=key))
        spans.append(span("channel.build_block_channel", i * 3.0, i * 3.0 + 1.0, parent=parent))
    spans.append(span("channel.build_block_channel", 9.0, 9.5, parent=0))
    derived = tracer.summarize_operation(spans)["derived"]
    assert derived["txrx.build_link.useful_ratio"] == pytest.approx(2 / 3)
    assert derived["channel.build_block_channel.per_build_link"] == 1.0


def _function_bindings():
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if name == "qfuca" or name.startswith("qfuca.")
            for attr, value in vars(module).items() if callable(value)}


def test_traced_run_wraps_every_binding_and_restores_them(tmp_path):
    import qfuca.cli
    import qfuca.metrics
    import qfuca.txrx

    before = _function_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert qfuca.txrx.build_link is not before[("qfuca.txrx", "build_link")]
        assert qfuca.cli.build_link is qfuca.txrx.build_link
        assert qfuca.metrics.build_link is qfuca.txrx.build_link
        assert qfuca.cli.main(["geometry", "--out", str(tmp_path)]) == 0
    finally:
        t.restore()
    assert _function_bindings() == before
    names = {s[0] for s in t.spans}
    assert {"cli.main", "cli.cmd_geometry", "geometry.build_layout",
            "geometry.layout_csv"} <= names
    root = next(i for i, s in enumerate(t.spans) if s[0] == "cli.main")
    assert t.spans[root][3] == -1
    assert all(s[3] >= 0 for i, s in enumerate(t.spans) if i != root)


def test_corrupted_sweep_reference_is_a_mismatch():
    refs = workloads.load_references()
    rows = refs["snr_sweep_8x16"]["rows"]
    assert workloads.check_sweep(copy.deepcopy(rows), rows, "snr_db") == []
    corrupted = copy.deepcopy(rows)
    corrupted[17][2] *= 1 + 1e-8
    assert len(workloads.check_sweep(rows, corrupted, "snr_db")) == 1


def test_corrupted_reference_counts_as_failed_operation(monkeypatch, tmp_path):
    refs = workloads.load_references()
    refs["loopback_8x16"]["max_isr"] *= 1 + 1e-6
    monkeypatch.setattr(run, "load_references", lambda: refs)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    record = run.run(workloads.WORKLOADS["loopback_8x16"], seed=1, seconds=0.1, trace=False)
    result = record["result"]
    assert result["attempted"] == 1 and result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["success_ratio"]["value"] == 0.0
    assert "max ISR" in record["failures"][0]
    assert (tmp_path / "loopback_8x16-seed1-trace0" / "result.json").is_file()


def test_calibrator_speed_is_units_per_cpu_second(tmp_path):
    counters = tmp_path / "calibrator.bin"
    counters.write_bytes(struct.pack(calibrator.FORMAT, 74.0, 1.5))
    assert calibrator.speed((10.0, 1.0), calibrator.read(counters)) == 128.0
    with pytest.raises(ValueError):
        calibrator.speed((74.0, 1.5), calibrator.read(counters))


def test_grid_is_read_from_the_config():
    w = workloads.WORKLOADS["distance_sweep_16x32"]
    assert (w.n_cells, w.elems) == (16, 32)


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_metrics()
