import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import qfuca

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SWEEP_DIFF = TOOLS / "sweep_diff.py"
CMD_PROBE = TOOLS / "cmd_probe.py"
SPAN_UNITS = TOOLS / "span_units.py"

OLD = """axis,system,se_bps_hz,aux
0.0,qf_uca,2.0,
0.0,uca_n,1.0,
15.0,qf_uca,8.0,
15.0,uca_n,4.0,
"""


def sweep_diff(tmp_path, old: str, new: str) -> subprocess.CompletedProcess:
    (tmp_path / "old.csv").write_text(old, encoding="utf-8")
    (tmp_path / "new.csv").write_text(new, encoding="utf-8")
    return subprocess.run([sys.executable, str(SWEEP_DIFF), str(tmp_path / "old.csv"),
                           str(tmp_path / "new.csv")], capture_output=True, text=True)


class TestSweepDiff:
    def test_counts_changed_rows_and_largest_relative_difference(self, tmp_path):
        new = OLD.replace("0.0,uca_n,1.0", "0.0,uca_n,1.5").replace("15.0,uca_n,4.0",
                                                                    "15.0,uca_n,5.0")
        out = sweep_diff(tmp_path, OLD, new)
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "system,rows,changed,max_rel_diff", "qf_uca,2,0,0", "uca_n,2,2,0.5"]

    def test_identical_tables(self, tmp_path):
        out = sweep_diff(tmp_path, OLD, OLD)
        assert out.returncode == 0
        assert out.stdout.splitlines()[1:] == ["qf_uca,2,0,0", "uca_n,2,0,0"]

    def test_mismatched_keys_exit_1(self, tmp_path):
        out = sweep_diff(tmp_path, OLD, OLD.replace("15.0,uca_n", "15.0,uca_bigger"))
        assert out.returncode == 1
        assert "row 4" in out.stderr
        assert out.stdout == ""

    def test_missing_row_exits_1(self, tmp_path):
        out = sweep_diff(tmp_path, OLD, OLD.rsplit("15.0,uca_n", 1)[0])
        assert out.returncode == 1
        assert "row counts differ" in out.stderr


def test_cmd_probe_reports_one_command(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qfuca.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(CMD_PROBE), "geometry", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    # the command's own output, then the probe's five figures
    assert lines[0].startswith("tx: 9 physical elements")
    figures = dict(line.split() for line in lines[-5:])
    assert list(figures) == ["maxrss_before_mb", "maxrss_after_mb", "cpu_s", "minflt", "exit"]
    assert 0 < float(figures["maxrss_before_mb"]) <= float(figures["maxrss_after_mb"])
    assert float(figures["cpu_s"]) > 0
    assert int(figures["minflt"]) >= 0
    assert figures["exit"] == "0"
    assert (tmp_path / "tx_layout.csv").is_file()


def synthetic_run(run_dir: Path, spans: list):
    """A perfbench run directory whose operation i read the calibrator at
    (10, 2) and (10 + units, 3) around a span of `cpu` CPU seconds, beside
    the files the tool must skip: a trace, a set-up report and an output
    folder."""
    run_dir.mkdir(parents=True)
    for i, (units, cpu) in enumerate(spans):
        report = {"calibrator_start": [10.0, 2.0], "calibrator_done": [10.0 + units, 3.0],
                  "start_cpu": 0.5, "done_cpu": 0.5 + cpu}
        (run_dir / f"op{i}.json").write_text(json.dumps(report), encoding="utf-8")
    (run_dir / "op1.json.spans.json").write_text("[]", encoding="utf-8")
    (run_dir / "setup0.json").write_text(json.dumps({"ready_cpu": 0.2}), encoding="utf-8")
    (run_dir / "op0").mkdir()


class TestSpanUnits:
    HEADER = "run,ops,min_units,median_units,mean_units,zero_unit_ops,median_cpu_s"

    def test_reports_units_per_operation_span(self, tmp_path):
        run = tmp_path / "loopback_8x16-seed1-trace0"
        synthetic_run(run, [(2, 0.1), (0, 0.12), (1, 0.3), (3, 0.2)])
        out = subprocess.run([sys.executable, str(SPAN_UNITS), str(run)],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [self.HEADER,
                                           "loopback_8x16-seed1-trace0,4,0,1.5,1.5,1,0.16"]

    def test_mean_units_are_the_units_a_span_completes(self, tmp_path):
        # one long span pulls the mean above the median
        run = tmp_path / "snr_sweep_8x16-seed7-trace0"
        synthetic_run(run, [(1, 0.1), (1, 0.1), (2, 0.2), (7, 0.4)])
        out = subprocess.run([sys.executable, str(SPAN_UNITS), str(run)],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [self.HEADER,
                                           "snr_sweep_8x16-seed7-trace0,4,1,1.5,2.75,0,0.15"]

    def test_reads_every_run_of_the_checkout_by_default(self, tmp_path):
        # a copy of the tool reads the runs of the checkout it sits in
        (tmp_path / "tools").mkdir()
        tool = shutil.copy(SPAN_UNITS, tmp_path / "tools")
        synthetic_run(tmp_path / ".perfbench_runs" / "b", [(5, 1.0)])
        synthetic_run(tmp_path / ".perfbench_runs" / "a", [(1, 0.5), (2, 0.5)])
        out = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [self.HEADER, "a,2,1,1.5,1.5,0,0.5",
                                           "b,1,5,5,5,0,1"]

    def test_run_without_operation_reports_exits_1(self, tmp_path):
        (tmp_path / "setup0.json").write_text("{}", encoding="utf-8")
        out = subprocess.run([sys.executable, str(SPAN_UNITS), str(tmp_path)],
                             capture_output=True, text=True)
        assert out.returncode == 1
        assert "no operation reports" in out.stderr
        assert out.stdout == ""
