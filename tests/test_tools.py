import subprocess
import sys
from pathlib import Path

SWEEP_DIFF = Path(__file__).resolve().parents[1] / "tools" / "sweep_diff.py"

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
