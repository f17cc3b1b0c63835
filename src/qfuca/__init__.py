"""Link-level simulator for quasi-fractal UCA based OAM radio transmission."""

from .channel import (PropagationParams, approx_gap, bessel_j, build_block_channel,
                      detection_coeffs, diag_approx_block)
from .config import Scenario, parse_config, serialize_scenario
from .geometry import (Layout, admissible_elem_counts, build_layout,
                       single_ring_layout)
from .metrics import SweepSpec, run_sweep, se_qf, se_single_loop_uca, se_siso_times
from .txrx import ALPHABETS, build_link, element_noise, ml_detect, run_loopback, tod

__version__ = "0.1.0"
