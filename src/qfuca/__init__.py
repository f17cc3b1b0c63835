"""Link-level simulator for quasi-fractal UCA based OAM radio transmission."""

from .channel import (BlockChannel, ModeChannel, PropagationParams,
                      approx_gap, build_block_channel, detection_coeffs,
                      diag_approx_block)
from .config import Scenario, parse_config, serialize_scenario
from .geometry import (Layout, admissible_elem_counts, build_layout,
                       single_ring_layout)
from .linalg import bessel_j, diagonalize_row_blocks, dft_matrix, idft_matrix
from .metrics import (SweepResult, SweepSpec, run_sweep, se_gain, se_qf,
                      se_single_loop_uca, se_siso_times)
from .txrx import (Constellation, NoiseModel, build_link, ml_detect, run_loopback,
                   tod_inner_demodulate, tod_split_compensate, tom_modulate)

__version__ = "0.1.0"
