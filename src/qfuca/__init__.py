"""Link-level simulator for quasi-fractal UCA based OAM radio transmission."""

from .channel import (BlockChannel, ModeChannel, PropagationParams,
                      approx_gap, build_block_channel, detection_coeffs,
                      diag_approx_block, exact_mode_matrix)
from .config import Scenario, parse_config, serialize_scenario
from .geometry import (Layout, SharingMatrix, admissible_elem_counts,
                       build_layout, rotation_shift, sharing_matrix,
                       single_ring_layout)
from .linalg import bessel_j, diagonalize_row_blocks, dft_matrix, idft_matrix
from .metrics import (SweepResult, SweepSpec, run_sweep, se_gain, se_qf,
                      se_single_loop_uca, se_siso_times)
from .txrx import (Constellation, NoiseModel, SymbolGrid, build_link,
                   end_to_end, ml_detect, propagate, run_loopback,
                   tod_inner_demodulate, tod_split_compensate, tom_modulate)

__version__ = "0.1.0"
