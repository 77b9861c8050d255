"""Distributed space-time codes for amplify-and-forward relay networks.

Constructions (coordinate-interleaved, Toeplitz, cyclic-algebra designs),
algebraic certification (conjugate-linear row-orthogonality, group ML
decodability, determinant criteria), a two-phase relay link simulator with
ML/grouped-ML/ZF/MMSE receivers, and closed-form diversity-multiplexing
tradeoff bounds.
"""

__version__ = "0.1.0"

from . import dmg, matkernel, precoding
from .designs import (Design, PrecodePair, RelayMatrixSet, build_cda,
                      build_ciod4, build_family, build_pciod,
                      build_pciod_rect, build_toeplitz, compose_precode,
                      golden_cda, load_design, relay_matrix_set, save_design,
                      unit_energy_relays)
from .gnaf_sim import (ChannelRealization, NoiseDraw, ProtocolParams,
                       SimConfig, SimResult, column_gains, draw_noise,
                       effective_matrix, make_rng, noise_cov,
                       protocol_params, relay_noise_cov, results_to_csv,
                       run_monte_carlo, sample_channel, simulate_trial)
from .precoding import (RotatedLattice, default_lattice, pam_alphabet,
                        partition_mod4, rotation)
from .receivers import (Codebook, ResourceGuardError, lattice_codebook,
                        ml_grouped, ml_joint, mmse_detect, pam_codebook,
                        qam_codebook, zf_detect)
from .verifier import (NvdProbe, VerifierReport, check_clro,
                       check_condition1, check_condition2,
                       check_group_decodable,
                       check_whitened_group_decodable, det_zero_threshold,
                       min_delta_det_full, min_product_distance, nvd_probe,
                       whitened_weights)
