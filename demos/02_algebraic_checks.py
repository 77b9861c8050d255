"""Certifying a design: conjugate linearity, row orthogonality, group decoding.

The story, in check order:

1. every column must be a linear form in the source symbols only or their
   conjugates only (one matrix per relay);
2. every relay matrix must have orthogonal rows, which keeps the
   relay-amplified noise covariance diagonal (cheap whitening); the check
   reads the relay set's Gram stack M_i M_i^H, the same stack the relay
   Gram Gamma and the simulator's noise covariance are built from;
3. cross-group weight matrices must anticommute (A_i^H A_j + A_j^H A_i = 0),
   splitting the ML search into per-group searches;
4. the same condition must survive the channel-dependent whitening by the
   cooperation block of the noise covariance I + Gamma, the covariance the
   simulator whitens by, checked over random channel draws.
"""
import numpy as np

from dstc import (build_ciod4, build_pciod, check_clro, check_condition1,
                  check_group_decodable, check_whitened_group_decodable,
                  compose_precode, golden_cda, make_rng, protocol_params,
                  relay_matrix_set, relay_noise_cov, sample_channel,
                  unit_energy_relays)
from dstc.precoding import partition_mod4

np.set_printoptions(precision=3, suppress=True)


def main():
    d = build_pciod(4)
    print("pciod R=4:")
    print(" ", check_clro(d))
    print(" ", check_group_decodable(d.weights, d.partition))
    print(" ", check_whitened_group_decodable(
        d, d.partition, protocol_params(d, 10.0), n_draws=50, seed=1))

    # the coordinate-interleaved design only passes at the interleaved level:
    # folding the precoder into the weights mixes symbols and conjugates
    ciod, _ = build_ciod4()
    print("\nciod4 over interleaved symbols:", check_condition1(ciod))
    print("ciod4 over user symbols:       ", check_condition1(compose_precode(ciod)))

    # the channel-dependent relay Gram matrix of the 4x4 example is block
    # scalar, so I + Gamma, the noise covariance the check whitens by, is
    # block scalar too, which is exactly why whitening preserves the group
    # structure
    rs = unit_energy_relays(relay_matrix_set(ciod)).by_column()
    params = protocol_params(ciod, 10.0)
    ch = sample_channel(4, make_rng(2, 0))
    gamma = relay_noise_cov(params, rs, ch.g)
    print("\nGamma for a random channel draw (block scalar):")
    print(gamma.real)

    # a high-rate design is CLRO but not 4-group decodable
    gd = golden_cda()
    print("\ngolden cda, pretending it had 4 groups:")
    print(" ", check_whitened_group_decodable(
        gd, partition_mod4(gd.k), protocol_params(gd, 10.0), n_draws=5, seed=3))


if __name__ == "__main__":
    main()
