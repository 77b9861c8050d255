"""Why the block-diagonal family needs rotated-lattice precoding.

The determinant of a codeword-difference Gram factors into one term per 2x2
block. A difference confined to a single block zeroes every other factor, so
independent per-coordinate alphabets are NOT fully diverse. Rotating each
mod-4 symbol group by a full-diversity lattice rotation spreads any nonzero
difference across all blocks, restoring a positive determinant floor.

The cyclic-algebra family gets its floor from number-theoretic structure
instead: its minimum determinant does not shrink as the constellation grows.
"""
import numpy as np

from dstc import (build_pciod, golden_cda, min_delta_det_full,
                  min_product_distance, nvd_probe, rotation)
from dstc.receivers import lattice_codebook, pam_codebook
from dstc.precoding import default_lattice


def main():
    d = build_pciod(4)

    plain = pam_codebook(d.partition, 2)           # independent +-1 coordinates
    val, witness = min_delta_det_full(d, plain)
    print(f"unprecoded: min |det(dS^H dS)| = {val:.3e}")
    print(f"  zero witness (difference vector): {witness}")
    print("  note the support: one block only, so the other block's factor is 0")

    rotated = lattice_codebook(d.partition, default_lattice(2, 2))
    val_rot, _ = min_delta_det_full(d, rotated)
    print(f"\nprecoded with the planar rotation: min det = {val_rot:.4f} > 0")

    for n in (2, 3, 4):
        g = rotation(n)
        mpd = min_product_distance(g, [-1.0, 0.0, 1.0])
        print(f"rotation n={n}: orthogonality error "
              f"{np.max(np.abs(g.T @ g - np.eye(n))):.1e}, "
              f"min product distance {mpd:.5f}")

    # determinant floor of the high-rate family across constellation sizes
    probe = nvd_probe(golden_cda(), (4, 16))
    print("\ngolden cda determinant floor:", dict(probe.details["entries"]),
          "non-vanishing:", probe.passed)
    probe_p = nvd_probe(d, (4, 16))
    print("unprecoded pciod floor:       ", dict(probe_p.details["entries"]),
          "non-vanishing:", probe_p.passed)


if __name__ == "__main__":
    main()
