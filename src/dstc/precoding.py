"""Symbol grouping and rotated-lattice precoding for full diversity.

Block-diagonal coordinate-interleaved designs are not fully diverse when
their real symbols take independent values: a difference confined to a
single diagonal block zeroes the other blocks' determinant factors. The fix
is to partition the 2R real symbols by index mod 4 (giving 4 groups of R/2
symbols, one symbol per block in each group) and let each group take values
from a rotated Z^{R/2} lattice: the rotation spreads any nonzero difference
across all coordinates of the group, hence across all blocks.

Built-in rotations:

* n = 1: identity (nothing to rotate);
* n = 2: planar rotation by (1/2) atan(2), the classical full-diversity
  rotation of the plane (minimum product distance 1/sqrt(5));
* n = 3, 4: cyclotomic rotations, computed from the twisted canonical
  embedding of the ring of integers of the maximal real subfield of the
  7th (n=3) and 16th (n=4) cyclotomic fields, with integer basis-change
  matrices found once by short-vector enumeration and stored as literals.
  Minimum product distances: 1/7 and sqrt(2)/64.

Larger dimensions load an orthogonal matrix from a plain text file. The
minimum product distance of a rotation is scored by the determinant layer
(verifier.min_product_distance, ResourceGuardError when oversized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def partition_mod4(k: int) -> tuple[tuple[int, ...], ...]:
    """Partition real symbol indices {0..K-1} into 4 groups by index mod 4."""
    if k % 4:
        raise ValueError(f"symbol count must be divisible by 4, got {k}")
    return tuple(tuple(range(g, k, 4)) for g in range(4))


def check_partition(groups, k: int) -> None:
    """Raise ValueError unless ``groups`` cover {0..K-1}, each index once."""
    if sorted(i for grp in groups for i in grp) != list(range(k)):
        raise ValueError(f"partition {[list(g) for g in groups]} is not a "
                         f"disjoint cover of the symbol indices 0..{k - 1}")


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

# Unimodular basis changes that orthonormalize the twisted trace form of the
# cyclotomic constructions below (found by enumerating norm-1 lattice vectors).
_BASIS_CHANGE_3 = np.array([[-1, -1, -1],
                            [-1, 0, 1],
                            [0, 0, 1]])
_BASIS_CHANGE_4 = np.array([[-1, -1, -1, -1],
                            [-2, -1, 0, 1],
                            [1, 0, 0, 1],
                            [1, 0, 0, 0]])


def _cyclotomic_rotation_3() -> np.ndarray:
    # Q(zeta_7 + zeta_7^-1): embeddings 2cos(2 pi k/7), twist 2 - 2cos(2 pi k/7),
    # trace form scaled by 1/7; power basis {1, theta, theta^2}.
    ks = np.arange(1, 4)
    conj = 2.0 * np.cos(2.0 * np.pi * ks / 7.0)
    alpha = 2.0 - conj
    v = np.vander(conj, 3, increasing=True)
    a = np.sqrt(alpha / 7.0)[:, None] * v
    return a @ _BASIS_CHANGE_3


def _cyclotomic_rotation_4() -> np.ndarray:
    # Q(zeta_16 + zeta_16^-1): embeddings 2cos(k pi/8) for odd k, twist
    # 2 - 2cos(k pi/8), trace form scaled by 1/8; power basis {1..theta^3}.
    ks = np.array([1, 3, 5, 7])
    conj = 2.0 * np.cos(ks * np.pi / 8.0)
    alpha = 2.0 - conj
    v = np.vander(conj, 4, increasing=True)
    a = np.sqrt(alpha / 8.0)[:, None] * v
    return a @ _BASIS_CHANGE_4


def rotation(n: int) -> np.ndarray:
    """Built-in full-diversity rotation of Z^n for n in {1, 2, 3, 4}."""
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        ang = 0.5 * np.arctan(2.0)
        c, s = np.cos(ang), np.sin(ang)
        return np.array([[c, -s], [s, c]])
    if n == 3:
        return _cyclotomic_rotation_3()
    if n == 4:
        return _cyclotomic_rotation_4()
    raise ValueError(
        f"no built-in rotation for n={n}; supply one with load_rotation()")


def load_rotation(path) -> np.ndarray:
    """Read a rotation from a text file: n, then n*n row-major doubles.

    Raises ValueError naming the file when the header is not a positive
    integer, the value count is not n*n or the matrix is not finite and
    orthogonal.
    """
    with open(path) as fh:
        vals = fh.read().split()
    n = int(vals[0]) if vals and vals[0].isdecimal() else 0
    if n < 1:
        raise ValueError(f"rotation file {path}: the header must be a positive "
                         f"integer n, followed by n*n row-major values")
    if len(vals) != 1 + n * n:
        raise ValueError(f"rotation file {path} holds {len(vals) - 1} values, "
                         f"need {n * n}")
    g = np.array([float(v) for v in vals[1:]]).reshape(n, n)
    if not (np.all(np.isfinite(g)) and np.max(np.abs(g.T @ g - np.eye(n))) <= 1e-9):
        raise ValueError(f"rotation file {path}: matrix is not finite and orthogonal")
    return g


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def pam_alphabet(m: int, normalize: bool = True) -> np.ndarray:
    """Centered PAM levels {-(m-1), ..., m-1} step 2, unit average energy.

    With ``normalize=False`` the integer levels are returned as-is (used by
    the unnormalized determinant probes).
    """
    if m < 1:
        raise ValueError("alphabet needs at least one level")
    levels = 2.0 * np.arange(m) - (m - 1)
    if normalize and m > 1:
        levels = levels * np.sqrt(3.0 / (m * m - 1.0))
    return levels


def product_grid(levels: np.ndarray, n: int) -> np.ndarray:
    """Every n-tuple of ``levels``, shape (len(levels)^n, n), the first
    coordinate the most significant digit of the row index."""
    digits = np.unravel_index(np.arange(len(levels) ** n), (len(levels),) * n)
    return levels[np.stack(digits, axis=-1)]


@dataclass(frozen=True)
class RotatedLattice:
    """A finite rotated lattice constellation: points G @ a, a in base^n."""

    n: int
    g: np.ndarray          # n x n real orthogonal generator
    base: np.ndarray       # per-coordinate levels

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.shape != (self.n, self.n):
            raise ValueError(f"generator must be {self.n}x{self.n}")
        if not (np.all(np.isfinite(g)) and np.max(np.abs(g.T @ g - np.eye(self.n))) <= 1e-9):
            raise ValueError("generator is not finite and orthogonal")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "base", np.asarray(self.base, dtype=np.float64))

    def points(self) -> np.ndarray:
        """All lattice points, shape (len(base)^n, n), index-lexicographic."""
        return product_grid(self.base, self.n) @ self.g.T


def default_lattice(n: int, points_per_coord: int = 2) -> RotatedLattice:
    return RotatedLattice(n, rotation(n), pam_alphabet(points_per_coord))
