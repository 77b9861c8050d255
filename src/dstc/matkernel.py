"""Dense complex matrix kernel shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` of ``complex128``. All checks use a
single zero-test predicate so every verifier in the package agrees on what
"numerically zero" means. Matrices in this package are small (at most ~20x20)
and well conditioned, so exactness of the algebraic identities matters more
than speed; the PD inverse square root goes through a full Hermitian
eigendecomposition rather than an iteration.
"""

from __future__ import annotations

import numpy as np

# Relative zero tolerance, used package-wide (see zero_threshold).
REL_TOL = 1e-9


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array, validating shape and finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_finite(a: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite entry of ``a``, if any."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), a.shape)
        raise ValueError(f"{name}[{', '.join(map(str, idx))}] is not finite: {a[idx]}")


def zero_threshold(scale):
    """The package-wide zero test: |z| < REL_TOL * (1 + scale), per scale."""
    return REL_TOL * (1.0 + scale)


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian (conjugate) transpose."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def is_hermitian(m: np.ndarray) -> bool:
    """Square and equal to its conjugate transpose under the zero test."""
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    tol = zero_threshold(float(np.max(np.abs(a))) if a.size else 0.0)
    return bool(np.max(np.abs(a - herm(a))) <= tol) if a.size else True


def inv_sqrt_pd(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite matrix.

    Returns the Hermitian X with X @ m @ X = I. Used for the whitening
    filters (noise covariance and the channel-dependent relay Gram matrix).

    Raises:
        ValueError: input not Hermitian to tolerance.
        numpy.linalg.LinAlgError: smallest eigenvalue <= 0 (singular or
            indefinite input).
    """
    a = as_cmatrix(m)
    if not is_hermitian(a):
        raise ValueError("inv_sqrt_pd: input is not Hermitian")
    w, v = np.linalg.eigh(a)
    scale = float(w[-1]) if a.size else 0.0
    if a.size and w[0] <= zero_threshold(scale):
        raise np.linalg.LinAlgError(
            f"inv_sqrt_pd: matrix is not positive definite (min eig {w[0]:.3e})")
    x = (v * (1.0 / np.sqrt(w))) @ herm(v)
    # symmetrize to kill roundoff skew; X is Hermitian by construction
    return 0.5 * (x + herm(x))
