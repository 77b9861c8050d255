"""Dense complex matrix kernel shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` of ``complex128``. All checks use a
single zero-test predicate so every verifier in the package agrees on what
"numerically zero" means. Matrices in this package are small (at most ~20x20),
so exactness of the algebraic identities matters more than speed; the PD
inverse square root goes through a full Hermitian eigendecomposition rather
than an iteration, and refuses only what that eigensolver cannot tell apart
from a singular matrix, not what the zero test would call ill conditioned.

``Workspace`` is the one place scratch arrays outlive a call: the Monte
Carlo gives each of its workers one per sweep, and the batch path
(gnaf_sim and the detectors in receivers) takes its arrays of batch or
block size from it.
"""

from __future__ import annotations

import math

import numpy as np

# Relative zero tolerance, used package-wide (see zero_threshold).
REL_TOL = 1e-9


class Workspace:
    """Named scratch arrays, reused by every call that is given the workspace.

    ``array(name, shape, dtype)`` returns a C-contiguous array over the
    buffer kept under ``name``: allocated on first use, grown when a later
    call needs more, never shrunk. Its entries are whatever the last user
    of ``name`` left, so a caller writes every entry before it reads one,
    and an array stays valid only until the next request for its name.
    Dropping the workspace frees every buffer.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


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
    """The package-wide zero test: |z| < REL_TOL * scale, per scale.

    Purely relative: scaling the inputs scales the threshold with them, so
    no verdict depends on their scale.
    """
    return REL_TOL * scale


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
    filter of the verifier's whitened check (the cooperation block of the
    noise covariance).

    Only a matrix the eigensolver cannot tell apart from a singular one is
    refused: one whose smallest eigenvalue is not above the solver's error
    bound, n * eps * largest eigenvalue. A positive-definite matrix that
    is merely ill conditioned, such as I + Gamma of a design whose weights
    are large, is not refused.

    Raises:
        ValueError: input not Hermitian to tolerance.
        numpy.linalg.LinAlgError: smallest eigenvalue within the solver's
            error of 0, or below it (singular or indefinite input).
    """
    a = as_cmatrix(m)
    if not is_hermitian(a):
        raise ValueError("inv_sqrt_pd: input is not Hermitian")
    w, v = np.linalg.eigh(a)
    if a.size and w[0] <= len(w) * np.finfo(float).eps * w[-1]:
        raise np.linalg.LinAlgError(
            f"inv_sqrt_pd: matrix is not positive definite (min eig {w[0]:.3e})")
    x = (v * (1.0 / np.sqrt(w))) @ herm(v)
    # symmetrize to kill roundoff skew; X is Hermitian by construction
    return 0.5 * (x + herm(x))
