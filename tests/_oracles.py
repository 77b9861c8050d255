"""Reference computations the tests compare the package against."""

import numpy as np


def ml_joint_metrics(y: np.ndarray, model: np.ndarray, x_all: np.ndarray) -> np.ndarray:
    """Squared distance ||y - M x||^2 of every codeword: (batch, n_codewords).

    The full-distance reference for y (batch, rows), M (batch, rows, K) and
    codewords x_all (n_codewords, K); the detectors score the equivalent
    sufficient-statistic metric instead.
    """
    sig = np.einsum("brk,nk->bnr", model, x_all)
    return np.sum(np.abs(y[:, None, :] - sig) ** 2, axis=-1)


def sufficient_stats(y: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter output z = Re(M^H y) and Gram matrix G = Re(M^H M).

    Shapes (..., K) and (..., K, K) for y (..., rows) and M (..., rows, K).
    Since ||y - M x||^2 = ||y||^2 - 2 z.x + x^T G x for real x, (z, G)
    carry everything every detector needs. The reference for the
    statistics the Monte Carlo forms from the gains without building M
    (gnaf_sim._whitened_stats), and the detectors' input in the tests. Both
    come from one matmul on the realified model [Re M; Im M] against
    [Re M; Im M | Re y; Im y].
    """
    y = np.asarray(y, dtype=np.complex128)
    m = np.asarray(m, dtype=np.complex128)
    rows, k = m.shape[-2:]
    aug = np.empty(m.shape[:-2] + (2 * rows, k + 1))
    aug[..., :rows, :k] = m.real
    aug[..., rows:, :k] = m.imag
    aug[..., :rows, k] = y.real
    aug[..., rows:, k] = y.imag
    zg = np.swapaxes(aug[..., :k], -1, -2) @ aug
    return zg[..., k], zg[..., :k]
