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
