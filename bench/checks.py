"""Correctness checks of the benchmark, and the plain-numpy references they use.

Every check compares a program output against a property of the method or
against a value computed here apart from the program's batched code paths,
never against a stored copy of an earlier output. Each check returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Relative tolerance for two computations of one determinant that differ
# only in summation order.
DET_RTOL = 1e-9
# Absolute floor below which a determinant counts as zero (the verifier's).
DET_ZERO = 1e-12
# Agreement of two Monte Carlo SER estimates, in standard errors.
SER_Z = 4.0


# ---------------------------------------------------------------------------
# plain-numpy references
# ---------------------------------------------------------------------------

def delta_det(weights: np.ndarray, diff) -> float:
    """|det(dS^H dS)| for one symbol-difference vector, dS = sum_k d_k A_k."""
    ds = np.tensordot(np.asarray(diff, dtype=np.float64), weights, axes=1)
    return float(abs(np.linalg.det(ds.conj().T @ ds)))


def product_codewords(group_values, groups) -> np.ndarray:
    """Every codeword of a product codebook, built with itertools."""
    k = sum(len(g) for g in groups)
    rows = []
    for choice in itertools.product(*[range(len(v)) for v in group_values]):
        x = np.zeros(k)
        for grp, vals, i in zip(groups, group_values, choice):
            x[list(grp)] = vals[i]
        rows.append(x)
    return np.array(rows)


def brute_force_min_det(weights: np.ndarray, codewords: np.ndarray) -> float:
    """Minimum |det(dS^H dS)| over all pairs of distinct codewords."""
    i, j = np.triu_indices(len(codewords), k=1)
    ds = np.tensordot(codewords[j] - codewords[i], weights, axes=1)
    gram = np.conj(np.swapaxes(ds, 1, 2)) @ ds
    return float(np.min(np.abs(np.linalg.det(gram))))


def ml_decide(y: np.ndarray, basis: np.ndarray, codewords: np.ndarray) -> int:
    """Index of the codeword minimising ||y - basis @ x||^2 (lowest on ties)."""
    return int(np.argmin(np.sum(np.abs(y[None, :] - codewords @ basis.T) ** 2, axis=1)))


def zf_decide(y: np.ndarray, basis: np.ndarray, group_values, groups):
    """Least-squares estimate of the real symbols, sliced per group.

    Returns per-group point indices, or None for a rank-deficient model
    (the program's erasure).
    """
    a = np.concatenate([basis.real, basis.imag])
    b = np.concatenate([y.real, y.imag])
    xhat, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        return None
    return [int(np.argmin(np.sum((vals - xhat[list(grp)]) ** 2, axis=1)))
            for grp, vals in zip(groups, group_values)]


# ---------------------------------------------------------------------------
# sweep checks
# ---------------------------------------------------------------------------

def check_decisions(results, snr_grid, trials: int, n_groups: int) -> list[str]:
    """One result per grid point, each counting trials x groups decisions."""
    fails = []
    if [r.snr_db for r in results] != list(snr_grid):
        fails.append(f"SNR points {[r.snr_db for r in results]} != grid {list(snr_grid)}")
    for r in results:
        if r.trials != trials * n_groups:
            fails.append(f"{r.snr_db} dB: {r.trials} decisions, "
                         f"expected {trials} x {n_groups}")
        if not 0 <= r.errors <= r.trials:
            fails.append(f"{r.snr_db} dB: {r.errors} errors of {r.trials}")
    return fails


def check_no_fallbacks(results) -> list[str]:
    """A 4-group decodable design never needs the joint-ML fallback."""
    return [f"{r.snr_db} dB: {r.fallbacks} fallbacks" for r in results if r.fallbacks]


def check_same_errors(results, reference) -> list[str]:
    """Per-SNR error counts equal those of the reference run."""
    got = [(r.snr_db, r.errors) for r in results]
    want = [(r.snr_db, r.errors) for r in reference]
    return [] if got == want else [f"error counts {got} != reference {want}"]


def check_ser_agrees(errors: int, trials: int, ref_errors: int, ref_trials: int,
                     n_groups: int) -> list[str]:
    """Two SER estimates agree within SER_Z standard errors.

    The standard error is bounded as if all groups of a trial erred
    together, so it counts trials, not decisions.
    """
    p1 = errors / (trials * n_groups)
    p2 = ref_errors / (ref_trials * n_groups)
    pool = (errors + ref_errors) / ((trials + ref_trials) * n_groups)
    se = math.sqrt(max(pool * (1.0 - pool), 1e-12) * (1.0 / trials + 1.0 / ref_trials))
    if abs(p1 - p2) > SER_Z * se:
        return [f"SER {p1:.5f} vs reference {p2:.5f} differ by more than "
                f"{SER_Z} x {se:.5f}"]
    return []


def check_same_bytes(text: str, reference: str) -> list[str]:
    """Byte-identical output (pooled against serial)."""
    if text == reference:
        return []
    a, b = text.encode(), reference.encode()
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"outputs differ at byte {at} ({len(a)} vs {len(b)} bytes)"]


# ---------------------------------------------------------------------------
# determinant checks
# ---------------------------------------------------------------------------

def check_min_at_witness(weights: np.ndarray, value: float, witness) -> list[str]:
    """The reported minimum is the determinant at the returned witness."""
    if witness is None or not np.any(np.asarray(witness) != 0):
        return [f"minimum {value!r} has no nonzero witness"]
    again = delta_det(weights, witness)
    if abs(again - value) > DET_RTOL * abs(again) + DET_ZERO:
        return [f"minimum {value!r} != {again!r} recomputed at the witness"]
    return []


def check_equal_minima(value: float, reference: float, what: str) -> list[str]:
    if abs(value - reference) > DET_RTOL * abs(reference) + DET_ZERO:
        return [f"{what}: {value!r} != {reference!r}"]
    return []


def check_nvd_floor(small: float, large: float) -> list[str]:
    """A non-vanishing floor is positive and equal at both constellation sizes."""
    if small <= DET_ZERO:
        return [f"determinant floor {small!r} is not positive"]
    return check_equal_minima(large, small, "floor at the larger constellation")


def check_rank_deficient(weights: np.ndarray, value: float, witness) -> list[str]:
    """An unprecoded design's zero minimum comes with a rank-deficient dS."""
    fails = [] if value <= DET_ZERO else [f"minimum {value!r} is not zero"]
    if witness is None:
        return fails + ["no witness"]
    ds = np.tensordot(np.asarray(witness, dtype=np.float64), weights, axes=1)
    if np.linalg.matrix_rank(ds) >= min(ds.shape):
        fails.append("witness dS has full rank")
    return fails


def check_reports_pass(reports) -> list[str]:
    return [f"{r.check} failed: {r}" for r in reports if not r.passed]
