"""Algebraic certification of relay designs.

Checks, each returning a report with a concrete witness on failure:

* conjugate-linearity of columns (each design column uses only the source
  symbols or only their conjugates) and row-orthogonality of the extracted
  relay matrices — together these make the relay-amplified noise covariance
  diagonal and let each relay operate with a single matrix;
* the weight-matrix anticommutation condition for group-by-group ML
  decoding, on raw weights and on channel-whitened weights over random
  draws;
* exhaustive minimum codeword-difference determinants (full diversity) and
  the determinant probe across constellation sizes (non-vanishing
  determinant evidence).

The determinant minima never build the array of difference vectors. dS is
linear in the symbol difference, so for a product codebook dS of a
difference is a sum of one projected piece per group: the pieces of the
leading and of the trailing half of the groups are summed once each, and
leading x trailing combinations are scored in cache-sized blocks. Explicit
codeword lists are projected once and scored pair by pair on differences
of projections. Square designs are scored as |det dS|^2, others by the
determinant of the R x R Gram matrix; small determinants are expanded in
closed form over the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import matkernel
from .designs import Design, RelayMatrixSet, relay_matrix_set
from .gnaf_sim import ProtocolParams, make_rng, sample_channel
from .receivers import (PAIR_GUARD, Codebook, ResourceGuardError,
                        qam_codebook)


@dataclass(frozen=True)
class VerifierReport:
    check: str
    passed: bool
    margin: float                 # worst numeric violation found
    witness: object = None        # offending column / pair / difference vector
    details: dict = field(default_factory=dict)

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        extra = f" witness={self.witness}" if not self.passed else ""
        return f"[{tag}] {self.check}: margin {self.margin:.3e}{extra}"


@dataclass(frozen=True)
class GammaMatrix:
    """Channel-dependent relay Gram matrix with its scalar prefactor."""

    matrix: np.ndarray            # T2 x T2 Hermitian PSD
    prefactor: float              # pi3 P / (pi1 P + 1)


# ---------------------------------------------------------------------------
# conjugate-linearity / row orthogonality
# ---------------------------------------------------------------------------

def check_condition1(d: Design) -> VerifierReport:
    """Every column must be purely plain or purely conjugated.

    Classification is exact: column c is P_c @ s + Q_c @ conj(s) with the
    coefficient matrices read straight off the weights, so a column is
    plain iff Q_c vanishes and conjugated iff P_c vanishes.
    """
    scale = float(np.max(np.abs(d.weights))) if d.weights.size else 0.0
    thr = matkernel.zero_threshold(scale)
    kinds = []
    worst = 0.0
    bad = None
    for c in range(d.r):
        p, q = d.column_forms(c)
        pmax = float(np.max(np.abs(p))) if p.size else 0.0
        qmax = float(np.max(np.abs(q))) if q.size else 0.0
        impurity = min(pmax, qmax)
        worst = max(worst, impurity)
        if impurity > thr:
            kinds.append("mixed")
            if bad is None:
                bad = c
        elif qmax <= thr:
            kinds.append("plain")
        else:
            kinds.append("conj")
    return VerifierReport("condition1", bad is None, worst, bad,
                          {"columns": kinds})


def check_condition2(rs: RelayMatrixSet) -> VerifierReport:
    """All rows of every relay matrix must be mutually orthogonal."""
    worst = 0.0
    bad = None
    for i, m in enumerate(rs.matrices):
        gram = m @ matkernel.herm(m)
        off = gram - np.diag(np.diag(gram))
        val = float(np.max(np.abs(off))) if off.size else 0.0
        if val > worst:
            worst = val
        thr = matkernel.zero_threshold(float(np.max(np.abs(gram))) if gram.size else 0.0)
        if val > thr and bad is None:
            bad = i
    return VerifierReport("condition2", bad is None, worst, bad)


def check_clro(d: Design) -> VerifierReport:
    """Both conditions at once (columns conjugate-linear, relay rows orthogonal)."""
    r1 = check_condition1(d)
    if not r1.passed:
        return VerifierReport("clro", False, r1.margin, r1.witness, r1.details)
    r2 = check_condition2(relay_matrix_set(d))
    return VerifierReport("clro", r2.passed, max(r1.margin, r2.margin),
                          r2.witness, {**r1.details})


# ---------------------------------------------------------------------------
# group decodability
# ---------------------------------------------------------------------------

def check_group_decodable(weights: np.ndarray, partition) -> VerifierReport:
    """Cross-group anticommutation: A_i^H A_j + A_j^H A_i = 0 for i, j in
    different groups. Witness is the first violating index pair."""
    w = np.asarray(weights, dtype=np.complex128)
    k = w.shape[0]
    covered = sorted(i for grp in partition for i in grp)
    if covered != list(range(k)):
        raise ValueError("partition does not cover the symbol indices")
    gram = np.einsum("itr,jts->ijrs", np.conj(w), w)   # gram[i,j] = A_i^H A_j
    cross = gram + gram.transpose(1, 0, 2, 3)          # + A_j^H A_i
    viol = np.max(np.abs(cross), axis=(2, 3))
    for grp in partition:
        idx = np.ix_(list(grp), list(grp))
        viol[idx] = 0.0
    worst = float(np.max(viol)) if viol.size else 0.0
    scale = float(np.max(np.abs(gram))) if gram.size else 0.0
    thr = matkernel.zero_threshold(scale)
    witness = None
    if worst > thr:
        i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
        witness = (int(i), int(j))
    return VerifierReport("group_decodable", witness is None, worst, witness,
                          {"groups": len(partition)})


def compute_gamma(rs: RelayMatrixSet, gains, params: ProtocolParams) -> GammaMatrix:
    """Gamma = [pi3 P/(pi1 P+1)] * sum_i |g_i|^2 M_i M_i^H (Hermitian PSD)."""
    gains = np.asarray(gains, dtype=np.complex128)
    if gains.shape != (rs.n_relays,):
        raise ValueError(f"need {rs.n_relays} relay gains, got {gains.shape}")
    if not np.all(np.isfinite(gains)):
        raise ValueError("non-finite relay gain")
    acc = np.zeros((rs.t2, rs.t2), dtype=np.complex128)
    for gi, m in zip(gains, rs.matrices):
        acc += (abs(gi) ** 2) * (m @ matkernel.herm(m))
    pref = params.amplify
    return GammaMatrix(pref * acc, pref)


def whitened_weights(d: Design, gamma: GammaMatrix) -> np.ndarray:
    """Weight matrices of Gamma^{-1/2} S(X) (rows conditioned per draw)."""
    w = matkernel.inv_sqrt_pd(gamma.matrix)
    return np.einsum("ts,ksr->ktr", w, d.weights)


def check_whitened_group_decodable(d: Design, partition, params: ProtocolParams,
                                   n_draws: int, seed: int = 0) -> VerifierReport:
    """Anticommutation of the whitened relay-part weights over random draws.

    Each draw conditions the design by the inverse square root of the relay
    Gram matrix for freshly sampled link gains; near-singular draws (all
    gains tiny) are resampled and counted. The report records the seed so a
    failing draw is replayable.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    rs = relay_matrix_set(d)
    rng = make_rng(seed, 0xC0, 0xDE)
    worst = 0.0
    witness = None
    resamples = 0
    draws = 0
    while draws < n_draws:
        ch = sample_channel(d.r, rng)
        gamma = compute_gamma(rs, ch.g, params)
        evals = np.linalg.eigvalsh(gamma.matrix)
        if evals[0] <= matkernel.zero_threshold(float(evals[-1])):
            resamples += 1
            if resamples > 100 * n_draws:
                raise RuntimeError("relay Gram matrix singular on every draw; "
                                   "the relay set cannot be whitened")
            continue
        draws += 1
        rep = check_group_decodable(whitened_weights(d, gamma), partition)
        worst = max(worst, rep.margin)
        if not rep.passed and witness is None:
            witness = {"draw": draws - 1, "pair": rep.witness,
                       "gains": ch.g.tolist()}
    return VerifierReport("whitened_group_decodable", witness is None, worst,
                          witness, {"draws": n_draws, "resamples": resamples,
                                    "seed": seed})


# ---------------------------------------------------------------------------
# determinant criteria
# ---------------------------------------------------------------------------

_DET_CHUNK = 1 << 12          # differences scored per block (cache-sized)
_DET_EXPAND_MAX = 4           # larger determinants go through batched LU


def _det_small(m: np.ndarray) -> np.ndarray:
    """Determinants of a batch of n x n matrices stored batch-last, (n, n, N).

    Up to _DET_EXPAND_MAX the rows are expanded bottom-up: the minor of the
    trailing rows on every column subset is formed once from the minors one
    row below, n 2^(n-1) vector products in all, with no per-matrix call.
    """
    n = m.shape[0]
    if n > _DET_EXPAND_MAX:
        return np.linalg.det(np.moveaxis(m, -1, 0))
    minors = {(j,): m[n - 1, j] for j in range(n)}
    for row in range(n - 2, -1, -1):
        nxt = {}
        for cols in combinations(range(n), n - row):
            acc = m[row, cols[0]] * minors[cols[1:]]
            for pos in range(1, len(cols)):
                term = m[row, cols[pos]] * minors[cols[:pos] + cols[pos + 1:]]
                acc = acc - term if pos % 2 else acc + term
            nxt[cols] = acc
        minors = nxt
    return minors[tuple(range(n))]


def _abs_dets(ds: np.ndarray) -> np.ndarray:
    """|det(dS^H dS)| for a batch of differences dS stored batch-last, (T, R, N).

    Square designs take |det dS|^2. Otherwise the R x R Gram matrix is
    formed entry by entry over the batch (Hermitian, so each pair of
    columns once) and its determinant taken.
    """
    t, r = ds.shape[:2]
    if t == r:
        v = _det_small(ds)
        return v.real ** 2 + v.imag ** 2
    gram = np.empty((r, r) + ds.shape[2:], dtype=np.complex128)
    for i in range(r):
        for j in range(i, r):
            gram[i, j] = np.sum(np.conj(ds[:, i]) * ds[:, j], axis=0)
            gram[j, i] = np.conj(gram[i, j])
    return np.abs(_det_small(gram))


def _min_det_product(d: Design, book: Codebook) -> tuple[float, np.ndarray]:
    """First minimum over a product codebook's difference set, group-0-major.

    dS is linear in the difference, and the difference set is the product
    of the per-group tables, so dS of any difference is the sum of one
    projected piece per group. The pieces of the leading and of the
    trailing half of the groups are summed once per half; blocks of
    leading x trailing sums are then scored without building the
    difference array.
    """
    tables = book.group_differences()
    t, r = d.t, d.r
    pieces = [(tab @ d.weights[list(grp)].reshape(len(grp), t * r)).T
              for grp, tab in zip(book.groups, tables)]
    half = len(pieces) // 2

    def sums(part):
        acc = np.zeros((t * r, 1), dtype=np.complex128)
        for c in part:
            acc = (acc[:, :, None] + c[:, None, :]).reshape(t * r, -1)
        return acc

    lead, trail = sums(pieces[:half]), sums(pieces[half:])
    n_trail = trail.shape[1]
    sizes = tuple(len(tab) for tab in tables)
    zero = int(np.ravel_multi_index(
        [int(np.flatnonzero(~np.any(tab, axis=1))[0]) for tab in tables], sizes))
    za, zb = divmod(zero, n_trail)
    rows = max(1, _DET_CHUNK // n_trail)
    cols = min(n_trail, _DET_CHUNK)
    best, best_flat = np.inf, -1
    for a0 in range(0, lead.shape[1], rows):
        a1 = min(a0 + rows, lead.shape[1])
        for b0 in range(0, n_trail, cols):
            b1 = min(b0 + cols, n_trail)
            ds = lead[:, a0:a1, None] + trail[:, None, b0:b1]
            dets = _abs_dets(ds.reshape(t, r, -1))
            if a0 <= za < a1 and b0 <= zb < b1:
                dets[(za - a0) * (b1 - b0) + zb - b0] = np.inf
            j = int(np.argmin(dets))
            if dets[j] < best:
                a, b = divmod(j, b1 - b0)
                best, best_flat = float(dets[j]), (a0 + a) * n_trail + b0 + b
    witness = np.zeros(book.k)
    for grp, tab, i in zip(book.groups, tables, np.unravel_index(best_flat, sizes)):
        witness[list(grp)] = tab[i]
    return best, witness


def _min_det_pairs(d: Design, x: np.ndarray) -> tuple[float, np.ndarray]:
    """First minimum over the pairs (i, j > i) of explicit codewords, row-major.

    Each codeword is projected once, S = x W, and a pair is scored on
    S[j] - S[i], in blocks of consecutive pairs.
    """
    n = len(x)
    t, r = d.t, d.r
    proj = (x @ d.weights.reshape(d.k, t * r)).T
    row = np.arange(n)
    start = row * n - row * (row + 1) // 2      # flat index of pair (i, i + 1)
    best, best_pair = np.inf, (0, 1)
    for p0 in range(0, n * (n - 1) // 2, _DET_CHUNK):
        p = np.arange(p0, min(p0 + _DET_CHUNK, n * (n - 1) // 2))
        i = np.searchsorted(start, p, side="right") - 1
        j = p - start[i] + i + 1
        dets = _abs_dets((proj[:, j] - proj[:, i]).reshape(t, r, -1))
        k = int(np.argmin(dets))
        if dets[k] < best:
            best, best_pair = float(dets[k]), (int(i[k]), int(j[k]))
    return best, x[best_pair[1]] - x[best_pair[0]]


def min_delta_det_full(d: Design, codebook) -> tuple[float, np.ndarray | None]:
    """Minimum |det(dS^H dS)| over distinct codeword pairs, with a witness.

    ``codebook`` is either an (N, K) array of symbol vectors or a product
    Codebook. Both are searched exhaustively; there is no sampling fallback.

    * Explicit codewords: every pair (i, j > i) is scored, guarded at
      N^2 <= 1e7. Each codeword is projected once and a pair's dS is the
      difference of two projections.
    * Product codebook: the search runs over the exact difference set,
      much smaller than the pairs, without building it. The difference set
      is the product of the per-group tables (Codebook.group_differences,
      guarded like difference_vectors), so dS of a difference is a sum of
      one projected piece per group; the sums over the leading and the
      trailing half of the groups are formed once and scored in blocks.

    The witness is the first minimizing difference, in row-major pair
    order or in the group-0-major order of difference_vectors, as a fresh
    array. Square designs are scored as |det dS|^2. A one-codeword book
    returns (+inf, None).
    """
    if isinstance(codebook, Codebook):
        if codebook.size < 2:
            return np.inf, None
        return _min_det_product(d, codebook)

    x = np.asarray(codebook, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != d.k:
        raise ValueError(f"codebook must be (N, {d.k})")
    n = x.shape[0]
    if n < 2:
        return np.inf, None
    if n * n > PAIR_GUARD:
        raise ResourceGuardError(
            f"{n}^2 pairs exceed the exhaustive-pairing guard "
            f"{PAIR_GUARD}; refusing (no sampling fallback)")
    return _min_det_pairs(d, x)


def min_delta_det(d: Design, codebook) -> float:
    """Minimum codeword-difference determinant (see min_delta_det_full)."""
    return min_delta_det_full(d, codebook)[0]


@dataclass(frozen=True)
class NvdProbe:
    """Determinant-floor evidence across constellation sizes."""

    entries: tuple[tuple[int, float], ...]   # (QAM size, min det)
    non_vanishing: bool


def nvd_probe(d: Design, qam_sizes) -> NvdProbe:
    """Minimum difference determinant per unnormalized integer QAM size.

    The determinant floor of a non-vanishing-determinant design is identical
    across sizes (finite evidence only, at the probed sizes). Uses exact
    difference enumeration; refuses sizes whose difference set exceeds the
    guard.
    """
    sizes = sorted(int(s) for s in qam_sizes)
    entries = []
    for m in sizes:
        side = int(round(np.sqrt(m)))
        if side * side != m or m < 4:
            raise ValueError(f"QAM size must be a perfect square >= 4, got {m}")
        book = qam_codebook(d.n_complex, m, normalize=False)
        val, _ = min_delta_det_full(d, book)
        entries.append((m, float(val)))
    base = entries[0][1]
    if base <= matkernel.ABS_FLOOR:
        nv = False
    else:
        nv = min(v for _, v in entries) / base >= 1.0 - 1e-6
    return NvdProbe(tuple(entries), nv)
