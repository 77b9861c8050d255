"""Algebraic certification of relay designs.

Every check's verdict is made here, as a VerifierReport: pass or fail, the
margin, a concrete witness on failure and the details, thresholds
included. The checks are:

* conjugate-linearity of columns (each design column uses only the source
  symbols or only their conjugates) and row-orthogonality of the extracted
  relay matrices — together these make the relay-amplified noise covariance
  diagonal and let each relay operate with a single matrix; both this
  check and the relay Gram Gamma read the relay set's Gram stack;
* the weight-matrix anticommutation condition for group-by-group ML
  decoding, on raw weights and on weights whitened over random draws by
  the cooperation block of the noise covariance I + Gamma (noise_cov),
  the covariance the simulator whitens by;
* full diversity, from the exhaustive minimum codeword-difference
  determinant, and the determinant probe across constellation sizes
  (non-vanishing determinant evidence); both call a minimum zero only
  below det_zero_threshold.

The determinant layer also scores the minimum product distance of a
lattice rotation, as a determinant minimum of a diagonal design.

The determinant minima never build the array of difference vectors. dS is
linear in the symbol difference, so for a product codebook dS of a
difference is a sum of one projected piece per group: the pieces of the
leading and of the trailing half of the groups are summed once each, and
leading x trailing combinations are scored in cache-sized blocks. Since
det dS(-d) = det dS(d), only the differences before the zero difference in
group-0-major order are scored: every per-group table is closed under
negation, the zero sits at the middle of the order, and the negated half
is never built. Explicit codeword lists are projected once; a block of
consecutive rows i is scored against the contiguous run of codewords
j > i, with the few pairs j <= i inside the block masked. Square designs
are scored as |det dS|^2, others by the determinant of the R x R Gram
matrix; small determinants are expanded in closed form over the whole
block. Oversized requests raise ResourceGuardError before anything is
scored.

Layout: both paths project through _projection, which returns dS of each
symbol vector flattened as a (T*R, N) array in C order, so the leading and
trailing sums and every scored block, a (T, R, n) sum or difference of
their slices, are C-contiguous. A block holds about _DET_CHUNK = 2^13
differences, the fastest of 2^12 .. 2^15 on the golden QAM16 and
Toeplitz QAM36 minima (README, Determinant minima); a transposed
(F-order) projection makes every block strided, and those minima score
up to 2.6 times slower on strided blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import matkernel
from .designs import MIXED, Design, RelayMatrixSet, column_kinds, relay_matrix_set
from .gnaf_sim import ProtocolParams, make_rng, noise_cov, sample_channel
from .precoding import check_partition
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


# ---------------------------------------------------------------------------
# conjugate-linearity / row orthogonality
# ---------------------------------------------------------------------------

def check_condition1(d: Design) -> VerifierReport:
    """Every column must be purely plain or purely conjugated.

    Columns are classified by designs.column_kinds, the rule
    relay_matrix_set extracts relays with; the margin is the worst
    impurity and the witness the first mixed column.
    """
    kinds, worst, _ = column_kinds(d)
    bad = kinds.index(MIXED) if MIXED in kinds else None
    return VerifierReport("condition1", bad is None, worst, bad,
                          {"columns": kinds})


def check_condition2(rs: RelayMatrixSet) -> VerifierReport:
    """All rows of every relay matrix must be mutually orthogonal."""
    worst, bad = 0.0, None
    for i, gram in enumerate(rs.grams):
        val = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        worst = max(worst, val)
        if bad is None and val > matkernel.zero_threshold(float(np.max(np.abs(gram)))):
            bad = i
    return VerifierReport("condition2", bad is None, worst, bad)


def check_clro(d: Design) -> VerifierReport:
    """Both conditions at once (columns conjugate-linear, relay rows orthogonal)."""
    return clro_relay_set(d)[0]


def clro_relay_set(d: Design) -> tuple[VerifierReport, RelayMatrixSet | None]:
    """The clro report and the relay set it examined.

    The relay set is None when a column mixes symbols and conjugates, since
    no relay matrix exists for such a column.
    """
    r1 = check_condition1(d)
    if not r1.passed:
        return VerifierReport("clro", False, r1.margin, r1.witness, r1.details), None
    rs = relay_matrix_set(d)
    r2 = check_condition2(rs)
    return (VerifierReport("clro", r2.passed, max(r1.margin, r2.margin),
                           r2.witness, {**r1.details}), rs)


# ---------------------------------------------------------------------------
# group decodability
# ---------------------------------------------------------------------------

def check_group_decodable(weights: np.ndarray, partition) -> VerifierReport:
    """Cross-group anticommutation: A_i^H A_j + A_j^H A_i = 0 for i, j in
    different groups. Witness is the first violating index pair."""
    w = np.asarray(weights, dtype=np.complex128)
    check_partition(partition, w.shape[0])
    gram = np.einsum("itr,jts->ijrs", np.conj(w), w)   # gram[i,j] = A_i^H A_j
    cross = gram + gram.transpose(1, 0, 2, 3)          # + A_j^H A_i
    viol = np.max(np.abs(cross), axis=(2, 3), initial=0.0)
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


def whitened_weights(d: Design, cov: np.ndarray) -> np.ndarray:
    """Weight matrices of cov^{-1/2} S(X), the design whitened by ``cov``.

    ``cov`` is a T x T Hermitian positive-definite noise covariance;
    inv_sqrt_pd raises numpy.linalg.LinAlgError for any other.
    """
    w = matkernel.inv_sqrt_pd(cov)
    return np.einsum("ts,ksr->ktr", w, d.weights)


def check_whitened_group_decodable(d: Design, partition, params: ProtocolParams,
                                   n_draws: int, seed: int = 0) -> VerifierReport:
    """Anticommutation of the whitened relay-part weights over random draws.

    Each draw whitens the design by the cooperation block of the noise
    covariance Omega = I + Gamma (noise_cov) for freshly sampled link
    gains, the covariance the simulator whitens by; ``params`` sets
    Gamma's weight against the identity. I + Gamma is positive definite
    for every draw. The report records the seed so a failing draw is
    replayable.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    rs = relay_matrix_set(d)
    coop = params.rows - params.t2
    rng = make_rng(seed, 0xC0, 0xDE)
    worst = 0.0
    witness = None
    for draw in range(n_draws):
        ch = sample_channel(d.r, rng)
        cov = noise_cov(params, ch, rs)[coop:, coop:]
        rep = check_group_decodable(whitened_weights(d, cov), partition)
        worst = max(worst, rep.margin)
        if not rep.passed and witness is None:
            witness = {"draw": draw, "pair": rep.witness, "gains": ch.g.tolist()}
    return VerifierReport("whitened_group_decodable", witness is None, worst,
                          witness, {"draws": n_draws, "seed": seed})


# ---------------------------------------------------------------------------
# determinant criteria
# ---------------------------------------------------------------------------

_DET_CHUNK = 1 << 13          # differences scored per block (set by measurement)
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


def _projection(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dS of each symbol vector (row) of ``values``, flattened: (T*R, N), C order.

    The blocks the minima score are sums or differences of slices of these
    rows, so they come out C-contiguous too. The copy keeps the values of
    values @ W bit for bit.
    """
    return np.ascontiguousarray((values @ weights.reshape(len(weights), -1)).T)


def _overflow_error() -> ValueError:
    return ValueError("determinant scores overflow float64, so no finite "
                      "minimum can be certified; rescale the design weights "
                      "or the constellation")


def _first_min(lead: np.ndarray, trail: np.ndarray, blocks, t: int, r: int,
               upper: bool = False) -> tuple[float, tuple[int, int]]:
    """First minimum score over blocks of sums lead[:, a] + trail[:, b].

    ``blocks`` lists (a0, a1, b0, b1) ranges in scan order; each block is
    scored whole and searched row-major, so the first minimum of the scan
    is the first in (block, a, b) order. With ``upper`` the sums with
    b <= a are skipped. Returns the minimum and its (a, b); no finite score
    (float64 overflow) or an undefined one raises _overflow_error.
    """
    best, best_ab = np.inf, None
    for a0, a1, b0, b1 in blocks:
        ds = (lead[:, a0:a1, None] + trail[:, None, b0:b1]).reshape(t, r, -1)
        dets = _abs_dets(ds).reshape(a1 - a0, b1 - b0)
        if upper:
            dets[np.tri(a1 - a0, b1 - b0, a0 - b0, dtype=bool)] = np.inf
        k = int(np.argmin(dets))                    # argmin stops at a NaN
        if dets.flat[k] < best:
            a, b = divmod(k, b1 - b0)
            best, best_ab = float(dets.flat[k]), (a0 + a, b0 + b)
        elif np.isnan(dets.flat[k]):
            raise _overflow_error()
    if best == np.inf:
        raise _overflow_error()
    return best, best_ab


def _min_det_product(d: Design, book: Codebook) -> tuple[float, np.ndarray]:
    """First minimum over a product codebook's difference set, group-0-major.

    dS is linear in the difference, and the difference set is the product
    of the per-group tables, so dS of any difference is the sum of one
    projected piece per group. The pieces of the leading and of the
    trailing half of the groups are summed once per half; blocks of
    leading x trailing sums are then scored without building the
    difference array.

    Only the flat indices below the zero difference's are scored. Every
    table is sorted and closed under negation (tab == -tab[::-1]), so
    negation maps flat index f to N-1-f and the zero sits at (N-1)/2. The
    upper half of each piece is written as the negated lower half, which
    makes dS(-delta) exactly -dS(delta) and its score bit-identical; the
    first minimum therefore always lies in the lower half.
    """
    tables = book.group_differences()
    t, r = d.t, d.r
    pieces = []
    for grp, tab in zip(book.groups, tables):
        assert np.array_equal(tab, -tab[::-1]), "difference table not closed under negation"
        piece = _projection(tab, d.weights[list(grp)])
        z = len(tab) // 2                           # the zero row
        piece[:, z + 1:] = -piece[:, :z][:, ::-1]
        pieces.append(piece)
    half = len(pieces) // 2

    def sums(part):
        acc = np.zeros((t * r, 1), dtype=np.complex128)
        for c in part:
            acc = (acc[:, :, None] + c[:, None, :]).reshape(t * r, -1)
        return acc

    lead, trail = sums(pieces[:half]), sums(pieces[half:])
    n_trail = trail.shape[1]
    zero = lead.shape[1] * n_trail // 2             # flat index of the zero difference
    if zero == 0:                                   # every codeword is the same
        return np.inf, None
    rows = max(1, _DET_CHUNK // n_trail)
    cols = min(n_trail, _DET_CHUNK)
    full_rows, rest = divmod(zero, n_trail)
    # (first, last + 1, width) row bands: whole rows of trailing sums, then
    # the zero's row up to the zero, so no block needs truncating; a block
    # is whole trailing rows or part of one row, so its flat indices run
    # contiguously and the scan is in flat order
    bands = [(a0, min(a0 + rows, full_rows), n_trail)
             for a0 in range(0, full_rows, rows)] + [(full_rows, full_rows + 1, rest)]
    blocks = [(a0, a1, b0, min(b0 + cols, width))
              for a0, a1, width in bands for b0 in range(0, width, cols)]
    best, (a, b) = _first_min(lead, trail, blocks, t, r)
    witness = np.zeros(book.k)
    sizes = tuple(len(tab) for tab in tables)
    for grp, tab, i in zip(book.groups, tables,
                           np.unravel_index(a * n_trail + b, sizes)):
        witness[list(grp)] = tab[i]
    return best, witness


def _min_det_pairs(d: Design, x: np.ndarray) -> tuple[float, np.ndarray]:
    """First minimum over the pairs (i, j > i) of explicit codewords, row-major.

    Each codeword is projected once, S = x W, and a pair's dS is
    -S_i + S_j (bit-identical to S_j - S_i). A block of consecutive rows
    i0 <= i < i1 is scored against the contiguous slice of codewords
    i0 + 1 .. N-1, about _DET_CHUNK pairs at a time, with the few pairs
    j <= i inside the block skipped.
    """
    n = len(x)
    proj = _projection(x, d.weights)
    blocks, i0 = [], 0
    while i0 < n - 1:
        i1 = min(i0 + max(1, _DET_CHUNK // (n - 1 - i0)), n - 1)
        blocks.append((i0, i1, i0 + 1, n))
        i0 = i1
    best, (i, j) = _first_min(-proj, proj, blocks, d.t, d.r, upper=True)
    return best, x[j] - x[i]


def min_delta_det_full(d: Design, codebook) -> tuple[float, np.ndarray | None]:
    """Minimum |det(dS^H dS)| over distinct codeword pairs, with a witness.

    ``codebook`` is either an (N, K) array of symbol vectors or a product
    Codebook. Both are searched exhaustively; there is no sampling fallback.

    * Explicit codewords: every pair (i, j > i) is scored, guarded at
      N^2 <= 1e7. Each codeword is projected once and a pair's dS is the
      difference of two projections; consecutive rows i are scored as one
      block against the contiguous slice of codewords after the first.
    * Product codebook: the search runs over the exact difference set,
      much smaller than the pairs, without building it. The difference set
      is the product of the per-group tables of Codebook.group_differences,
      which guards the size of that product, so dS of a difference is a sum
      of one projected piece per group; the sums over the leading and the
      trailing half of the groups are formed once and scored in blocks.
      Only the half of the set before the zero difference is scored: each
      table is an exact negation mirror, so -d sits at the mirrored
      position and scores bit for bit the same as d.

    The witness is the first minimizing difference, in row-major pair
    order or in the group-0-major order of the product of the
    group_differences tables, as a fresh array. Scoring half the
    difference set keeps both: the first minimum always lies before the
    zero, because its mirror comes after it.
    Square designs are scored as |det dS|^2. A book whose codewords all
    coincide returns (+inf, None). Non-finite codewords raise ValueError
    naming the first one, and so does a search in which no scored
    determinant is finite (float64 overflow) or one is undefined
    (overflow followed by cancellation), on both paths alike.
    """
    if isinstance(codebook, Codebook):
        search = _min_det_product
    else:
        codebook = np.asarray(codebook, dtype=np.float64)
        if codebook.ndim != 2 or codebook.shape[1] != d.k:
            raise ValueError(f"codebook must be (N, {d.k})")
        matkernel.require_finite(codebook, "codebook")
        n = codebook.shape[0]
        if n < 2:
            return np.inf, None
        if n * n > PAIR_GUARD:
            raise ResourceGuardError(
                f"{n}^2 pairs exceed the exhaustive-pairing guard "
                f"{PAIR_GUARD}; refusing (no sampling fallback)")
        search = _min_det_pairs
    # an overflowing score is inf, or NaN after inf - inf; the search
    # turns both into _overflow_error instead of a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return search(d, codebook)


def det_zero_threshold(d: Design, book: Codebook) -> float:
    """The largest score rounding alone can give a singular difference.

    Column j of any dS over ``book`` has norm at most b_j = sum_k span_k
    ||A_k[:, j]||, with span_k the range of real symbol k, so by Hadamard's
    inequality H = prod_j b_j^2 bounds every score. Rounding errs a dS entry
    by about K eps and a Gram entry by about T eps relative to these bounds,
    and a determinant's first-order sensitivity to each of the R^2 Gram
    entries is at most H / (b_i b_j). So the computed score of an exactly
    singular dS stays below (2K + T) R^2 eps H, which scales with the
    weights and the constellation exactly as the scores do.
    """
    span = np.zeros(book.k)
    for grp, vals in zip(book.groups, book.group_values):
        span[list(grp)] = np.ptp(vals, axis=0)
    b = span @ np.linalg.norm(d.weights, axis=1)
    return float((2 * d.k + d.t) * d.r ** 2 * np.finfo(float).eps * np.prod(b * b))


def min_product_distance(g: np.ndarray, alphabet) -> float:
    """min over nonzero differences d of prod_i |(G d)_i|, exhaustively.

    ``g`` is a square n x n generator and ``alphabet`` the per-coordinate
    value set. The product distance of d is |det diag(G d)|: the square
    root of the determinant minimum of the design A_k = diag(G[:, k]) over
    one alphabet per coordinate. Oversized requests raise
    ResourceGuardError.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {g.shape}")
    matkernel.require_finite(g, "generator")
    n = g.shape[0]
    alphabet = np.asarray(alphabet, dtype=np.float64)
    if alphabet.ndim != 1:
        raise ValueError(f"alphabet must be 1-D, got shape {alphabet.shape}")
    if alphabet.size == 0:
        raise ValueError("empty alphabet")
    matkernel.require_finite(alphabet, "alphabet")
    d = Design("product-distance", g.T[:, :, None] * np.eye(n))
    book = Codebook(tuple((i,) for i in range(n)), (alphabet[:, None],) * n)
    return float(np.sqrt(min_delta_det_full(d, book)[0]))


def check_full_diversity(d: Design, book: Codebook,
                         constellation: str) -> VerifierReport:
    """Full diversity: the minimum |det(dS^H dS)| over ``book`` is no zero.

    A minimum at or below det_zero_threshold is one rounding alone could
    give, so it fails, with the first minimizing difference as a list for
    its witness. The margin is the minimum, and the details name the
    constellation and give the threshold.
    """
    val, witness = min_delta_det_full(d, book)
    zero = det_zero_threshold(d, book)
    diverse = bool(val > zero)
    return VerifierReport("full_diversity", diverse, float(val),
                          None if diverse or witness is None else witness.tolist(),
                          {"constellation": constellation, "threshold": zero})


def nvd_probe(d: Design, qam_sizes) -> VerifierReport:
    """Minimum difference determinant per unnormalized integer QAM size.

    The determinant floor of a non-vanishing-determinant design is identical
    across sizes (finite evidence only, at the probed sizes). A floor at
    the smallest size that rounding alone could give (det_zero_threshold)
    is no floor. The report's margin is the least minimum, and its details
    hold the [size, minimum] entries in increasing size and the threshold.
    Uses exact difference enumeration; refuses sizes whose difference set
    exceeds the guard.
    """
    sizes = sorted(int(s) for s in qam_sizes)
    if not sizes:
        raise ValueError("nvd_probe needs at least one QAM size")
    books = [qam_codebook(d.n_complex, m, normalize=False) for m in sizes]
    entries = [[m, float(min_delta_det_full(d, book)[0])]
               for m, book in zip(sizes, books)]
    zero = det_zero_threshold(d, books[0])
    base = entries[0][1]
    least = min(v for _, v in entries)
    return VerifierReport("nvd_probe", base > zero and least / base >= 1.0 - 1e-6,
                          least, None, {"entries": entries, "threshold": zero})
