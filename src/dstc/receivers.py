"""Destination-side detection: joint ML, per-group ML, and linear ZF/MMSE.

All detectors work on the whitened real-linear model

    y = M @ X + noise,        M complex (rows x K), X real (K,)

where M folds the codeword map, channel vector and whitening into one matrix
per channel realization (see gnaf_sim.effective_matrix). Codebooks enumerate
X group by group; a decision is one alphabet-point index per group, so joint
and grouped detectors are directly comparable. Tie-breaking is by lowest
codeword index.

Every detector takes only the two sufficient statistics of a block of
draws, z = Re(M^H y) and G = Re(M^H M), since ||y - M x||^2 = ||y||^2 -
2 z.x + x^T G x for real x. The caller forms them once per block (the
Monte Carlo does so from the channel gains, without building M: see
gnaf_sim._whitened_stats), so each detector is a pure function of
(z, G). Both ML detectors minimize x^T G x - 2 z.x, reading the symmetric
G on its packed upper triangle: one GEMM of the draws' coefficients
against candidate rows (MlTable) that the Monte Carlo builds once per
batch, one table for the receiver that runs (ml_table). Joint ML's
candidates are the codewords. Grouped ML's
are every group's values, scored in the same GEMM, group g on z_g and the
diagonal block G_gg only, with one argmin per group. Past one chunk the
candidates are built chunk by chunk (the codewords from their flat
indices), with a running minimum across chunks, so memory does not
depend on the codebook size. ZF and MMSE solve G x = z by one
elimination over the whole block of draws, which also gives ZF the
scale-free singularity ratio it erases by, then slice each group to its
nearest point. Every per-coordinate slice, of one-coordinate groups and
of rotated-back lattice coordinates alike, is one rule (_nearest_values):
it scores only the two table values around the estimate. MMSE
regularises G for the whitened noise, whose variance is 1/2 per real
dimension.

The grouped detector is only valid when the whitened model actually
decomposes: G must vanish on cross-group entries (the decision-level
consequence of the weight-matrix anticommutation condition, measured by
gram_crossterm). The Monte Carlo driver checks this per channel draw and
re-decides the coupled draws by joint ML, which builds its own table for
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkernel
from .precoding import (RotatedLattice, check_partition, pam_alphabet,
                        product_grid)

ML_SIZE_GUARD = 10 ** 6
PAIR_GUARD = 10 ** 7


class ResourceGuardError(ValueError):
    """Raised when an exhaustive enumeration would exceed its size guard.

    Deliberate refusal: the exhaustive checks never silently fall back to
    sampling.
    """


@dataclass(frozen=True)
class Codebook:
    """Product codebook over symbol groups.

    ``groups`` partitions the K real symbol indices (ValueError unless each
    index 0..K-1 is in exactly one group); ``group_values[g]`` is
    an (n_g, len(groups[g])) array whose rows are the joint values group g
    may take. The full codebook is the Cartesian product, enumerated with
    group 0 as the most significant digit. ``lattice`` is set when every
    group is that rotated-lattice constellation (enables rotation-aware
    slicing in the linear receivers), so its dimension must equal every
    group's size.
    """

    groups: tuple[tuple[int, ...], ...]
    group_values: tuple[np.ndarray, ...]
    lattice: RotatedLattice | None = None

    def __post_init__(self):
        vals = tuple(np.asarray(v, dtype=np.float64) for v in self.group_values)
        object.__setattr__(self, "group_values", vals)
        if len(vals) != len(self.groups):
            raise ValueError("one value table per group required")
        check_partition(self.groups, self.k)
        lat = self.lattice
        if lat is not None and any(len(grp) != lat.n for grp in self.groups):
            raise ValueError(f"group sizes {[len(g) for g in self.groups]} "
                             f"!= lattice dimension {lat.n}")
        for g, (grp, v) in enumerate(zip(self.groups, vals)):
            if v.ndim != 2 or v.shape[1] != len(grp):
                raise ValueError(f"value table shape {v.shape} does not match group {grp}")
            matkernel.require_finite(v, f"group_values[{g}]")

    @property
    def k(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.group_values)

    @property
    def size(self) -> int:
        return math.prod(self.group_sizes)

    def assemble(self, indices: np.ndarray) -> np.ndarray:
        """Real symbol vectors from per-group point indices (..., n_groups)."""
        idx = np.asarray(indices, dtype=np.intp)
        x = np.zeros(idx.shape[:-1] + (self.k,))
        for g, (grp, vals) in enumerate(zip(self.groups, self.group_values)):
            x[..., list(grp)] = vals[idx[..., g]]
        return x

    def enumerate_x(self) -> np.ndarray:
        """All codewords, shape (size, K), group-0-major index order."""
        if self.size > ML_SIZE_GUARD:
            raise ResourceGuardError(f"codebook size {self.size} exceeds the "
                                     f"exhaustive-enumeration guard {ML_SIZE_GUARD}")
        return self.assemble(self.flat_to_indices(np.arange(self.size)))

    def flat_to_indices(self, flat: np.ndarray) -> np.ndarray:
        """Per-group point indices (..., n_groups) of flat codeword indices.

        Raises ValueError for an index outside 0..size-1.
        """
        flat = np.asarray(flat, dtype=np.intp)
        return np.stack(np.unravel_index(flat, self.group_sizes), axis=-1)

    def group_differences(self) -> tuple[np.ndarray, ...]:
        """Per-group tables of distinct value differences.

        Entry g is an (m_g, len(groups[g])) table holding every difference
        of two values of group g once, the zero row included. Differences
        that agree within the package zero test count once, so roundoff in
        rotated-lattice points does not split equal differences; the zero
        difference stays exactly zero. Guarded on the size of the product
        of the tables (the codebook's difference set).
        """
        if self.size > PAIR_GUARD:        # n values have at least n differences
            raise ResourceGuardError(
                f"difference enumeration exceeds guard {PAIR_GUARD}")
        per_group = []
        total = 1
        for vals in self.group_values:
            d = (vals[:, None, :] - vals[None, :, :]).reshape(-1, vals.shape[1])
            tol = matkernel.zero_threshold(float(np.max(np.abs(d), initial=0.0)))
            d = np.stack([_snap_close(c, tol) for c in d.T], axis=-1)
            d = np.unique(d, axis=0)
            per_group.append(d)
            total *= len(d)
            if total > PAIR_GUARD:
                raise ResourceGuardError(
                    f"difference enumeration exceeds guard {PAIR_GUARD}")
        return tuple(per_group)

    def difference_vectors(self) -> np.ndarray:
        """All nonzero codeword differences, shape (D, K).

        Exact (not sampled): by real-linearity of the designs, codeword-pair
        statistics depend only on symbol differences, and for a product
        codebook the difference set is the product of the per-group tables
        of group_differences, enumerated group-0-major without the zero row.
        Guarded.
        """
        per_group = self.group_differences()
        grids = np.meshgrid(*[np.arange(len(d)) for d in per_group], indexing="ij")
        out = np.zeros((grids[0].size, self.k))
        for g, (grp, d) in enumerate(zip(self.groups, per_group)):
            out[:, list(grp)] = d[grids[g].ravel()]
        return out[np.any(out != 0.0, axis=1)]


def _snap_close(v: np.ndarray, tol: float) -> np.ndarray:
    """Replace each value by a representative of its cluster.

    A cluster is a maximal run of the sorted values whose consecutive gaps
    are at most ``tol``, so values within ``tol`` of each other always share
    one, wherever they fall relative to a rounding grid. The representative
    is the member of least magnitude, so the cluster holding 0 snaps to
    exactly 0 and the zero difference is still recognised.
    """
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(sv) > tol]))
    least = np.minimum.reduceat(np.abs(sv), starts)
    # a cluster with members of both signs holds 0, so least is 0 there
    rep = np.where(least > 0, np.copysign(least, sv[starts]), 0.0)
    out = np.empty_like(v)
    out[order] = np.repeat(rep, np.diff(np.append(starts, len(sv))))
    return out


def pam_codebook(partition, points_per_coord: int = 2,
                 normalize: bool = True) -> Codebook:
    """Independent per-coordinate PAM levels, organized by the given partition."""
    base = pam_alphabet(points_per_coord, normalize=normalize)
    values = tuple(product_grid(base, len(grp)) for grp in partition)
    return Codebook(tuple(tuple(g) for g in partition), values)


def qam_codebook(n_complex: int, m: int, normalize: bool = True) -> Codebook:
    """Square m-QAM per complex symbol (groups are (Re, Im) coordinate pairs)."""
    side = int(round(np.sqrt(m)))
    if side * side != m or m < 4:
        raise ValueError(f"QAM size must be a perfect square >= 4, got {m}")
    groups = tuple((2 * i, 2 * i + 1) for i in range(n_complex))
    return pam_codebook(groups, side, normalize=normalize)


def lattice_codebook(partition, lattice: RotatedLattice) -> Codebook:
    """Rotated-lattice constellation per group (the full-diversity precoding).

    Every group must have the lattice's dimension (ValueError otherwise).
    """
    points = lattice.points()
    return Codebook(tuple(tuple(g) for g in partition),
                    (points,) * len(partition), lattice)


# ---------------------------------------------------------------------------
# decodability
# ---------------------------------------------------------------------------

def _group_labels(groups, k: int) -> np.ndarray:
    """The group of every one of the K real symbol indices."""
    label = np.empty(k, dtype=np.intp)
    for g, grp in enumerate(groups):
        label[list(grp)] = g
    return label


def gram_crossterm(gram: np.ndarray, groups) -> np.ndarray:
    """Largest |G| entry across different groups, per matrix of (..., K, K).

    Zero (numerically) certifies that the joint metric decomposes into
    per-group metrics, i.e. grouped ML equals joint ML for this model.
    """
    gram = np.asarray(gram)
    label = _group_labels(groups, gram.shape[-1])
    rows, cols = np.nonzero(label[:, None] != label[None, :])
    return np.max(np.abs(gram[..., rows, cols]), axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

# Candidates scored per matrix product; a chunk's score matrix is (draws x
# _ML_CHUNK). On OpenBLAS a product's last bits can depend on its width and
# on the number of draws, so a codebook of more than one chunk may break a
# near-tie differently from one whole product, and changing the chunk can
# move such a decision. Scoring a pciod4 block's 256 codewords (44 packed
# columns) in chunks against one product: at 512 draws only widths 1 and 2
# changed bits, at 64 draws widths 1 to 16 and 48, at 7 draws every width
# below 256.
_ML_CHUNK = 1024


@dataclass(frozen=True)
class MlTable:
    """The candidate side of an ML detector's scores (ml_table).

    ML scores a candidate x by x^T G x - 2 z.x, which for the symmetric G
    is sum over i <= j of w_ij G_ij x_i x_j, minus 2 z.x, with w_ij = 1 on
    the diagonal and 2 off it. So one GEMM scores a block of draws: their
    coefficient rows [G_ij for (i, j) in ``pairs``, z] against the
    candidates' rows [w_ij x_i x_j for (i, j) in ``pairs``, -2 x]. ``rows``
    holds every candidate's row when they fit one _ML_CHUNK, and is None
    otherwise: the detector then builds each chunk of rows as it scores
    it, so its memory does not grow with the codebook.
    """

    pairs: tuple[np.ndarray, np.ndarray]
    rows: np.ndarray | None


def ml_table(codebook: Codebook, grouped: bool = False) -> MlTable:
    """The table joint ML, or grouped ML when ``grouped``, scores with.

    Joint ML's candidates are the codewords in flat-index order, scored
    on G's upper triangle. Grouped ML's are the groups' values, group
    after group, each in its group's coordinates with zeros elsewhere, and
    scored on the pairs within a group only, so a candidate of group g
    scores its group's metric x_g^T G_gg x_g - 2 z_g.x_g. The Monte Carlo
    builds the table its receiver scores once per batch and passes it to
    every block's call (gnaf_sim._run_batch).
    """
    i, j = np.triu_indices(codebook.k)
    if grouped:
        label = _group_labels(codebook.groups, codebook.k)
        within = label[i] == label[j]
        i, j = i[within], j[within]
    count = sum(codebook.group_sizes) if grouped else codebook.size
    rows = (_candidate_rows(codebook, grouped, (i, j), 0, count)
            if count <= _ML_CHUNK else None)
    return MlTable((i, j), rows)


def _candidate_rows(codebook: Codebook, grouped: bool, pairs,
                    start: int, stop: int) -> np.ndarray:
    """The rows (MlTable) of candidates start..stop-1, (stop - start, P + K)."""
    if grouped:
        x = np.zeros((stop - start, codebook.k))
        first = 0
        for grp, vals in zip(codebook.groups, codebook.group_values):
            lo, hi = max(first, start), min(first + len(vals), stop)
            if lo < hi:
                x[lo - start:hi - start, list(grp)] = vals[lo - first:hi - first]
            first += len(vals)
    else:
        x = codebook.assemble(codebook.flat_to_indices(np.arange(start, stop)))
    i, j = pairs
    return np.concatenate([np.where(i == j, 1.0, 2.0) * x[:, i] * x[:, j],
                           -2.0 * x], axis=1)


def _ml_argmin(z: np.ndarray, gram: np.ndarray, codebook: Codebook,
               grouped: bool, table: MlTable | None) -> np.ndarray:
    """Lowest-index argmin of the ML score in each segment of candidates.

    Joint ML has one segment, the codebook; grouped ML one per group
    (ml_table). Returns (draws, segments) indices within the segments.
    The candidates are scored ``_ML_CHUNK`` at a time, one GEMM per chunk;
    a segment cut by a chunk boundary keeps a running minimum that moves
    only on a strict <, so the lowest index wins a tie, and memory depends
    on the chunk, not on the candidate count. Segments of one size within
    one chunk take one argmin over a reshape.
    """
    if table is None:
        table = ml_table(codebook, grouped)
    sizes = codebook.group_sizes if grouped else (codebook.size,)
    bounds = np.cumsum((0,) + sizes)
    i, j = table.pairs
    # pairs of indices, not flat ones: G is often a strided view (the
    # Monte Carlo's [G | z]), which a flat np.take would first copy
    coef = np.concatenate([gram[:, i, j], z], axis=1)
    n = len(z)
    out = np.empty((n, len(sizes)), dtype=np.intp)
    best = np.empty((n, len(sizes)))
    for start in range(0, bounds[-1], _ML_CHUNK):
        stop = min(start + _ML_CHUNK, bounds[-1])
        rows = (table.rows[start:stop] if table.rows is not None else
                _candidate_rows(codebook, grouped, table.pairs, start, stop))
        scores = coef @ rows.T
        if stop - start == bounds[-1] and len(set(sizes)) == 1:
            return np.argmin(scores.reshape(n, len(sizes), sizes[0]), axis=-1)
        for s in range(len(sizes)):
            lo, hi = max(bounds[s], start), min(bounds[s + 1], stop)
            if lo >= hi:
                continue
            part = scores[:, lo - start:hi - start]
            idx = np.argmin(part, axis=-1)
            val = np.take_along_axis(part, idx[:, None], axis=-1)[:, 0]
            idx += lo - bounds[s]
            if lo == bounds[s]:
                best[:, s], out[:, s] = val, idx
            else:
                better = val < best[:, s]
                best[better, s] = val[better]
                out[better, s] = idx[better]
    return out


def ml_joint(z: np.ndarray, gram: np.ndarray, codebook: Codebook,
             table: MlTable | None = None) -> np.ndarray:
    """Exhaustive ML decision on (z, G), returned as per-group point indices.

    Guarded against oversized codebooks; ties resolve to the lowest flat
    codeword index. ``table`` is ml_table(codebook), built by the call when
    not given; past one chunk the codewords are built chunk by chunk from
    their flat indices, so no table of the whole codebook is formed.
    """
    if codebook.size > ML_SIZE_GUARD:
        raise ResourceGuardError(f"codebook size {codebook.size} exceeds ML guard")
    return codebook.flat_to_indices(_ml_argmin(z, gram, codebook, False, table)[:, 0])


def ml_grouped(z: np.ndarray, gram: np.ndarray, codebook: Codebook,
               table: MlTable | None = None) -> np.ndarray:
    """Per-group ML decisions (valid when the model decomposes across groups).

    Searches sum(group sizes) candidates instead of their product: group g
    is scored on its own entries z_g and diagonal block G_gg, every group
    by the same GEMM. ``table`` is ml_table(codebook, grouped=True), built
    by the call when not given. The lowest index within a group wins a tie.
    """
    return _ml_argmin(z, gram, codebook, True, table)


# ---------------------------------------------------------------------------
# linear receivers
# ---------------------------------------------------------------------------

def _slice_groups(xhat: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Nearest constellation point per group.

    A lattice codebook rotates each group back (x_g @ G, G the lattice's
    orthogonal generator), slices every group's coordinates in one
    _nearest_values call against the lattice levels and ravels them per
    group in the order of points(). Otherwise one-coordinate groups that
    share a value table are sliced together (_nearest_values), and other
    groups take the nearest table row. The lowest index wins a tie.
    """
    lat = codebook.lattice
    if lat is not None:
        a = np.stack([xhat[:, list(grp)] @ lat.g for grp in codebook.groups], axis=1)
        coord = _nearest_values(a, lat.base)
        return np.ravel_multi_index(tuple(np.moveaxis(coord, -1, 0)),
                                    (len(lat.base),) * lat.n)
    out = np.zeros((xhat.shape[0], codebook.n_groups), dtype=np.intp)
    scalar = {}            # value table bytes -> (values, group indices)
    for g, (grp, vals) in enumerate(zip(codebook.groups, codebook.group_values)):
        if len(grp) == 1:
            scalar.setdefault(vals.tobytes(), (vals[:, 0], []))[1].append(g)
        else:
            seg = xhat[:, list(grp)]
            d2 = np.sum((seg[:, None, :] - vals[None, :, :]) ** 2, axis=-1)
            out[:, g] = np.argmin(d2, axis=-1)
    for values, gs in scalar.values():
        out[:, gs] = _nearest_values(xhat[:, [codebook.groups[g][0] for g in gs]], values)
    return out


def _nearest_values(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """argmin_j of the computed (v - values_j)^2 for every entry of ``v``.

    The lowest index j wins a tie, as with np.argmin over the whole table.
    Along the sorted distinct values the computed squared distance falls,
    then rises, so its minimum lies at one of the two values around v
    (searchsorted) and only those two are scored. A third value can share
    that minimum only through rounding: by subtraction when |v| + max|values|
    exceeds 2^40 times the least gap between distinct values, or by
    underflow when that gap is below 2^-500. Such entries, and NaN, take
    the full argmin.
    """
    u, first = np.unique(values, return_index=True)
    m = len(u)
    if m == 1:
        return np.full(v.shape, first[0])
    # per neighbouring pair: the lower value's index, the upper's, a tie's
    pick = np.stack([first[:-1], first[1:], np.minimum(first[:-1], first[1:])],
                    axis=-1).ravel()
    lo = np.searchsorted(u[1:-1], v) if m > 2 else 0
    d_lo = v - u[lo]
    d_lo *= d_lo
    d_hi = v - u[lo + 1]
    d_hi *= d_hi
    code = 3 * lo
    code += d_hi < d_lo
    code += 2 * (d_hi == d_lo)
    out = pick[code]
    bound = np.inf
    if m > 2:
        gap = np.min(np.diff(u))
        bound = gap * 2.0 ** 40 - np.max(np.abs(u)) if gap > 2.0 ** -500 else -1.0
    far = ~(np.abs(v) <= bound)
    if far.any():
        out[far] = np.argmin((v[far][:, None] - values) ** 2, axis=-1)
    return out


def _solve(gram: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve G x = z for a block of draws by one elimination of [G | z].

    ``gram`` is (n, K, K) and positive semidefinite, ``z`` is (n, K). The
    augmented matrices are held with the draws on the last axis, so every
    step of the elimination is one numpy operation over the whole block.
    A PSD matrix needs no pivoting: its pivots are the diagonal entries of
    successive Schur complements, and pivot_j <= G_jj.

    Returns x (n, K) and the Hadamard ratio det G / prod diag G, computed
    as prod_j pivot_j / G_jj, so each factor lies in (0, 1] and the ratio
    does not depend on the model's scale. A pivot that is not positive (a
    singular or rank-deficient G) sets the draw's ratio to 0 and is
    replaced by 1 for the rest of the elimination, so no division by zero
    occurs and that draw's x is finite but meaningless.
    """
    n, k = z.shape
    aug = np.empty((k, k + 1, n))
    aug[:, :k] = gram.transpose(1, 2, 0)
    aug[:, k] = z.T
    diag = aug[range(k), range(k)]
    ratio = np.ones(n)
    for j in range(k):
        piv = aug[j, j]
        pos = piv > 0
        ratio *= np.divide(piv, diag[j], out=np.zeros(n), where=pos & (diag[j] > 0))
        row = aug[j, j + 1:]
        row /= np.where(pos, piv, 1.0)
        aug[j + 1:, j + 1:] -= aug[j + 1:, j, None] * row
    # back substitution on the unit upper-triangular system, column by column
    x = aug[:, k]
    for j in range(k - 1, 0, -1):
        x[:j] -= aug[:j, j] * x[j]
    return x.T, ratio


def _decide(gram: np.ndarray, z: np.ndarray, codebook: Codebook,
            floor: float) -> np.ndarray:
    """Sliced solutions of G x = z; draws whose Hadamard ratio is not above
    ``floor`` are erased, index -1 in every group."""
    xhat, ratio = _solve(gram, z)
    good = ratio > floor
    out = np.full((len(z), codebook.n_groups), -1, dtype=np.intp)
    out[good] = _slice_groups(xhat[good], codebook)
    return out


def zf_detect(z: np.ndarray, gram: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Zero-forcing: solve G x = z, then slice per group.

    ``z`` is (n, K) and ``gram`` (n, K, K), one row per draw. The block's
    systems are solved together by one elimination without pivoting
    (_solve). Rank-deficient model matrices yield an erasure,
    marked as index -1 in every group (scored as symbol errors by the
    harness). The test is relative, so it does not depend on the model's
    scale: by Hadamard's inequality det G <= prod(diag G) for the PSD G,
    with equality for orthogonal columns, and G counts as singular unless
    det G / prod(diag G) = prod_j pivot_j / G_jj exceeds REL_TOL. A zero or
    negative pivot makes that ratio 0, so the draw is erased.
    """
    return _decide(gram, z, codebook, matkernel.REL_TOL)


def mmse_detect(z: np.ndarray, gram: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Linear MMSE: solve (G + diag(1/2 / Es)) x = z, then slice per group.

    Shapes as for zf_detect. Whitening leaves the noise unit complex
    variance, so 1/2 per real dimension; the prior symbol energy Es per
    coordinate is estimated from the codebook. The regularised systems are
    positive definite and solved by the same elimination as ZF's (_solve).
    """
    es = np.zeros(codebook.k)
    for grp, vals in zip(codebook.groups, codebook.group_values):
        es[list(grp)] = np.mean(vals ** 2, axis=0)
    es = np.where(es > 0, es, 1.0)
    return _decide(gram + np.diag(0.5 / es), z, codebook, 0.0)
