"""Destination-side detection: joint ML, per-group ML, and linear ZF/MMSE.

All detectors work on the whitened real-linear model

    y = M @ X + noise,        M complex (rows x K), X real (K,)

where M folds the codeword map, channel vector and whitening into one matrix
per channel realization (see gnaf_sim.effective_matrix). Codebooks enumerate
X group by group; a decision is one alphabet-point index per group, so joint
and grouped detectors are directly comparable. Tie-breaking is by lowest
codeword index, making every detector a pure function of (y, M).

Every detector reads the same two sufficient statistics (sufficient_stats):
z = Re(M^H y) and G = Re(M^H M). Joint ML minimizes x^T G x - 2 z.x over the
codebook, one GEMM per chunk of candidates built from their flat indices,
with a running minimum across chunks, so its memory does not depend on the
codebook size; grouped ML does the same per group with z_g and the
diagonal block G_gg; ZF and MMSE solve G x = z (MMSE with G regularised)
by one elimination over the whole block of draws, which also gives ZF the
scale-free singularity ratio it erases by.

The grouped detector is only valid when the whitened model actually
decomposes: G must vanish on cross-group entries (the decision-level
consequence of the weight-matrix anticommutation condition, measured by
gram_crossterm). The Monte Carlo driver checks this per channel draw and
falls back to joint ML otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel
from .precoding import RotatedLattice, pam_alphabet

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

    ``groups`` partitions the K real symbol indices; ``group_values[g]`` is
    an (n_g, len(groups[g])) array whose rows are the joint values group g
    may take. The full codebook is the Cartesian product, enumerated with
    group 0 as the most significant digit. ``lattice`` is set when the
    groups are rotated-lattice constellations (enables rotation-aware
    slicing in the linear receivers).
    """

    groups: tuple[tuple[int, ...], ...]
    group_values: tuple[np.ndarray, ...]
    lattice: RotatedLattice | None = None

    def __post_init__(self):
        vals = tuple(np.asarray(v, dtype=np.float64) for v in self.group_values)
        object.__setattr__(self, "group_values", vals)
        if len(vals) != len(self.groups):
            raise ValueError("one value table per group required")
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
        n = 1
        for s in self.group_sizes:
            n *= s
        return n

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
        grids = np.meshgrid(*[np.arange(s) for s in self.group_sizes], indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=-1)
        return self.assemble(idx)

    def flat_to_indices(self, flat: np.ndarray) -> np.ndarray:
        """Convert flat codeword indices to per-group point indices."""
        flat = np.asarray(flat, dtype=np.intp)
        out = np.zeros(flat.shape + (self.n_groups,), dtype=np.intp)
        rem = flat
        for g in range(self.n_groups - 1, -1, -1):
            s = self.group_sizes[g]
            out[..., g] = rem % s
            rem = rem // s
        return out

    def group_differences(self) -> tuple[np.ndarray, ...]:
        """Per-group tables of distinct value differences.

        Entry g is an (m_g, len(groups[g])) table holding every difference
        of two values of group g once, the zero row included. Differences
        that agree within the package zero test count once, so roundoff in
        rotated-lattice points does not split equal differences; the zero
        difference stays exactly zero. Guarded on the size of the product
        of the tables (the codebook's difference set).
        """
        bound = 1
        for sz in self.group_sizes:       # every group has >= sz differences
            bound *= sz
        if bound > PAIR_GUARD:
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
    values = []
    for grp in partition:
        grids = np.meshgrid(*([base] * len(grp)), indexing="ij")
        values.append(np.stack([g.ravel() for g in grids], axis=-1))
    return Codebook(tuple(tuple(g) for g in partition), tuple(values))


def qam_codebook(n_complex: int, m: int, normalize: bool = True) -> Codebook:
    """Square m-QAM per complex symbol (groups are (Re, Im) coordinate pairs)."""
    side = int(round(np.sqrt(m)))
    if side * side != m or m < 4:
        raise ValueError(f"QAM size must be a perfect square >= 4, got {m}")
    groups = tuple((2 * i, 2 * i + 1) for i in range(n_complex))
    return pam_codebook(groups, side, normalize=normalize)


def lattice_codebook(partition, lattice: RotatedLattice) -> Codebook:
    """Rotated-lattice constellation per group (the full-diversity precoding)."""
    values = []
    for grp in partition:
        if len(grp) != lattice.n:
            raise ValueError(f"group size {len(grp)} != lattice dimension {lattice.n}")
        values.append(lattice.points())
    return Codebook(tuple(tuple(g) for g in partition), tuple(values), lattice)


# ---------------------------------------------------------------------------
# sufficient statistics
# ---------------------------------------------------------------------------

def _as_batch(y: np.ndarray, m: np.ndarray):
    y = np.asarray(y, dtype=np.complex128)
    m = np.asarray(m, dtype=np.complex128)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[None, :]
        m = m[None, :, :]
    return y, m, squeeze


def sufficient_stats(y: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter output z = Re(M^H y) and Gram matrix G = Re(M^H M).

    Shapes (..., K) and (..., K, K) for y (..., rows) and M (..., rows, K).
    Since ||y - M x||^2 = ||y||^2 - 2 z.x + x^T G x for real x, (z, G)
    carry everything every detector needs. Both come from one matmul on
    the realified model [Re M; Im M] against [Re M; Im M | Re y; Im y].
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


def gram_crossterm(gram: np.ndarray, groups) -> np.ndarray:
    """Largest |G| entry across different groups, per matrix of (..., K, K).

    Zero (numerically) certifies that the joint metric decomposes into
    per-group metrics, i.e. grouped ML equals joint ML for this model.
    """
    gram = np.asarray(gram)
    label = np.empty(gram.shape[-1], dtype=np.intp)
    for g, grp in enumerate(groups):
        label[list(grp)] = g
    rows, cols = np.nonzero(label[:, None] != label[None, :])
    return np.max(np.abs(gram[..., rows, cols]), axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

# Candidates scored per matrix product; a chunk's score matrix is (draws x
# _ML_CHUNK). On OpenBLAS a product's last bits can depend on its width, so
# a codebook of more than one chunk may break a near-tie differently from
# one whole product. Keep it at 64 or more: some narrower widths changed
# bits even on the benchmark's shapes (K = 8, 512 draws).
_ML_CHUNK = 1024


def _ml_argmin(z: np.ndarray, gram: np.ndarray, size: int, candidates) -> np.ndarray:
    """Lowest-index argmin of x^T G x - 2 z.x over ``size`` candidates.

    ``candidates(flat)`` returns the rows x of the given flat indices. They
    are scored ``_ML_CHUNK`` at a time, one GEMM per chunk: [vec G, z]
    against each candidate's [vec(x x^T), -2 x]. A running minimum that
    moves only on a strict < keeps the lowest index on ties across chunks,
    and memory depends on the chunk, not on ``size``.
    """
    k = z.shape[-1]
    coef = np.concatenate([gram.reshape(gram.shape[:-2] + (k * k,)), z], axis=-1)
    best = best_idx = None
    for start in range(0, size, _ML_CHUNK):
        x = candidates(np.arange(start, min(start + _ML_CHUNK, size)))
        cand = np.concatenate([(x[:, :, None] * x[:, None, :]).reshape(len(x), k * k),
                               -2.0 * x], axis=-1)
        scores = coef @ cand.T
        idx = np.argmin(scores, axis=-1)
        val = np.take_along_axis(scores, idx[..., None], axis=-1)[..., 0]
        if best is None:
            best, best_idx = val, idx
        else:
            better = val < best
            best = np.where(better, val, best)
            best_idx = np.where(better, idx + start, best_idx)
    return best_idx


def ml_joint(y: np.ndarray, model: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Exhaustive ML decision, returned as per-group point indices.

    Guarded against oversized codebooks; ties resolve to the lowest flat
    codeword index. Codewords are built chunk by chunk from their flat
    indices, so no table of the whole codebook is formed.
    """
    if codebook.size > ML_SIZE_GUARD:
        raise ResourceGuardError(f"codebook size {codebook.size} exceeds ML guard")
    z, gram = sufficient_stats(y, model)
    flat = _ml_argmin(z, gram, codebook.size,
                      lambda flat: codebook.assemble(codebook.flat_to_indices(flat)))
    return codebook.flat_to_indices(flat)


def ml_grouped(y: np.ndarray, model: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Per-group ML decisions (valid when the model decomposes across groups).

    Searches sum(group sizes) candidates instead of their product: group g
    is scored on its own entries z_g and diagonal block G_gg.
    """
    z, gram = sufficient_stats(y, model)
    out = np.zeros(z.shape[:-1] + (codebook.n_groups,), dtype=np.intp)
    for g, (grp, vals) in enumerate(zip(codebook.groups, codebook.group_values)):
        idx = list(grp)
        out[..., g] = _ml_argmin(z[..., idx], gram[..., idx, :][..., idx],
                                 len(vals), lambda flat: vals[flat])
    return out


# ---------------------------------------------------------------------------
# linear receivers
# ---------------------------------------------------------------------------

def _slice_groups(xhat: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Nearest constellation point per group.

    Lattice groups slice per coordinate (RotatedLattice.nearest), flattened
    in the order of points(); explicit groups take the nearest table row.
    """
    out = np.zeros((xhat.shape[0], codebook.n_groups), dtype=np.intp)
    lat = codebook.lattice
    for g, (grp, vals) in enumerate(zip(codebook.groups, codebook.group_values)):
        seg = xhat[:, list(grp)]
        if lat is not None and lat.n == len(grp):
            coord = lat.nearest(seg)
            out[:, g] = np.ravel_multi_index(tuple(coord.T), (len(lat.base),) * lat.n)
        else:
            d2 = np.sum((seg[:, None, :] - vals[None, :, :]) ** 2, axis=-1)
            out[:, g] = np.argmin(d2, axis=-1)
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


def zf_detect(y: np.ndarray, model: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Zero-forcing: solve G x = z, then slice per group.

    The block's systems are solved together by one elimination without
    pivoting (_solve). Rank-deficient model matrices yield an erasure,
    marked as index -1 in every group (scored as symbol errors by the
    harness). The test is relative, so it does not depend on the model's
    scale: by Hadamard's inequality det G <= prod(diag G) for the PSD G,
    with equality for orthogonal columns, and G counts as singular unless
    det G / prod(diag G) = prod_j pivot_j / G_jj exceeds REL_TOL. A zero or
    negative pivot makes that ratio 0, so the draw is erased.
    """
    y, m, squeeze = _as_batch(y, model)
    z, gram = sufficient_stats(y, m)
    out = _decide(gram, z, codebook, matkernel.REL_TOL)
    return out[0] if squeeze else out


def mmse_detect(y: np.ndarray, model: np.ndarray, codebook: Codebook,
                noise_var: float) -> np.ndarray:
    """Linear MMSE: solve (G + noise_var / Es) x = z, then slice per group.

    ``noise_var`` is the per-real-dimension noise variance (0.5 after
    whitening to unit complex variance); NaN or a negative value raises
    ValueError. The prior symbol energy per coordinate is estimated from
    the codebook. The regularised systems are solved by the same
    elimination as ZF's (_solve); with ``noise_var`` > 0 they are positive
    definite, so every pivot is positive. With ``noise_var`` = 0 a draw
    whose G is singular has a pivot that is not, and it is erased (-1).
    """
    if not noise_var >= 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var!r}")
    y, m, squeeze = _as_batch(y, model)
    if np.isinf(noise_var):
        # degenerate limit: the estimate collapses to the zero vector
        xhat = np.zeros((y.shape[0], codebook.k))
        out = _slice_groups(xhat, codebook)
        return out[0] if squeeze else out
    z, gram = sufficient_stats(y, m)
    es = np.zeros(codebook.k)
    for grp, vals in zip(codebook.groups, codebook.group_values):
        es[list(grp)] = np.mean(vals ** 2, axis=0)
    es = np.where(es > 0, es, 1.0)
    out = _decide(gram + np.diag(noise_var / es), z, codebook, 0.0)
    return out[0] if squeeze else out
