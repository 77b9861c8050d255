"""Property tests of the detectors on random small complex models.

Each detector decides a block from its sufficient statistics (z, G) and is
compared with a plain reference computed from the model itself (full
squared distances, or least squares on the realified model).
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dstc import matkernel, receivers
from dstc.designs import Design, build_family
from dstc.receivers import (Codebook, _slice_groups, gram_crossterm,
                            ml_grouped, ml_joint, ml_table, mmse_detect,
                            pam_codebook, zf_detect)
from dstc.verifier import check_group_decodable

from _oracles import sufficient_stats

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def cases(draw, min_rows=1):
    """(y, model, codebook) with the rng seeded by Hypothesis."""
    k = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    groups = tuple(tuple(i for i in range(k) if labels[i] == g)
                   for g in sorted(set(labels)))
    book = pam_codebook(groups, draw(st.integers(2, 3)))
    rows = draw(st.integers(min_rows, 4))
    batch = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.standard_normal((batch, rows, k)) + 1j * rng.standard_normal((batch, rows, k))
    # zeroed columns: the metric ignores those symbols, so codewords tie
    m[:, :, draw(st.lists(st.integers(0, k - 1), max_size=2))] = 0.0
    y = rng.standard_normal((batch, rows)) + 1j * rng.standard_normal((batch, rows))
    return y, m, book


@SETTINGS
@given(cases())
def test_ml_joint_is_bruteforce_argmin(case):
    y, m, book = case
    dec = ml_joint(*sufficient_stats(y, m), book)
    x_all = book.enumerate_x()
    for b in range(len(y)):
        met = [float(np.sum(np.abs(y[b] - m[b] @ x) ** 2)) for x in x_all]
        best = int(np.argmin(met))                 # first of any exact tie
        assert np.array_equal(dec[b], book.flat_to_indices(best))


def decomposable(rng, groups, rows, batch):
    """Models whose realified group blocks span orthogonal subspaces."""
    k = sum(len(g) for g in groups)
    out = np.empty((batch, rows, k), dtype=np.complex128)
    for b in range(batch):
        q, _ = np.linalg.qr(rng.standard_normal((2 * rows, 2 * rows)))
        real = np.empty((2 * rows, k))
        used = 0
        for grp in groups:
            mix = rng.standard_normal((len(grp), len(grp)))
            real[:, list(grp)] = q[:, used:used + len(grp)] @ mix
            used += len(grp)
        out[b] = real[:rows] + 1j * real[rows:]
    return out


@SETTINGS
@given(cases(min_rows=2), st.integers(0, 2 ** 32 - 1))
def test_ml_grouped_equals_joint_when_decomposable(case, seed):
    y, _, book = case
    rng = np.random.default_rng(seed)
    m = decomposable(rng, book.groups, y.shape[1], len(y))
    z, gram = sufficient_stats(y, m)
    scale = np.max(np.abs(gram), axis=(1, 2))
    assume(np.all(gram_crossterm(gram, book.groups) < matkernel.zero_threshold(scale)))
    assert np.array_equal(ml_grouped(z, gram, book), ml_joint(z, gram, book))


@st.composite
def integer_groups(draw):
    """(z, G, codebook, chunk): small integers, so every score is exact.

    Groups of 1, 2 and 3 coordinates in scrambled coordinate order, of
    unequal sizes, with duplicate rows; G is symmetric, cross-group
    entries included, and ``chunk`` is the candidates per GEMM to score
    with (down to 1, so groups straddle chunk boundaries).
    """
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    k = sum(dims)
    order = draw(st.permutations(range(k)))
    groups, values, at = [], [], 0
    for dim in dims:
        groups.append(tuple(order[at:at + dim]))
        at += dim
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                             min_size=1, max_size=7))
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))     # duplicates
        values.append(np.array(draw(st.permutations(rows)), dtype=float))
    batch = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(-3, 4, size=(batch, k, k))
    gram = (a + np.swapaxes(a, 1, 2)).astype(float)
    z = rng.integers(-6, 7, size=(batch, k)).astype(float)
    chunk = draw(st.sampled_from([1, 2, 3, 5, 8, 1024]))
    return z, gram, Codebook(tuple(groups), tuple(values)), chunk


@SETTINGS
@given(integer_groups())
def test_fused_grouped_ml_is_the_per_group_argmin(case):
    # every group by one GEMM per chunk of candidates, against each group's
    # full metric x_g^T G_gg x_g - 2 z_g.x_g on its own; lowest index on a tie
    z, gram, book, chunk = case
    want = np.empty((len(z), book.n_groups), dtype=np.intp)
    for g, (grp, vals) in enumerate(zip(book.groups, book.group_values)):
        idx = list(grp)
        block = gram[:, idx][:, :, idx]
        metric = (np.einsum("vi,bij,vj->bv", vals, block, vals)
                  - 2.0 * z[:, idx] @ vals.T)
        want[:, g] = np.argmin(metric, axis=1)
    with mock.patch.object(receivers, "_ML_CHUNK", chunk):
        assert np.array_equal(ml_grouped(z, gram, book), want)
        assert np.array_equal(ml_grouped(z, gram, book, ml_table(book, grouped=True)),
                              want)


def unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@st.composite
def decodable_designs(draw):
    """Built-in group-decodable designs, disguised so the check must pass.

    A_k -> U (sum_l c_kl A_l) V mixes the rows by a unitary U, the columns
    by a unitary V and each weight with the others of its group by a real
    matrix c. A_i^H A_j + A_j^H A_i becomes a real combination of V^H
    (A_l^H A_m + A_m^H A_l) V over the groups of i and j, so it still
    vanishes across groups.
    """
    family, r = draw(st.sampled_from([("pciod", 2), ("pciod", 4),
                                      ("pciod-rect", 3), ("ciod4", None)]))
    d = build_family(family, r)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mix = np.zeros((d.k, d.k))
    for grp in d.partition:
        mix[np.ix_(grp, grp)] = rng.standard_normal((len(grp), len(grp)))
    w = np.einsum("kl,ltr->ktr", mix, d.weights)
    w = unitary(rng, d.t) @ w @ unitary(rng, d.r)
    return Design("mixed-" + family, w, partition=d.partition)


@SETTINGS
@given(decodable_designs(), st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_ml_grouped_equals_joint_on_decodable_designs(d, points, seed):
    assert check_group_decodable(d.weights, d.partition).passed
    book = pam_codebook(d.partition, points)
    rng = np.random.default_rng(seed)
    batch = 4
    # y = S(x) h + noise: column k of the model is A_k h for the channel h
    h = rng.standard_normal((batch, d.r)) + 1j * rng.standard_normal((batch, d.r))
    m = np.einsum("ktr,br->btk", d.weights, h)
    x = book.assemble(rng.integers(0, book.group_sizes, size=(batch, book.n_groups)))
    noise = rng.standard_normal((batch, d.t)) + 1j * rng.standard_normal((batch, d.t))
    y = np.einsum("btk,bk->bt", m, x) + noise
    z, gram = sufficient_stats(y, m)
    assert np.array_equal(ml_grouped(z, gram, book), ml_joint(z, gram, book))


@SETTINGS
@given(cases())
def test_zf_is_sliced_least_squares(case):
    y, m, book = case
    dec = zf_detect(*sufficient_stats(y, m), book)
    for b in range(len(y)):
        a = np.concatenate([m[b].real, m[b].imag])
        rhs = np.concatenate([y[b].real, y[b].imag])
        xhat, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
        if rank < book.k:
            want = [-1] * book.n_groups
        else:
            want = [int(np.argmin(np.sum((vals - xhat[list(grp)]) ** 2, axis=1)))
                    for grp, vals in zip(book.groups, book.group_values)]
        assert np.array_equal(dec[b], want)


@SETTINGS
@given(cases())
def test_mmse_is_sliced_regularised_least_squares(case):
    y, m, book = case
    dec = mmse_detect(*sufficient_stats(y, m), book)
    # the prior energy per coordinate: the mean square of its values; the
    # whitened noise has variance 1/2 per real dimension
    es = np.zeros(book.k)
    for grp, vals in zip(book.groups, book.group_values):
        es[list(grp)] = np.mean(vals ** 2, axis=0)
    ridge = np.diag(np.sqrt(0.5 / es))
    for b in range(len(y)):
        # argmin ||A x - rhs||^2 + sum_i (1/2 / es_i) x_i^2
        a = np.concatenate([m[b].real, m[b].imag, ridge])
        rhs = np.concatenate([y[b].real, y[b].imag, np.zeros(book.k)])
        xhat = np.linalg.lstsq(a, rhs, rcond=None)[0]
        want = [int(np.argmin(np.sum((vals - xhat[list(grp)]) ** 2, axis=1)))
                for grp, vals in zip(book.groups, book.group_values)]
        assert np.array_equal(dec[b], want)


# table values: a coarse grid makes duplicates and exact midpoints likely;
# at the scale 1e-170 squared distances underflow to equal values
_LEVELS = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4.0, 4.0)
_SCALES = st.sampled_from([1.0, 1e-3, 1e-170])


@st.composite
def one_coordinate_slices(draw):
    """(xhat, codebook) of one-coordinate groups on two value tables.

    The points are the table values, every exact midpoint of two of them,
    their neighbouring floats, and draws from a wide range of magnitudes,
    NaN and the infinities among them.
    """
    tables = [draw(_SCALES) * np.array(draw(st.lists(_LEVELS, min_size=1, max_size=6)))
              for _ in range(2)]
    owner = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    special = []
    for t in tables:
        mids = ((t[:, None] + t[None, :]) / 2).ravel()
        special += [t, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)]
    special = np.concatenate(special)
    wide = st.floats(-1e150, 1e150) | st.floats(-10.0, 10.0) \
        | st.sampled_from([np.nan, np.inf, -np.inf])
    n = draw(st.integers(1, 40))
    xhat = np.empty((n, len(owner)))
    for i in range(n):
        for g in range(len(owner)):
            xhat[i, g] = draw(st.sampled_from(special) | wide)
    book = Codebook(tuple((g,) for g in range(len(owner))),
                    tuple(tables[o][:, None] for o in owner))
    return xhat, book


@SETTINGS
@given(one_coordinate_slices())
def test_one_coordinate_slicer_is_the_table_argmin(case):
    # lowest index on ties, as the full argmin over each group's table
    xhat, book = case
    want = np.stack([np.argmin((xhat[:, [g]] - vals[:, 0]) ** 2, axis=-1)
                     for g, vals in enumerate(book.group_values)], axis=-1)
    assert np.array_equal(_slice_groups(xhat, book), want)


@SETTINGS
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_flat_to_indices_inverts_ravel_multi_index(sizes, data):
    # group 0 is the most significant digit, as in np.ravel_multi_index
    book = Codebook(tuple((g,) for g in range(len(sizes))),
                    tuple(np.arange(s, dtype=float)[:, None] for s in sizes))
    flat = np.array(data.draw(st.lists(st.integers(0, book.size - 1), max_size=8)),
                    dtype=np.intp)
    idx = book.flat_to_indices(flat)
    assert idx.shape == (len(flat), len(sizes))
    assert np.array_equal(np.ravel_multi_index(tuple(idx.T), sizes), flat)
    assert np.array_equal(book.flat_to_indices(np.arange(book.size)),
                          np.argwhere(np.ones(sizes, dtype=bool)))
