"""Property tests of the detectors on random small complex models.

Each detector is compared with a plain reference computed from the model
itself (full squared distances, or least squares on the realified model),
batched and for a single squeezed trial.
"""

import functools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dstc import matkernel
from dstc.designs import Design, build_family
from dstc.receivers import (gram_crossterm, ml_grouped, ml_joint,
                            mmse_detect, pam_codebook, sufficient_stats,
                            zf_detect)
from dstc.verifier import check_group_decodable

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def cases(draw, min_rows=1):
    """(y, model, codebook, squeeze) with the rng seeded by Hypothesis."""
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
    return y, m, book, draw(st.booleans())


def detect(detector, y, m, book, squeeze):
    """Decisions (batch, n_groups), through the 1-D call when squeezed."""
    if squeeze:
        out = detector(y[0], m[0], book)
        assert out.shape == (book.n_groups,)
        return out[None], 1
    return detector(y, m, book), len(y)


@SETTINGS
@given(cases())
def test_ml_joint_is_bruteforce_argmin(case):
    y, m, book, squeeze = case
    dec, n = detect(ml_joint, y, m, book, squeeze)
    x_all = book.enumerate_x()
    for b in range(n):
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
    y, _, book, squeeze = case
    rng = np.random.default_rng(seed)
    m = decomposable(rng, book.groups, y.shape[1], len(y))
    for b in range(len(m)):
        _, gram = sufficient_stats(y[b], m[b])
        scale = float(np.max(np.abs(gram)))
        assume(gram_crossterm(gram, book.groups) < matkernel.zero_threshold(scale))
    grouped, _ = detect(ml_grouped, y, m, book, squeeze)
    joint, _ = detect(ml_joint, y, m, book, squeeze)
    assert np.array_equal(grouped, joint)


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
                                      ("pciod-rect", 3), ("ciod4", 0)]))
    d = build_family(family, r)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mix = np.zeros((d.k, d.k))
    for grp in d.partition:
        mix[np.ix_(grp, grp)] = rng.standard_normal((len(grp), len(grp)))
    w = np.einsum("kl,ltr->ktr", mix, d.weights)
    w = unitary(rng, d.t) @ w @ unitary(rng, d.r)
    return Design("mixed-" + family, d.t, d.r, d.k, w, partition=d.partition)


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
    assert np.array_equal(ml_grouped(y, m, book), ml_joint(y, m, book))


@SETTINGS
@given(cases())
def test_zf_is_sliced_least_squares(case):
    y, m, book, squeeze = case
    dec, n = detect(zf_detect, y, m, book, squeeze)
    for b in range(n):
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
@given(cases(), st.floats(0.01, 4.0))
def test_mmse_is_sliced_regularised_least_squares(case, noise_var):
    y, m, book, squeeze = case
    mmse = functools.partial(mmse_detect, noise_var=noise_var)
    dec, n = detect(mmse, y, m, book, squeeze)
    # the prior energy per coordinate: the mean square of its values
    es = np.zeros(book.k)
    for grp, vals in zip(book.groups, book.group_values):
        es[list(grp)] = np.mean(vals ** 2, axis=0)
    ridge = np.diag(np.sqrt(noise_var / es))
    for b in range(n):
        # argmin ||A x - rhs||^2 + sum_i (noise_var / es_i) x_i^2
        a = np.concatenate([m[b].real, m[b].imag, ridge])
        rhs = np.concatenate([y[b].real, y[b].imag, np.zeros(book.k)])
        xhat = np.linalg.lstsq(a, rhs, rcond=None)[0]
        want = [int(np.argmin(np.sum((vals - xhat[list(grp)]) ** 2, axis=1)))
                for grp, vals in zip(book.groups, book.group_values)]
        assert np.array_equal(dec[b], want)
