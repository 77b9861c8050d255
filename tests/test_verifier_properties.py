"""Property tests of the exhaustive determinant minima on random small designs.

min_delta_det_full scores differences without building the difference
array. Each path is compared with a plain reference: |det(dS^H dS)| over
Codebook.difference_vectors for a product codebook, and a loop over every
codeword pair for explicit codewords.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstc import verifier
from dstc.designs import Design, build_pciod, golden_cda
from dstc.receivers import Codebook, qam_codebook
from dstc.verifier import min_delta_det_full

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
REL_TOL = 1e-9
FLOOR = 1e-12


def plain_dets(weights, diffs):
    ds = np.tensordot(np.asarray(diffs, dtype=np.float64), weights, axes=1)
    gram = np.conj(np.swapaxes(ds, -1, -2)) @ ds
    return np.abs(np.linalg.det(gram))


def det_scale(weights, diffs):
    """Size of the largest determinant: max ||dS||_F^(2R) over the differences.

    A design with T < R has only singular dS^H dS, so its determinants are
    roundoff of this size; the 1e-12 floor is taken relative to it.
    """
    ds = np.tensordot(np.asarray(diffs, dtype=np.float64), weights, axes=1)
    return max(1.0, float(np.max(np.sum(np.abs(ds) ** 2, axis=(-2, -1))))) ** weights.shape[2]


def assert_close(value, ref, scale):
    assert abs(value - ref) <= REL_TOL * abs(ref) + FLOOR * scale, (value, ref)


def check_witness(d, value, witness, candidates, scale):
    """Nonzero, owns its data, one of the candidates, and gives the minimum."""
    assert witness is not None and np.any(witness != 0)
    assert witness.base is None
    assert np.any(np.all(candidates == witness, axis=1))
    assert_close(value, float(plain_dets(d.weights, witness)), scale)


@st.composite
def designs(draw):
    k = draw(st.integers(1, 6))
    t, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.standard_normal((k, t, r)) + 1j * rng.standard_normal((k, t, r))
    # zero weights make whole families of differences score exactly 0
    w[draw(st.lists(st.integers(0, k - 1), max_size=2))] = 0.0
    return Design("random", t, r, k, w)


@st.composite
def product_books(draw, k):
    """Product codebooks on k real symbols, with integer or real values."""
    labels = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    groups = tuple(tuple(i for i in range(k) if labels[i] == g)
                   for g in sorted(set(labels)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    integer = draw(st.booleans())
    values = []
    for g, grp in enumerate(groups):
        n = draw(st.integers(2 if g == 0 else 1, 3))
        vals = rng.integers(-2, 3, size=(n, len(grp))) if integer else \
            rng.standard_normal((n, len(grp)))
        values.append(vals)
    return Codebook(groups, tuple(values))


@SETTINGS
@given(st.data())
def test_product_path_matches_difference_vectors(data):
    d = data.draw(designs())
    book = data.draw(product_books(d.k))
    value, witness = min_delta_det_full(d, book)
    diffs = book.difference_vectors()
    if len(diffs) == 0:                       # every codeword is the same
        assert (value, witness) == (np.inf, None)
        return
    scale = det_scale(d.weights, diffs)
    assert_close(value, float(np.min(plain_dets(d.weights, diffs))), scale)
    check_witness(d, value, witness, diffs, scale)


@SETTINGS
@given(st.data())
def test_pairwise_path_matches_pair_loop(data):
    d = data.draw(designs())
    n = data.draw(st.integers(2, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.integers(-2, 3, size=(n, d.k)).astype(float) if data.draw(st.booleans()) \
        else rng.standard_normal((n, d.k))
    value, witness = min_delta_det_full(d, x)
    pairs = np.array([x[j] - x[i] for i in range(n) for j in range(i + 1, n)])
    ref = min(float(plain_dets(d.weights, p)) for p in pairs)
    scale = det_scale(d.weights, pairs)
    assert_close(value, ref, scale)
    if np.any(np.all(pairs == 0, axis=1)):    # a repeated codeword scores 0
        assert value <= FLOOR * scale
        return
    check_witness(d, value, witness, pairs, scale)


@pytest.mark.parametrize("design, book", [
    # one group of 16 points: its difference table alone outgrows a block
    (build_pciod(2), Codebook(((0, 1, 2, 3),),
                              (np.random.default_rng(3).integers(-2, 3, (16, 4)),))),
    # four groups of 9 differences: the trailing half (81 sums) is chunked
    (golden_cda(), qam_codebook(4, 4, normalize=False)),
    # explicit codewords: 120 pairs, so blocks start and end inside rows
    (build_pciod(2), np.random.default_rng(5).standard_normal((16, 4))),
])
def test_blocks_smaller_than_a_group_table(monkeypatch, design, book):
    want_value, want_witness = min_delta_det_full(design, book)
    monkeypatch.setattr(verifier, "_DET_CHUNK", 7)
    value, witness = min_delta_det_full(design, book)
    assert value == want_value
    assert np.array_equal(witness, want_witness)
