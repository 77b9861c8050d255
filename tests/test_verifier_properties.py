"""Property tests of the exhaustive determinant minima on random small designs.

min_delta_det_full scores differences without building the difference
array. Each path is compared with a plain reference: |det(dS^H dS)| over
Codebook.difference_vectors for a product codebook, and a loop over every
codeword pair for explicit codewords. The product path scores only the
half of the difference set below the zero difference, which rests on every
difference table being an exact negation mirror; both are checked here.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dstc import cli, verifier
from dstc.designs import (Design, build_ciod4, build_family, build_pciod,
                          build_pciod_rect, build_toeplitz, compose_precode,
                          golden_cda)
from dstc.precoding import RotatedLattice, pam_alphabet, rotation
from dstc.receivers import Codebook, lattice_codebook, qam_codebook
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
def designs(draw, integer=False):
    """Random designs; ``integer`` draws Gaussian-integer weights in [-2, 2]."""
    k = draw(st.integers(1, 6))
    t, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if integer:
        w = rng.integers(-2, 3, (k, t, r)) + 1j * rng.integers(-2, 3, (k, t, r))
    else:
        w = rng.standard_normal((k, t, r)) + 1j * rng.standard_normal((k, t, r))
    # zero weights make whole families of differences score exactly 0
    w[draw(st.lists(st.integers(0, k - 1), max_size=2))] = 0.0
    return Design("random", t, r, k, w)


@st.composite
def product_books(draw, k, integer=None):
    """Product codebooks on k real symbols, with integer or real values."""
    labels = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    groups = tuple(tuple(i for i in range(k) if labels[i] == g)
                   for g in sorted(set(labels)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if integer is None:
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
def test_zero_threshold_bounds_every_score(data):
    """No score exceeds the Hadamard bound H behind det_zero_threshold, and a
    design with T < R, whose every dS^H dS is singular, scores below it."""
    d = data.draw(designs())
    book = data.draw(product_books(d.k))
    diffs = book.difference_vectors()
    if len(diffs) == 0:
        return
    ds = (diffs @ d.weights.reshape(d.k, d.t * d.r)).T.reshape(d.t, d.r, -1)
    scores = verifier._abs_dets(np.ascontiguousarray(ds))
    zero = verifier.det_zero_threshold(d, book)
    hadamard = zero / ((2 * d.k + d.t) * d.r ** 2 * np.finfo(float).eps)
    assert np.all(scores <= hadamard * (1 + REL_TOL))
    if d.t < d.r:
        assert np.all(scores <= zero)


@st.composite
def lattice_books(draw):
    """Rotated-lattice codebooks: a random orthogonal generator per draw."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lattice = RotatedLattice(n, q, pam_alphabet(draw(st.integers(2, 4))))
    partition = tuple(tuple(range(g * n, (g + 1) * n))
                      for g in range(draw(st.integers(1, 2))))
    return lattice_codebook(partition, lattice)


@SETTINGS
@given(st.data())
def test_difference_tables_are_negation_mirrors(data):
    """tab == -tab[::-1] exactly, so negation maps flat index f to N-1-f."""
    if data.draw(st.booleans()):
        book = data.draw(lattice_books())
    else:
        book = data.draw(product_books(data.draw(st.integers(1, 6))))
    for tab in book.group_differences():
        assert np.array_equal(tab, -tab[::-1])
        assert len(tab) % 2 == 1 and not np.any(tab[len(tab) // 2])


@SETTINGS
@given(st.data())
def test_product_path_is_first_argmin_of_full_scan(data):
    """Bit for bit the first argmin of _abs_dets over every difference.

    Integer weights and values keep every projection and determinant
    exact, so however dS is summed the scores of the full scan are the
    ones the half scan sees; exact ties are common and exercise the rule
    that the first minimum in group-0-major order wins.
    """
    d = data.draw(designs(integer=True))
    book = data.draw(product_books(d.k, integer=True))
    value, witness = min_delta_det_full(d, book)
    diffs = book.difference_vectors()
    if len(diffs) == 0:
        assert (value, witness) == (np.inf, None)
        return
    ds = (diffs @ d.weights.reshape(d.k, d.t * d.r)).T.reshape(d.t, d.r, -1)
    scores = verifier._abs_dets(ds)
    first = int(np.argmin(scores))
    assert value == scores[first]
    assert np.array_equal(witness, diffs[first])


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


BOUNDARY_BOOK = Codebook(((0, 1, 2), (3,)), (
    np.array([[1, 0, -1], [0, 2, 1]]), pam_alphabet(8, normalize=False)[:, None]))


@pytest.mark.parametrize("design, book", [
    # one group of 16 points: its difference table alone outgrows a block
    (build_pciod(2), Codebook(((0, 1, 2, 3),),
                              (np.random.default_rng(3).integers(-2, 3, (16, 4)),))),
    # four groups of 9 differences: the trailing half (81 sums) is chunked
    (golden_cda(), qam_codebook(4, 4, normalize=False)),
    # explicit codewords: 120 pairs, so blocks start and end inside rows
    (build_pciod(2), np.random.default_rng(5).standard_normal((16, 4))),
    # 3 x 15 differences: the zero sits at flat 22 = 15 + 7, where a block
    # of 7 would start, so the lower half ends on a block boundary
    (build_pciod(2), BOUNDARY_BOOK),
])
def test_blocks_smaller_than_a_group_table(monkeypatch, design, book):
    want_value, want_witness = min_delta_det_full(design, book)
    monkeypatch.setattr(verifier, "_DET_CHUNK", 7)
    value, witness = min_delta_det_full(design, book)
    assert value == want_value
    assert np.array_equal(witness, want_witness)


@pytest.mark.parametrize("design, book, chunk", [
    (golden_cda(), qam_codebook(4, 4, normalize=False), 7),
    (build_pciod(2), qam_codebook(2, 16, normalize=False), 7),
    (build_pciod(2), BOUNDARY_BOOK, 7),
    # 49^4 - 1 differences: half of them plus one default block
    (golden_cda(), qam_codebook(4, 16, normalize=False), None),
])
def test_product_path_scores_half_the_differences(monkeypatch, design, book, chunk):
    if chunk is not None:
        monkeypatch.setattr(verifier, "_DET_CHUNK", chunk)
    scored = []
    abs_dets = verifier._abs_dets

    def counting(ds):
        scored.append(ds.shape[-1])
        return abs_dets(ds)

    monkeypatch.setattr(verifier, "_abs_dets", counting)
    min_delta_det_full(design, book)
    n_diffs = math.prod(len(tab) for tab in book.group_differences()) - 1
    assert sum(scored) <= math.ceil(n_diffs / 2) + verifier._DET_CHUNK


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", ["product", "pairs", "product-distance"])
def test_scored_blocks_are_c_contiguous(monkeypatch, case, chunk):
    # projections are (T*R, N) in C order, so every block the minima score
    # is contiguous, also where a block ends inside a row or at the zero
    if chunk is not None:
        monkeypatch.setattr(verifier, "_DET_CHUNK", chunk)
    contiguous = []
    abs_dets = verifier._abs_dets

    def recording(ds):
        contiguous.append(ds.flags.c_contiguous)
        return abs_dets(ds)

    monkeypatch.setattr(verifier, "_abs_dets", recording)
    if case == "product":
        min_delta_det_full(golden_cda(), qam_codebook(4, 4, normalize=False))
    elif case == "pairs":
        toeplitz = build_toeplitz(2, 2)
        min_delta_det_full(toeplitz, qam_codebook(toeplitz.n_complex, 4,
                                                  normalize=False).enumerate_x())
    else:
        verifier.min_product_distance(rotation(3), pam_alphabet(4, normalize=False))
    assert contiguous and all(contiguous)


@pytest.mark.parametrize("case", ["golden-qam16", "toeplitz-qam36-pairs"])
def test_minima_independent_of_block_size(monkeypatch, case):
    if case == "golden-qam16":
        design, book = golden_cda(), qam_codebook(4, 16, normalize=False)
    else:
        design = build_toeplitz(2, 2)
        book = qam_codebook(design.n_complex, 36, normalize=False).enumerate_x()
        assert len(book) == 1296
    want_value, want_witness = min_delta_det_full(design, book)
    monkeypatch.setattr(verifier, "_DET_CHUNK", 1 << 12)
    value, witness = min_delta_det_full(design, book)
    assert value == want_value
    assert np.array_equal(witness, want_witness)


# Built-in families whose full-diversity verdict with QAM4 is known: the
# pciod, pciod-rect and (raw) ciod4 designs FAIL with an exact zero, the
# others pass.
FAMILIES = {
    "pciod2": build_pciod(2), "pciod4": build_pciod(4),
    "pciod-rect3": build_pciod_rect(3), "ciod4": build_ciod4()[0],
    "ciod4-raw": compose_precode(build_ciod4()[0]),
    "toeplitz2x2": build_toeplitz(2, 2), "toeplitz3x2": build_family("toeplitz", 3, 2),
    "golden": golden_cda(),
}


def fulldiv_and_nvd(d):
    """(verdict, witness) of the fulldiv and nvd checks with QAM4."""
    reports = cli.run_checks(d, ("fulldiv", "nvd"), "qam4", draws=1, seed=0,
                             nvd_sizes=(4,))
    return [(r.passed, r.witness) for r in reports]


@functools.cache
def unscaled_verdicts(name):
    return fulldiv_and_nvd(FAMILIES[name])


def test_unscaled_verdicts():
    passed = {name: [v for v, _ in unscaled_verdicts(name)] for name in FAMILIES}
    assert passed == {name: [ok, ok] for name, ok in (
        ("pciod2", True), ("pciod4", False), ("pciod-rect3", False),
        ("ciod4", False), ("ciod4-raw", False), ("toeplitz2x2", True),
        ("toeplitz3x2", True), ("golden", True))}


@SETTINGS
@given(name=st.sampled_from(sorted(FAMILIES)), power=st.integers(-6, 6))
@example(name="golden", power=-4)
@example(name="toeplitz2x2", power=-4)
def test_verdicts_independent_of_weight_scale(name, power):
    # scaling the weights by s scales every determinant, and the zero
    # threshold, by s^(2R); an absolute floor failed both examples
    d = FAMILIES[name]
    scaled = replace(d, weights=d.weights * 10.0 ** power)
    assert fulldiv_and_nvd(scaled) == unscaled_verdicts(name)
