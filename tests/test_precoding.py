import itertools
import re

import numpy as np
import pytest

from dstc.precoding import (RotatedLattice, default_lattice, load_rotation,
                            pam_alphabet, partition_mod4, rotation)
from dstc.receivers import ResourceGuardError, lattice_codebook
from dstc.verifier import min_product_distance


def brute_force_mpd(g, alphabet, n):
    """Independent oracle: enumerate every difference vector with raw loops."""
    diffs = sorted({a - b for a in alphabet for b in alphabet})
    best = np.inf
    for d in itertools.product(diffs, repeat=n):
        if not any(d):
            continue
        best = min(best, abs(float(np.prod(np.asarray(g) @ np.asarray(d, dtype=float)))))
    return best


class TestPartition:
    def test_r4(self):
        assert partition_mod4(8) == ((0, 4), (1, 5), (2, 6), (3, 7))

    def test_r2_singletons(self):
        assert partition_mod4(4) == ((0,), (1,), (2,), (3,))

    @pytest.mark.parametrize("k", [4, 8, 12, 20])
    def test_disjoint_cover(self, k):
        groups = partition_mod4(k)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(k))
        assert all(len(g) == k // 4 for g in groups)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            partition_mod4(6)


class TestRotation:
    def test_n1(self):
        assert np.array_equal(rotation(1), np.array([[1.0]]))

    def test_n2_closed_form(self):
        g = rotation(2)
        ang = 0.5 * np.arctan(2.0)
        assert np.allclose(g, [[np.cos(ang), -np.sin(ang)],
                               [np.sin(ang), np.cos(ang)]], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonal(self, n):
        g = rotation(n)
        assert np.max(np.abs(g.T @ g - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_diversity_by_oracle(self, n):
        g = rotation(n)
        got = min_product_distance(g, [-1.0, 0.0, 1.0])
        want = brute_force_mpd(g, [-1.0, 0.0, 1.0], n)
        assert got == pytest.approx(want)
        assert got > 1e-3

    def test_n2_value(self):
        # the planar rotation's minimum product distance is 1/sqrt(5)
        got = min_product_distance(rotation(2), [0.0, 1.0])
        assert got == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-12)

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            rotation(5)

    def test_file_round_trip(self, tmp_path):
        g = rotation(3)
        path = tmp_path / "rot3.txt"
        path.write_text("3\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n"
                                         for row in g))
        back = load_rotation(path)
        assert np.array_equal(back, g)

    def test_file_rejects_non_orthogonal(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n0 1\n")
        with pytest.raises(ValueError):
            load_rotation(path)

    @pytest.mark.parametrize("text", ["1\nnan\n", "2\n1 0\n0 inf\n"])
    def test_file_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.txt: matrix is not finite and orthogonal"):
            load_rotation(path)

    @pytest.mark.parametrize("text", ["", "0\n", "-1\n1\n", "two\n1 0\n0 1\n"])
    def test_file_rejects_malformed_header(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.txt: the header must be a "
                                             "positive integer n"):
            load_rotation(path)


class TestMinProductDistance:
    def test_identity_not_diverse(self):
        assert min_product_distance(np.eye(2), [0.0, 1.0]) == 0.0

    def test_n1(self):
        assert min_product_distance(np.array([[1.0]]), [0.0, 1.0, 2.0]) == 1.0

    def test_empty_alphabet(self):
        with pytest.raises(ValueError):
            min_product_distance(np.eye(2), [])

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 2)])
    def test_non_square_generator_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
            min_product_distance(np.ones(shape), [0.0, 1.0])

    def test_non_finite_alphabet_refused(self):
        with pytest.raises(ValueError, match=r"alphabet\[1\] is not finite"):
            min_product_distance(rotation(2), [1.0, np.nan])
        g = rotation(2)
        g[0, 1] = np.inf
        with pytest.raises(ValueError, match=r"generator\[0, 1\] is not finite"):
            min_product_distance(g, [0.0, 1.0])

    def test_two_dimensional_alphabet_refused(self):
        with pytest.raises(ValueError, match=re.escape("alphabet must be 1-D, got shape (2, 1)")):
            min_product_distance(rotation(2), [[0.0], [1.0]])

    def test_six_levels_by_oracle(self):
        g = rotation(4)
        alphabet = pam_alphabet(6, normalize=False)
        got = min_product_distance(g, alphabet)
        assert got == pytest.approx(brute_force_mpd(g, alphabet, 4), rel=1e-12)

    def test_oversized_refused_before_scoring(self, monkeypatch):
        # 40 levels give 79 differences per coordinate, 79^4 ~ 3.9e7 in all
        def scored(*args):
            raise AssertionError("differences were scored")

        monkeypatch.setattr("dstc.verifier._abs_dets", scored)
        with pytest.raises(ResourceGuardError):
            min_product_distance(rotation(4), pam_alphabet(40, normalize=False))


class TestAlphabet:
    def test_two_point(self):
        assert np.array_equal(pam_alphabet(2), np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_unit_energy_centered(self, m):
        a = pam_alphabet(m)
        assert np.mean(a) == pytest.approx(0.0, abs=1e-15)
        assert np.mean(a ** 2) == pytest.approx(1.0)

    def test_unnormalized_integers(self):
        assert np.array_equal(pam_alphabet(4, normalize=False),
                              np.array([-3.0, -1.0, 1.0, 3.0]))


class TestEncodeGroups:
    """Rotated-lattice encoding through lattice_codebook, one group at a time."""

    def test_zero_point(self):
        lat = RotatedLattice(1, np.array([[1.0]]), pam_alphabet(3))
        book = lattice_codebook(partition_mod4(4), lat)
        x = book.assemble(np.array([1, 1, 1, 1]))   # middle level is 0
        assert np.array_equal(x, np.zeros(4))

    def test_injective_full_enumeration(self):
        book = lattice_codebook(partition_mod4(4), default_lattice(1, 2))
        seen = {tuple(np.round(x, 12)) for x in book.enumerate_x()}
        assert len(seen) == 16

    def test_decode_inverts(self):
        # per-coordinate slicing recovers the alphabet indices of each group
        lat = default_lattice(2, 4)
        book = lattice_codebook(partition_mod4(8), lat)
        rng = np.random.default_rng(5)
        for _ in range(50):
            coords = rng.integers(0, 4, size=(4, 2))
            x = book.assemble(np.ravel_multi_index(tuple(coords.T), (4, 4)))
            for grp, want in zip(book.groups, coords):
                assert np.array_equal(lat.nearest(x[list(grp)]), want)

    def test_group_size_mismatch(self):
        with pytest.raises(ValueError):
            lattice_codebook(partition_mod4(4), default_lattice(2, 2))


def test_lattice_rejects_bad_generator():
    with pytest.raises(ValueError):
        RotatedLattice(2, np.array([[1.0, 1.0], [0.0, 1.0]]), pam_alphabet(2))
    with pytest.raises(ValueError, match="not finite and orthogonal"):
        RotatedLattice(2, np.array([[1.0, 0.0], [0.0, np.nan]]), pam_alphabet(2))


def test_lattice_points_enumeration_order():
    lat = default_lattice(2, 2)
    pts = lat.points()
    assert pts.shape == (4, 2)
    # index-lexicographic: row i corresponds to indices (i // 2, i % 2)
    for i in range(4):
        assert np.allclose(pts[i], lat.g @ lat.base[[i // 2, i % 2]], atol=1e-15)


def test_lattice_nearest_batches():
    # one point at a time: rotate back, then the nearest level per coordinate
    lat = default_lattice(3, 4)
    x = np.random.default_rng(6).standard_normal((5, 7, 3))
    got = lat.nearest(x)
    assert got.shape == (5, 7, 3)
    for i, j in itertools.product(range(5), range(7)):
        a = lat.g.T @ x[i, j]
        want = np.argmin(np.abs(a[:, None] - lat.base[None, :]), axis=1)
        assert np.array_equal(got[i, j], want)
