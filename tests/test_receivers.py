import numpy as np
import pytest

from dstc import receivers
from dstc.designs import build_pciod, build_toeplitz
from dstc.gnaf_sim import make_rng, omega_diagonals, protocol_params
from dstc.matkernel import REL_TOL
from dstc.precoding import default_lattice
from dstc.receivers import (Codebook, ResourceGuardError, gram_crossterm,
                            lattice_codebook, ml_grouped, ml_joint, ml_table,
                            mmse_detect, pam_codebook, qam_codebook,
                            zf_detect)

from _oracles import ml_joint_metrics, sufficient_stats


def pciod_model(d, p=10.0, seed=0, n=1):
    """Whitened model matrices for random channel draws of a grouped design."""
    from dstc.designs import relay_matrix_set
    from dstc.gnaf_sim import column_gains, crandn, effective_matrix
    rs = relay_matrix_set(d)
    params = protocol_params(d, p, "gnaf2")
    rng = make_rng(seed, 100)
    z = crandn(rng, n, 2 * d.r + 1)
    g0, f, g = z[:, 0], z[:, 1:d.r + 1], z[:, d.r + 1:]
    m = effective_matrix(d, params, g0, column_gains(rs, f, g))
    diag = omega_diagonals(params, rs, g)
    return m / np.sqrt(diag)[:, :, None], rng


class TestCodebook:
    def test_enumeration_and_flat_indices(self):
        book = pam_codebook(((0, 1), (2,)), 2)
        x = book.enumerate_x()
        assert x.shape == (8, 3)
        idx = book.flat_to_indices(np.arange(8))
        assert np.array_equal(book.assemble(idx), x)

    @pytest.mark.parametrize("flat", [16, -1, [0, 16], [[3], [-2]]])
    def test_flat_index_out_of_range_refused(self, flat):
        # an index past either end names no codeword, so it must not wrap
        book = pam_codebook(((0,), (1,), (2, 3)), 2)
        assert book.size == 16
        with pytest.raises(ValueError):
            book.flat_to_indices(flat)

    def test_lattice_dimension_must_match_every_group(self):
        lat = default_lattice(2, 2)
        pts = lat.points()
        Codebook(((0, 1), (2, 3)), (pts, pts), lat)
        with pytest.raises(ValueError, match="lattice dimension 2"):
            Codebook(((0, 1), (2,)), (pts, pts[:, :1]), lat)

    @pytest.mark.parametrize("groups", [((0,), (0,)), ((0,), (2,)), ((1,), (2,))])
    def test_groups_must_cover_every_index_once(self, groups):
        # ((0,), (0,)) once passed as K = 2 with coordinate 1 never set
        v = np.array([[-1.0], [1.0]])
        with pytest.raises(ValueError, match="not a disjoint cover of the "
                                             "symbol indices 0..1"):
            Codebook(groups, (v, v))
        assert Codebook(((1,), (0,)), (v, v)).k == 2

    def test_size_and_groups(self):
        d = build_pciod(4)
        book = lattice_codebook(d.partition, default_lattice(2, 2))
        assert book.size == 4 ** 4
        assert book.group_sizes == (4, 4, 4, 4)

    def test_enumeration_guard(self):
        book = pam_codebook(tuple((i,) for i in range(24)), 2)
        with pytest.raises(ResourceGuardError):
            book.enumerate_x()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_refused(self, bad):
        values = np.array([[0.0, 1.0], [bad, 2.0]])
        with pytest.raises(ValueError, match=r"group_values\[1\]\[1, 0\] is not finite"):
            Codebook(((0,), (1, 2)), (np.array([[0.0], [1.0]]), values))

    def test_difference_vectors_count(self):
        book = pam_codebook(((0,), (1,)), 2)
        diffs = book.difference_vectors()
        assert diffs.shape == (8, 2)       # 3*3 minus the zero vector

    def test_difference_vectors_merge_roundoff(self):
        # 16 rotated points: 7 x 7 distinct differences (48 nonzero), which
        # roundoff in the rotation splits into 101 under exact equality
        book = lattice_codebook(((0, 1),), default_lattice(2, 4))
        assert len(book.difference_vectors()) == 48
        book = lattice_codebook(((0, 1),), default_lattice(2, 2))
        assert len(book.difference_vectors()) == 8


class TestMlJoint:
    def test_noiseless_recovery(self):
        d = build_pciod(2)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        m, rng = pciod_model(d, n=50)
        tx = rng.integers(0, 2, size=(50, 4))
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        dec = ml_joint(*sufficient_stats(y, m), book)
        assert np.array_equal(dec, tx)

    def test_matches_bruteforce_loop(self):
        # independent re-implementation: plain python loops over the book
        d = build_pciod(2)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        x_all = book.enumerate_x()
        m, rng = pciod_model(d, n=100, seed=3)
        tx = rng.integers(0, 2, size=(100, 4))
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        y += (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        dec = ml_joint(*sufficient_stats(y, m), book)
        for b in range(100):
            best, besti = np.inf, -1
            for i, x in enumerate(x_all):
                metric = float(np.sum(np.abs(y[b] - m[b] @ x) ** 2))
                if metric < best - 1e-15:
                    best, besti = metric, i
            assert np.array_equal(dec[b], book.flat_to_indices(besti))

    def test_tie_breaks_to_lowest_index(self):
        book = pam_codebook(((0,), (1,)), 2)
        m = np.zeros((1, 2, 2), dtype=complex)     # all metrics equal
        dec = ml_joint(*sufficient_stats(np.ones((1, 2), dtype=complex), m), book)
        assert np.array_equal(dec, [[0, 0]])

    def test_ties_across_candidate_chunks_go_to_lowest_index(self):
        # integer codewords and models make every score exact, so duplicate
        # codewords tie exactly; their copies sit on both sides of chunk
        # boundaries, one group alone and as the leading group of a product
        c = receivers._ML_CHUNK
        n = 2 * c + 8
        first = np.stack([np.arange(n) // 64, np.arange(n) % 64], axis=-1).astype(float)
        first[c] = first[c + 2 * 64 + 1] = first[c - 1]
        first[2 * c] = first[2 * c + 5] = first[c - 2]
        tail = pam_codebook(((0,),), 3, normalize=False).group_values[0]
        rng = make_rng(3, 1)
        m = (rng.integers(-3, 4, size=(6, 3, 3))
             + 1j * rng.integers(-3, 4, size=(6, 3, 3))).astype(complex)
        m[:, :, 0] += 9.0                     # keep every model full rank
        sent = np.array([[c - 1, 0], [c, 1], [c - 2, 2], [2 * c + 5, 0],
                         [c + 2 * 64 + 1, 2], [7, 1]])
        single = Codebook(((0, 1),), (first,))
        product = Codebook(((0, 1), (2,)), (first, tail))
        want = np.array([c - 1, c - 1, c - 2, c - 2, c - 1, 7])
        assert product.size > single.size > 2 * c
        y = np.einsum("brk,bk->br", m[:, :, :2], first[sent[:, 0]])
        assert np.array_equal(
            ml_joint(*sufficient_stats(y, m[:, :, :2]), single)[:, 0], want)
        y = np.einsum("brk,bk->br", m, product.assemble(sent))
        assert np.array_equal(ml_joint(*sufficient_stats(y, m), product),
                              np.stack([want, sent[:, 1]], axis=-1))

    def test_chunking_changes_no_decision(self, monkeypatch):
        # 4096 codewords decided in chunks of 64 and in one chunk
        book = qam_codebook(2, 64)
        rng = make_rng(8, 2)
        m = rng.standard_normal((40, 5, 4)) + 1j * rng.standard_normal((40, 5, 4))
        tx = np.stack([rng.integers(0, s, size=40) for s in book.group_sizes], axis=1)
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        y += 0.3 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        z, gram = sufficient_stats(y, m)
        monkeypatch.setattr(receivers, "_ML_CHUNK", book.size)
        whole = ml_joint(z, gram, book)
        monkeypatch.setattr(receivers, "_ML_CHUNK", 64)
        assert np.array_equal(ml_joint(z, gram, book), whole)
        assert np.array_equal(ml_joint(z[3:4], gram[3:4], book), whole[3:4])

    def test_codebook_just_over_one_chunk_is_the_bruteforce_argmin(self):
        # 41 x 26 = 1066 codewords: two chunks, the second of 42, so
        # ml_table leaves the rows to the call; integer codewords and models
        # make every distance exact, and duplicate rows make exact ties
        first = np.stack([np.arange(41) % 7 - 3, np.arange(41) // 7 - 3],
                         axis=-1).astype(float)
        tail = np.arange(26, dtype=float)[:, None] % 9 - 4
        book = Codebook(((0, 2), (1,)), (first, tail))
        assert book.size > receivers._ML_CHUNK + 1
        assert ml_table(book).rows is None
        rng = make_rng(4, 9)
        m = (rng.integers(-2, 3, size=(30, 3, 3))
             + 1j * rng.integers(-2, 3, size=(30, 3, 3))).astype(complex)
        y = (rng.integers(-9, 10, size=(30, 3))
             + 1j * rng.integers(-9, 10, size=(30, 3))).astype(complex)
        want = np.argmin(ml_joint_metrics(y, m, book.enumerate_x()), axis=1)
        z, gram = sufficient_stats(y, m)
        for table in (None, ml_table(book)):
            assert np.array_equal(ml_joint(z, gram, book, table),
                                  book.flat_to_indices(want))

    def test_size_guard(self):
        book = pam_codebook(tuple((i,) for i in range(21)), 2)
        with pytest.raises(ResourceGuardError):
            ml_joint(np.zeros((1, 21)), np.zeros((1, 21, 21)), book)


class TestMlGrouped:
    def test_single_group_equals_joint(self):
        d = build_toeplitz(2, 2)
        book = qam_codebook(2, 4)
        single = Codebook((tuple(range(4)),),
                          (book.enumerate_x(),))
        rng = make_rng(1, 2)
        m = (rng.standard_normal((5, 5, 4)) + 1j * rng.standard_normal((5, 5, 4)))
        y = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        z, gram = sufficient_stats(y, m)
        a = ml_joint(z, gram, single)
        b = ml_grouped(z, gram, single)
        assert np.array_equal(a, b)

    def test_equals_joint_on_pciod(self):
        for r, pts in ((2, 2), (4, 2)):
            d = build_pciod(r)
            book = lattice_codebook(d.partition, default_lattice(r // 2, pts))
            m, rng = pciod_model(d, n=300, seed=5)
            tx = np.stack([rng.integers(0, s, size=300) for s in book.group_sizes],
                          axis=1)
            y = np.einsum("brk,bk->br", m, book.assemble(tx))
            y += 0.5 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
            z, gram = sufficient_stats(y, m)
            assert np.array_equal(ml_grouped(z, gram, book), ml_joint(z, gram, book))

    def test_noiseless_recovery(self):
        d = build_pciod(4)
        book = lattice_codebook(d.partition, default_lattice(2, 2))
        m, rng = pciod_model(d, n=20, seed=7)
        tx = rng.integers(0, 4, size=(20, 4))
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        assert np.array_equal(ml_grouped(*sufficient_stats(y, m), book), tx)

    def test_search_cost_is_sum_not_product(self):
        d = build_pciod(4)
        book = lattice_codebook(d.partition, default_lattice(2, 2))
        assert sum(book.group_sizes) == 16
        assert book.size == 256

    def test_full_model_decomposes_for_every_variant(self):
        # the whitened receiver model stays group-decodable even with the
        # direct path and the phase-2 source column in play
        from dstc.designs import build_pciod_rect, relay_matrix_set
        from dstc.gnaf_sim import column_gains, crandn, effective_matrix
        for variant in ("gnaf1", "gnaf2", "gnaf3", "jh"):
            for d in (build_pciod(4), build_pciod_rect(3)):
                rs = relay_matrix_set(d)
                params = protocol_params(d, 10.0, variant)
                rng = make_rng(77, hash(variant) % 97)
                z = crandn(rng, 50, 2 * d.r + 1)
                g0, f, g = z[:, 0], z[:, 1:d.r + 1], z[:, d.r + 1:]
                m = effective_matrix(d, params, g0, column_gains(rs, f, g))
                m = m / np.sqrt(omega_diagonals(params, rs, g))[:, :, None]
                _, gram = sufficient_stats(np.zeros(m.shape[:2]), m)
                worst = float(np.max(gram_crossterm(gram, d.partition)))
                assert worst < 1e-12

    def test_crossterm_detects_coupling(self):
        d = build_pciod(4)
        book = lattice_codebook(d.partition, default_lattice(2, 2))
        m, _ = pciod_model(d, n=1, seed=13)
        _, gram = sufficient_stats(np.zeros(m.shape[1]), m[0])
        assert gram_crossterm(gram, book.groups) < 1e-12
        rng = make_rng(14, 0)
        m_bad = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        _, gram = sufficient_stats(np.zeros(8), m_bad)
        assert gram_crossterm(gram, book.groups) > 0.1

    def test_crossterm_equals_masked_maximum(self):
        rng = make_rng(15, 0)
        gram = rng.standard_normal((30, 6, 6))
        groups = ((0, 3), (1,), (2, 4, 5))
        label = np.array([0, 1, 2, 0, 2, 2])
        cross = label[:, None] != label[None, :]
        want = np.max(np.abs(gram) * cross, axis=(-2, -1), initial=0.0)
        assert np.array_equal(gram_crossterm(gram, groups), want)
        assert np.array_equal(gram_crossterm(gram, ((0, 1, 2, 3, 4, 5),)), np.zeros(30))


class TestLinear:
    def setup_case(self, n=40, seed=2):
        d = build_toeplitz(2, 2)
        book = qam_codebook(2, 4)
        from dstc.designs import relay_matrix_set
        from dstc.gnaf_sim import column_gains, crandn, effective_matrix
        rs = relay_matrix_set(d)
        params = protocol_params(d, 100.0, "gnaf3")
        rng = make_rng(seed, 4)
        z = crandn(rng, n, 2 * d.r + 1)
        g0, f, g = z[:, 0], z[:, 1:d.r + 1], z[:, d.r + 1:]
        m = effective_matrix(d, params, g0, column_gains(rs, f, g))
        diag = omega_diagonals(params, rs, g)
        return book, m / np.sqrt(diag)[:, :, None], rng

    def test_zf_noiseless_exact(self):
        book, m, rng = self.setup_case()
        tx = rng.integers(0, 4, size=(40, 2))
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        assert np.array_equal(zf_detect(*sufficient_stats(y, m), book), tx)

    def test_zf_equals_ml_noiseless(self):
        book, m, rng = self.setup_case(seed=5)
        tx = rng.integers(0, 4, size=(40, 2))
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        z, gram = sufficient_stats(y, m)
        assert np.array_equal(zf_detect(z, gram, book), ml_joint(z, gram, book))

    def test_zf_rank_deficient_erasure(self):
        book = qam_codebook(1, 4)
        m = np.zeros((1, 3, 2), dtype=complex)     # zero model: rank 0
        dec = zf_detect(*sufficient_stats(np.ones((1, 3), complex), m), book)
        assert np.array_equal(dec, [[-1]])

    @staticmethod
    def hadamard_model(rng, ratio, rows=3, k=4):
        """A model whose G has det G / prod diag G = ``ratio``.

        The realified model is Q C S: Q has orthonormal columns, C is upper
        triangular with unit columns and diagonal (1, sqrt(ratio), 1, ...),
        and S scales the columns; its columns are then shuffled.
        """
        c = np.eye(k)
        c[0, 1], c[1, 1] = np.sqrt(1.0 - ratio), np.sqrt(ratio)
        q, _ = np.linalg.qr(rng.standard_normal((2 * rows, k)))
        a = (q @ c * rng.uniform(0.1, 10.0, k))[:, rng.permutation(k)]
        return a[:rows] + 1j * a[rows:]

    def test_zf_erasure_boundary_is_the_hadamard_ratio(self):
        # draws just above and just below the REL_TOL ratio, a zero column,
        # and fewer real rows than symbols: erased exactly where the
        # determinant rule det G > REL_TOL prod diag G says, without warnings
        rng = np.random.default_rng(31)
        book = qam_codebook(2, 4)
        tol = REL_TOL
        zero_col = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        zero_col[:, 2] = 0.0
        cases = [(self.hadamard_model(rng, tol * f), f < 1)
                 for f in (1.001, 0.999, 1.001, 0.999, 10.0, 0.1)]
        cases.append((zero_col, True))
        wide = rng.standard_normal((5, 1, 4)) + 1j * rng.standard_normal((5, 1, 4))
        for m, want in [(np.stack([c[0] for c in cases]), [c[1] for c in cases]),
                        (wide, [True] * 5)]:
            y = rng.standard_normal(m.shape[:2]) + 1j * rng.standard_normal(m.shape[:2])
            z, gram = sufficient_stats(y, m)
            diag = np.diagonal(gram, axis1=-2, axis2=-1)
            det_rule = ~(np.linalg.det(gram) > tol * np.prod(diag, axis=-1))
            with np.errstate(all="raise"):
                dec = zf_detect(z, gram, book)
            erased = np.all(dec == -1, axis=1)
            assert np.array_equal(erased, want)
            assert np.array_equal(erased, det_rule)
            assert np.all(dec[~erased] >= 0)

    def test_zf_small_scale_not_erased(self):
        # realified model with singular values 10, 4, 2, 1 (condition 10):
        # scaling it by 0.01 must not turn decisions into erasures
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = u @ np.diag([10.0, 4.0, 2.0, 1.0]) @ v.T
        book = qam_codebook(2, 4)
        tx = np.array([[i, j] for i in range(4) for j in range(4)])
        for scale in (1.0, 0.01):
            ms = np.broadcast_to(scale * m, (len(tx), 4, 4))
            y = np.einsum("brk,bk->br", ms, book.assemble(tx))
            assert np.array_equal(zf_detect(*sufficient_stats(y, ms), book), tx)

    def test_mmse_noiseless_exact(self):
        book, m, rng = self.setup_case(seed=7)
        tx = rng.integers(0, 4, size=(40, 2))
        y = np.einsum("brk,bk->br", m, book.assemble(tx))
        assert np.array_equal(mmse_detect(*sufficient_stats(y, m), book), tx)

    def test_mmse_decides_rank_deficient_draws(self):
        # the whitened noise variance regularises G, so a draw that loses a
        # symbol's column is still decided, where ZF erases it
        book, m, rng = self.setup_case(n=3, seed=17)
        m = m.copy()
        m[1, :, 2] = 0.0                   # draw 1 loses a symbol's column
        y = np.einsum("brk,bk->br", m, book.assemble([[3, 1], [2, 0], [1, 2]]))
        z, gram = sufficient_stats(y, m)
        with np.errstate(all="raise"):
            dec = mmse_detect(z, gram, book)
        assert np.array_equal(dec[[0, 2]], [[3, 1], [1, 2]])
        assert np.all(dec[1] >= 0)
        assert np.array_equal(zf_detect(z, gram, book)[1], [-1, -1])

    def test_lattice_slicing_matches_nearest_row(self):
        d = build_pciod(4)
        lat = default_lattice(2, 2)
        book_lat = lattice_codebook(d.partition, lat)
        book_plain = Codebook(book_lat.groups, book_lat.group_values)
        rng = make_rng(15, 1)
        xhat = rng.standard_normal((200, 8))
        from dstc.receivers import _slice_groups
        assert np.array_equal(_slice_groups(xhat, book_lat),
                              _slice_groups(xhat, book_plain))
