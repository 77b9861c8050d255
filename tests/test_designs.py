import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dstc import matkernel as mk
from dstc.designs import (Design, build_cda, build_ciod4, build_family,
                          build_pciod, build_pciod_rect, build_toeplitz,
                          compose_precode, design_from_dict, design_to_dict,
                          direct_design, golden_cda, load_design,
                          relay_matrix_set, save_design, unit_energy_relays)
from dstc.verifier import check_clro, check_condition1, check_group_decodable

# pciod4 as the construct command wrote it before designs became their
# weights: it also carries "t", "r", "k" and "col_conj"
SEVEN_KEY_FILE = Path(__file__).parent / "data" / "pciod4_seven_keys.json"


def sym(d, x):
    return d.codeword(np.asarray(x, dtype=float))


class TestPciod:
    def test_r2_block(self):
        d = build_pciod(2)
        got = sym(d, [1, 2, 3, 4])
        want = np.array([[1 + 2j, -3 + 4j],
                         [3 + 4j, 1 - 2j]])
        assert np.array_equal(got, want)

    def test_r4_two_blocks(self):
        d = build_pciod(4)
        assert (d.t, d.r, d.k) == (4, 4, 8)
        s = sym(d, [1, 2, 3, 4, 5, 6, 7, 8])
        assert np.array_equal(s[:2, :2], sym(build_pciod(2), [1, 2, 3, 4]))
        assert np.array_equal(s[2:, 2:], sym(build_pciod(2), [5, 6, 7, 8]))
        assert np.all(s[:2, 2:] == 0) and np.all(s[2:, :2] == 0)

    def test_r6_weight_sparsity(self):
        d = build_pciod(6)
        assert d.k == 12
        for k in range(d.k):
            nnz = np.count_nonzero(d.weights[k])
            assert nnz in (1, 2)

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="family 'pciod-rect'"):
            build_pciod(3)

    def test_column_orthogonality(self):
        rng = np.random.default_rng(0)
        for r in (2, 4, 6):
            d = build_pciod(r)
            for _ in range(20):
                s = sym(d, rng.standard_normal(d.k))
                gram = mk.herm(s) @ s
                off = gram - np.diag(np.diag(gram))
                assert np.max(np.abs(off)) < 1e-12

    def test_gram_factorization(self):
        # Gram of a difference codeword is block scalar; its determinant is
        # the product of squared per-block difference energies.
        rng = np.random.default_rng(1)
        d = build_pciod(4)
        for _ in range(30):
            dx = rng.standard_normal(d.k)
            s = sym(d, dx)
            gram = mk.herm(s) @ s
            b0 = float(np.sum(dx[0:4] ** 2))
            b1 = float(np.sum(dx[4:8] ** 2))
            want = np.diag([b0, b0, b1, b1])
            assert np.allclose(gram, want, atol=1e-12)
            assert np.linalg.det(gram) == pytest.approx(b0 ** 2 * b1 ** 2, rel=1e-9)

    def test_partition_is_mod4(self):
        d = build_pciod(4)
        assert d.partition == ((0, 4), (1, 5), (2, 6), (3, 7))


class TestPciodRect:
    def test_r3(self):
        d = build_pciod_rect(3)
        assert (d.t, d.r, d.k) == (4, 3, 8)
        full = build_pciod(4)
        assert np.array_equal(d.weights, full.weights[:, :, :3])

    def test_r1_column(self):
        d = build_pciod_rect(1)
        got = sym(d, [1, 2, 3, 4])
        assert np.array_equal(got, np.array([[1 + 2j], [3 + 4j]]))

    def test_r5(self):
        d = build_pciod_rect(5)
        assert (d.t, d.r, d.k) == (6, 5, 12)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            build_pciod_rect(4)


class TestCiod4:
    def test_matrix_over_tilde_variables(self):
        d, _ = build_ciod4()
        # tilde variable m is the canonical pairing X[2m] + i X[2m+1]
        s = sym(d, [1, 2, 3, 4, 5, 6, 7, 8])
        t1, t2, t3, t4 = 1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j
        want = np.array([[t1, -np.conj(t2), 0, 0],
                         [t2, np.conj(t1), 0, 0],
                         [0, 0, t3, -np.conj(t4)],
                         [0, 0, t4, np.conj(t3)]])
        assert np.array_equal(s, want)

    def test_precode_interleaves_quadratures(self):
        _, pre = build_ciod4()
        x = np.array([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j])
        st = pre.apply(x)
        # real parts stay, imaginary parts swap across the block pair
        assert np.array_equal(st, np.array([1 + 6j, 3 + 8j, 5 + 2j, 7 + 4j]))

    def test_zero_maps_to_zero(self):
        d, pre = build_ciod4()
        assert np.all(sym(d, np.zeros(8)) == 0)
        assert np.all(pre.apply(np.zeros(4)) == 0)

    def test_same_weights_as_pciod4(self):
        d, _ = build_ciod4()
        assert np.array_equal(d.weights, build_pciod(4).weights)


class TestToeplitz:
    def test_2x2(self):
        d = build_toeplitz(2, 2)
        got = sym(d, [1, 2, 3, 4])
        x1, x2 = 1 + 2j, 3 + 4j
        want = np.array([[x1, 0], [x2, x1], [0, x2]])
        assert np.array_equal(got, want)

    def test_t1_1_r3_diagonal(self):
        d = build_toeplitz(1, 3)
        got = sym(d, [1, 2])
        assert np.array_equal(got, (1 + 2j) * np.eye(3))

    @pytest.mark.parametrize("t1,r", [(1, 1), (2, 3), (4, 2), (3, 5)])
    def test_shape_and_column_support(self, t1, r):
        d = build_toeplitz(t1, r)
        assert (d.t, d.r, d.k) == (t1 + r - 1, r, 2 * t1)
        rng = np.random.default_rng(9)
        s = sym(d, rng.standard_normal(d.k))
        for j in range(r):
            nz = np.nonzero(s[:, j])[0]
            assert len(nz) == t1
            assert np.array_equal(nz, np.arange(j, j + t1))

    def test_gram_is_hermitian_toeplitz(self):
        d = build_toeplitz(3, 3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = sym(d, rng.standard_normal(d.k))
            gram = mk.herm(s) @ s
            assert np.allclose(gram, mk.herm(gram), atol=1e-12)
            for diag in range(-2, 3):
                vals = np.diagonal(gram, offset=diag)
                assert np.allclose(vals, vals[0], atol=1e-12)


class TestDirect:
    """The relay-free design of the no-relay baseline."""

    @pytest.mark.parametrize("t1", [1, 2, 3])
    def test_shape_and_partition(self, t1):
        d = direct_design(t1)
        assert d.family == "direct"
        assert d.weights.shape == (2 * t1, 0, 0)
        assert (d.k, d.t, d.r, d.n_complex) == (2 * t1, 0, 0, t1)
        assert d.partition == tuple((2 * i, 2 * i + 1) for i in range(t1))

    @pytest.mark.parametrize("t1", [0, -1])
    def test_refuses_no_symbols(self, t1):
        with pytest.raises(ValueError, match="t1 >= 1"):
            direct_design(t1)

    def test_relay_set_is_empty(self):
        rs = relay_matrix_set(direct_design(2))
        assert rs.n_relays == 0 and rs.q == 0
        assert rs.grams.shape == (0, 0, 0)
        assert check_clro(direct_design(2)).passed


class TestCda:
    def test_entry_structure(self):
        # explicit 2x2 instance with easy-to-read table values
        table = np.array([[1.0, 1.0], [2.0, -2.0]], dtype=complex)
        d = build_cda(2, 1j, 4.0, table)
        x = np.zeros(d.k)
        x[0] = 1.0    # f[0,0] = 1
        s = sym(d, x)
        # column 0 row 0: f00 * table[0][0] / sqrt(theta); delta only when k < j
        assert s[0, 0] == pytest.approx(0.5)
        assert s[1, 1] == pytest.approx(0.5)    # same symbol, conjugate column
        x = np.zeros(d.k)
        x[2 * 2] = 1.0   # f[1,0] = 1
        s = sym(d, x)
        assert s[0, 1] == pytest.approx(0.5j)   # delta factor on the wrap entry
        assert s[1, 0] == pytest.approx(0.5)

    def test_zero_symbols(self):
        d = golden_cda()
        assert np.all(sym(d, np.zeros(d.k)) == 0)

    def test_golden_entries_against_substitution(self):
        # independent substitution oracle, written directly from the template
        d = golden_cda()
        s5 = np.sqrt(5.0)
        g = (1 + s5) / 2
        alpha = 1 + 1j * (1 - g)
        salpha = 1 + 1j * (1 - (1 - s5) / 2)
        table = np.array([[alpha, salpha], [alpha * g, salpha * (1 - s5) / 2]])
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(d.k)
            f = (x[0::2] + 1j * x[1::2]).reshape(2, 2)
            want = np.zeros((2, 2), dtype=complex)
            for k in range(2):
                for j in range(2):
                    coef = (1j if k < j else 1.0) / np.sqrt(5.0)
                    want[k, j] = coef * sum(f[(k - j) % 2, i] * table[i, j]
                                            for i in range(2))
            assert np.allclose(sym(d, x), want, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cda(3, 1j, 1.0, np.eye(2))
        with pytest.raises(ValueError):
            build_cda(2, 1j, 0.0, np.eye(2))


class TestRelayMatrixSet:
    def test_pciod_signed_permutation(self):
        for r in (2, 4, 6):
            rs = relay_matrix_set(build_pciod(r))
            for m in rs.matrices:
                mags = np.abs(m)
                assert np.all((mags < 1e-12) | (np.abs(mags - 1.0) < 1e-12))
                assert np.all(np.sum(mags > 0.5, axis=0) <= 1)
                assert np.all(np.sum(mags > 0.5, axis=1) <= 1)

    def test_toeplitz_shift_matrices(self):
        rs = relay_matrix_set(build_toeplitz(2, 3))
        assert rs.conj == (False, False, False)
        for j, m in enumerate(rs.matrices):
            want = np.zeros((4, 2), dtype=complex)
            want[j, 0] = 1.0
            want[j + 1, 1] = 1.0
            assert np.array_equal(m, want)

    def test_alamouti_flags(self):
        rs = relay_matrix_set(build_pciod(2))
        assert rs.conj == (False, True)
        assert rs.columns == (0, 1)

    def test_canonical_order_plain_first(self):
        rs = relay_matrix_set(build_pciod(4))
        assert rs.conj == (False, False, True, True)
        assert rs.columns == (0, 2, 1, 3)
        assert rs.q == 2
        back = rs.by_column()
        assert back.columns == (0, 1, 2, 3)
        assert back.conj == (False, True, False, True)

    def test_reassembly_reproduces_codeword(self):
        rng = np.random.default_rng(4)
        for d in (build_pciod(4), build_toeplitz(2, 2), golden_cda(),
                  build_pciod_rect(3)):
            rs = relay_matrix_set(d)
            for _ in range(100):
                x = rng.standard_normal(d.k)
                s = d.source_vector(x)
                rebuilt = np.zeros((d.t, d.r), dtype=complex)
                for m, cj, col in zip(rs.matrices, rs.conj, rs.columns):
                    rebuilt[:, col] = m @ (np.conj(s) if cj else s)
                assert np.allclose(rebuilt, d.codeword(x), atol=1e-12)

    def test_mixed_column_rejected(self):
        # column 0 depends on both s and conj(s): x0*[[1],[0]] + x1*[[0],[0]]
        w = np.zeros((2, 2, 1), dtype=complex)
        w[0, 0, 0] = 1.0           # coefficient of x0 only: s0 and conj(s0) mix
        d = Design("custom", w)
        with pytest.raises(ValueError, match="column 0"):
            relay_matrix_set(d)

    def test_impurity_below_zero_test_extracts(self):
        # a conj(s) part of 1e-10 in a plain column: below the package zero
        # test, so condition1 calls the column plain and extraction agrees
        d = build_toeplitz(2, 2)
        w = d.weights.copy()
        w[0, 0, 0] += 1e-10           # Q[0, 0] += 1e-10, P unchanged
        w[1, 0, 0] += -1e-10j
        d2 = Design(d.family, w, d.partition)
        _, q = d2.column_forms(0)
        scale = float(np.max(np.abs(w)))
        assert 1e-12 * (1 + scale) < np.max(np.abs(q)) < mk.zero_threshold(scale)
        rep = check_condition1(d2)
        assert rep.passed and rep.details["columns"][0] == "plain"
        rs = relay_matrix_set(d2)
        assert rs.conj == (False, False)
        assert np.allclose(rs.matrices[0], relay_matrix_set(d).matrices[0], atol=1e-9)

    def test_unit_energy_scaling(self):
        rs = unit_energy_relays(relay_matrix_set(build_pciod(4)))
        for m in rs.matrices:
            assert np.linalg.norm(m) == pytest.approx(1.0)


def test_linearity_exact():
    rng = np.random.default_rng(8)
    # integer-coefficient families are exactly linear in exact arithmetic;
    # the irrational-entry family only up to association roundoff
    for d, tol in ((build_pciod(4), 0.0), (build_toeplitz(2, 3), 0.0),
                   (golden_cda(), 1e-13)):
        x1 = rng.integers(-3, 4, size=d.k).astype(float)
        x2 = rng.integers(-3, 4, size=d.k).astype(float)
        lhs = d.codeword(2.0 * x1 + 3.0 * x2)
        rhs = 2.0 * d.codeword(x1) + 3.0 * d.codeword(x2)
        if tol == 0.0:
            assert np.array_equal(lhs, rhs)
        else:
            assert np.max(np.abs(lhs - rhs)) <= tol * np.max(np.abs(rhs))


def test_compose_precode_folds_map():
    d, pre = build_ciod4()
    raw = compose_precode(d)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(8)
        s_user = x[0::2] + 1j * x[1::2]
        st = pre.apply(s_user)
        xt = np.empty(8)
        xt[0::2], xt[1::2] = st.real, st.imag
        assert np.allclose(raw.codeword(x), d.codeword(xt), atol=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        for d in (build_pciod(4), build_ciod4()[0], build_toeplitz(2, 2),
                  golden_cda(), build_pciod_rect(3)):
            path = tmp_path / f"{d.family}.json"
            save_design(d, path)
            back = load_design(path)
            assert back.family == d.family
            assert (back.t, back.r, back.k) == (d.t, d.r, d.k)
            assert np.array_equal(back.weights, d.weights)
            assert back.partition == d.partition
            if d.precode is None:
                assert back.precode is None
            else:
                assert np.array_equal(back.precode.p_mat, d.precode.p_mat)
                assert np.array_equal(back.precode.q_mat, d.precode.q_mat)

    def test_non_finite_weight_refused(self, tmp_path):
        d = golden_cda()
        w = d.weights.copy()
        w[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"design weights\[1, 0, 1\] is not finite"):
            Design(d.family, w)
        # JSON files may carry NaN (Python's json reads it); loading refuses
        doc = design_to_dict(d)
        doc["weights"][0][1][0][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"design weights\[0, 1, 0\] is not finite"):
            load_design(path)

    @pytest.mark.parametrize("side, index", [("p", (0, 0)), ("q", (2, 1))])
    def test_non_finite_precode_refused(self, side, index):
        doc = design_to_dict(build_ciod4()[0])
        doc["precode"][side][index[0]][index[1]][1] = float("nan")
        with pytest.raises(ValueError, match=rf"precode {side}\[{index[0]}, "
                                             rf"{index[1]}\] is not finite"):
            design_from_dict(doc)

    @pytest.mark.parametrize("side, cut, message", [
        # a row of numbers is not a row of [re, im] pairs
        ("p", lambda m: [[1, 2, 3]], r"precode p must be \[re, im\] pairs, got an "
                                     r"array of shape \(1, 3\)"),
        ("q", lambda m: [[1]], r"precode q must be \[re, im\] pairs, got an "
                               r"array of shape \(1, 1\)"),
        ("p", lambda m: m[:3], r"precode pair must be two square matrices of one "
                               r"size, got shapes \(3, 4\) and \(4, 4\)"),
        ("q", lambda m: [row[:3] for row in m[:3]],
         r"precode pair must be two square matrices of one size, got shapes "
         r"\(4, 4\) and \(3, 3\)"),
    ], ids=["not-a-matrix", "not-pairs", "not-square", "mismatched"])
    def test_precode_shapes_refused(self, side, cut, message):
        doc = design_to_dict(build_ciod4()[0])
        doc["precode"][side] = cut(doc["precode"][side])
        with pytest.raises(ValueError, match=message):
            design_from_dict(doc)

    @pytest.mark.parametrize("edit, got", [
        (lambda doc: doc.update(precode=5), "int"),
        (lambda doc: doc.update(precode=[1, 2]), "list"),
        (lambda doc: doc["precode"].pop("q"), r"\['p'\]"),
        (lambda doc: doc["precode"].update(r=1), r"\['p', 'q', 'r'\]"),
    ], ids=["number", "list", "no-q", "extra-r"])
    def test_precode_not_a_pair_object_refused(self, edit, got):
        # a number or list once ended in a TypeError, a missing side in a
        # bare KeyError, and an extra key was ignored
        doc = design_to_dict(build_ciod4()[0])
        edit(doc)
        with pytest.raises(ValueError, match=r"design file's precode must be an object of "
                                             rf"exactly the keys 'p' and 'q', got {got}$"):
            design_from_dict(doc)

    def test_unknown_key_refused(self):
        # a misspelled precode key once loaded ciod4 without its precoder
        doc = design_to_dict(build_ciod4()[0])
        doc["precdoe"] = doc.pop("precode")
        with pytest.raises(ValueError, match=r"design file key 'precdoe' is unknown; "
                                             r"known: \['col_conj', 'family', 'k', "
                                             r"'partition', 'precode', 'r', 't', "
                                             r"'weights'\]"):
            design_from_dict(doc)

    def test_precode_of_wrong_size_refused(self):
        # a 2x2 pair is square and finite, but ciod4 has K/2 = 4 complex symbols
        doc = design_to_dict(build_ciod4()[0])
        for side in ("p", "q"):
            doc["precode"][side] = [row[:2] for row in doc["precode"][side][:2]]
        with pytest.raises(ValueError, match=r"precode pair is 2x2, but a design "
                                             r"in K=8 real symbols needs K/2 x K/2"):
            design_from_dict(doc)

    @pytest.mark.parametrize("weights, message", [
        ([[1]], r"design weights must be \[re, im\] pairs, got an array of shape \(1, 1\)"),
        ([[[[1, 2, 3]]]], r"\[re, im\] pairs, got an array of shape \(1, 1, 1, 3\)"),
        ([], "a design needs at least one real symbol, got K=0"),
    ], ids=["number", "triple", "empty"])
    def test_weights_not_pairs_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            design_from_dict({"family": "x", "weights": weights, "partition": [[0]]})

    @pytest.mark.parametrize("t1", [1, 2, 3])
    def test_relay_free_round_trip_bit_exact(self, tmp_path, t1):
        # JSON keeps no axis after an empty one: the (2*t1, 0, 0) weights
        # are written as 2*t1 empty lists
        d, path = direct_design(t1), tmp_path / "direct.json"
        save_design(d, path)
        back = load_design(path)
        assert back.weights.shape == d.weights.shape == (2 * t1, 0, 0)
        assert design_to_dict(back) == design_to_dict(d)
        assert (back.family, back.partition, back.precode) == ("direct", d.partition, None)

    def test_dict_round_trip_stable(self):
        d = golden_cda()
        blob = json.dumps(design_to_dict(d))
        again = json.dumps(design_to_dict(design_from_dict(json.loads(blob))))
        assert blob == again


class TestDesignIsItsWeights:
    def test_four_fields_and_shape_properties(self):
        assert [f.name for f in dataclasses.fields(Design)] == [
            "family", "weights", "partition", "precode"]
        d = build_toeplitz(3, 2)
        assert d.weights.shape == (d.k, d.t, d.r) == (6, 4, 2)

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (4, 2, 1, 1)])
    def test_weights_must_be_three_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"design weights must be a \(K, T, R\) "
                                             r"array, got shape"):
            Design("custom", np.ones(shape))

    @pytest.mark.parametrize("partition", [((0, 1), (1, 2, 3)), ((0,), (1,), (2,)),
                                           ((0, 1, 2, 3, 4),)])
    def test_partition_cover_is_one_rule(self, partition):
        # Design and the group-decodability check refuse a non-cover alike
        d = build_pciod(2)
        msg = "is not a disjoint cover of the symbol indices 0..3"
        with pytest.raises(ValueError, match=msg):
            Design("custom", d.weights, partition)
        with pytest.raises(ValueError, match=msg):
            check_group_decodable(d.weights, partition)

    @pytest.mark.parametrize("d", [build_pciod(4), build_toeplitz(2, 2), golden_cda()],
                             ids=lambda d: d.family)
    def test_file_holds_only_the_weight_facts(self, d):
        assert list(design_to_dict(d)) == ["family", "weights", "partition"]

    def test_precoded_file_adds_the_precode(self):
        doc = design_to_dict(build_ciod4()[0])
        assert list(doc) == ["family", "weights", "partition", "precode"]


class TestSevenKeyFile:
    def doc(self):
        return json.loads(SEVEN_KEY_FILE.read_text())

    def test_loads_to_the_built_design(self):
        assert {"t", "r", "k", "col_conj"} <= set(self.doc())
        d, want = load_design(SEVEN_KEY_FILE), build_pciod(4)
        assert d.family == want.family
        assert np.array_equal(d.weights, want.weights)
        assert d.partition == want.partition
        assert d.precode is None

    def test_declared_column_kinds_are_ignored(self):
        # every column declared conjugated; the weights say otherwise
        doc = self.doc()
        doc["col_conj"] = ["conj"] * 4
        rep = check_condition1(design_from_dict(doc))
        assert rep.details["columns"] == ["plain", "conj", "plain", "conj"]

    @pytest.mark.parametrize("key, value", [("t", 3), ("r", 5), ("k", 6), ("k", "8")])
    def test_header_disagreeing_with_weights_refused(self, key, value):
        doc = self.doc()
        doc[key] = value
        actual = {"t": 4, "r": 4, "k": 8}[key]
        with pytest.raises(ValueError, match=rf"design file gives {key}={value!r}, "
                                             rf"but its weights have {key}={actual}"):
            design_from_dict(doc)

    def test_saved_again_without_its_header(self, tmp_path):
        out = tmp_path / "again.json"
        save_design(load_design(SEVEN_KEY_FILE), out)
        assert list(json.loads(out.read_text())) == ["family", "weights", "partition"]
        assert np.array_equal(load_design(out).weights, build_pciod(4).weights)


def test_build_family_dispatch():
    assert build_family("pciod", 4).family == "pciod"
    assert build_family("toeplitz", 2, 3).t == 4
    with pytest.raises(ValueError, match="pciod-rect"):
        build_family("pciod", 3)
    with pytest.raises(ValueError, match="unknown family"):
        build_family("nope", 2)
    # the relay-free design is a family too, built from its symbol count
    assert build_family("direct", t1=2).weights.shape == (4, 0, 0)


@pytest.mark.parametrize("family, relays, t1, message", [
    ("cda", 7, None, "family 'cda' gives relays=7, but its design has relays=2"),
    ("cda", None, 9, "family 'cda' gives t1=9, but its design has t1=4"),
    ("ciod4", 2, None, "family 'ciod4' gives relays=2, but its design has relays=4"),
    ("pciod", 4, 9, "family 'pciod' gives t1=9, but its design has t1=4"),
    ("direct", 1, 2, "family 'direct' gives relays=1, but its design has relays=0"),
    ("toeplitz", 2, None, "family 'toeplitz' needs t1 and relays"),
    ("pciod", None, 4, "family 'pciod' needs relays"),
    ("direct", None, None, "family 'direct' needs t1"),
    ("cda", 2.0, None, "relays must be an integer of at least 0, got 2.0"),
    ("toeplitz", 2, True, "t1 must be an integer of at least 0, got True"),
    # a JSON list once ended in a TypeError traceback, unhashable as a key
    (["pciod"], 4, None, "unknown family ['pciod']"),
], ids=["cda-relays", "cda-t1", "ciod4-relays", "pciod-t1", "direct-relays",
        "toeplitz-no-t1", "pciod-no-relays", "direct-no-t1", "relays-float", "t1-bool",
        "family-list"])
def test_build_family_refuses_a_count_the_design_has_not(family, relays, t1, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_family(family, relays, t1)


@pytest.mark.parametrize("family, relays, t1", [
    ("cda", 2, 4), ("cda", None, None), ("ciod4", 4, 4), ("pciod", 4, 4),
    ("pciod-rect", 3, 4), ("toeplitz", 3, 2), ("direct", 0, 2), ("direct", None, 1)])
def test_build_family_takes_every_count_true_of_the_design(family, relays, t1):
    d = build_family(family, relays, t1)
    assert relays in (None, d.r) and t1 in (None, d.n_complex)
