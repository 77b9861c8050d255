import numpy as np
import pytest

from dstc import verifier
from dstc.designs import (Design, RelayMatrixSet, build_ciod4, build_pciod,
                          build_pciod_rect, build_toeplitz, compose_precode,
                          golden_cda, relay_matrix_set)
from dstc.gnaf_sim import (make_rng, noise_cov, protocol_params,
                           relay_noise_cov, sample_channel)
from dstc.precoding import default_lattice, partition_mod4
from dstc.receivers import (ResourceGuardError, lattice_codebook, pam_codebook,
                            qam_codebook)
from dstc.verifier import (check_condition1, check_condition2,
                           check_full_diversity, check_group_decodable,
                           check_whitened_group_decodable, det_zero_threshold,
                           min_delta_det_full, nvd_probe, whitened_weights)

ALL_FAMILIES = [build_pciod(2), build_pciod(4), build_pciod(6),
                build_pciod_rect(1), build_pciod_rect(3),
                build_ciod4()[0], build_toeplitz(2, 2), build_toeplitz(3, 4),
                golden_cda()]


class TestCondition1:
    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: f"{d.family}-r{d.r}")
    def test_constructed_families_pass(self, d):
        # the coordinate-interleaved families conjugate their odd columns
        # (build_pciod); toeplitz and cda conjugate none
        interleaved = d.family in ("pciod", "pciod-rect", "ciod4")
        want = ["conj" if interleaved and c % 2 else "plain" for c in range(d.r)]
        rep = check_condition1(d)
        assert rep.passed
        assert rep.details["columns"] == want

    def test_ciod4_fails_over_user_symbols(self):
        d, _ = build_ciod4()
        raw = compose_precode(d)
        rep = check_condition1(raw)
        assert not rep.passed
        assert rep.witness == 0
        assert rep.details["columns"][rep.witness] == "mixed"

    def test_mixed_column_witness(self):
        # column mixing x (via A_0 alone) is half s + half conj(s)
        w = np.zeros((2, 2, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = 1j        # column 0 = s_0: plain
        w[0, 1, 1] = 1.0       # column 1 = Re(s_0): mixed
        d = Design("custom", w)
        rep = check_condition1(d)
        assert not rep.passed and rep.witness == 1


def _mixed_column_design():
    w = np.zeros((2, 2, 2), dtype=complex)
    w[0, 0, 0] = 1.0
    w[1, 0, 0] = 1j        # column 0 = s_0: plain
    w[0, 1, 1] = 1.0       # column 1 = Re(s_0): mixed
    return Design("custom", w)


@pytest.mark.parametrize(
    "d", ALL_FAMILIES + [compose_precode(build_ciod4()[0]), _mixed_column_design()],
    ids=lambda d: f"{d.family}-r{d.r}")
def test_column_classifier_shared(d):
    # relay extraction and condition1 read one classifier: extraction
    # refuses exactly the designs condition1 fails, and the relay flags in
    # column order are the report's column kinds
    rep = check_condition1(d)
    if not rep.passed:
        with pytest.raises(ValueError, match=f"column {rep.witness} "):
            relay_matrix_set(d)
        return
    rs = relay_matrix_set(d)
    kinds = [None] * d.r
    for conj, col in zip(rs.conj, rs.columns):
        kinds[col] = "conj" if conj else "plain"
    assert kinds == rep.details["columns"]


class TestCondition2:
    def test_pciod_and_toeplitz_pass(self):
        for d in (build_pciod(4), build_toeplitz(2, 3), golden_cda()):
            assert check_condition2(relay_matrix_set(d)).passed

    def test_duplicate_rows_fail(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        rs = RelayMatrixSet((m,), (False,), (0,))
        rep = check_condition2(rs)
        assert not rep.passed and rep.witness == 0


class TestGroupDecodable:
    def test_pciod_mod4(self):
        for r in (2, 4, 6):
            d = build_pciod(r)
            rep = check_group_decodable(d.weights, d.partition)
            assert rep.passed and rep.margin < 1e-12

    def test_single_group_vacuous(self):
        d = build_toeplitz(2, 2)
        rep = check_group_decodable(d.weights, ((0, 1, 2, 3),))
        assert rep.passed

    def test_zero_size_weights_vacuous(self):
        # the relay-free design's weights: no matrix entries to violate
        rep = check_group_decodable(np.zeros((4, 0, 0)), ((0, 1), (2, 3)))
        assert rep.passed and rep.margin == 0.0 and rep.witness is None

    def test_duplicate_matrix_fails(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        w = np.stack([a, a])
        rep = check_group_decodable(w, ((0,), (1,)))
        assert not rep.passed
        assert rep.witness == (0, 1)
        assert rep.margin == pytest.approx(2.0)

    def test_partition_must_cover(self):
        d = build_pciod(2)
        with pytest.raises(ValueError):
            check_group_decodable(d.weights, ((0, 1),))


class TestGamma:
    def test_unitary_relays_unit_gains(self):
        eye = np.eye(3, dtype=complex)
        rs = RelayMatrixSet((eye, eye, eye, eye), (False,) * 4, (0, 1, 2, 3))
        params = protocol_params(build_pciod(2), 5.0)
        gm = relay_noise_cov(params, rs, np.ones(4))
        pref = 5.0 / 6.0
        assert np.allclose(gm, 4 * pref * eye, atol=1e-12)

    def test_term_by_term_oracle(self):
        d = build_pciod(4)
        rs = relay_matrix_set(d)
        params = protocol_params(d, 3.0)
        rng = make_rng(17, 0)
        for _ in range(20):
            ch = sample_channel(4, rng)
            gm = relay_noise_cov(params, rs, ch.g)
            want = np.zeros((4, 4), dtype=complex)
            for gi, m in zip(ch.g, rs.matrices):
                want += (abs(gi) ** 2) * (m @ m.conj().T)
            want *= 3.0 / 4.0
            assert np.max(np.abs(gm - want)) < 1e-12

    def test_always_psd_hermitian(self):
        d = golden_cda()
        rs = relay_matrix_set(d)
        params = protocol_params(d, 8.0)
        rng = make_rng(23, 1)
        for _ in range(50):
            ch = sample_channel(d.r, rng)
            gm = relay_noise_cov(params, rs, ch.g)
            assert np.allclose(gm, gm.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(gm)[0] >= -1e-12

    def test_gain_count_checked(self):
        rs = relay_matrix_set(build_pciod(2))
        params = protocol_params(build_pciod(2), 1.0)
        with pytest.raises(ValueError):
            relay_noise_cov(params, rs, np.ones(3))
        with pytest.raises(ValueError, match="non-finite"):
            relay_noise_cov(params, rs, np.array([1.0, np.nan]))
        # batched (B, R) gains give the per-draw matrices, stacked
        rng = make_rng(29, 0)
        g = np.stack([sample_channel(2, rng).g for _ in range(5)])
        batched = relay_noise_cov(params, rs, g)
        assert batched.shape == (5, 2, 2)
        for b in range(5):
            assert np.array_equal(batched[b], relay_noise_cov(params, rs, g[b]))


class TestWhitened:
    def test_pciod_passes(self):
        d = build_pciod(4)
        params = protocol_params(d, 10.0)
        rep = check_whitened_group_decodable(d, d.partition, params,
                                             n_draws=50, seed=1)
        assert rep.passed
        assert rep.details == {"draws": 50, "seed": 1}

    def test_identity_gamma_reduces_to_unwhitened(self):
        d = build_pciod(4)
        w = whitened_weights(d, np.eye(4, dtype=complex))
        rep_w = check_group_decodable(w, d.partition)
        rep_u = check_group_decodable(d.weights, d.partition)
        assert rep_w.passed == rep_u.passed

    def test_silent_cooperation_row_gets_a_verdict(self):
        # the second row of the only relay matrix is zero, so Gamma is
        # singular whatever the gains; I + Gamma, which the check whitens
        # by, is not, and the two matrices still anticommute after it. At
        # weights x 1e6, I + Gamma is diag(1, ~1e12): ill conditioned, but
        # positive definite as far as the eigensolver can tell
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6):
            w = np.zeros((2, 2, 1), dtype=complex)
            w[0, 0, 0], w[1, 0, 0] = scale, 1j * scale
            d = Design("custom", w)
            params = protocol_params(d, 10.0)
            rep = check_whitened_group_decodable(d, ((0,), (1,)), params, n_draws=2)
            assert rep.passed and rep.witness is None, scale
            assert rep.details == {"draws": 2, "seed": 0}

    @pytest.mark.parametrize("variant", ["gnaf1", "gnaf2", "jh"])
    def test_whitens_by_the_cooperation_block_of_noise_cov(self, monkeypatch,
                                                           variant):
        d = build_pciod(4)
        params = protocol_params(d, 10.0, variant)
        seen = []

        def recording(design, cov):
            seen.append(cov)
            return whitened_weights(design, cov)

        monkeypatch.setattr(verifier, "whitened_weights", recording)
        check_whitened_group_decodable(d, d.partition, params, n_draws=5, seed=4)
        rs = relay_matrix_set(d)
        coop = params.rows - params.t2
        rng = make_rng(4, 0xC0, 0xDE)
        assert len(seen) == 5
        for cov in seen:
            want = noise_cov(params, sample_channel(d.r, rng), rs)[coop:, coop:]
            assert cov.shape == (d.t, d.t)
            assert np.array_equal(cov, want)

    def test_rect_designs_pass_for_any_relay_count(self):
        # the drop-a-column construction keeps 4-group decodability
        for r in (1, 3, 5):
            d = build_pciod_rect(r)
            assert check_group_decodable(d.weights, d.partition).passed
            rep = check_whitened_group_decodable(
                d, d.partition, protocol_params(d, 10.0), n_draws=20, seed=5)
            assert rep.passed

    def test_golden_cda_fails_with_four_groups(self):
        d = golden_cda()
        params = protocol_params(d, 10.0)
        fake_partition = partition_mod4(d.k)
        rep = check_whitened_group_decodable(d, fake_partition, params,
                                             n_draws=5, seed=2)
        assert not rep.passed
        assert rep.witness is not None and "pair" in rep.witness


class TestMinDeltaDet:
    def test_unprecoded_pciod4_zero_with_witness(self):
        d = build_pciod(4)
        book = pam_codebook(d.partition, 2)         # independent +-1 coords
        val, witness = min_delta_det_full(d, book)
        assert val < 1e-12
        # the witness difference lives on a single block
        blocks = [witness[0:4], witness[4:8]]
        assert any(np.all(b == 0) for b in blocks)
        assert any(np.any(b != 0) for b in blocks)

    def test_precoded_pciod2_positive_exhaustive_pairs(self):
        d = build_pciod(2)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        x = book.enumerate_x()
        assert len(x) == 16                          # 256 explicit pairs
        val, _ = min_delta_det_full(d, x)
        assert val > 1e-6

    def test_precoded_pciod4_positive(self):
        d = build_pciod(4)
        book = lattice_codebook(d.partition, default_lattice(2, 2))
        val, _ = min_delta_det_full(d, book)
        assert val > 1e-6

    def test_singleton_codebook_infinite(self):
        d = build_pciod(2)
        assert min_delta_det_full(d, np.zeros((1, 4)))[0] == np.inf

    def test_pair_guard_refusal(self):
        d = build_pciod(2)
        with pytest.raises(ResourceGuardError):
            min_delta_det_full(d, np.zeros((4000, 4)))

    def test_order_and_translation_invariance(self):
        d = build_pciod(2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 4))
        v1 = min_delta_det_full(d, x)[0]
        v2 = min_delta_det_full(d, x[::-1])[0]
        v3 = min_delta_det_full(d, x + 7.25)[0]
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert v1 == pytest.approx(v3, rel=1e-9)

    def test_product_path_matches_explicit_pairs(self):
        d = golden_cda()
        book = qam_codebook(d.n_complex, 4, normalize=False)
        via_diffs, _ = min_delta_det_full(d, book)
        via_pairs, _ = min_delta_det_full(d, book.enumerate_x())
        assert via_diffs == pytest.approx(via_pairs, rel=1e-12)

    def test_non_finite_codeword_refused(self):
        x = np.zeros((3, 4))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"codebook\[1, 2\] is not finite"):
            min_delta_det_full(build_pciod(2), x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_the_same_error_on_both_paths(self):
        # weights of 1e80 put every score |det dS|^2 beyond float64: both
        # paths raise the same ValueError, and numpy's overflow warning
        # does not escape (the suite makes RuntimeWarning an error)
        d = golden_cda()
        big = Design(d.family, d.weights * 1e80)
        book = qam_codebook(d.n_complex, 4, normalize=False)
        messages = []
        for codebook in (book, book.enumerate_x()):
            with pytest.raises(ValueError, match="overflow float64") as err:
                min_delta_det_full(big, codebook)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_witness_owns_its_data(self):
        # a view would keep the whole difference (or pair) array alive
        d = build_pciod(2)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        for codebook in (book, book.enumerate_x()):
            _, witness = min_delta_det_full(d, codebook)
            assert witness.base is None


class TestFullDiversity:
    def test_pciod2_qam4_passes(self):
        d = build_pciod(2)
        book = qam_codebook(d.n_complex, 4)
        rep = check_full_diversity(d, book, "qam4")
        assert rep.check == "full_diversity"
        assert rep.passed and rep.witness is None
        assert rep.margin == min_delta_det_full(d, book)[0]
        assert rep.margin > rep.details["threshold"] > 0

    def test_pciod4_qam4_fails_with_list_witness(self):
        d = build_pciod(4)
        book = qam_codebook(d.n_complex, 4)
        rep = check_full_diversity(d, book, "qam4")
        assert not rep.passed
        assert rep.margin == 0.0
        assert isinstance(rep.witness, list)
        assert rep.witness == min_delta_det_full(d, book)[1].tolist()
        # the report names the constellation before the threshold
        assert list(rep.details) == ["constellation", "threshold"]
        assert rep.details == {"constellation": "qam4",
                               "threshold": det_zero_threshold(d, book)}


class TestNvdProbe:
    def test_report_shape(self):
        d = golden_cda()
        rep = nvd_probe(d, [16, 4])
        assert rep.check == "nvd_probe"
        assert rep.passed is True
        assert rep.witness is None
        assert list(rep.details) == ["entries", "threshold"]
        entries = rep.details["entries"]
        # [size, minimum] lists in increasing size; the margin is the least
        assert [size for size, _ in entries] == [4, 16]
        assert all(isinstance(e, list) and len(e) == 2 for e in entries)
        assert rep.margin == min(v for _, v in entries)
        assert rep.details["threshold"] == det_zero_threshold(
            d, qam_codebook(d.n_complex, 4, normalize=False))

    def test_golden_size4(self):
        d = golden_cda()
        probe = nvd_probe(d, [4])
        assert probe.details["entries"][0][0] == 4
        assert probe.details["entries"][0][1] == pytest.approx(16.0 / 5.0, rel=1e-9)

    def test_unprecoded_pciod_zero(self):
        d = build_pciod(4)
        probe = nvd_probe(d, [4])
        assert probe.details["entries"][0][1] < 1e-12
        assert not probe.passed

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            nvd_probe(golden_cda(), [8])

    def test_rejects_no_sizes(self):
        with pytest.raises(ValueError, match="at least one QAM size"):
            nvd_probe(golden_cda(), ())
