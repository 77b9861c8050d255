import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from multiprocessing import forkserver
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dstc import cli, gnaf_sim, verifier
from dstc import matkernel as mk
from dstc.designs import (Design, build_pciod, build_toeplitz, golden_cda,
                          relay_matrix_set)
from dstc.gnaf_sim import (ChannelRealization, NoiseDraw, ProtocolParams,
                           SimConfig, SimResult, column_gains, draw_noise,
                           effective_matrix, make_rng, noise_cov,
                           protocol_params, relay_noise_cov, results_to_csv,
                           run_monte_carlo, sample_channel, simulate_trial)
from dstc.precoding import default_lattice
from dstc.receivers import (ResourceGuardError, lattice_codebook, pam_codebook,
                            qam_codebook)


def zero_noise(params):
    return NoiseDraw(np.zeros(params.t1, complex),
                     np.zeros(params.t2, complex),
                     np.zeros((params.r, params.t1), complex))


def single_model(d, params, ch):
    """The compact model M of one trial: effective_matrix's batch of one."""
    h = column_gains(relay_matrix_set(d), ch.f, ch.g)[None]
    return effective_matrix(d, params, np.array([ch.g0]), h)[0]


class TestChannel:
    def test_replay_deterministic(self):
        a = sample_channel(3, make_rng(5, 1))
        b = sample_channel(3, make_rng(5, 1))
        assert a.g0 == b.g0
        assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)

    def test_gain_statistics(self):
        n = 10 ** 5
        rng = make_rng(9, 2)
        # same distribution as sample_channel, drawn in bulk
        z = (rng.standard_normal((n, 2)) @ np.array([1.0, 1.0j])) / np.sqrt(2)
        assert abs(np.mean(z.real)) < 3.0 / np.sqrt(2 * n)
        assert abs(np.mean(z.imag)) < 3.0 / np.sqrt(2 * n)
        var = np.mean(np.abs(z) ** 2)
        assert abs(var - 1.0) < 3.0 / np.sqrt(n)

    def test_cross_independence(self):
        n = 10 ** 5
        rng = make_rng(11, 3)
        f = (rng.standard_normal((n, 2)) @ np.array([1.0, 1.0j])) / np.sqrt(2)
        g = (rng.standard_normal((n, 2)) @ np.array([1.0, 1.0j])) / np.sqrt(2)
        cross = np.mean(f * np.conj(g))
        assert abs(cross) < 3.0 / np.sqrt(n)


@pytest.mark.parametrize("shape", [(4096, 9), (4096, 8), (4096, 5), (7,), (3, 2, 5)])
def test_crandn_bits_equal_the_plain_formula(shape):
    z = make_rng(17, len(shape)).standard_normal(shape + (2,))
    want = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    got = gnaf_sim.crandn(make_rng(17, len(shape)), *shape)
    assert got.shape == shape and got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()


class TestBuildEffective:
    """Hand-computed entries of the compact model M (effective_matrix)."""

    def unit_relay_design(self):
        # single relay forwarding the received symbol unchanged
        w = np.zeros((2, 1, 1), dtype=complex)
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = 1j
        return Design("custom", 1, 1, 2, w, ("plain",), ((0, 1),))

    def test_hand_computed_gnaf2(self):
        d = self.unit_relay_design()
        params = protocol_params(d, 4.0, "gnaf2")
        ch = ChannelRealization(0.5 + 0.5j, np.array([2.0 + 0j]), np.array([1j]))
        assert np.array_equal(column_gains(relay_matrix_set(d), ch.f, ch.g), [2j])
        # scale * c_top = sqrt(16/5) * sqrt(5/4) = 2 on the direct row
        want = np.array([[2.0 * (0.5 + 0.5j) * 1.0, 2.0 * (0.5 + 0.5j) * 1j],
                         [np.sqrt(16.0 / 5.0) * 2j, np.sqrt(16.0 / 5.0) * 2j * 1j]])
        assert np.allclose(single_model(d, params, ch), want, atol=1e-15)

    def test_zero_symbols_zero_matrix(self):
        d = build_pciod(2)
        params = protocol_params(d, 2.0, "gnaf1")
        ch = sample_channel(2, make_rng(0, 0))
        y = simulate_trial(d, params, ch, np.zeros(2, complex), mode="compact",
                           noise=zero_noise(params))
        assert np.all(y == 0)

    def test_source_block_power_ratio(self):
        # bottom/top source prefactor ratio is sqrt(pi2/pi1); a silent relay
        # (g = 0) leaves only the source in the bottom row
        d = self.unit_relay_design()
        params = ProtocolParams(p=3.0, pi1=0.5, pi2=2.0, pi3=1.0,
                                t1=1, t2=1, r=1, q=1, variant="gnaf1")
        ch = ChannelRealization(1.0, np.array([1.0 + 0j]), np.array([0j]))
        m = single_model(d, params, ch)
        ratio = abs(m[1, 0]) / abs(m[0, 0])
        assert ratio == pytest.approx(np.sqrt(params.pi2 / params.pi1))

    @pytest.mark.parametrize("variant", ["gnaf1", "gnaf2", "jh", "direct"])
    def test_effective_matrix_matches_stacked_model(self, variant):
        # the receiver model M must satisfy M @ X = the noiseless two-phase
        # reception of the source vector s(X)
        d = None if variant == "direct" else build_pciod(4)
        rng = make_rng(31, 2)
        if variant == "direct":
            params = ProtocolParams(p=3.0, t1=2, t2=1, r=0, q=0, variant=variant)
            ch = ChannelRealization(complex(0.3 - 1.1j), np.zeros(0), np.zeros(0))
            k = 4
            m = effective_matrix(None, params, np.array([ch.g0]),
                                 np.zeros((1, 0), complex), k=k)[0]
        else:
            params = protocol_params(d, 3.0, variant)
            ch = sample_channel(d.r, rng)
            k = d.k
            m = single_model(d, params, ch)
        assert m.shape[0] == params.rows
        for _ in range(10):
            x = rng.standard_normal(k)
            s = x[0::2] + 1j * x[1::2]
            y = simulate_trial(d, params, ch, s, mode="two_phase",
                               noise=zero_noise(params))
            assert np.allclose(m @ x, y, atol=1e-12)

    def test_jh_drops_direct_link(self):
        d = build_pciod(2)
        params = protocol_params(d, 2.0, "jh")
        ch = sample_channel(2, make_rng(1, 0))
        m = single_model(d, params, ch)
        assert m.shape == (2, 4)
        silent = ChannelRealization(0j, ch.f, ch.g)
        assert np.array_equal(single_model(d, params, silent), m)


class TestNoiseCov:
    def test_no_relay_gain_identity(self):
        d = build_pciod(4)
        rs = relay_matrix_set(d)
        params = protocol_params(d, 5.0)
        ch = ChannelRealization(1.0, np.ones(4, complex), np.zeros(4, complex))
        assert np.array_equal(noise_cov(params, ch, rs), np.eye(8))

    @pytest.mark.parametrize("d", [build_pciod(2), build_pciod(4),
                                   build_toeplitz(2, 2), golden_cda()],
                             ids=lambda d: d.family + str(d.r))
    def test_diagonal_for_clro(self, d):
        rs = relay_matrix_set(d)
        params = protocol_params(d, 6.0)
        rng = make_rng(3, 7)
        for _ in range(20):
            ch = sample_channel(d.r, rng)
            omega = noise_cov(params, ch, rs)
            off = omega - np.diag(np.diag(omega))
            assert np.linalg.norm(off) < 1e-12

    def test_lower_block_is_identity_plus_gamma(self):
        # pciod relay matrices have unit row energies on their support
        d = build_pciod(4)
        rs = relay_matrix_set(d)
        params = protocol_params(d, 2.5)
        ch = sample_channel(4, make_rng(6, 1))
        omega = noise_cov(params, ch, rs)
        gamma = relay_noise_cov(params, rs, ch.g)
        assert np.allclose(omega[4:, 4:], np.eye(4) + gamma, atol=1e-12)

    def test_non_clro_dense_path(self):
        # a relay matrix with non-orthogonal rows gives a dense lower block
        m = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        from dstc.designs import RelayMatrixSet
        rs = RelayMatrixSet((m,), (False,), (0,))
        params = ProtocolParams(p=4.0, t1=2, t2=2, r=1, q=1, variant="gnaf2")
        ch = ChannelRealization(1.0, np.ones(1, complex), np.ones(1, complex))
        omega = noise_cov(params, ch, rs)
        assert abs(omega[3, 2]) > 0.1     # lower block starts at row t1
        w = mk.inv_sqrt_pd(omega)
        assert np.allclose(w @ omega @ w, np.eye(4), atol=1e-12)


class TestSimulateTrial:
    def test_noiseless_compact_equals_clean_model(self):
        d = build_pciod(2)
        params = protocol_params(d, 4.0, "gnaf1")
        ch = sample_channel(2, make_rng(2, 5))
        x = np.array([1.0, -1.0, 1.0, 1.0])
        s = d.source_vector(x)
        y = simulate_trial(d, params, ch, s, mode="compact", noise=zero_noise(params))
        assert np.allclose(y, single_model(d, params, ch) @ x, atol=1e-14)

    @pytest.mark.parametrize("variant", ["gnaf1", "gnaf2", "gnaf3", "jh"])
    @pytest.mark.parametrize("maker", [lambda: build_pciod(2),
                                       lambda: build_pciod(4),
                                       lambda: build_toeplitz(2, 2),
                                       golden_cda])
    def test_compact_matches_two_phase(self, variant, maker):
        d = maker()
        params = protocol_params(d, 5.0, variant)
        rng = make_rng(4, 8)
        for _ in range(10):
            ch = sample_channel(d.r, rng)
            x = rng.standard_normal(d.k)
            s = d.source_vector(x)
            noise = draw_noise(params, rng)
            y1 = simulate_trial(d, params, ch, s, mode="compact", noise=noise)
            y2 = simulate_trial(d, params, ch, s, mode="two_phase", noise=noise)
            assert np.max(np.abs(y1 - y2)) < 1e-10

    def test_conjugating_relays_use_conjugated_channel(self):
        # flipping f's imaginary part must not change a conjugating relay's
        # two-phase output in the noiseless case iff the model uses f*
        d = build_pciod(2)
        params = protocol_params(d, 9.0, "jh")
        x = np.array([0.3, -0.7, 1.1, 0.2])
        s = d.source_vector(x)
        f = np.array([1.0 + 0.5j, 0.25 - 1.25j])
        g = np.array([1.0 + 0j, 1.0 + 0j])
        ch = ChannelRealization(0j, f, g)
        y = simulate_trial(d, params, ch, s, mode="two_phase",
                           noise=zero_noise(params))
        # effective gain of the conjugating relay is g*conj(f), not g*f
        h = column_gains(relay_matrix_set(d), f, g)
        assert h[1] == g[1] * np.conj(f[1])
        assert np.allclose(y, single_model(d, params, ch) @ x, atol=1e-12)

    def test_relay_energy_scales_with_pi3(self):
        d = build_pciod(2)
        rng = make_rng(13, 0)
        e = {}
        for pi3 in (1.0, 2.0):
            params = protocol_params(d, 4.0, "jh", pi=(1.0, 1.0, pi3))
            acc = 0.0
            rng2 = make_rng(13, 1)       # same channel/symbol stream for both
            for _ in range(10 ** 4):
                ch = sample_channel(2, rng2)
                x = rng2.standard_normal(4)
                y = simulate_trial(d, params, ch, d.source_vector(x),
                                   mode="compact", noise=zero_noise(params))
                acc += float(np.sum(np.abs(y) ** 2))
            e[pi3] = acc
        assert e[2.0] / e[1.0] == pytest.approx(2.0, rel=1e-12)


class TestWhiten:
    def test_identity(self):
        y = np.array([1.0 + 2j, 3.0])
        assert np.allclose(mk.inv_sqrt_pd(np.eye(2)) @ y, y, atol=1e-14)

    def test_scaled_identity(self):
        y = np.array([2.0 + 2j, 4.0])
        assert np.allclose(mk.inv_sqrt_pd(4.0 * np.eye(2)) @ y, y / 2.0, atol=1e-14)

    def test_whitened_noise_covariance(self):
        d = build_pciod(2)
        rs = relay_matrix_set(d)
        params = protocol_params(d, 8.0)
        ch = sample_channel(2, make_rng(21, 0))
        omega = noise_cov(params, ch, rs)
        w = mk.inv_sqrt_pd(omega)
        rng = make_rng(21, 1)
        n = 10 ** 5
        rows = params.t1 + params.t2
        acc = np.zeros((rows, rows), dtype=complex)
        from dstc.gnaf_sim import _stack_noise
        samples = np.empty((n, rows), dtype=complex)
        for i in range(n):
            noise = draw_noise(params, rng)
            samples[i] = w @ _stack_noise(params, ch, rs, noise)
        cov = (samples.conj().T @ samples) / n
        assert np.max(np.abs(cov - np.eye(rows))) < 3.0 / np.sqrt(n) * 2.0


class TestMonteCarlo:
    def config(self, trials=4000, receiver="grouped-ml", workers=None):
        d = build_pciod(2)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        return SimConfig(design=d, codebook=book, receiver=receiver,
                         snr_db=(0.0, 10.0, 20.0, 30.0), trials=trials,
                         seed=7, variant="gnaf2", batch_size=1000,
                         workers=workers)

    def test_zero_trials_empty(self):
        res = run_monte_carlo(self.config(trials=0))
        assert res == []

    def test_same_seed_identical_bytes(self):
        a = results_to_csv(run_monte_carlo(self.config()))
        b = results_to_csv(run_monte_carlo(self.config()))
        assert a == b

    def test_ser_decreasing_within_ci(self):
        res = run_monte_carlo(self.config(trials=20000))
        for lo, hi in zip(res[:-1], res[1:]):
            assert hi.ser <= lo.ser or hi.ci95[0] <= lo.ci95[1]

    def test_wilson_interval(self):
        for errors, trials in ((0, 1000), (3, 1000), (1000, 1000)):
            r = SimResult(30.0, trials, errors, "zf", 0, "x")
            lo, hi = r.ci95
            assert 0.0 <= lo <= r.ser <= hi <= 1.0
            assert hi > 0.0
        lo, hi = SimResult(30.0, 1000, 0, "zf", 0, "x").ci95
        z2 = 1.96 ** 2
        assert lo == 0.0 and hi == pytest.approx(z2 / (1000 + z2), rel=1e-12)

    def test_coupled_draws_fall_back_to_joint(self, monkeypatch):
        # every draw reported coupled: grouped-ml must decide as joint-ml
        joint = run_monte_carlo(self.config(receiver="joint-ml"))
        monkeypatch.setattr("dstc.gnaf_sim.gram_crossterm",
                            lambda gram, groups: np.full(gram.shape[0], np.inf))
        grouped = run_monte_carlo(self.config())
        assert [r.errors for r in grouped] == [r.errors for r in joint]
        assert all(r.fallbacks == 4000 for r in grouped)
        rows = results_to_csv(grouped).splitlines()[1:]
        assert all(row.endswith(",4000,0") for row in rows)

    def test_zf_erasures_counted(self):
        # jh observes 2 complex rows of an 8-real-symbol golden code: the
        # model is rank deficient on every draw, so ZF erases every trial
        cfg = SimConfig(design=golden_cda(), codebook=qam_codebook(4, 4),
                        receiver="zf", snr_db=(0.0, 20.0), trials=50, seed=3,
                        variant="jh")
        res = run_monte_carlo(cfg)
        assert [(r.erasures, r.errors) for r in res] == [(50, 200), (50, 200)]
        rows = results_to_csv(res).splitlines()[1:]
        assert all(row.endswith(",0,50") for row in rows)

    def test_refuses_non_orthogonal_relay_rows(self):
        # one plain relay with matrix [[1, 0], [1, 1]]: conjugate-linear, but
        # its rows are not orthogonal, so the noise covariance is not diagonal
        m = np.array([[1.0, 0.0], [1.0, 1.0]])
        w = np.zeros((4, 2, 1), complex)
        w[0::2, :, 0], w[1::2, :, 0] = m.T, 1j * m.T
        cfg = SimConfig(design=Design("custom", 2, 1, 4, w),
                        codebook=qam_codebook(2, 4), receiver="joint-ml",
                        snr_db=(0.0, 10.0), trials=4000, seed=3)
        with pytest.raises(ValueError,
                           match=r"clro \(witness 0, margin 1\.000e\+00\)"):
            run_monte_carlo(cfg)

    def test_refuses_odd_k(self):
        # K=3 real symbols have no complex pairing; the relay matrix read
        # off the weights is 1x2 although t1 = K // 2 = 1
        d = Design("custom", 1, 1, 3, np.array([1.0, 1j, 1.0]).reshape(3, 1, 1))
        assert relay_matrix_set(d).matrices[0].shape == (1, 2)
        cfg = SimConfig(design=d, codebook=pam_codebook(((0,), (1,), (2,)), 2),
                        receiver="joint-ml", snr_db=(0.0,), trials=10, seed=3)
        with pytest.raises(ValueError, match="odd K=3"):
            run_monte_carlo(cfg)

    def test_worker_count_invariance(self):
        a = results_to_csv(run_monte_carlo(self.config(workers=1)))
        b = results_to_csv(run_monte_carlo(self.config(workers=2)))
        assert a == b

    def test_grouped_needs_partition(self):
        d = build_toeplitz(2, 2)
        from dstc.receivers import qam_codebook
        book = qam_codebook(2, 4)
        cfg = SimConfig(design=d, codebook=book, receiver="grouped-ml",
                        snr_db=(0.0,), trials=10, seed=1)
        with pytest.raises(ValueError, match="partition"):
            run_monte_carlo(cfg)

    def test_unknown_receiver(self):
        cfg = self.config()
        with pytest.raises(ValueError, match="receiver"):
            run_monte_carlo(SimConfig(**{**cfg.__dict__, "receiver": "magic"}))

    @pytest.mark.parametrize("snr_db", [(), (float("inf"),), (0.0, float("nan")),
                                        (-float("inf"),), (1e308,), (-5000.0,)])
    def test_unrunnable_snr_grid_refused(self, snr_db):
        cfg = self.config()
        with pytest.raises(ValueError, match="SNR"):
            SimConfig(**{**cfg.__dict__, "snr_db": snr_db})

    def test_env_var_caps_workers(self, monkeypatch):
        cfg = self.config(workers=8)
        monkeypatch.setenv("DSTC_MAX_WORKERS", "2")
        assert cfg.resolved_workers() == 2
        monkeypatch.delenv("DSTC_MAX_WORKERS")
        assert cfg.resolved_workers() == 8


# Per-point (symbol errors, erasures, fallbacks) of a small sweep, 512
# trials at 4 and 10 dB in batches of 200, for each receiver on each variant
# it runs: Toeplitz 2x2 QAM4 on the relay variants, QAM4 pairs on direct,
# pciod4 with its 2-D lattice for grouped ML. Recorded when ZF and MMSE
# still solved by LAPACK; a change to the batch, model or detector
# arithmetic that moves a decision fails here.
_PINNED = {
    ("gnaf1", "zf"): [(28, 0, 0), (5, 0, 0)],
    ("gnaf1", "mmse"): [(30, 0, 0), (4, 0, 0)],
    ("gnaf1", "joint-ml"): [(26, 0, 0), (3, 0, 0)],
    ("gnaf2", "zf"): [(37, 0, 0), (3, 0, 0)],
    ("gnaf2", "mmse"): [(37, 0, 0), (4, 0, 0)],
    ("gnaf2", "joint-ml"): [(36, 0, 0), (3, 0, 0)],
    ("gnaf3", "zf"): [(37, 0, 0), (3, 0, 0)],
    ("gnaf3", "mmse"): [(37, 0, 0), (4, 0, 0)],
    ("gnaf3", "joint-ml"): [(36, 0, 0), (3, 0, 0)],
    ("jh", "zf"): [(201, 0, 0), (45, 0, 0)],
    ("jh", "mmse"): [(191, 0, 0), (41, 0, 0)],
    ("jh", "joint-ml"): [(189, 0, 0), (41, 0, 0)],
    ("direct", "zf"): [(144, 0, 0), (41, 0, 0)],
    ("gnaf2", "grouped-ml"): [(90, 0, 0), (3, 0, 0)],
}


@pytest.mark.parametrize("variant,receiver", list(_PINNED))
def test_pinned_decision_counts(variant, receiver):
    if variant == "direct":
        d, book = None, qam_codebook(2, 4)
    elif receiver == "grouped-ml":
        d = build_pciod(4)
        book = lattice_codebook(d.partition, default_lattice(2, 2))
    else:
        d = build_toeplitz(2, 2)
        book = qam_codebook(d.n_complex, 4)
    res = run_monte_carlo(SimConfig(design=d, codebook=book, receiver=receiver,
                                    snr_db=(4.0, 10.0), trials=512, seed=15,
                                    variant=variant, batch_size=200))
    assert [(r.errors, r.erasures, r.fallbacks) for r in res] == _PINNED[variant, receiver]


_BLOCK_CASES = [(v, r) for v in gnaf_sim.VARIANTS for r in gnaf_sim._RECEIVERS
                if (v, r) != ("direct", "grouped-ml")]


class TestBlocks:
    """A batch decided in blocks of draws equals the batch decided whole."""

    @pytest.mark.parametrize("variant,receiver", _BLOCK_CASES)
    def test_blocks_of_seven_draws_equal_one_block(self, variant, receiver,
                                                   monkeypatch):
        if variant == "direct":
            d, rs, book = None, None, qam_codebook(2, 4)
        else:
            d = build_pciod(2)
            rs = relay_matrix_set(d)
            book = lattice_codebook(d.partition, default_lattice(1, 2))
        cfg = SimConfig(design=d, codebook=book, receiver=receiver,
                        snr_db=(4.0,), trials=100, seed=21, variant=variant)
        if receiver == "grouped-ml":
            # couple about half the draws by a per-draw rule, so that blocks
            # mix grouped decisions with joint-ML fallbacks
            monkeypatch.setattr(gnaf_sim, "gram_crossterm", lambda gram, groups: np.where(
                np.floor(gram[:, 0, 0] * 64) % 2 == 1, np.inf, 0.0))
        blocks, detect = [], gnaf_sim._detect

        def recording(*args):
            out = detect(*args)
            blocks.append(out[0])
            return out

        monkeypatch.setattr(gnaf_sim, "_detect", recording)
        per_draw = 16 * gnaf_sim._params_for(cfg, 1.0, rs).rows * book.k
        runs = {}
        for draws in (100, 7):
            monkeypatch.setattr(gnaf_sim, "_BLOCK_BYTES", draws * per_draw)
            blocks.clear()
            counts = gnaf_sim._run_batch(cfg, rs, 0, 3, 100)
            runs[draws] = counts, np.concatenate(blocks), [len(b) for b in blocks]
        (whole, dec, sizes), (blocked, blocked_dec, blocked_sizes) = runs[100], runs[7]
        assert sizes == [100] and sorted(set(blocked_sizes)) == [6, 7]
        assert blocked == whole and np.array_equal(blocked_dec, dec)
        assert whole[0] > 0
        if receiver == "grouped-ml":
            assert 0 < whole[2] < 100


class TestBatchMemory:
    """Peak traced memory of one batch, past the set-up a first batch does."""

    @staticmethod
    def peak(cfg, n):
        rs = relay_matrix_set(cfg.design)
        gnaf_sim._run_batch(cfg, rs, 0, 0, 2)
        tracemalloc.start()
        try:
            gnaf_sim._run_batch(cfg, rs, 0, 0, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def pciod4(constellation, points):
        sim, _ = cli._sim_config({
            "design": {"family": "pciod", "relays": 4}, "variant": "gnaf2",
            "snr_db": "0:5:30", "receiver": "joint-ml", "seed": 1,
            "constellation": {"type": constellation, "points": points}})
        return sim

    def test_joint_ml_peak_grows_only_by_the_draws(self):
        # the benchmark's sweep-joint config: what a batch keeps per draw
        # (channels, symbols, noise, decisions) is under 1 KiB; with a
        # whole-batch model, statistics and scores it grew by 4.7 KiB a draw
        cfg = self.pciod4("lattice", 2)
        small, large = self.peak(cfg, 4096), self.peak(cfg, 16384)
        assert large - small < (16384 - 4096) * 1024

    def test_large_codebook_joint_ml_is_bounded(self):
        # 25^4 = 390,625 codewords: a table of every candidate's
        # [vec(x x^T), -2 x] alone would take 390,625 * 72 * 8 bytes = 225 MB
        cfg = self.pciod4("pam", 5)
        assert cfg.codebook.size == 390625
        assert self.peak(cfg, 4) < 16 * 2 ** 20


class TestSweepTaskLoop:
    """One pool per sweep, no larger than the cores or the tasks, fed once."""

    def config(self, workers=None, trials=2500, snr_db=(0.0, 10.0, 20.0)):
        return SimConfig(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
                         receiver="zf", snr_db=snr_db, trials=trials, seed=11,
                         batch_size=1000, workers=workers)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Record (start method, size) of every Pool started through
        multiprocessing.get_context, and every forkserver preload list."""
        get_context = multiprocessing.get_context
        pools = SimpleNamespace(starts=[], preloads=[])

        class Counting:
            def __init__(self, method=None):
                self._method, self._ctx = method, get_context(method)

            def Pool(self, processes=None, *args, **kwargs):
                pools.starts.append((self._method, processes))
                return self._ctx.Pool(processes, *args, **kwargs)

            def set_forkserver_preload(self, modules):
                pools.preloads.append(list(modules))
                self._ctx.set_forkserver_preload(modules)

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        monkeypatch.setattr(multiprocessing, "get_context", Counting)
        return pools

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="a pool needs at least two usable cores")
    def test_one_pool_per_sweep(self, pools):
        res = run_monte_carlo(self.config(workers=8))   # 3 points x 3 batches
        assert len(res) == 3
        assert len(pools.starts) == 1
        # the caller is one of the workers; the pool holds only the helpers
        assert 1 <= pools.starts[0][1] <= min(len(os.sched_getaffinity(0)), 9) - 1

    def test_pool_capped_by_tasks(self, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        run_monte_carlo(self.config(workers=8, trials=1000, snr_db=(0.0, 10.0)))
        # 2 points x 1 batch: caller + 1 helper
        assert [size for _, size in pools.starts] == [1]

    def test_helpers_fork_from_numpy_forkserver(self, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        run_monte_carlo(self.config(workers=2))
        assert pools.starts == [("forkserver", 1)]
        # numpy only: a dstc preload would not see the caller's sys.path
        assert pools.preloads == [["numpy"]]

    def test_serial_builds_relay_set_once(self, monkeypatch):
        # the clro check builds the set the batches run on; nothing rebuilds it
        calls = []

        def counted(d):
            calls.append(d)
            return relay_matrix_set(d)

        for module in (gnaf_sim, verifier):
            monkeypatch.setattr(module, "relay_matrix_set", counted)
        run_monte_carlo(self.config())
        assert len(calls) == 1

    def test_pooled_equals_serial_partial_batch(self):
        pooled = run_monte_carlo(self.config(workers=2))
        serial = run_monte_carlo(self.config())
        assert results_to_csv(pooled) == results_to_csv(serial)
        assert all(r.trials == 2500 * 2 for r in serial)   # 2 groups per trial


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a pool needs at least two usable cores")
class TestPoolLifecycle:
    """The caller works in its own pool, and no helper outlives the sweep."""

    def config(self, trials, batch_size, snr_db=(0.0, 10.0, 20.0), **kw):
        fields = dict(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
                      receiver="zf", snr_db=snr_db, trials=trials, seed=11,
                      batch_size=batch_size, workers=2)
        return SimConfig(**{**fields, **kw})

    def test_caller_and_helper_share_tasks(self, monkeypatch):
        cfg = self.config(trials=100, batch_size=10)        # 3 points x 10 batches
        serial = results_to_csv(run_monte_carlo(SimConfig(**{**cfg.__dict__,
                                                            "workers": None})))
        run_batch = gnaf_sim._run_batch
        calls = []

        def slow(*args):
            # only the caller is patched: helpers, forked from a server that
            # holds numpy but not dstc, import dstc afresh
            calls.append(args)
            time.sleep(0.1)
            return run_batch(*args)

        monkeypatch.setattr(gnaf_sim, "_run_batch", slow)
        assert results_to_csv(run_monte_carlo(cfg)) == serial
        assert 0 < len(calls) < 30

    def test_tiny_sweep_leaves_no_child(self):
        cfg = self.config(trials=10, batch_size=10, snr_db=(0.0, 10.0))
        pooled = results_to_csv(run_monte_carlo(cfg))
        assert multiprocessing.active_children() == []
        serial = run_monte_carlo(SimConfig(**{**cfg.__dict__, "workers": None}))
        assert pooled == results_to_csv(serial)

    def test_back_to_back_sweeps_reuse_the_server(self):
        # the second sweep forks its helper from the server the first started
        cfg = self.config(trials=100, batch_size=10)
        serial = results_to_csv(run_monte_carlo(SimConfig(**{**cfg.__dict__,
                                                            "workers": None})))
        servers = []
        for _ in range(2):
            assert results_to_csv(run_monte_carlo(cfg)) == serial
            assert multiprocessing.active_children() == []
            servers.append(forkserver._forkserver._forkserver_pid)
        assert servers[0] is not None
        assert servers[0] == servers[1]

    def test_caller_works_while_the_pool_starts(self, monkeypatch):
        # Pool() returns only once the server has forked every helper; the
        # caller runs its batches meanwhile, so a pool slow to start leaves
        # every task to the caller, and the sweep still stops its helpers
        cfg = self.config(trials=100, batch_size=10)        # 3 points x 10 batches
        serial = results_to_csv(run_monte_carlo(SimConfig(**{**cfg.__dict__,
                                                            "workers": None})))
        get_context, run_batch = multiprocessing.get_context, gnaf_sim._run_batch
        started, ran = [], []

        class SlowStart:
            def __init__(self, method=None):
                self._ctx = get_context(method)

            def Pool(self, *args, **kwargs):
                time.sleep(0.5)
                started.append(time.perf_counter())
                return self._ctx.Pool(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        def timed(*args):
            ran.append(time.perf_counter())
            return run_batch(*args)

        monkeypatch.setattr(multiprocessing, "get_context", SlowStart)
        monkeypatch.setattr(gnaf_sim, "_run_batch", timed)
        assert results_to_csv(run_monte_carlo(cfg)) == serial
        assert len(ran) == 30
        assert max(ran) < started[0]
        assert multiprocessing.active_children() == []

    def test_pooled_sweep_with_src_on_sys_path_only(self, tmp_path):
        # bench/run.py puts src on sys.path, not on PYTHONPATH; the forkserver
        # does not see that path, so the helpers must get it from the caller.
        # The caller's batches are slowed, so the helper has to run some.
        src = str(Path(gnaf_sim.__file__).resolve().parents[1])
        env = dict(os.environ)
        path = [e for e in env.pop("PYTHONPATH", "").split(os.pathsep)
                if e and Path(e).resolve() != Path(src)]
        if path:
            env["PYTHONPATH"] = os.pathsep.join(path)
        script = f"""
import sys, time
sys.path.insert(0, {src!r})
import multiprocessing
from dstc import gnaf_sim
from dstc.designs import build_toeplitz
from dstc.gnaf_sim import SimConfig, results_to_csv, run_monte_carlo
from dstc.receivers import qam_codebook

assert gnaf_sim.__file__.startswith({src!r}), gnaf_sim.__file__
cfg = dict(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
           receiver="zf", snr_db=(0.0, 10.0, 20.0), trials=100, seed=11,
           batch_size=10)
serial = results_to_csv(run_monte_carlo(SimConfig(**cfg)))
run_batch, calls = gnaf_sim._run_batch, []

def slow(*args):
    calls.append(args)
    time.sleep(0.1)
    return run_batch(*args)

gnaf_sim._run_batch = slow
assert results_to_csv(run_monte_carlo(SimConfig(**cfg, workers=2))) == serial
assert 0 < len(calls) < 30, len(calls)
assert multiprocessing.active_children() == []
print("ok")
"""
        out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_failed_pool_start_is_raised(self, monkeypatch):
        # the pool starts on a thread; its error reaches the caller
        get_context = multiprocessing.get_context

        class NoPool:
            def __init__(self, method=None):
                self._ctx = get_context(method)

            def Pool(self, *args, **kwargs):
                raise OSError("no pool")

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        monkeypatch.setattr(multiprocessing, "get_context", NoPool)
        with pytest.raises(OSError, match="no pool"):
            run_monte_carlo(self.config(trials=100, batch_size=10))
        assert multiprocessing.active_children() == []

    def test_failing_batches_leave_no_child(self):
        cfg = self.config(trials=10, batch_size=10, design=build_pciod(4),
                          codebook=qam_codebook(4, 64), receiver="joint-ml")
        with pytest.raises(ResourceGuardError):
            run_monte_carlo(cfg)
        assert multiprocessing.active_children() == []
