import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from multiprocessing import forkserver
from multiprocessing.context import ForkServerProcess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dstc import cli, gnaf_sim, receivers, verifier
from dstc import matkernel as mk
from dstc.designs import (Design, build_pciod, build_toeplitz, direct_design,
                          golden_cda, relay_matrix_set)
from dstc.gnaf_sim import (ChannelRealization, NoiseDraw, ProtocolParams,
                           SimConfig, SimResult, column_gains, draw_noise,
                           effective_matrix, make_rng, noise_cov,
                           protocol_params, relay_noise_cov, results_to_csv,
                           run_monte_carlo, sample_channel, simulate_trial,
                           snr_power)
from dstc.precoding import default_lattice
from dstc.receivers import (ResourceGuardError, lattice_codebook, pam_codebook,
                            qam_codebook)

from _oracles import sufficient_stats


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
    # drawn into a reused array, stale entries and all
    out = np.full(shape + (2,), np.nan)
    into = gnaf_sim.crandn(make_rng(17, len(shape)), *shape, out=out)
    assert np.shares_memory(into, out) and into.tobytes() == want.tobytes()


class TestBuildEffective:
    """Hand-computed entries of the compact model M (effective_matrix)."""

    def unit_relay_design(self):
        # single relay forwarding the received symbol unchanged
        w = np.zeros((2, 1, 1), dtype=complex)
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = 1j
        return Design("custom", w, ((0, 1),))

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
        d = direct_design(2) if variant == "direct" else build_pciod(4)
        rng = make_rng(31, 2)
        params = protocol_params(d, 3.0, variant)
        ch = sample_channel(d.r, rng)
        m = single_model(d, params, ch)
        assert m.shape == (params.rows, d.k)
        for _ in range(10):
            x = rng.standard_normal(d.k)
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

    def test_relay_free_design_identity(self):
        # no cooperation rows: the identity of the broadcast phase, with no
        # relay block added over the whole matrix
        d = direct_design(3)
        params = protocol_params(d, 5.0, "direct")
        ch = sample_channel(0, make_rng(2, 0))
        assert params.rows == 3
        assert np.array_equal(noise_cov(params, ch, relay_matrix_set(d)), np.eye(3))

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

    def test_relay_free_design_receives_the_broadcast_phase(self):
        d = direct_design(2)
        params = protocol_params(d, 5.0, "direct")
        rng = make_rng(4, 9)
        ch = sample_channel(0, rng)
        s = d.source_vector(rng.standard_normal(d.k))
        noise = draw_noise(params, rng)
        y1 = simulate_trial(d, params, ch, s, mode="compact", noise=noise)
        y2 = simulate_trial(d, params, ch, s, mode="two_phase", noise=noise)
        assert y1.shape == y2.shape == (2,)
        assert np.max(np.abs(y1 - y2)) < 1e-12
        assert np.allclose(y2, np.sqrt(5.0) * ch.g0 * s + noise.w1, atol=1e-14)

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
        silent = np.zeros(params.t1, dtype=complex)
        samples = np.empty((n, rows), dtype=complex)
        for i in range(n):
            # the protocol's output at silent symbols is its noise alone
            samples[i] = w @ simulate_trial(d, params, ch, silent, "two_phase",
                                            noise=draw_noise(params, rng), rs=rs)
        cov = (samples.conj().T @ samples) / n
        assert np.max(np.abs(cov - np.eye(rows))) < 3.0 / np.sqrt(n) * 2.0


_STATS_DESIGNS = {"pciod2": lambda: build_pciod(2), "pciod4": lambda: build_pciod(4),
                  "toeplitz": lambda: build_toeplitz(2, 2), "cda": golden_cda}
_STATS_CASES = ([("pciod2", v) for v in gnaf_sim.VARIANTS]
                + [("pciod4", "gnaf2"), ("toeplitz", "gnaf1"), ("toeplitz", "jh"),
                   ("cda", "gnaf1"), ("cda", "gnaf3")])


class TestWhitenedStats:
    """The Monte Carlo's (z, G), formed from the gains without a model
    (_whitened_stats), against the physical protocol whitened exactly."""

    @pytest.mark.parametrize("pi", [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7)])
    @pytest.mark.parametrize("family,variant", _STATS_CASES)
    def test_matches_whitened_two_phase_protocol(self, family, variant, pi):
        # golden CDA under gnaf1 has T2 = 2 < K/2 = 4: A0 pairs two rows only
        d = direct_design(2) if variant == "direct" else _STATS_DESIGNS[family]()
        rs = relay_matrix_set(d)
        params = protocol_params(d, 5.0, variant, pi, rs=rs)
        rng = make_rng(41, 7)
        n = 6
        g0, f, g = (gnaf_sim.crandn(rng, n), gnaf_sim.crandn(rng, n, d.r),
                    gnaf_sim.crandn(rng, n, d.r))
        x = rng.standard_normal((n, d.k))
        noise = gnaf_sim.crandn(rng, n, params.rows)

        models = []
        for b in range(n):
            ch = ChannelRealization(complex(g0[b]), f[b], g[b])
            # column k of the model: the noiseless reception of unit symbol k
            basis = np.stack([simulate_trial(d, params, ch, e[0::2] + 1j * e[1::2],
                                             mode="two_phase", noise=zero_noise(params),
                                             rs=rs)
                              for e in np.eye(d.k)], axis=1)
            models.append(mk.inv_sqrt_pd(noise_cov(params, ch, rs)) @ basis)
        m = np.stack(models)
        want_z, want_g = sufficient_stats(np.einsum("brk,bk->br", m, x) + noise, m)

        z, gram = gnaf_sim._whitened_stats(
            params, x, noise, g0, gnaf_sim._relay_table(d, params),
            gnaf_sim._relay_gains(params, g0, column_gains(rs, f, g)),
            gnaf_sim.omega_diagonals(params, rs, g)[:, params.rows - params.t2:])
        assert z.shape == (n, d.k) and gram.shape == (n, d.k, d.k)
        assert np.max(np.abs(z - want_z)) <= 1e-12 * np.max(np.abs(want_z))
        assert np.max(np.abs(gram - want_g)) <= 1e-12 * np.max(np.abs(want_g))


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
        cfg = SimConfig(design=Design("custom", w),
                        codebook=qam_codebook(2, 4), receiver="joint-ml",
                        snr_db=(0.0, 10.0), trials=4000, seed=3)
        with pytest.raises(ValueError,
                           match=r"clro \(witness 0, margin 1\.000e\+00\)"):
            run_monte_carlo(cfg)

    def test_refuses_odd_k(self):
        # K=3 real symbols have no complex pairing; the relay matrix read
        # off the weights is 1x2 although t1 = K // 2 = 1
        d = Design("custom", np.array([1.0, 1j, 1.0]).reshape(3, 1, 1))
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

    def test_unknown_variant(self):
        cfg = self.config()
        with pytest.raises(ValueError, match="unknown variant 'gnaf9'"):
            SimConfig(**{**cfg.__dict__, "variant": "gnaf9"})

    @pytest.mark.parametrize("pi", [
        (1.0, 1.0), (1.0, 1.0, 1.0, 5.0), (float("inf"), 1.0, 1.0),
        (1.0, 1.0, float("inf")), (0.0, 1.0, 1.0), (1.0, float("nan"), 1.0),
        (1.0, -1.0, 1.0), (True, 1.0, 1.0), ("1", 1.0, 1.0), 1.0,
    ])
    def test_power_fractions_refused(self, pi):
        cfg = self.config()
        with pytest.raises(ValueError, match="pi must be three finite positive"):
            SimConfig(**{**cfg.__dict__, "pi": pi})

    def test_power_fractions_stored_as_floats(self):
        cfg = SimConfig(**{**self.config().__dict__, "pi": [1, 2, np.float64(0.5)]})
        assert cfg.pi == (1.0, 2.0, 0.5)
        assert all(type(v) is float for v in cfg.pi)

    @pytest.mark.parametrize("p, pi3", [(float("inf"), 1.0), (float("nan"), 1.0),
                                        (10.0, float("inf")), (10.0, 0.0)])
    def test_protocol_powers_finite_and_positive(self, p, pi3):
        with pytest.raises(ValueError, match="powers must be finite and positive"):
            ProtocolParams(p=p, pi3=pi3)

    def test_codebook_size_must_match_design(self):
        # 2 complex QAM symbols are K = 4 real ones; pciod4 carries K = 8
        with pytest.raises(ValueError, match=r"codebook has K=4 real symbols, "
                                             r"but design 'pciod' has K=8"):
            SimConfig(design=build_pciod(4), codebook=qam_codebook(2, 4),
                      receiver="joint-ml", snr_db=(0.0,), trials=10, seed=1)

    def test_front_factor_finite_at_any_finite_power(self):
        # P^2 overflows float64 past about 1540 dB; the front factor, about
        # sqrt(pi3 P) at high SNR, does not
        params = ProtocolParams(p=gnaf_sim.snr_power(1600.0), pi3=4.0)
        assert params.scale == pytest.approx(2e80, rel=1e-12)
        low = ProtocolParams(p=10.0, pi1=0.5, pi3=1.5)
        assert low.scale == pytest.approx(np.sqrt(1.5 * 0.5 * 100.0 / 6.0), rel=1e-15)

    @pytest.mark.parametrize("receiver", gnaf_sim._RECEIVERS)
    def test_1600_db_point_simulates(self, receiver):
        # a point the grid parser accepts runs without an overflow (the
        # suite makes RuntimeWarning an error) and decides every draw right
        d = build_pciod(4)
        cfg = SimConfig(design=d, receiver=receiver, snr_db=(1600.0, 3000.0),
                        codebook=lattice_codebook(d.partition, default_lattice(2, 2)),
                        trials=300, seed=5, variant="gnaf1", batch_size=100)
        res = run_monte_carlo(cfg)
        assert [(r.errors, r.fallbacks, r.erasures) for r in res] == [(0, 0, 0)] * 2
        assert all(r.trials == 1200 for r in res)


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
        d, book = direct_design(2), qam_codebook(2, 4)
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


def _block_case(name):
    """A SimConfig whose batches span several blocks, and a short last batch.

    pciod4's blocks hold 512 draws, Toeplitz 2x2's 1638 and golden CDA's
    682; each batch is three blocks, and each point runs two full batches
    and a last one of one block.
    """
    if name in ("grouped-ml", "joint-ml"):
        d = build_pciod(4)
        fields = dict(codebook=lattice_codebook(d.partition, default_lattice(2, 2)),
                      variant="gnaf2", batch_size=1536, trials=3500)
    elif name == "zf":
        d = build_toeplitz(2, 2)
        fields = dict(codebook=qam_codebook(2, 4), variant="gnaf2",
                      batch_size=4000, trials=9000)
    else:
        d = golden_cda()
        fields = dict(codebook=qam_codebook(4, 4), variant="gnaf1",
                      batch_size=1536, trials=3500)
    return SimConfig(design=d, receiver=name, snr_db=(4.0, 10.0), seed=27, **fields)


# Per-point (symbol errors, erasures, fallbacks) of _block_case, recorded
# before the batches shared a workspace
_PINNED_BLOCKS = {
    "grouped-ml": [(545, 0, 0), (19, 0, 0)],
    "joint-ml": [(545, 0, 0), (19, 0, 0)],
    "zf": [(804, 0, 0), (52, 0, 0)],
    "mmse": [(1228, 0, 0), (243, 0, 0)],
}


@pytest.mark.parametrize("receiver", list(_PINNED_BLOCKS))
def test_pinned_counts_across_blocks_and_batches(receiver):
    cfg = _block_case(receiver)
    rs = relay_matrix_set(cfg.design)
    per_block = gnaf_sim._BLOCK_BYTES // (
        16 * protocol_params(cfg.design, 1.0, cfg.variant, rs=rs).rows * cfg.design.k)
    assert -(-cfg.batch_size // per_block) == 3
    assert 0 < cfg.trials % cfg.batch_size <= per_block
    res = run_monte_carlo(cfg)
    assert [(r.errors, r.erasures, r.fallbacks) for r in res] == _PINNED_BLOCKS[receiver]


def test_one_workspace_serves_configs_of_every_shape():
    # a worker's workspace carries stale arrays of other shapes and
    # dtypes from config to config; every batch must still decide as it
    # would in a fresh workspace
    cases = [_block_case("grouped-ml"), _block_case("zf"), _block_case("grouped-ml"),
             _block_case("mmse"), replace(_block_case("joint-ml"), variant="jh")]
    ws = mk.Workspace()
    for cfg in cases:
        rs = relay_matrix_set(cfg.design)
        for task in ((0, 0, cfg.batch_size), (1, 2, 428), (1, 1, cfg.batch_size)):
            assert gnaf_sim._run_batch(cfg, rs, *task, ws) == \
                gnaf_sim._run_batch(cfg, rs, *task, mk.Workspace())


@pytest.mark.skipif(sys.platform != "linux", reason="minor faults as Linux counts them")
def test_later_batches_fault_in_no_memory():
    # The batches of a serial sweep share one workspace, so only the first
    # faults its arrays in. Before, each batch freed and re-faulted about
    # 700 pages of pciod4 arrays, and glibc trimmed the heap after it.
    # Minor faults do not depend on the machine's load, but they do on the
    # heap a process has built up, so the sweeps run in a fresh one.
    src = str(Path(gnaf_sim.__file__).resolve().parents[1])
    script = f"""
import resource, sys
sys.path.insert(0, {src!r})
from dataclasses import replace
from dstc.designs import build_pciod
from dstc.gnaf_sim import SimConfig, run_monte_carlo
from dstc.precoding import default_lattice
from dstc.receivers import lattice_codebook

d = build_pciod(4)
cfg = SimConfig(design=d, codebook=lattice_codebook(d.partition, default_lattice(2, 2)),
                receiver="grouped-ml", snr_db=(10.0,), trials=4096, seed=3)

def faults(batches):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_monte_carlo(replace(cfg, trials=4096 * batches))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(1), faults(8)                        # warm-up, one sweep of each size
print(faults(1), faults(8))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    one, eight = map(int, out.stdout.split())
    assert eight - one <= 7 * 32, (one, eight)


def test_grouped_ml_on_direct_decides_as_joint_ml():
    # the relay-free design's G is |a|^2 I, so its complex symbols decouple
    # and per-group ML is exact on every draw
    d = direct_design(2)
    res = {rx: run_monte_carlo(SimConfig(
        design=d, codebook=qam_codebook(2, 16), receiver=rx,
        snr_db=(0.0, 10.0, 20.0), trials=2000, seed=9, variant="direct"))
        for rx in ("grouped-ml", "joint-ml")}
    assert [(r.errors, r.fallbacks) for r in res["grouped-ml"]] == [
        (r.errors, 0) for r in res["joint-ml"]]
    assert all(r.errors > 0 for r in res["joint-ml"])


def _qam_rayleigh_ser(side: int, gamma: float) -> float:
    """Exact average SER of square QAM, ``side`` PAM levels per coordinate
    at unit energy per coordinate, on one Rayleigh-faded complex symbol at
    mean SNR ``gamma``. Each coordinate errs with 2 q Q(sqrt(2 g |h|^2)),
    g = 3 gamma / (side^2 - 1) and q = 1 - 1/side; the symbol errs with
    twice that less its square, averaged over the fade in Craig's form
    (Simon and Alouini, Digital Communication over Fading Channels, ch. 8),
    with mu = sqrt(g / (1 + g)). With side = 2 this is 4-QAM's 2Q - Q^2."""
    g = 3.0 * gamma / (side * side - 1)
    mu = math.sqrt(g / (1.0 + g))
    q = 1.0 - 1.0 / side
    return 2.0 * q * (1.0 - mu) - q * q * (1.0 - 4.0 / math.pi * mu * math.atan(1.0 / mu))


@pytest.mark.parametrize("pi", [(1.0, 1.0, 1.0), (0.5, 1.0, 1.0)])
@pytest.mark.parametrize("side,receivers", [(2, ("zf", "mmse", "joint-ml")),
                                            (4, ("zf", "joint-ml"))],
                         ids=["qam4", "qam16"])
def test_direct_ser_is_its_closed_form(side, receivers, pi):
    # Direct transmission with t1 = 1 sends one QAM symbol per trial as
    # a = sqrt(pi1 P) g0 times the symbol plus unit complex noise, so each
    # trial is one decision and the error count is binomial with the
    # closed-form SER at gamma = pi1 P. ZF and joint ML decide alike
    # there (G = |a|^2 I, so ML slices each coordinate of the ZF estimate),
    # and so does MMSE on 4-QAM, which decides by quadrant; MMSE scales
    # the estimate by a positive number, which biases it on 16-QAM, so it
    # is left out there. The draws do not depend on the receiver, so the
    # counts must be equal and the gate runs once per point. Each point is
    # the sum of 49 batches, so this also checks that sum against theory.
    # Exact binomial tails put P(|z| > 4) at 6.3e-5 to 1.0e-4 per point, so
    # the 16 points of the four parametrizations falsely fail with
    # probability below 1.1e-3. The seed was fixed before any run.
    counts = {rx: [(r.snr_db, r.trials, r.errors) for r in run_monte_carlo(SimConfig(
        design=direct_design(1), codebook=qam_codebook(1, side * side), variant="direct",
        pi=pi, snr_db=(0.0, 10.0, 20.0, 30.0), trials=200_000, receiver=rx, seed=2026))]
        for rx in receivers}
    assert all(c == counts["zf"] for c in counts.values())
    for snr_db, n, errors in counts["zf"]:
        p = _qam_rayleigh_ser(side, pi[0] * snr_power(snr_db))
        z = (errors - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) <= 4.0, (snr_db, errors, n * p, z)


_BLOCK_CASES = [(v, r) for v in gnaf_sim.VARIANTS for r in gnaf_sim._RECEIVERS]


def _half_coupled(gram, groups):
    """A gram_crossterm stand-in that reports about half the draws coupled,
    by a per-draw rule, so that blocks mix grouped decisions with joint-ML
    fallbacks."""
    return np.where(np.floor(gram[:, 0, 0] * 64) % 2 == 1, np.inf, 0.0)


def _record_detect(monkeypatch):
    """Wrap gnaf_sim._detect; returns the list of (z, G, decisions) per block.

    Copies are kept: a block's (z, G) live in the batch's workspace, which
    the next block overwrites.
    """
    blocks, detect = [], gnaf_sim._detect

    def recording(receiver, z, gram, book, *args):
        out = detect(receiver, z, gram, book, *args)
        blocks.append((z.copy(), gram.copy(), out[0].copy()))
        return out

    monkeypatch.setattr(gnaf_sim, "_detect", recording)
    return blocks


class TestBlocks:
    """A batch decided in blocks of draws equals the batch decided whole."""

    @pytest.mark.parametrize("variant,receiver", _BLOCK_CASES)
    def test_blocks_of_seven_draws_equal_one_block(self, variant, receiver,
                                                   monkeypatch):
        if variant == "direct":
            d, book = direct_design(2), qam_codebook(2, 4)
        else:
            d = build_pciod(2)
            book = lattice_codebook(d.partition, default_lattice(1, 2))
        rs = relay_matrix_set(d)
        cfg = SimConfig(design=d, codebook=book, receiver=receiver,
                        snr_db=(4.0,), trials=100, seed=21, variant=variant)
        if receiver == "grouped-ml":
            monkeypatch.setattr(gnaf_sim, "gram_crossterm", _half_coupled)
        blocks = _record_detect(monkeypatch)
        per_draw = 16 * protocol_params(d, 1.0, cfg.variant, rs=rs).rows * book.k
        runs = {}
        for draws in (100, 7):
            monkeypatch.setattr(gnaf_sim, "_BLOCK_BYTES", draws * per_draw)
            blocks.clear()
            part = gnaf_sim._run_batch(cfg, rs, 0, 3, 100)
            decided = [dec for _, _, dec in blocks]
            runs[draws] = part, np.concatenate(decided), [len(b) for b in decided]
        (whole, dec, sizes), (blocked, blocked_dec, blocked_sizes) = runs[100], runs[7]
        assert sizes == [100] and sorted(set(blocked_sizes)) == [6, 7]
        assert blocked == whole and np.array_equal(blocked_dec, dec)
        assert whole.errors > 0
        if receiver == "grouped-ml":
            assert 0 < whole.fallbacks < 100

    @pytest.mark.parametrize("receiver", gnaf_sim._RECEIVERS)
    def test_each_block_forms_its_statistics_once(self, receiver, monkeypatch):
        # counted through gnaf_sim's globals: the detectors, the
        # decodability check and the joint-ML fallback all read the block's
        # one (z, G)
        d = build_pciod(2)
        rs = relay_matrix_set(d)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        cfg = SimConfig(design=d, codebook=book, receiver=receiver,
                        snr_db=(4.0,), trials=100, seed=21)
        if receiver == "grouped-ml":
            monkeypatch.setattr(gnaf_sim, "gram_crossterm", _half_coupled)
        calls, stats = [], gnaf_sim._whitened_stats

        def counting(params, x, *args):
            calls.append(len(x))
            return stats(params, x, *args)

        monkeypatch.setattr(gnaf_sim, "_whitened_stats", counting)
        per_draw = 16 * protocol_params(d, 1.0, cfg.variant, rs=rs).rows * book.k
        monkeypatch.setattr(gnaf_sim, "_BLOCK_BYTES", 7 * per_draw)
        fallbacks = gnaf_sim._run_batch(cfg, rs, 0, 3, 100).fallbacks
        assert len(calls) == -(-100 // 7) and sum(calls) == 100
        assert (fallbacks > 0) == (receiver == "grouped-ml")

    @pytest.mark.parametrize("receiver", gnaf_sim._RECEIVERS)
    def test_each_batch_builds_its_tables_once(self, receiver, monkeypatch):
        # the ML candidate table, counted through gnaf_sim's globals, where
        # the batch builds the one its receiver scores, and through
        # receivers', where ml_joint given none builds one: grouped ML's
        # joint-ML fallback does so once in each block with coupled draws,
        # and only there; and the noise diagonal the blocks are whitened by
        d = build_pciod(2)
        rs = relay_matrix_set(d)
        book = lattice_codebook(d.partition, default_lattice(1, 2))
        cfg = SimConfig(design=d, codebook=book, receiver=receiver,
                        snr_db=(4.0,), trials=100, seed=21)

        def rarely_coupled(gram, groups):
            # about one draw in eight, so that some blocks have none
            return np.where(np.floor(gram[:, 0, 0] * 64) % 8 == 1, np.inf, 0.0)

        if receiver == "grouped-ml":
            monkeypatch.setattr(gnaf_sim, "gram_crossterm", rarely_coupled)
        built = {gnaf_sim: [], receivers: []}
        for module, calls in built.items():
            def counting(codebook, grouped=False, _calls=calls,
                         _build=receivers.ml_table):
                _calls.append(grouped)
                return _build(codebook, grouped)

            monkeypatch.setattr(module, "ml_table", counting)
        # the linear receivers' slicer levels, once per batch too
        slicers, slicer_table = [], gnaf_sim.slicer_table

        def counting_slicer(codebook):
            slicers.append(codebook)
            return slicer_table(codebook)

        monkeypatch.setattr(gnaf_sim, "slicer_table", counting_slicer)
        diagonals, omega_diagonals = [], gnaf_sim.omega_diagonals

        def counting_diagonals(params, rs, g, *args):
            diagonals.append(len(g))
            return omega_diagonals(params, rs, g, *args)

        monkeypatch.setattr(gnaf_sim, "omega_diagonals", counting_diagonals)
        # the fallback calls ml_joint through gnaf_sim's globals, which the
        # benchmark's tracer rebinds
        fallback_calls, ml_joint = [], gnaf_sim.ml_joint

        def counting_ml_joint(z, gram, codebook, table=None):
            fallback_calls.append(len(z))
            return ml_joint(z, gram, codebook, table)

        if receiver == "grouped-ml":
            monkeypatch.setattr(gnaf_sim, "ml_joint", counting_ml_joint)
        blocks = _record_detect(monkeypatch)
        per_draw = 16 * protocol_params(d, 1.0, cfg.variant, rs=rs).rows * book.k
        monkeypatch.setattr(gnaf_sim, "_BLOCK_BYTES", 7 * per_draw)
        for batch in range(2):
            fallbacks = gnaf_sim._run_batch(cfg, rs, 0, batch, 100).fallbacks
            assert (fallbacks > 0) == (receiver == "grouped-ml")
        once = {"joint-ml": [False], "grouped-ml": [True]}.get(receiver, [])
        assert built[gnaf_sim] == 2 * once
        if receiver == "grouped-ml":
            coupled = sum(bool(np.any(rarely_coupled(gram, book.groups)))
                          for _, gram, _ in blocks)
            assert len(blocks) == 30 and 0 < coupled < 30
            assert built[receivers] == coupled * [False]
            assert len(fallback_calls) == coupled
        else:
            assert built[receivers] == []
        assert diagonals == [100, 100]
        assert len(slicers) == (2 if receiver in ("zf", "mmse") else 0)

    def test_coupled_draws_of_a_mixed_block_decide_as_joint_ml(self, monkeypatch):
        # Toeplitz 2x2 does not decompose over its QAM groups, so per-group
        # ML misdecides some draws that joint ML gets right; every draw the
        # rule reports coupled must get joint ML's decision for that draw
        d = build_toeplitz(2, 2)
        rs = relay_matrix_set(d)
        book = qam_codebook(2, 4)
        cfg = SimConfig(design=d, codebook=book, receiver="joint-ml",
                        snr_db=(4.0,), trials=200, seed=21)
        monkeypatch.setattr(gnaf_sim, "gram_crossterm", _half_coupled)
        per_draw = 16 * protocol_params(d, 1.0, cfg.variant, rs=rs).rows * book.k
        monkeypatch.setattr(gnaf_sim, "_BLOCK_BYTES", 50 * per_draw)
        blocks = _record_detect(monkeypatch)
        gnaf_sim._run_batch(cfg, rs, 0, 3, 200)
        joint = np.concatenate([dec for _, _, dec in blocks])
        blocks.clear()
        gnaf_sim._run_batch(replace(cfg, receiver="grouped-ml"), rs, 0, 3, 200)
        masks = [_half_coupled(gram, book.groups) > 0 for _, gram, _ in blocks]
        assert len(masks) == 4 and all(0 < np.sum(c) < len(c) for c in masks)
        coupled = np.concatenate(masks)
        grouped = np.concatenate([dec for _, _, dec in blocks])
        per_group = np.concatenate([receivers.ml_grouped(z, gram, book)
                                    for z, gram, _ in blocks])
        assert np.array_equal(grouped[coupled], joint[coupled])
        assert np.array_equal(grouped[~coupled], per_group[~coupled])
        # the check has teeth: per-group ML would decide some of them otherwise
        assert np.any(per_group[coupled] != joint[coupled])


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_changes_none_of_its_inputs(workers, monkeypatch):
    # the pool's start-up thread pickles (cfg, rs, tasks, counter) while
    # the caller already runs batches, so no batch may write to either
    d = build_pciod(4)
    cfg = SimConfig(design=d, codebook=lattice_codebook(d.partition, default_lattice(2, 2)),
                    receiver="grouped-ml", snr_db=(0.0, 10.0), trials=600, seed=5,
                    batch_size=200, workers=workers)
    relay_sets, clro_relay_set = [], verifier.clro_relay_set

    def recording(design):
        rep, rs = clro_relay_set(design)
        relay_sets.append((rs, pickle.dumps(rs)))
        return rep, rs

    monkeypatch.setattr(verifier, "clro_relay_set", recording)
    before = pickle.dumps(cfg)
    run_monte_carlo(cfg)
    assert pickle.dumps(cfg) == before
    [(rs, rs_before)] = relay_sets
    assert pickle.dumps(rs) == rs_before


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
    """One set of helpers per sweep, no more than the cores or the tasks, fed once."""

    def config(self, workers=None, trials=2500, snr_db=(0.0, 10.0, 20.0)):
        return SimConfig(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
                         receiver="zf", snr_db=snr_db, trials=trials, seed=11,
                         batch_size=1000, workers=workers)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Record (start method, helpers started) of every context a sweep
        takes from multiprocessing.get_context, and every forkserver
        preload list. Each pooled sweep takes one context."""
        get_context = multiprocessing.get_context
        pools = SimpleNamespace(starts=[], preloads=[])

        class Counting:
            def __init__(self, method=None):
                self._method, self._ctx = method, get_context(method)
                self._index = len(pools.starts)
                pools.starts.append((method, 0))

            def Process(self, *args, **kwargs):
                # the context's own process class: the server must unpickle it
                method, helpers = pools.starts[self._index]
                pools.starts[self._index] = (method, helpers + 1)
                return self._ctx.Process(*args, **kwargs)

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
        # the caller is one of the workers; only the others are helpers
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

    @pytest.mark.parametrize("workers", [None, 2])
    def test_each_point_is_the_sum_of_its_batches(self, workers):
        # each point's result is its batches' results added left to right,
        # whichever process ran them; the last of the three is short
        cfg = self.config(workers=workers)
        rs = relay_matrix_set(cfg.design)
        for si, point in enumerate(run_monte_carlo(cfg)):
            first, second, last = (gnaf_sim._run_batch(cfg, rs, si, bi, n)
                                   for bi, n in enumerate((1000, 1000, 500)))
            assert last.trials == 500 * 2
            assert point == (first + second) + last


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a pool needs at least two usable cores")
class TestPoolLifecycle:
    """The caller works beside its helpers, and no helper outlives the sweep."""

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

    @staticmethod
    def slow_start(monkeypatch, started=None):
        """Delay every helper start by 0.5 s; patched on the class, since
        the server unpickles each helper, and a patched instance would
        not pickle."""
        start = ForkServerProcess.start

        def slow(process):
            time.sleep(0.5)
            if started is not None:
                started.append(time.perf_counter())
            start(process)

        monkeypatch.setattr(ForkServerProcess, "start", slow)

    def test_caller_works_while_the_pool_starts(self, monkeypatch):
        # a helper's start returns only once the server has forked it; the
        # caller runs its batches meanwhile, so helpers slow to start leave
        # every task to the caller, and the sweep still stops its helpers
        cfg = self.config(trials=100, batch_size=10)        # 3 points x 10 batches
        serial = results_to_csv(run_monte_carlo(SimConfig(**{**cfg.__dict__,
                                                            "workers": None})))
        run_batch = gnaf_sim._run_batch
        started, ran = [], []

        def timed(*args):
            ran.append(time.perf_counter())
            return run_batch(*args)

        self.slow_start(monkeypatch, started)
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

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="named semaphores are files in /dev/shm")
    def test_helpers_stopped_unstarted_leave_no_semaphore(self, monkeypatch):
        # Helpers slow to start leave every task to the caller, which then
        # stops them before they claim one. The task counter's lock is the
        # sweep's one named semaphore; nothing may keep it alive in a
        # reference cycle, which with the collector off would hold it past
        # the sweep.
        import gc
        self.slow_start(monkeypatch)
        cfg = self.config(trials=100, batch_size=50)
        semaphores = set(Path("/dev/shm").glob("sem.*"))
        gc.disable()
        try:
            run_monte_carlo(cfg)
            left = set(Path("/dev/shm").glob("sem.*")) - semaphores
        finally:
            gc.enable()
        assert left == set()
        assert multiprocessing.active_children() == []

    def test_failed_pool_start_is_raised(self, monkeypatch):
        # the helpers start on a thread; its error reaches the caller
        def no_start(process):
            raise OSError("no pool")

        monkeypatch.setattr(ForkServerProcess, "start", no_start)
        with pytest.raises(OSError, match="no pool"):
            run_monte_carlo(self.config(trials=100, batch_size=10))
        assert multiprocessing.active_children() == []

    def test_failing_batches_leave_no_child(self):
        cfg = self.config(trials=10, batch_size=10, design=build_pciod(4),
                          codebook=qam_codebook(4, 64), receiver="joint-ml")
        with pytest.raises(ResourceGuardError):
            run_monte_carlo(cfg)
        assert multiprocessing.active_children() == []

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # joint ML over 64^4 codewords trips the size guard of a batch; the
        # caller's batches are patched to succeed, slowly, so only the
        # helper, which imports dstc afresh, raises
        cfg = self.config(trials=10, batch_size=1, design=build_pciod(4),
                          codebook=qam_codebook(4, 64), receiver="joint-ml")

        def idle(cfg, rs, si, *args):
            time.sleep(0.1)
            return SimResult(cfg.snr_db[si], 0, 0, cfg.receiver, cfg.seed, cfg.design.family)

        monkeypatch.setattr(gnaf_sim, "_run_batch", idle)
        with pytest.raises(ResourceGuardError):
            run_monte_carlo(cfg)
        assert multiprocessing.active_children() == []

    def test_killed_helper_raises(self, tmp_path):
        # A helper killed holding claimed batches never sends them: the
        # sweep must raise, not wait for them. The caller kills the helper
        # as soon as the task it claims is not the one after its last,
        # which shows the helper has claimed the tasks in between. Run in
        # a fresh process, so that a sweep that hangs fails by the timeout.
        src = str(Path(gnaf_sim.__file__).resolve().parents[1])
        script = f"""
import sys
sys.path.insert(0, {src!r})
import multiprocessing, os, signal
from dstc import gnaf_sim
from dstc.designs import build_toeplitz
from dstc.gnaf_sim import SimConfig, run_monte_carlo
from dstc.receivers import qam_codebook

cfg = SimConfig(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
                receiver="zf", snr_db=tuple(range(0, 35, 5)), trials=200000,
                seed=11, workers=2)
run_batch, n_batches = gnaf_sim._run_batch, -(-cfg.trials // cfg.batch_size)
last, killed = [-1], []

def watched(cfg, rs, si, bi, n, ws):
    index = si * n_batches + bi
    if index != last[0] + 1 and not killed:
        killed.extend(multiprocessing.active_children())
        for helper in killed:
            os.kill(helper.pid, signal.SIGKILL)
    last[0] = index
    return run_batch(cfg, rs, si, bi, n, ws)

gnaf_sim._run_batch = watched
try:
    run_monte_carlo(cfg)
except RuntimeError as exc:
    print(exc)
assert len(killed) == 1, killed
assert multiprocessing.active_children() == []
"""
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert re.fullmatch(r"Monte Carlo helper \d+ exited before it sent its "
                            r"batches \(exit code -9\)\n", out.stdout), out.stdout

    @pytest.mark.parametrize("workers", [2, 3])
    def test_killed_lock_holder_raises(self, workers, tmp_path):
        # A helper killed while it holds the task counter's lock leaves the
        # lock held for good; the sweep must raise, not wait without end.
        # The last helper started takes the lock and kills itself: with 2
        # workers before its first claim, so that the caller's next claim
        # waits on the lock; with 3 once the caller has claimed past the
        # last task, so that the caller instead waits on the message of
        # the first helper, whose batches are slow and whose next claim
        # waits on the lock. The caller's batches are slowed so that it
        # still has tasks to claim when the helpers start. The helpers
        # import this script as __mp_main__, so it is a file, run in a
        # fresh process so that a hang fails by the timeout.
        src = str(Path(gnaf_sim.__file__).resolve().parents[1])
        script = tmp_path / "lock_holder.py"
        script.write_text(f"""
import sys
sys.path.insert(0, {src!r})
import multiprocessing, os, signal, time
from dstc import gnaf_sim
from dstc.designs import build_toeplitz
from dstc.gnaf_sim import SimConfig, run_monte_carlo
from dstc.receivers import qam_codebook

drain, run_batch, workers = gnaf_sim._drain, gnaf_sim._run_batch, {workers}

def holding(cfg, rs, tasks, counter, *args):
    if multiprocessing.current_process().name.endswith(f"-{{workers - 1}}"):
        while workers > 2 and counter.value <= len(tasks):
            time.sleep(0.01)
        counter.get_lock().acquire()
        os.kill(os.getpid(), signal.SIGKILL)
    return drain(cfg, rs, tasks, counter, *args)

def slow(*args):
    time.sleep(0.1 if multiprocessing.parent_process() is None else 0.5)
    return run_batch(*args)

gnaf_sim._drain, gnaf_sim._run_batch = holding, slow

if __name__ == "__main__":
    os.sched_getaffinity = lambda pid: set(range(workers))
    cfg = SimConfig(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
                    receiver="zf", snr_db=(0.0, 10.0, 20.0), trials=100, seed=11,
                    batch_size=10, workers=workers)
    try:
        run_monte_carlo(cfg)
    except RuntimeError as exc:
        print(exc)
    assert multiprocessing.active_children() == []
""")
        out = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert re.fullmatch(r"Monte Carlo helper \d+ exited before it sent its "
                            r"batches \(exit code -9\)\n", out.stdout), out.stdout
