import multiprocessing
import os
import time

import numpy as np
import pytest

from dstc import gnaf_sim, verifier
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

    def test_env_var_caps_workers(self, monkeypatch):
        cfg = self.config(workers=8)
        monkeypatch.setenv("DSTC_MAX_WORKERS", "2")
        assert cfg.resolved_workers() == 2
        monkeypatch.delenv("DSTC_MAX_WORKERS")
        assert cfg.resolved_workers() == 8


class TestSweepTaskLoop:
    """One pool per sweep, no larger than the cores or the tasks, fed once."""

    def config(self, workers=None, trials=2500, snr_db=(0.0, 10.0, 20.0)):
        return SimConfig(design=build_toeplitz(2, 2), codebook=qam_codebook(2, 4),
                         receiver="zf", snr_db=snr_db, trials=trials, seed=11,
                         batch_size=1000, workers=workers)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Record the size of every Pool started through multiprocessing.get_context."""
        get_context = multiprocessing.get_context
        sizes = []

        class Counting:
            def __init__(self, ctx):
                self._ctx = ctx

            def Pool(self, processes=None, *args, **kwargs):
                sizes.append(processes)
                return self._ctx.Pool(processes, *args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: Counting(get_context(method)))
        return sizes

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="a pool needs at least two usable cores")
    def test_one_pool_per_sweep(self, pool_sizes):
        res = run_monte_carlo(self.config(workers=8))   # 3 points x 3 batches
        assert len(res) == 3
        assert len(pool_sizes) == 1
        # the caller is one of the workers; the pool holds only the helpers
        assert 1 <= pool_sizes[0] <= min(len(os.sched_getaffinity(0)), 9) - 1

    def test_pool_capped_by_tasks(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        run_monte_carlo(self.config(workers=8, trials=1000, snr_db=(0.0, 10.0)))
        assert pool_sizes == [1]            # 2 points x 1 batch: caller + 1 helper

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
            # only the caller is patched: spawned helpers import dstc afresh
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

    def test_failing_batches_leave_no_child(self):
        cfg = self.config(trials=10, batch_size=10, design=build_pciod(4),
                          codebook=qam_codebook(4, 64), receiver="joint-ml")
        with pytest.raises(ResourceGuardError):
            run_monte_carlo(cfg)
        assert multiprocessing.active_children() == []
