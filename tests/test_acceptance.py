"""Acceptance suite: one test per ship criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy Monte Carlo criterion (9) takes a few minutes; everything
else is seconds.
"""

import time

import numpy as np
import pytest

from dstc.designs import (build_ciod4, build_pciod, build_pciod_rect,
                          build_toeplitz, direct_design, golden_cda,
                          relay_matrix_set, unit_energy_relays)
from dstc.dmg import crossover, d_code, d_lower, d_naf, d_star
from dstc.gnaf_sim import (ChannelRealization, NoiseDraw, SimConfig,
                           column_gains, crandn, draw_noise, effective_matrix,
                           make_rng, noise_cov, omega_diagonals,
                           protocol_params, relay_noise_cov, run_monte_carlo,
                           sample_channel, simulate_trial)
from dstc.precoding import default_lattice
from dstc.receivers import (lattice_codebook, ml_grouped, ml_joint,
                            pam_codebook, qam_codebook)
from dstc.verifier import (check_group_decodable,
                           check_whitened_group_decodable, min_delta_det_full,
                           nvd_probe)

from _oracles import ml_joint_metrics, sufficient_stats


def verdict(num, name, passed, detail, elapsed=None, budget=None):
    t = f" [{elapsed:.1f}s < {budget:.0f}s]" if budget is not None else ""
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} — {detail}{t}"
    print(line, flush=True)
    assert passed, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget: {line}"


FAMILIES = {
    "pciod-r2": build_pciod(2),
    "pciod-r4": build_pciod(4),
    "toeplitz-2x2": build_toeplitz(2, 2),
    "golden-cda": golden_cda(),
}


def test_c01_model_equivalence():
    t0 = time.perf_counter()
    worst = worst_batch = worst_diag = 0.0
    n = 100
    for vi, variant in enumerate(("gnaf1", "gnaf2", "gnaf3", "jh")):
        for fi, (tag, d) in enumerate(FAMILIES.items()):
            rs = relay_matrix_set(d)
            params = protocol_params(d, 6.0, variant)
            rng = make_rng(101, vi, fi)
            for _ in range(n):
                ch = sample_channel(d.r, rng)
                x = rng.standard_normal(d.k)
                s = d.source_vector(x)
                noise = draw_noise(params, rng)
                y1 = simulate_trial(d, params, ch, s, mode="compact", noise=noise)
                y2 = simulate_trial(d, params, ch, s, mode="two_phase", noise=noise)
                worst = max(worst, float(np.max(np.abs(y1 - y2))))
            # the batched path the Monte Carlo runs: n channels at once
            z = crandn(rng, n, 2 * d.r + 1)
            g0, f, g = z[:, 0], z[:, 1:d.r + 1], z[:, d.r + 1:]
            m = effective_matrix(d, params, g0, column_gains(rs, f, g))
            diag = omega_diagonals(params, rs, g)
            x = rng.standard_normal((n, d.k))
            silent = NoiseDraw(np.zeros(params.t1), np.zeros(params.t2),
                               np.zeros((params.r, params.t1)))
            for b in range(n):
                ch = ChannelRealization(complex(g0[b]), f[b], g[b])
                clean = simulate_trial(d, params, ch, d.source_vector(x[b]),
                                       mode="two_phase", noise=silent, rs=rs)
                worst_batch = max(worst_batch, float(np.max(np.abs(m[b] @ x[b] - clean))))
                exact = np.diag(noise_cov(params, ch, rs)).real
                worst_diag = max(worst_diag, float(np.max(np.abs(diag[b] - exact))))
    elapsed = time.perf_counter() - t0
    verdict(1, "eq4-model-equivalence",
            max(worst, worst_batch, worst_diag) < 1e-10,
            f"max compact/two-phase deviation {worst:.2e} per trial, "
            f"{worst_batch:.2e} batched, diagonal whitening {worst_diag:.2e}, "
            f"over 4 variants x 4 families x {n} trials", elapsed, 10.0)


def test_c02_pciod_four_group_decodability():
    t0 = time.perf_counter()
    worst_margin = 0.0
    all_pass = True
    for r in (2, 4, 6):
        d = build_pciod(r)
        rep = check_group_decodable(d.weights, d.partition)
        all_pass &= rep.passed and rep.margin < 1e-12
        worst_margin = max(worst_margin, rep.margin)
        wrep = check_whitened_group_decodable(
            d, d.partition, protocol_params(d, 10.0), n_draws=50, seed=202)
        all_pass &= wrep.passed
    elapsed = time.perf_counter() - t0
    verdict(2, "pciod-4group", all_pass,
            f"mod-4 anticommutation margin {worst_margin:.2e} (R=2,4,6), "
            f"whitened over 50 draws each", elapsed, 5.0)


def _whitened_models(d, p, n, seed):
    rs = relay_matrix_set(d)
    params = protocol_params(d, p, "gnaf2")
    rng = make_rng(seed, 7)
    z = crandn(rng, n, 2 * d.r + 1)
    g0, f, g = z[:, 0], z[:, 1:d.r + 1], z[:, d.r + 1:]
    m = effective_matrix(d, params, g0, column_gains(rs, f, g))
    m = m / np.sqrt(omega_diagonals(params, rs, g))[:, :, None]
    return m, rng


def test_c03_grouped_equals_joint():
    t0 = time.perf_counter()
    agree = 0
    total = 0
    worst_resid = 0.0
    for r in (2, 4):
        d = build_pciod(r)
        book = lattice_codebook(d.partition, default_lattice(r // 2, 2))
        x_all = book.enumerate_x()
        # per-codeword grouped metric sums, assembled from per-group tables
        flat_idx = book.flat_to_indices(np.arange(book.size))
        for snr in (0.0, 10.0, 20.0):
            n = 1000
            m, rng = _whitened_models(d, 10.0 ** (snr / 10.0), n, seed=303 + int(snr))
            tx = np.stack([rng.integers(0, s, size=n) for s in book.group_sizes], axis=1)
            y = np.einsum("brk,bk->br", m, book.assemble(tx)) + crandn(rng, n, m.shape[1])
            z, gram = sufficient_stats(y, m)
            dj = ml_joint(z, gram, book)
            dg = ml_grouped(z, gram, book)
            agree += int(np.sum(np.all(dj == dg, axis=1)))
            total += n
            # metric decomposition: M(S) = sum_k M_k + (1-g)||y||^2, every codeword
            joint = ml_joint_metrics(y, m, x_all)
            const = (1 - book.n_groups) * np.sum(np.abs(y) ** 2, axis=1)
            grouped = np.zeros_like(joint)
            for g_i, (grp, vals) in enumerate(zip(book.groups, book.group_values)):
                mg = m[:, :, list(grp)]
                sig = np.einsum("brk,nk->bnr", mg, vals)
                met = np.sum(np.abs(y[:, None, :] - sig) ** 2, axis=-1)
                grouped += met[:, flat_idx[:, g_i]]
            resid = np.abs(joint - grouped - const[:, None])
            scale = 1.0 + np.abs(joint)
            worst_resid = max(worst_resid, float(np.max(resid / scale)))
    elapsed = time.perf_counter() - t0
    verdict(3, "grouped-vs-joint-ml", agree == total and worst_resid < 1e-9,
            f"{agree}/{total} identical decisions; metric-decomposition "
            f"residual {worst_resid:.2e}", elapsed, 120.0)


def test_c04_full_diversity_dichotomy():
    t0 = time.perf_counter()
    d4 = build_pciod(4)
    book_raw = pam_codebook(d4.partition, 2)          # independent +-1 coords
    val0, wit = min_delta_det_full(d4, book_raw.enumerate_x())
    zero_ok = val0 < 1e-12 and wit is not None and np.any(wit != 0)
    pos_ok = True
    vals = []
    for r in (2, 4):
        d = build_pciod(r)
        book = lattice_codebook(d.partition, default_lattice(r // 2, 2))
        val, _ = min_delta_det_full(d, book.enumerate_x())   # exhaustive pairing
        vals.append(val)
        pos_ok &= val > 1e-9
    elapsed = time.perf_counter() - t0
    verdict(4, "full-diversity-dichotomy", zero_ok and pos_ok,
            f"unprecoded min det {val0:.2e} (witness {wit.tolist() if wit is not None else None}); "
            f"precoded R=2/4 min dets {vals[0]:.3e}/{vals[1]:.3e}", elapsed, 60.0)


def test_c05_gamma_closed_form():
    d, _ = build_ciod4()
    rs = unit_energy_relays(relay_matrix_set(d)).by_column()
    params = protocol_params(d, 4.0)
    pref = params.pi3 * params.p / (2.0 * (params.pi1 * params.p + 1.0))
    rng = make_rng(505, 0)
    worst = 0.0
    for _ in range(100):
        g = crandn(rng, 4)
        gm = relay_noise_cov(params, rs, g)
        a = abs(g[0]) ** 2 + abs(g[1]) ** 2
        b = abs(g[2]) ** 2 + abs(g[3]) ** 2
        want = pref * np.diag([a, a, b, b])
        worst = max(worst, float(np.max(np.abs(gm - want))))
    verdict(5, "gamma-closed-form", worst < 1e-12,
            f"max deviation from block formula {worst:.2e} over 100 draws")


def test_c06_omega_diagonality():
    t0 = time.perf_counter()
    designs = [build_pciod(2), build_pciod(4), build_pciod(6),
               build_pciod_rect(1), build_pciod_rect(3), build_pciod_rect(5),
               build_ciod4()[0], build_toeplitz(2, 2), build_toeplitz(3, 4),
               golden_cda()]
    worst = 0.0
    for di, d in enumerate(designs):
        rs = relay_matrix_set(d)
        params = protocol_params(d, 12.0)
        rng = make_rng(606, di)
        for _ in range(100):
            ch = sample_channel(d.r, rng)
            omega = noise_cov(params, ch, rs)
            off = omega - np.diag(np.diag(omega))
            worst = max(worst, float(np.linalg.norm(off)))
    elapsed = time.perf_counter() - t0
    verdict(6, "omega-diagonality", worst < 1e-12,
            f"max off-diagonal Frobenius mass {worst:.2e} over "
            f"{len(designs)} designs x 100 channels", elapsed, 30.0)


def test_c07_nvd_probe():
    t0 = time.perf_counter()
    probe = nvd_probe(golden_cda(), (4, 16))
    (s4, v4), (s16, v16) = probe.details["entries"]
    golden_ok = probe.passed and abs(v4 - v16) <= 1e-9 * v4
    pciod_entries = nvd_probe(build_pciod(4), (4, 16)).details["entries"]
    pciod_ok = all(v < 1e-12 for _, v in pciod_entries)
    elapsed = time.perf_counter() - t0
    verdict(7, "nvd-probe", golden_ok and pciod_ok,
            f"golden min det {v4:.6f}@QAM{s4} vs {v16:.6f}@QAM{s16}; "
            f"unprecoded pciod {pciod_entries[0][1]:.1e}/"
            f"{pciod_entries[1][1]:.1e}", elapsed, 300.0)


def test_c08_dmg_curves():
    t0 = time.perf_counter()
    checks = [
        d_naf(0.0, 2) == 3.0 and d_naf(0.0, 7) == 8.0,
        d_star(1.0, 2) == 0.0 and d_star(1.0, 9) == 0.0,
        all(d_code(r / (r + 1), r) == 0.0 for r in (1, 2, 3, 8)),
        abs(crossover(2) - 4.0 / 7.0) < 1e-15,
        all(abs((1.0 - crossover(r)) - d_code(crossover(r), r)) < 1e-12
            for r in (1, 2, 3, 4, 8, 16)),
    ]
    gaps = [d_star(0.1, n) - d_lower(0.1, n) for n in (2, 4, 8, 16)]
    shrink = all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    verdict(8, "dmg-curves", all(checks) and shrink,
            f"exact identities hold; gap at r=0.1 shrinks "
            f"{['%.4f' % g for g in gaps]}", elapsed, 1.0)


def _fit_slope(results):
    """Least-squares log10(SER) decay in decades per decade of SNR."""
    xs, ys = [], []
    for res in results:
        if res.errors > 0:
            xs.append(res.snr_db / 10.0)
            ys.append(np.log10(res.ser))
    if len(xs) < 2:
        return np.inf       # fell off the error floor entirely
    slope = np.polyfit(xs, ys, 1)[0]
    return -float(slope)


def _ci_text(results):
    return "; ".join(f"{r.snr_db:g}dB {r.ser:.2e} ({r.ci95[0]:.1e},{r.ci95[1]:.1e})"
                     for r in results)


@pytest.mark.slow
def test_c09_diversity_slopes():
    t0 = time.perf_counter()
    grid = (15.0, 20.0, 25.0, 30.0)
    trials = 10 ** 6

    d2 = build_pciod(2)
    book2 = lattice_codebook(d2.partition, default_lattice(1, 2))
    relay = run_monte_carlo(SimConfig(
        design=d2, codebook=book2, receiver="grouped-ml", snr_db=grid,
        trials=trials, seed=1009, variant="gnaf2", batch_size=20000))
    direct = run_monte_carlo(SimConfig(
        design=direct_design(2), codebook=qam_codebook(2, 4), receiver="joint-ml",
        snr_db=grid, trials=trials, seed=1013, variant="direct",
        batch_size=20000))
    s_relay, s_direct = _fit_slope(relay), _fit_slope(direct)

    dt = build_toeplitz(2, 2)
    bookt = qam_codebook(dt.n_complex, 4)
    zf = run_monte_carlo(SimConfig(
        design=dt, codebook=bookt, receiver="zf", snr_db=grid,
        trials=trials, seed=2009, variant="gnaf3", batch_size=20000))
    ml = run_monte_carlo(SimConfig(
        design=dt, codebook=bookt, receiver="joint-ml", snr_db=grid,
        trials=trials, seed=2009, variant="gnaf3", batch_size=20000))
    s_zf, s_ml = _fit_slope(zf), _fit_slope(ml)

    print(f"  relay grouped-ml: {_ci_text(relay)}")
    print(f"  direct:           {_ci_text(direct)}")
    print(f"  toeplitz zf:      {_ci_text(zf)}")
    print(f"  toeplitz ml:      {_ci_text(ml)}")
    part_a = s_relay - s_direct >= 1.0
    part_b = abs(s_zf - s_ml) <= 0.7
    elapsed = time.perf_counter() - t0
    verdict(9, "diversity-slopes", part_a and part_b,
            f"relay slope {s_relay:.2f} vs direct {s_direct:.2f} "
            f"(gain {s_relay - s_direct:.2f} >= 1.0); toeplitz zf {s_zf:.2f} "
            f"vs ml {s_ml:.2f} (|diff| {abs(s_zf - s_ml):.2f} <= 0.7)",
            elapsed, 1800.0)


def test_c10_determinism_across_workers(tmp_path):
    import json

    from dstc.cli import main
    cfg = {"design": {"family": "pciod", "relays": 2}, "variant": "gnaf2",
           "snr_db": "0:10:20", "trials": 30000, "receiver": "grouped-ml",
           "constellation": {"type": "lattice", "points": 2}, "seed": 7,
           "batch_size": 4096, "checks": ["clro", "group"]}
    outs = {}
    for workers in (1, 3):
        cfg["workers"] = workers
        path = tmp_path / f"cfg{workers}.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / f"run{workers}"
        assert main(["pipeline", "--config", str(path),
                     "--out-dir", str(outdir)]) == 0
        outs[workers] = ((outdir / "results.csv").read_bytes(),
                         (outdir / "report.json").read_bytes())
    same = outs[1][0] == outs[3][0] and outs[1][1] == outs[3][1]
    verdict(10, "worker-determinism", same,
            "pipeline outputs byte-identical for 1 and 3 workers")
