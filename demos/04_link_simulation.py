"""End-to-end link simulation: model equivalence, then an SER sweep.

First the sanity anchor: the compact stacked model and the step-by-step
two-phase protocol produce the same receive vector when fed the same noise.
Then a short Monte Carlo sweep compares receivers on the R=2 precoded design
against direct (no relay) transmission. Full-scale runs live in the
acceptance suite; this uses small trial counts to stay interactive.
"""
import numpy as np

from dstc import (SimConfig, build_pciod, direct_design, draw_noise, make_rng,
                  protocol_params, results_to_csv, run_monte_carlo,
                  sample_channel, simulate_trial)
from dstc.precoding import default_lattice
from dstc.receivers import lattice_codebook, qam_codebook


def main():
    d = build_pciod(2)
    params = protocol_params(d, 10.0, "gnaf2")
    rng = make_rng(42, 0)
    ch = sample_channel(d.r, rng)
    x = rng.standard_normal(d.k)
    noise = draw_noise(params, rng)
    s = d.source_vector(x)
    y_compact = simulate_trial(d, params, ch, s, mode="compact", noise=noise)
    y_physical = simulate_trial(d, params, ch, s, mode="two_phase", noise=noise)
    print("compact vs two-phase max deviation:",
          float(np.max(np.abs(y_compact - y_physical))))

    book = lattice_codebook(d.partition, default_lattice(1, 2))
    grid = (0.0, 5.0, 10.0, 15.0, 20.0)
    print("\nSER sweep, precoded R=2 design (40k trials/point):")
    for receiver in ("grouped-ml", "joint-ml", "mmse"):
        res = run_monte_carlo(SimConfig(
            design=d, codebook=book, receiver=receiver, snr_db=grid,
            trials=40000, seed=7, variant="gnaf2"))
        sers = " ".join(f"{r.ser:.2e}" for r in res)
        print(f"  {receiver:10s}: {sers}")

    res_direct = run_monte_carlo(SimConfig(
        design=direct_design(2), codebook=qam_codebook(2, 4), receiver="joint-ml",
        snr_db=grid, trials=40000, seed=7, variant="direct"))
    print("  direct    :", " ".join(f"{r.ser:.2e}" for r in res_direct))
    print("\nnote the slope difference: the relay path buys extra diversity")

    out = "/tmp/pciod2_sweep.csv"
    with open(out, "w") as fh:
        fh.write(results_to_csv(res_direct, {"scheme": "direct qam4"}))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
