"""The four benchmark workloads: inputs, the timed steps, and their checks.

A workload is resolved once (the set-up the benchmark times as setup_s) and
then run in rounds. One round is a list of steps, each a call into a public
entry point of dstc that counts as one or more operations; every round runs
the same steps on the same inputs, so every round must give the same
outputs. The correctness checks run after the rounds, on every round's
outputs, against references computed here apart from the program's batched
paths (see checks.py).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections.abc import Callable

import numpy as np

from dstc import cli, designs, gnaf_sim, verifier
from dstc.gnaf_sim import ChannelRealization, NoiseDraw
from dstc.receivers import qam_codebook

import checks

SNR_GRID = "0:5:30"
# The check suite `dstc pipeline` runs before a sweep, with its defaults.
PIPELINE_CHECKS = ("clro", "group")
PIPELINE_CONSTELLATION = "qam4"
PIPELINE_DRAWS = 20

_PCIOD4_LATTICE2 = {"design": {"family": "pciod", "relays": 4}, "variant": "gnaf2",
                    "snr_db": SNR_GRID, "trials": 4096,
                    "constellation": {"type": "lattice", "points": 2}}
SWEEPS = {
    # 4 groups of 4 lattice points: each group search scores 16 candidates,
    # so channel draw, model build, whitening and the Gram check carry the time.
    "sweep-grouped": {**_PCIOD4_LATTICE2, "receiver": "grouped-ml"},
    # The same sweep decoded jointly over all 256 codewords.
    "sweep-joint": {**_PCIOD4_LATTICE2, "receiver": "joint-ml"},
    # Linear receiver, one spawn pool per SNR point with as many workers as cores.
    "sweep-pool": {"design": {"family": "toeplitz", "relays": 2, "t1": 2},
                   "variant": "gnaf2", "snr_db": SNR_GRID, "trials": 20000,
                   "receiver": "zf", "workers": 2},
}

# Trials of the independent reference SER estimate at the first grid point.
REF_TRIALS = 2000
# Spawn key that separates the reference generator from every program stream.
REF_STREAM = 0xBE4C

CERTIFY_CHECKS = ("clro", "group", "whitened")
CERTIFY_DRAWS = 50


@dataclasses.dataclass(frozen=True)
class Step:
    name: str
    ops: int
    run: Callable[[], object]      # one call into dstc


class Sweep:
    """A `dstc pipeline` job: its check suite, then the Monte Carlo sweep."""

    def __init__(self, name: str, sim, resolved: dict, relays):
        self.name, self.sim, self.resolved, self.relays = name, sim, resolved, relays
        self.pooled = sim.resolved_workers() > 1
        self.steps = (
            Step("checks", len(PIPELINE_CHECKS), lambda: cli.run_checks(
                self.sim.design, PIPELINE_CHECKS, PIPELINE_CONSTELLATION,
                PIPELINE_DRAWS, self.sim.seed)),
            Step("sweep", len(sim.snr_db), lambda: gnaf_sim.run_monte_carlo(self.sim)),
        )

    @property
    def trials_per_round(self) -> int:
        return self.sim.trials * len(self.sim.snr_db)

    def replaced(self, **changes) -> "Sweep":
        """The same sweep with some SimConfig fields changed."""
        return Sweep(self.name, dataclasses.replace(self.sim, **changes),
                     self.resolved, self.relays)

    def csv(self, results) -> str:
        """The results.csv text `dstc pipeline` writes for these results."""
        return gnaf_sim.results_to_csv(
            results, {"config": json.dumps(self.resolved, sort_keys=True)})

    def check(self, rounds) -> list[str]:
        sim, book = self.sim, self.sim.codebook
        reports = [o["checks"] for o in rounds if "checks" in o]
        sweeps = [o["sweep"] for o in rounds if "sweep" in o]
        fails = [f for r in reports for f in checks.check_reports_pass(r)]
        if not sweeps:
            return fails
        first = sweeps[0]
        if any(s != first for s in sweeps[1:]):
            fails.append("rounds on identical inputs gave different results")
        fails += checks.check_decisions(first, sim.snr_db, sim.trials, book.n_groups)
        if sim.receiver == "grouped-ml":
            fails += checks.check_no_fallbacks(first)
        if sim.receiver == "joint-ml":
            grouped = gnaf_sim.run_monte_carlo(dataclasses.replace(sim, receiver="grouped-ml"))
            fails += checks.check_same_errors(first, grouped)
        if self.pooled:
            serial = gnaf_sim.run_monte_carlo(dataclasses.replace(sim, workers=None))
            fails += checks.check_same_bytes(self.csv(first), self.csv(serial))
        ref_errors = reference_errors(sim, self.relays, REF_TRIALS)
        fails += checks.check_ser_agrees(first[0].errors, sim.trials, ref_errors,
                                         REF_TRIALS, book.n_groups)
        return fails


def _cn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def reference_errors(sim, relays, trials: int) -> int:
    """Symbol errors at the first grid point, simulated trial by trial.

    Channels, symbols and noise come from a numpy generator keyed apart from
    the program's streams. Each trial runs the physical two-phase protocol
    (simulate_trial, mode "two_phase"), whitens by the inverse square root of
    the exact noise covariance, and decides with the brute-force ML or the
    least-squares receiver of checks.py. The model matrix is read off the
    protocol itself: by real-linearity, column k is the noiseless reception
    of the k-th unit symbol vector.
    """
    d, book = sim.design, sim.codebook
    params = gnaf_sim.protocol_params(d, 10.0 ** (sim.snr_db[0] / 10.0),
                                      sim.variant, sim.pi, rs=relays)
    rng = np.random.default_rng([sim.seed, REF_STREAM])
    codewords = checks.product_codewords(book.group_values, book.groups)
    indices = np.array(list(itertools.product(*[range(s) for s in book.group_sizes])))
    silent = NoiseDraw(np.zeros(params.t1), np.zeros(params.t2),
                       np.zeros((params.r, params.t1)))

    def receive(x, ch, noise):
        s = x[0::2] + 1j * x[1::2]
        return gnaf_sim.simulate_trial(d, params, ch, s, mode="two_phase",
                                       noise=noise, rs=relays)

    errors = 0
    for _ in range(trials):
        z = _cn(rng, 2 * d.r + 1)
        ch = ChannelRealization(complex(z[0]), z[1:d.r + 1], z[d.r + 1:])
        sent = int(rng.integers(len(codewords)))
        noise = NoiseDraw(_cn(rng, params.t1), _cn(rng, params.t2),
                          _cn(rng, params.r, params.t1))
        evals, evecs = np.linalg.eigh(gnaf_sim.noise_cov(params, ch, relays))
        white = (evecs / np.sqrt(evals)) @ evecs.conj().T
        y = white @ receive(codewords[sent], ch, noise)
        basis = white @ np.stack([receive(e, ch, silent) for e in np.eye(book.k)], axis=1)
        if sim.receiver in ("joint-ml", "grouped-ml"):
            decided = indices[checks.ml_decide(y, basis, codewords)]
        else:
            decided = checks.zf_decide(y, basis, book.group_values, book.groups)
            if decided is None:           # an erasure errs in every group
                decided = [-1] * book.n_groups
        errors += int(np.sum(np.asarray(decided) != indices[sent]))
    return errors


def _detached(result):
    """(minimum, witness) with the witness copied out of the program's array.

    The witness min_delta_det_full returns is a view into the whole
    difference set (369 MB for golden QAM16); keeping it for the checks
    would pin one such set per round and grow the peak memory with the
    round count.
    """
    value, witness = result
    return value, None if witness is None else np.array(witness)


class Certify:
    """The `dstc verify` suite and exhaustive determinant minima, no Monte Carlo."""

    pooled = False
    trials_per_round = 0

    def __init__(self, seed: int):
        pciod4 = designs.build_family("pciod", 4)
        golden = designs.build_family("cda", 2)
        toeplitz = designs.build_family("toeplitz", 2, 2)
        qam36 = qam_codebook(toeplitz.n_complex, 36, normalize=False)
        # name -> (design, codebook or explicit codeword list)
        self.cases = {
            "pciod4-lattice2": (pciod4, cli._constellation_book(pciod4, "lattice2")),
            "pciod4-qam4": (pciod4, cli._constellation_book(pciod4, "qam4")),
            # the determinant-floor probe: integer QAM, as verifier.nvd_probe uses
            "golden-qam4": (golden, qam_codebook(golden.n_complex, 4, normalize=False)),
            "golden-qam16": (golden, qam_codebook(golden.n_complex, 16, normalize=False)),
            "toeplitz-qam36-pairs": (toeplitz, qam36.enumerate_x()),
            "toeplitz-qam36-product": (toeplitz, qam36),
        }
        self.steps = (Step("checks", len(CERTIFY_CHECKS), lambda: cli.run_checks(
            pciod4, CERTIFY_CHECKS, "lattice2", CERTIFY_DRAWS, seed)),) + tuple(
            Step(name, 1, lambda d=d, book=book: _detached(verifier.min_delta_det_full(d, book)))
            for name, (d, book) in self.cases.items())

    def check(self, rounds) -> list[str]:
        fails = [f for o in rounds if "checks" in o
                 for f in checks.check_reports_pass(o["checks"])]
        minima = {}
        for name, (d, _) in self.cases.items():
            got = [o[name] for o in rounds if name in o]
            if not got:
                continue
            value, witness = got[0]
            if any(v != value or not np.array_equal(w, witness) for v, w in got[1:]):
                fails.append(f"{name}: rounds on identical inputs gave different minima")
            fails += [f"{name}: {f}" for f in checks.check_min_at_witness(d.weights, value, witness)]
            minima[name] = (value, witness)
        if "pciod4-lattice2" in minima:
            d, book = self.cases["pciod4-lattice2"]
            brute = checks.brute_force_min_det(
                d.weights, checks.product_codewords(book.group_values, book.groups))
            fails += checks.check_equal_minima(minima["pciod4-lattice2"][0], brute,
                                               "pciod4 lattice2 against all codeword pairs")
        if "golden-qam4" in minima and "golden-qam16" in minima:
            fails += checks.check_nvd_floor(minima["golden-qam4"][0], minima["golden-qam16"][0])
        if "pciod4-qam4" in minima:
            fails += checks.check_rank_deficient(self.cases["pciod4-qam4"][0].weights,
                                                 *minima["pciod4-qam4"])
        if "toeplitz-qam36-pairs" in minima and "toeplitz-qam36-product" in minima:
            fails += checks.check_equal_minima(minima["toeplitz-qam36-pairs"][0],
                                               minima["toeplitz-qam36-product"][0],
                                               "pairwise path against product path")
        return fails


def build(name: str, seed: int):
    """Resolve a workload's inputs (what setup_s times after the import)."""
    if name == "certify":
        return Certify(seed)
    sim, resolved = cli._sim_config({**SWEEPS[name], "seed": seed})
    return Sweep(name, sim, resolved, designs.relay_matrix_set(sim.design))
