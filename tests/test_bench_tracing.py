"""The benchmark's tracer rebinds dstc functions by name; each name must exist.

bench/tracing.py wraps its targets in the namespaces their callers look
them up in. A target renamed or removed in dstc would otherwise fail only
the traced benchmark run, or leave its layer metric silently at 0.
"""

import importlib.util
import multiprocessing
from pathlib import Path

from dstc import gnaf_sim
from dstc.designs import build_pciod
from dstc.precoding import default_lattice
from dstc.receivers import lattice_codebook

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    tracing = _tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing._TARGETS]
    assert all(callable(fn) for fn in originals)
    get_context = multiprocessing.get_context
    tracer = tracing.Tracer()
    with tracer.installed():
        for (owner, attr, _, _), fn in zip(tracing._TARGETS, originals):
            assert getattr(owner, attr) is not fn
            assert getattr(owner, attr).__wrapped__ is fn
        assert multiprocessing.get_context is not get_context
        d = build_pciod(2)
        cfg = gnaf_sim.SimConfig(
            design=d, codebook=lattice_codebook(d.partition, default_lattice(1, 2)),
            receiver="joint-ml", snr_db=(4.0,), trials=8, seed=1)
        gnaf_sim.run_monte_carlo(cfg)
    for (owner, attr, _, _), fn in zip(tracing._TARGETS, originals):
        assert getattr(owner, attr) is fn
    assert multiprocessing.get_context is get_context
    # the sweep went through the rebound names: its detector and the noise
    # diagonal its statistics read left spans
    names = {span[0] for span in tracer.spans}
    assert {"gnaf_sim.run_monte_carlo", "gnaf_sim.batch", "gnaf_sim.whiten",
            "receivers.ml_joint"} <= names
    assert tracer.counts["metric_evals"] == 8 * 16
