"""In-memory span tracer that wraps dstc's public functions from outside.

Each traced function is rebound, for the duration of ``Tracer.installed()``,
in the namespace its caller looks it up in: ``_run_batch`` calls
``ml_joint`` through the globals of ``dstc.gnaf_sim``, ``cli.run_checks``
calls ``verifier.check_clro`` through the ``dstc.verifier`` module, and
``min_delta_det_full`` calls ``difference_vectors`` on the ``Codebook``
class. Nothing under ``src/dstc`` changes, and leaving the context restores
every original.

A span is (name, start, end, parent). A span's self time is its duration
minus the durations of its direct children. Spans live in memory and are
written out when the run ends. Spawned pool workers import dstc afresh, so
work done inside them is not traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import time
from collections import Counter, defaultdict

import numpy as np

from dstc import cli, gnaf_sim, matkernel, receivers, verifier

# Per-layer metrics the traced run reports, with their units, in print order.
PER_LAYER = {
    "cli.import_s": "s", "cli.resolve_s": "s",
    "designs.relay_set_calls": "count", "designs.relay_set_s": "s",
    "gnaf_sim.rng_s": "s", "gnaf_sim.model_s": "s", "gnaf_sim.whiten_s": "s",
    "gnaf_sim.batch_self_s": "s", "gnaf_sim.batches": "count",
    "gnaf_sim.trials_per_s": "1/s", "gnaf_sim.pool_starts": "count",
    "gnaf_sim.pool_overhead_s": "s",
    "receivers.ml_joint_s": "s", "receivers.metric_evals": "count",
    "receivers.joint_tensor_mib": "MiB", "receivers.ml_grouped_s": "s",
    "receivers.fallbacks": "count", "receivers.zf_s": "s",
    "receivers.erasures": "count", "receivers.diff_enum_s": "s",
    "receivers.differences": "count",
    "verifier.det_s": "s", "verifier.dets_per_s": "1/s",
    "verifier.pairwise_s": "s", "verifier.whitened_s": "s",
    "verifier.algebra_s": "s",
    "matkernel.inv_sqrt_pd_calls": "count", "matkernel.inv_sqrt_pd_s": "s",
    "trace.overhead_s": "s",
}


def _batch_rows(y) -> int:
    return y.shape[0] if np.ndim(y) == 2 else 1


def _after_ml_joint(tracer, args, out):
    y, model, book = args[:3]
    b = _batch_rows(y)
    tracer.counts["metric_evals"] += b * book.size
    # the (batch, codewords, rows) complex128 signal tensor, from the shapes
    mib = b * book.size * np.shape(model)[-2] * 16 / 2 ** 20
    tracer.peak_tensor_mib = max(tracer.peak_tensor_mib, mib)


def _after_ml_grouped(tracer, args, out):
    y, _, book = args[:3]
    tracer.counts["metric_evals"] += _batch_rows(y) * sum(book.group_sizes)


def _after_zf(tracer, args, out):
    tracer.counts["erasures"] += int(np.sum(np.asarray(out) < 0))


def _after_differences(tracer, args, out):
    tracer.counts["differences"] += len(out)


def _after_monte_carlo(tracer, args, out):
    tracer.counts["fallbacks"] += sum(r.fallbacks for r in out)


def _det_span(args) -> str:
    path = "product" if isinstance(args[1], receivers.Codebook) else "pairs"
    return f"verifier.min_delta_det.{path}"


# (namespace, attribute, span name or name-of-arguments, hook after the call)
_TARGETS = (
    (cli, "run_checks", "cli.run_checks", None),
    (cli, "relay_matrix_set", "designs.relay_set", None),
    (gnaf_sim, "run_monte_carlo", "gnaf_sim.run_monte_carlo", _after_monte_carlo),
    (gnaf_sim, "_run_batch", "gnaf_sim.batch", None),
    (gnaf_sim, "relay_matrix_set", "designs.relay_set", None),
    (gnaf_sim, "make_rng", "gnaf_sim.rng", None),
    (gnaf_sim, "crandn", "gnaf_sim.rng", None),
    (gnaf_sim, "effective_matrix", "gnaf_sim.model", None),
    (gnaf_sim, "omega_diagonals", "gnaf_sim.whiten", None),
    (gnaf_sim, "ml_joint", "receivers.ml_joint", _after_ml_joint),
    (gnaf_sim, "ml_grouped", "receivers.ml_grouped", _after_ml_grouped),
    (gnaf_sim, "zf_detect", "receivers.zf", _after_zf),
    (receivers.Codebook, "difference_vectors", "receivers.diff_enum", _after_differences),
    (verifier, "relay_matrix_set", "designs.relay_set", None),
    (verifier, "make_rng", "gnaf_sim.rng", None),
    (verifier, "check_clro", "verifier.algebra", None),
    (verifier, "check_group_decodable", "verifier.algebra", None),
    (verifier, "check_whitened_group_decodable", "verifier.whitened", None),
    (verifier, "min_delta_det_full", _det_span, None),
    (matkernel, "inv_sqrt_pd", "matkernel.inv_sqrt_pd", None),
)


class _PoolCountingContext:
    """A multiprocessing context whose Pool() starts are recorded as spans."""

    def __init__(self, ctx, tracer):
        self._ctx, self._tracer = ctx, tracer

    def Pool(self, *args, **kwargs):
        with self._tracer.span("gnaf_sim.pool_start"):
            return self._ctx.Pool(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.peak_tensor_mib = 0.0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, name, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to a traced wrapper; restore on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TARGETS]
        get_context = multiprocessing.get_context
        try:
            for owner, attr, name, after in _TARGETS:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, after))
            multiprocessing.get_context = \
                lambda method=None: _PoolCountingContext(get_context(method), self)
            yield self
        finally:
            multiprocessing.get_context = get_context
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all spans of that name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def total_outside(self, name: str, enclosing: str) -> float:
        """Total duration of ``name`` spans whose parent is not ``enclosing``."""
        return sum(end - start for n, start, end, parent in self.spans
                   if n == name and (parent < 0 or self.spans[parent][0] != enclosing))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - self.origin, end - self.origin,
                                     parent]) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, trials_per_round: int) -> dict:
    """Per-round layer metrics from the spans of ``rounds`` traced rounds."""
    s = tracer.summary()

    def per_round(name, key="total_s"):
        return s[name][key] / rounds if name in s else 0.0

    sweep_s = per_round("gnaf_sim.run_monte_carlo")
    det_s = per_round("verifier.min_delta_det.product", "self_s")
    differences = tracer.counts["differences"] / rounds
    return {
        "designs.relay_set_calls": per_round("designs.relay_set", "calls"),
        "designs.relay_set_s": per_round("designs.relay_set"),
        "gnaf_sim.rng_s": per_round("gnaf_sim.rng"),
        "gnaf_sim.model_s": per_round("gnaf_sim.model"),
        "gnaf_sim.whiten_s": per_round("gnaf_sim.whiten"),
        "gnaf_sim.batch_self_s": per_round("gnaf_sim.run_monte_carlo", "self_s")
        + per_round("gnaf_sim.batch", "self_s"),
        "gnaf_sim.batches": per_round("gnaf_sim.batch", "calls"),
        "gnaf_sim.trials_per_s": trials_per_round / sweep_s if sweep_s else 0.0,
        "gnaf_sim.pool_starts": per_round("gnaf_sim.pool_start", "calls"),
        "receivers.ml_joint_s": per_round("receivers.ml_joint"),
        "receivers.metric_evals": tracer.counts["metric_evals"] / rounds,
        "receivers.joint_tensor_mib": tracer.peak_tensor_mib,
        "receivers.ml_grouped_s": per_round("receivers.ml_grouped"),
        "receivers.fallbacks": tracer.counts["fallbacks"] / rounds,
        "receivers.zf_s": per_round("receivers.zf"),
        "receivers.erasures": tracer.counts["erasures"] / rounds,
        "receivers.diff_enum_s": per_round("receivers.diff_enum"),
        "receivers.differences": differences,
        "verifier.det_s": det_s,
        "verifier.dets_per_s": differences / det_s if det_s else 0.0,
        "verifier.pairwise_s": per_round("verifier.min_delta_det.pairs"),
        "verifier.whitened_s": per_round("verifier.whitened"),
        "verifier.algebra_s": tracer.total_outside("verifier.algebra",
                                                   "verifier.whitened") / rounds,
        "matkernel.inv_sqrt_pd_calls": per_round("matkernel.inv_sqrt_pd", "calls"),
        "matkernel.inv_sqrt_pd_s": per_round("matkernel.inv_sqrt_pd"),
    }
