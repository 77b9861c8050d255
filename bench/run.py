"""Benchmark of dstc: four workloads through the `pipeline` and `verify` entry points.

    python3 bench/run.py --workload sweep-grouped --seed 1 --seconds 20 --trace 0

Run from the repository root; dstc is imported from ``src/``. The process
times one cold set-up (``setup_s``: from this file's first statement through
``import dstc`` and resolving the workload's inputs), then runs whole rounds
of the workload until ``--seconds`` have passed, checks every round's
outputs, and prints each metric by name with its unit. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md in this directory.
"""

import time

T0 = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads; spawned pool workers inherit the
# environment, so two workers never oversubscribe two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
WORKLOADS = ("sweep-grouped", "sweep-joint", "sweep-pool", "certify")
END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak resident memory of the largest process: this one or a waited child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0          # ru_maxrss is in KiB on Linux


def run_rounds(workload, budget: float, tracer=None) -> list[dict]:
    """Whole rounds of the workload's steps within ``budget`` seconds.

    A round starts only if a round of the median length so far still ends
    within the budget. With a tracer, rounds alternate untraced and traced
    (at least one of each), so both see the same warm-up and machine load.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or (
            time.perf_counter() - start
            + statistics.median(r["solve_s"] for r in rounds) <= budget):
        traced = tracer is not None and len(rounds) % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            c0, t0 = cpu_seconds(), time.perf_counter()
            outputs, failed = {}, 0
            for step in workload.steps:
                try:
                    outputs[step.name] = step.run()
                except Exception as exc:     # counted as failed operations; the run goes on
                    failed += step.ops
                    print(f"{step.name} failed: {exc!r}", file=sys.stderr)
            rounds.append({"solve_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - c0,
                           "outputs": outputs, "failed": failed, "traced": traced})
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dstc" / "__init__.py").is_file():
        print(f"error: no dstc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import dstc
    from dstc import cli, gnaf_sim, verifier  # noqa: F401  (the layers the set-up loads)
    import_s = time.perf_counter() - t_import
    if Path(dstc.__file__).resolve().parent != SRC / "dstc":
        print(f"error: imported dstc from {dstc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    t_resolve = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    resolve_s = time.perf_counter() - t_resolve
    setup_s = time.perf_counter() - T0

    tracers = {}
    if args.trace:
        tracer = tracers["spans"] = tracing.Tracer()
        all_rounds = run_rounds(workload, args.seconds, tracer)
        traced = [r["solve_s"] for r in all_rounds if r["traced"]]
        untraced = [r["solve_s"] for r in all_rounds if not r["traced"]]
        metrics = tracing.layer_metrics(tracer, len(traced), workload.trials_per_round)
        pool_overhead = 0.0
        if workload.pooled:
            # Workers carry no wrappers: a serial replica of the same sweep
            # supplies the batch-side layers from its traced rounds, and the
            # pool's cost over a serial solve from its untraced ones.
            replica = tracers["replica-spans"] = tracing.Tracer()
            serial_rounds = run_rounds(workload.replaced(workers=None), args.seconds / 4,
                                       replica)
            all_rounds += serial_rounds
            metrics = {**tracing.layer_metrics(replica, sum(r["traced"] for r in serial_rounds),
                                               workload.trials_per_round),
                       "gnaf_sim.trials_per_s": metrics["gnaf_sim.trials_per_s"],
                       "gnaf_sim.pool_starts": metrics["gnaf_sim.pool_starts"]}
            pool_overhead = statistics.median(untraced) - statistics.median(
                r["solve_s"] for r in serial_rounds if not r["traced"])
        metrics.update({
            "cli.import_s": import_s, "cli.resolve_s": resolve_s,
            "gnaf_sim.pool_overhead_s": pool_overhead,
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        })
        units = tracing.PER_LAYER
    else:
        all_rounds = run_rounds(workload, args.seconds)
        units = END_TO_END

    failures = workload.check([r["outputs"] for r in all_rounds])
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "solve_s": statistics.median(r["solve_s"] for r in all_rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in all_rounds),
            "peak_rss_mib": peak_rss_mib(),
        }

    ops = sum(step.ops for step in workload.steps)
    result = {
        "correct": not failures,
        "attempted": ops * len(all_rounds),
        "failed": sum(r["failed"] for r in all_rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps({
        **result, "rounds": [{k: r[k] for k in ("solve_s", "cpu_s", "failed")}
                             for r in all_rounds]}, indent=1))
    for kind, tracer in tracers.items():
        tracer.write(RUNS / f"{stem}-{kind}.jsonl")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds: {len(all_rounds)}, operations: {result['attempted']}, "
          f"failed: {result['failed']}, correct: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
