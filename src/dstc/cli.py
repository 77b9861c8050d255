"""Command line surface: construct / verify / simulate / tradeoff / pipeline.

Every run is reproducible from its config and the single --seed flag; output
files embed the fully resolved configuration. Exit codes: 0 ok, 2 a
requested verification failed, 3 config error, 4 exhaustive-enumeration
guard refused the request.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, dmg, verifier
from .designs import (Design, build_family, load_design, relay_matrix_set,
                      save_design)
from .gnaf_sim import (VARIANTS, SimConfig, check_count, protocol_params,
                       results_to_csv, run_monte_carlo, snr_power)
from .precoding import (RotatedLattice, default_lattice, load_rotation,
                        pam_alphabet)
from .receivers import (Codebook, ResourceGuardError, lattice_codebook,
                        pam_codebook, qam_codebook)

OK, VERIFY_FAIL, CONFIG_ERROR, GUARD = 0, 2, 3, 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _resolve_design(spec) -> Design | None:
    if spec is None:
        raise ConfigError("config needs a 'design' entry")
    if isinstance(spec, str):
        spec = {"path": spec}
    if "path" in spec:
        return load_design(spec["path"])
    for key in ("relays", "t1"):
        check_count(key, spec.get(key, 0), 0)
    family = spec.get("family")
    if family == "direct":
        return None
    try:
        return build_family(family, spec.get("relays", 0), spec.get("t1", 0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_codebook(d: Design | None, spec, t1: int = 0) -> Codebook:
    spec = spec or {"type": "pam", "points": 2}
    kind = spec.get("type", "pam")
    points = spec.get("points", 2)
    if isinstance(points, (int, float)) and points < 2:
        raise ConfigError(f"a constellation needs at least 2 points, got {points}")
    check_count("points", points, 2)
    if d is None:
        if t1 < 1:
            raise ConfigError("direct transmission needs t1 >= 1")
        if kind == "lattice":
            raise ConfigError("direct transmission takes a qam or pam "
                              "constellation, not a lattice")
        n_complex = t1
        partition = tuple((2 * i, 2 * i + 1) for i in range(t1))
    else:
        n_complex = d.n_complex
        partition = d.partition if len(d.partition) > 1 else tuple((i,) for i in range(d.k))
    if kind == "qam":
        try:
            return qam_codebook(n_complex, points)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "pam":
        return pam_codebook(partition, points)
    if kind == "lattice":
        n = len(partition[0])
        if any(len(g) != n for g in partition):
            raise ConfigError("lattice constellation needs equal-size groups")
        if spec.get("rotation_file"):
            g = load_rotation(spec["rotation_file"])
            lattice = RotatedLattice(n, g, pam_alphabet(points))
        else:
            lattice = default_lattice(n, points)
        return lattice_codebook(partition, lattice)
    raise ConfigError(f"unknown constellation type {kind!r}")


def _parse_snr(spec) -> tuple[float, ...]:
    """The SNR grid in dB, from a list of points or "start:step:stop".

    Raises ConfigError for a grid the simulator cannot run: a part that is
    not finite, a point whose linear power is not finite and positive
    (snr_power), or an empty grid.
    """
    if isinstance(spec, (list, tuple)):
        grid = [float(v) for v in spec]
    else:
        try:
            start, step, stop = (float(v) for v in str(spec).split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad SNR grid {spec!r}; use start:step:stop") from exc
        if not 0 < step < math.inf:
            raise ConfigError("SNR step must be positive and finite")
        # both ends first: stepping from an end beyond the range of powers
        # might never reach the other one
        _check_snr(spec, (start, stop))
        grid = []
        v = start
        while v <= stop + 1e-9:
            grid.append(round(v, 9))
            v += step
    if not grid:
        raise ConfigError(f"SNR grid {spec!r} has no points")
    _check_snr(spec, grid)
    return tuple(grid)


def _check_snr(spec, points) -> None:
    try:
        for v in points:
            snr_power(v)
    except ValueError as exc:
        raise ConfigError(f"SNR grid {spec!r}: {exc}") from exc


def _sim_config(cfg: dict) -> tuple[SimConfig, dict]:
    d = _resolve_design(cfg.get("design"))
    variant = cfg.get("variant", "gnaf2")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; known: {VARIANTS}")
    dspec = cfg.get("design")
    t1 = dspec.get("t1", 0) if isinstance(dspec, dict) else 0
    book = _resolve_codebook(d, cfg.get("constellation"), t1=t1)
    sim = SimConfig(
        design=d,
        codebook=book,
        receiver=cfg.get("receiver", "joint-ml"),
        snr_db=_parse_snr(cfg.get("snr_db", "0:5:20")),
        trials=cfg.get("trials", 10000),
        seed=cfg.get("seed", 0),
        variant=variant,
        pi=tuple(float(v) for v in cfg.get("pi", (1.0, 1.0, 1.0))),
        batch_size=cfg.get("batch_size", 4096),
        workers=cfg.get("workers"),
    )
    resolved = {
        "version": __version__,
        "design": dspec,
        "variant": sim.variant,
        "pi": list(sim.pi),
        "snr_db": list(sim.snr_db),
        "trials": sim.trials,
        "receiver": sim.receiver,
        "seed": sim.seed,
        "batch_size": sim.batch_size,
        "constellation": cfg.get("constellation", {"type": "pam", "points": 2}),
        "rotation": (None if book.lattice is None else
                     (cfg.get("constellation") or {}).get("rotation_file", "builtin")),
    }
    return sim, resolved


# ---------------------------------------------------------------------------
# verification driver shared by `verify` and `pipeline`
# ---------------------------------------------------------------------------

ALL_CHECKS = ("clro", "group", "whitened", "fulldiv", "nvd")


def run_checks(d: Design, checks, constellation: str, draws: int, seed: int,
               nvd_sizes=(4, 16)) -> list[verifier.VerifierReport]:
    reports = []
    rs = None
    for check in checks:
        if check == "clro":
            reports.append(verifier.check_clro(d))
        elif check == "group":
            reports.append(verifier.check_group_decodable(d.weights, d.partition))
        elif check == "whitened":
            rs = rs or relay_matrix_set(d)
            params = protocol_params(d, p=10.0, rs=rs)
            reports.append(verifier.check_whitened_group_decodable(
                d, d.partition, params, n_draws=draws, seed=seed))
        elif check == "fulldiv":
            book = _constellation_book(d, constellation)
            val, witness = verifier.min_delta_det_full(d, book)
            zero = verifier.det_zero_threshold(d, book)
            diverse = bool(val > zero)
            reports.append(verifier.VerifierReport(
                "full_diversity", diverse, float(val),
                None if diverse or witness is None else witness.tolist(),
                {"constellation": constellation, "threshold": zero}))
        elif check == "nvd":
            probe = verifier.nvd_probe(d, nvd_sizes)
            worst = min(v for _, v in probe.entries)
            reports.append(verifier.VerifierReport(
                "nvd_probe", probe.non_vanishing, worst, None,
                {"entries": [list(e) for e in probe.entries],
                 "threshold": probe.threshold}))
        else:
            raise ConfigError(f"unknown check {check!r}; known: {ALL_CHECKS}")
    return reports


def _constellation_book(d: Design, name: str) -> Codebook:
    """The codebook named qamN, pamN or latticeN, built by _resolve_codebook."""
    name = name.lower()
    for kind in ("qam", "pam", "lattice"):
        if name.startswith(kind):
            if kind == "lattice" and len(d.partition) < 2:
                raise ConfigError("lattice constellation needs a grouped design")
            return _resolve_codebook(d, {"type": kind, "points": int(name[len(kind):])})
    raise ConfigError(f"unknown constellation {name!r} (qamN, pamN or latticeN)")


def _report_json(reports) -> dict:
    return {"checks": [
        {"check": r.check, "passed": r.passed, "margin": r.margin,
         "witness": _jsonable(r.witness), "details": _jsonable(r.details)}
        for r in reports]}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    try:
        d = build_family(args.family, args.relays, args.t1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    save_design(d, args.out)
    clro = verifier.check_clro(d)
    print(f"{d.family}: T={d.t} R={d.r} K={d.k}")
    print(f"partition: {[list(g) for g in d.partition]}")
    print(f"clro: {'pass' if clro.passed else 'FAIL'}")
    print(f"wrote {args.out}")
    return OK


def cmd_verify(args) -> int:
    d = load_design(args.design)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    reports = run_checks(d, checks, args.constellation, args.draws, args.seed,
                         nvd_sizes=tuple(int(s) for s in args.nvd_sizes.split(",")))
    for r in reports:
        print(r)
    if args.out:
        Path(args.out).write_text(json.dumps(_report_json(reports), indent=1))
    return OK if all(r.passed for r in reports) else VERIFY_FAIL


def cmd_simulate(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    sim, resolved = _sim_config(cfg)
    results = run_monte_carlo(sim)
    text = results_to_csv(results, {"config": json.dumps(resolved, sort_keys=True)})
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return OK


def cmd_tradeoff(args) -> int:
    text = dmg.emit_curves(args.relays, args.samples)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return OK


def cmd_pipeline(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    sim, resolved = _sim_config(cfg)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    checks = cfg.get("checks", ["clro", "group"])
    reports = []
    if sim.design is not None and checks:
        draws = cfg.get("draws", 20)
        check_count("draws", draws, 1)
        reports = run_checks(sim.design, checks,
                             cfg.get("verify_constellation", "qam4"),
                             draws, sim.seed)
    report_doc = {"config": resolved, **_report_json(reports)}
    (outdir / "report.json").write_text(json.dumps(report_doc, indent=1))
    failed = [r for r in reports if not r.passed]
    if failed and not args.force:
        for r in failed:
            print(r, file=sys.stderr)
        print("verification failed; simulation aborted (--force to override)",
              file=sys.stderr)
        return VERIFY_FAIL

    results = run_monte_carlo(sim)
    text = results_to_csv(results, {"config": json.dumps(resolved, sort_keys=True)})
    (outdir / "results.csv").write_text(text)
    print(f"wrote {outdir / 'report.json'} and {outdir / 'results.csv'}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dstc",
        description="distributed space-time codes for amplify-and-forward "
                    "relay networks")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a design and write it to JSON")
    c.add_argument("--family", required=True,
                   help="pciod | pciod-rect | ciod4 | toeplitz | cda")
    c.add_argument("--relays", type=int, default=0)
    c.add_argument("--t1", type=int, default=0, help="toeplitz symbol count")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="run algebraic checks on a design file")
    v.add_argument("--design", required=True)
    v.add_argument("--checks", default="clro,group")
    v.add_argument("--constellation", default="qam4")
    v.add_argument("--draws", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--nvd-sizes", default="4,16")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo error-rate sweep")
    s.add_argument("--config", required=True, help="JSON run config")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_simulate)

    t = sub.add_parser("tradeoff", help="emit tradeoff bound curves as CSV")
    t.add_argument("--relays", type=int, required=True)
    t.add_argument("--samples", type=int, default=101)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("pipeline", help="verify then simulate, bundling outputs")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true",
                   help="simulate even if verification fails")
    p.set_defaults(fn=cmd_pipeline)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return GUARD
    except (ConfigError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
