"""Command line surface: construct / verify / simulate / tradeoff / pipeline.

Every run is reproducible from its config and the single --seed flag; output
files embed the fully resolved configuration. Exit codes: 0 ok, 2 a
requested verification failed, 3 config error, 4 exhaustive-enumeration
guard refused the request.

Each input fact is checked once, where it is used: the library refuses a
design, codebook, SNR point or simulation setting it cannot run with a
ValueError, and this module adds only the checks of its own config
syntax. ``main`` reports any ValueError, OSError or KeyError as one
``error:`` line and exit 3, without a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import __version__, dmg, verifier
from .designs import (Design, build_family, direct_design, load_design,
                      relay_matrix_set, save_design)
from .gnaf_sim import (SimConfig, check_count, protocol_params, results_to_csv,
                       run_monte_carlo, snr_power)
from .precoding import (RotatedLattice, default_lattice, load_rotation,
                        pam_alphabet)
from .receivers import (Codebook, ResourceGuardError, lattice_codebook,
                        pam_codebook, qam_codebook)

OK, VERIFY_FAIL, CONFIG_ERROR, GUARD = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _check_type(key: str, value, types, what: str) -> None:
    """Refuse a config entry whose JSON value is not of ``types``.

    No entry takes a JSON true or false, which Python reads as the numbers
    1 and 0.
    """
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"config entry {key!r} must be {what}, got {value!r}")


def _resolve_design(spec) -> Design:
    """The design a config's ``design`` entry names: a design file's path,
    or a family with its relay and symbol counts. The ``direct`` family is
    the relay-free design (direct_design)."""
    if spec is None:
        raise ValueError("config needs a 'design' entry")
    _check_type("design", spec, (str, dict), "a path or an object")
    if isinstance(spec, str):
        spec = {"path": spec}
    if "path" in spec:
        # open() takes a number for a file descriptor
        _check_type("path", spec["path"], str, "a string")
        return load_design(spec["path"])
    for key in ("relays", "t1"):
        check_count(key, spec.get(key, 0), 0)
    family = spec.get("family")
    if family == "direct":
        return direct_design(spec.get("t1", 0))
    return build_family(family, spec.get("relays", 0), spec.get("t1", 0))


def _resolve_codebook(d: Design, spec) -> Codebook:
    """The codebook a constellation entry names, grouped as the design is.

    PAM takes the design's partition; a design with relays and a single
    group gets one group per real symbol instead. The relay-free design
    keeps its groups, one per complex symbol, and refuses a lattice. An
    absent or null entry is PAM-2, and so are the defaults of an object.
    """
    if spec is None:
        spec = {"type": "pam", "points": 2}
    _check_type("constellation", spec, dict, "an object")
    kind = spec.get("type", "pam")
    points = spec.get("points", 2)
    check_count("points", points, 2)
    if not d.r and kind == "lattice":
        raise ValueError("direct transmission takes a qam or pam "
                         "constellation, not a lattice")
    partition = (d.partition if len(d.partition) > 1 or not d.r
                 else tuple((i,) for i in range(d.k)))
    if kind == "qam":
        return qam_codebook(d.n_complex, points)
    if kind == "pam":
        return pam_codebook(partition, points)
    if kind == "lattice":
        # Codebook refuses groups of another size than the lattice's
        n = len(partition[0])
        if spec.get("rotation_file"):
            _check_type("rotation_file", spec["rotation_file"], str, "a string")
            g = load_rotation(spec["rotation_file"])
            lattice = RotatedLattice(n, g, pam_alphabet(points))
        else:
            lattice = default_lattice(n, points)
        return lattice_codebook(partition, lattice)
    raise ValueError(f"unknown constellation type {kind!r}")


def _parse_snr(spec) -> tuple[float, ...]:
    """The SNR grid in dB, from a list of points or "start:step:stop".

    Raises ValueError for a string that is not three numbers, a step that
    is not finite and positive, or an end without a finite positive linear
    power (snr_power): stepping from such an end might never reach the
    other one. SimConfig checks the points of the grid.
    """
    if isinstance(spec, (list, tuple)):
        for v in spec:
            _check_type("snr_db", v, numbers.Real, "a list of numbers")
        return tuple(float(v) for v in spec)
    try:
        start, step, stop = (float(v) for v in str(spec).split(":"))
    except ValueError as exc:
        raise ValueError(f"bad SNR grid {spec!r}; use start:step:stop") from exc
    if not 0 < step < math.inf:
        raise ValueError("SNR step must be positive and finite")
    snr_power(start)
    snr_power(stop)
    grid = []
    v = start
    while v <= stop + 1e-9:
        grid.append(round(v, 9))
        v += step
    return tuple(grid)


def _sim_config(cfg: dict) -> tuple[SimConfig, dict]:
    d = _resolve_design(cfg.get("design"))
    book = _resolve_codebook(d, cfg.get("constellation"))
    sim = SimConfig(
        design=d,
        codebook=book,
        receiver=cfg.get("receiver", "joint-ml"),
        snr_db=_parse_snr(cfg.get("snr_db", "0:5:20")),
        trials=cfg.get("trials", 10000),
        seed=cfg.get("seed", 0),
        variant=cfg.get("variant", "gnaf2"),
        pi=cfg.get("pi", (1.0, 1.0, 1.0)),
        batch_size=cfg.get("batch_size", 4096),
        workers=cfg.get("workers"),
    )
    resolved = {
        "version": __version__,
        "design": cfg.get("design"),
        "variant": sim.variant,
        "pi": list(sim.pi),
        "snr_db": list(sim.snr_db),
        "trials": sim.trials,
        "receiver": sim.receiver,
        "seed": sim.seed,
        "batch_size": sim.batch_size,
        "constellation": cfg.get("constellation", {"type": "pam", "points": 2}),
        "rotation": (None if book.lattice is None else
                     cfg["constellation"].get("rotation_file", "builtin")),
    }
    return sim, resolved


# ---------------------------------------------------------------------------
# verification driver shared by `verify` and `pipeline`
# ---------------------------------------------------------------------------

def run_checks(d: Design, checks, constellation: str, draws: int, seed: int,
               nvd_sizes=(4, 16)) -> list[verifier.VerifierReport]:
    """The verifier's reports for the named checks, in the order named.

    Each name maps to one verifier call, which makes the verdict: "whitened"
    runs ``draws`` channel draws from ``seed`` at p = 10, "fulldiv" scores
    the codebook ``constellation`` names (_constellation_book), and "nvd"
    probes the integer QAM sizes ``nvd_sizes``. An unknown name raises
    ValueError before any check runs.
    """
    table = {
        "clro": lambda: verifier.check_clro(d),
        "group": lambda: verifier.check_group_decodable(d.weights, d.partition),
        "whitened": lambda: verifier.check_whitened_group_decodable(
            d, d.partition, protocol_params(d, p=10.0, rs=relay_matrix_set(d)),
            n_draws=draws, seed=seed),
        "fulldiv": lambda: verifier.check_full_diversity(
            d, _constellation_book(d, constellation), constellation),
        "nvd": lambda: verifier.nvd_probe(d, nvd_sizes),
    }
    for check in checks:
        if check not in table:
            raise ValueError(f"unknown check {check!r}; known: {tuple(table)}")
    return [table[check]() for check in checks]


def _constellation_book(d: Design, name: str) -> Codebook:
    """The codebook named qamN, pamN or latticeN, built by _resolve_codebook."""
    name = name.lower()
    for kind in ("qam", "pam", "lattice"):
        if name.startswith(kind):
            if kind == "lattice" and len(d.partition) < 2:
                raise ValueError("lattice constellation needs a grouped design")
            return _resolve_codebook(d, {"type": kind, "points": int(name[len(kind):])})
    raise ValueError(f"unknown constellation {name!r} (qamN, pamN or latticeN)")


def _report_text(reports, **head) -> str:
    """The JSON report of ``reports``, after the entries of ``head``."""
    doc = {**head, "checks": [dataclasses.asdict(r) for r in reports]}
    return json.dumps(doc, indent=1, default=_numpy_json)


def _numpy_json(obj):
    """The JSON value of a numpy array or scalar in a report; a complex
    number, such as a whitened witness's gain, is its [re, im] pair."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    d = build_family(args.family, args.relays, args.t1)
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
    if not checks:
        raise ValueError(f"--checks names no check: {args.checks!r}")
    reports = run_checks(d, checks, args.constellation, args.draws, args.seed,
                         nvd_sizes=tuple(int(s) for s in args.nvd_sizes.split(",")))
    for r in reports:
        print(r)
    if args.out:
        Path(args.out).write_text(_report_text(reports))
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
    _check_type("checks", checks, list, "a list of check names")
    reports = []
    # the relay-free design has no relays to check
    if sim.design.r and checks:
        draws = cfg.get("draws", 20)
        check_count("draws", draws, 1)
        constellation = cfg.get("verify_constellation", "qam4")
        _check_type("verify_constellation", constellation, str, "a name")
        reports = run_checks(sim.design, checks, constellation, draws, sim.seed)
    (outdir / "report.json").write_text(_report_text(reports, config=resolved))
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
