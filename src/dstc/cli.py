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
from .designs import (FAMILIES, Design, build_family, check_count, load_design,
                      relay_matrix_set, save_design)
from .gnaf_sim import (SimConfig, protocol_params, results_to_csv,
                       run_monte_carlo, snr_power)
from .precoding import (RotatedLattice, default_lattice, load_rotation,
                        pam_alphabet)
from .receivers import (Codebook, ResourceGuardError, lattice_codebook,
                        pam_codebook, qam_codebook)

OK, VERIFY_FAIL, CONFIG_ERROR, GUARD = 0, 2, 3, 4

# The check stage's defaults: `dstc pipeline` reads them as config keys,
# and `dstc verify` as its --checks, --constellation and --draws flags;
# the QAM sizes the nvd check probes are a `dstc verify` flag only.
_CHECK_DEFAULTS = {"checks": ["clro", "group"], "verify_constellation": "qam4",
                  "draws": 20}
_NVD_SIZES = (4, 16)
# An absent or null constellation entry, and the defaults of an object
_DEFAULT_CONSTELLATION = {"type": "pam", "points": 2}
# The SimConfig fields a run config sets, and the config keys dstc reads
_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(SimConfig)
                    if f.name not in ("design", "codebook"))
_CONFIG_KEYS = ("design", "constellation", *_RUN_FIELDS, *_CHECK_DEFAULTS)
# More points than any sweep needs; it bounds a "start:step:stop" range
_MAX_SNR_POINTS = 10_000


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


def _check_keys(spec: dict, known, entry: str | None = None) -> None:
    """Refuse a key that nothing reads, at the top of a run config or in
    its object ``entry``."""
    for key in spec:
        if key not in known:
            where = f"{entry!r} has unknown key {key!r}" if entry else f"{key!r} is unknown"
            raise ValueError(f"config entry {where}; known: {sorted(known)}")


def _resolve_design(spec) -> Design:
    """The design a config's ``design`` entry names: a design file's path,
    or a family with the counts it reads (designs.build_family)."""
    if spec is None:
        raise ValueError("config needs a 'design' entry")
    _check_type("design", spec, (str, dict), "a path or an object")
    if isinstance(spec, str):
        spec = {"path": spec}
    if "path" in spec:
        _check_keys(spec, ("path",), "design")
        # open() takes a number for a file descriptor
        _check_type("path", spec["path"], str, "a string")
        return load_design(spec["path"])
    _check_keys(spec, ("family", "relays", "t1"), "design")
    counts = {key: value for key, value in spec.items() if key != "family"}
    # build_family takes None for a count not given
    if None in counts.values():
        raise ValueError("config entry 'design' gives a count as null; "
                         "leave out a count not given")
    return build_family(spec.get("family"), **counts)


def _resolve_codebook(d: Design, spec) -> Codebook:
    """The codebook a constellation entry names, grouped as the design is.

    PAM takes the design's partition; a design with relays and a single
    group gets one group per real symbol instead. The relay-free design
    keeps its groups, one per complex symbol, and refuses a lattice. An
    absent or null entry is _DEFAULT_CONSTELLATION, and so are the defaults
    of an object.
    """
    if spec is None:
        spec = {}
    _check_type("constellation", spec, dict, "an object")
    _check_keys(spec, (*_DEFAULT_CONSTELLATION, "rotation_file"), "constellation")
    spec = {**_DEFAULT_CONSTELLATION, **spec}
    kind, points = spec["type"], spec["points"]
    check_count("points", points, 2)
    if "rotation_file" in spec:
        _check_type("rotation_file", spec["rotation_file"], str, "a string")
        if not spec["rotation_file"]:
            raise ValueError("config entry 'rotation_file' must name a file, got ''")
        if kind != "lattice":
            raise ValueError(f"config entry 'rotation_file' is read only for a "
                             f"lattice, not for type {kind!r}")
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
        if "rotation_file" in spec:
            g = load_rotation(spec["rotation_file"])
            lattice = RotatedLattice(n, g, pam_alphabet(points))
        else:
            lattice = default_lattice(n, points)
        return lattice_codebook(partition, lattice)
    raise ValueError(f"unknown constellation type {kind!r}")


def _parse_snr(spec) -> tuple[float, ...]:
    """The SNR grid in dB, from a list of points or "start:step:stop".

    A range's points are rounded to 1e-9 dB and end at most 1e-9 past
    ``stop``. Raises ValueError for a string that is not three numbers, a
    step that is not finite or is below that rounding, an end without a
    finite positive linear power (snr_power), or a range of more than
    _MAX_SNR_POINTS points. SimConfig checks the points of the grid.
    """
    if isinstance(spec, (list, tuple)):
        for v in spec:
            _check_type("snr_db", v, numbers.Real, "a list of numbers")
        return tuple(float(v) for v in spec)
    try:
        start, step, stop = (float(v) for v in str(spec).split(":"))
    except ValueError as exc:
        raise ValueError(f"bad SNR grid {spec!r}; use start:step:stop") from exc
    if not 1e-9 <= step < math.inf:
        raise ValueError(f"SNR step must be finite and at least 1e-9, got {step!r}")
    snr_power(start)
    snr_power(stop)
    n = max(0, math.floor((stop + 1e-9 - start) / step) + 1)
    if n > _MAX_SNR_POINTS:
        raise ValueError(f"SNR grid {spec!r} has {n} points; at most "
                         f"{_MAX_SNR_POINTS} are allowed")
    return tuple(round(start + i * step, 9) for i in range(n))


def _sim_config(cfg: dict) -> tuple[SimConfig, dict]:
    """The run a config describes, and the config to record with its output.

    Only the keys the config gives reach SimConfig, whose defaults fill
    the rest. The recorded config is read off the SimConfig that ran: the
    package version, the raw ``design`` entry, every run field but
    ``workers``, the raw ``constellation`` entry and the ``rotation`` used.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"a run config must be a JSON object, got {cfg!r}")
    _check_keys(cfg, _CONFIG_KEYS)
    d = _resolve_design(cfg.get("design"))
    book = _resolve_codebook(d, cfg.get("constellation"))
    run = {key: cfg[key] for key in _RUN_FIELDS if key in cfg}
    if "snr_db" in run:
        run["snr_db"] = _parse_snr(run["snr_db"])
    sim = SimConfig(design=d, codebook=book, **run)
    resolved = {
        "version": __version__,
        "design": cfg.get("design"),
        **{key: getattr(sim, key) for key in _RUN_FIELDS if key != "workers"},
        "constellation": cfg.get("constellation", _DEFAULT_CONSTELLATION),
        "rotation": (None if book.lattice is None else
                     cfg["constellation"].get("rotation_file", "builtin")),
    }
    return sim, resolved


# ---------------------------------------------------------------------------
# verification driver shared by `verify` and `pipeline`
# ---------------------------------------------------------------------------

# check name -> the verifier call that makes its verdict (run_checks)
_CHECKS = {
    "clro": lambda d, **_: verifier.check_clro(d),
    "group": lambda d, **_: verifier.check_group_decodable(d.weights, d.partition),
    "whitened": lambda d, draws, seed, **_: verifier.check_whitened_group_decodable(
        d, d.partition, protocol_params(d, p=10.0, rs=relay_matrix_set(d)),
        n_draws=draws, seed=seed),
    "fulldiv": lambda d, constellation, **_: verifier.check_full_diversity(
        d, _constellation_book(d, constellation), constellation),
    "nvd": lambda d, nvd_sizes, **_: verifier.nvd_probe(d, nvd_sizes),
}


def _check_names(checks) -> None:
    """Refuse an entry of ``checks`` that names no check of _CHECKS."""
    for check in checks:
        if not isinstance(check, str) or check not in _CHECKS:
            raise ValueError(f"unknown check {check!r}; known: {tuple(_CHECKS)}")


def run_checks(d: Design, checks, constellation: str, draws: int, seed: int,
               nvd_sizes=_NVD_SIZES) -> list[verifier.VerifierReport]:
    """The verifier's reports for the named checks, in the order named.

    Each name maps to one verifier call (_CHECKS), which makes the verdict:
    "whitened" runs ``draws`` channel draws from ``seed`` at p = 10,
    "fulldiv" scores the codebook ``constellation`` names
    (_constellation_book), and "nvd" probes the integer QAM sizes
    ``nvd_sizes``. An unknown name raises ValueError before any check runs.
    """
    _check_names(checks)
    return [_CHECKS[check](d, constellation=constellation, draws=draws, seed=seed,
                           nvd_sizes=nvd_sizes) for check in checks]


def _constellation_book(d: Design, name: str) -> Codebook:
    """The codebook named qamN, pamN or latticeN: _resolve_codebook's for
    the constellation object of that type with N points."""
    name = name.lower()
    for kind in ("qam", "pam", "lattice"):
        if name.startswith(kind):
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


def _sweep_csv(sim: SimConfig, resolved: dict) -> str:
    """The results CSV of the sweep ``sim``, headed by its recorded config."""
    return results_to_csv(run_monte_carlo(sim),
                          {"config": json.dumps(resolved, sort_keys=True)})


def _write_out(text: str, out) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    _write_out(_sweep_csv(*_sim_config(json.loads(Path(args.config).read_text()))),
               args.out)
    return OK


def cmd_tradeoff(args) -> int:
    _write_out(dmg.emit_curves(args.relays, args.samples), args.out)
    return OK


def cmd_pipeline(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    sim, resolved = _sim_config(cfg)
    opts = {key: cfg.get(key, default) for key, default in _CHECK_DEFAULTS.items()}
    _check_type("checks", opts["checks"], list, "a list of check names")
    _check_names(opts["checks"])
    check_count("draws", opts["draws"], 1)
    _check_type("verify_constellation", opts["verify_constellation"], str, "a name")
    # the relay-free design has no relays to check
    reports = run_checks(sim.design, opts["checks"], opts["verify_constellation"],
                         opts["draws"], sim.seed) if sim.design.r else []
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(_report_text(reports, config=resolved))
    failed = [r for r in reports if not r.passed]
    if failed and not args.force:
        for r in failed:
            print(r, file=sys.stderr)
        print("verification failed; simulation aborted (--force to override)",
              file=sys.stderr)
        return VERIFY_FAIL

    (outdir / "results.csv").write_text(_sweep_csv(sim, resolved))
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
    c.add_argument("--family", required=True, help=" | ".join(FAMILIES))
    c.add_argument("--relays", type=int)
    c.add_argument("--t1", type=int, help="source symbols of the broadcast phase")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="run algebraic checks on a design file")
    v.add_argument("--design", required=True)
    v.add_argument("--checks", default=",".join(_CHECK_DEFAULTS["checks"]))
    v.add_argument("--constellation", default=_CHECK_DEFAULTS["verify_constellation"])
    v.add_argument("--draws", type=int, default=_CHECK_DEFAULTS["draws"])
    v.add_argument("--seed", type=int, default=SimConfig.seed)
    v.add_argument("--nvd-sizes", default=",".join(map(str, _NVD_SIZES)))
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
