import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dstc import cli, verifier
from dstc.cli import _sim_config, main
from dstc.designs import (Design, build_toeplitz, design_to_dict, load_design,
                          save_design)
from dstc.gnaf_sim import SimConfig, protocol_params
from dstc.precoding import pam_alphabet
from dstc.receivers import qam_codebook


SEVEN_KEY_FILE = Path(__file__).parent / "data" / "pciod4_seven_keys.json"


def run(argv):
    return main([str(a) for a in argv])


class TestConstruct:
    def test_pciod4(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert run(["construct", "--family", "pciod", "--relays", 4,
                    "--out", out]) == 0
        text = capsys.readouterr().out
        assert "T=4 R=4 K=8" in text
        d = load_design(out)
        assert (d.t, d.k) == (4, 8)

    def test_toeplitz_shape(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run(["construct", "--family", "toeplitz", "--t1", 2,
                    "--relays", 2, "--out", out]) == 0
        assert load_design(out).t == 3

    def test_odd_pciod_suggests_rect(self, tmp_path, capsys):
        rc = run(["construct", "--family", "pciod", "--relays", 3,
                  "--out", tmp_path / "x.json"])
        assert rc == 3
        assert "pciod-rect" in capsys.readouterr().err

    @pytest.mark.parametrize("family, keys", [
        ("pciod", ["family", "weights", "partition"]),
        ("ciod4", ["family", "weights", "partition", "precode"]),
    ])
    def test_writes_only_the_weight_facts(self, tmp_path, family, keys):
        out = tmp_path / "d.json"
        assert run(["construct", "--family", family, "--relays", 4, "--out", out]) == 0
        assert list(json.loads(out.read_text())) == keys


    @pytest.mark.parametrize("argv, message", [
        (["--family", "cda", "--relays", 7],
         "family 'cda' gives relays=7, but its design has relays=2"),
        (["--family", "toeplitz", "--relays", 2], "family 'toeplitz' needs t1 and relays"),
    ], ids=["count-not-true", "count-missing"])
    def test_count_refused_exit_three(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d.json"
        assert run(["construct", *argv, "--out", out]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_direct_file_simulates_as_the_family(self, tmp_path, capsys):
        out = tmp_path / "direct.json"
        assert run(["construct", "--family", "direct", "--t1", 2, "--out", out]) == 0
        assert "T=0 R=0 K=4" in capsys.readouterr().out
        rows = []
        for design in (str(out), {"family": "direct", "t1": 2}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"design": design, "variant": "direct",
                                       "snr_db": [0, 10], "trials": 500}))
            res = tmp_path / "res.csv"
            assert run(["simulate", "--config", cfg, "--out", res]) == 0
            rows.append([ln for ln in res.read_text().splitlines()
                         if not ln.startswith("#")])
        assert rows[0] == rows[1]


class TestSevenKeyDesignFile:
    """A design file written before designs became their weight array."""

    def test_verifies(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["verify", "--design", SEVEN_KEY_FILE, "--checks",
                    "clro,group,whitened,fulldiv", "--constellation", "lattice2",
                    "--draws", 5, "--out", rep]) == 0
        assert all(c["passed"] for c in json.loads(rep.read_text())["checks"])

    def test_simulates_as_the_built_design(self, tmp_path):
        rows = []
        for design in (str(SEVEN_KEY_FILE), {"family": "pciod", "relays": 4}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "design": design, "snr_db": "0:10:10", "trials": 500,
                "receiver": "grouped-ml", "seed": 3,
                "constellation": {"type": "lattice", "points": 2}}))
            out = tmp_path / "res.csv"
            assert run(["simulate", "--config", cfg, "--out", out]) == 0
            rows.append([ln for ln in out.read_text().splitlines()
                         if not ln.startswith("#")])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("key", ["family", "weights", "partition"])
    def test_missing_key_exit_three(self, tmp_path, capsys, key):
        doc = json.loads(SEVEN_KEY_FILE.read_text())
        del doc[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", "--design", bad]) == 3
        err = capsys.readouterr().err
        assert f"error: design file has no '{key}' key" in err
        assert "Traceback" not in err

    def test_wrong_header_exit_three(self, tmp_path, capsys):
        doc = json.loads(SEVEN_KEY_FILE.read_text())
        doc["k"] = 6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", "--design", bad]) == 3
        err = capsys.readouterr().err
        assert "error: design file gives k=6, but its weights have k=8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("weights, message", [
        ([[1]], "design weights must be [re, im] pairs, got an array of shape (1, 1)"),
        ([[[[1, 2, 3]]]], "design weights must be [re, im] pairs, got an array "
                          "of shape (1, 1, 1, 3)"),
        ([], "a design needs at least one real symbol, got K=0"),
    ], ids=["number", "triple", "empty"])
    def test_malformed_weights_exit_three(self, tmp_path, capsys, weights, message):
        # the first and the last once ended in an IndexError traceback
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": "x", "weights": weights, "partition": [[0]]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"design": str(bad), "variant": "direct"}))
        for argv in (["verify", "--design", bad], ["simulate", "--config", cfg]):
            assert run(argv) == 3
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_precode_not_pairs_exit_three(self, tmp_path, capsys):
        # once ended in an IndexError traceback and exit 1
        path = tmp_path / "ciod4.json"
        run(["construct", "--family", "ciod4", "--out", path])
        doc = json.loads(path.read_text())
        doc["precode"]["p"] = [[1]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--design", path]) == 3
        assert capsys.readouterr().err == ("error: precode p must be [re, im] pairs, "
                                           "got an array of shape (1, 1)\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(precode=5), "design file's precode must be an object "
                                        "of exactly the keys 'p' and 'q', got int"),
        (lambda d: d.update(precdoe=d.pop("precode")), "design file key 'precdoe' "
                                                       "is unknown"),
    ], ids=["number", "misspelled"])
    def test_precode_object_refused_exit_three(self, tmp_path, capsys, edit, message):
        # a number once ended in a TypeError traceback, exit 1, and a
        # misspelled key verified ciod4 without its precoder, exit 0
        path = tmp_path / "ciod4.json"
        run(["construct", "--family", "ciod4", "--out", path])
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--design", path]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestVerify:
    def test_passing_checks_exit_zero(self, tmp_path):
        out = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 4, "--out", out])
        rep = tmp_path / "rep.json"
        rc = run(["verify", "--design", out, "--checks",
                  "clro,group,whitened", "--draws", 10, "--seed", 5,
                  "--out", rep])
        assert rc == 0
        doc = json.loads(rep.read_text())
        assert all(c["passed"] for c in doc["checks"])

    def test_fulldiv_failure_exit_two(self, tmp_path):
        out = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 4, "--out", out])
        rc = run(["verify", "--design", out, "--checks", "fulldiv",
                  "--constellation", "pam2"])
        assert rc == 2

    def test_fulldiv_passes_with_lattice(self, tmp_path):
        out = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 4, "--out", out])
        rc = run(["verify", "--design", out, "--checks", "fulldiv",
                  "--constellation", "lattice2"])
        assert rc == 0

    @pytest.mark.parametrize("constellation", ["pam1", "lattice1"])
    def test_one_point_constellation_exit_three(self, tmp_path, capsys, constellation):
        out = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 4, "--out", out])
        rep = tmp_path / "rep.json"
        rc = run(["verify", "--design", out, "--checks", "fulldiv",
                  "--constellation", constellation, "--out", rep])
        assert rc == 3
        assert "points must be an integer of at least 2" in capsys.readouterr().err
        assert not rep.exists()

    def test_non_finite_design_exit_three(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        run(["construct", "--family", "cda", "--out", out])
        doc = json.loads(out.read_text())
        doc["weights"][0][0][0][0] = float("nan")
        out.write_text(json.dumps(doc))
        rc = run(["verify", "--design", out, "--checks", "clro,group,fulldiv,nvd"])
        assert rc == 3
        assert "error: design weights[0, 0, 0] is not finite" in capsys.readouterr().err

    def test_small_scale_design_keeps_full_diversity(self, tmp_path):
        # golden CDA scaled by 1e-4 has minimum 3.2e-16 with QAM4; it once
        # failed against an absolute 1e-12 floor
        out = tmp_path / "d.json"
        run(["construct", "--family", "cda", "--out", out])
        d = load_design(out)
        save_design(Design(d.family, 1e-4 * d.weights, d.partition), out)
        rep = tmp_path / "rep.json"
        rc = run(["verify", "--design", out, "--checks", "fulldiv,nvd",
                  "--constellation", "qam4", "--nvd-sizes", "4", "--out", rep])
        assert rc == 0
        for check in json.loads(rep.read_text())["checks"]:
            assert check["passed"]
            assert check["margin"] < 1e-12
            assert 0 < check["details"]["threshold"] < 1e-3 * check["margin"]

    def test_small_scale_design_passes_whitened(self, tmp_path, capsys):
        # pciod4 scaled by 1e-6 has a relay Gram below the zero test on
        # every draw; I + Gamma, which the check whitens by as the
        # simulator does, is positive definite on every draw
        out = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 4, "--out", out])
        d = load_design(out)
        save_design(Design(d.family, 1e-6 * d.weights, d.partition), out)
        capsys.readouterr()
        assert run(["verify", "--design", out, "--checks", "whitened"]) == 0
        assert capsys.readouterr().err == ""

    def test_failing_whitened_check_writes_its_report(self, tmp_path):
        # the witness's gains are complex; the report writes each as its
        # [re, im] pair
        d = build_toeplitz(2, 2)
        out = tmp_path / "d.json"
        save_design(Design(d.family, d.weights, ((0, 1), (2, 3))), out)
        rep = tmp_path / "rep.json"
        assert run(["verify", "--design", out, "--checks", "whitened",
                    "--draws", 3, "--out", rep]) == 2
        (check,) = json.loads(rep.read_text())["checks"]
        assert not check["passed"] and check["witness"]["draw"] == 0
        gains = verifier.check_whitened_group_decodable(
            load_design(out), ((0, 1), (2, 3)),
            protocol_params(d, 10.0), n_draws=3).witness["gains"]
        assert check["witness"]["gains"] == [[g.real, g.imag] for g in gains]

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_no_check_named_exit_three(self, tmp_path, capsys, checks):
        # a verification that names no check certifies nothing
        out = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 4, "--out", out])
        rep = tmp_path / "rep.json"
        assert run(["verify", "--design", out, "--checks", checks,
                    "--out", rep]) == 3
        assert f"error: --checks names no check: {checks!r}" in capsys.readouterr().err
        assert not rep.exists()

    def test_guard_exit_four(self, tmp_path):
        out = tmp_path / "d.json"
        run(["construct", "--family", "cda", "--out", out])
        rc = run(["verify", "--design", out, "--checks", "nvd",
                  "--nvd-sizes", "4,4096"])
        assert rc == 4


class TestSimulateAndPipeline:
    def write_cfg(self, tmp_path, **overrides):
        cfg = {"design": {"family": "pciod", "relays": 2},
               "variant": "gnaf2",
               "snr_db": "0:10:10",
               "trials": 2000,
               "receiver": "grouped-ml",
               "constellation": {"type": "lattice", "points": 2},
               "seed": 7}
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_simulate_writes_csv(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == ("snr_db,trials,errors,ser,ci_low,ci_high,"
                          "fallbacks,erasures")
        assert any(ln.startswith("# config:") for ln in lines)

    def test_pipeline_bundle_and_determinism(self, tmp_path):
        cfg = self.write_cfg(tmp_path, checks=["clro", "group", "whitened"],
                             draws=5)
        for name in ("a", "b"):
            assert run(["pipeline", "--config", cfg,
                        "--out-dir", tmp_path / name]) == 0
        for fname in ("results.csv", "report.json"):
            assert ((tmp_path / "a" / fname).read_bytes() ==
                    (tmp_path / "b" / fname).read_bytes())

    def test_pipeline_aborts_on_failed_check(self, tmp_path):
        # a deliberately wrong partition violates the anticommutation check
        d = build_toeplitz(2, 2)
        doc = design_to_dict(d)
        doc["partition"] = [[0], [1], [2], [3]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        cfg = self.write_cfg(tmp_path, design=str(bad), checks=["group"],
                             receiver="joint-ml",
                             constellation={"type": "qam", "points": 4})
        rc = run(["pipeline", "--config", cfg, "--out-dir", tmp_path / "out"])
        assert rc == 2
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = [c for c in rep["checks"] if not c["passed"]]
        assert failed and failed[0]["witness"] is not None

    def test_pipeline_force_overrides(self, tmp_path):
        d = build_toeplitz(2, 2)
        doc = design_to_dict(d)
        doc["partition"] = [[0], [1], [2], [3]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        cfg = self.write_cfg(tmp_path, design=str(bad), checks=["group"],
                             receiver="joint-ml",
                             constellation={"type": "qam", "points": 4})
        rc = run(["pipeline", "--config", cfg, "--out-dir", tmp_path / "out",
                  "--force"])
        assert rc == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_bad_config_exit_three(self, tmp_path):
        cfg = self.write_cfg(tmp_path, variant="nope")
        assert run(["simulate", "--config", cfg]) == 3

    @pytest.mark.parametrize("weights", [
        # relay matrix [[1, 0], [1, 1]]: rows not orthogonal, fails clro
        np.array([[1, 1], [1j, 1j], [0, 1], [0, 1j]]).reshape(4, 2, 1),
        # K = 3: no complex pairing of the source symbols
        np.array([1, 1j, 1]).reshape(3, 1, 1),
    ], ids=["non-clro", "odd-k"])
    def test_refused_design_exit_three(self, tmp_path, capsys, weights):
        path = tmp_path / "d.json"
        save_design(Design("custom", weights), path)
        cfg = self.write_cfg(tmp_path, design=str(path), receiver="joint-ml",
                             constellation={"type": "pam", "points": 2})
        assert run(["simulate", "--config", cfg]) == 3
        assert "error: design" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("workers", "2"), ("workers", 2.5), ("workers", 0),
        ("batch_size", 0), ("batch_size", -5), ("trials", -1),
        # non-integer counts are refused, not truncated
        ("trials", 2000.7), ("batch_size", 100.9), ("seed", 1.5),
        ("points", 2.9), ("relays", 2.7),
    ])
    def test_bad_count_exit_three(self, tmp_path, capsys, field, value):
        nested = {"points": ("constellation", {"type": "lattice"}),
                  "relays": ("design", {"family": "pciod"})}
        if field in nested:
            key, spec = nested[field]
            cfg = self.write_cfg(tmp_path, **{key: {**spec, field: value}})
        else:
            cfg = self.write_cfg(tmp_path, **{field: value})
        assert run(["simulate", "--config", cfg]) == 3
        assert f"error: {field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        # non-finite parts; from an infinite end the grid never ends
        "0:5:inf", "-inf:5:0", "nan:5:20", "0:nan:20", "0:inf:20",
        # empty grids
        "20:5:0", [],
        # points whose linear power overflows or underflows
        "1e308:1:1e308", "0:5:4000", [0.0, float("inf")], [-5000.0],
        # a step below the grid's 1e-9 rounding; 0:1e-17:1 once never
        # returned, since 0 + 1e-17 == 0; and a range of 10^9 points
        "0:1e-17:1", "0:1e-10:1", "0:1e-9:1", "-3000:1e-6:3000",
    ])
    def test_unrunnable_snr_grid_exit_three(self, tmp_path, capsys, spec):
        with pytest.raises(ValueError, match="SNR"):
            _sim_config({"design": {"family": "pciod", "relays": 2}, "snr_db": spec})
        cfg = self.write_cfg(tmp_path, snr_db=spec)
        assert run(["simulate", "--config", cfg]) == 3
        assert "error: SNR" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pam", "lattice"])
    def test_one_point_constellation_exit_three(self, tmp_path, capsys, kind):
        with pytest.raises(ValueError, match="points must be an integer of at least 2"):
            _sim_config({"design": {"family": "pciod", "relays": 2},
                         "constellation": {"type": kind, "points": 1}})
        cfg = self.write_cfg(tmp_path, constellation={"type": kind, "points": 1})
        assert run(["simulate", "--config", cfg]) == 3
        assert "points must be an integer of at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("pi", [
        [1, 1], [1, 1, 1, 5], [float("inf"), 1, 1], [1, 1, float("inf")],
        [0, 1, 1], [1, float("nan"), 1], ["1", 1, 1], 1,
    ])
    def test_bad_power_fractions_exit_three(self, tmp_path, capsys, pi):
        # [1, 1] once raised an IndexError traceback; [1, 1, 1, 5] ran and
        # dropped the 4th value; an infinite one printed SER 0.5; a zero
        # was refused only inside the first batch
        cfg = self.write_cfg(tmp_path, pi=pi)
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error: pi must be three finite positive power fractions" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, grid", [
        ("0:5:20", (0.0, 5.0, 10.0, 15.0, 20.0)),
        ("0:0.1:0.3", (0.0, 0.1, 0.2, 0.3)),
        ("-2.5:2.5:2.5", (-2.5, 0.0, 2.5)),
        ("1:1e-8:1.00000002", (1.0, 1.00000001, 1.00000002)),
        ("5:1:5", (5.0,)),
    ])
    def test_snr_range_points(self, spec, grid):
        assert cli._parse_snr(spec) == grid

    def test_run_defaults_are_simconfig_defaults(self):
        sim, _ = _sim_config({"design": {"family": "pciod", "relays": 2}})
        for f in dataclasses.fields(SimConfig)[2:]:
            assert getattr(sim, f.name) == f.default, f.name

    def test_recorded_config_is_read_off_the_run(self):
        sim, resolved = _sim_config({
            "design": {"family": "pciod", "relays": 2}, "pi": [1, 2, 3],
            "snr_db": "0:10:20", "trials": 5, "workers": 2,
            "constellation": {"type": "lattice", "points": 2}})
        # every SimConfig field but design, codebook and workers, in the
        # documented order; workers stays out, so the bytes are the same
        # for any worker count
        fields = [f.name for f in dataclasses.fields(SimConfig)]
        recorded = [k for k in fields if k not in ("design", "codebook", "workers")]
        assert recorded == ["variant", "pi", "snr_db", "trials", "receiver",
                            "seed", "batch_size"]
        assert list(resolved) == ["version", "design", *recorded,
                                  "constellation", "rotation"]
        assert all(resolved[k] == getattr(sim, k) for k in recorded)
        assert resolved["pi"] == (1.0, 2.0, 3.0) and resolved["rotation"] == "builtin"
        assert resolved["constellation"] == {"type": "lattice", "points": 2}

    def test_simulate_takes_the_pipeline_keys(self, tmp_path):
        cfg = self.write_cfg(tmp_path, checks=["clro"], draws=3,
                             verify_constellation="qam4", trials=100)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "r.csv"]) == 0

    @pytest.mark.parametrize("text", ["[]", "5", "null"])
    def test_config_not_an_object_exit_three(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["simulate", "--config", cfg]) == 3
        assert "error: a run config must be a JSON object" in capsys.readouterr().err

    def test_verify_and_pipeline_share_the_check_defaults(self, tmp_path):
        design = tmp_path / "d.json"
        run(["construct", "--family", "pciod", "--relays", 2, "--out", design])
        assert run(["verify", "--design", design, "--out", tmp_path / "rep.json"]) == 0
        cfg = self.write_cfg(tmp_path, design=str(design), trials=10)
        assert run(["pipeline", "--config", cfg, "--out-dir", tmp_path / "out"]) == 0
        verified = json.loads((tmp_path / "rep.json").read_text())["checks"]
        piped = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        assert verified == piped and [c["check"] for c in piped] == [
            "clro", "group_decodable"]

    def test_power_fractions_recorded_as_run(self, tmp_path):
        cfg = self.write_cfg(tmp_path, pi=[1, 2, 0.5], trials=100)
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        config = json.loads(out.read_text().splitlines()[0][len("# config: "):])
        assert config["pi"] == [1.0, 2.0, 0.5]

    def test_1600_db_point_runs(self, tmp_path):
        # 10^160 is a finite power; squaring it once raised OverflowError
        cfg = self.write_cfg(tmp_path, snr_db=[1600], trials=200)
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows[1].startswith("1600,800,0,0,")

    def test_direct_variant(self, tmp_path):
        cfg = self.write_cfg(tmp_path, design={"family": "direct", "t1": 2},
                             variant="direct", receiver="joint-ml",
                             constellation={"type": "qam", "points": 4})
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0

    @pytest.mark.parametrize("design, variant", [
        ({"family": "direct", "t1": 2}, "gnaf2"),
        ({"family": "pciod", "relays": 2}, "direct"),
    ], ids=["direct-design-relay-variant", "relay-design-direct-variant"])
    def test_direct_mismatch_exit_three(self, tmp_path, capsys, design, variant):
        cfg = self.write_cfg(tmp_path, design=design, variant=variant,
                             receiver="joint-ml",
                             constellation={"type": "qam", "points": 4})
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 3
        assert "no-relay baseline" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("constellation", "qam4", "'constellation' must be an object, got 'qam4'"),
        ("design", 5, "'design' must be a path or an object, got 5"),
        ("snr_db", [None], "'snr_db' must be a list of numbers, got None"),
        ("checks", "clro", "'checks' must be a list of check names, got 'clro'"),
        # open() would take these for file descriptors, fd 2 being stderr
        ("design", {"path": 2}, "'path' must be a string, got 2"),
        ("constellation", {"type": "lattice", "points": 2, "rotation_file": 2},
         "'rotation_file' must be a string, got 2"),
        # once ran the built-in rotation and recorded "rotation": null
        ("constellation", {"type": "lattice", "points": 2, "rotation_file": None},
         "'rotation_file' must be a string, got None"),
        ("constellation", {"type": "lattice", "points": 2, "rotation_file": ""},
         "'rotation_file' must name a file, got ''"),
        ("constellation", [], "'constellation' must be an object, got []"),
        ("constellation", "", "'constellation' must be an object, got ''"),
        ("constellation", 0, "'constellation' must be an object, got 0"),
        ("constellation", False, "'constellation' must be an object, got False"),
        ("snr_db", [5, True], "'snr_db' must be a list of numbers, got True"),
        ("checks", False, "'checks' must be a list of check names, got False"),
        ("checks", "", "'checks' must be a list of check names, got ''"),
        ("checks", 0, "'checks' must be a list of check names, got 0"),
        ("checks", {}, "'checks' must be a list of check names, got {}"),
        # unknown keys, at the top and in each object
        ("reciever", "zf", "'reciever' is unknown; known: ["),
        ("constellation", {"type": "pam", "point": 4},
         "'constellation' has unknown key 'point'; known: "
         "['points', 'rotation_file', 'type']"),
        ("design", {"family": "pciod", "relay": 2},
         "'design' has unknown key 'relay'; known: ['family', 'relays', 't1']"),
        ("design", {"path": "pciod4.json", "relays": 4},
         "'design' has unknown key 'relays'; known: ['path']"),
        # read only for a lattice: once ran PAM-4 and recorded the file
        ("constellation", {"type": "pam", "points": 4, "rotation_file": "nope.txt"},
         "'rotation_file' is read only for a lattice, not for type 'pam'"),
    ], ids=["constellation-string", "design-number", "snr-null", "checks-string",
            "design-path-number", "rotation-file-number", "rotation-file-null",
            "rotation-file-empty",
            "constellation-empty-list", "constellation-empty-string",
            "constellation-zero", "constellation-false", "snr-true",
            "checks-false", "checks-empty-string", "checks-zero",
            "checks-empty-object", "unknown-key", "constellation-unknown-key",
            "design-unknown-key", "design-path-unknown-key",
            "rotation-file-without-lattice"])
    def test_wrong_json_type_exit_three(self, tmp_path, capsys, field, value,
                                        message):
        # each once ended in a traceback and exit 1, ran "clro" as the
        # checks "c", "l", "r" and "o", ran a falsy constellation as PAM-2,
        # ran true as a 1 dB point, ran no check for a falsy check list, or
        # ignored an unknown key: "reciever" ran joint ML and "point" PAM-2
        cfg = self.write_cfg(tmp_path, **{field: value})
        assert run(["pipeline", "--config", cfg, "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert f"error: config entry {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("design, message", [
        ({"family": "cda", "relays": 7}, "family 'cda' gives relays=7, but its "
                                         "design has relays=2"),
        ({"family": "cda", "t1": 9}, "family 'cda' gives t1=9, but its design has t1=4"),
        ({"family": "pciod", "relays": 4, "t1": 9},
         "family 'pciod' gives t1=9, but its design has t1=4"),
        ({"family": "toeplitz", "relays": 2}, "family 'toeplitz' needs t1 and relays"),
        ({"family": "pciod", "relays": None}, "config entry 'design' gives a count as null"),
        ({"family": "cda", "relays": 2.0}, "relays must be an integer of at least 0, got 2.0"),
    ], ids=["cda-relays", "cda-t1", "pciod-t1", "toeplitz-no-t1", "relays-null",
            "cda-relays-float"])
    def test_count_not_true_of_the_design_exit_three(self, tmp_path, capsys,
                                                     design, message):
        # each but the last two once ran with exit 0 and recorded counts
        # of a design other than the one that ran, or a count of 0
        cfg = self.write_cfg(tmp_path, design=design, receiver="joint-ml",
                             constellation={"type": "qam", "points": 4})
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("design", [
        {"family": "cda", "relays": 2, "t1": 4}, {"family": "ciod4", "relays": 4},
        {"family": "pciod-rect", "relays": 3, "t1": 4},
        {"family": "toeplitz", "relays": 3, "t1": 2}, {"family": "direct", "t1": 1}])
    def test_recorded_counts_are_the_design_that_ran(self, design):
        variant = "direct" if design["family"] == "direct" else "gnaf2"
        sim, resolved = _sim_config({"design": design, "variant": variant,
                                     "constellation": {"type": "qam", "points": 4}})
        assert resolved["design"] == design
        assert design.get("relays", sim.design.r) == sim.design.r
        assert design.get("t1", sim.design.n_complex) == sim.design.n_complex

    @pytest.mark.parametrize("value", [None, {}])
    def test_null_or_empty_constellation_is_pam2(self, value):
        cfg = {"design": {"family": "pciod", "relays": 2}, "constellation": value}
        book = _sim_config(cfg)[0].codebook
        want = _sim_config({"design": {"family": "pciod", "relays": 2}})[0].codebook
        assert book.groups == want.groups
        assert all(np.array_equal(a, b) for a, b in
                   zip(book.group_values, want.group_values))
        assert np.array_equal(book.group_values[0], [[-1.0], [1.0]])

    @pytest.mark.parametrize("cfg, message", [
        ({"design": {"family": "direct", "t1": 2}, "variant": "direct",
          "checks": ["bogus"], "draws": 0}, "unknown check 'bogus'"),
        ({"design": {"family": "direct", "t1": 2}, "variant": "direct",
          "checks": [["clro"]]}, "unknown check ['clro']"),
        ({"design": {"family": "pciod", "relays": 2}, "checks": [], "draws": "x"},
         "draws must be an integer of at least 1, got 'x'"),
        ({"design": {"family": "pciod", "relays": 2}, "checks": [],
          "verify_constellation": 5}, "config entry 'verify_constellation' must be a name"),
    ], ids=["direct-unknown-check", "direct-unhashable-check", "no-checks-draws",
            "no-checks-constellation"])
    def test_check_options_refused_when_no_check_runs(self, tmp_path, capsys, cfg,
                                                       message):
        # each once ran with exit 0: the relay-free design runs no checks,
        # and an empty list ran none, so their options went unread
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "snr_db": [0], "trials": 10}))
        assert run(["pipeline", "--config", path, "--out-dir", tmp_path / "out"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_pipeline_bad_draws_exit_three(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, checks=["whitened"], draws=2.5)
        assert run(["pipeline", "--config", cfg,
                    "--out-dir", tmp_path / "out"]) == 3
        assert "error: draws must be an integer" in capsys.readouterr().err

    def test_rotation_from_file(self, tmp_path):
        # a user-supplied rotation file replaces the built-in table
        rot = tmp_path / "rot1.txt"
        rot.write_text("1\n1.0\n")
        cfg = self.write_cfg(tmp_path, constellation={
            "type": "lattice", "points": 2, "rotation_file": str(rot)})
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        builtin = self.write_cfg(tmp_path)
        out2 = tmp_path / "res2.csv"
        assert run(["simulate", "--config", builtin, "--out", out2]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        data2 = [ln for ln in out2.read_text().splitlines() if not ln.startswith("#")]
        assert data == data2                  # identity rotation == builtin n=1

    @pytest.mark.parametrize("text", ["", "0\n"], ids=["empty", "zero"])
    def test_malformed_rotation_file_exit_three(self, tmp_path, capsys, text):
        rot = tmp_path / "rot.txt"
        rot.write_text(text)
        cfg = self.write_cfg(tmp_path, constellation={
            "type": "lattice", "points": 2, "rotation_file": str(rot)})
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 3
        assert "header must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("family, relays, t1", [
    ("toeplitz", 2, 2), ("pciod", 4, None), ("pciod-rect", 3, None)])
def test_lattice_name_is_the_object_form(family, relays, t1):
    # latticeN was once refused on single-group designs, which simulate
    # the object {"type": "lattice", "points": N}
    design = {"family": family, "relays": relays, **({"t1": t1} if t1 else {})}
    d = cli._resolve_design(design)
    book = cli._constellation_book(d, "lattice2")
    want = _sim_config({"design": design,
                        "constellation": {"type": "lattice", "points": 2}})[0].codebook
    assert book.groups == want.groups
    assert all(np.array_equal(a, b) for a, b in
               zip(book.group_values, want.group_values))


class TestDirectConstellation:
    """Direct transmission builds the constellation its config names."""

    def resolve(self, constellation=None):
        cfg = {"design": {"family": "direct", "t1": 2}, "variant": "direct"}
        if constellation is not None:
            cfg["constellation"] = constellation
        return _sim_config(cfg)[0].codebook

    def test_qam_size_honoured(self):
        book = self.resolve({"type": "qam", "points": 16})
        want = qam_codebook(2, 16)
        assert book.groups == want.groups
        assert all(np.array_equal(a, b) for a, b in
                   zip(book.group_values, want.group_values))

    @pytest.mark.parametrize("points", [2, 8])
    def test_bad_qam_size_config_error(self, points):
        with pytest.raises(ValueError, match="QAM size"):
            self.resolve({"type": "qam", "points": points})

    def test_pam_per_coordinate(self):
        book = self.resolve({"type": "pam", "points": 4})
        assert book.groups == ((0, 1), (2, 3))
        assert book.group_sizes == (16, 16)
        levels = pam_alphabet(4)
        for vals in book.group_values:
            assert {tuple(v) for v in vals} == {(a, b) for a in levels for b in levels}

    def test_lattice_refused(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="lattice"):
            self.resolve({"type": "lattice", "points": 2})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "design": {"family": "direct", "t1": 2}, "variant": "direct",
            "constellation": {"type": "lattice", "points": 2}}))
        assert run(["simulate", "--config", cfg]) == 3

    def test_one_complex_symbol_pam_is_one_group(self):
        # the relay-free design's single (Re, Im) group is kept, not split
        # per coordinate as a relay design's single group is
        cfg = {"design": {"family": "direct", "t1": 1}, "variant": "direct",
               "constellation": {"type": "pam", "points": 2}}
        assert _sim_config(cfg)[0].codebook.groups == ((0, 1),)

    @pytest.mark.parametrize("t1", [1, 2])
    def test_pipeline_runs_no_checks(self, tmp_path, t1):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "design": {"family": "direct", "t1": t1}, "variant": "direct",
            "snr_db": [0], "trials": 100, "checks": ["clro", "group"]}))
        assert run(["pipeline", "--config", cfg, "--out-dir", tmp_path / "out"]) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["checks"] == []

    def test_default_is_qam4_and_csv_unchanged(self, tmp_path):
        book, want = self.resolve(), qam_codebook(2, 4)
        assert all(np.array_equal(a, b) for a, b in
                   zip(book.group_values, want.group_values))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "design": {"family": "direct", "t1": 2}, "variant": "direct",
            "snr_db": "0:5:10", "trials": 3000, "receiver": "joint-ml",
            "seed": 7}))
        out = tmp_path / "res.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        # the rows the default direct run has always written (4-QAM)
        assert rows[1:] == [
            "0,6000,1518,0.253,0.2421602181,0.2641558713,0,0",
            "5,6000,680,0.1133333333,0.1055582931,0.1216031963,0,0",
            "10,6000,293,0.04883333333,0.04366272765,0.0545813033,0,0"]


def test_reference_config_budget(tmp_path):
    # the documented reference run finishes well inside its 5-minute budget
    import time
    cfg = tmp_path / "ref.json"
    cfg.write_text(json.dumps({
        "design": {"family": "pciod", "relays": 2}, "variant": "gnaf2",
        "snr_db": "0:5:30", "trials": 100000, "receiver": "grouped-ml",
        "constellation": {"type": "lattice", "points": 2}, "seed": 7,
        "checks": ["clro", "group"]}))
    t0 = time.perf_counter()
    assert run(["pipeline", "--config", cfg, "--out-dir", tmp_path / "ref"]) == 0
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.parametrize("relays", [0, -1])
def test_tradeoff_without_relays_exit_three(tmp_path, capsys, relays):
    out = tmp_path / "curves.csv"
    assert run(["tradeoff", "--relays", relays, "--out", out]) == 3
    assert "at least one relay" in capsys.readouterr().err
    assert not out.exists()


def test_tradeoff_csv(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["tradeoff", "--relays", 2, "--samples", 3, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,d_naf,d_star,d_code,d_lower,no_coop"
    assert len(lines) == 4


def test_run_checks_refuses_unknown_name_before_any_check(monkeypatch):
    calls = []
    monkeypatch.setattr(verifier, "check_clro", lambda d: calls.append(d))
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        cli.run_checks(build_toeplitz(2, 2), ("clro", "bogus"), "qam4", 1, 0)
    assert calls == []


def test_pooled_pipeline_from_guarded_script(tmp_path):
    # forkserver helpers import the main script before their first task;
    # a script whose call to main() is guarded runs the CLI once, prints
    # nothing on stderr and writes the serial sweep's bytes
    script = tmp_path / "dstc_script.py"
    script.write_text("import sys\n\nfrom dstc import cli\n\n"
                      "if __name__ == \"__main__\":\n"
                      "    sys.exit(cli.main(sys.argv[1:]))\n")
    base = {"design": {"family": "toeplitz", "relays": 2, "t1": 2},
            "variant": "gnaf2", "snr_db": [0, 10], "trials": 8000,
            "batch_size": 1000, "receiver": "zf", "seed": 41}
    for workers in (1, 2):
        (tmp_path / f"cfg{workers}.json").write_text(
            json.dumps({**base, "workers": workers}))
    assert run(["pipeline", "--config", tmp_path / "cfg1.json",
                "--out-dir", tmp_path / "out1"]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(script), "pipeline", "--config",
         str(tmp_path / "cfg2.json"), "--out-dir", str(tmp_path / "out2")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert ((tmp_path / "out2" / "results.csv").read_bytes()
            == (tmp_path / "out1" / "results.csv").read_bytes())
