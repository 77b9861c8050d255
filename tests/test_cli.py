import json

import numpy as np
import pytest

from dstc.cli import ConfigError, _parse_snr, _sim_config, main
from dstc.designs import (Design, build_toeplitz, design_to_dict, load_design,
                          save_design)
from dstc.precoding import pam_alphabet
from dstc.receivers import qam_codebook


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
        assert "at least 2 points" in capsys.readouterr().err
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
        save_design(Design(d.family, d.t, d.r, d.k, 1e-4 * d.weights,
                           d.col_conj, d.partition), out)
        rep = tmp_path / "rep.json"
        rc = run(["verify", "--design", out, "--checks", "fulldiv,nvd",
                  "--constellation", "qam4", "--nvd-sizes", "4", "--out", rep])
        assert rc == 0
        for check in json.loads(rep.read_text())["checks"]:
            assert check["passed"]
            assert check["margin"] < 1e-12
            assert 0 < check["details"]["threshold"] < 1e-3 * check["margin"]

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
        k, t, r = weights.shape
        path = tmp_path / "d.json"
        save_design(Design("custom", t, r, k, weights), path)
        cfg = self.write_cfg(tmp_path, design=str(path), receiver="joint-ml",
                             constellation={"type": "pam", "points": 2})
        assert run(["simulate", "--config", cfg]) == 3
        assert "error: design" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("workers", "2"), ("workers", 2.5), ("workers", 0),
        ("batch_size", 0), ("batch_size", -5), ("trials", -1),
        ("DSTC_MAX_WORKERS", "abc"),
        # non-integer counts are refused, not truncated
        ("trials", 2000.7), ("batch_size", 100.9), ("seed", 1.5),
        ("points", 2.9), ("relays", 2.7),
    ])
    def test_bad_count_exit_three(self, tmp_path, capsys, monkeypatch,
                                  field, value):
        nested = {"points": ("constellation", {"type": "lattice"}),
                  "relays": ("design", {"family": "pciod"})}
        if field == "DSTC_MAX_WORKERS":
            monkeypatch.setenv(field, value)
            cfg = self.write_cfg(tmp_path)
        elif field in nested:
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
    ])
    def test_unrunnable_snr_grid_exit_three(self, tmp_path, capsys, spec):
        with pytest.raises(ConfigError, match="SNR"):
            _parse_snr(spec)
        cfg = self.write_cfg(tmp_path, snr_db=spec)
        assert run(["simulate", "--config", cfg]) == 3
        assert "error: SNR" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pam", "lattice"])
    def test_one_point_constellation_exit_three(self, tmp_path, capsys, kind):
        with pytest.raises(ConfigError, match="at least 2 points"):
            _sim_config({"design": {"family": "pciod", "relays": 2},
                         "constellation": {"type": kind, "points": 1}})
        cfg = self.write_cfg(tmp_path, constellation={"type": kind, "points": 1})
        assert run(["simulate", "--config", cfg]) == 3
        assert "at least 2 points" in capsys.readouterr().err

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
        with pytest.raises(ConfigError, match="QAM size"):
            self.resolve({"type": "qam", "points": points})

    def test_pam_per_coordinate(self):
        book = self.resolve({"type": "pam", "points": 4})
        assert book.groups == ((0, 1), (2, 3))
        assert book.group_sizes == (16, 16)
        levels = pam_alphabet(4)
        for vals in book.group_values:
            assert {tuple(v) for v in vals} == {(a, b) for a in levels for b in levels}

    def test_lattice_refused(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="lattice"):
            self.resolve({"type": "lattice", "points": 2})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "design": {"family": "direct", "t1": 2}, "variant": "direct",
            "constellation": {"type": "lattice", "points": 2}}))
        assert run(["simulate", "--config", cfg]) == 3

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
