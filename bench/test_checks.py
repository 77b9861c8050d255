"""Each correctness check of the benchmark rejects a deliberately wrong answer.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from dstc import designs, gnaf_sim, verifier  # noqa: E402
from dstc.cli import _constellation_book  # noqa: E402
from dstc.gnaf_sim import SimResult  # noqa: E402


def _results(errors, trials=400, fallbacks=0):
    return [SimResult(float(5 * i), trials, e, "zf", 1, "toeplitz", fallbacks)
            for i, e in enumerate(errors)]


@pytest.fixture(scope="module")
def pciod4():
    return designs.build_family("pciod", 4)


# --- sweeps ---------------------------------------------------------------

def test_swapped_error_counts_rejected():
    good = _results([90, 12, 3])
    assert checks.check_same_errors(good, _results([90, 12, 3])) == []
    assert checks.check_same_errors(_results([12, 90, 3]), good)


def test_one_byte_csv_change_rejected():
    text = gnaf_sim.results_to_csv(_results([90, 12, 3]), {"config": "{}"})
    assert checks.check_same_bytes(text, text) == []
    i = text.index("90")
    changed = text[:i] + "91" + text[i + 2:]
    assert len(changed) == len(text)
    assert checks.check_same_bytes(changed, text)


def test_decision_count_and_grid_rejected():
    grid = (0.0, 5.0, 10.0)
    assert checks.check_decisions(_results([1, 2, 3]), grid, 100, 4) == []
    assert checks.check_decisions(_results([1, 2, 3], trials=399), grid, 100, 4)
    assert checks.check_decisions(_results([1, 2]), grid, 100, 4)


def test_fallbacks_rejected():
    assert checks.check_no_fallbacks(_results([1, 2])) == []
    assert checks.check_no_fallbacks(_results([1, 2], fallbacks=1))


def test_ser_disagreement_rejected():
    assert checks.check_ser_agrees(2506, 4096, 1236, 2000, 4) == []
    assert checks.check_ser_agrees(2506, 4096, 1800, 2000, 4)


def test_joint_sweep_with_swapped_counts_rejected():
    sweep = workloads.build("sweep-joint", 3)
    grouped = gnaf_sim.run_monte_carlo(dataclasses.replace(sweep.sim, receiver="grouped-ml"))
    errors = [r.errors for r in grouped]
    errors[0], errors[1] = errors[1], errors[0]
    swapped = [dataclasses.replace(r, errors=e) for r, e in zip(grouped, errors)]
    fails = sweep.check([{"sweep": swapped}])
    assert any("error counts" in f for f in fails)


def test_pooled_sweep_with_changed_csv_rejected():
    sweep = workloads.build("sweep-pool", 3)
    serial = gnaf_sim.run_monte_carlo(dataclasses.replace(sweep.sim, workers=None))
    assert sweep.check([{"sweep": serial}]) == []
    changed = [dataclasses.replace(serial[-1], errors=serial[-1].errors + 1)]
    fails = sweep.check([{"sweep": serial[:-1] + changed}])
    assert any("outputs differ" in f for f in fails)


# --- determinants ---------------------------------------------------------

def test_perturbed_minimum_rejected(pciod4):
    book = _constellation_book(pciod4, "lattice2")
    value, witness = verifier.min_delta_det_full(pciod4, book)
    assert checks.check_min_at_witness(pciod4.weights, value, witness) == []
    assert checks.check_min_at_witness(pciod4.weights, value * (1 + 1e-6), witness)
    assert checks.check_min_at_witness(pciod4.weights, value, None)


def test_brute_force_reference_matches_program(pciod4):
    book = _constellation_book(pciod4, "lattice2")
    brute = checks.brute_force_min_det(
        pciod4.weights, checks.product_codewords(book.group_values, book.groups))
    value, _ = verifier.min_delta_det_full(pciod4, book)
    assert checks.check_equal_minima(value, brute, "pciod4") == []
    assert checks.check_equal_minima(value + 1e-3, brute, "pciod4")


def test_nvd_floor_rejected():
    assert checks.check_nvd_floor(3.2, 3.2) == []
    assert checks.check_nvd_floor(3.2, 3.1)
    assert checks.check_nvd_floor(0.0, 0.0)


def test_full_rank_witness_rejected(pciod4):
    book = _constellation_book(pciod4, "qam4")
    value, witness = verifier.min_delta_det_full(pciod4, book)
    assert checks.check_rank_deficient(pciod4.weights, value, witness) == []
    full = np.arange(1.0, pciod4.k + 1)         # every group nonzero
    assert checks.check_rank_deficient(pciod4.weights, value, full)


def test_certify_with_perturbed_minimum_rejected():
    cert = workloads.Certify(1)
    cert.cases = {k: v for k, v in cert.cases.items() if k != "golden-qam16"}
    outputs = {name: verifier.min_delta_det_full(d, book)
               for name, (d, book) in cert.cases.items()}
    assert cert.check([outputs]) == []
    value, witness = outputs["toeplitz-qam36-pairs"]
    outputs["toeplitz-qam36-pairs"] = (value * 1.001, witness)
    fails = cert.check([outputs])
    assert any("recomputed at the witness" in f for f in fails)
    assert any("pairwise path against product path" in f for f in fails)
