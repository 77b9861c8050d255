import csv
import io

import numpy as np
import pytest

from dstc.dmg import crossover, d_code, d_lower, d_naf, d_star, emit_curves


class TestClosedForms:
    def test_naf(self):
        assert d_naf(0.0, 3) == 4.0
        assert d_naf(0.5, 2) == 0.5
        assert d_naf(1.0, 5) == 0.0

    def test_star(self):
        assert d_star(0.0, 3) == 4.0
        assert d_star(1.0, 3) == 0.0
        assert d_star(0.25, 3) == pytest.approx(3.0)

    def test_code(self):
        assert d_code(0.0, 2) == 3.0
        for r_relays in (1, 2, 3, 8):
            assert d_code(r_relays / (r_relays + 1), r_relays) == 0.0
        assert d_code(0.25, 2) == pytest.approx(3.0 * (1.0 - 0.375))

    def test_lower(self):
        assert d_lower(0.0, 4) == 5.0
        assert d_code(0.0, 4) >= 1.0          # the coded branch is active at r = 0
        assert d_lower(1.0, 4) == 0.0

    def test_crossover_values(self):
        assert crossover(2) == pytest.approx(4.0 / 7.0)
        assert crossover(1) == pytest.approx(1.0 / 3.0)

    def test_crossover_is_branch_intersection(self):
        for r_relays in (1, 2, 3, 4, 8, 16):
            rc = crossover(r_relays)
            assert abs((1.0 - rc) - d_code(rc, r_relays)) < 1e-12

    def test_branch_switch_at_crossover(self):
        for r_relays in (1, 2, 5):
            rc = crossover(r_relays)
            assert d_code(rc - 1e-9, r_relays) >= 1.0 - (rc - 1e-9)
            assert d_code(rc + 1e-9, r_relays) < 1.0 - (rc + 1e-9)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            d_naf(1.5, 2)
        with pytest.raises(ValueError):
            d_star(-0.1, 2)

    @pytest.mark.parametrize("n_relays", [0, -1])
    @pytest.mark.parametrize("fn", [d_naf, d_star, d_code, d_lower])
    def test_relay_count_checked(self, fn, n_relays):
        with pytest.raises(ValueError, match="at least one relay"):
            fn(0.25, n_relays)


class TestOrderings:
    @pytest.mark.parametrize("r_relays", [1, 2, 4, 9])
    def test_lower_below_star(self, r_relays):
        for r in np.linspace(0.0, 1.0, 101):
            assert d_lower(r, r_relays) <= d_star(r, r_relays) + 1e-12

    @pytest.mark.parametrize("r_relays", [1, 2, 4, 9])
    def test_naf_below_star(self, r_relays):
        for r in np.linspace(0.0, 1.0, 101):
            assert d_naf(r, r_relays) <= d_star(r, r_relays) + 1e-12

    def test_piecewise_linear_breakpoints(self):
        # second differences vanish except at the declared breakpoints
        r_relays = 3
        grid = np.linspace(0.0, 1.0, 3001)
        for fn, breaks in ((lambda r: d_naf(r, r_relays), {0.5}),
                           (lambda r: d_code(r, r_relays), {r_relays / (r_relays + 1)}),
                           (lambda r: d_lower(r, r_relays),
                            {r_relays / (r_relays + 1), crossover(r_relays)})):
            vals = np.array([fn(r) for r in grid])
            dd = np.abs(np.diff(vals, 2))
            kinks = grid[1:-1][dd > 1e-9]
            for kink in kinks:
                assert any(abs(kink - b) < 2e-3 for b in breaks)


class TestEmitCurves:
    def test_two_samples(self):
        text = emit_curves(2, 2)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [row["r"] for row in rows] == ["0", "1"]

    def test_row_invariants(self):
        rows = list(csv.DictReader(io.StringIO(emit_curves(3, 20))))
        for row in rows:
            assert float(row["d_lower"]) >= float(row["d_code"]) - 1e-12
            assert float(row["d_lower"]) >= float(row["no_coop"]) - 1e-12

    def test_gap_shrinks_with_relay_count(self):
        gaps = [d_star(0.1, n) - d_lower(0.1, n) for n in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            emit_curves(2, 1)

    @pytest.mark.parametrize("n_relays", [0, -1])
    def test_relay_count_checked(self, n_relays):
        with pytest.raises(ValueError, match="at least one relay"):
            emit_curves(n_relays, 3)
        with pytest.raises(ValueError, match="at least one relay"):
            crossover(n_relays)
