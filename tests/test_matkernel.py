import numpy as np
import pytest

from dstc import matkernel as mk


def random_hpd(n, rng):
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return a @ mk.herm(a) + np.eye(n)


class TestInvSqrtPd:
    def test_identity(self):
        assert np.allclose(mk.inv_sqrt_pd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal_analytic(self):
        x = mk.inv_sqrt_pd(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(x, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_self_consistency_random(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5, 8):
            m = random_hpd(n, rng)
            x = mk.inv_sqrt_pd(m)
            assert np.allclose(x, mk.herm(x), atol=1e-12)
            assert np.max(np.abs(x @ m @ x - np.eye(n))) < 1e-9

    def test_commutes_with_input(self):
        rng = np.random.default_rng(7)
        m = random_hpd(4, rng)
        x = mk.inv_sqrt_pd(m)
        assert np.max(np.abs(x @ m - m @ x)) < 1e-9 * np.max(np.abs(m))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            mk.inv_sqrt_pd(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            mk.inv_sqrt_pd(np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(np.linalg.LinAlgError):
            mk.inv_sqrt_pd(np.diag([1.0, 0.0]).astype(complex))

    def test_ill_conditioned_accepted_singular_to_the_solver_refused(self):
        # condition 1e12 is far above the package zero test's 1e9, yet the
        # eigensolver resolves the small eigenvalue; at 1e17 it cannot
        x = mk.inv_sqrt_pd(np.diag([1.0, 1e12]).astype(complex))
        assert np.allclose(x, np.diag([1.0, 1e-6]), rtol=1e-12, atol=0)
        with pytest.raises(np.linalg.LinAlgError):
            mk.inv_sqrt_pd(np.diag([1e-17, 1.0]).astype(complex))


def test_herm_is_involution():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert np.array_equal(mk.herm(mk.herm(m)), m)


def test_finiteness_rejected():
    with pytest.raises(ValueError):
        mk.as_cmatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
