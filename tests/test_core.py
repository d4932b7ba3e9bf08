"""Linear-algebra layer: vectorization, operators, generators."""

import numpy as np
import pytest

import photonforge as pf
from photonforge.core import trace_row

import oracles

RNG = np.random.default_rng(20260823)


def random_density(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_matrix(dim, rng=RNG):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestVectorization:
    def test_vec_is_column_stacking(self):
        rho = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(pf.vec(rho), np.array([1.0, 3.0, 2.0, 4.0]))

    def test_roundtrip(self):
        rho = random_matrix(3)
        assert np.array_equal(pf.unvec(pf.vec(rho), 3), rho)

    def test_spre_spost_matches_sandwich(self):
        a, b, rho = random_matrix(3), random_matrix(3), random_matrix(3)
        got = pf.unvec(oracles.spre_spost(a, b) @ pf.vec(rho), 3)
        assert np.max(np.abs(got - a @ rho @ b)) < 1e-12

    def test_trace_row(self):
        rho = random_matrix(4)
        assert abs(trace_row(4) @ pf.vec(rho) - np.trace(rho)) < 1e-13


class TestOperator:
    def test_dagger(self):
        m = random_matrix(3)
        op = pf.Operator(m)
        assert np.array_equal(op.dag().mat, m.conj().T)

    def test_matrix_is_read_only(self):
        op = pf.Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_arithmetic(self):
        a, b = random_matrix(2), random_matrix(2)
        oa, ob = pf.Operator(a), pf.Operator(b)
        assert np.allclose((oa @ ob).mat, a @ b, atol=1e-14)
        assert np.allclose((oa + ob).mat, a + b, atol=1e-14)
        assert np.allclose((oa - ob).mat, a - b, atol=1e-14)
        assert np.allclose((2.5j * oa).mat, 2.5j * a, atol=1e-14)
        assert np.allclose((-oa).mat, -a, atol=1e-14)

    def test_hermiticity_check(self):
        h = random_matrix(3)
        assert pf.Operator(h + h.conj().T).is_hermitian(1e-12)
        assert not pf.Operator(h + h.conj().T + 1e-6 * 1j * np.eye(3)).is_hermitian(1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            pf.Operator(np.zeros((2, 3)))

    def test_lowering_op_structure(self):
        sm = pf.lowering_op(2, 0, 1)
        assert np.array_equal(sm.mat, np.array([[0, 1], [0, 0]], dtype=complex))
        upper = pf.lowering_op(3, 1, 2)
        assert upper.mat[1, 2] == 1.0 and np.count_nonzero(upper.mat) == 1

    @pytest.mark.parametrize("args", [(2, 1, 1), (2, -1, 1), (3, 1, 3), (3, 2, 1)])
    def test_lowering_op_bounds(self, args):
        with pytest.raises(ValueError, match="lower"):
            pf.lowering_op(*args)


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = pf.DensityMatrix(random_density(3))
        assert rho.mat.shape == (3, 3)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            pf.DensityMatrix(2.0 * random_density(2))

    def test_rejects_non_hermitian(self):
        m = random_density(2).copy()
        m[0, 1] += 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            pf.DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            pf.DensityMatrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every later check is false for NaN, so the state would pass them
        with pytest.raises(ValueError, match="finite"):
            pf.DensityMatrix([[bad, 0.0], [0.0, 1.0]])

    def test_from_ket_normalizes(self):
        rho = pf.DensityMatrix.from_ket([3.0, 4.0j])
        assert abs(np.trace(rho.mat) - 1.0) < 1e-14
        assert abs(rho.mat[0, 0] - 0.36) < 1e-14

    def test_ground_and_excited(self):
        assert pf.DensityMatrix.ground(2).mat[0, 0] == 1.0
        assert pf.DensityMatrix.excited(3, 2).mat[2, 2] == 1.0

    def test_expectation(self):
        rho = pf.DensityMatrix.from_ket([1.0, 1.0])
        sx = pf.Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        assert abs(rho.expectation(sx) - 1.0) < 1e-14


class TestGenerators:
    def test_dissipator_action(self):
        x = random_matrix(3)
        rho = random_density(3)
        got = pf.unvec(pf.dissipator(x).mat @ pf.vec(rho), 3)
        want = oracles.apply_master_equation(rho, np.zeros((3, 3)), [x])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_liouvillian_matches_column_assembly(self):
        h = random_matrix(3)
        h = h + h.conj().T
        ls = [random_matrix(3), 0.3 * random_matrix(3)]
        got = pf.liouvillian(h, ls).mat
        want = oracles.generator_matrix(h, ls)
        assert np.max(np.abs(got - want)) < 1e-11

    def test_liouvillian_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            pf.liouvillian(random_matrix(2))

    def test_liouvillian_annihilates_trace(self):
        for _ in range(5):
            h = random_matrix(3)
            lv = pf.liouvillian(h + h.conj().T, [random_matrix(3)])
            assert lv.annihilates_trace(1e-10)
            rho = random_density(3)
            drho = pf.unvec(lv.mat @ pf.vec(rho), 3)
            assert abs(np.trace(drho)) < 1e-10

    def test_superoperator_apply_and_compose(self):
        a, b = random_matrix(2), random_matrix(2)
        sa = pf.Superoperator(oracles.spre_spost(a, np.eye(2)))
        sb = pf.Superoperator(oracles.spre_spost(b, np.eye(2)))
        rho = random_density(2)
        got = (sa @ sb).apply(rho)
        assert np.max(np.abs(got - a @ b @ rho)) < 1e-12

    def test_sup_exp_identity_at_zero(self):
        lv = pf.liouvillian(np.zeros((2, 2)), [random_matrix(2)])
        assert np.array_equal(pf.sup_exp(lv, 0.0).mat, np.eye(4, dtype=complex))

    def test_sup_exp_rejects_negative_duration(self):
        lv = pf.liouvillian(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            pf.sup_exp(lv, -0.1)

    def test_sup_exp_matches_series_expansion(self):
        for _ in range(5):
            h = random_matrix(2)
            lv = pf.liouvillian(h + h.conj().T, [random_matrix(2)])
            for t in (0.05, 0.7, 2.0):
                got = pf.sup_exp(lv, t).mat
                want = oracles.expm_series(lv.mat, t)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_propagated_state_stays_physical(self):
        h = random_matrix(2)
        lv = pf.liouvillian(h + h.conj().T, [random_matrix(2)])
        rho = random_density(2)
        ev = pf.unvec(pf.sup_exp(lv, 1.5).mat @ pf.vec(rho), 2)
        assert abs(np.trace(ev) - 1.0) < 1e-8
        assert np.linalg.eigvalsh(0.5 * (ev + ev.conj().T)).min() > -1e-7


class TestPolicy:
    def test_defaults(self):
        """Hermiticity and trace checks pass 1e-11 and fail 1e-9; the
        eigenvalue floor passes -1e-10 and fails -1e-8."""
        def skew(eps):
            return np.array([[0.0, eps], [0.0, 0.0]])

        assert pf.Operator(skew(1e-11)).is_hermitian()
        assert not pf.Operator(skew(1e-9)).is_hermitian()
        pf.liouvillian(skew(1e-11))
        with pytest.raises(ValueError, match="not Hermitian"):
            pf.liouvillian(skew(1e-9))
        pf.DensityMatrix(np.eye(2) / 2 + skew(1e-11))
        with pytest.raises(ValueError, match="not Hermitian"):
            pf.DensityMatrix(np.eye(2) / 2 + skew(1e-9))
        pf.DensityMatrix(np.diag([1.0 + 1e-11, 0.0]))
        with pytest.raises(ValueError, match="unit trace"):
            pf.DensityMatrix(np.diag([1.0 + 1e-9, 0.0]))
        assert pf.Superoperator(np.diag([1e-11, 0, 0, 0])).annihilates_trace()
        assert not pf.Superoperator(np.diag([1e-9, 0, 0, 0])).annihilates_trace()
        pf.DensityMatrix(np.diag([1.0 + 1e-10, -1e-10]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            pf.DensityMatrix(np.diag([1.0 + 1e-8, -1e-8]))
