"""Linear-algebra layer: vectorization, operators, generators."""

import numpy as np
import pytest

import photonforge as pf
from photonforge.core import coordinates, to_coordinates

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
        assert abs(oracles.trace_row(4) @ pf.vec(rho) - np.trace(rho)) < 1e-13


class TestCoordinates:
    @pytest.mark.parametrize("d", [2, 3])
    def test_conversion_is_exact(self, d):
        v, w = coordinates(d)
        assert np.array_equal(w @ v, np.eye(d * d))
        assert np.array_equal(v @ w, np.eye(d * d))
        assert np.array_equal(oracles.trace_row(d) @ v, np.eye(d * d)[0])
        assert not (v.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_then_populations_then_coherences(self, d):
        rho = random_density(d)
        j, k = np.triu_indices(d, 1)
        want = np.concatenate([[np.trace(rho).real], np.diag(rho)[1:].real,
                               np.stack([rho[j, k].real, rho[j, k].imag], axis=-1).ravel()])
        v, w = coordinates(d)
        assert np.max(np.abs(w @ pf.vec(rho) - want)) < 1e-15
        assert np.max(np.abs(v @ want - pf.vec(rho))) < 1e-15

    @pytest.mark.parametrize("levels", [2, 3])
    def test_basis_is_real(self, levels):
        v, w = coordinates(levels)
        basis = pf.dynamics._basis(levels)
        got = w @ basis @ v
        assert np.max(np.abs(got.imag)) <= 1e-15 * np.max(np.abs(got))
        assert np.max(np.abs(to_coordinates(basis) - got.real)) <= 1e-15 * np.max(np.abs(got))

    @pytest.mark.parametrize("d", [2, 3])
    def test_jumps_of_a_random_operator_are_real(self, d):
        # the beam-splitter counting mode i r L + c I, L = c_line sigma_minus,
        # on two levels, and a dense complex M on three
        rng = np.random.default_rng(d)
        if d == 2:
            line = rng.normal(size=(50, 1, 1)) + 1j * rng.normal(size=(50, 1, 1))
            c = rng.normal(size=(50, 1, 1)) + 1j * rng.normal(size=(50, 1, 1))
            ops = 1j * 0.995 * line * pf.lowering_op(2, 0, 1).mat + c * np.eye(2)
        else:
            ops = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        jumps = np.array([np.kron(m.conj(), m) for m in ops])
        v, w = coordinates(d)
        got = w @ jumps @ v
        assert np.max(np.abs(got.imag)) <= 1e-15 * np.max(np.abs(got))
        assert np.max(np.abs(to_coordinates(jumps) - got.real)) <= 1e-15 * np.max(np.abs(got))


class TestOperator:
    def test_dagger(self):
        m = random_matrix(3)
        op = pf.Operator(m)
        assert np.array_equal(op.dag().mat, m.conj().T)

    def test_matrix_is_read_only(self):
        op = pf.Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

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
            assert np.max(np.abs(oracles.trace_row(3) @ lv.mat)) <= 1e-10
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

    def test_sup_exp_stack_matches_series_at_every_degree(self):
        # 1-norms just below and above each Taylor bound theta_m, and 1e3,
        # which is halved s = 10 times to below theta_20
        norms = np.append(np.outer(pf.core._THETA, [0.9, 1.1]).ravel(), 1e3)
        for params in (pf.MirrorQubitParams(gamma=0.8, delta=0.3, gamma_nr=0.1),
                       pf.MirrorQubitParams(levels=3, gamma02=0.4)):
            k = len(norms)
            phi = RNG.uniform(0.0, 2.0 * np.pi, k) if params.levels == 2 else np.zeros(k)
            alpha = 3.0 * (RNG.normal(size=k) + 1j * RNG.normal(size=k))
            gens = pf.dynamics._generators(params, phi, alpha)
            t = norms / np.abs(gens).sum(axis=1).max(axis=1)
            got = pf.sup_exp(gens, t)
            for g, tk, e in zip(gens, t, got):
                want = oracles.expm_series(g, tk)
                assert np.max(np.abs(e - want)) < 1e-12 * np.max(np.abs(want))

    def test_sup_exp_keeps_a_real_stack_real(self):
        # 1-norms just below and above each Taylor bound, at most one
        # squaring; ten squarings (norm 1e3) amplify either path's
        # rounding to about 1e-14
        norms = np.outer(pf.core._THETA, [0.9, 1.1]).ravel()
        for params in (pf.MirrorQubitParams(gamma=0.8, delta=0.3, gamma_nr=0.1),
                       pf.MirrorQubitParams(levels=3, gamma02=0.4)):
            k = len(norms)
            phi = RNG.uniform(0.0, 2.0 * np.pi, k) if params.levels == 2 else np.zeros(k)
            alpha = 3.0 * (RNG.normal(size=k) + 1j * RNG.normal(size=k))
            gens = to_coordinates(pf.dynamics._generators(params, phi, alpha))
            t = norms / np.abs(gens).sum(axis=1).max(axis=1)
            got = pf.sup_exp(gens, t)
            assert got.dtype == np.float64
            want = pf.sup_exp(gens.astype(complex), t)
            for e, f in zip(got, want):
                assert np.max(np.abs(e - f)) <= 1e-15 * np.max(np.abs(f))
            eye = pf.sup_exp(gens, np.zeros(k))
            assert eye.dtype == np.float64
            assert np.array_equal(eye, np.broadcast_to(np.eye(gens.shape[-1]), gens.shape))

    def test_sup_exp_slice_ignores_its_stack(self):
        gens = np.array([pf.liouvillian(h + h.conj().T, [random_matrix(2)]).mat
                         for h in (random_matrix(2) for _ in range(6))])
        t = np.array([0.0, 1e-3, 0.1, 0.6, 2.5, 40.0])
        stack = pf.sup_exp(gens, t)
        assert np.array_equal(stack[0], np.eye(4))
        for g, tk, e in zip(gens, t, stack):
            assert np.array_equal(pf.sup_exp(g, tk).mat, e)
        assert np.array_equal(pf.sup_exp(gens[::-1], t[::-1])[::-1], stack)

    def test_sup_exp_slice_ignores_a_stack_of_several_blocks(self):
        # slices at every degree, at t = 0 and past theta_20 (squarings),
        # in a stack of 1,100
        rng = np.random.default_rng(11)
        k = 1100
        gens = rng.normal(size=(k, 4, 4))
        norms = rng.permutation(np.geomspace(1e-17, 50.0, k))
        gens *= (norms / np.abs(gens).sum(axis=-2).max(axis=-1))[:, None, None]
        t = np.where(np.arange(k) % 97 == 5, 0.0, 1.0)
        stack = pf.sup_exp(gens, t)
        assert norms.min() < pf.core._THETA[0] and (norms > pf.core._THETA[-1]).sum() > 50
        assert stack.dtype == np.float64
        for g, tk, e in zip(gens, t, stack):
            assert np.array_equal(pf.sup_exp(g[None], tk[None])[0], e)
        assert np.array_equal(pf.sup_exp(gens[::-1], t[::-1])[::-1], stack)

    def test_scenario_stacks_match_scipy_expm(self, monkeypatch):
        # every step matrix that a packet release, a beam-splitter job and a
        # cascade cell compile (closed-form and stacked rows alike), and
        # every slice two encodes exponentiate, against scipy's Pade expm;
        # the width scan of a slow drive at phi = 0 reaches 1-norms past 30
        from scipy.linalg import expm

        stacks, tables = [], []

        def capture(lv, t, real=pf.scenarios.sup_exp):
            stacks.append((np.asarray(getattr(lv, "mat", lv)), np.asarray(t, dtype=float)))
            return real(lv, t)

        def compile_(params, rows, real=pf.dynamics._compile):
            out = real(params, rows)
            tables.extend(zip(params, out))
            return out

        monkeypatch.setattr(pf.scenarios, "sup_exp", capture)
        monkeypatch.setattr(pf.dynamics, "_compile", compile_)
        packet = pf.WavePacket.exponential(1.0, 8.0, duration=12.0)
        pf.run_shaped_release(pf.MirrorQubitParams(gamma=1.0), release=packet)
        pf.run_beam_splitter(pf.MirrorQubitParams(gamma=0.5), pf.BeamSplitterConfig())
        pf.run_cascade(pf.MirrorQubitParams(levels=3, gamma02=0.35), 8.0)
        s = 1.0 / np.sqrt(2.0)
        pf.encode_flying_qubit(pf.FlyingQubitTarget(s, s), pf.MirrorQubitParams())
        pf.encode_flying_qubit(pf.FlyingQubitTarget(s, s), pf.MirrorQubitParams(),
                               phi=0.0, alpha_max=0.5)
        monkeypatch.undo()
        pairs = []  # (coordinate or vec generator, duration, its exponential)
        for params, table in tables:
            rows = np.arange(len(table.t_a))
            gens = to_coordinates(pf.dynamics._generators(params, table.phi[rows],
                                                          table.alpha[rows]))
            pairs += zip(gens, table.h[rows], table.steps(rows))
        for gens, t in stacks:
            gens, t = gens.reshape((-1,) + gens.shape[-2:]), t.reshape(-1)
            pairs += zip(gens, t, pf.sup_exp(gens, t))
        worst = 0.0
        for g, tk, e in pairs:
            want = expm(g * tk)
            worst = max(worst, np.max(np.abs(e - want)) / np.max(np.abs(want)))
        assert len(pairs) > 2300
        assert max(np.abs(g * tk).sum(axis=0).max() for g, tk, _ in pairs) > 30
        assert worst <= 1e-14

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
        pf.DensityMatrix(np.diag([1.0 + 1e-10, -1e-10]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            pf.DensityMatrix(np.diag([1.0 + 1e-8, -1e-8]))
