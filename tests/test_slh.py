"""Scattering-coupling-Hamiltonian network algebra."""

import math

import numpy as np
import pytest

import photonforge as pf
from photonforge.slh import triplet_liouvillian

RNG = np.random.default_rng(7041)


def random_unitary(n, rng=RNG):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_triplet(dim=2, n_ports=2, rng=RNG, offsets=True):
    couplings = []
    for _ in range(n_ports):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        off = complex(rng.normal() + 1j * rng.normal()) if offsets else 0.0
        couplings.append((op, off))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return pf.SlhTriplet(random_unitary(n_ports, rng), couplings, h + h.conj().T)


def assert_triplet_close(a, b, tol=1e-10):
    assert a.n_ports == b.n_ports and a.dim == b.dim
    assert np.max(np.abs(a.s - b.s)) < tol
    for ea, eb in zip(a.couplings, b.couplings):
        assert np.max(np.abs(ea.op - eb.op)) < tol
        assert abs(ea.offset - eb.offset) < tol
    assert np.max(np.abs(a.h - b.h)) < tol


class TestConstruction:
    def test_rejects_non_unitary_scattering(self):
        with pytest.raises(ValueError, match="unitary"):
            pf.SlhTriplet(np.array([[2.0]]), [np.zeros((2, 2))])

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            pf.SlhTriplet(np.eye(1), [np.zeros((2, 2))],
                          np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_port_count_mismatch(self):
        with pytest.raises(ValueError, match="couplings"):
            pf.SlhTriplet(np.eye(2), [np.zeros((2, 2))])

    def test_scalar_couplings_need_dim(self):
        with pytest.raises(ValueError, match="dim"):
            pf.SlhTriplet(np.eye(1), [1.5])
        g = pf.SlhTriplet(np.eye(1), [1.5], dim=2)
        assert g.couplings[0].offset == 1.5
        assert not np.any(g.couplings[0].op)

    def test_identity_element(self):
        g = random_triplet()
        ident = pf.SlhTriplet(np.eye(2), [np.zeros((2, 2))] * 2)
        assert_triplet_close(pf.series(ident, g), g, tol=1e-12)
        assert_triplet_close(pf.series(g, ident), g, tol=1e-12)


class TestComposition:
    def test_series_needs_matching_ports(self):
        with pytest.raises(ValueError, match="port count"):
            pf.series(random_triplet(n_ports=2), random_triplet(n_ports=1))

    def test_series_scattering_is_product(self):
        g1, g2 = random_triplet(), random_triplet()
        assert np.max(np.abs(pf.series(g2, g1).s - g2.s @ g1.s)) < 1e-12

    def test_series_associative(self):
        g1, g2, g3 = (random_triplet() for _ in range(3))
        left = pf.series(pf.series(g3, g2), g1)
        right = pf.series(g3, pf.series(g2, g1))
        assert_triplet_close(left, right, tol=1e-10)

    def test_concatenate_block_structure(self):
        g1 = random_triplet(n_ports=1)
        g2 = random_triplet(n_ports=2)
        cat = pf.concatenate(g2, g1)
        assert cat.n_ports == 3
        assert np.max(np.abs(cat.s[:2, :2] - g2.s)) < 1e-14
        assert np.max(np.abs(cat.s[2:, 2:] - g1.s)) < 1e-14
        assert not np.any(cat.s[:2, 2:]) and not np.any(cat.s[2:, :2])
        assert np.max(np.abs(cat.couplings[2].op - g1.couplings[0].op)) < 1e-14
        assert np.max(np.abs(cat.h - (g1.h + g2.h))) < 1e-14


class TestFeedback:
    def test_rejects_singular_loop(self):
        swap = pf.SlhTriplet(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             [np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="singular feedback loop"):
            pf.feedback(swap, 0, 1)

    def test_rejects_out_of_range_ports(self):
        g = random_triplet(n_ports=2)
        with pytest.raises(ValueError, match="out of range"):
            pf.feedback(g, 0, 5)

    def test_needs_two_ports(self):
        with pytest.raises(ValueError, match="two ports"):
            pf.feedback(random_triplet(n_ports=1), 0, 0)

    def test_scattering_reduction_formula(self):
        s = random_unitary(3)
        g = pf.SlhTriplet(s, [np.zeros((2, 2))] * 3)
        k, l = 1, 2
        red = pf.feedback(g, k, l)
        inv = 1.0 / (1.0 - s[k, l])
        rows = [i for i in range(3) if i != k]
        cols = [j for j in range(3) if j != l]
        want = np.array([[s[i, j] + s[i, l] * inv * s[k, j] for j in cols]
                         for i in rows])
        assert np.max(np.abs(red.s - want)) < 1e-12
        assert np.max(np.abs(red.s @ red.s.conj().T - np.eye(2))) < 1e-9

    def test_reduced_scattering_stays_unitary(self):
        for _ in range(20):
            g = pf.SlhTriplet(random_unitary(3), [np.zeros((2, 2))] * 3)
            if abs(1.0 - g.s[0, 1]) <= 1e-12:
                continue
            red = pf.feedback(g, 0, 1)
            assert np.max(np.abs(red.s @ red.s.conj().T - np.eye(2))) < 1e-9


class TestMirrorConstruction:
    def test_network_matches_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            gamma = rng.uniform(0.05, 3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            if abs(phi - math.pi) < 1e-3:
                continue
            net = pf.mirror_network(gamma, phi)
            closed = pf.mirror_triplet(gamma, phi)
            assert_triplet_close(net, closed, tol=1e-12)

    def test_polar_coupling_form_below_pi(self):
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        for phi in (0.0, 0.4, 1.2, 2.5, 3.1):
            gamma = 0.8
            geff = gamma * (1.0 + math.cos(phi))
            want = math.sqrt(geff) * np.exp(1j * phi / 2.0) * sm
            got = pf.mirror_triplet(gamma, phi).couplings[0].op
            assert np.max(np.abs(got - want)) < 1e-12

    def test_destructive_phase_decouples(self):
        net = pf.mirror_network(1.3, math.pi)
        assert np.max(np.abs(net.couplings[0].op)) < 1e-12
        assert np.max(np.abs(triplet_liouvillian(net).mat)) < 1e-12

    def test_output_phase_is_scalar(self):
        net = pf.mirror_network(1.0, 0.7)
        assert net.n_ports == 1
        assert abs(net.s[0, 0] - np.exp(0.7j)) < 1e-12

    def test_lamb_type_level_shift(self):
        gamma, phi = 1.4, math.pi / 2.0
        h, _ = pf.to_master_equation(pf.mirror_network(gamma, phi))
        want = np.diag([0.0, (gamma / 2.0) * math.sin(phi)])
        assert np.max(np.abs(h.mat - want)) < 1e-12


class TestMasterEquationLowering:
    def test_drive_entry_is_pure_offset(self):
        g = pf.drive_triplet(0.3 - 0.8j)
        assert g.n_ports == 1
        assert g.couplings[0].offset == 0.3 - 0.8j
        assert not np.any(g.couplings[0].op)
        h, collapse = pf.to_master_equation(g)
        assert collapse == []
        assert not np.any(h.mat)

    def test_emitter_ports_share_the_decay(self):
        g = pf.emitter_triplet(2.0)
        assert g.n_ports == 2
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        for e in g.couplings:
            assert np.max(np.abs(e.op - np.sqrt(1.0) * sm)) < 1e-12

    def test_driven_network_matches_direct_generator(self):
        for gamma, phi, alpha in [(0.5, 0.0, 5.0), (1.0, 0.9 * math.pi, 10.0),
                                  (0.7, 1.1, 2.0 - 3.0j)]:
            g = pf.series(pf.mirror_network(gamma, phi), pf.drive_triplet(alpha))
            got = triplet_liouvillian(g).mat
            params = pf.MirrorQubitParams(gamma=gamma)
            want = pf.build_liouvillian(params, phi, alpha).mat
            assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_drive_leaves_hamiltonian_alone(self):
        gamma, phi = 1.0, 0.3
        bare = pf.mirror_network(gamma, phi)
        driven = pf.series(bare, pf.drive_triplet(0.0))
        h0, c0 = pf.to_master_equation(bare)
        h1, c1 = pf.to_master_equation(driven)
        assert np.max(np.abs(h0.mat - h1.mat)) < 1e-14
        assert len(c0) == len(c1) == 1
        assert np.max(np.abs(c0[0].mat - c1[0].mat)) < 1e-14
