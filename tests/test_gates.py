import json

import numpy as np
import pytest

from r2tr.gates import (CanonicalAngles, canonical_angles, cnot, cns,
                        cns_circuit, gate_to_json, iswap, locally_equivalent,
                        makhlin_invariants, operator_fidelity, rz, swap,
                        u_flip, universality_class, weyl_coordinates)
from r2tr.hamiltonian import average_hamiltonian, dipolar_constants, make_average_spec
from r2tr.units import GAMMA_C13, GLYCINE_CC_DISTANCE, deg_to_rad


def random_local(rng):
    """Haar-ish random single-qubit pair via QR."""
    blocks = []
    for _ in range(2):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        blocks.append(q @ np.diag(np.diag(r) / np.abs(np.diag(r))))
    return np.kron(blocks[0], blocks[1])


def test_u_flip_zero_is_iswap():
    assert np.array_equal(u_flip(0.0), iswap())


def test_named_gate_invariants():
    cases = [
        (np.eye(4, dtype=complex), 1.0 + 0j, 3.0),
        (iswap(), 0.0 + 0j, -1.0),
        (cns(), 0.0 + 0j, -1.0),
        (cnot(), 0.0 + 0j, 1.0),
        (swap(), -1.0 + 0j, -3.0),
    ]
    for u, g1, g2 in cases:
        got1, got2 = makhlin_invariants(u)
        assert abs(got1 - g1) < 1e-12
        assert abs(got2 - g2) < 1e-12


def test_invariants_under_local_dressing():
    rng = np.random.default_rng(7)
    g1_ref, g2_ref = makhlin_invariants(iswap())
    for _ in range(100):
        u = random_local(rng) @ iswap() @ random_local(rng)
        g1, g2 = makhlin_invariants(u)
        assert abs(g1 - g1_ref) < 1e-9
        assert abs(g2 - g2_ref) < 1e-9


def test_u_flip_invariants_phi_independent():
    for phi in np.linspace(0.0, 2 * np.pi, 64):
        g1, g2 = makhlin_invariants(u_flip(phi))
        assert abs(g1) < 1e-9
        assert abs(g2 + 1.0) < 1e-9


def test_locally_equivalent():
    assert locally_equivalent(iswap(), cns())
    assert locally_equivalent(iswap(), u_flip(0.9))
    assert not locally_equivalent(iswap(), cnot())
    assert not locally_equivalent(np.eye(4, dtype=complex), cnot())


def test_cns_circuit_reproduces_cns():
    for phi in (0.0, 0.3, np.pi / 2, 1.234):
        u = cns_circuit(phi).compose()
        assert operator_fidelity(u, cns()) >= 1.0 - 1e-12
        overlap = np.trace(cns().conj().T @ u)
        assert np.abs(u / (overlap / abs(overlap)) - cns()).max() < 1e-9


def test_cns_composition_is_cnot_then_swap():
    expected = swap() @ cnot()
    assert np.allclose(cns(), expected)


def test_rz_convention():
    u = rz(np.pi)
    assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2),
                                   np.exp(1j * np.pi / 2)]))


def test_weyl_coordinates_named_gates():
    assert np.allclose(weyl_coordinates(np.eye(4, dtype=complex)).reduced(),
                       (0.0, 0.0, 0.0), atol=1e-9)
    c = weyl_coordinates(iswap())
    assert np.allclose((c.theta_x, c.theta_y, c.theta_z), (np.pi, np.pi, 0.0),
                       atol=1e-9)
    c = weyl_coordinates(cnot())
    assert np.allclose((c.theta_x, c.theta_y, c.theta_z), (np.pi, 0.0, 0.0),
                       atol=1e-9)
    c = weyl_coordinates(swap())
    assert np.allclose((c.theta_x, c.theta_y, c.theta_z),
                       (np.pi, np.pi, np.pi), atol=1e-9)


def test_weyl_coordinates_stable_under_local_dressing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_local(rng) @ iswap() @ random_local(rng)
        c = weyl_coordinates(u)
        assert np.allclose(sorted((c.theta_x, c.theta_y, c.theta_z)),
                           (0.0, np.pi, np.pi), atol=1e-6)


def glycine_average(condition_class, m, phi=0.0):
    c = dipolar_constants(GAMMA_C13, GLYCINE_CC_DISTANCE, deg_to_rad(64.0))
    spec = make_average_spec(condition_class, m, np.radians(49.467364),
                             np.radians(7.129919), c, phi=phi)
    return spec, average_hamiltonian(spec)


def test_canonical_angles_class_a():
    spec, h = glycine_average("a", 2, phi=0.3)
    t = 1e-3
    angles = canonical_angles(h, t)
    # spin-operator angle convention: theta = |B| omega_d2 t = 2|coupling| t
    expected = 2.0 * abs(spec.coupling) * t
    assert angles.theta_x == pytest.approx(expected, rel=1e-8)
    assert angles.theta_y == pytest.approx(expected, rel=1e-8)
    assert angles.theta_z == pytest.approx(0.0, abs=1e-10)


def test_canonical_angles_classes_agree_after_reduction():
    # flip-flop and flop-flop evolutions of equal strength are locally
    # equivalent; their reduced angle triples coincide
    _, ha = glycine_average("a", 2)
    angles_a = canonical_angles(ha, 2e-3).reduced()
    angles_b = CanonicalAngles(angles_a[0], -angles_a[0], 0.0).reduced()
    assert np.allclose(angles_a, angles_b, atol=1e-10)


def test_canonical_angles_rejects_non_bilinear():
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)  # has single-spin part
    with pytest.raises(ValueError):
        canonical_angles(h, 1.0)


def test_universality_classes():
    assert universality_class((0.0, 0.0, 0.0)) == "non-entangling"
    assert universality_class((np.pi / 4, np.pi / 4, np.pi / 4)) == \
        "excluded-swap-class"
    assert universality_class((np.pi / 4, np.pi / 4, 0.0)) == "universal"
    # Weyl coordinates carry 4x the Pauli-convention angles of a plain triple
    assert universality_class(weyl_coordinates(swap())) == "excluded-swap-class"
    assert universality_class(weyl_coordinates(iswap())) == "universal"
    assert universality_class(weyl_coordinates(np.eye(4))) == "non-entangling"


def test_universality_class_mod_2pi_and_signs():
    assert universality_class((2 * np.pi, -2 * np.pi, 0.0)) == "non-entangling"
    assert universality_class((-np.pi / 4, -np.pi / 4, np.pi / 4)) == \
        "excluded-swap-class"


def test_gate_json_round_trip():
    u = u_flip(0.37)
    data = json.loads(json.dumps(gate_to_json(u)))
    again = np.array([[complex(re, im) for re, im in row] for row in data])
    assert np.array_equal(u, again)
