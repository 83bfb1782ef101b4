import json

from hypothesis import given, settings, strategies as st
import numpy as np
import scipy.linalg

from r2tr.gates import (cnot, cns, cns_circuit, gate_to_json, iswap,
                        locally_equivalent, makhlin_invariants,
                        operator_fidelity, rz, swap, u_flip,
                        universality_class, weyl_coordinates)


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
    c = weyl_coordinates(np.eye(4, dtype=complex))
    assert np.allclose((c.theta_x, c.theta_y, c.theta_z), (0.0, 0.0, 0.0),
                       atol=1e-9)
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


def test_universality_class_pi_half_shifts_and_global_phase():
    # exp(i pi/2 XX) = i XX is local, and a pi/2 shift keeps the SWAP class
    assert universality_class((np.pi / 2, 0.0, 0.0)) == "non-entangling"
    assert universality_class((3 * np.pi / 4, np.pi / 4, np.pi / 4)) == \
        "excluded-swap-class"
    c = weyl_coordinates(1j * np.eye(4))
    assert np.allclose((c.theta_x, c.theta_y, c.theta_z), (0.0, 0.0, 0.0),
                       atol=1e-9)


PAULI_PAIRS = [np.kron(p, p) for p in (np.array([[0, 1], [1, 0]]),
                                       np.array([[0, -1j], [1j, 0]]),
                                       np.diag([1, -1]))]
QUARTER = np.pi / 4
# a Pauli-convention angle on the pi/4 grid, or at least 1e-3 away from it,
# so that the Makhlin class of a triple is unambiguous
ANGLE = st.one_of(
    st.integers(-8, 8).map(lambda k: k * QUARTER),
    st.floats(-4.0, 4.0).filter(lambda a: abs(a / QUARTER - round(a / QUARTER)) > 1e-3))


def makhlin_class(u):
    """The class the Makhlin invariants give: (1, 3) for local gates and
    (-1, -3) for the SWAP class."""
    g1, g2 = makhlin_invariants(u)
    if abs(g1 - 1.0) < 1e-9 and abs(g2 - 3.0) < 1e-9:
        return "non-entangling"
    if abs(g1 + 1.0) < 1e-9 and abs(g2 + 3.0) < 1e-9:
        return "excluded-swap-class"
    return "universal"


@settings(max_examples=200, deadline=None)
@given(angles=st.tuples(ANGLE, ANGLE, ANGLE), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 3))
def test_universality_class_agrees_with_makhlin_invariants(angles, seed, k):
    rng = np.random.default_rng(seed)
    gate = scipy.linalg.expm(1j * sum(a * pp for a, pp in zip(angles, PAULI_PAIRS)))
    u = random_local(rng) @ gate @ random_local(rng)
    expected = makhlin_class(u)
    assert universality_class(angles) == expected
    c = weyl_coordinates(u)
    assert universality_class(c) == expected
    phased = weyl_coordinates(1j**k * u)
    assert np.allclose((phased.theta_x, phased.theta_y, phased.theta_z),
                       (c.theta_x, c.theta_y, c.theta_z), atol=1e-6)


def test_gate_json_round_trip():
    u = u_flip(0.37)
    data = json.loads(json.dumps(gate_to_json(u)))
    again = np.array([[complex(re, im) for re, im in row] for row in data])
    assert np.array_equal(u, again)
