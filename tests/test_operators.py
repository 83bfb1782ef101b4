import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2tr.operators import (SpinSystem, basis_state, check_density_matrix,
                            check_unitary, expectation, spin_operator)
from r2tr.units import TWO_PI, deg_to_rad


def test_single_spin_matrices():
    # each spin's operator is its 2x2 matrix times the identity on the other
    iz = np.diag([0.5, -0.5])
    ip = np.array([[0, 1], [0, 0]])
    assert np.allclose(spin_operator(0, "z"), np.kron(iz, np.eye(2)))
    assert np.allclose(spin_operator(1, "z"), np.kron(np.eye(2), iz))
    assert np.allclose(spin_operator(0, "+"), np.kron(ip, np.eye(2)))
    assert np.allclose(spin_operator(1, "+"), np.kron(np.eye(2), ip))


def test_ladder_operators_consistent():
    for k in (0, 1):
        ix = spin_operator(k, "x")
        iy = spin_operator(k, "y")
        assert np.allclose(spin_operator(k, "+"), ix + 1j * iy)
        assert np.allclose(spin_operator(k, "-"), ix - 1j * iy)


@given(st.sampled_from((0, 1)), st.sampled_from("xyz"))
def test_operators_traceless_hermitian(k, axis):
    op = spin_operator(k, axis)
    assert op.shape == (4, 4)
    assert abs(np.trace(op)) < 1e-12
    assert np.allclose(op, op.conj().T)


def test_commutation_relations():
    # [I_x, I_y] = i I_z and cyclic, on both spins of the pair
    for k in (0, 1):
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            oa, ob = spin_operator(k, a), spin_operator(k, b)
            comm = oa @ ob - ob @ oa
            assert np.allclose(comm, 1j * spin_operator(k, c))


def test_distinct_spins_commute():
    for a in "xyz":
        for b in "xyz":
            oa = spin_operator(0, a)
            ob = spin_operator(1, b)
            assert np.allclose(oa @ ob, ob @ oa)


def test_spin_operator_validation():
    with pytest.raises(ValueError):
        spin_operator(0, "w")
    with pytest.raises(IndexError):
        spin_operator(2, "z")
    with pytest.raises(IndexError):
        spin_operator(-1, "z")


def test_spin_operator_is_readonly():
    op = spin_operator(0, "z")
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


def test_basis_state():
    rho = basis_state("01")
    assert rho.shape == (4, 4)
    assert np.allclose(np.diag(rho), [0, 1, 0, 0])
    check_density_matrix(rho)
    # |0> carries I_z = +1/2
    assert expectation(rho, spin_operator(0, "z")).real == pytest.approx(0.5)
    assert expectation(rho, spin_operator(1, "z")).real == pytest.approx(-0.5)
    for label in ("02", "0", "000", "", 5, None):
        with pytest.raises(ValueError):
            basis_state(label)


def test_check_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(bad)
    # unit trace, but an off-diagonal entry without its conjugate partner
    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density_matrix(skew)


def test_check_unitary():
    check_unitary(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        check_unitary(2 * np.eye(4, dtype=complex))


def _system(**kw):
    base = dict(gamma=6.7283e7, r=1.53e-10, theta_d=deg_to_rad(64.0),
                phi=0.0, omega_r=TWO_PI * 7884.0,
                offsets=(TWO_PI * 2000.0, TWO_PI * 18699.0))
    base.update(kw)
    return SpinSystem(**base)


def test_spin_system_properties():
    sys = _system()
    assert sys.offsets == (TWO_PI * 2000.0, TWO_PI * 18699.0)
    assert sys.rotor_period == pytest.approx(1.0 / 7884.0)


def test_spin_system_validation():
    with pytest.raises(ValueError):
        _system(r=-1.0)
    with pytest.raises(ValueError):
        _system(omega_r=0.0)
    for offsets in ((), (1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ValueError):
            _system(offsets=offsets)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True,
                                   pytest.param(np.True_, id="np-True"),
                                   pytest.param("1", id="string")])
@pytest.mark.parametrize("field", ["gamma", "r", "theta_d", "phi", "omega_r", "offsets"])
def test_spin_system_rejects_non_finite_fields(field, value):
    # unchecked, omega_r = inf divided by zero, phi = inf and omega_r = nan
    # failed to convert NaN to an integer, and r = inf gave a gate; a bool,
    # which math.isfinite takes as 1, spun the pair at 1 rad/s; a string
    # raised a TypeError that named no field
    bad = (TWO_PI * 2000.0, value) if field == "offsets" else value
    with pytest.raises(ValueError, match=f"^{field} must be finite") as exc:
        _system(**{field: bad})
    assert exc.value.field == field  # what the CLI reads, not the message


@pytest.mark.parametrize("field, value", [
    ("r", 1e-200), ("r", 1e200), ("r", 0.0), ("r", -1.53e-10),
    ("omega_r", 1e-300), ("omega_r", 0.0), ("omega_r", -TWO_PI * 7884.0), ("omega_r", 6.0),
])
def test_spin_system_rejects_out_of_range_fields(field, value):
    # unchecked, r = 1e-200 (r**3 underflows) and omega_r = 1e-300
    # (omega_r**2 underflows) were taken, and extract_gate then raised a bare
    # ZeroDivisionError; below 1 Hz of spinning the step integrals lose the
    # dipolar term
    with pytest.raises(ValueError, match=f"^{field} ") as exc:
        _system(**{field: value})
    assert exc.value.field == field  # what the CLI reads, not the message


def test_theta_folding():
    # theta and pi - theta give the same geometry
    a = _system(theta_d=deg_to_rad(64.0))
    b = _system(theta_d=deg_to_rad(116.0))
    assert a.theta_d == pytest.approx(b.theta_d)
    # and so do -theta and theta
    c = _system(theta_d=deg_to_rad(-64.0))
    assert c.theta_d == pytest.approx(a.theta_d, abs=1e-15)
