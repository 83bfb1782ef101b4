import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2tr.hamiltonian import (bq_factors, dipolar_constants,
                              dipolar_coupling_operator, effective_field,
                              static_drive_hamiltonian)
from r2tr.operators import SpinSystem, spin_operator
from r2tr.propagator import RFDrive, _segment_hamiltonian
from r2tr.units import (GAMMA_C13, GLYCINE_CC_DISTANCE, TWO_PI, deg_to_rad,
                        hz_to_angular)

# frozen oracle values for the glycine pair (r = 1.53 A, theta_D = 64 deg)
OMEGA_FULL_HZ = 2121.449485
OMEGA_D1_HZ = 2364.176177
OMEGA_D2_HZ = 1713.772102
BETA_I_DEG = 49.467364   # offset 2000 Hz, amplitude 2339 Hz
BETA_S_DEG = 7.129919    # offset 18699 Hz
B_FACTOR = -0.182023118
Q_FACTOR = 0.067976882


def glycine_system(phi=0.0):
    return SpinSystem(gamma=GAMMA_C13, r=GLYCINE_CC_DISTANCE,
                      theta_d=deg_to_rad(64.0), phi=phi,
                      omega_r=TWO_PI * 7884.0,
                      offsets=(TWO_PI * 2000.0, TWO_PI * 18699.0))


def modulation(fn, t):
    """D(t) of a HarmonicHamiltonian: its two rotor harmonics at time t."""
    arg = fn.omega_r * np.asarray(t) + fn.phi
    return fn.omega_d1 * np.cos(arg) + fn.omega_d2 * np.cos(2.0 * arg)


def test_dipolar_constants_glycine():
    c = dipolar_constants(GAMMA_C13, GLYCINE_CC_DISTANCE, deg_to_rad(64.0))
    assert c.omega_full / TWO_PI == pytest.approx(OMEGA_FULL_HZ, abs=1e-3)
    assert c.omega_d1 / TWO_PI == pytest.approx(OMEGA_D1_HZ, abs=1e-3)
    assert c.omega_d2 / TWO_PI == pytest.approx(OMEGA_D2_HZ, abs=1e-3)
    assert c.harmonic(1) == c.omega_d1
    assert c.harmonic(2) == c.omega_d2
    with pytest.raises(ValueError):
        c.harmonic(3)


def test_harmonic_amplitudes_vs_theta():
    # at the magic angle-ish extremes: theta = 0 kills both harmonics,
    # theta = 90 deg kills the first and maximizes the second
    c0 = dipolar_constants(GAMMA_C13, GLYCINE_CC_DISTANCE, 0.0)
    assert c0.omega_d1 == pytest.approx(0.0, abs=1e-12 * c0.omega_full)
    assert c0.omega_d2 == pytest.approx(0.0, abs=1e-12 * c0.omega_full)
    c90 = dipolar_constants(GAMMA_C13, GLYCINE_CC_DISTANCE, np.pi / 2)
    assert c90.omega_d1 == pytest.approx(0.0, abs=1e-12 * c90.omega_full)
    assert c90.omega_d2 == pytest.approx(c90.omega_full)


def test_modulation_is_rotor_periodic_and_zero_mean():
    sys = glycine_system(phi=0.3)
    c = dipolar_constants(sys.gamma, sys.r, sys.theta_d)
    fn = _segment_hamiltonian(sys, None, c)
    t = np.linspace(0.0, sys.rotor_period, 4097)[:-1]
    d = modulation(fn, t)
    assert np.mean(d) == pytest.approx(0.0, abs=1e-6 * c.omega_full)
    d_shift = modulation(fn, t + 3 * sys.rotor_period)
    assert np.allclose(d, d_shift, atol=1e-6)


def test_coupling_operator_structure():
    op = dipolar_coupling_operator()
    iz = spin_operator(0, "z") @ spin_operator(1, "z")
    flip = (spin_operator(0, "+") @ spin_operator(1, "-")
            + spin_operator(0, "-") @ spin_operator(1, "+"))
    assert np.allclose(op, iz - 0.25 * flip)
    assert np.allclose(op, op.conj().T)


def test_static_drive_hamiltonian():
    sys = glycine_system()
    h0 = static_drive_hamiltonian(sys, None)
    # offsets only: diagonal
    assert np.allclose(h0, np.diag(np.diag(h0)))
    drive = RFDrive(omega_1=hz_to_angular(2339.0))
    h = static_drive_hamiltonian(sys, drive)
    expected = (sys.offsets[0] * spin_operator(0, "z")
                + sys.offsets[1] * spin_operator(1, "z")
                + drive.omega_1 * (spin_operator(0, "x")
                                   + spin_operator(1, "x")))
    assert np.allclose(h, expected)


def test_rotating_frame_hamiltonian_is_hermitian():
    sys = glycine_system(phi=1.1)
    c = dipolar_constants(sys.gamma, sys.r, sys.theta_d)
    drive = RFDrive(omega_1=hz_to_angular(2339.0), phase=0.4)
    fn = _segment_hamiltonian(sys, drive, c)
    for t in (0.0, 1.7e-5, 3.3e-4):
        h = fn.h_static + modulation(fn, t) * fn.h_dip
        assert np.allclose(h, h.conj().T)


def test_effective_field_tilt_angles():
    w1 = hz_to_angular(2339.0)
    ei = effective_field(hz_to_angular(2000.0), w1)
    es = effective_field(hz_to_angular(18699.0), w1)
    assert np.degrees(ei.beta) == pytest.approx(BETA_I_DEG, abs=1e-4)
    assert np.degrees(es.beta) == pytest.approx(BETA_S_DEG, abs=1e-4)
    assert ei.omega_e == pytest.approx(np.hypot(hz_to_angular(2000.0), w1))


def test_effective_field_limits():
    # no RF: field along z (beta = 0); on resonance: transverse (beta = pi/2)
    assert effective_field(1.0, 0.0).beta == pytest.approx(0.0)
    assert effective_field(0.0, 1.0).beta == pytest.approx(np.pi / 2)
    # negative offset tilts past pi/2
    assert effective_field(-1.0, 1.0).beta > np.pi / 2


def test_bq_factors_glycine():
    bi, bs = np.radians(BETA_I_DEG), np.radians(BETA_S_DEG)
    b, q = bq_factors(bi, bs)
    assert b == pytest.approx(B_FACTOR, abs=1e-8)
    assert q == pytest.approx(Q_FACTOR, abs=1e-8)


def test_bq_factor_extremes():
    # both spins untilted: pure flip-flop with B = -1/4, Q = 0
    b, q = bq_factors(0.0, 0.0)
    assert b == pytest.approx(-0.25)
    assert q == pytest.approx(0.0)
    # both spins fully tilted: B = +1/8, Q = 3/8
    b, q = bq_factors(np.pi / 2, np.pi / 2)
    assert b == pytest.approx(0.125)
    assert q == pytest.approx(0.375)


@given(st.floats(0.0, np.pi), st.floats(0.0, np.pi))
def test_bq_factor_ranges(bi, bs):
    b, q = bq_factors(bi, bs)
    assert -0.25 - 1e-12 <= b <= 0.125 + 1e-12
    assert -0.125 - 1e-12 <= q <= 0.375 + 1e-12
