"""Hamiltonian construction for a homonuclear pair under MAS and CW drive.

Covers the MAS-modulated dipolar coupling, the offset and RF part of the
rotating-frame Hamiltonian, effective fields, and the analytic zeroth-order
average Hamiltonians for the two recoupling classes with their scaling
factors.
"""

from dataclasses import dataclass
import math

import numpy as np

from .operators import SPINS, spin_operator
from .units import HBAR, MU0_OVER_4PI


@dataclass(frozen=True)
class DipolarConstants:
    """Dipolar coupling amplitudes (rad/s) for a pair at angle theta_d.

    omega_full is the geometric prefactor (mu0/4pi) * gamma^2 hbar / r^3;
    omega_d1 and omega_d2 multiply the first and second rotor harmonics.
    """

    omega_full: float
    omega_d1: float
    omega_d2: float

    def harmonic(self, m):
        if m == 1:
            return self.omega_d1
        if m == 2:
            return self.omega_d2
        raise ValueError(f"harmonic m must be 1 or 2, got {m}")


@dataclass(frozen=True)
class EffectiveField:
    """Effective RF field felt by one spin: magnitude and tilt from z."""

    omega_e: float
    beta: float


@dataclass(frozen=True)
class AverageHamiltonianSpec:
    """Parameters of a zeroth-order recoupled average Hamiltonian.

    condition_class 'a' is the flip-flop (zero-quantum) mechanism,
    'b' the flop-flop (double-quantum) one. coupling is the signed
    off-diagonal amplitude (1/2)*B*omega_dm or (1/2)*Q*omega_dm;
    phase is the rotor phase factor m*phi.
    """

    condition_class: str
    m: int
    b_factor: float
    q_factor: float
    coupling: float
    phase: float

    def __post_init__(self):
        if self.condition_class not in ("a", "b"):
            raise ValueError(f"condition class must be 'a' or 'b', got {self.condition_class!r}")
        if self.m not in (1, 2):
            raise ValueError(f"harmonic m must be 1 or 2, got {self.m}")


def dipolar_constants(gamma, r, theta_d):
    """Rotor-harmonic dipolar amplitudes for geometry (gamma, r, theta_d)."""
    if r <= 0:
        raise ValueError("internuclear distance must be positive")
    omega_full = MU0_OVER_4PI * gamma**2 * HBAR / r**3
    return constants_from_full(omega_full, theta_d)


def constants_from_full(omega_full, theta_d):
    """Same as dipolar_constants but with the prefactor given explicitly."""
    return DipolarConstants(
        omega_full=omega_full,
        omega_d1=math.sqrt(2.0) * omega_full * math.sin(2.0 * theta_d),
        omega_d2=omega_full * math.sin(theta_d) ** 2,
    )


def dipolar_coupling_operator():
    """The secular homonuclear form I_z S_z - (1/4)(I+S- + I-S+) of the pair."""
    iz = spin_operator(0, "z")
    sz = spin_operator(1, "z")
    ip = spin_operator(0, "+")
    im = spin_operator(0, "-")
    sp = spin_operator(1, "+")
    sm = spin_operator(1, "-")
    return iz @ sz - 0.25 * (ip @ sm + im @ sp)


def static_drive_hamiltonian(system, drive):
    """Offset + RF part of the rotating-frame Hamiltonian (time independent)."""
    h = np.zeros((4, 4), dtype=complex)
    for k, dw in enumerate(system.offsets):
        h = h + dw * spin_operator(k, "z")
    if drive is not None and drive.omega_1 != 0.0:
        cx, sx = math.cos(drive.phase), math.sin(drive.phase)
        for k in SPINS:
            h = h + drive.omega_1 * (
                cx * spin_operator(k, "x") + sx * spin_operator(k, "y")
            )
    return h


def effective_field(delta_omega, omega_1):
    """Effective field magnitude and tilt angle from the z axis.

    beta = atan2(omega_1, delta_omega), so a pure offset gives beta = 0 and
    an on-resonance drive gives beta = pi/2; the degenerate all-zero input
    is defined as beta = 0.
    """
    omega_e = math.hypot(delta_omega, omega_1)
    beta = 0.0 if omega_e == 0.0 else math.atan2(omega_1, delta_omega)
    return EffectiveField(omega_e=omega_e, beta=beta)


def bq_factors(beta_i, beta_s):
    """Flip-flop (B) and flop-flop (Q) scaling factors of the tilt angles."""
    cc = math.cos(beta_i) * math.cos(beta_s)
    ss = math.sin(beta_i) * math.sin(beta_s)
    b = -(1.0 + cc - 2.0 * ss) / 8.0
    q = (1.0 - cc + 2.0 * ss) / 8.0
    return b, q


def make_average_spec(condition_class, m, beta_i, beta_s, constants, phi):
    """Assemble the average-Hamiltonian parameters for a recoupling setting."""
    b, q = bq_factors(beta_i, beta_s)
    omega_dm = constants.harmonic(m)
    factor = b if condition_class == "a" else q
    return AverageHamiltonianSpec(
        condition_class=condition_class,
        m=m,
        b_factor=b,
        q_factor=q,
        coupling=0.5 * factor * omega_dm,
        phase=m * phi,
    )


def average_hamiltonian(spec):
    """Zeroth-order average Hamiltonian matrix for a recoupling setting.

    Class 'a': coupling * [I+S- e^{-i phase} + I-S+ e^{+i phase}]
    Class 'b': coupling * [I+S+ e^{-i phase} + I-S- e^{+i phase}]
    """
    ip = spin_operator(0, "+")
    im = spin_operator(0, "-")
    sp = spin_operator(1, "+")
    sm = spin_operator(1, "-")
    ph = np.exp(-1j * spec.phase)
    if spec.condition_class == "a":
        raw = ip @ sm * ph + im @ sp * np.conj(ph)
    else:
        raw = ip @ sp * ph + im @ sm * np.conj(ph)
    return spec.coupling * raw
