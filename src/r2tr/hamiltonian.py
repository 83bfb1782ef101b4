"""The scalars of a homonuclear pair's Hamiltonian under MAS and CW drive.

Covers the rotor-harmonic amplitudes of the MAS-modulated dipolar
coupling, the effective field each spin feels under the drive, and the B/Q
scaling factors of the two recoupling classes. The Hamiltonian itself is
written in closed form, in the band frame where the propagator integrates
it (see `propagator`).
"""

from dataclasses import dataclass
import math

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


def dipolar_constants(gamma, r, theta_d):
    """Rotor-harmonic dipolar amplitudes for geometry (gamma, r, theta_d)."""
    if r <= 0:
        raise ValueError("internuclear distance must be positive")
    omega_full = MU0_OVER_4PI * gamma**2 * HBAR / r**3
    return DipolarConstants(
        omega_full=omega_full,
        omega_d1=math.sqrt(2.0) * omega_full * math.sin(2.0 * theta_d),
        omega_d2=omega_full * math.sin(theta_d) ** 2,
    )


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
