"""Spin-1/2 operator algebra of the two-qubit register, the I/S spin pair.

Conventions fixed once here:
  * |0> is the +1/2 eigenstate of I_z (spin up); kets are ordered
    |I>|S> with the I (methylene-like) spin first.
  * Operators act on the 4 dimensional pair space: a single-spin operator
    is embedded by a tensor product with the identity on the other spin.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .hamiltonian import dipolar_constants
from .units import TWO_PI, FieldError, choice, number

SPINS = (0, 1)  # spin indices: 0 is I, 1 is S
BASIS_LABELS = ("00", "01", "10", "11")
# slowest spinning (Hz): far below any MAS rate, and far above the rates
# where w_r**2 underflows or the step integrals, which subtract
# antiderivatives of size w_d/w_r and w_d/w_r**2, cancel the dipolar term
MIN_SPIN_RATE_HZ = 1.0

_SINGLE = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
    "+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


@lru_cache(maxsize=None)
def spin_operator(index, axis):
    """Single-spin operator of spin `index` (0 = I, 1 = S) on the pair.

    axis is one of 'x', 'y', 'z', '+', '-'. Returns a cached read-only
    array; copy before mutating.
    """
    if index not in SPINS:
        raise IndexError(f"spin index {index} out of range for the spin pair")
    choice(axis, tuple(_SINGLE), "axis")
    op = np.eye(1, dtype=complex)
    for k in SPINS:
        op = np.kron(op, _SINGLE[axis] if k == index else np.eye(2))
    op.setflags(write=False)
    return op


def basis_state(label):
    """Pure density matrix for a computational basis ket, e.g. '01' -> |0>|1><...|.

    '0' is spin up (+1/2 along z).
    """
    idx = int(choice(label, BASIS_LABELS, "label"), 2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def expectation(rho, op):
    return np.trace(rho @ op)


def check_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-10, eig_tol=1e-10,
                         field="density matrix"):
    """rho as a complex array, if it is a finite 4x4 density matrix: Hermitian,
    of unit trace and positive semidefinite; else a ValueError that names
    the field."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4) or not np.issubdtype(rho.dtype, np.number):
        raise ValueError(f"{field} must be a 4x4 matrix of numbers, "
                         f"got {rho.dtype} of shape {rho.shape}")
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"{field} has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        raise ValueError(f"{field} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValueError(f"{field} trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError(f"{field} has a negative eigenvalue")
    return rho


def check_unitary(u, tol=1e-10):
    u = np.asarray(u)
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > tol:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    return u


def _fold_theta(theta_d):
    # The orientation enters only through sin(2*theta) and sin^2(theta);
    # fold into [0, pi/2] where both coupling amplitudes are non-negative.
    theta = math.fmod(theta_d, math.pi)
    if theta < 0:
        theta += math.pi
    if theta > math.pi / 2:
        theta = math.pi - theta
    return theta


@dataclass(frozen=True)
class SpinSystem:
    """Geometry and frequencies of the homonuclear I/S spin pair under MAS.

    gamma    gyromagnetic ratio, rad s^-1 T^-1
    r        internuclear distance, m
    theta_d  angle between internuclear vector and spinning axis, rad
             (folded into [0, pi/2])
    phi      initial rotor phase, rad
    omega_r  spinning angular frequency, rad/s, at least 2 pi MIN_SPIN_RATE_HZ
    offsets  (I, S) resonance offsets from the RF carrier, rad/s; exactly two

    r and gamma must give a finite, positive dipolar coupling. A field out
    of range raises a FieldError (a ValueError) that names it.
    """

    gamma: float
    r: float
    theta_d: float
    phi: float
    omega_r: float
    offsets: tuple

    def __post_init__(self):
        try:
            offset_i, offset_s = self.offsets
        except (TypeError, ValueError):  # not a pair
            raise ValueError("offsets must be a pair: the I and S offsets") from None
        for field in ("gamma", "r", "theta_d", "phi", "omega_r"):
            minimum = TWO_PI * MIN_SPIN_RATE_HZ if field == "omega_r" else -math.inf
            number(getattr(self, field), field, minimum)
        object.__setattr__(self, "offsets", (number(offset_i, "offsets"),
                                             number(offset_s, "offsets")))
        try:  # r <= 0, or r**3 underflows or overflows
            coupling = dipolar_constants(self.gamma, self.r, 0.0).omega_full
        except (ValueError, ArithmeticError):
            coupling = math.nan
        if not (math.isfinite(coupling) and coupling > 0):
            raise FieldError("r", f"r = {self.r!r} m with gamma = {self.gamma!r} gives a dipolar "
                             f"coupling of {coupling:g} rad/s; it must be finite and positive")
        object.__setattr__(self, "theta_d", _fold_theta(self.theta_d))

    @property
    def rotor_period(self):
        return 2.0 * math.pi / self.omega_r
