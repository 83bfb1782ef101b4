"""Two-qubit gate layer: named gates, local-equivalence tools, Weyl
coordinates and the entangling-power classification of a gate.

Interaction angles are quoted for the exponent convention
exp[i (theta_x Ix Sx + theta_y Iy Sy + theta_z Iz Sz)] with spin-1/2
operators (so a bare Pauli-product exponent carries 1/4 of these angles).
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .operators import check_unitary, spin_operator

_SQ2 = math.sqrt(2.0)
# decimal digits of the Weyl coordinates
WEYL_NDIGITS = 10

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)

# Bell ("magic") basis columns
MAGIC = np.array(
    [[1, 0, 0, 1j],
     [0, 1j, 1, 0],
     [0, 1j, -1, 0],
     [1, 0, 0, -1j]], dtype=complex) / _SQ2


def rz(theta):
    """Single-qubit z rotation diag(e^{-i theta/2}, e^{+i theta/2})."""
    return np.array([[cmath.exp(-0.5j * theta), 0],
                     [0, cmath.exp(0.5j * theta)]], dtype=complex)


def iswap():
    """The gate swapping |01> and |10> with phase i."""
    return np.array(
        [[1, 0, 0, 0],
         [0, 0, 1j, 0],
         [0, 1j, 0, 0],
         [0, 0, 0, 1]], dtype=complex)


def u_flip(phi):
    """Half-exchange-period flip-flop evolution at rotor phase phi.

    Like iswap() but with the off-diagonal phases i e^{-+ 2 i phi}; reduces
    to iswap() exactly at phi = 0.
    """
    # i e^{-+ 2 i phi} spelled out with sin/cos so phi = 0 is bit-exact i
    c, s = math.cos(2 * phi), math.sin(2 * phi)
    return np.array(
        [[1, 0, 0, 0],
         [0, 0, complex(s, c), 0],
         [0, complex(-s, c), 0, 0],
         [0, 0, 0, 1]], dtype=complex)


def swap():
    return np.array(
        [[1, 0, 0, 0],
         [0, 0, 1, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1]], dtype=complex)


def cnot():
    """CNOT with the first (I) qubit as control."""
    return np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=complex)


def cns():
    """CNOT followed by SWAP (control = first qubit)."""
    return swap() @ cnot()


def makhlin_invariants(u):
    """Local-unitary invariants (g1 complex, g2 real) of a two-qubit gate."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit unitary")
    check_unitary(u, tol=1e-9)
    um = MAGIC.conj().T @ u @ MAGIC
    det = np.linalg.det(um)
    m = um.T @ um
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(g2.real)


def locally_equivalent(u, v, tol=1e-9):
    """True iff u and v differ only by single-qubit gates and global phase."""
    gu1, gu2 = makhlin_invariants(u)
    gv1, gv2 = makhlin_invariants(v)
    return abs(gu1 - gv1) <= tol and abs(gu2 - gv2) <= tol


def operator_fidelity(u, v):
    """|Tr(v^dag u)| / dim, the phase-insensitive operator overlap."""
    u = np.asarray(u)
    v = np.asarray(v)
    return float(abs(np.trace(v.conj().T @ u)) / u.shape[0])


@dataclass(frozen=True)
class CnsCircuit:
    """Local dressing turning one flip-flop evolution into the CNS gate:
    (a1 (x) b1) . u_f . (a2 (x) b2) = CNS up to global phase."""

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    phi: float

    def compose(self):
        return np.kron(self.a1, self.b1) @ u_flip(self.phi) @ np.kron(self.a2, self.b2)


def cns_circuit(phi):
    """Single-qubit dressing implementing CNS from one flip-flop evolution.

    The rotor-phase factors e^{-+ 2 i phi} of the flip-flop gate are
    absorbed by z rotations of +-2 phi; the remaining fixed dressing is
    CNS = (H S^dag (x) S^dag) . iswap . (1 (x) H). Verified by construction,
    so no numerical search is involved.
    """
    s_dag = S_GATE.conj().T
    a1 = HADAMARD @ s_dag @ rz(-2.0 * phi)
    b1 = s_dag @ rz(2.0 * phi)
    a2 = np.eye(2, dtype=complex)
    b2 = HADAMARD
    return CnsCircuit(a1=a1, b1=b1, a2=a2, b2=b2, phi=phi)


@dataclass(frozen=True)
class CanonicalAngles:
    """Weyl coordinates of a two-qubit gate, in the spin-operator angle
    convention of the module doc (4x the Pauli-exponent coordinates)."""

    theta_x: float
    theta_y: float
    theta_z: float


def universality_class(angles, tol=1e-9):
    """Classify interaction angles by entangling power.

    `angles` is a plain (Pauli-convention) triple (a, b, c), standing for the
    gate exp[i (a XX + b YY + c ZZ)], or the CanonicalAngles of
    weyl_coordinates, which carry 4x those angles. A triple is classified by
    the Weyl coordinates of its gate, so the class is invariant under global
    phase, a pi/2 shift of any angle and a sign flip of any two.
    'non-entangling' if all Weyl angles vanish, 'excluded-swap-class' if all
    three equal pi/4, 'universal' otherwise; tol is in Pauli-convention
    radians.
    """
    if not isinstance(angles, CanonicalAngles):
        # the gate is the product of its commuting factors
        # cos(a) 1 + i sin(a) XX, ..., with XX = 4 Ix Sx
        u = np.eye(4, dtype=complex)
        for angle, axis in zip(angles, "xyz"):
            pp = 4.0 * spin_operator(0, axis) @ spin_operator(1, axis)
            u = (math.cos(angle) * np.eye(4) + 1j * math.sin(angle) * pp) @ u
        angles = weyl_coordinates(u)
    pauli = (angles.theta_x / 4.0, angles.theta_y / 4.0, angles.theta_z / 4.0)
    if all(abs(a) <= tol for a in pauli):
        return "non-entangling"
    if all(abs(a - math.pi / 4) <= tol for a in pauli):
        return "excluded-swap-class"
    return "universal"


def weyl_coordinates(u):
    """Weyl-chamber interaction angles of a two-qubit gate, as CanonicalAngles
    (4x the Pauli-exponent coordinates), rounded to WEYL_NDIGITS digits.

    Follows the spectral method of Childs et al., PRA 68, 052311 (2003); on
    the theta_z = 0 face, theta_x and 2 pi - theta_x are one point and the
    smaller is returned, so the boundary theta_x = 2 pi becomes 0. Gates
    that differ by single-qubit gates, global phase, a pi/2 shift of any
    Pauli-convention angle or a sign flip of any two get the same point
    (Zhang et al., PRA 67, 042313 (2003)).
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol=1e-9)
    syy = np.kron(_SIGMA_Y, _SIGMA_Y)
    u_tilde = syy @ u.T @ syy
    ev = np.linalg.eigvals(u @ u_tilde / cmath.sqrt(np.linalg.det(u)))
    two_s = np.angle(ev) / math.pi
    two_s = np.where(two_s <= -0.5, two_s + 2.0, two_s)
    s = np.sort(two_s / 2.0)[::-1]
    n = int(round(s.sum()))
    s = s - np.r_[np.ones(n), np.zeros(4 - n)]
    s = np.roll(s, -n)
    mat = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
    c1, c2, c3 = mat @ s[:3]
    if c3 < 0:
        c1, c3 = 1 - c1, -c3
    # c_k are in units of pi/2 in the Pauli-exponent convention; the
    # spin-operator convention used throughout carries a factor 4.
    coords = np.round(np.array([c1, c2, c3]) * (math.pi / 2.0) * 4.0, WEYL_NDIGITS)
    if coords[2] == 0.0 and coords[0] > round(math.pi, WEYL_NDIGITS):
        # on the c3 = 0 face c1 and 1 - c1 are one point (a pi/2 shift and a
        # pair sign flip, as in the c3 < 0 rule); take c1 <= 1/2, which also
        # maps the boundary c1 = 1 to 0 (exp(i pi/2 XX) = i XX)
        coords[0] = round(2.0 * math.pi - coords[0], WEYL_NDIGITS)
    return CanonicalAngles(*coords)


def gate_to_json(u):
    """Row-major [re, im] pairs, the on-disk form of a gate matrix."""
    u = np.asarray(u, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in u]
