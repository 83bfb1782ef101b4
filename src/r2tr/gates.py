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

from .operators import check_unitary

_SQ2 = math.sqrt(2.0)

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


def _reduce_angles(angles):
    """Canonical orbit representative under the local-equivalence moves:
    any angle may shift by 2 pi, any two may flip sign, any permutation."""
    period = 2.0 * math.pi

    def normalize(a):
        return tuple(sorted(x % period for x in a))

    best = normalize(angles)
    seen = {best}
    frontier = [best]
    while frontier:
        new = []
        for cur in frontier:
            for i in range(3):
                for j in range(i + 1, 3):
                    cand = list(cur)
                    cand[i] = -cand[i]
                    cand[j] = -cand[j]
                    cand = normalize(cand)
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        frontier = new
    best = min(seen)
    return tuple(sorted(best, reverse=True))


def universality_class(angles, tol=1e-9):
    """Classify interaction angles by entangling power, after reduction.

    `angles` is a plain (Pauli-convention) triple or the CanonicalAngles of
    weyl_coordinates, which carry 4x those angles.
    'non-entangling' if all angles vanish, 'excluded-swap-class' if all
    three equal pi/4, 'universal' otherwise.
    """
    if isinstance(angles, CanonicalAngles):
        angles = (angles.theta_x / 4.0, angles.theta_y / 4.0, angles.theta_z / 4.0)
    reduced = _reduce_angles(angles)
    if all(abs(a) <= tol for a in reduced):
        return "non-entangling"
    if all(abs(a - math.pi / 4) <= tol for a in reduced):
        return "excluded-swap-class"
    return "universal"


def weyl_coordinates(u, ndigits=10):
    """Weyl-chamber interaction angles of a two-qubit gate, as CanonicalAngles
    (4x the Pauli-exponent coordinates).

    Follows the spectral method of Childs et al., PRA 68, 052311 (2003).
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
    coords = np.round(np.array([c1, c2, c3]) * (math.pi / 2.0) * 4.0, ndigits)
    return CanonicalAngles(*coords)


def gate_to_json(u):
    """Row-major [re, im] pairs, the on-disk form of a gate matrix."""
    u = np.asarray(u, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in u]
