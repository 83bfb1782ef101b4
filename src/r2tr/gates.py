"""Two-qubit gate layer: canonical gates, local-equivalence tools and the
entangling-power classification of bilinear couplings.

Canonical interaction angles are quoted for the exponent convention
exp[i (theta_x Ix Sx + theta_y Iy Sy + theta_z Iz Sz)] with spin-1/2
operators (so a bare Pauli-product exponent carries 1/4 of these angles).
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .operators import check_unitary

_SQ2 = math.sqrt(2.0)

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
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
    """Interaction angles of a bilinear two-spin evolution (see module doc)."""

    theta_x: float
    theta_y: float
    theta_z: float

    def reduced(self):
        return _reduce_angles((self.theta_x, self.theta_y, self.theta_z))


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
    """Classify a bilinear coupling by its reduced interaction angles.

    CanonicalAngles carry 4x the angles of a plain (Pauli-convention) triple.
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


def _bilinear_coefficients(h):
    """3x3 coefficient matrix W with h = sum_ab W[a,b] * Ia (x) Sb."""
    h = np.asarray(h, dtype=complex)
    w = np.zeros((3, 3))
    resid = h.copy()
    axes = "xyz"
    for a in range(3):
        for b in range(3):
            # Ia (x) Sb = (sigma_a/2) (x) (sigma_b/2)
            op = np.kron(PAULI[axes[a]], PAULI[axes[b]]) / 4.0
            w[a, b] = np.trace(h @ np.kron(PAULI[axes[a]], PAULI[axes[b]])).real
            resid = resid - w[a, b] * op
    return w, resid


def canonical_angles(h, t, tol=1e-8):
    """Interaction angles of exp(-i h t) for a bilinear two-spin Hamiltonian.

    A rotor-phase factor appearing as a rotation inside the transverse
    (x,y) coefficient block is removed by local z rotations (SVD of the
    block); the singular values then give theta_x, theta_y and the z-z
    coefficient gives theta_z. Raises if h is not of bilinear product form.
    """
    w, resid = _bilinear_coefficients(h)
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(resid).max() > tol * scale:
        raise ValueError("Hamiltonian is not a pure bilinear two-spin coupling")
    if max(np.abs(w[2, :2]).max(), np.abs(w[:2, 2]).max()) > tol * scale:
        raise ValueError("Hamiltonian mixes z with transverse components; "
                         "not reducible by local z rotations")
    block = w[:2, :2]
    u, s, vt = np.linalg.svd(block)
    sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    theta_x = s[0] * t
    theta_y = (sign if sign != 0 else 1.0) * s[1] * t
    theta_z = w[2, 2] * t
    return CanonicalAngles(theta_x=theta_x, theta_y=theta_y, theta_z=theta_z)


def weyl_coordinates(u, ndigits=10):
    """Weyl-chamber interaction angles of a two-qubit gate (same convention
    as CanonicalAngles, i.e. 4x the Pauli-exponent coordinates).

    Follows the spectral method of Childs et al., PRA 68, 052311 (2003).
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol=1e-9)
    syy = np.kron(PAULI["y"], PAULI["y"])
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
