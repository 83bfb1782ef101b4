"""Time-ordered evolution of states and unitaries through pulse sequences.

Events are ideal (instantaneous) rotations, free-evolution delays and CW
irradiation segments. CW segments are wrapped with trim pulses that align
each spin's quantization axis with its effective field before the drive
and undo the rotation afterwards.

One walk over the events folds every step unitary into the sequence
unitary U and records sampled views (t, V): the unitary a measurement at
t sees, through the closing trim pulse inside a CW segment, as in a
point-by-point experiment. `extract_gate` returns U; `run_sequence`
evaluates V rho V^dag at the samples only.

Integration is by piecewise step exponentials. Each segment's Hamiltonian
carries its rotor-harmonic decomposition, and each step uses its exact
integral plus the leading commutator correction, so the step error is far
below the sampling error. Every step exponential is taken via Hermitian
eigendecomposition, keeping unitarity at roundoff.

A segment is integrated in the singlet-triplet band frame Q = (S, T0, A,
B): S and T0 are the singlet and central triplet, A is the combination of
|00> and |11> that the offset and drive part couples to T0, and B is the
orthogonal one. The secular dipolar operator is diagonal there, (0, -1/2,
1/4, 1/4), and the offset and drive part is tridiagonal (S-T0 from the
offset difference, T0-A from the drive, A-B from the offset sum), so every
step generator is tridiagonal. Each generator is made real symmetric by a
diagonal unitary similarity, so it goes to LAPACK's real symmetric solver,
and its step unitary is rebuilt from the real eigenvectors by real matrix
products; a generator with entries off the band, which only a product-basis
Hamiltonian has, keeps the complex Hermitian path. The walk enters the
frame with Q^dag and leaves it with Q.

The steps are taken in fixed blocks: each block's edges and generators are
built and exponentiated together, and its run of steps between two samples is
multiplied out by batched pairwise products before it is folded into U,
so no Python loop runs once per step. No time grid is stored: a block's
edges and the sample times are computed from the step, and one block is
alive at a time, so memory is O(one block) whatever the segment's length.
"""

from dataclasses import dataclass
import math

import numpy as np

from .hamiltonian import (
    dipolar_constants,
    dipolar_coupling_operator,
    effective_field,
    static_drive_hamiltonian,
)
from .operators import SPINS, expectation, spin_operator

DEFAULT_STEPS_PER_PERIOD = 1024
# steps per batch in `_fold`: one eigh and one pairwise reduction share their
# Python overhead over this many steps, and a batch stays at 128 kB
FOLD_BLOCK = 512
# the singlet and central triplet of the pair, the band frame's first two
# columns; the entries of a 4x4 tridiagonal matrix, its subdiagonal and the
# entries off its band
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_TRIPLET0 = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
_BAND = abs(np.subtract.outer(np.arange(4), np.arange(4))) <= 1
_SUB_ROW, _SUB_COL = np.arange(1, 4), np.arange(3)
_FAR_ROW, _FAR_COL = np.nonzero(~_BAND)


@dataclass(frozen=True)
class RFDrive:
    """A continuous-wave irradiation segment's drive parameters.

    omega_1  amplitude, rad/s
    phase    RF phase, rad (0 = x)
    """

    omega_1: float
    phase: float = 0.0

    def __post_init__(self):
        if self.omega_1 < 0:
            raise ValueError("drive amplitude must be non-negative")


@dataclass(frozen=True)
class IdealRotation:
    """Instantaneous rotation of the target spins about a fixed axis."""

    targets: tuple
    axis: str
    angle: float

    def __post_init__(self):
        targets = tuple(self.targets)
        if not targets:
            raise ValueError("rotation needs at least one target spin")
        if len(set(targets)) != len(targets):
            raise ValueError(f"rotation targets must not repeat a spin, got {targets}")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class Delay:
    """Free evolution for `duration` seconds, with or without the dipolar term."""

    duration: float
    dipolar_on: bool = True

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class CWSegment:
    """CW irradiation for `duration` seconds.

    trim enables the wrapping trim pulses; skip_trim lists spin indices
    whose trim pulse is omitted (experimentally done when the required tip
    angle is very small).
    """

    drive: RFDrive
    duration: float
    trim: bool = True
    skip_trim: tuple = ()

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        object.__setattr__(self, "skip_trim", tuple(self.skip_trim))


@dataclass(frozen=True)
class Trajectory:
    """Sampled per-spin longitudinal magnetizations along a sequence."""

    times: np.ndarray
    iz: np.ndarray
    sz: np.ndarray

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t_s,Iz,Sz\n")
            for t, a, b in zip(self.times, self.iz, self.sz):
                fh.write(f"{t:.12g},{a:.12g},{b:.12g}\n")


class HarmonicHamiltonian:
    """H(t) = H_static + D(t) H_dip with D a sum of two rotor harmonics.

    Knows its own antiderivatives, which lets the integrator use exact
    per-step integrals and the leading commutator correction.

    h_static and h_dip are written in the basis of frame's columns: frame
    is a unitary Q, and the product-basis Hamiltonian is Q H(t) Q^dag. The
    default is the identity, the product basis itself.
    """

    def __init__(self, h_static, h_dip, omega_r, phi, omega_d1, omega_d2,
                 frame=None):
        self.h_static = np.asarray(h_static, dtype=complex)
        self.h_dip = np.asarray(h_dip, dtype=complex)
        self.frame = np.eye(4, dtype=complex) if frame is None else frame
        self.omega_r = omega_r
        self.phi = phi
        self.omega_d1 = omega_d1
        self.omega_d2 = omega_d2
        self._comm = self.h_static @ self.h_dip - self.h_dip @ self.h_static

    def step_generators(self, edges, dt):
        """Hermitian generators M_k with U_k = exp(-i M_k) for the steps
        between consecutive edges, each dt long.

        M_k = integral of H over the step plus the leading Magnus
        commutator term (which is i times an anti-Hermitian matrix, hence
        Hermitian as written). The antiderivatives are evaluated once per
        edge and differenced.
        """
        arg = self.omega_r * edges + self.phi
        sin1, cos1 = np.sin(arg), np.cos(arg)
        sin2, cos2 = np.sin(2.0 * arg), np.cos(2.0 * arg)
        wr, d1, d2 = self.omega_r, self.omega_d1, self.omega_d2
        # P, Q and R: the antiderivatives of D, of P and of t D(t)
        p = d1 / wr * sin1 + d2 / (2.0 * wr) * sin2
        q = -d1 / wr**2 * cos1 - d2 / (4.0 * wr**2) * cos2
        r = d1 * (edges * sin1 / wr + cos1 / wr**2)
        r += d2 * (edges * sin2 / (2.0 * wr) + cos2 / (4.0 * wr**2))
        area = p[1:] - p[:-1]
        # K = iint_{t0<t2<t1<t} (D(t2) - D(t1)) dt2 dt1 over the step
        term1 = (q[1:] - q[:-1]) - p[:-1] * dt
        term2 = (r[1:] - r[:-1]) - edges[:-1] * area
        k = term1 - term2
        # an (n, 1) @ (1, 16) outer product allocates only its result, where
        # a broadcast multiply also allocates two iterator buffers
        m = area.astype(complex)[:, None] @ self.h_dip.reshape(1, 16)
        m += (dt * self.h_static).reshape(1, 16)
        m -= (0.5j * k)[:, None] @ self._comm.reshape(1, 16)
        return m.reshape(-1, 4, 4)


def _spin_rotation(angle, axis_op):
    """exp(-i angle n.I_k) of one spin-1/2, n.I_k = axis_op: in closed form
    cos(angle/2) 1 - 2i sin(angle/2) n.I_k, since (n.I_k)^2 = 1/4."""
    return (math.cos(angle / 2) * np.eye(4, dtype=complex)
            - 2j * math.sin(angle / 2) * axis_op)


def rotation_unitary(targets, axis, angle):
    """exp(-i angle sum_k I_k^axis): one commuting factor per target spin."""
    u = np.eye(4, dtype=complex)
    for k in targets:
        u = _spin_rotation(angle, spin_operator(k, axis)) @ u
    return u


def _chain(unitaries):
    """Time-ordered product U_{n-1} ... U_1 U_0 of a batch of unitaries, by
    batched pairwise products (log2 n batched matmuls, not n - 1 matmuls)."""
    while (n := len(unitaries)) > 1:
        pairs = unitaries[1::2] @ unitaries[0:n - 1:2]
        unitaries = np.concatenate((pairs, unitaries[n - 1:])) if n % 2 else pairs
    return unitaries[0]


def _edge(t0, t1, steps, k):
    """Edge k of `steps` equal steps over [t0, t1], bitwise equal to
    np.linspace(t0, t1, steps + 1)[k] for k < steps (the last edge is t1);
    k is an int or a float array of such indices."""
    step = (t1 - t0) / steps
    # linspace's own form for a step that rounds to zero
    return k * step + t0 if step else k / steps * (t1 - t0) + t0


def _fold(u, fn, t0, t1, steps, marks=()):
    """Fold the step unitaries exp(-i M_k) of fn's `steps` equal steps over
    [t0, t1] into u in time order; return u and the partial products after
    the steps in marks.

    This is the only product over step unitaries. The steps are taken
    FOLD_BLOCK at a time: a block's edges and generators are built, checked
    and exponentiated with one batched Hermitian eigendecomposition. The
    last block is released before the next one is built, so memory is one
    block whatever the number of steps. Within a block, each run of steps
    that ends at a mark or at the block edge is reduced by `_chain` and then
    multiplied into u. Marks are step indices in range(steps); a repeated
    mark gives one partial product.

    Each generator M is decomposed as D M D^dag, D = diag(p) with
    p_j = exp(-i sum_{m<j} theta_m) and theta_m the phase of M[m+1, m].
    This is an exact unitary similarity for any Hermitian M, and it makes
    the subdiagonal real, |M[m+1, m]|. A block whose entries off the band
    are all zero (every block of the band frame) so becomes real symmetric
    tridiagonal: it goes to the real symmetric solver as float64, and its
    step unitaries D^dag exp(-i D M D^dag) D are rebuilt in real arithmetic
    and then scaled by the phases. A block with entries off the band (a
    product-basis Hamiltonian's) keeps the complex Hermitian path, where the
    eigenvectors of M are those of D M D^dag with their rows scaled by
    conj(p).
    """
    dt = (t1 - t0) / steps
    ends = sorted({k + 1 for k in marks})
    partial, j = [], 0
    for lo in range(0, steps, FOLD_BLOCK):
        hi = min(lo + FOLD_BLOCK, steps)
        block = None  # the last block goes before the next one is built
        edges = _edge(t0, t1, steps, np.arange(lo, hi + 1, dtype=float))
        if hi == steps:
            edges[-1] = t1
        generators = fn.step_generators(edges, dt)
        if not np.all(np.isfinite(generators)):
            raise ValueError("Hamiltonian produced non-finite entries")
        sub = generators[:, _SUB_ROW, _SUB_COL]
        p = np.ones((hi - lo, 4), dtype=complex)
        # np.angle, not sub / abs(sub), which overflows on a subnormal entry
        p[:, 1:] = np.exp(-1j * np.add.accumulate(np.angle(sub), axis=1))
        # D M D^dag entry by entry: the diagonal keeps its value, the sub-
        # and superdiagonal become moduli, and the entries off the band take
        # their phases p_i conj(p_j)
        if generators[:, _FAR_ROW, _FAR_COL].any():
            generators[:, _SUB_ROW, _SUB_COL] = generators[:, _SUB_COL, _SUB_ROW] = np.abs(sub)
            generators[:, _FAR_ROW, _FAR_COL] *= p[:, _FAR_ROW] * p[:, _FAR_COL].conj()
            evals, evecs = np.linalg.eigh(generators)
            del generators, sub
            evecs = np.einsum("ni,nij->nij", p.conj(), evecs)
            del p
            scaled = np.einsum("nij,nj->nij", evecs, np.exp(-1j * evals))
            # conjugating in place keeps the reconstruction at three block arrays
            block = scaled @ np.conjugate(evecs, out=evecs).swapaxes(1, 2)
            del scaled, evecs
        else:
            # a band block: D M D^dag is real symmetric tridiagonal, but for
            # the diagonal's imaginary roundoff, which the complex solver
            # ignores too. With its real eigenvectors W, U = D^dag W e^{-i
            # Lambda} W^T D; xt = e^{-i Lambda} W^T is built in the float view
            # of a contiguous complex array by (4, 1) @ (1, 2) outer products,
            # so W @ xt is one real matmul. Contiguous outputs and same-dtype
            # operands keep numpy from allocating iterator buffers.
            real = np.ascontiguousarray(generators.real)
            del generators
            real[:, _SUB_ROW, _SUB_COL] = real[:, _SUB_COL, _SUB_ROW] = np.abs(sub)
            del sub
            evals, w = np.linalg.eigh(real)
            del real
            rotation = np.exp(-1j * evals).view(float).reshape(-1, 4, 1, 2)
            del evals
            xt = np.ascontiguousarray(w.swapaxes(1, 2))[..., None] @ rotation
            del rotation
            block = (w @ xt.reshape(-1, 4, 8)).view(complex)
            del w, xt
            block = np.einsum("ni,nij->nij", p.conj(), block)
            block = np.einsum("nij,nj->nij", block, p)
            del p
        start = lo
        while j < len(ends) and ends[j] <= hi:
            u = _chain(block[start - lo:ends[j] - lo]) @ u
            partial.append(u)
            start, j = ends[j], j + 1
        if start < hi:
            u = _chain(block[start - lo:hi - lo]) @ u
    return u, partial


def segment_propagator(hamiltonian_fn, t0, t1, steps):
    """Time-ordered propagator over [t0, t1] under a time-dependent Hamiltonian."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t1 == t0:
        return np.eye(4, dtype=complex)
    q = hamiltonian_fn.frame
    return q @ _fold(q.conj().T, hamiltonian_fn, t0, t1, steps)[0]


def _segment_hamiltonian(system, drive, constants, dipolar_on=True):
    """A segment's Hamiltonian in the band frame Q = (S, T0, A, B), built in
    closed form (no eigendecomposition): the offset and drive part is
    tridiagonal there and the dipolar operator diagonal. Entries that are
    zero in exact arithmetic are set to 0, as a roundoff entry would send
    the eigensolver back to its full reduction."""
    h0 = static_drive_hamiltonian(system, drive)
    # A is along the (|00>, |11>) part of h0 T0; it is scaled to a largest
    # modulus of 1 before it is normalized, so that a subnormal drive keeps
    # Q unitary, and by its real parts, as a complex division by a
    # subnormal overflows. With no drive, A = |00>.
    v = (h0 @ _TRIPLET0)[[0, 3]]
    scale = np.max(np.abs(v))
    a = (v.view(float) / scale).view(complex) if scale else np.array([1.0, 0j])
    a /= math.hypot(*np.abs(a))
    q = np.zeros((4, 4), dtype=complex)
    q[:, 0], q[:, 1] = _SINGLET, _TRIPLET0
    q[[0, 3], 2] = a
    q[[0, 3], 3] = a[::-1].conj() * [-1.0, 1.0]
    h0 = np.where(_BAND, q.conj().T @ h0 @ q, 0.0)
    hd = np.diag(np.diag(q.conj().T @ dipolar_coupling_operator() @ q).real)
    d1 = constants.omega_d1 if dipolar_on else 0.0
    d2 = constants.omega_d2 if dipolar_on else 0.0
    return HarmonicHamiltonian(h0, hd, system.omega_r, system.phi, d1, d2, frame=q)


def trim_unitaries(system, segment):
    """Opening and closing trim rotations for a CW segment (identity if off)."""
    drive = segment.drive
    cph, sph = math.cos(drive.phase), math.sin(drive.phase)
    u_open = np.eye(4, dtype=complex)
    for k, dw in enumerate(system.offsets):
        if not segment.trim or k in segment.skip_trim:
            continue
        beta = effective_field(dw, drive.omega_1).beta
        # rotation axis perpendicular to both z and the RF field direction
        axis_op = cph * spin_operator(k, "y") - sph * spin_operator(k, "x")
        u_open = _spin_rotation(beta, axis_op) @ u_open
    return u_open, u_open.conj().T


def _due_steps(t0, t1, steps, due, every, last):
    """Steps of `_fold`'s grid over [t0, t1] at which samples fall due, their
    end times, and the next due time: the first step end past `last` and
    `due` (less 1e-15 s of slack), then `due` += `every`.

    The steps are those np.searchsorted finds on the grid's step ends, found
    without building the grid: each is estimated from the uniform step, then
    moved to the exact index by comparing with the ends `_edge` computes.
    """
    delta = t1 - t0

    def end(k):
        return t1 if k == steps - 1 else _edge(t0, t1, steps, k + 1)

    def first(x):
        # the first step whose end is >= x, or steps if there is none
        if x > t1:
            return steps
        k = 0 if x <= t0 else min(max(math.ceil((x - t0) / delta * steps) - 1, 0), steps - 1)
        while k > 0 and end(k - 1) >= x:
            k -= 1
        while end(k) < x:
            k += 1
        return k

    marks = []
    k = first(math.nextafter(last, math.inf))  # the first end > last
    while (k := max(k, first(due - 1e-15))) < steps:
        marks.append(k)
        due += every
        k += 1
    return marks, [end(k) for k in marks], due


def _propagate(system, events, steps_per_period, sample_every):
    """Walk a sequence once; return its unitary U and the samples [(t, V)].

    This is the only dispatch over event types, and every step unitary is
    folded into U here. V is the unitary a measurement at t sees: U so far,
    taken through the closing trim pulse inside a CW segment. Samples are
    taken at t = 0 after any leading pulses, at the first step end past
    each multiple of sample_every, and at the end of the sequence (the last
    sample holds U, so it includes any trailing pulses).
    """
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    eye = np.eye(4, dtype=complex)
    u, samples = eye, []
    t, due = 0.0, sample_every
    for event in events:
        if isinstance(event, IdealRotation):
            u = rotation_unitary(event.targets, event.axis, event.angle) @ u
            continue
        if isinstance(event, Delay):
            u_open = u_close = eye
            fn = _segment_hamiltonian(system, None, constants, event.dipolar_on)
        elif isinstance(event, CWSegment):
            u_open, u_close = trim_unitaries(system, event)
            fn = _segment_hamiltonian(system, event.drive, constants)
        else:
            raise TypeError(f"unknown event type {type(event).__name__}")
        if not samples:
            samples.append((t, u))
        if event.duration == 0.0:
            continue
        t0, t = t, t + event.duration
        steps = max(1, math.ceil(event.duration / system.rotor_period * steps_per_period))
        marks, times, due = _due_steps(t0, t, steps, due, sample_every, samples[-1][0])
        # into the segment's band frame and, at each sample and the end, out
        u_close = u_close @ fn.frame
        u, partial = _fold(fn.frame.conj().T @ u_open @ u, fn, t0, t, steps, marks)
        samples += [(te, u_close @ v) for te, v in zip(times, partial)]
        u = u_close @ u
    if samples and samples[-1][0] >= t:
        t = samples.pop()[0]  # a sample at the end gives way to U
    samples.append((t, u))
    return u, samples


def run_sequence(initial, system, events, sample_every,
                 steps_per_period=DEFAULT_STEPS_PER_PERIOD):
    """Propagate a density matrix through a pulse sequence, sampling <I_z>, <S_z>.

    The t = 0 sample is taken after any leading instantaneous pulses, i.e.
    it reflects the prepared state. During a trimmed CW segment the sampled
    observables are taken through the closing trim pulse (the state itself
    keeps evolving under the drive). A sample is due at the first step end
    past each multiple of sample_every. The last sample is the state at the
    end of the sequence, after any trailing pulses.
    """
    _, samples = _propagate(system, events, steps_per_period, sample_every)
    rho = np.asarray(initial, dtype=complex)
    states = [v @ rho @ v.conj().T for _, v in samples]
    iz_op, sz_op = (spin_operator(k, "z") for k in SPINS)
    return Trajectory(times=np.array([t for t, _ in samples]),
                      iz=np.array([expectation(r, iz_op).real for r in states]),
                      sz=np.array([expectation(r, sz_op).real for r in states]))


def extract_gate(system, events, steps_per_period=DEFAULT_STEPS_PER_PERIOD,
                 remove_effective_precession=False):
    """Total rotating-frame unitary of a sequence (identity propagated through).

    With remove_effective_precession=True, the known effective-field
    z-precession exp(-i T (w_eI I_z + w_eS S_z)) accumulated over the CW
    segments is divided out on the left, exposing the recoupled bilinear part.
    """
    u, _ = _propagate(system, events, steps_per_period, math.inf)
    if not remove_effective_precession:
        return u
    precession = sum((event.duration * effective_field(dw, event.drive.omega_1).omega_e
                      * spin_operator(k, "z")
                      for event in events if isinstance(event, CWSegment)
                      for k, dw in enumerate(system.offsets)),
                     np.zeros((4, 4), dtype=complex))
    # the precession is diagonal: its exponential is that of the diagonal
    return np.diag(np.exp(1j * np.diag(precession))) @ u
