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
eigendecomposition, keeping unitarity at roundoff. The steps are
taken in fixed blocks: each block's generators are built and
exponentiated together, and its run of steps between two samples is
multiplied out by batched pairwise products before it is folded into U,
so no Python loop runs once per step. Only the segment's time grid
(8 B per step) outlives a block, so memory is O(8 B/step + one block).
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
    """

    def __init__(self, h_static, h_dip, omega_r, phi, omega_d1, omega_d2):
        self.h_static = np.asarray(h_static, dtype=complex)
        self.h_dip = np.asarray(h_dip, dtype=complex)
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
        m = (dt * self.h_static[None, :, :]
             + area[:, None, None] * self.h_dip[None, :, :]
             - (0.5j * k)[:, None, None] * self._comm[None, :, :])
        return m


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


def _fold(u, fn, edges, marks=()):
    """Fold the step unitaries exp(-i M_k) of fn's steps between consecutive
    edges into u in time order; return u and the partial products after
    the steps in marks.

    This is the only product over step unitaries. The steps are taken
    FOLD_BLOCK at a time: a block's generators are built, checked and
    exponentiated with one batched Hermitian eigendecomposition, then
    dropped, so no array of one entry per step is held but the edges.
    Within a block, each run of steps that ends at a mark or at the block
    edge is reduced by `_chain` and then multiplied into u. Marks are step
    indices in range(len(edges) - 1); a repeated mark gives one partial
    product.
    """
    steps = len(edges) - 1
    dt = (edges[-1] - edges[0]) / steps
    marked = {k + 1 for k in marks}
    cuts = sorted(marked | set(range(FOLD_BLOCK, steps, FOLD_BLOCK)) | {steps})
    start, partial = 0, []
    for stop in cuts:
        edge = start - start % FOLD_BLOCK
        if start == edge:
            generators = fn.step_generators(edges[start:start + FOLD_BLOCK + 1], dt)
            if not np.all(np.isfinite(generators)):
                raise ValueError("Hamiltonian produced non-finite entries")
            evals, evecs = np.linalg.eigh(generators)
            block = (evecs * np.exp(-1j * evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
        u = _chain(block[start - edge:stop - edge]) @ u
        if stop in marked:
            partial.append(u)
        start = stop
    return u, partial


def segment_propagator(hamiltonian_fn, t0, t1, steps):
    """Time-ordered propagator over [t0, t1] under a time-dependent Hamiltonian."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u = np.eye(4, dtype=complex)
    return u if t1 == t0 else _fold(u, hamiltonian_fn, np.linspace(t0, t1, steps + 1))[0]


def _segment_hamiltonian(system, drive, constants, dipolar_on=True):
    h0 = static_drive_hamiltonian(system, drive)
    hd = dipolar_coupling_operator()
    d1 = constants.omega_d1 if dipolar_on else 0.0
    d2 = constants.omega_d2 if dipolar_on else 0.0
    return HarmonicHamiltonian(h0, hd, system.omega_r, system.phi, d1, d2)


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


def _due_steps(ends, due, every, last):
    """Steps at which samples fall due, and the next due time: the first step
    end past `last` and `due` (less 1e-15 s of slack), then `due` += `every`."""
    marks = []
    k = int(np.searchsorted(ends, last, side="right"))
    while (k := max(k, int(np.searchsorted(ends, due - 1e-15)))) < len(ends):
        marks.append(k)
        due += every
        k += 1
    return marks, due


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
        edges = np.linspace(t0, t, steps + 1)
        marks, due = _due_steps(edges[1:], due, sample_every, samples[-1][0])
        u, partial = _fold(u_open @ u, fn, edges, marks)
        samples += [(float(edges[k + 1]), u_close @ v) for k, v in zip(marks, partial)]
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
