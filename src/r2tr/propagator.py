"""Time-ordered evolution of states and unitaries through pulse sequences.

Events are ideal (instantaneous) rotations, free-evolution delays and CW
irradiation segments. CW segments are wrapped with trim pulses that align
each spin's quantization axis with its effective field before the drive
and undo the rotation afterwards; mid-segment observables are sampled
through the closing trim pulse, which is what a point-by-point experiment
measures.

Integration is by piecewise step exponentials. Segments built from the
standard offset+RF+MAS-dipolar structure carry their rotor-harmonic
decomposition, and each step uses the exact integral of the Hamiltonian
plus the leading commutator correction, so the generator is analytic and
the step error is far below the sampling error. Every step exponential is
taken via Hermitian eigendecomposition, keeping unitarity at roundoff.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import expm

from .hamiltonian import (
    dipolar_constants,
    dipolar_coupling_operator,
    effective_field,
    static_drive_hamiltonian,
)
from .operators import expectation, spin_operator

DEFAULT_STEPS_PER_PERIOD = 1024


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

    def modulation(self, t):
        arg = self.omega_r * np.asarray(t) + self.phi
        return self.omega_d1 * np.cos(arg) + self.omega_d2 * np.cos(2.0 * arg)

    def __call__(self, t):
        return self.h_static + self.modulation(t) * self.h_dip

    def _p(self, t):
        # antiderivative of D
        arg = self.omega_r * t + self.phi
        return (self.omega_d1 / self.omega_r * np.sin(arg)
                + self.omega_d2 / (2.0 * self.omega_r) * np.sin(2.0 * arg))

    def _q(self, t):
        # antiderivative of P
        arg = self.omega_r * t + self.phi
        return (-self.omega_d1 / self.omega_r**2 * np.cos(arg)
                - self.omega_d2 / (4.0 * self.omega_r**2) * np.cos(2.0 * arg))

    def _r(self, t):
        # antiderivative of t * D(t)
        arg = self.omega_r * t + self.phi
        wr = self.omega_r
        out = self.omega_d1 * (t * np.sin(arg) / wr + np.cos(arg) / wr**2)
        out += self.omega_d2 * (t * np.sin(2.0 * arg) / (2.0 * wr)
                                + np.cos(2.0 * arg) / (4.0 * wr**2))
        return out

    def step_generators(self, t0, t1, steps):
        """Hermitian generators M_k with U_k = exp(-i M_k) for each sub-step.

        M_k = integral of H over the step plus the leading Magnus
        commutator term (which is i times an anti-Hermitian matrix, hence
        Hermitian as written).
        """
        edges = np.linspace(t0, t1, steps + 1)
        a, b = edges[:-1], edges[1:]
        dt = (t1 - t0) / steps
        area = self._p(b) - self._p(a)
        # K = iint_{t0<t2<t1<t} (D(t2) - D(t1)) dt2 dt1 over the step
        term1 = (self._q(b) - self._q(a)) - self._p(a) * dt
        term2 = (self._r(b) - self._r(a)) - a * area
        k = term1 - term2
        m = (dt * self.h_static[None, :, :]
             + area[:, None, None] * self.h_dip[None, :, :]
             - (0.5j * k)[:, None, None] * self._comm[None, :, :])
        return m


def rotation_unitary(n_spins, targets, axis, angle):
    gen = sum(spin_operator(n_spins, k, axis) for k in targets)
    return expm(-1j * angle * np.asarray(gen))


def apply_ideal_pulse(rho, n_spins, event):
    """rho -> U rho U^dag for an instantaneous rotation event."""
    u = rotation_unitary(n_spins, event.targets, event.axis, event.angle)
    return u @ rho @ u.conj().T


def _step_unitaries(hamiltonian_fn, t0, t1, steps):
    """Per-step unitaries exp(-i M_k) of a HarmonicHamiltonian, batched."""
    ms = hamiltonian_fn.step_generators(t0, t1, steps)
    if not np.all(np.isfinite(ms)):
        raise ValueError("Hamiltonian produced non-finite entries")
    evals, evecs = np.linalg.eigh(ms)
    phases = np.exp(-1j * evals)
    return np.einsum("kij,kj,klj->kil", evecs, phases, evecs.conj())


def segment_propagator(hamiltonian_fn, t0, t1, steps):
    """Time-ordered propagator over [t0, t1] under a time-dependent Hamiltonian."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t1 == t0:
        dim = np.asarray(hamiltonian_fn(t0)).shape[0]
        return np.eye(dim, dtype=complex)
    u = None
    for uk in _step_unitaries(hamiltonian_fn, t0, t1, steps):
        u = uk if u is None else uk @ u
    return u


def _segment_hamiltonian(system, drive, constants, pair=(0, 1), dipolar_on=True):
    h0 = static_drive_hamiltonian(system, drive)
    hd = dipolar_coupling_operator(system.n_spins, pair)
    d1 = constants.omega_d1 if dipolar_on else 0.0
    d2 = constants.omega_d2 if dipolar_on else 0.0
    return HarmonicHamiltonian(h0, hd, system.omega_r, system.phi, d1, d2)


def trim_unitaries(system, segment):
    """Opening and closing trim rotations for a CW segment (identity if off)."""
    n = system.n_spins
    if not segment.trim:
        eye = np.eye(2**n, dtype=complex)
        return eye, eye
    drive = segment.drive
    cph, sph = math.cos(drive.phase), math.sin(drive.phase)
    gen = np.zeros((2**n, 2**n), dtype=complex)
    for k, dw in enumerate(system.offsets):
        if k in segment.skip_trim:
            continue
        beta = effective_field(dw, drive.omega_1).beta
        # rotation axis perpendicular to both z and the RF field direction
        axis_op = cph * spin_operator(n, k, "y") - sph * spin_operator(n, k, "x")
        gen = gen + beta * axis_op
    u_open = expm(-1j * gen)
    return u_open, u_open.conj().T


def _timed_events(system, events, steps_per_period, pair):
    """Walk a sequence once, yielding (event, t0, hamiltonian, steps, u_open, u_close).

    This is the only dispatch over event types. An IdealRotation yields its
    rotation unitary as u_open and None for the rest. A Delay or CWSegment
    yields its HarmonicHamiltonian over [t0, t0 + duration] with the step
    count; a CWSegment also yields its trim pair, a Delay None for both.
    """
    n = system.n_spins
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    t = 0.0
    for event in events:
        if isinstance(event, IdealRotation):
            u = rotation_unitary(n, event.targets, event.axis, event.angle)
            yield event, t, None, 0, u, None
            continue
        if isinstance(event, Delay):
            u_open = u_close = None
            fn = _segment_hamiltonian(system, None, constants, pair, event.dipolar_on)
        elif isinstance(event, CWSegment):
            u_open, u_close = trim_unitaries(system, event)
            fn = _segment_hamiltonian(system, event.drive, constants, pair)
        else:
            raise TypeError(f"unknown event type {type(event).__name__}")
        steps = max(1, math.ceil(event.duration / system.rotor_period * steps_per_period))
        yield event, t, fn, steps, u_open, u_close
        t += event.duration


def run_sequence(initial, system, events, sample_every,
                 steps_per_period=DEFAULT_STEPS_PER_PERIOD, pair=(0, 1)):
    """Propagate a density matrix through a pulse sequence, sampling <I_z>, <S_z>.

    The t = 0 sample is taken after any leading instantaneous pulses, i.e.
    it reflects the prepared state. During a trimmed CW segment the sampled
    observables are taken through the closing trim pulse (the state itself
    keeps evolving under the drive). A sample is due at the first step end
    past each multiple of sample_every.
    """
    n = system.n_spins
    iz_op = spin_operator(n, pair[0], "z")
    sz_op = spin_operator(n, pair[1], "z")
    rho = np.array(initial, dtype=complex)
    times, iz, sz = [], [], []
    next_sample = 0.0

    def sample(t, view=None):
        nonlocal next_sample
        obs = rho if view is None else view @ rho @ view.conj().T
        times.append(t)
        iz.append(expectation(obs, iz_op).real)
        sz.append(expectation(obs, sz_op).real)
        next_sample += sample_every

    t = 0.0
    for event, t0, fn, steps, u_open, u_close in _timed_events(
            system, events, steps_per_period, pair):
        if fn is None:
            rho = u_open @ rho @ u_open.conj().T
            continue
        if not times:
            sample(t0)
        if event.duration == 0.0:
            continue
        t = t0 + event.duration
        if u_open is not None:
            rho = u_open @ rho @ u_open.conj().T
        dt = event.duration / steps
        for k, uk in enumerate(_step_unitaries(fn, t0, t, steps)):
            rho = uk @ rho @ uk.conj().T
            t_step = t0 + (k + 1) * dt
            if t_step >= next_sample - 1e-15:
                sample(t_step, u_close)
        if u_close is not None:
            rho = u_close @ rho @ u_close.conj().T

    if not times or times[-1] < t:
        sample(t)
    return Trajectory(times=np.array(times), iz=np.array(iz), sz=np.array(sz))


def extract_gate(system, events, steps_per_period=DEFAULT_STEPS_PER_PERIOD,
                 pair=(0, 1), remove_effective_precession=False):
    """Total rotating-frame unitary of a sequence (identity propagated through).

    With remove_effective_precession=True, the known effective-field
    z-precession exp(-i T (w_eI I_z + w_eS S_z)) accumulated over trimmed CW
    segments is divided out on the left, exposing the recoupled bilinear part.
    """
    n = system.n_spins
    u = np.eye(2**n, dtype=complex)
    precession = np.zeros((2**n, 2**n), dtype=complex)

    for event, t0, fn, steps, u_open, u_close in _timed_events(
            system, events, steps_per_period, pair):
        if fn is None:
            u = u_open @ u
            continue
        useg = segment_propagator(fn, t0, t0 + event.duration, steps)
        if u_open is None:
            u = useg @ u
            continue
        u = u_close @ useg @ u_open @ u
        for k, dw in enumerate(system.offsets):
            omega_e = effective_field(dw, event.drive.omega_1).omega_e
            precession = precession + event.duration * omega_e * spin_operator(n, k, "z")

    if remove_effective_precession:
        u = expm(1j * precession) @ u
    return u
