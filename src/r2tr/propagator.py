"""Time-ordered evolution of states and unitaries through pulse sequences.

Events are ideal (instantaneous) rotations, free-evolution delays and CW
irradiation segments. CW segments are wrapped with trim pulses that align
each spin's quantization axis with its effective field before the drive
and undo the rotation afterwards.

One walk over the events folds every segment into the sequence unitary U
and records sampled views (t, V): the unitary a measurement at t sees,
through the closing trim pulse inside a CW segment, as in a point-by-point
experiment. `extract_gate` returns U; `run_sequence` evaluates V rho V^dag
at the samples only.

Integration is by step exponentials of each step's exact integral of H
plus the leading commutator correction, from the rotor-harmonic form of H,
each by a symmetric eigendecomposition, so unitarity holds at roundoff.

Whole steps of h = T_r / s, s = steps_per_period, lie on one grid per walk,
t_a + j h, where the rotor phase omega_r t + phi is 0. A segment takes a
leading step onto the grid unless it starts on it, then the whole steps and
a closing step, at most h long. Its Hamiltonian has the rotor period T_r,
and in the band frame it is real symmetric and even in time about t_a. So
from t_a every period of whole steps has the product U_T, and the steps of
its second half are transposes of the first half's: with P(r) the product
of the first r steps, U_T = P(floor(s/2))^T P(ceil(s/2)) and P(r) =
conj(P(s - r)) U_T. A long segment's unitaries are P(r) U_T^K P(r0)^dag,
from half a period's step unitaries, built once per walk and Hamiltonian;
one of at most ceil(s/2) whole steps folds them directly. Its cost grows
with s, not with its length.

A segment is integrated in the singlet-triplet band frame Q = (S, T0, A,
B): S and T0 are the singlet and central triplet, and A, B = (+-e^{-i phi}
|00> + e^{i phi} |11>)/sqrt(2) for the drive phase phi (phi = 0 in a
delay). There the Hamiltonian is written in closed form. The offset and
drive part is real tridiagonal with a zero diagonal and subdiagonal c =
((d_I - d_S)/2, omega_1, -(d_I + d_S)/2), d_I and d_S the offsets, and the
secular dipolar operator is diagonal, d = (0, -1/2, 1/4, 1/4). So every
step generator is tridiagonal: its diagonal is the step's area of D(t)
times d, and its subdiagonal dt c_j - (i/2) K c_j (d_j - d_{j+1}), K the
step's commutator integral. A diagonal unitary similarity makes each one
real symmetric, so it goes to LAPACK's real symmetric solver, and its step
unitary is rebuilt from the real eigenvectors by real matrix products. The
walk enters the frame with Q^dag and leaves it with Q. With D(t) = 0 (a
delay with the dipolar term off, or a pair along the spinning axis) H is
the constant tridiag(c) = W Lambda W^T, and a segment's unitaries are W
e^{-i Lambda x} W^T at its times x: one eigh, no step error at any length.

A fold returns its partial products at the step counts asked of it. Its
steps are built and exponentiated in one batch of at most ceil(s/2), and
runs of steps are multiplied out by batched pairwise products, with no
Python loop per step. So s <= MAX_STEPS_PER_PERIOD bounds a walk's memory:
three arrays of a batch's size while it builds one, and one kept batch for
each distinct Hamiltonian that a later segment still has.
"""

import bisect
import cmath
from dataclasses import dataclass
import functools
import math
import numbers

import numpy as np

from .hamiltonian import dipolar_constants, effective_field
from .operators import SPINS, expectation, spin_operator

DEFAULT_STEPS_PER_PERIOD = 1024
# the most steps per rotor period, which sizes a fold: ceil(s/2) steps, 1 MB a
# batch array. On glycine, doubling s changes a rotor period's propagator by
# 5e-13 from 2**11, 2e-13 from 2**12 and 2**13, and 4e-13 from 2**14: roundoff
MAX_STEPS_PER_PERIOD = 2**13
# the secular dipolar operator in the band frame, which is diagonal there,
# and the differences d_j - d_{j+1} of its neighbouring entries
_DIPOLAR_BAND = np.array([0.0, -0.5, 0.25, 0.25])
_DIPOLAR_STEPS = _DIPOLAR_BAND[:-1] - _DIPOLAR_BAND[1:]
# the diagonal and subdiagonal entries of a 4x4 matrix
_DIAG = np.arange(4)
_SUB_ROW, _SUB_COL = np.arange(1, 4), np.arange(3)


def _finite(value, field, non_negative=False):
    """Raise a ValueError that names the field unless value is a finite
    number, not a bool (and, if non_negative, not below 0)."""
    if (isinstance(value, (bool, np.bool_)) or not math.isfinite(value)
            or (non_negative and value < 0)):
        sign = " non-negative" if non_negative else ""
        raise ValueError(f"{field} must be a finite{sign} number, got {value!r}")


def _flag(value, field):
    """Raise a ValueError that names the field unless value is a bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{field} must be a bool, got {value!r}")


def _steps(value, field):
    """value, if an integer (not a bool) from 1 to MAX_STEPS_PER_PERIOD; else a ValueError."""
    if value is True or not (isinstance(value, numbers.Integral)
                             and 1 <= value <= MAX_STEPS_PER_PERIOD):
        raise ValueError(f"{field} must be an integer from 1 to "
                         f"{MAX_STEPS_PER_PERIOD}, got {value!r}")
    return value


def _spins(indices, field):
    """indices as a tuple, if a list or tuple of integers (not bools) in SPINS;
    else a ValueError that names the field."""
    if not (isinstance(indices, (list, tuple)) and all(
            isinstance(k, numbers.Integral) and not isinstance(k, bool) and k in SPINS
            for k in indices)):
        raise ValueError(f"{field} must list spin indices {SPINS}, got {indices!r}")
    return tuple(indices)


@dataclass(frozen=True)
class RFDrive:
    """A continuous-wave irradiation segment's drive parameters.

    omega_1  amplitude, rad/s
    phase    RF phase, rad (0 = x)
    """

    omega_1: float
    phase: float = 0.0

    def __post_init__(self):
        _finite(self.omega_1, "omega_1", non_negative=True)
        _finite(self.phase, "phase")


@dataclass(frozen=True)
class IdealRotation:
    """Instantaneous rotation of the target spins about a fixed axis."""

    targets: tuple
    axis: str
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "targets", targets := _spins(self.targets, "targets"))
        _finite(self.angle, "angle")
        if self.axis not in ("x", "y", "z"):  # exp(-i angle I_k^axis) needs a Hermitian axis
            raise ValueError(f"axis must be x, y or z, got {self.axis!r}")
        if not targets or len(set(targets)) != len(targets):
            raise ValueError(f"targets must name at least one spin and none twice, got {targets}")


@dataclass(frozen=True)
class Delay:
    """Free evolution for `duration` seconds, with or without the dipolar term."""

    duration: float
    dipolar_on: bool = True

    def __post_init__(self):
        _finite(self.duration, "duration", non_negative=True)
        _flag(self.dipolar_on, "dipolar_on")


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
        _finite(self.duration, "duration", non_negative=True)
        _flag(self.trim, "trim")
        object.__setattr__(self, "skip_trim", _spins(self.skip_trim, "skip_trim"))


@dataclass(frozen=True)
class Trajectory:
    """Sampled per-spin longitudinal magnetizations along a sequence."""

    times: np.ndarray
    iz: np.ndarray
    sz: np.ndarray

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t_s,Iz,Sz\n")
            for t, a, b in zip(self.times.tolist(), self.iz.tolist(), self.sz.tolist()):
                fh.write(f"{t:.12g},{a:.12g},{b:.12g}\n")


class HarmonicHamiltonian:
    """H(t) = H_static + D(t) H_dip with D a sum of two rotor harmonics, in
    the band frame, a unitary Q: the product-basis Hamiltonian is Q H(t)
    Q^dag. There H_static = tridiag(c), c = `coupling`, and H_dip = diag(d),
    as the module docstring writes them. It knows its antiderivatives, for
    exact per-step integrals and the leading commutator correction.
    """

    def __init__(self, coupling, omega_r, phi, omega_d1, omega_d2, frame):
        self.coupling = np.asarray(coupling, dtype=float)
        self.frame = frame
        self.omega_r = omega_r
        self.phi = phi
        self.omega_d1 = omega_d1
        self.omega_d2 = omega_d2

    @functools.cached_property
    def eigh(self):
        """(Lambda, W) if D(t) = 0, H the constant tridiag(c) = W Lambda W^T; else None."""
        band = np.diag(self.coupling, -1)
        return None if self.omega_d1 or self.omega_d2 else np.linalg.eigh(band + band.T)

    def step_generators(self, edges, dt):
        """Hermitian tridiagonal generators M_k with U_k = exp(-i M_k) for
        the steps between consecutive edges, each dt long.

        M_k = integral of H over the step plus the leading Magnus
        commutator term (which is i times an anti-Hermitian matrix, hence
        Hermitian as written). The antiderivatives are evaluated once per
        edge and differenced. The entries off the band are zero.
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
        m = np.zeros((len(area), 4, 4), dtype=complex)
        m[:, _DIAG, _DIAG] = np.multiply.outer(area, _DIPOLAR_BAND)
        sub = (dt * self.coupling
               - np.multiply.outer(0.5j * k, self.coupling * _DIPOLAR_STEPS))
        m[:, _SUB_ROW, _SUB_COL] = sub
        m[:, _SUB_COL, _SUB_ROW] = sub.conj()
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


def _step_unitaries(fn, t0, step, steps):
    """fn's step unitaries U_k = exp(-i M_k), k < steps, from t0 + k step, as
    one batch: built from their edges (not a grid), checked and exponentiated.

    Each generator M is tridiagonal and is decomposed as D M D^dag, D =
    diag(p) with p_j = exp(-i sum_{m<j} theta_m) and theta_m the phase of
    M[m+1, m]. This unitary similarity makes M real symmetric tridiagonal,
    with subdiagonal |M[m+1, m]|: it goes to the real symmetric solver as
    float64, and its step unitary D^dag exp(-i D M D^dag) D is rebuilt in
    real arithmetic and then scaled by the phases.
    """
    generators = fn.step_generators(np.arange(steps + 1, dtype=float) * step + t0, step)
    if not np.all(np.isfinite(generators)):
        raise ValueError("Hamiltonian produced non-finite entries")
    sub = generators[:, _SUB_ROW, _SUB_COL]
    p = np.ones((steps, 4), dtype=complex)
    # np.angle, not sub / abs(sub), which overflows on a subnormal entry
    p[:, 1:] = np.exp(-1j * np.add.accumulate(np.angle(sub), axis=1))
    # D M D^dag is real symmetric tridiagonal, but for the diagonal's imaginary
    # roundoff, which a complex solver ignores too. With its real eigenvectors
    # W, U = D^dag W e^{-i Lambda} W^T D; xt = e^{-i Lambda} W^T is built in the
    # float view of a contiguous complex array by (4, 1) @ (1, 2) outer products,
    # so W @ xt is one real matmul. Contiguous outputs and same-dtype operands
    # keep numpy from allocating iterator buffers.
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
    batch = (w @ xt.reshape(-1, 4, 8)).view(complex)
    del w, xt
    batch = np.einsum("ni,nij->nij", p.conj(), batch)
    return np.einsum("nij,nj->nij", batch, p)


def _partials(batch, counts):
    """{c: U_{c-1} ... U_0} (the identity for c = 0) for each count c in
    `counts` of a batch of step unitaries: the only product over them."""
    u = np.eye(4, dtype=complex)
    partials = dict.fromkeys(counts, u)
    marks = sorted({0, *partials})
    for lo, c in zip(marks, marks[1:]):
        u = partials[c] = _chain(batch[lo:c]) @ u
    return partials


def _fold(fn, t0, step, counts):
    """The `_partials` of fn's steps k < max(counts) from t0 + k step; for a
    constant H = W Lambda W^T (fn.eigh) they are W e^{-i Lambda c step} W^T."""
    if fn.eigh is None:
        steps = max(counts)
        return _partials(_step_unitaries(fn, t0, step, steps) if steps else (), counts)
    evals, w = fn.eigh
    phases = {c: -(c * step) * evals for c in counts}
    if not np.all(np.isfinite([*phases.values()])):
        raise ValueError("Hamiltonian produced non-finite entries")
    return {c: (w * np.exp(1j * x)) @ w.T for c, x in phases.items()}


def segment_propagator(hamiltonian_fn, t0, t1, steps):
    """Time-ordered propagator over [t0, t1] under a time-dependent
    Hamiltonian, in `steps` equal steps."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    _steps(steps, "steps")
    if t1 == t0:
        return np.eye(4, dtype=complex)
    q = hamiltonian_fn.frame
    return q @ _fold(hamiltonian_fn, t0, (t1 - t0) / steps, {steps})[steps] @ q.conj().T


def _segment_hamiltonian(system, drive, constants, dipolar_on=True):
    """A segment's Hamiltonian in the band frame Q = (S, T0, A, B), in
    closed form. A, B = (+-e^{-i phi} |00> + e^{i phi} |11>)/sqrt(2) for the
    drive phase phi; a delay (no drive) takes phi = 0 and omega_1 = 0."""
    omega_1, phase = (drive.omega_1, drive.phase) if drive is not None else (0.0, 0.0)
    s = 1.0 / math.sqrt(2.0)
    a = cmath.exp(-1j * phase) * s
    # the columns S, T0, A, B in the product basis |00>, |01>, |10>, |11>
    q = np.array([[0.0, 0.0, a, -a],
                  [s, s, 0.0, 0.0],
                  [-s, s, 0.0, 0.0],
                  [0.0, 0.0, a.conjugate(), a.conjugate()]])
    delta_i, delta_s = system.offsets
    coupling = ((delta_i - delta_s) / 2.0, omega_1, -(delta_i + delta_s) / 2.0)
    d1 = constants.omega_d1 if dipolar_on else 0.0
    d2 = constants.omega_d2 if dipolar_on else 0.0
    return HarmonicHamiltonian(coupling, system.omega_r, system.phi, d1, d2, frame=q)


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


def _sample_steps(g0, t, h, n, due, every, last):
    """The step counts of a segment at which samples fall due, and the next
    due time. After c steps the segment is at end(c): g0 after the leading
    step (c = 0), g0 + c h after whole step c <= n and t after the closing
    step (c = n + 1), computed as the walk computes them.

    A sample falls due at the first end past `last`, the time of the sample
    before it, and at or after `due` (less 1e-15 s of slack); then `due` +=
    `every`. Each is found by bisection. The ends rise with c, but rounding
    may put t an ulp before g0 + n h: count n + 1 is keyed on the larger.
    """
    def end(c):
        return g0 + c * h if c <= n else max(t, g0 + n * h)

    marks, c = [], 0
    while True:
        x = max(due - 1e-15, math.nextafter(last, math.inf))
        c += bisect.bisect_left(range(c, n + 2), x, key=end)
        if c > n + 1:
            return marks, due
        marks.append(c)
        last, due, c = end(c), due + every, c + 1


def _period_partials(batch, s, residues):
    """U_T and {r: P(r)} for residues r in [0, s), P(r) the product of the
    first r steps of h = T_r / s from rotor phase 0: by the mirror identities
    of the module docstring, from `batch`, the first ceil(s/2) of them."""
    p = _partials(batch, {min(r, s - r) for r in residues} | {s // 2, -(-s // 2)})
    u_period = p[s // 2].T @ p[-(-s // 2)]
    return u_period, {r: p[r] if 2 * r <= s else p[s - r].conj() @ u_period
                      for r in residues}


def _band_key(event):
    """A timed event's drive amplitude and dipolar switch, its band-frame H."""
    return ((event.drive.omega_1, True) if isinstance(event, CWSegment) else
            (0.0, bool(event.dipolar_on)) if isinstance(event, Delay) else None)


def _propagate(system, events, steps_per_period, sample_every):
    """Walk a sequence once; return its unitary U and the samples [(t, V)].

    This is the only dispatch over event types, and every segment is
    folded into U here. V is the unitary a measurement at t sees: U so far,
    taken through the closing trim pulse inside a CW segment. Samples are
    taken at t = 0 after any leading pulses, at the step counts
    `_sample_steps` finds for each multiple of sample_every, and at the end
    of the sequence (the last sample holds U, so it includes any trailing
    pulses). Each fold starts from the identity; the walk multiplies it in.

    A segment from t0 to t takes a leading step to the first grid point g0
    = t_a + j0 h after t0 (none if t0 is on the grid or none is inside), n
    whole steps and a closing step, which end at counts 0 to n + 1. If n <=
    ceil(s/2) or H is constant, they are folded from g0. Else `_period_partials`
    gives U_T and P(r) at the residues of j0 and of the sampled counts;
    after c whole steps the unitary is P((j0 + c) mod s) U_T^q P(j0 mod
    s)^dag, q = (j0 + c) div s - j0 div s.
    """
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    eye = np.eye(4, dtype=complex)
    s = _steps(steps_per_period, "steps_per_period")
    h = system.rotor_period / s
    t_a = -(system.phi % math.tau) / system.omega_r
    u, samples = eye, []
    t, due = 0.0, sample_every
    events = tuple(events)
    last_use, kept = {_band_key(event): i for i, event in enumerate(events)}, {}
    for i, event in enumerate(events):
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
        # into the segment's band frame and, at each sample and the end, out
        u_close = u_close @ fn.frame
        u = fn.frame.conj().T @ u_open @ u
        j0 = math.ceil((t0 - t_a) / h)
        g0 = t_a + j0 * h
        g0 = g0 if t0 < g0 < t else t0
        if g0 > t0:  # the leading step
            u = _fold(fn, t0, g0 - t0, {1})[1] @ u
        n = max(1, math.ceil((t - g0) / system.rotor_period * s)) - 1
        marks, due = _sample_steps(g0, t, h, n, due, sample_every, samples[-1][0])
        if 0 in marks:  # only ever at the end of a leading step
            samples.append((g0, u_close @ u))
        counts = [c for c in marks if 0 < c <= n]
        if n > -(-s // 2) and fn.eigh is None:
            period = s
            if (key := _band_key(event)) not in kept:
                kept[key] = _step_unitaries(fn, t_a, h, -(-s // 2))
            u_period, partial = _period_partials(  # kept up to its H's last use
                kept[key] if last_use[key] > i else kept.pop(key),
                s, {(j0 + c) % s for c in [0, *counts, n]})
        else:  # a short or constant segment folds its own steps, as one unrepeated period
            j0, period, u_period = 0, n + 1, eye
            partial = _fold(fn, g0, h, {0, *counts, n})
        u, periods = partial[j0 % period].conj().T @ u, j0 // period
        for c in counts:
            q, r = divmod(j0 + c, period)
            u, periods = np.linalg.matrix_power(u_period, q - periods) @ u, q
            samples.append((g0 + c * h, u_close @ partial[r] @ u))
        q, r = divmod(j0 + n, period)
        u = partial[r] @ np.linalg.matrix_power(u_period, q - periods) @ u
        t_close = g0 + n * h
        u = _fold(fn, t_close, t - t_close, {1})[1] @ u
        if n + 1 in marks:
            samples.append((t, u_close @ u))
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
    at or after each multiple of sample_every. The last sample is the state
    at the end of the sequence, after any trailing pulses.
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
    events = tuple(events)  # read twice: by the walk and by the precession sum
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
