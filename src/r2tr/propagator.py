"""Time-ordered evolution of states and unitaries through pulse sequences.

Events are ideal (instantaneous) rotations, free-evolution delays and CW
irradiation segments. CW segments are wrapped with trim pulses that align
each spin's quantization axis with its effective field before the drive
and undo the rotation afterwards.

A walk over the events is planned first, in float arithmetic: each
segment's grid, steps and samples. It then folds every segment into the
sequence unitary U and records sampled views (t, V): the unitary a
measurement at t sees, through the closing trim pulse inside a CW segment,
as in a point-by-point experiment. `extract_gate` returns U. Inside a
segment the sampled views are formed together, by one stacked product.
`run_sequence` takes the populations diag(V rho V^dag) of all samples in
one contraction, and reads <I_z> and <S_z> off them, as both operators are
diagonal.

Integration is by step exponentials of each step's exact integral of H
plus the leading commutator correction, from the rotor-harmonic form of H.
Made real symmetric (below), a step exponent m has exp(-i m) = cos m - i
sin m, from their Taylor series through m^9: the rest is under 2.6e-19 <
2^-53 for ||m||_inf <= theta = 2^-4. Both are polynomials in x = m^2, summed
by Paterson and Stockmeyer in five real products per step: x, x^2, one by x^2
for each and one by m. A larger m is scaled by 2^-k onto theta and squared
back k times, at a roundoff of 2^k eps (at most 13.2 2^k eps); past k = 18
(13.2 2^18 eps = 7.7e-10) a ValueError names steps_per_period.

Whole steps of h = T_r / s, s = steps_per_period, lie on one grid per walk,
t_a + j h, where the rotor phase omega_r t + phi is 0. A segment takes a
leading step onto the grid unless it starts on it, then the whole steps and
a closing step, at most h long. Its Hamiltonian has the rotor period T_r,
and in the band frame it is real symmetric and even in time about t_a. So
from t_a every period of whole steps has the product U_T, and the steps of
its second half are transposes of the first half's: with P(r) the product
of the first r steps, U_T = P(floor(s/2))^T P(ceil(s/2)) and P(r) =
conj(P(s - r)) U_T. So U_T is complex symmetric: its real and imaginary
parts A and B commute and share real orthogonal eigenvectors O, from one
eigh of A + sqrt(2) B, and eigh of B splits each run of eigenvalues it
mixes. Every time-dependent Hamiltonian with a whole step folds all its
whole steps by this Floquet form, P(r) O e^{i K theta} O^T P(r0)^dag,
unitary at roundoff for any K: one chain of half a period's steps, at its
first segment, gives (U_T, O, theta) and each P(r) they need. A segment's
cost grows with s, not with its length: a Hamiltonian's whole steps cost
ceil(s/2) step exponentials and one 4x4 eigh, however few they are.

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
real symmetric. The walk enters the frame with Q^dag and leaves it with Q.
With D(t) = 0 (a delay with the dipolar term off, or a pair along the
spinning axis) H is the constant tridiag(c) = W Lambda W^T, and a segment's
unitaries are W e^{-i Lambda x} W^T at its times x: one eigh, no step error
at any length.

A fold returns its partial products at the step counts asked of it, by
batched pairwise products, with no Python loop per step. Each batch of
steps takes one generator call and one batched exponential. A time-
dependent Hamiltonian's edge steps, a leading and a closing step per
segment in walk order, go in chunks of ceil(s/2), each built as the walk
reaches it once the chunk before has gone; if it folds, its first batch is
its half period's ceil(s/2) steps, gone once chained, and its first chunk:
at most 2 ceil(s/2) steps. Its partials and chunk go at its last step. So
s <= MAX_STEPS_PER_PERIOD bounds a walk's memory: per time-dependent
Hamiltonian still to come, a chunk of ceil(s/2) step unitaries of 256 B
and at most s partials under 0.5 kB each; three batch arrays while a batch
is built or chained; the plan, under 0.3 kB per timed event (0.55 kB while
it is made) and 0.1 kB per residue; the samples; and, kept to the end, each
folded Hamiltonian's theta and Floquet states, under 0.5 kB.
"""

import cmath
from dataclasses import dataclass
import functools
import math
import numbers

import numpy as np

from .hamiltonian import dipolar_constants, effective_field
from .operators import SPINS, check_density_matrix, spin_operator
from .units import FieldError, choice, choices, number, shown

DEFAULT_STEPS_PER_PERIOD = 1024
# the most steps per rotor period, which sizes a fold: 2 ceil(s/2) steps, 2 MB
# a batch array. On glycine, doubling s changes a rotor period's propagator by
# 5e-13 from 2**11, 2e-13 from 2**12 and 2**13, and 4e-13 from 2**14: roundoff
MAX_STEPS_PER_PERIOD = 2**13
# the most samples of one walk, each about 1 kB until the trajectory is reduced
MAX_SAMPLES = 2**16
# the secular dipolar operator in the band frame, which is diagonal there,
# and the differences d_j - d_{j+1} of its neighbouring entries
_DIPOLAR_BAND = np.array([0.0, -0.5, 0.25, 0.25])
_DIPOLAR_STEPS = _DIPOLAR_BAND[:-1] - _DIPOLAR_BAND[1:]
# the step exponential's theta and cap on squarings; and for its series
# p(x) = sum_{j<5} a_j x^j of cos m and of -sin m / m (x = m^2), from a_j =
# (-1)^j / (2j)! and -(-1)^j / (2j + 1)!: a_3/a_4, a_1/a_3, a_2/a_4 - a_1/a_3, a_4
_THETA, _MAX_SQUARINGS = 2.0**-4, 18
_COS, _MINUS_SIN = (-56.0, 360.0, 1320.0, 1 / 40320), (-72.0, 840.0, 2184.0, -1 / 362880)
# the diagonal and subdiagonal entries of a 4x4 matrix; a tridiagonal one's, flat
_DIAG = np.arange(4)
_SUB_ROW, _SUB_COL = np.arange(1, 4), np.arange(3)
_BAND = np.array([0, 1, 4, 5, 6, 9, 10, 11, 14, 15])


def check_steps(value, field):
    """value as an int, if a whole number (not a bool) from 1 to MAX_STEPS_PER_PERIOD;
    else a FieldError naming `field`."""
    if not 1 <= number(value, field) == int(value) <= MAX_STEPS_PER_PERIOD:
        raise FieldError(field, f"{field} must be a whole number from 1 to "
                                f"{MAX_STEPS_PER_PERIOD}, got {shown(value)}")
    return int(value)


@dataclass(frozen=True)
class RFDrive:
    """A continuous-wave irradiation segment's drive parameters.

    omega_1  amplitude, rad/s
    phase    RF phase, rad (0 = x)
    """

    omega_1: float
    phase: float = 0.0

    def __post_init__(self):
        number(self.omega_1, "omega_1", 0.0)
        number(self.phase, "phase")


@dataclass(frozen=True)
class IdealRotation:
    """Instantaneous rotation of the target spins about a fixed axis."""

    targets: tuple
    axis: str
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "targets", targets := choices(self.targets, SPINS, "targets"))
        number(self.angle, "angle")
        choice(self.axis, ("x", "y", "z"), "axis")  # exp(-i angle I_k^axis) needs a Hermitian axis
        if not targets or len(set(targets)) != len(targets):
            raise ValueError(f"targets must name at least one spin and none twice, got {targets}")


@dataclass(frozen=True)
class Delay:
    """Free evolution for `duration` seconds, with or without the dipolar term."""

    duration: float
    dipolar_on: bool = True

    def __post_init__(self):
        number(self.duration, "duration", 0.0)
        choice(self.dipolar_on, (True, False), "dipolar_on")


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
        number(self.duration, "duration", 0.0)
        choice(self.trim, (True, False), "trim")
        object.__setattr__(self, "skip_trim", choices(self.skip_trim, SPINS, "skip_trim"))


@dataclass(frozen=True)
class Trajectory:
    """Sampled per-spin longitudinal magnetizations along a sequence, and its
    walk's Floquet forms, as `_propagate` returns them."""

    times: np.ndarray
    iz: np.ndarray
    sz: np.ndarray
    floquet: tuple = ()

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

    def step_generators(self, edges, dt, starts=None):
        """Hermitian tridiagonal generators M_k with U_k = exp(-i M_k) for
        the steps between consecutive edges, each dt long; or, given the
        indices `starts`, for the steps from edges[j] to edges[j + 1], j in
        starts, the k-th dt[k] long: several runs of steps in one call.

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
        lo, hi = (slice(None, -1), slice(1, None)) if starts is None else (starts, starts + 1)
        area = p[hi] - p[lo]
        # K = iint_{t0<t2<t1<t} (D(t2) - D(t1)) dt2 dt1 over the step
        term1 = (q[hi] - q[lo]) - p[lo] * dt
        term2 = (r[hi] - r[lo]) - edges[lo] * area
        k = term1 - term2
        m = np.zeros((len(area), 4, 4), dtype=complex)
        m[:, _DIAG, _DIAG] = np.multiply.outer(area, _DIPOLAR_BAND)
        sub = (np.multiply.outer(dt, self.coupling)
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


def _exp_minus_i(m):
    """exp(-i m), as the module docstring states, of a batch of real symmetric
    tridiagonal m (float64, overwritten), each from its own m alone."""
    # ||m||_inf, its largest row sum (inf if that overflows)
    norm = functools.reduce(np.maximum, (abs(m).reshape(-1, 4) @ np.ones(4)).reshape(-1, 4).T)
    if not np.all(norm < _THETA * 2.0**_MAX_SQUARINGS):
        raise FieldError("steps_per_period", f"steps_per_period is too small for these "
                         f"frequencies: a step of norm {norm.max():.3g} needs over "
                         f"{_MAX_SQUARINGS} squarings")
    squarings = np.maximum(np.frexp(norm / _THETA)[1], 0)  # norm / _THETA is exact
    m *= np.ldexp(1.0, -squarings)[:, None, None]
    band = m.reshape(-1, 16)[:, _BAND]  # m, while its array holds y
    x = m @ m
    y = np.matmul(x, x, out=m)
    np.add(q := x * _MINUS_SIN[0], y, out=q)
    np.add(np.multiply(x, _COS[0], out=x), y, out=x)
    odd = _series(y, q, None, _MINUS_SIN)
    cos = _series(y, x, q, _COS)
    x.fill(0.0)
    x.reshape(-1, 16)[:, _BAND] = band  # m again
    sin = np.matmul(x, odd, out=y)
    sin -= x  # -sin m = m (p(x) + 1) - m, as a_0 = -1
    del x, odd
    cos.reshape(-1, 16)[:, ::5] += 1.0  # a_0 = 1, on the diagonal
    for k in range(squarings.max(initial=0)):  # C <- C^2 - S^2, S <- 2 S C
        c, s = cos[double := squarings > k], sin[double]
        cos[double], sin[double] = c @ c - s @ s, 2.0 * (s @ c)
    u = np.empty(cos.shape, dtype=complex)
    u.real, u.imag = cos, sin
    return u


def _series(y, q, out, ratios):
    """p(x) - a_0 = a_4 (y q + (a_1/a_3) q + (a_2/a_4 - a_1/a_3) y), ratios as `_COS`
    holds them, q = (a_3/a_4) x + y (overwritten), into out (a new array if None)."""
    p = np.matmul(y, q, out=out)
    p += np.multiply(q, ratios[1], out=q)
    p += np.multiply(y, ratios[2], out=q)
    return np.multiply(p, ratios[3], out=p)


def _step_unitaries(fn, runs, rows=None):
    """fn's step unitaries U_k = exp(-i M_k) as one batch: of one run [(t0,
    step, steps)], the steps k < steps from t0 + k step; then of any rows, an
    (m, 2) array of single steps (t0, step), in turn (runs may be []). One
    generator call builds them from their edges (not a grid), and one call
    exponentiates them.

    Each generator M is tridiagonal and is decomposed as D M D^dag, D =
    diag(p) with p_j = exp(-i sum_{m<j} theta_m) and theta_m the phase of
    M[m+1, m]. This unitary similarity makes M real symmetric tridiagonal,
    with subdiagonal |M[m+1, m]|, and U = D^dag exp(-i D M D^dag) D.
    """
    (t0, step, steps), = runs or [(0.0, 0.0, 0)]
    edges = np.arange(steps + 1, dtype=float) * step + t0
    if rows is None:
        generators = fn.step_generators(edges, step)
    else:  # each row's edges (t0, t0 + step) after the run's, and a dt per step
        edges = np.append(edges, rows.cumsum(axis=1))
        generators = fn.step_generators(edges, np.r_[np.full(steps, step), rows[:, 1]],
                                        np.r_[:steps, steps + 1:len(edges):2])
    del edges
    if not np.all(np.isfinite(generators)):
        raise ValueError("Hamiltonian produced non-finite entries")
    sub = generators[:, _SUB_ROW, _SUB_COL]
    # p = exp(-i phases), 0 in row 0: np.angle, not sub / abs(sub), which overflows on a subnormal
    phases = np.add.accumulate(np.angle(sub), axis=1)
    real = np.ascontiguousarray(generators.real)
    real[:, _SUB_ROW, _SUB_COL] = real[:, _SUB_COL, _SUB_ROW] = np.abs(sub)
    del generators, sub
    batch = _exp_minus_i(real)
    del real
    batch *= (conj_p := np.exp(1j * np.column_stack((np.zeros(len(batch)), phases))))[:, :, None]
    batch *= np.conj(conj_p, out=conj_p)[:, None, :]  # p
    return batch


def _partials(batch, counts):
    """{c: U_{c-1} ... U_0} (the identity for c = 0) for each count c in
    `counts` of a batch of step unitaries: the only product over them."""
    partials = {0: np.eye(4, dtype=complex)} if 0 in counts else {}
    marks = sorted({0, *counts})
    for lo, c in zip(marks, marks[1:]):  # from 0: one step is its own unitary
        u = partials[c] = _chain(batch[lo:c]) @ u if lo else _chain(batch[:c])
    return partials


def _fold(fn, step, counts):
    """{c: W e^{-i Lambda c step} W^T} for each count c, the unitary of c steps
    of a constant H = W Lambda W^T (fn.eigh)."""
    evals, w = fn.eigh
    phases = {c: -(c * step) * evals for c in counts}
    if not np.all(np.isfinite([*phases.values()])):
        raise ValueError("Hamiltonian produced non-finite entries")
    return {c: (w * np.exp(1j * x)) @ w.T for c, x in phases.items()}


def segment_propagator(hamiltonian_fn, t0, t1, steps):
    """Time-ordered propagator over [t0, t1] under a time-dependent
    Hamiltonian, in `steps` equal steps."""
    t0, t1 = number(t0, "t0"), number(t1, "t1")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    steps = check_steps(steps, "steps")
    if t1 == t0:
        return np.eye(4, dtype=complex)
    fn, step = hamiltonian_fn, (t1 - t0) / steps
    u = _chain(_step_unitaries(fn, [(t0, step, steps)])) if fn.eigh is None else (
        _fold(fn, step, {steps})[steps])
    return fn.frame @ u @ fn.frame.conj().T


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


def _sample_steps(g0, t, h, n, due, every, last, limit=MAX_SAMPLES):
    """The step counts of a segment at which samples fall due, and the next
    due time; past `limit` counts it stops, at limit + 1. After c steps the
    segment is at end(c): g0 after the leading step (c = 0), g0 + c h after
    whole step c <= n and t after the closing step (c = n + 1), computed as
    the walk computes them.

    A sample falls due at the first end past `last`, the time of the sample
    before it, and at or after `due` (less 1e-15 s of slack); then `due` +=
    `every`. The ends rise with c, but rounding may put t an ulp before g0 +
    n h: count n + 1 is keyed on the larger. Each count starts from the
    estimate ceil((x - g0) / h) for the bound x, and moves down while the end
    before it is due and up while its own is not: on the grid, a step or none.
    """
    def end(c):
        return g0 + c * h if c <= n else max(t, g0 + n * h)

    marks, lo = [], 0
    while len(marks) <= limit:
        x = max(due - 1e-15, math.nextafter(last, math.inf))
        if not x <= end(n + 1):
            break
        c = min(max(lo, math.ceil((x - g0) / h)), n + 1)
        while c > lo and end(c - 1) >= x:
            c -= 1
        while end(c) < x:
            c += 1
        marks.append(c)
        last, due, lo = end(c), due + every, c + 1
    return marks, due


def _floquet(u_period):
    """(U_T, O, theta) of a complex symmetric unitary U_T, as the module docstring states."""
    w, o = np.linalg.eigh(u_period.real + math.sqrt(2.0) * u_period.imag)
    d = o.T @ u_period @ o
    # i and j join where |d_ij| passes U_T's roundoff and 4 |w_i - w_j| < |d_ii - d_jj|
    # + 2 |d_ij|, at least |lambda_i - lambda_j|: then eigh of B splits them
    lam = d.diagonal()
    joined = abs(d) > 5e-14
    joined &= 4.0 * abs(w[:, None] - w) < abs(lam[:, None] - lam) + 2.0 * abs(d)
    if np.count_nonzero(joined) > 4:  # runs of up to 3 joins, by boolean products
        for run in {tuple(np.flatnonzero(r)) for r in joined @ joined @ joined if r.sum() > 1}:
            o[:, run] = o[:, run] @ np.linalg.eigh(o[:, run].T @ u_period.imag @ o[:, run])[1]
        d = o.T @ u_period @ o
    return u_period, o, np.angle(d.diagonal())


def _period_partials(batch, s, residues):
    """(U_T, O, theta) and {r: P(r)} for residues r in [0, s), P(r) the first r
    steps of h = T_r / s from rotor phase 0: from `batch`, the first ceil(s/2), by
    the mirror identities."""
    p = _partials(batch, {min(r, s - r) for r in residues} | {s // 2, -(-s // 2)})
    floquet = _floquet(p[s // 2].T @ p[-(-s // 2)])
    return floquet, {r: p[r] if 2 * r <= s else p[s - r].conj() @ floquet[0]
                     for r in residues}


def _band_key(event):
    """A timed event's drive amplitude and dipolar switch, its band-frame H."""
    return ((event.drive.omega_1, True) if isinstance(event, CWSegment) else
            (0.0, bool(event.dipolar_on)) if isinstance(event, Delay) else None)


class _Segment:
    """A timed event of a walk, as `_Plan` holds it."""

    __slots__ = ("event", "key", "t0", "t", "j0", "g0", "n", "marks")

    def __init__(self, event, key, t0, t, j0, g0, n, marks):
        self.event, self.key, self.t0, self.t, self.j0 = event, key, t0, t, j0
        self.g0, self.n, self.marks = g0, n, marks


class _Plan:
    """A walk over a sequence in float arithmetic, made before any matrix.

    `walk` holds each event in turn: a rotation as it is, None where the
    first sample is taken (t = 0, after any leading pulses), and a timed
    event of nonzero duration as a _Segment: from t0 to t a leading step to
    g0 (if g0 > t0), n whole steps of h from grid point j0 and a closing
    step, and samples after the step counts `marks` (0 to n + 1). Per
    Hamiltonian, by `_band_key`, `edges` holds its segments' leading and
    closing steps as one (m, 2) array of (t0, step) rows, in walk order.
    `folding` maps each time-dependent Hamiltonian with a whole step to its
    segments' residues (j0 + c) mod s: r0, each sampled c and n. More than
    MAX_SAMPLES `samples` raise a FieldError; the count stops there.
    """

    def __init__(self, system, events, s, sample_every):
        self.h = h = system.rotor_period / s
        self.t_a = t_a = -(system.phi % math.tau) / system.omega_r
        self.half = -(-s // 2)
        constants = dipolar_constants(system.gamma, system.r, system.theta_d)
        # D(t) = 0 leaves every segment's H constant, even with the dipolar term on
        varies = bool(constants.omega_d1 or constants.omega_d2)
        self.walk, self.edges, self.folding = [], {}, {}
        keys = {}  # one key object per Hamiltonian
        t, due, last, samples = 0.0, sample_every, None, 0
        for event in events:
            if isinstance(event, IdealRotation):
                self.walk.append(event)
                continue
            if (key := _band_key(event)) is None:
                raise TypeError(f"unknown event type {type(event).__name__}")
            if last is None:
                self.walk.append(None)
                last, samples = t, 1
            if event.duration == 0.0:
                continue
            t0, t = t, t + event.duration
            j0 = math.ceil((t0 - t_a) / h)
            g0 = t_a + j0 * h
            g0 = g0 if t0 < g0 < t else t0
            n = max(1, math.ceil((t - g0) / system.rotor_period * s)) - 1
            marks, due = _sample_steps(g0, t, h, n, due, sample_every, last,
                                       MAX_SAMPLES - samples)
            if (samples := samples + len(marks)) > MAX_SAMPLES:
                break
            if marks:
                last = g0 + marks[-1] * h if marks[-1] <= n else t
            key = keys.setdefault(key, key)
            self.walk.append(_Segment(event, key, t0, t, j0, g0, n, tuple(marks)))
            edges = self.edges.setdefault(key, [])
            if g0 > t0:
                edges.append((t0, g0 - t0))
            t_close = g0 + n * h
            edges.append((t_close, t - t_close))
            if n and key[1] and varies:
                self.folding.setdefault(key, set()).update(
                    (j0 + c) % s for c in (0, *marks, n) if c <= n)
        self.edges = {key: np.array(steps) for key, steps in self.edges.items()}
        # a sample due at the end gives way to U, which the walk takes last
        self.samples = samples + (not samples or last < t)
        if self.samples > MAX_SAMPLES:
            raise FieldError("sample_every", f"sample_every = {sample_every!r} s takes "
                             f"more than {MAX_SAMPLES} samples of this sequence")
        self.end = t


def _propagate(system, events, steps_per_period, sample_every):
    """Walk a sequence once, as `_Plan` plans it; return its unitary U, the
    samples [(t, V)], the plan and, per folded Hamiltonian, (its first
    segment's event, theta, the Floquet states u_close Q O there as columns).

    Every segment is folded into U here; event types are told apart here, in
    `_band_key`, in `_Plan`, in `cli.floquet_period` and in `cli.cmd_gate`'s
    precession sum. V is the unitary a measurement at t sees: U so far,
    through the closing trim pulse inside a CW segment. Samples are taken at
    t = 0 after any leading pulses, at the step counts `_sample_steps` finds
    for each multiple of sample_every, and at the end of the sequence (the
    last sample holds U, so it includes any trailing pulses). Each fold starts
    from the identity; the walk multiplies it in.

    A segment's leading step, n whole steps and closing step end at counts
    0 to n + 1. A Hamiltonian's k-th leading or closing step is `edges`
    row k of the plan; if the Hamiltonian is time-dependent, its unitary is
    step k mod ceil(s/2) of the edge chunk k // ceil(s/2), chunk 0 of a
    folding one from its half-period batch. After c whole steps its unitary
    is P(r) O e^{i (q - q0) theta} O^T P(r0)^dag, from its Hamiltonian's
    one `_period_partials` call, (q, r) = divmod(j0 + c, s) and (q0, r0) =
    divmod(j0, s) in Python integers. A constant Hamiltonian's steps are
    `_fold`ed in closed form: the sampled c and n at once.
    """
    s = check_steps(steps_per_period, "steps_per_period")
    plan = _Plan(system, events, s, sample_every)
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    eye = np.eye(4, dtype=complex)
    u, samples, floquet = eye, [], []
    folds, chunks, taken = {}, {}, {}  # per Hamiltonian: _period_partials, chunk, edge steps

    def edge(fn, key):  # the unitary of its Hamiltonian's next leading or closing step
        k = taken[key] = taken.get(key, -1) + 1
        if fn.eigh is not None:  # a constant H, in closed form
            return _fold(fn, plan.edges[key][k, 1], {1})[1]
        if not k % plan.half and (k or key not in chunks):  # a fold brings chunk 0
            chunks[key] = None  # the chunk before goes first
            chunks[key] = _step_unitaries(fn, [], plan.edges[key][k:k + plan.half])
        if k + 1 < len(plan.edges[key]):
            return chunks[key][k % plan.half]
        folds.pop(key, None)  # its last step: its partials and chunk go
        return chunks.pop(key)[k % plan.half]

    for seg in plan.walk:
        if seg is None:
            samples.append((0.0, u))
            continue
        if isinstance(seg, IdealRotation):
            u = rotation_unitary(seg.targets, seg.axis, seg.angle) @ u
            continue
        event, key = seg.event, seg.key
        if isinstance(event, Delay):
            u_open = u_close = eye
            fn = _segment_hamiltonian(system, None, constants, event.dipolar_on)
        else:
            u_open, u_close = trim_unitaries(system, event)
            fn = _segment_hamiltonian(system, event.drive, constants)
        # into the segment's band frame and, at each sample and the end, out
        u_close = u_close @ fn.frame
        u = fn.frame.conj().T @ u_open @ u
        if key in plan.folding and key not in folds:  # one batch serves all its segments
            batch = _step_unitaries(fn, [(plan.t_a, plan.h, plan.half)],
                                    plan.edges[key][:plan.half])
            folds[key] = _period_partials(batch[:plan.half], s, plan.folding[key])
            chunks[key] = batch[plan.half:].copy()  # its edge chunk 0
            del batch
            (_, o, theta), _ = folds[key]
            floquet.append((event, theta, u_close @ o))  # kept past its partials
        g0, n, marks = seg.g0, seg.n, seg.marks
        if g0 > seg.t0:  # the leading step
            u = edge(fn, key) @ u
        if 0 in marks:  # only ever at the end of a leading step
            samples.append((g0, u_close @ u))
        counts = [c for c in marks if 0 < c <= n] + [n]  # the sampled whole steps, then all
        if n and key in plan.folding:
            (q0, r0), (qs, rs) = divmod(seg.j0, s), zip(*[divmod(seg.j0 + c, s) for c in counts])
            (_, o, theta), partial = folds[key]
            phases = np.exp(1j * np.multiply.outer([float(q - q0) for q in qs], theta))
            units = np.array([partial[r] for r in rs]) @ ((o * phases[:, None]) @ o.T) @ (
                partial[r0].conj().T @ u)
        else:  # a constant Hamiltonian, or no whole step
            partial = _fold(fn, plan.h, set(counts)) if n else {0: eye}
            units = np.array([partial[c] for c in counts]) @ u
        samples += zip([g0 + c * plan.h for c in counts[:-1]], u_close @ units[:-1])
        u = edge(fn, key) @ units[-1]
        if n + 1 in marks:
            samples.append((seg.t, u_close @ u))
        u = u_close @ u
    t = plan.end
    if samples and samples[-1][0] >= t:
        t = samples.pop()[0]  # a sample at the end gives way to U
    samples.append((t, u))
    return u, samples, plan, tuple(floquet)


def run_sequence(initial, system, events, sample_every,
                 steps_per_period=DEFAULT_STEPS_PER_PERIOD):
    """Propagate a density matrix through a pulse sequence, sampling <I_z>, <S_z>.

    The t = 0 sample is taken after any leading instantaneous pulses, i.e.
    it reflects the prepared state. During a trimmed CW segment the sampled
    observables are taken through the closing trim pulse (the state itself
    keeps evolving under the drive). A sample is due at the first step end
    at or after each multiple of sample_every: sample_every = 0 samples
    every step end, and inf only the start and the end. The last sample is
    the state at the end of the sequence, after any trailing pulses.

    `initial` must be a 4x4 density matrix and sample_every a real number
    >= 0, finite or inf; anything else raises a ValueError that names it.
    """
    if not (isinstance(sample_every, numbers.Real) and sample_every == math.inf):
        sample_every = number(sample_every, "sample_every", 0.0)
    rho = check_density_matrix(initial, field="initial")
    _, samples, _, floquet = _propagate(system, events, steps_per_period, sample_every)
    v = np.array([v for _, v in samples])
    populations = np.einsum("nij,jk,nik->ni", v, rho, v.conj()).real
    iz_op, sz_op = (spin_operator(k, "z") for k in SPINS)
    return Trajectory(times=np.array([t for t, _ in samples]),
                      iz=populations @ iz_op.diagonal().real,
                      sz=populations @ sz_op.diagonal().real, floquet=floquet)


def extract_gate(system, events, steps_per_period=DEFAULT_STEPS_PER_PERIOD):
    """Total rotating-frame unitary of a sequence (identity propagated through)."""
    return _propagate(system, events, steps_per_period, math.inf)[0]
