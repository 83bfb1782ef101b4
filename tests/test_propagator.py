import functools
import math
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.linalg import expm

from r2tr import propagator
from r2tr.cli import (analytic_point, build_drive, build_run, build_system,
                      main as cli_main, preset_config)
from r2tr.hamiltonian import (dipolar_constants, dipolar_coupling_operator,
                              effective_field, static_drive_hamiltonian)
from r2tr.operators import (SpinSystem, basis_state, check_density_matrix,
                            check_unitary, expectation, spin_operator)
from r2tr.propagator import (FOLD_BLOCK, CWSegment, Delay, HarmonicHamiltonian,
                             IdealRotation, RFDrive, Trajectory, _due_steps, _fold,
                             _segment_hamiltonian,
                             extract_gate, rotation_unitary, run_sequence,
                             segment_propagator, trim_unitaries)
from r2tr.units import GAMMA_C13, GLYCINE_CC_DISTANCE, TWO_PI, deg_to_rad, hz_to_angular


def glycine_system(phi=0.0, offsets=(2000.0, 18699.0)):
    return SpinSystem(gamma=GAMMA_C13, r=GLYCINE_CC_DISTANCE,
                      theta_d=deg_to_rad(64.0), phi=phi,
                      omega_r=TWO_PI * 7884.0,
                      offsets=tuple(TWO_PI * o for o in offsets))


def harmonic_hamiltonian(system, drive=None):
    c = dipolar_constants(system.gamma, system.r, system.theta_d)
    from r2tr.hamiltonian import dipolar_coupling_operator
    h_static = static_drive_hamiltonian(system, drive)
    h_dip = dipolar_coupling_operator()
    return HarmonicHamiltonian(h_static, h_dip, system.omega_r, system.phi,
                               c.omega_d1, c.omega_d2)


def test_rotation_unitary_pi_pulse():
    u = rotation_unitary((0,), "x", np.pi)
    rho = basis_state("00")
    rho = u @ rho @ u.conj().T
    assert expectation(rho, spin_operator(0, "z")).real == pytest.approx(-0.5)
    assert expectation(rho, spin_operator(1, "z")).real == pytest.approx(0.5)


def test_rotation_unitary_preserves_density_matrix():
    u = rotation_unitary((0, 1), "y", 0.77)
    check_density_matrix(u @ basis_state("10") @ u.conj().T)


def test_segment_propagator_unitary():
    sys = glycine_system(phi=0.4)
    fn = harmonic_hamiltonian(sys, RFDrive(omega_1=hz_to_angular(2339.0)))
    u = segment_propagator(fn, 0.0, 3.7 * sys.rotor_period, 3000)
    check_unitary(u, tol=1e-9)


def test_segment_propagator_constant_hamiltonian_exact():
    # with the dipolar amplitudes zeroed the Hamiltonian is static and the
    # propagator must match the closed-form exponential
    sys = glycine_system()
    h0 = static_drive_hamiltonian(sys, RFDrive(omega_1=hz_to_angular(1000.0)))
    fn = HarmonicHamiltonian(h0, np.zeros((4, 4)), sys.omega_r, 0.0, 0.0, 0.0)
    t1 = 2.5e-4
    u = segment_propagator(fn, 0.0, t1, 200)
    assert np.max(np.abs(u - expm(-1j * h0 * t1))) < 1e-9


def test_segment_propagator_self_convergence():
    sys = glycine_system(phi=0.2)
    fn = harmonic_hamiltonian(sys, RFDrive(omega_1=hz_to_angular(2339.0)))
    t1 = sys.rotor_period
    u1 = segment_propagator(fn, 0.0, t1, 1000)
    u2 = segment_propagator(fn, 0.0, t1, 2000)
    assert np.max(np.abs(u1 - u2)) < 1e-8


@pytest.mark.parametrize("steps", [1, 2, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1,
                                   2 * FOLD_BLOCK + 3])
def test_fold_matches_serial_product(steps):
    sys = glycine_system(phi=0.3)
    fn = harmonic_hamiltonian(sys, RFDrive(omega_1=hz_to_angular(2339.0)))
    t1 = steps / 64 * sys.rotor_period
    edges = np.linspace(0.0, t1, steps + 1)
    generators = fn.step_generators(edges, t1 / steps)
    unitaries = [expm(-1j * m) for m in generators]
    u0 = rotation_unitary((0,), "x", 0.7)

    def serial(k):
        # U_k ... U_1 U_0 u0, one product per step
        return functools.reduce(lambda u, uk: uk @ u, unitaries[:k + 1], u0)

    # step 0 and the last step, each twice, and both sides of every block edge
    marks = [0, 0, steps - 1, steps - 1] + [
        k for edge in range(FOLD_BLOCK, steps, FOLD_BLOCK) for k in (edge - 1, edge)]
    u, partial = _fold(u0, fn, 0.0, t1, steps, marks)
    assert np.max(np.abs(u - serial(steps - 1))) < 1e-12
    expected = sorted(set(marks))
    assert len(partial) == len(expected)
    for k, v in zip(expected, partial):
        assert np.max(np.abs(v - serial(k))) < 1e-12, k


def test_non_finite_hamiltonian_is_rejected():
    sys = glycine_system()
    fn = harmonic_hamiltonian(sys)
    bad = HarmonicHamiltonian(fn.h_static, fn.h_dip, fn.omega_r, fn.phi,
                              math.inf, fn.omega_d2)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="Hamiltonian produced non-finite entries"):
        segment_propagator(bad, 0.0, sys.rotor_period, 64)


def test_extract_gate_memory_does_not_grow_with_segment_length():
    # edges and generators are built one fold block at a time, so a long
    # segment holds one block, far below one (steps, 4, 4) array
    sys = glycine_system(phi=0.3)
    steps = 2**16
    seg = CWSegment(drive=RFDrive(omega_1=hz_to_angular(2339.0)),
                    duration=steps / 1024 * sys.rotor_period)
    tracemalloc.start()
    try:
        extract_gate(sys, [seg], steps_per_period=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < steps * 64


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("walk", [
    pytest.param(lambda sys, seg: extract_gate(sys, [seg], steps_per_period=1024),
                 id="extract_gate"),
    # a sampling interval longer than the segment: no sample is due inside it
    pytest.param(lambda sys, seg: run_sequence(basis_state("10"), sys, [seg],
                                               sample_every=2 * seg.duration,
                                               steps_per_period=1024),
                 id="run_sequence"),
])
def test_walk_memory_is_flat_in_segment_length(walk):
    # no per-step time grid and one fold block alive at a time: four times
    # the steps leave the peak where it was
    sys = glycine_system(phi=0.3)
    drive = RFDrive(omega_1=hz_to_angular(2339.0))
    peaks = []
    for steps in (2**16, 2**18):
        seg = CWSegment(drive=drive, duration=steps / 1024 * sys.rotor_period)
        peaks.append(_peak_bytes(lambda: walk(sys, seg)))
    assert abs(peaks[1] - peaks[0]) < 64 * 1024


@pytest.mark.parametrize("walk", [
    pytest.param(lambda system, events, steps: extract_gate(system, events,
                                                            steps_per_period=steps),
                 id="extract_gate"),
    # samples every 5.3 rotor periods: marks fall inside some blocks
    pytest.param(lambda system, events, steps: run_sequence(
        basis_state("10"), system, events, 5.3 * system.rotor_period,
        steps_per_period=steps), id="run_sequence"),
])
def test_fold_heap_stays_within_three_block_arrays(walk):
    # fig3a folds about a hundred blocks, and no more than three complex
    # (FOLD_BLOCK, 4, 4) arrays are alive at a time; the 64 kB of slack
    # holds the walk's small arrays (U, edges, phases, eigenvalues, samples).
    # A broadcast ufunc that casts or writes into a strided output allocates
    # iterator buffers of about a block each, and breaks the bound.
    system, _, events, steps = build_run(preset_config("fig3a"))
    walk(system, events, steps)  # numpy's one-time allocations are not the fold's
    assert _peak_bytes(lambda: walk(system, events, steps)) <= 3 * FOLD_BLOCK * 256 + 64 * 1024


def test_harmonic_antiderivatives_match_quadrature():
    from scipy.integrate import quad
    sys = glycine_system(phi=0.9)
    fn = harmonic_hamiltonian(sys, None)
    t0, t1 = 1.3e-5, 6.1e-5
    def modulation(t):
        arg = fn.omega_r * t + fn.phi
        return fn.omega_d1 * np.cos(arg) + fn.omega_d2 * np.cos(2.0 * arg)

    num, _ = quad(modulation, t0, t1, limit=200)
    dt = t1 - t0
    mods = fn.step_generators(np.linspace(t0, t1, 2), dt)
    # single step: generator = dt*h_static + integral(D)*h_dip + commutator term;
    # read the integral off the |00><00| element, where h_dip is diagonal (1/4)
    h_static = static_drive_hamiltonian(sys, None)
    area = (mods[0][0, 0] - dt * h_static[0, 0]).real / 0.25
    assert area == pytest.approx(num, rel=1e-10)


@st.composite
def segments(draw):
    """A random segment: geometry, spin rate, offsets, drive amplitude and
    phase, start time and step count."""
    system = SpinSystem(
        gamma=GAMMA_C13, r=draw(st.floats(1.2e-10, 3e-10)),
        theta_d=draw(st.floats(0.0, np.pi)), phi=draw(st.floats(0.0, TWO_PI)),
        omega_r=hz_to_angular(draw(st.floats(2e3, 3e4))),
        offsets=tuple(hz_to_angular(draw(st.floats(-3e4, 3e4))) for _ in range(2)))
    drive = RFDrive(omega_1=hz_to_angular(draw(st.floats(0.0, 2e4))),
                    phase=draw(st.floats(-np.pi, np.pi)))
    t0 = draw(st.floats(0.0, 2.0)) * system.rotor_period
    t1 = t0 + draw(st.floats(0.01, 2.0)) * system.rotor_period
    return harmonic_hamiltonian(system, drive), t0, t1, draw(st.integers(1, 1500))


@settings(max_examples=40, deadline=None)
@given(segment=segments(), k=st.integers(1, 5))
def test_segment_propagator_is_rotor_periodic(segment, k):
    fn, t0, t1, steps = segment
    shift = k * TWO_PI / fn.omega_r
    u = segment_propagator(fn, t0, t1, steps)
    u_shifted = segment_propagator(fn, t0 + shift, t1 + shift, steps)
    assert np.max(np.abs(u_shifted - u)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(segment=segments())
def test_segment_propagator_is_unitary(segment):
    u = segment_propagator(*segment)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-11


def test_trim_unitaries_are_inverse_pairs():
    sys = glycine_system()
    seg = CWSegment(drive=RFDrive(omega_1=hz_to_angular(2339.0)),
                    duration=1e-3, trim=True)
    u_open, u_close = trim_unitaries(sys, seg)
    check_unitary(u_open, tol=1e-12)
    assert np.allclose(u_close, u_open.conj().T)


def test_trim_maps_z_onto_effective_field():
    # after the opening trim, a z-polarized spin is an eigenstate of the
    # static (offset + drive) Hamiltonian's single-spin part
    sys = glycine_system()
    drive = RFDrive(omega_1=hz_to_angular(2339.0))
    seg = CWSegment(drive=drive, duration=1e-3, trim=True)
    u_open, _ = trim_unitaries(sys, seg)
    h0 = static_drive_hamiltonian(sys, drive)
    tilted = u_open.conj().T @ h0 @ u_open
    off_diag = tilted - np.diag(np.diag(tilted))
    assert np.max(np.abs(off_diag)) < 1e-8
    ei = effective_field(sys.offsets[0], drive.omega_1)
    es = effective_field(sys.offsets[1], drive.omega_1)
    expected = np.diag(ei.omega_e * spin_operator(0, "z")
                       + es.omega_e * spin_operator(1, "z")).real
    assert np.allclose(np.sort(np.diag(tilted).real), np.sort(expected))


def test_skip_trim_leaves_spin_untouched():
    sys = glycine_system()
    seg = CWSegment(drive=RFDrive(omega_1=hz_to_angular(2339.0)),
                    duration=1e-3, trim=True, skip_trim=(1,))
    u_open, _ = trim_unitaries(sys, seg)
    # acting trivially on spin S: commutes with S_z
    sz = spin_operator(1, "z")
    assert np.allclose(u_open @ sz, sz @ u_open)


# the closed-form spin-1/2 rotations against the general matrix exponential
@settings(max_examples=60, deadline=None)
@given(targets=st.lists(st.sampled_from((0, 1)), min_size=1, max_size=3),
       axis=st.sampled_from(("x", "y", "z")), angle=st.floats(-TWO_PI, TWO_PI))
def test_rotation_unitary_matches_expm(targets, axis, angle):
    gen = sum(spin_operator(k, axis) for k in targets)
    assert np.max(np.abs(rotation_unitary(targets, axis, angle)
                         - expm(-1j * angle * gen))) < 1e-14


@settings(max_examples=60, deadline=None)
@given(offsets=st.tuples(st.floats(-3e4, 3e4), st.floats(-3e4, 3e4)),
       amplitude=st.floats(0.0, 2e4), phase=st.floats(-TWO_PI, TWO_PI),
       trim=st.booleans(), skip_trim=st.lists(st.sampled_from((0, 1)), max_size=2))
def test_trim_unitaries_match_expm(offsets, amplitude, phase, trim, skip_trim):
    sys = glycine_system(offsets=offsets)
    drive = RFDrive(omega_1=hz_to_angular(amplitude), phase=phase)
    seg = CWSegment(drive=drive, duration=1e-3, trim=trim, skip_trim=skip_trim)
    gen = sum((effective_field(dw, drive.omega_1).beta
               * (np.cos(phase) * spin_operator(k, "y") - np.sin(phase) * spin_operator(k, "x"))
               for k, dw in enumerate(sys.offsets) if trim and k not in skip_trim),
              np.zeros((4, 4)))
    u_open, u_close = trim_unitaries(sys, seg)
    expected = expm(-1j * gen)
    assert np.max(np.abs(u_open - expected)) < 1e-14
    assert np.max(np.abs(u_close - expected.conj().T)) < 1e-14


def test_run_sequence_preserves_density_matrix_and_samples():
    sys = glycine_system(phi=0.1)
    events = [IdealRotation((0,), "x", np.pi),
              CWSegment(drive=RFDrive(omega_1=hz_to_angular(2339.0)),
                        duration=8 * sys.rotor_period, skip_trim=(1,))]
    traj = run_sequence(basis_state("00"), sys, events,
                        sample_every=sys.rotor_period, steps_per_period=512)
    assert isinstance(traj, Trajectory)
    # t = 0 sample reflects the prepared (I-inverted) state
    assert traj.times[0] == 0.0
    assert traj.iz[0] == pytest.approx(-0.5, abs=1e-9)
    assert traj.sz[0] == pytest.approx(0.5, abs=1e-9)
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.abs(traj.iz) <= 0.5 + 1e-9)


def test_delay_without_dipolar_keeps_populations():
    sys = glycine_system()
    events = [Delay(duration=1e-3, dipolar_on=False)]
    traj = run_sequence(basis_state("10"), sys, events,
                        sample_every=2e-4, steps_per_period=64)
    assert np.allclose(traj.iz, -0.5, atol=1e-10)
    assert np.allclose(traj.sz, 0.5, atol=1e-10)


def test_trajectory_csv_round_trip(tmp_path):
    traj = Trajectory(times=np.array([0.0, 1e-4]),
                      iz=np.array([-0.5, -0.25]),
                      sz=np.array([0.5, 0.25]))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,Iz,Sz"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 1], traj.iz)


def test_extract_gate_zero_duration_is_identity():
    sys = glycine_system()
    u = extract_gate(sys, [])
    assert np.allclose(u, np.eye(4))


def _cw(rotor_periods, **kwargs):
    sys = glycine_system()
    return CWSegment(drive=RFDrive(omega_1=hz_to_angular(2339.0)),
                     duration=rotor_periods * sys.rotor_period, **kwargs)


@pytest.mark.parametrize("events", [
    pytest.param([IdealRotation((0,), "x", np.pi), _cw(5, skip_trim=(1,))],
                 id="pulse-cw"),
    # segments start off rotor-period boundaries
    pytest.param([IdealRotation((0,), "x", np.pi), _cw(1.3, skip_trim=(1,)),
                  Delay(duration=0.45 * glycine_system().rotor_period,
                        dipolar_on=False),
                  _cw(2.2)],
                 id="pulse-cw-delay-cw"),
    pytest.param([IdealRotation((0,), "x", np.pi), _cw(0.0), _cw(2.5)],
                 id="zero-duration-cw"),
    pytest.param([IdealRotation((0, 1), "y", 0.6), _cw(3.3, trim=False)],
                 id="untrimmed"),
])
def test_extract_gate_unitary_and_composition(events):
    sys = glycine_system(phi=0.25)
    u = extract_gate(sys, events, steps_per_period=512)
    check_unitary(u, tol=1e-9)
    # run_sequence walks the same events: its last sample is the state the
    # gate produces
    traj = run_sequence(basis_state("00"), sys, events,
                        sample_every=0.37 * sys.rotor_period,
                        steps_per_period=512)
    rho = basis_state("00")
    rho = u @ rho @ u.conj().T
    assert expectation(rho, spin_operator(0, "z")).real == pytest.approx(
        traj.iz[-1], abs=1e-9)
    assert expectation(rho, spin_operator(1, "z")).real == pytest.approx(
        traj.sz[-1], abs=1e-9)


def test_event_validation():
    with pytest.raises(ValueError):
        RFDrive(omega_1=-1.0)
    with pytest.raises(ValueError):
        Delay(duration=-1e-3)
    with pytest.raises(ValueError):
        IdealRotation((), "x", np.pi)
    with pytest.raises(ValueError):
        IdealRotation((0, 0), "x", np.pi / 2)
    with pytest.raises(TypeError):
        run_sequence(basis_state("00"), glycine_system(), ["pulse"], 1e-4)


# ---------------------------------------------------- properties of the walk

T_R = glycine_system().rotor_period
SPINS = st.lists(st.sampled_from((0, 1)), min_size=1, max_size=2, unique=True)
DURATIONS = st.floats(0.0, 1.5).map(lambda periods: periods * T_R)
DRIVES = st.builds(RFDrive, omega_1=st.floats(0.0, 10000.0).map(hz_to_angular),
                   phase=st.floats(-np.pi, np.pi))
PULSES = st.builds(IdealRotation, targets=SPINS, axis=st.sampled_from("xyz"),
                   angle=st.floats(-np.pi, np.pi))
TIMED = st.one_of(
    st.builds(Delay, duration=DURATIONS, dipolar_on=st.booleans()),
    st.builds(CWSegment, drive=DRIVES, duration=DURATIONS, trim=st.booleans(),
              skip_trim=st.lists(st.sampled_from((0, 1)), max_size=2)))


@settings(max_examples=30, deadline=None)
@given(phi=st.floats(0.0, TWO_PI),
       events=st.lists(st.one_of(PULSES, TIMED), max_size=5),
       sample_periods=st.floats(0.05, 1.5))
# a delay too short to advance the clock; a pulse at the last sample's time
@example(phi=0.0, events=[Delay(T_R, False), Delay(2.2e-210, False)],
         sample_periods=0.0546875)
@example(phi=0.0, events=[Delay(0.0), IdealRotation((0,), "x", 1.0), Delay(0.0)],
         sample_periods=0.5)
def test_walk_samples_and_gate_agree(phi, events, sample_periods):
    system = glycine_system(phi=phi)
    u = extract_gate(system, events, steps_per_period=16)
    check_unitary(u, tol=1e-10)
    traj = run_sequence(basis_state("10"), system, events,
                        sample_every=sample_periods * T_R, steps_per_period=16)
    assert np.all(np.diff(traj.times) > 0)
    rho = u @ basis_state("10") @ u.conj().T
    assert abs(expectation(rho, spin_operator(0, "z")).real - traj.iz[-1]) < 1e-12
    assert abs(expectation(rho, spin_operator(1, "z")).real - traj.sz[-1]) < 1e-12


@settings(max_examples=10, deadline=None)
@given(phi=st.floats(0.0, TWO_PI), periods=st.floats(0.2, 2.0),
       split=st.floats(0.05, 0.95))
def test_untrimmed_cw_composes_in_time(phi, periods, split):
    system = glycine_system(phi=phi)
    drive = RFDrive(omega_1=hz_to_angular(2339.0))
    whole = CWSegment(drive=drive, duration=periods * T_R, trim=False)
    t1 = split * whole.duration
    parts = [CWSegment(drive=drive, duration=t1, trim=False),
             CWSegment(drive=drive, duration=whole.duration - t1, trim=False)]
    u = extract_gate(system, [whole], steps_per_period=512)
    u_parts = extract_gate(system, parts, steps_per_period=512)
    assert np.max(np.abs(u - u_parts)) < 1e-8


# ------------------------------------------------- the streamed step grid

def _due_steps_on_grid(ends, due, every, last):
    """Reference for `_due_steps`: the same search by np.searchsorted on the
    stored step ends np.linspace(t0, t1, steps + 1)[1:]."""
    marks = []
    k = int(np.searchsorted(ends, last, side="right"))
    while (k := max(k, int(np.searchsorted(ends, due - 1e-15)))) < len(ends):
        marks.append(k)
        due += every
        k += 1
    return marks, due


class _EdgeRecorder:
    """A zero Hamiltonian that keeps the edges and step `_fold` gives it."""

    def __init__(self):
        self.blocks = []

    def step_generators(self, edges, dt):
        self.blocks.append((edges.copy(), dt))
        return np.zeros((len(edges) - 1, 4, 4), dtype=complex)


@st.composite
def grids(draw):
    """A segment's start and end, its step count, and a sampling state: the
    next due time, the interval and the last sample's time."""
    t0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 2.0)))
    duration = draw(st.one_of(
        st.floats(0.0, 3.0).map(lambda periods: periods * T_R),
        # down to durations that t0 absorbs, t0 + duration == t0
        st.integers(40, 60).map(lambda e: t0 * 2.0**-e),
        st.sampled_from([0.0, 2.2e-210, 5e-324])))
    t1 = t0 + duration
    steps = draw(st.one_of(
        st.integers(1, 2200),
        st.builds(lambda m, d: m * FOLD_BLOCK + d, st.integers(1, 4), st.integers(-2, 2))))
    every = draw(st.floats(0.01, 1.5)) * T_R  # rarely a divisor of T_r
    ends = np.linspace(t0, t1, steps + 1)[1:]
    step_end = st.integers(0, steps - 1).map(lambda k: float(ends[k]))
    last = draw(st.one_of(st.just(t0), st.floats(0.0, t0), step_end,
                          step_end.map(lambda t: math.nextafter(t, math.inf))))
    due = draw(st.one_of(step_end, st.floats(-0.5, 1.5).map(lambda x: t0 + x * duration),
                         st.just(last + every)))
    return t0, t1, steps, due, every, last


@settings(max_examples=150, deadline=None)
@given(grid=grids())
@example(grid=(T_R, T_R + 2.2e-210, 1, T_R, 0.0546875 * T_R, T_R))
@example(grid=(T_R, T_R + 2.2e-210, FOLD_BLOCK + 1, T_R, 0.0546875 * T_R, 0.0))
def test_streamed_grid_matches_linspace(grid):
    t0, t1, steps, due, every, last = grid
    edges = np.linspace(t0, t1, steps + 1)
    recorder = _EdgeRecorder()
    _fold(np.eye(4, dtype=complex), recorder, t0, t1, steps)
    assert len(recorder.blocks) == -(-steps // FOLD_BLOCK)
    for b, (block_edges, dt) in enumerate(recorder.blocks):
        lo = b * FOLD_BLOCK
        assert block_edges.tobytes() == edges[lo:lo + FOLD_BLOCK + 1].tobytes()
        assert dt == (edges[-1] - edges[0]) / steps
    marks, times, next_due = _due_steps(t0, t1, steps, due, every, last)
    expected, expected_due = _due_steps_on_grid(edges[1:], due, every, last)
    assert marks == expected
    assert times == [float(edges[k + 1]) for k in expected]
    assert next_due == expected_due


# ------------------------------------- the singlet-triplet band frame

def lab_frame_hamiltonian(system, drive, constants, dipolar_on=True):
    """The reference for `_segment_hamiltonian`: the same segment in the
    product basis, with the identity frame."""
    d1 = constants.omega_d1 if dipolar_on else 0.0
    d2 = constants.omega_d2 if dipolar_on else 0.0
    return HarmonicHamiltonian(static_drive_hamiltonian(system, drive),
                               dipolar_coupling_operator(), system.omega_r,
                               system.phi, d1, d2)


OFFSETS_HZ = st.floats(-3e4, 3e4)


@st.composite
def pair_segments(draw):
    """A pair segment: offsets equal, opposite, one zero or free, a drive
    from 0 with any phase, the dipolar term on or off, an odd start time
    and a step count that may cross a fold block."""
    first = draw(st.one_of(st.just(0.0), OFFSETS_HZ))
    second = draw(st.one_of(st.just(first), st.just(-first), st.just(0.0), OFFSETS_HZ))
    system = SpinSystem(
        gamma=GAMMA_C13, r=draw(st.floats(1.2e-10, 3e-10)),
        theta_d=draw(st.floats(0.0, np.pi)), phi=draw(st.floats(0.0, TWO_PI)),
        omega_r=hz_to_angular(draw(st.floats(2e3, 3e4))),
        offsets=(hz_to_angular(first), hz_to_angular(second)))
    drive = RFDrive(omega_1=hz_to_angular(draw(st.one_of(st.just(0.0), st.floats(0.0, 2e4)))),
                    phase=draw(st.floats(-np.pi, np.pi)))
    t0 = draw(st.floats(0.0, 2.0)) * system.rotor_period
    t1 = t0 + draw(st.floats(0.01, 2.0)) * system.rotor_period
    return system, drive, draw(st.booleans()), t0, t1, draw(st.integers(1, 700))


def _band_segment(segment):
    system, drive, dipolar_on, t0, t1, steps = segment
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    return (_segment_hamiltonian(system, drive, constants, dipolar_on),
            lab_frame_hamiltonian(system, drive, constants, dipolar_on), t0, t1, steps)


SUBNORMAL_DRIVE = (glycine_system(), RFDrive(omega_1=1e-310, phase=0.7), True,
                   0.3 * T_R, 1.7 * T_R, 600)


def _eigh_inputs(fn, t0, t1, steps):
    """segment_propagator(fn, t0, t1, steps) and every array it hands eigh."""
    decomposed = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        decomposed.append(a.copy())
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        u = segment_propagator(fn, t0, t1, steps)
    assert sum(len(a) for a in decomposed) == steps
    return u, decomposed


@settings(max_examples=40, deadline=None)
@given(segment=pair_segments())
@example(segment=SUBNORMAL_DRIVE)
def test_band_frame_hands_eigh_real_tridiagonal_generators(segment):
    # what keeps each eigh on LAPACK's quick real path: every generator
    # `_fold` decomposes is exactly zero off the tridiagonal band, with a
    # real subdiagonal, and reaches eigh as a float64 array
    fn, _, t0, t1, steps = _band_segment(segment)
    q = fn.frame
    assert np.max(np.abs(q.conj().T @ q - np.eye(4))) <= 1e-15
    u, decomposed = _eigh_inputs(fn, t0, t1, steps)
    off_band = abs(np.subtract.outer(np.arange(4), np.arange(4))) > 1
    for a in decomposed:
        assert a.dtype == np.float64
        assert np.all(a[:, off_band] == 0)
        assert np.all(a[:, [1, 2, 3], [0, 1, 2]].imag == 0)
        assert np.all(a[:, [0, 1, 2], [1, 2, 3]].imag == 0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-11


def test_lab_frame_generators_keep_the_complex_solver():
    # a driven segment in the product basis has entries off the band, so
    # its blocks keep the complex Hermitian path
    system = glycine_system(phi=0.3)
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    fn = lab_frame_hamiltonian(system, RFDrive(omega_1=hz_to_angular(2339.0), phase=0.4),
                               constants)
    steps = FOLD_BLOCK + 3
    u, decomposed = _eigh_inputs(fn, 0.1 * T_R, 1.3 * T_R, steps)
    assert [a.dtype for a in decomposed] == [np.complex128, np.complex128]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-11


@settings(max_examples=40, deadline=None)
@given(segment=pair_segments())
@example(segment=SUBNORMAL_DRIVE)
def test_band_frame_propagator_matches_lab_frame(segment):
    fn, lab, t0, t1, steps = _band_segment(segment)
    assert np.max(np.abs(segment_propagator(fn, t0, t1, steps)
                         - segment_propagator(lab, t0, t1, steps))) < 1e-10


def _lab_frame_walk(run):
    """run() with every segment of the walk in the product basis."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(propagator, "_segment_hamiltonian", lab_frame_hamiltonian)
        return run()


def assert_walk_matches_lab_frame(system, events, sample_every, steps_per_period):
    def gate():
        return extract_gate(system, events, steps_per_period=steps_per_period)

    def trajectory():
        return run_sequence(basis_state("10"), system, events, sample_every,
                            steps_per_period=steps_per_period)

    assert np.max(np.abs(gate() - _lab_frame_walk(gate))) < 1e-10
    traj, expected = trajectory(), _lab_frame_walk(trajectory)
    assert traj.times.tobytes() == expected.times.tobytes()
    assert np.max(np.abs(traj.iz - expected.iz)) < 1e-10
    assert np.max(np.abs(traj.sz - expected.sz)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(phi=st.floats(0.0, TWO_PI),
       events=st.lists(st.one_of(PULSES, TIMED), max_size=5),
       sample_periods=st.floats(0.05, 1.5))
@example(phi=1.3, events=[Delay(0.37 * T_R, dipolar_on=False),
                          CWSegment(RFDrive(hz_to_angular(2339.0), 0.9), 1.1 * T_R),
                          Delay(0.8 * T_R)],
         sample_periods=0.31)
def test_walk_matches_lab_frame_walk(phi, events, sample_periods):
    # segments start at odd times after the ones before them, and the
    # sampling interval rarely divides T_r
    assert_walk_matches_lab_frame(glycine_system(phi=phi), events,
                                  sample_periods * T_R, 64)


@pytest.mark.parametrize("preset", ["fig3a", "fig3b", "fig4"])
def test_presets_match_lab_frame_walk(preset):
    cfg = preset_config(preset)
    if preset == "fig4":
        # fig4's gate: CW for about half the exchange period
        system, drive = build_system(cfg), build_drive(cfg)
        cfg["sequence"] = [{"type": "cw", "duration_s": 0.5 * analytic_point(
            system, drive).exchange_period}]
    system, _, events, steps = build_run(cfg)
    assert_walk_matches_lab_frame(system, events, system.rotor_period, steps)


def test_fig3a_makes_the_pinned_eigh_matrices(tmp_path, monkeypatch):
    # the 51,761 matrices that bench/selftest.py pins for fig3a: one per
    # integrator step, and no eigendecomposition to build the band frame
    matrices = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        matrices.append(len(a) if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert cli_main(["repro", "fig3a", "--out", str(tmp_path)]) == 0
    assert sum(matrices) == 51761
