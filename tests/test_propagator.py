import functools
import itertools
import math
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.linalg import expm

from r2tr import propagator
from r2tr.cli import (analytic_point, build_drive, build_run, build_system,
                      main as cli_main, preset_config)
from r2tr.hamiltonian import dipolar_constants, effective_field
from r2tr.operators import (SpinSystem, basis_state, check_density_matrix,
                            check_unitary, expectation, spin_operator)
from r2tr.propagator import (MAX_STEPS_PER_PERIOD, CWSegment, Delay, HarmonicHamiltonian,
                             IdealRotation, RFDrive, Trajectory, _fold, _period_partials,
                             _sample_steps, _segment_hamiltonian, _step_unitaries,
                             extract_gate, rotation_unitary, run_sequence,
                             segment_propagator, trim_unitaries)
from r2tr.units import GAMMA_C13, GLYCINE_CC_DISTANCE, TWO_PI, deg_to_rad, hz_to_angular


def glycine_system(phi=0.0, offsets=(2000.0, 18699.0)):
    return SpinSystem(gamma=GAMMA_C13, r=GLYCINE_CC_DISTANCE,
                      theta_d=deg_to_rad(64.0), phi=phi,
                      omega_r=TWO_PI * 7884.0,
                      offsets=tuple(TWO_PI * o for o in offsets))


def dipolar_coupling_operator():
    """The secular homonuclear form I_z S_z - (1/4)(I+S- + I-S+) of the pair,
    in the product basis."""
    flip = (spin_operator(0, "+") @ spin_operator(1, "-")
            + spin_operator(0, "-") @ spin_operator(1, "+"))
    return spin_operator(0, "z") @ spin_operator(1, "z") - 0.25 * flip


def static_drive_hamiltonian(system, drive):
    """The offset and RF part of the rotating-frame Hamiltonian, in the
    product basis (no drive: offsets only)."""
    h = sum(dw * spin_operator(k, "z") for k, dw in enumerate(system.offsets))
    if drive is not None:
        h = h + drive.omega_1 * sum(math.cos(drive.phase) * spin_operator(k, "x")
                                    + math.sin(drive.phase) * spin_operator(k, "y")
                                    for k in (0, 1))
    return h


def harmonic_hamiltonian(system, drive=None, dipolar_on=True):
    c = dipolar_constants(system.gamma, system.r, system.theta_d)
    return _segment_hamiltonian(system, drive, c, dipolar_on)


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
    drive = RFDrive(omega_1=hz_to_angular(1000.0))
    h0 = static_drive_hamiltonian(sys, drive)
    fn = harmonic_hamiltonian(sys, drive, dipolar_on=False)
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


@pytest.mark.parametrize("steps", [1, 2, 511, 512, 513, 1027])
def test_fold_matches_serial_product(steps):
    sys = glycine_system(phi=0.3)
    fn = harmonic_hamiltonian(sys, RFDrive(omega_1=hz_to_angular(2339.0)))
    step = sys.rotor_period / 64
    edges = np.arange(steps + 1) * step
    generators = fn.step_generators(edges, step)
    # U_{c-1} ... U_1 U_0 after each step count c, one product per step
    serial = list(itertools.accumulate((expm(-1j * m) for m in generators),
                                       lambda u, uk: uk @ u, initial=np.eye(4)))
    # every count; every 37th, which ends runs of 37 steps; the last alone;
    # and count 0, a repeated count and a middle count, unsorted
    for counts in (range(steps + 1), [*range(37, steps, 37), steps], [steps],
                   [steps, -(-steps // 2), 0, 1, 1, -(-steps // 2)]):
        partials = _fold(fn, 0.0, step, counts)
        assert sorted(partials) == sorted(set(counts))
        for c in counts:
            assert np.max(np.abs(partials[c] - serial[c])) < 1e-12, c


def test_non_finite_hamiltonian_is_rejected():
    sys = glycine_system()
    fn = harmonic_hamiltonian(sys)
    bad = HarmonicHamiltonian(fn.coupling, fn.omega_r, fn.phi, math.inf, fn.omega_d2,
                              fn.frame)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="Hamiltonian produced non-finite entries"):
        segment_propagator(bad, 0.0, sys.rotor_period, 64)


def test_extract_gate_memory_does_not_grow_with_segment_length():
    # a fold takes at most half a rotor period of steps, so a long segment
    # holds one half-period batch, far below one (steps, 4, 4) array
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
    # no per-step time grid and one half-period fold: four times the steps
    # leave the peak where it was
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
    # samples every 5.3 rotor periods: marks fall inside the fold
    pytest.param(lambda system, events, steps: run_sequence(
        basis_state("10"), system, events, 5.3 * system.rotor_period,
        steps_per_period=steps), id="run_sequence"),
])
def test_fold_heap_stays_within_three_block_arrays(walk):
    # fig3a folds half a rotor period, ceil(s/2) steps, in one batch, and no
    # more than three complex (ceil(s/2), 4, 4) arrays are alive at a time;
    # the 64 kB of slack holds the walk's small arrays (U, edges, phases,
    # eigenvalues, samples). A broadcast ufunc that casts or writes into a
    # strided output allocates iterator buffers of about a batch each, and
    # breaks the bound.
    system, _, events, steps = build_run(preset_config("fig3a"))
    walk(system, events, steps)  # numpy's one-time allocations are not the fold's
    batch = -(-steps // 2)
    assert _peak_bytes(lambda: walk(system, events, steps)) <= 3 * batch * 256 + 64 * 1024


def test_fold_heap_at_the_step_cap_stays_within_three_batch_arrays():
    # at MAX_STEPS_PER_PERIOD the fig3a fold is 4096 steps, 1 MB a batch array
    cfg = preset_config("fig3a")
    cfg["integrator"] = {"steps_per_period": MAX_STEPS_PER_PERIOD}
    system, _, events, steps = build_run(cfg)
    extract_gate(system, events, steps_per_period=steps)
    peak = _peak_bytes(lambda: extract_gate(system, events, steps_per_period=steps))
    assert peak <= 3 * (MAX_STEPS_PER_PERIOD // 2) * 256 + 64 * 1024


@pytest.mark.parametrize("steps", [-4, 0, 1.5, True, MAX_STEPS_PER_PERIOD + 1])
@pytest.mark.parametrize("walk", [
    lambda system, events, steps: extract_gate(system, events, steps_per_period=steps),
    lambda system, events, steps: run_sequence(basis_state("10"), system, events, T_R,
                                               steps_per_period=steps),
], ids=["extract_gate", "run_sequence"])
def test_walk_rejects_steps_per_period_outside_the_cap(walk, steps):
    # unchecked, -4 folds a wrong gate and 0 divides by zero; neither 1.5
    # nor True is a step count, and 8193 is past the cap
    events = [CWSegment(drive=CW_2339, duration=3e-4)]
    with pytest.raises(ValueError, match="steps_per_period"):
        walk(glycine_system(), events, steps)


@pytest.mark.parametrize("t1, steps, message", [
    (-1e-6, 64, "t1 must be >= t0"),
    (1e-4, 0, "steps must be"),
    (1e-4, MAX_STEPS_PER_PERIOD + 1, "steps must be"),
])
def test_segment_propagator_rejects_bad_bounds(t1, steps, message):
    fn = harmonic_hamiltonian(glycine_system(), CW_2339)
    with pytest.raises(ValueError, match=message):
        segment_propagator(fn, 0.0, t1, steps)


def test_segment_propagator_of_no_time_is_the_identity():
    fn = harmonic_hamiltonian(glycine_system(), CW_2339)
    assert np.array_equal(segment_propagator(fn, 1e-4, 1e-4, 64), np.eye(4))


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
    # single step: the generator's diagonal is integral(D) times the band
    # frame's dipolar diagonal, so entry [2, 2] is exactly a quarter of it
    area = mods[0][2, 2].real / 0.25
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


@pytest.mark.parametrize("make, field", [
    pytest.param(lambda: Delay(math.nan), "duration", id="delay-nan"),
    pytest.param(lambda: Delay(math.inf), "duration", id="delay-inf"),
    pytest.param(lambda: CWSegment(RFDrive(1e4), math.nan), "duration", id="cw-nan"),
    pytest.param(lambda: CWSegment(RFDrive(1e4), -1e-3), "duration", id="cw-negative"),
    pytest.param(lambda: CWSegment(RFDrive(1e4), 1e-3, skip_trim=(7,)), "skip_trim",
                 id="skip-trim-out-of-range"),
    pytest.param(lambda: RFDrive(math.nan), "omega_1", id="amplitude-nan"),
    pytest.param(lambda: RFDrive(math.inf), "omega_1", id="amplitude-inf"),
    pytest.param(lambda: RFDrive(1e4, math.nan), "phase", id="phase-nan"),
    pytest.param(lambda: RFDrive(1e4, -math.inf), "phase", id="phase-inf"),
    pytest.param(lambda: IdealRotation((5,), "x", 1.0), "targets", id="target-out-of-range"),
    pytest.param(lambda: IdealRotation((0,), "x", math.nan), "angle", id="angle-nan"),
    # spin_operator also builds the raising and lowering operators, which are
    # not Hermitian: a rotation about them would not be unitary
    pytest.param(lambda: IdealRotation((0,), "+", 1.0), "axis", id="axis-raising"),
    pytest.param(lambda: IdealRotation((0,), "-", 1.0), "axis", id="axis-lowering"),
    pytest.param(lambda: IdealRotation((0,), "w", 1.0), "axis", id="axis-unknown"),
    # flags are bools: a string, even "no" or "false", is truthy
    pytest.param(lambda: Delay(1e-3, "no"), "dipolar_on", id="dipolar-on-string"),
    pytest.param(lambda: CWSegment(RFDrive(1e4), 1e-3, trim="false"), "trim",
                 id="trim-string"),
    # spin indices are integers in a list or tuple: True and 1.0 equal 1, a
    # bare 0 is no list, and "01" would iterate as its characters
    pytest.param(lambda: IdealRotation((True,), "x", 1.0), "targets", id="target-bool"),
    pytest.param(lambda: IdealRotation((1.0,), "x", 1.0), "targets", id="target-float"),
    pytest.param(lambda: IdealRotation(0, "x", 1.0), "targets", id="targets-int"),
    pytest.param(lambda: IdealRotation("01", "x", 1.0), "targets", id="targets-string"),
    pytest.param(lambda: IdealRotation((), "x", 1.0), "targets", id="targets-empty"),
    pytest.param(lambda: IdealRotation((0, 0), "x", 1.0), "targets", id="targets-repeated"),
    pytest.param(lambda: CWSegment(RFDrive(1e4), 1e-3, skip_trim=(True,)), "skip_trim",
                 id="skip-trim-bool"),
    # a bool is not a number: True would be 1 s, 1 rad/s or 1 rad
    pytest.param(lambda: Delay(True), "duration", id="duration-bool"),
    pytest.param(lambda: RFDrive(True), "omega_1", id="amplitude-bool"),
    pytest.param(lambda: IdealRotation((0,), "x", True), "angle", id="angle-bool"),
])
def test_event_rejects_bad_input_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        make()


def test_numpy_flags_and_indices_give_the_gate_of_python_ones():
    system = glycine_system(phi=0.3)
    drive = RFDrive(omega_1=hz_to_angular(2339.0))

    def walk(true, one):
        return [IdealRotation((one,), "x", np.pi),
                CWSegment(drive, 1.3 * system.rotor_period, trim=true, skip_trim=(one,)),
                Delay(0.4 * system.rotor_period, dipolar_on=true)]

    reference = extract_gate(system, walk(True, 1), steps_per_period=64)
    u = extract_gate(system, walk(np.True_, np.int64(1)), steps_per_period=64)
    assert np.array_equal(u, reference)


def test_extract_gate_reads_an_iterator_of_events_once():
    # the walk and the precession sum both read the events: an iterator
    # spent by the walk left the precession in
    system = glycine_system()
    events = [IdealRotation((0,), "x", np.pi), _cw(3e-3 / system.rotor_period)]
    expected = extract_gate(system, events, steps_per_period=64,
                            remove_effective_precession=True)
    u = extract_gate(system, iter(events), steps_per_period=64,
                     remove_effective_precession=True)
    assert np.array_equal(u, expected)


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

def _scan_sample_steps(ends, due, every, last):
    """Reference for `_sample_steps`: every end of a stored step grid, count
    0 first, tested in turn."""
    marks = []
    for c, end in enumerate(ends):
        if end >= due - 1e-15 and end > last:
            marks.append(c)
            last, due = end, due + every
    return marks, due


# the phase each step of `_EdgeRecorder` adds to entry [0, 0]: 2200 steps
# stay below pi, so a partial product's phase gives its step count
STEP_PHASE = 1e-3


class _EdgeRecorder:
    """A diagonal Hamiltonian that keeps the edges and step of each call
    `_fold` makes. It has no constant form, so `_fold` builds its steps."""

    eigh = None

    def __init__(self):
        self.calls = []

    def step_generators(self, edges, dt):
        self.calls.append((edges.copy(), dt))
        m = np.zeros((len(edges) - 1, 4, 4), dtype=complex)
        m[:, 0, 0] = STEP_PHASE
        return m


T0S = st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 2.0))


@st.composite
def fold_grids(draw):
    """A fold's start, step and step count, from steps that t0 absorbs to
    a hundredth of T_r, and increasing step indices to mark."""
    t0 = draw(T0S)
    step = draw(st.one_of(st.floats(0.0, 0.01).map(lambda periods: periods * T_R),
                          st.integers(40, 60).map(lambda e: t0 * 2.0**-e),
                          st.sampled_from([0.0, 2.2e-210, 5e-324])))
    steps = draw(st.integers(1, 2200))
    marks = sorted(draw(st.sets(st.integers(0, steps - 1), max_size=40)))
    return t0, step, steps, marks


@settings(max_examples=150, deadline=None)
@given(grid=fold_grids())
def test_streamed_grid_matches_the_step_grid(grid):
    t0, step, steps, marks = grid
    edges = np.arange(steps + 1) * step + t0
    recorder = _EdgeRecorder()
    partials = _fold(recorder, t0, step, [k + 1 for k in marks] + [steps])
    # one batch: one call, with every edge of the step grid
    [(batch_edges, dt)] = recorder.calls
    assert batch_edges.tobytes() == edges.tobytes()
    assert dt == step
    # the partial at count c has taken c steps
    assert {c: round(-np.angle(v[0, 0]) / STEP_PHASE) for c, v in partials.items()} == {
        c: c for c in [k + 1 for k in marks] + [steps]}


@st.composite
def segment_grids(draw):
    """A segment's first grid point t0, whole step h and number n of whole
    steps, its end t1 after a closing step of 0 to h (or ending an ulp
    before the whole steps do, as rounding may leave it), and a sampling
    state: the next due time, the interval and the last sample's time."""
    t0 = draw(T0S)
    h = T_R / draw(st.integers(1, 2048))
    n = draw(st.integers(0, 2200))
    t_close = t0 + n * h
    t1 = draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda part: t_close + part * h),
        st.sampled_from([t_close, t_close + (1 - 1e-9) * h, t_close + h,
                         math.nextafter(t_close, -math.inf)])))
    every = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.5).map(lambda p: p * T_R)))
    step_end = st.integers(0, n + 1).map(lambda c: t0 + c * h if c <= n else t1)
    # a last sample an ulp before a step end puts that end on the bound
    last = draw(st.one_of(st.just(t0), st.floats(0.0, t0), step_end,
                          step_end.map(lambda t: math.nextafter(t, math.inf)),
                          step_end.map(lambda t: math.nextafter(t, -math.inf))))
    due = draw(st.one_of(step_end, st.floats(-0.5, 1.5).map(lambda x: t0 + x * (t1 - t0)),
                         st.just(last + every), st.just(math.inf)))
    return t0, t1, h, n, due, every, last


@settings(max_examples=300, deadline=None)
@given(grid=segment_grids())
# a segment too short to advance the clock; one whose closing step ends
# before its last whole step
@example(grid=(T_R, T_R + 2.2e-210, T_R / 16, 0, T_R, 0.0546875 * T_R, T_R))
@example(grid=(0.3, math.nextafter(0.3 + 600 * (T_R / 64), -math.inf), T_R / 64, 600,
               0.3 + 599.5 * (T_R / 64), 0.0, 0.0))
# a closing step that ends an ulp before count 0's end, which is due: a
# bisection over the two ends probes the closing end first and must not pass
# over count 0
@example(grid=(T_R, math.nextafter(T_R, -math.inf), T_R / 16, 0, 0.0, 0.0,
               math.nextafter(T_R, -math.inf)))
# a segment with a leading step, from 0.3 - 0.7 h to g0 = 0.3, whose end
# is due: one search takes it as count 0, then whole steps and the close
@example(grid=(0.3, 0.3 + 10.5 * (T_R / 64), T_R / 64, 10, 0.3 - 0.2 * (T_R / 64),
               4 * (T_R / 64), 0.3 - 0.7 * (T_R / 64)))
# a bound on a step end, where an estimate (x - t0) / h would round up to
# the next step
@example(grid=(0.038048122245628785, 0.038048122245628785 + 386 * (T_R / 860), T_R / 860,
               385, 0.0, 0.0,
               math.nextafter(0.038048122245628785 + 250 * (T_R / 860), -math.inf)))
def test_sample_steps_match_a_scan_of_the_step_ends(grid):
    g0, t, h, n, *state = grid
    assert _sample_steps(*grid) == _scan_sample_steps(
        [g0, *(np.arange(1, n + 1) * h + g0), t], *state)


# ------------------------------------- the singlet-triplet band frame

class LabHamiltonian:
    """The reference for `_segment_hamiltonian`: the same segment in the
    product basis, with the identity frame. Its step generators are the full
    4x4 matrices area H_dip + dt H_static - i/2 K [H_static, H_dip]."""

    frame = np.eye(4, dtype=complex)

    def __init__(self, system, drive, constants, dipolar_on=True):
        self.h_static = static_drive_hamiltonian(system, drive)
        self.h_dip = dipolar_coupling_operator()
        self.comm = self.h_static @ self.h_dip - self.h_dip @ self.h_static
        self.omega_r, self.phi = system.omega_r, system.phi
        self.omega_d1 = constants.omega_d1 if dipolar_on else 0.0
        self.omega_d2 = constants.omega_d2 if dipolar_on else 0.0

    def step_generators(self, edges, dt):
        arg = self.omega_r * edges + self.phi
        wr, d1, d2 = self.omega_r, self.omega_d1, self.omega_d2
        # the antiderivatives of D(t), of that and of t D(t)
        p = d1 / wr * np.sin(arg) + d2 / (2.0 * wr) * np.sin(2.0 * arg)
        q = -d1 / wr**2 * np.cos(arg) - d2 / (4.0 * wr**2) * np.cos(2.0 * arg)
        r = (d1 * (edges * np.sin(arg) / wr + np.cos(arg) / wr**2)
             + d2 * (edges * np.sin(2.0 * arg) / (2.0 * wr) + np.cos(2.0 * arg) / (4.0 * wr**2)))
        area = np.diff(p)
        k = (np.diff(q) - p[:-1] * dt) - (np.diff(r) - edges[:-1] * area)
        return (area[:, None, None] * self.h_dip + dt * self.h_static
                - 0.5j * k[:, None, None] * self.comm)


def lab_unitaries(fn, edges, dt):
    """exp(-i M_k) of fn's steps between consecutive edges, each dt long,
    by the complex Hermitian solver."""
    evals, evecs = np.linalg.eigh(fn.step_generators(edges, dt))
    return (evecs * np.exp(-1j * evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)


def reference_propagator(fn, t0, t1, steps):
    """The reference for `segment_propagator`: the np.linspace grid, one
    product per step."""
    return functools.reduce(lambda u, uk: uk @ u,
                            lab_unitaries(fn, np.linspace(t0, t1, steps + 1),
                                          (t1 - t0) / steps),
                            np.eye(4, dtype=complex))


OFFSETS_HZ = st.floats(-3e4, 3e4)


@st.composite
def pair_segments(draw):
    """A pair segment: offsets equal, opposite, one zero or free, a drive
    from 0 with any phase or none (a delay), the dipolar term on or off, an
    odd start time and a step count from 1 to 700."""
    first = draw(st.one_of(st.just(0.0), OFFSETS_HZ))
    second = draw(st.one_of(st.just(first), st.just(-first), st.just(0.0), OFFSETS_HZ))
    system = SpinSystem(
        gamma=GAMMA_C13, r=draw(st.floats(1.2e-10, 3e-10)),
        theta_d=draw(st.floats(0.0, np.pi)), phi=draw(st.floats(0.0, TWO_PI)),
        omega_r=hz_to_angular(draw(st.floats(2e3, 3e4))),
        offsets=(hz_to_angular(first), hz_to_angular(second)))
    drive = draw(st.one_of(st.none(), st.builds(
        RFDrive, st.one_of(st.just(0.0), st.floats(0.0, 2e4)).map(hz_to_angular),
        st.floats(-np.pi, np.pi))))
    t0 = draw(st.floats(0.0, 2.0)) * system.rotor_period
    t1 = t0 + draw(st.floats(0.01, 2.0)) * system.rotor_period
    return system, drive, draw(st.booleans()), t0, t1, draw(st.integers(1, 700))


def _band_segment(segment):
    system, drive, dipolar_on, t0, t1, steps = segment
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    return (_segment_hamiltonian(system, drive, constants, dipolar_on),
            LabHamiltonian(system, drive, constants, dipolar_on), t0, t1, steps)


SUBNORMAL_DRIVE = (glycine_system(), RFDrive(omega_1=1e-310, phase=0.7), True,
                   0.3 * T_R, 1.7 * T_R, 600)
# every generator entry subnormal (largest 7e-312), where one rounding is
# already above 1e-12 relative: band and lab generators differ by 1e-323
SUBNORMAL_GENERATORS = (glycine_system(offsets=(0.0, 0.0)),
                        RFDrive(omega_1=6.99e-308, phase=0.0), False, 0.0, 0.5e-3, 5)


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
    if fn.eigh is None:
        assert sum(len(a) for a in decomposed) == steps
    else:
        # D(t) = 0: one symmetric 4x4 matrix, the constant H = tridiag(c),
        # serves every step
        [a] = decomposed
        assert a.shape == (4, 4) and np.array_equal(a, a.T)
        decomposed = [a[None]]
    off_band = abs(np.subtract.outer(np.arange(4), np.arange(4))) > 1
    for a in decomposed:
        assert a.dtype == np.float64
        assert np.all(a[:, off_band] == 0)
        assert np.all(a[:, [1, 2, 3], [0, 1, 2]].imag == 0)
        assert np.all(a[:, [0, 1, 2], [1, 2, 3]].imag == 0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-11


@settings(max_examples=40, deadline=None)
@given(segment=pair_segments())
@example(segment=SUBNORMAL_DRIVE)
@example(segment=SUBNORMAL_GENERATORS)
def test_band_generators_are_lab_generators_in_the_frame(segment):
    fn, lab, t0, t1, steps = _band_segment(segment)
    edges = np.linspace(t0, t1, steps + 1)
    dt = (t1 - t0) / steps
    q = fn.frame
    expected = q.conj().T @ lab.step_generators(edges, dt) @ q
    band = fn.step_generators(edges, dt)
    assert np.max(np.abs(band - expected)) <= (
        1e-12 * np.max(np.abs(expected)) + 4 * np.finfo(float).smallest_subnormal)


@settings(max_examples=40, deadline=None)
@given(segment=pair_segments())
@example(segment=SUBNORMAL_DRIVE)
def test_band_frame_propagator_matches_lab_frame(segment):
    fn, lab, t0, t1, steps = _band_segment(segment)
    u_lab = reference_propagator(lab, t0, t1, steps)
    assert np.max(np.abs(segment_propagator(fn, t0, t1, steps) - u_lab)) < 1e-10


def reference_walk(system, events, steps_per_period, sample_every):
    """The reference for `_propagate`: each segment's step grid walked one
    step at a time, with no period reuse and no mirror. The whole steps of h
    = T_r / steps_per_period lie on the grid t_a + j h, t_a = -(phi mod 2
    pi) / omega_r, where the rotor phase is 0: a segment from t0 to t1 has
    the edges [t0, g0, g0 + h, ..., g0 + n h, t1], g0 being the first grid
    point after t0 (or t0 itself, if it is on the grid or no grid point
    lies inside). Every step is exponentiated in
    the product basis by the complex Hermitian solver and multiplied in,
    and a sample is taken at the first step end at or after each due time
    (less 1e-15 s) that is past the sample before it."""
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    eye = np.eye(4, dtype=complex)
    h = system.rotor_period / steps_per_period
    t_a = -(system.phi % math.tau) / system.omega_r
    u, samples, t, due = eye, [], 0.0, sample_every
    for event in events:
        if isinstance(event, IdealRotation):
            u = rotation_unitary(event.targets, event.axis, event.angle) @ u
            continue
        if isinstance(event, Delay):
            u_open = u_close = eye
            lab = LabHamiltonian(system, None, constants, event.dipolar_on)
        else:
            u_open, u_close = trim_unitaries(system, event)
            lab = LabHamiltonian(system, event.drive, constants)
        if not samples:
            samples.append((t, u))
        if event.duration == 0.0:
            continue
        t0, t = t, t + event.duration
        g0 = t_a + math.ceil((t0 - t_a) / h) * h
        g0 = g0 if t0 < g0 < t else t0
        n = max(1, math.ceil((t - g0) / system.rotor_period * steps_per_period)) - 1
        edges = np.arange(n + 1) * h + g0
        lead = int(g0 > t0)  # a leading step from t0 to g0, or none
        steps = [*lab_unitaries(lab, np.array([t0, g0]), g0 - t0)[:lead],
                 *lab_unitaries(lab, edges, h),
                 *lab_unitaries(lab, np.array([edges[-1], t]), t - edges[-1])]
        ends = [g0][:lead] + [*edges[1:], t]
        u = u_open @ u
        for uk, end in zip(steps, ends):
            u = uk @ u
            if end >= due - 1e-15 and end > samples[-1][0]:
                samples.append((float(end), u_close @ u))
                due += sample_every
        u = u_close @ u
    if samples and samples[-1][0] >= t:
        t = samples.pop()[0]
    samples.append((t, u))
    return u, samples


def _lab_frame_walk(run):
    """run() with the walk replaced by the per-step reference."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(propagator, "_propagate", reference_walk)
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


@st.composite
def lab_walks(draw):
    """phi, up to five events, a sampling interval that rarely divides T_r
    and a step count per period that is rarely a power of two. Segments
    start at odd times after the ones before them, and run for under a
    period up to several, a whole number of periods, or a whole number of
    steps less a little, which leaves a closing step of nearly h."""
    steps_per_period = draw(st.integers(1, 100))
    h = T_R / steps_per_period
    durations = st.one_of(
        st.floats(0.0, 3.5).map(lambda periods: periods * T_R),
        st.integers(1, 3).map(lambda periods: periods * T_R),
        st.integers(1, 3 * steps_per_period).map(lambda steps: (steps - 1e-6) * h))
    timed = st.one_of(
        st.builds(Delay, duration=durations, dipolar_on=st.booleans()),
        st.builds(CWSegment, drive=DRIVES, duration=durations, trim=st.booleans(),
                  skip_trim=st.lists(st.sampled_from((0, 1)), max_size=2)))
    return (draw(st.floats(0.0, TWO_PI)), draw(st.lists(st.one_of(PULSES, timed), max_size=5)),
            draw(st.floats(0.05, 1.5)) * T_R, steps_per_period)


CW_2339 = RFDrive(hz_to_angular(2339.0), 0.9)


@settings(max_examples=30, deadline=None)
@given(walk=lab_walks())
# odd start times and a sampling interval that does not divide T_r
@example(walk=(1.3, [Delay(0.37 * T_R, dipolar_on=False), CWSegment(CW_2339, 1.1 * T_R),
                     Delay(0.8 * T_R)], 0.31 * T_R, 64))
# whole periods sampled once a period, at 48 steps per period
@example(walk=(0.7, [CWSegment(CW_2339, 3 * T_R)], T_R, 48))
# a segment under a period and one of several, sampled off the period
@example(walk=(2.1, [IdealRotation((0,), "x", np.pi), CWSegment(CW_2339, 0.4 * T_R),
                     CWSegment(CW_2339, 3.3 * T_R, trim=False)], 1.3 * T_R, 100))
# 36 whole steps and a closing step of nearly h, sampled every step
@example(walk=(0.2, [Delay(0.1 * T_R), CWSegment(CW_2339, (37 - 1e-6) * T_R / 24)],
               0.5 * T_R / 24, 24))
# a sample falls due inside a leading step, 0.37 to 0.37125 T_r, and lands
# at its end, the first grid point
@example(walk=(1.3, [Delay(0.37 * T_R), CWSegment(CW_2339, 3.3 * T_R)], 0.3705 * T_R, 64))
def test_walk_matches_lab_frame_walk(walk):
    phi, events, sample_every, steps_per_period = walk
    assert_walk_matches_lab_frame(glycine_system(phi=phi), events, sample_every,
                                  steps_per_period)


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


def _eigh_matrices(run):
    """run() and the number of matrices it hands eigh."""
    matrices = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        matrices.append(len(a) if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        result = run()
    return result, sum(matrices)


def test_fig3a_makes_the_pinned_eigh_matrices(tmp_path):
    # fig3a's CW segment of 51,761 steps (50 periods and 561 steps at 1024
    # per period) starts at t = 0 with phi = 0, on the grid, so it takes no
    # leading step; it folds half a period, 1024 / 2 = 512 steps, and then
    # takes one closing step: 512 + 1 = 513, and no eigendecomposition
    # builds the band frame
    assert _eigh_matrices(lambda: cli_main(["repro", "fig3a", "--out", str(tmp_path)])) == (
        0, 513)


def test_eigh_matrices_do_not_grow_with_segment_length():
    # a segment of 10 rotor periods and one of 40 both take one leading step
    # (phi = 0.3 puts t = 0 off the grid, 0.3 / 2 pi * 1024 = 48.9 steps past
    # rotor phase 0), fold half a period, 1024 / 2 = 512 steps, and take one
    # closing step: 1 + 512 + 1 = 514
    system = glycine_system(phi=0.3)
    drive = RFDrive(omega_1=hz_to_angular(2339.0))
    for periods in (10, 40):
        seg = CWSegment(drive=drive, duration=periods * T_R)
        _, matrices = _eigh_matrices(lambda: extract_gate(system, [seg], steps_per_period=1024))
        assert matrices == 1 + 512 + 1, periods


@st.composite
def period_folds(draw):
    """A pair segment's Hamiltonian and steps per period: 1, 2, 3, odd or even."""
    system, drive, dipolar_on, *_ = draw(pair_segments())
    steps = draw(st.one_of(st.sampled_from((1, 2, 3)),
                           st.integers(2, 600).map(lambda k: 2 * k + 1),
                           st.integers(2, 600).map(lambda k: 2 * k)))
    return harmonic_hamiltonian(system, drive, dipolar_on), steps


@settings(max_examples=40, deadline=None)
@given(fold=period_folds())
def test_half_period_fold_matches_a_full_period_fold(fold):
    # from rotor phase 0, the steps of the second half period mirror those of
    # the first: U_T and every P(r) follow from ceil(s/2) folded steps
    fn, steps = fold
    t_a, h = -fn.phi / fn.omega_r, TWO_PI / fn.omega_r / steps
    u_period, partial = _period_partials(_step_unitaries(fn, t_a, h, -(-steps // 2)), steps,
                                         set(range(steps)))
    full = _fold(fn, t_a, h, range(steps + 1))
    assert np.max(np.abs(u_period - full[steps])) < 1e-12
    for r in range(steps):
        assert np.max(np.abs(partial[r] - full[r])) < 1e-12, r


@settings(max_examples=40, deadline=None)
@given(phi=st.floats(0.0, TWO_PI), steps_per_period=st.integers(1, 100),
       part=st.floats(0.0, 1.0), rest=st.floats(0.0, 1.0, exclude_max=True))
def test_short_segment_makes_at_most_two_more_eigh_matrices(phi, steps_per_period, part,
                                                            rest):
    # n <= ceil(s/2) whole steps are folded as they are, with at most a
    # leading and a closing step around them: at most n + 2 matrices
    whole = math.floor(part * -(-steps_per_period // 2))
    seg = CWSegment(drive=CW_2339, duration=(whole + rest) * T_R / steps_per_period)
    _, matrices = _eigh_matrices(lambda: extract_gate(
        glycine_system(phi=phi), [seg], steps_per_period=steps_per_period))
    assert matrices <= whole + 2


# ------------------------------- constant segments and one fold per Hamiltonian

SMALL_HZ = st.floats(-500.0, 500.0)


@settings(max_examples=40, deadline=None)
@given(offsets=st.tuples(SMALL_HZ, SMALL_HZ), amplitude=SMALL_HZ.map(abs),
       phase=st.floats(-np.pi, np.pi), phi=st.floats(0.0, TWO_PI),
       part=st.floats(0.0, 1.0), along_axis=st.booleans())
def test_constant_segments_are_exact_at_any_length(offsets, amplitude, phase, phi, part,
                                                   along_axis):
    # a dipolar-off delay, or an untrimmed CW segment of a pair along the
    # spinning axis (theta_D = 0, so D(t) = 0), is exp(-i H T) in closed form:
    # its error stays at the rounding of the phases lambda T (here at most
    # about 600 rad) from a fraction of T_r up to 10^3 T_r, where the
    # period power of the stepped fold erred by 3e-10, and costs one eigh
    system = SpinSystem(gamma=GAMMA_C13, r=GLYCINE_CC_DISTANCE,
                        theta_d=0.0 if along_axis else deg_to_rad(64.0), phi=phi,
                        omega_r=TWO_PI * 7884.0, offsets=tuple(map(hz_to_angular, offsets)))
    drive = RFDrive(hz_to_angular(amplitude), phase) if along_axis else None
    evals, vecs = np.linalg.eigh(static_drive_hamiltonian(system, drive))
    for periods in (part, 10 + part, 999 + part):
        duration = periods * system.rotor_period
        event = (CWSegment(drive, duration, trim=False) if along_axis
                 else Delay(duration, dipolar_on=False))
        u, matrices = _eigh_matrices(lambda: extract_gate(system, [event]))
        exact = (vecs * np.exp(-1j * evals * duration)) @ vecs.conj().T
        assert np.max(np.abs(u - exact)) < 1e-12, periods
        assert matrices == (duration > 0), periods


def test_non_finite_constant_hamiltonian_is_rejected():
    fn = harmonic_hamiltonian(glycine_system(), dipolar_on=False)
    bad = HarmonicHamiltonian((math.nan, 0.0, 1.0), fn.omega_r, fn.phi, 0.0, 0.0, fn.frame)
    with pytest.raises(ValueError, match="Hamiltonian produced non-finite entries"):
        segment_propagator(bad, 0.0, T_R, 64)


def _alternating_walk(periods):
    """CW, a dipolar-on delay, a pulse, CW at another phase, a dipolar-on
    delay and CW: two Hamiltonians, each in segments of `periods` T_r."""
    return [CWSegment(CW_2339, periods * T_R), Delay(periods * T_R),
            IdealRotation((0,), "x", np.pi), CWSegment(RFDrive(CW_2339.omega_1, -2.0),
                                                       periods * T_R),
            Delay(periods * T_R), CWSegment(CW_2339, periods * T_R)]


def test_each_hamiltonian_folds_one_half_period_per_walk():
    # phi = 0.3 puts t = 0 48.89 steps past rotor phase 0, and segments of
    # 10.37 T_r start 10,618.88 steps apart, so none starts on the grid: each
    # of the five segments takes a leading and a closing step, and each of
    # the two Hamiltonians folds 1024 / 2 = 512 steps once: 2 * 512 + 5 + 5
    _, matrices = _eigh_matrices(lambda: extract_gate(
        glycine_system(phi=0.3), _alternating_walk(10.37), steps_per_period=1024))
    assert matrices == 2 * 512 + 5 + 5


@pytest.mark.parametrize("events, kept", [
    pytest.param(_alternating_walk(3.3), 2, id="two-alternating"),
    pytest.param([CWSegment(RFDrive(hz_to_angular(amplitude)), 3.3 * T_R)
                  for amplitude in (1e3, 2e3, 3e3)], 0, id="each-once"),
])
@pytest.mark.parametrize("walk", [
    pytest.param(lambda system, events, steps: extract_gate(system, events,
                                                            steps_per_period=steps),
                 id="extract_gate"),
    pytest.param(lambda system, events, steps: run_sequence(
        basis_state("10"), system, events, 5.3 * system.rotor_period,
        steps_per_period=steps), id="run_sequence"),
])
def test_walk_keeps_a_batch_only_for_a_later_segment(walk, events, kept):
    # the walk keeps a Hamiltonian's half-period batch while a later segment
    # has that Hamiltonian, and lets it go at its last: the alternating walk
    # keeps two, a walk of three drives used once each none; a fold has at
    # most three batch arrays alive besides, and the 64 kB of slack holds
    # the small arrays
    system, steps = glycine_system(phi=0.3), 1024
    walk(system, events, steps)
    batch = -(-steps // 2) * 256
    assert _peak_bytes(lambda: walk(system, events, steps)) <= (
        kept * batch + 3 * batch + 64 * 1024)


@st.composite
def repeated_walks(draw):
    """phi, up to six events whose segments repeat two drive amplitudes (at
    any phase) and the two delays, a sampling interval and a step count per
    period. Most segments run past half a period, so they fold through the
    half-period batch their Hamiltonian shares."""
    steps_per_period = draw(st.integers(1, 64))
    amplitudes = draw(st.lists(st.floats(0.0, 1e4).map(hz_to_angular), min_size=2,
                               max_size=2))
    durations = st.floats(0.0, 3.5).map(lambda periods: periods * T_R)
    timed = st.one_of(
        st.builds(Delay, duration=durations, dipolar_on=st.booleans()),
        st.builds(CWSegment, drive=st.builds(RFDrive, st.sampled_from(amplitudes),
                                             st.floats(-np.pi, np.pi)),
                  duration=durations, trim=st.booleans()))
    return (draw(st.floats(0.0, TWO_PI)), draw(st.lists(st.one_of(PULSES, timed), max_size=6)),
            draw(st.floats(0.05, 1.5)) * T_R, steps_per_period)


@settings(max_examples=30, deadline=None)
@given(walk=repeated_walks())
# the drive twice at two phases, around a dipolar-on delay, then that delay again
@example(walk=(1.3, [CWSegment(CW_2339, 2.3 * T_R), Delay(1.1 * T_R),
                     CWSegment(RFDrive(CW_2339.omega_1, -1.0), 3.2 * T_R),
                     Delay(0.8 * T_R)], 0.31 * T_R, 48))
def test_repeated_hamiltonian_walk_matches_lab_frame_walk(walk):
    phi, events, sample_every, steps_per_period = walk
    assert_walk_matches_lab_frame(glycine_system(phi=phi), events, sample_every,
                                  steps_per_period)
