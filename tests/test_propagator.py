import dataclasses
import functools
import itertools
import math
import sys
import time
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
from r2tr.propagator import (MAX_SAMPLES, MAX_STEPS_PER_PERIOD, CWSegment, Delay,
                             HarmonicHamiltonian, IdealRotation, RFDrive, Trajectory, _floquet,
                             _partials, _period_partials, _sample_steps, _segment_hamiltonian,
                             _step_unitaries, extract_gate, rotation_unitary, run_sequence,
                             segment_propagator, trim_unitaries)
from r2tr.readout import simulate_fid
from r2tr.units import (GAMMA_C13, GLYCINE_CC_DISTANCE, TWO_PI, FieldError, deg_to_rad,
                        hz_to_angular)


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
    batch = _step_unitaries(fn, [(0.0, step, steps)])
    # every count; every 37th, which ends runs of 37 steps; the last alone;
    # and count 0, a repeated count and a middle count, unsorted
    for counts in (range(steps + 1), [*range(37, steps, 37), steps], [steps],
                   [steps, -(-steps // 2), 0, 1, 1, -(-steps // 2)]):
        partials = _partials(batch, counts)
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
    # unchecked, a NaN or inf bound warned and then named neither bound, True
    # was taken as 1 s and an integer past the float range overflowed
    pytest.param(math.nan, 64, "^t1 must be finite", id="t1-nan"),
    pytest.param(math.inf, 64, "^t1 must be finite", id="t1-inf"),
    pytest.param(True, 64, "^t1 must be finite", id="t1-bool"),
    pytest.param(10**400, 64, "^t1 must be finite", id="t1-huge-int"),
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
    # an integer past the digits Python prints fails in a message's repr
    pytest.param(lambda: IdealRotation((10**5000,), "x", 1.0), "targets",
                 id="target-unprintable"),
    pytest.param(lambda: Delay(1e-3, dipolar_on=10**5000), "dipolar_on",
                 id="dipolar-on-unprintable"),
    pytest.param(lambda: IdealRotation((0,), 10**5000, 1.0), "axis", id="axis-unprintable"),
    # a bool is not a number: True would be 1 s, 1 rad/s or 1 rad
    pytest.param(lambda: Delay(True), "duration", id="duration-bool"),
    pytest.param(lambda: RFDrive(True), "omega_1", id="amplitude-bool"),
    pytest.param(lambda: IdealRotation((0,), "x", True), "angle", id="angle-bool"),
    # nor is a string, though float() would read it as one
    pytest.param(lambda: Delay("1e-3"), "duration", id="duration-string"),
    pytest.param(lambda: CWSegment(RFDrive(1e4), "1e-3"), "duration", id="cw-duration-string"),
    pytest.param(lambda: RFDrive("1"), "omega_1", id="amplitude-string"),
    pytest.param(lambda: RFDrive(1e4, "0"), "phase", id="phase-string"),
    pytest.param(lambda: IdealRotation((0,), "x", "3.14"), "angle", id="angle-string"),
    # the sampling entry point: a NaN or negative interval sampled every step
    pytest.param(lambda: _sampled(sample_every=math.nan), "sample_every",
                 id="sample-every-nan"),
    pytest.param(lambda: _sampled(sample_every=-1.0), "sample_every",
                 id="sample-every-negative"),
    pytest.param(lambda: _sampled(sample_every=True), "sample_every", id="sample-every-bool"),
    pytest.param(lambda: _sampled(sample_every="1e-4"), "sample_every",
                 id="sample-every-string"),
    # an unchecked initial state gave a NaN trajectory or a numpy shape error
    pytest.param(lambda: _sampled(initial=np.full((4, 4), math.nan)), "initial",
                 id="initial-nan"),
    pytest.param(lambda: _sampled(initial=np.eye(3) / 3), "initial", id="initial-3x3"),
    pytest.param(lambda: _sampled(initial=np.eye(4)), "initial", id="initial-trace-4"),
    pytest.param(lambda: _sampled(initial=np.diag([1.5, -0.5, 0.0, 0.0])), "initial",
                 id="initial-negative-population"),
    pytest.param(lambda: _sampled(initial="00"), "initial", id="initial-label"),
])
def test_event_rejects_bad_input_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        make()


def _sampled(initial=basis_state("00"), sample_every=1e-4):
    """run_sequence over two rotor periods of CW, at 16 steps per period."""
    system = glycine_system()
    events = [CWSegment(RFDrive(hz_to_angular(2339.0)), 2 * system.rotor_period)]
    return run_sequence(initial, system, events, sample_every, steps_per_period=16)


# no finite real number: an integer past the float range, and one past the
# digits Python prints, included
NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, np.True_, "1", None, [1.0],
               10**400, -10**400, 10**5000]


def _finite_negative(value):
    """Whether value is a negative int or float in the float range: legal
    where a parameter has no bound."""
    return type(value) in (int, float) and -sys.float_info.max <= value < 0


def _bounded(value):
    """No value is legal: every drawn value is bad where the bound is 0 or more."""
    return False


def _each_not_number(test):
    """test, with every value of NOT_NUMBERS as an explicit example."""
    for value in NOT_NUMBERS:
        test = example(value=value)(test)
    return test


# each entry point's numeric parameters: (parameter, which drawn values are
# legal for it, a call that passes the value to it and valid values to the rest)
NUMBER_PARAMETERS = [
    ("duration", _bounded, lambda v: Delay(v)),
    ("duration", _bounded, lambda v: CWSegment(CW_2339, v)),
    ("angle", _finite_negative, lambda v: IdealRotation((0,), "x", v)),
    ("omega_1", _bounded, lambda v: RFDrive(v)),
    ("phase", _finite_negative, lambda v: RFDrive(1e4, v)),
    *[(field, _bounded if field in ("r", "omega_r") else _finite_negative,
       lambda v, field=field: dataclasses.replace(glycine_system(), **{field: v}))
      for field in ("gamma", "r", "theta_d", "phi", "omega_r", "offsets")],
    ("offsets", _finite_negative,
     lambda v: dataclasses.replace(glycine_system(), offsets=(0.0, v))),
    # inf samples the ends only
    ("sample_every", lambda v: v == math.inf, lambda v: _sampled(sample_every=v)),
    ("duration", _bounded, lambda v: simulate_fid(basis_state("00"), glycine_system(), v, 1e-5)),
    ("dwell", _bounded, lambda v: simulate_fid(basis_state("00"), glycine_system(), 1e-3, v)),
    ("t0", _finite_negative, lambda v: segment_propagator(
        harmonic_hamiltonian(glycine_system(), CW_2339), v, 1e-4, 64)),
    ("t1", _finite_negative, lambda v: segment_propagator(
        harmonic_hamiltonian(glycine_system(), CW_2339), 0.0, v, 64)),
    ("steps_per_period", _bounded, lambda v: extract_gate(
        glycine_system(), [CWSegment(CW_2339, 1e-4)], steps_per_period=v)),
    # past readout.MAX_FID_POINTS whatever is drawn: the point count of 1e600
    # overflowed to a bare OverflowError
    ("duration", _bounded, lambda v: simulate_fid(basis_state("00"), glycine_system(),
                                                  1e300, 1e-300)),
]


@pytest.mark.parametrize("field, legal, call", NUMBER_PARAMETERS,
                         ids=[f"{field}-{k}" for k, (field, *_) in enumerate(NUMBER_PARAMETERS)])
@settings(max_examples=20, deadline=None)
@given(value=st.one_of(st.sampled_from(NOT_NUMBERS),
                       st.floats(max_value=0.0, exclude_max=True), st.integers(max_value=-1)))
@_each_not_number
def test_entry_points_reject_a_bad_number_naming_the_parameter(field, legal, call, value):
    # an integer past the float range raised a bare OverflowError, and one
    # past the digits Python prints failed in the message itself
    if legal(value):
        return
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{field} "):
        call(value)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("sample_every, samples", [(0.0, 33), (math.inf, 2)])
def test_sample_every_zero_takes_every_step_end_and_inf_the_ends(sample_every, samples):
    # two periods of 16 steps from the grid: 31 whole steps and a closing
    # step, whose 32 ends follow the sample at t = 0
    traj = _sampled(sample_every=sample_every)
    assert len(traj.times) == samples
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2 * glycine_system().rotor_period, rel=1e-12)


def test_plan_takes_the_most_samples_and_rejects_one_more():
    # from t = 0 on the grid (phi = 0), sample_every = 0 samples t = 0 and
    # the ends of the n whole steps and of the closing step: n + 2 samples
    def plan(steps):
        events = [CWSegment(CW_2339, steps * T_R / 16)]
        return propagator._Plan(glycine_system(), events, 16, 0.0)

    assert plan(MAX_SAMPLES - 1.5).samples == MAX_SAMPLES  # n = MAX_SAMPLES - 2
    with pytest.raises(ValueError, match="^sample_every "):
        plan(MAX_SAMPLES - 0.5)


def test_too_many_samples_fail_before_any_step_is_exponentiated():
    # sample_every = 0 on 10^4 rotor periods would take 10^7 samples: the
    # plan stops counting past MAX_SAMPLES, and no step exponential or eigh
    # is called
    events = [CWSegment(CW_2339, 1e4 * T_R)]
    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as monkeypatch, pytest.raises(
            ValueError, match=f"^sample_every = 0.0 s takes more than {MAX_SAMPLES} samples"
    ) as exc:
        monkeypatch.setattr(propagator, "_exp_minus_i", None)
        monkeypatch.setattr(np.linalg, "eigh", None)
        run_sequence(basis_state("00"), glycine_system(), events, 0.0)
    assert exc.value.field == "sample_every"  # what the CLI reads, not the message
    assert time.perf_counter() - start < 5.0


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


def test_whole_float_steps_per_period_gives_the_gate_of_an_int():
    # a config's 64.0 is 64 steps, and so is a library caller's
    system = glycine_system(phi=0.3)
    events = [CWSegment(CW_2339, 1.3 * system.rotor_period), Delay(0.4 * system.rotor_period)]
    assert np.array_equal(extract_gate(system, events, steps_per_period=64.0),
                          extract_gate(system, events, steps_per_period=64))


@pytest.mark.parametrize("make, field", [
    pytest.param(lambda: Delay(1e-3, dipolar_on=1), "dipolar_on", id="dipolar-on-int"),
    pytest.param(lambda: CWSegment(CW_2339, 1e-3, trim="yes"), "trim", id="trim-string"),
    pytest.param(lambda: CWSegment(CW_2339, 1e-3, skip_trim=(2,)), "skip_trim",
                 id="skip-trim-out-of-range"),
    pytest.param(lambda: CWSegment(CW_2339, 1e-3, skip_trim=1), "skip_trim",
                 id="skip-trim-not-a-list"),
    pytest.param(lambda: IdealRotation((np.True_,), "x", 1.0), "targets",
                 id="target-numpy-bool"),
    pytest.param(lambda: IdealRotation((0,), "+", 1.0), "axis", id="axis-not-hermitian"),
    pytest.param(lambda: spin_operator(0, "w"), "axis", id="spin-operator-axis"),
    pytest.param(lambda: basis_state(0), "label", id="label-int"),
    pytest.param(lambda: extract_gate(glycine_system(), [], steps_per_period=64.5),
                 "steps_per_period", id="steps-fraction"),
    pytest.param(lambda: extract_gate(glycine_system(), [], steps_per_period=np.True_),
                 "steps_per_period", id="steps-numpy-bool"),
])
def test_shared_rules_raise_a_field_error_naming_the_parameter(make, field):
    # the library's flags, spin indices, axes and step counts go through the
    # rules a config's do: a FieldError whose `field` names the parameter
    with pytest.raises(FieldError, match=f"^{field} ") as exc:
        make()
    assert exc.value.field == field


def test_numpy_durations_give_the_gate_of_python_floats():
    # numpy floats compare to numpy bools, which the plan's list of a
    # segment's edge steps cannot be scaled by
    system = glycine_system(phi=0.3)

    def walk(to_time):
        return [CWSegment(CW_2339, to_time(0.3 * T_R)), Delay(to_time(2.3 * T_R)),
                CWSegment(CW_2339, to_time(1.3 * T_R))]

    reference = extract_gate(system, walk(float), steps_per_period=64)
    assert np.array_equal(extract_gate(system, walk(np.float64), steps_per_period=64),
                          reference)


def test_extract_gate_reads_an_iterator_of_events_once():
    # the walk reads the events once, so an iterator gives the gate of a list
    system = glycine_system()
    events = [IdealRotation((0,), "x", np.pi), _cw(3e-3 / system.rotor_period)]
    expected = extract_gate(system, events, steps_per_period=64)
    u = extract_gate(system, iter(events), steps_per_period=64)
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


@st.composite
def mixed_states(draw):
    """A random mixed state: A A^dag + 1/10, of unit trace, Hermitian by
    construction and positive definite."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    a = np.array(parts[:16]).reshape(4, 4) + 1j * np.array(parts[16:]).reshape(4, 4)
    rho = a @ a.conj().T + 0.1 * np.eye(4)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


@settings(max_examples=30, deadline=None)
@given(system=st.builds(
           SpinSystem, gamma=st.just(GAMMA_C13),
           r=st.floats(1.2, 3.0).map(lambda angstrom: angstrom * 1e-10),
           theta_d=st.floats(0.0, np.pi), phi=st.floats(0.0, TWO_PI),
           omega_r=st.floats(5e3, 15e3).map(hz_to_angular),
           offsets=st.tuples(*2 * [st.floats(-2e4, 2e4).map(hz_to_angular)])),
       events=st.lists(st.one_of(PULSES, TIMED), max_size=5),
       sample_periods=st.floats(0.0, 1.5), rho=mixed_states())
def test_sampled_populations_match_the_trace_of_each_state(system, events, sample_periods,
                                                           rho):
    # the batched contraction against <I_z> = tr(V rho V^dag I_z) at each
    # of the walk's own samples
    sample_every = sample_periods * T_R
    _, samples, _, _ = propagator._propagate(system, events, 16, sample_every)
    traj = run_sequence(rho, system, events, sample_every, steps_per_period=16)
    assert traj.times.tobytes() == np.array([t for t, _ in samples]).tobytes()
    for (_, v), iz, sz in zip(samples, traj.iz, traj.sz, strict=True):
        state = v @ rho @ v.conj().T
        assert abs(np.trace(state @ spin_operator(0, "z")).real - iz) <= 1e-15
        assert abs(np.trace(state @ spin_operator(1, "z")).real - sz) <= 1e-15


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
    `_step_unitaries` makes."""

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
    partials = _partials(_step_unitaries(recorder, [(t0, step, steps)]),
                         [k + 1 for k in marks] + [steps])
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


def _recorded(run, record):
    """run(), and record(a) of each array it hands the step exponential
    `_exp_minus_i` and of each it hands eigh, as two lists."""
    exponentiated, decomposed = [], []
    exp_minus_i, eigh = propagator._exp_minus_i, np.linalg.eigh

    def recording_exp(m):
        exponentiated.append(record(m))
        return exp_minus_i(m)

    def recording_eigh(a, *args, **kwargs):
        decomposed.append(record(a))
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(propagator, "_exp_minus_i", recording_exp)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        result = run()
    return result, exponentiated, decomposed


@settings(max_examples=40, deadline=None)
@given(segment=pair_segments())
@example(segment=SUBNORMAL_DRIVE)
def test_band_frame_hands_eigh_real_tridiagonal_generators(segment):
    # what keeps each step exponential in real arithmetic: every generator
    # `segment_propagator` exponentiates is exactly zero off the tridiagonal
    # band and symmetric, and reaches the exponential as a float64 array; the
    # one eigh of a constant H gets a real symmetric tridiagonal matrix too
    fn, _, t0, t1, steps = _band_segment(segment)
    q = fn.frame
    assert np.max(np.abs(q.conj().T @ q - np.eye(4))) <= 1e-15
    # the exponential overwrites its argument: record copies
    u, exponentiated, decomposed = _recorded(
        lambda: segment_propagator(fn, t0, t1, steps), np.copy)
    if fn.eigh is None:
        assert sum(len(a) for a in exponentiated) == steps
        assert decomposed == []
    else:
        # D(t) = 0: one symmetric 4x4 matrix, the constant H = tridiag(c),
        # serves every step
        [a] = decomposed
        assert a.shape == (4, 4) and exponentiated == []
        exponentiated = [a[None]]
    off_band = abs(np.subtract.outer(np.arange(4), np.arange(4))) > 1
    for a in exponentiated:
        assert a.dtype == np.float64
        assert np.all(a[:, off_band] == 0)
        assert np.array_equal(a, a.swapaxes(1, 2))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-11


@st.composite
def tridiagonal_batches(draw):
    """0 to 5 real symmetric tridiagonal 4x4 matrices, each at its own scale:
    0, subnormal, or from 1e-12 to 5e3 (row sums to 1.5e4, where the step
    exponential squares 18 times, its cap)."""
    entries = st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7)
    scales = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(1e-12, 5e3))
    batch = np.zeros((draw(st.integers(0, 5)), 4, 4))
    for m in batch:
        scale, (*diagonal, a, b, c) = draw(scales), draw(entries)
        m[...] = scale * (np.diag(diagonal) + np.diag([a, b, c], 1) + np.diag([a, b, c], -1))
    return batch


# a scaled draw near a falsifying one of the former bound, 128 eps ||m||_inf:
# after k = 20 squarings its unitarity deviation is 1.6e-9, 1.63 times that
# bound and 6.9 2^k eps. It is past the cap: its quarter, scaled onto the
# same m and squared 18 times, stays within it
ROUNDOFF_DRAW = (np.diag([0.0, -0.9215586589200193, -14831.164672655257, 0.0])
                 + np.diag([0.0, 10022.801202916511, 10022.801202916511], 1)
                 + np.diag([0.0, 10022.801202916511, 10022.801202916511], -1))


def wide_draw(scale):
    """One matrix of row sums up to 2 scale, with a subnormal subdiagonal entry."""
    return (np.diag([scale, -scale, 1.0, 0.0]) + np.diag([scale, 0.0, 5e-324], 1)
            + np.diag([scale, 0.0, 5e-324], -1))[None]


@settings(max_examples=200, deadline=None)
@given(batch=tridiagonal_batches())
@example(batch=np.zeros((0, 4, 4)))
@example(batch=wide_draw(5e3))
@example(batch=0.25 * ROUNDOFF_DRAW[None])
# an ulp under the cap's row sum of theta 2^18 = 2^14: 18 squarings
@example(batch=np.diag([math.nextafter(2.0**14, 0.0), 0.0, 0.0, 0.0])[None])
def test_step_exponential_matches_expm_alone_and_in_a_batch(batch):
    # a bound for k squarings in float64, with each squaring's own roundoff.
    # In the 2-norm, let d_j be the distance of the j-th computed square U_j
    # from the exact E_j. The series leaves d_0 <= 1.1 eps: the last rounding
    # of cos m's unit diagonal, u = eps/2 on each of four entries, and under
    # 0.05 eps from the entries of size theta or less. A squaring (C, S) <-
    # (C^2 - S^2, 2 S C) rounds its 4-term products within gamma_4 |A||B|
    # (gamma_4 ~ 4u), and ||C||_F^2 + ||S||_F^2 = 4 for a 4x4 unitary, so it
    # adds at most ||F||_F <= sqrt(18^2 + 16^2) u = 12.04 eps, while U^2 - E^2
    # = (U - E) U + E (U - E) at most doubles d. So d_k <= 2^k (d_0 + 12.04
    # eps) <= 13.2 2^k eps: 13.14 to first order, and the second order adds
    # under 2e-8 of it at the 18-squaring cap. The unitarity defect U^dag U -
    # 1 = E^dag D + D^dag E + D^dag D is at most 2 d_k, with 24 eps to spare
    # for the check's own rounding. Both bound the largest entry. scipy's
    # expm (a degree-13 Pade approximant, squared about 6 times fewer) stayed
    # within 3e-4 of this bound of exp(-i m) near ROUNDOFF_DRAW, against a
    # 40-digit reference. A step's unitary depends on its own m alone, so
    # batch chunking cannot change it
    u = propagator._exp_minus_i(batch.copy())
    assert u.shape == batch.shape and u.dtype == complex
    for m, step in zip(batch, u):
        k = max(np.frexp(np.abs(m).sum(axis=1).max() / propagator._THETA)[1], 0)
        bound = 13.2 * 2.0**k * np.finfo(float).eps
        assert np.max(np.abs(step - expm(-1j * m))) <= bound
        assert np.max(np.abs(step.conj().T @ step - np.eye(4))) <= 2 * bound
        assert propagator._exp_minus_i(m[None].copy())[0].tobytes() == step.tobytes()


@pytest.mark.parametrize("batch", [
    np.diag([2.0**14, 0.0, 0.0, 0.0])[None],  # a row sum of theta 2^18
    wide_draw(2e4),
    ROUNDOFF_DRAW[None],
], ids=["at-the-cap", "wide", "roundoff"])
def test_step_exponential_past_its_squarings_fails_naming_steps_per_period(batch):
    # 18 squarings keep the roundoff within 13.2 2^18 eps = 7.7e-10, under the
    # 1e-9 unitarity check of the gate's invariants: a step of ||m||_inf from
    # theta 2^18 = 2^14 on would need a 19th, and raises instead
    with pytest.raises(FieldError, match="^steps_per_period ") as exc:
        propagator._exp_minus_i(batch.copy())
    assert exc.value.field == "steps_per_period"


def test_absurd_step_phases_fail_naming_steps_per_period():
    # offsets of 1e300 Hz make each step's exponent about 1e294 rad: its
    # exponential would need some 980 squarings, and its phase has no digit
    # left; past 18 squarings (a roundoff of 13.2 2^18 eps = 7.7e-10) the engine
    # raises instead of returning a meaningless gate
    system = glycine_system(offsets=(1e300, -1e300))
    for event in (CWSegment(CW_2339, 3.3 * T_R), Delay(3.3 * T_R)):
        with pytest.raises(ValueError, match="^steps_per_period "):
            extract_gate(system, [event])


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
    (less 1e-15 s) that is past the sample before it. It returns no plan and
    no Floquet form."""
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
    return u, samples, None, ()


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


def _counted(run):
    """run(), the number of matrices of each call it makes to the step
    exponential, and the number of matrices it hands eigh."""
    result, exponentiated, decomposed = _recorded(
        run, lambda a: len(a) if a.ndim == 3 else 1)
    return result, exponentiated, sum(decomposed)


def test_fig3a_makes_the_pinned_eigh_matrices(tmp_path):
    # fig3a's CW segment of 51,761 steps (50 periods and 561 steps at 1024
    # per period) starts at t = 0 with phi = 0, on the grid, so it takes no
    # leading step; it folds half a period, 1024 / 2 = 512 steps, and then
    # takes one closing step: 512 + 1 = 513 step exponentials. No
    # eigendecomposition builds the band frame, and one gives U_T its
    # Floquet form (that eigh mixes none of its eigenvalues, so none splits)
    code, exponentiated, decomposed = _counted(
        lambda: cli_main(["repro", "fig3a", "--out", str(tmp_path)]))
    assert (code, sum(exponentiated), decomposed) == (0, 513, 1)


def test_eigh_matrices_do_not_grow_with_segment_length():
    # a segment of 10 rotor periods and one of 40 both take one leading step
    # (phi = 0.3 puts t = 0 off the grid, 0.3 / 2 pi * 1024 = 48.9 steps past
    # rotor phase 0), fold half a period, 1024 / 2 = 512 steps, and take one
    # closing step: 1 + 512 + 1 = 514 step exponentials, and one eigh, of
    # U_T for its Floquet form, at any length
    system = glycine_system(phi=0.3)
    drive = RFDrive(omega_1=hz_to_angular(2339.0))
    for periods in (10, 40):
        seg = CWSegment(drive=drive, duration=periods * T_R)
        _, exponentiated, decomposed = _counted(
            lambda: extract_gate(system, [seg], steps_per_period=1024))
        assert (sum(exponentiated), decomposed) == (1 + 512 + 1, 1), periods


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
    (u_period, *_), partial = _period_partials(
        _step_unitaries(fn, [(t_a, h, -(-steps // 2))]), steps, set(range(steps)))
    full = _partials(_step_unitaries(fn, [(t_a, h, steps)]), range(steps + 1))
    assert np.max(np.abs(u_period - full[steps])) < 1e-12
    for r in range(steps):
        assert np.max(np.abs(partial[r] - full[r])) < 1e-12, r


@settings(max_examples=60, deadline=None)
@given(segment=pair_segments(), steps=st.integers(1, 1024), rows=st.lists(
    st.tuples(st.floats(-1.0, 2.0), st.floats(0.0, 1.0)), max_size=8))
def test_merged_batch_is_bitwise_the_run_then_the_rows(segment, steps, rows):
    # a folded Hamiltonian's first batch: its half-period run of whole steps
    # and single (t0, step) rows, on the run's grid, inside it or outside it,
    # in one generator call and one exponential. Each step is formed from its
    # own edges and dt alone, so the batch is, byte for byte, the run's batch
    # and then the rows'
    system, drive, dipolar_on, *_ = segment
    fn = harmonic_hamiltonian(system, drive, dipolar_on)
    t_a, h = -fn.phi / fn.omega_r, system.rotor_period / steps
    run = [(t_a, h, -(-steps // 2))]
    rows = np.array([(t_a + start * system.rotor_period, fraction * h)
                     for start, fraction in rows]).reshape(-1, 2)
    merged = _step_unitaries(fn, run, rows)
    assert merged.tobytes() == np.concatenate(
        (_step_unitaries(fn, run), _step_unitaries(fn, [], rows))).tobytes()


def _period_propagator(fold):
    """U_T of a period fold, from rotor phase 0."""
    fn, steps = fold
    t_a, h = -fn.phi / fn.omega_r, TWO_PI / fn.omega_r / steps
    batch = _step_unitaries(fn, [(t_a, h, -(-steps // 2))])
    return _period_partials(batch, steps, set())[0][0]


# eigenphases phi_0 +- 0.4, phi_0 = atan2(sqrt(2), 1), have equal a + sqrt(2) b
# = sqrt(3) cos(phi - phi_0): eigh of A + sqrt(2) B merges them, in a basis
# turned by a fixed random rotation
PHI_0 = math.atan2(math.sqrt(2.0), 1.0)
_TURN = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
MERGED_PERIOD = (_TURN * np.exp(1j * np.array([PHI_0 + 0.4, PHI_0 - 0.4, 0.3, -2.0]))) @ _TURN.T


@settings(max_examples=40, deadline=None)
@given(u_period=period_folds().map(_period_propagator))
@example(u_period=MERGED_PERIOD)
@example(u_period=np.exp(0.7j) * np.eye(4))
def test_period_propagator_has_a_real_orthogonal_floquet_form(u_period):
    # U_T = A + iB is symmetric, so A and B commute and share real orthogonal
    # eigenvectors: U_T = O e^{i theta} O^T. No unitary comes closer to U_T
    # than U_T's own departure from unitarity, which the squarings of a few
    # long steps (s = 1, 2 or 3) take past 1e-13
    _, o, theta = _floquet(u_period)
    departure = np.max(np.abs(u_period.conj().T @ u_period - np.eye(4)))
    assert np.max(np.abs(u_period - u_period.T)) <= 1e-13
    assert o.dtype == np.float64 and np.max(np.abs(o.T @ o - np.eye(4))) <= 1e-14
    assert np.max(np.abs((o * np.exp(1j * theta)) @ o.T - u_period)) <= 1e-13 + departure


@pytest.mark.parametrize("periods", [10, 1e3, 1e5, 1e7, 1e9])
@pytest.mark.parametrize("event", [lambda duration: CWSegment(CW_2339, duration), Delay],
                         ids=["cw", "dipolar-on-delay"])
def test_gate_unitarity_stays_flat_in_whole_periods(event, periods):
    # U_T^q = O e^{i q theta} O^T is unitary at roundoff for any q; the matrix
    # power of U_T drifted in proportion to q, 2.3e-11 at 1e3 periods
    u = extract_gate(glycine_system(), [event((periods + 0.3) * T_R)])
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-13


@pytest.mark.parametrize("duration", [1e12, 1e20])
def test_gate_of_a_segment_of_any_length_is_unitary(duration):
    # 1e20 s is 8e26 steps of T_r / 1024, past int64: the walk counts whole
    # periods in Python integers, and U came back 1.0 from unitary
    u = extract_gate(glycine_system(), [CWSegment(CW_2339, duration)])
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(phi=st.floats(0.0, TWO_PI), steps_per_period=st.integers(1, 100),
       part=st.floats(0.0, 1.0), rest=st.floats(0.0, 1.0, exclude_max=True))
def test_short_segment_makes_at_most_two_more_eigh_matrices(phi, steps_per_period, part,
                                                            rest):
    # a lone segment of n <= ceil(s/2) whole steps folds them if n > 0, as
    # a longer one does: its half-period batch and one eigh for the Floquet
    # form of U_T, which may split at most two runs of eigenvalues it mixed.
    # Its leading and closing steps add at most 2 matrices; with n = 0 they
    # are all it makes, and it makes no eigh
    whole = math.floor(part * (half := -(-steps_per_period // 2)))
    seg = CWSegment(drive=CW_2339, duration=(whole + rest) * T_R / steps_per_period)
    system = glycine_system(phi=phi)
    n = sum(planned.n for planned in propagator._Plan(system, [seg], steps_per_period,
                                                      math.inf).walk
            if isinstance(planned, propagator._Segment))
    _, exponentiated, decomposed = _counted(lambda: extract_gate(
        system, [seg], steps_per_period=steps_per_period))
    assert sum(exponentiated) - (half if n else 0) in ((1, 2) if seg.duration else (0,))
    assert 1 <= decomposed <= 3 if n else decomposed == 0


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
        u, exponentiated, decomposed = _counted(lambda: extract_gate(system, [event]))
        exact = (vecs * np.exp(-1j * evals * duration)) @ vecs.conj().T
        assert np.max(np.abs(u - exact)) < 1e-12, periods
        assert (exponentiated, decomposed) == ([], duration > 0), periods


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
    # 10.37 T_r start 10,618.88 steps apart (of 0.3 T_r, 307.2), so none
    # starts on the grid: each of the five segments takes a leading and a
    # closing step. The whole steps of each Hamiltonian's segments sum past
    # 1024 / 2, whether each segment is longer than half a period or not, so
    # each of the two Hamiltonians folds 512 steps once: 2 * 512 + 5 + 5.
    # Each Hamiltonian hands the step exponential one batch, at its first
    # segment: its half-period steps, then its leading and closing steps, 6
    # for the drive's three segments and 4 for the delay's two. That is 2
    # calls, where a second call per Hamiltonian for its edge steps made 4,
    # one call per leading or closing step made 12, and short segments that
    # fold their own whole steps made 5 calls of about 307 steps. Each
    # Hamiltonian's U_T takes its Floquet form once, at its first segment: 2
    # eigh, not one per segment
    for periods in (10.37, 0.3):
        _, calls, decomposed = _counted(lambda: extract_gate(
            glycine_system(phi=0.3), _alternating_walk(periods), steps_per_period=1024))
        assert sum(calls) == 2 * 512 + 5 + 5
        assert calls == [512 + 6, 512 + 4]
        assert decomposed == 2
    # two CW segments of 0.1 T_r, whose whole steps sum to under 512, fold
    # as well: one batch of the drive's half-period steps and the two
    # segments' leading and closing steps, and one eigh for U_T's Floquet form
    _, calls, decomposed = _counted(lambda: extract_gate(
        glycine_system(phi=0.3), [CWSegment(CW_2339, 0.1 * T_R)] * 2, steps_per_period=1024))
    assert (calls, decomposed) == ([512 + 4], 1)


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_walk_keeps_each_folded_hamiltonians_floquet_form(phi):
    # the alternating walk's two Hamiltonians, each with the event of its first
    # segment: e^{i theta} on its Floquet states is its period propagator from
    # rotor phase 0 as the samples see it, through that segment's closing trim
    system, steps = glycine_system(phi=phi), 64
    events = _alternating_walk(3.3)
    traj = run_sequence(basis_state("10"), system, events, T_R, steps_per_period=steps)
    assert [event for event, _, _ in traj.floquet] == events[:2]
    t_a = -(phi % TWO_PI) / system.omega_r
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    for event, theta, states in traj.floquet:
        cw = isinstance(event, CWSegment)
        fn = _segment_hamiltonian(system, event.drive if cw else None, constants)
        u_close = trim_unitaries(system, event)[1] if cw else np.eye(4)
        u_period = u_close @ segment_propagator(fn, t_a, t_a + T_R, steps) @ u_close.conj().T
        assert np.max(np.abs(states.conj().T @ states - np.eye(4))) < 1e-13
        assert np.max(np.abs((states * np.exp(1j * theta)) @ states.conj().T - u_period)) < 1e-12


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
    # the walk keeps a Hamiltonian's period partials (here a few residues,
    # far under a half-period batch) and its edge chunk while a later
    # segment has that Hamiltonian, and lets them go at its last: the
    # alternating walk keeps two, a walk of three drives used once each
    # none; a fold has at most three batch arrays alive besides, and the
    # 64 kB of slack holds the small arrays
    system, steps = glycine_system(phi=0.3), 1024
    walk(system, events, steps)
    batch = -(-steps // 2) * 256
    assert _peak_bytes(lambda: walk(system, events, steps)) <= (
        kept * batch + 3 * batch + 64 * 1024)


@pytest.mark.parametrize("walk", [
    pytest.param(lambda system, events, steps: extract_gate(system, events,
                                                            steps_per_period=steps),
                 id="extract_gate"),
    pytest.param(lambda system, events, steps: run_sequence(
        basis_state("10"), system, events, 5.3 * system.rotor_period,
        steps_per_period=steps), id="run_sequence"),
])
def test_walk_of_many_short_segments_stays_within_the_walk_bound(walk):
    # 600 CW segments of one Hamiltonian, each under half a period. Of 0.3
    # T_r (at s = 256 and 1024), their whole steps sum past half a period,
    # so every segment folds through its Hamiltonian's one set of period
    # partials, of 20 residues as the segments repeat every 3 periods, and
    # its leading and closing steps go in chunks. Of 0.003 T_r, no segment
    # has a whole step (n = 0), so none folds: their 1,061 leading and
    # closing steps go to the step exponential in 9 chunks of at most 128
    # steps, each built when the walk reaches it and after the chunk before
    # it has gone. The module docstring's bound for one Hamiltonian is a
    # chunk, its partials and 3 batch arrays, under 2 + 3 here, and the
    # plan, under 1 kB a segment; the 64 kB of slack holds the small arrays
    system = glycine_system(phi=0.3)
    for periods, steps in ((0.3, 256), (0.003, 256), (0.3, 1024)):
        events = [CWSegment(CW_2339, periods * T_R) for _ in range(600)]
        walk(system, events[:10], steps)  # numpy's one-time allocations are not the walk's
        batch = -(-steps // 2) * 256
        assert _peak_bytes(lambda: walk(system, events, steps)) <= (
            (2 + 3) * batch + 600 * 1024 + 64 * 1024)


@st.composite
def repeated_walks(draw):
    """phi, up to six events whose segments repeat two drive amplitudes (at
    any phase) and the two delays, a sampling interval and a step count per
    period. Most Hamiltonians' segments together run past half a period, so
    they fold through the one set of period partials their Hamiltonian
    shares."""
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


@settings(max_examples=40, deadline=None)
@given(walk=repeated_walks())
def test_walk_exponentiates_and_samples_what_its_plan_counts(walk):
    # the plan fixes the work before any matrix: each folded Hamiltonian's
    # half-period batch and the steps of its edge batch, as step
    # exponentials, one 4x4 eigh per segment of a constant Hamiltonian and
    # one per folded Hamiltonian, for the Floquet form of its U_T; any other
    # eigh splits a run of 2 or 3 eigenvalues that the Floquet eigh mixed, at
    # most two runs per U_T. Every time-dependent Hamiltonian with a whole
    # step folds, and its edge batch holds one leading step per segment off
    # the grid and one closing step per segment. A folded Hamiltonian's first
    # batch holds its ceil(s/2) half-period steps and its first ceil(s/2)
    # edge steps, no other batch passes ceil(s/2) steps, and the walk returns
    # as many samples as the plan counts
    phi, events, sample_every, steps_per_period = walk
    system = glycine_system(phi=phi)
    plan = propagator._Plan(system, events, steps_per_period, sample_every)
    segments = [seg for seg in plan.walk if isinstance(seg, propagator._Segment)]
    varying = [seg for seg in segments if seg.key[1]]  # dipolar on: glycine's D(t) != 0
    assert set(plan.folding) == {seg.key for seg in varying if seg.n}
    edges = {seg.key: len(plan.edges[seg.key]) for seg in varying}
    assert sum(edges.values()) == sum(1 + (seg.g0 > seg.t0) for seg in varying)
    steps = len(plan.folding) * plan.half + sum(edges.values())
    constant = len(segments) - len(varying)
    (_, samples, _, _), shapes, decomposed = _recorded(lambda: propagator._propagate(
        system, events, steps_per_period, sample_every), np.shape)
    calls = [shape[0] for shape in shapes]
    splits = len(decomposed) - decomposed.count((4, 4))
    assert (sum(calls), decomposed.count((4, 4))) == (steps, constant + len(plan.folding))
    assert splits <= 2 * len(plan.folding)
    assert sorted(c for c in calls if c > plan.half) == sorted(
        plan.half + min(plan.half, edges[key]) for key in plan.folding)
    assert len(samples) == plan.samples

