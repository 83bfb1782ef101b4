import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from r2tr import cli
from r2tr.cli import (FIT_BRACKET, ConfigError, _simulate_report, analytic_point, build_drive,
                      build_events, build_run, build_system, fit_exchange_period,
                      floquet_period, glycine_defaults, load_config, main, preset_config,
                      run_fig4, transfer_fraction)
from r2tr.hamiltonian import dipolar_constants
from r2tr.operators import BASIS_LABELS, basis_state
from r2tr.propagator import (MAX_STEPS_PER_PERIOD, CWSegment, Delay, IdealRotation, Trajectory,
                             _Plan, _Segment, _segment_hamiltonian, extract_gate, run_sequence)
from r2tr.readout import simulate_fid, stick_spectrum
from r2tr.recoupling import solve_amplitude
from r2tr.units import TWO_PI, FieldError


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_build_system_defaults():
    sys = build_system(glycine_defaults())
    assert sys.omega_r == pytest.approx(TWO_PI * 7884.0)
    assert sys.offsets[1] == pytest.approx(TWO_PI * 18699.0)
    assert sys.r == pytest.approx(1.53e-10)


def test_build_system_coupling_instead_of_r():
    cfg = glycine_defaults()
    del cfg["system"]["r_angstrom"]
    cfg["system"]["coupling_hz"] = 2121.449485
    sys = build_system(cfg)
    assert sys.r == pytest.approx(1.53e-10, rel=1e-6)


def test_build_system_rejects_both_r_and_coupling():
    cfg = glycine_defaults()
    cfg["system"]["coupling_hz"] = 2000.0
    with pytest.raises(ConfigError):
        build_system(cfg)


def test_build_system_ppm_offsets():
    cfg = glycine_defaults()
    del cfg["system"]["offsets_hz"]
    cfg["system"]["offsets_ppm"] = [20.0, 186.99]
    cfg["system"]["carrier_mhz"] = 100.0
    sys = build_system(cfg)
    assert sys.offsets[0] == pytest.approx(TWO_PI * 2000.0)
    # ppm without a carrier is rejected
    del cfg["system"]["carrier_mhz"]
    with pytest.raises(ConfigError):
        build_system(cfg)


def test_build_events():
    cfg = glycine_defaults()
    cfg["sequence"] = [
        {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
        {"type": "cw", "duration_s": 1e-3},
        {"type": "delay", "duration_s": 5e-4, "dipolar_on": False},
    ]
    events = build_events(cfg, build_drive(cfg))
    assert isinstance(events[0], IdealRotation)
    assert events[0].angle == pytest.approx(np.pi)
    assert isinstance(events[1], CWSegment)
    assert events[1].skip_trim == (1,)
    assert isinstance(events[2], Delay)
    cfg["sequence"] = [{"type": "nope"}]
    with pytest.raises(ConfigError):
        build_events(cfg, build_drive(cfg))


def test_load_config_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(bad))
    missing_version = write_config(tmp_path, {"system": {}})
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(missing_version)


def test_fit_exchange_period_synthetic():
    # the guess is 1.5% off, inside the fit's 2% bracket
    t = np.linspace(0.0, 6.5e-3, 400)
    period = 3.21e-3
    iz = 0.02 - 0.48 * np.cos(TWO_PI * t / period)
    fit = fit_exchange_period(t, iz, period_guess=3.16e-3)
    assert fit.period == pytest.approx(period, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.96, rel=1e-6)


def fit_window(times, values, period_guess):
    """The samples fit_exchange_period fits: two guessed periods, if they hold 8."""
    mask = times <= 2.0 * period_guess + 1e-12
    return (times[mask], values[mask]) if mask.sum() >= 8 else (times, values)


def curve_fit_period(times, values, period_guess):
    """Period of scipy's Levenberg-Marquardt cosine fit, from the analytic
    guess and over the same window as fit_exchange_period, run to
    convergence (its default tolerances stop it about 1e-9 short)."""
    from scipy.optimize import OptimizeWarning, curve_fit

    times, values = fit_window(times, values, period_guess)
    p0 = (values.mean(), 0.5 * (values.max() - values.min()), TWO_PI / period_guess, math.pi)
    with warnings.catch_warnings():
        # an exact cosine leaves no residual to estimate the covariance from
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(lambda t, a, b, w, c: a + b * np.cos(w * t + c),
                            times, values, p0=p0, maxfev=20000, xtol=1e-14, ftol=1e-14)
    return TWO_PI / abs(popt[2])


def test_fit_exchange_period_matches_curve_fit_on_fig3a():
    # from the fit's guess, the Floquet period, and over its window
    cfg = preset_config("fig3a")
    traj, report = _simulate_report(cfg)
    guess = floquet_period(build_system(cfg), traj)
    expected = curve_fit_period(traj.times, traj.iz, guess)
    assert report["fitted_period_s"] == pytest.approx(expected, rel=1e-9)


# exchange-like curves, which start near their minimum, and a guess within
# 1.5% of the period, inside the fit's 2% bracket
COSINES = dict(period=st.floats(1e-3, 1e-2), guess=st.floats(0.985, 1.015),
               samples=st.integers(12, 200), span=st.floats(1.2, 3.0),
               amplitude=st.floats(0.05, 0.5), offset=st.floats(-0.2, 0.2),
               delay=st.floats(-0.5, 0.5))


def cosine_samples(period, samples, span, amplitude, offset, delay):
    t = np.linspace(0.0, span * period, samples)
    return t, offset - amplitude * np.cos(TWO_PI * t / period + delay)


@settings(max_examples=40, deadline=None)
@given(**COSINES)
# the sample floor, where the closed-form projection has least to work with:
# 4 samples (the four model parameters), 7, and 8 (the window's threshold)
@example(period=3.3e-3, guess=0.985, samples=4, span=1.2, amplitude=0.45, offset=0.05,
         delay=0.2)
@example(period=3.3e-3, guess=1.0, samples=7, span=2.0, amplitude=0.45, offset=0.05,
         delay=0.2)
@example(period=3.3e-3, guess=1.0, samples=8, span=2.0, amplitude=0.45, offset=0.05,
         delay=0.2)
# exact aliases of sparse samples, which fit as well as the period and lie
# outside the bracket: 7 samples over 2.5 periods also fit 0.714 of the
# period, and 4 over 1.2 periods 0.667 of it
@example(period=3.3e-3, guess=1.0, samples=7, span=2.5, amplitude=0.45, offset=0.05,
         delay=0.2)
@example(period=3.3e-3, guess=1.0, samples=4, span=1.2, amplitude=0.45, offset=0.05,
         delay=0.2)
def test_fit_exchange_period_matches_curve_fit_on_cosines(period, guess, samples, span,
                                                          amplitude, offset, delay):
    # curve_fit is a local search from the guess, and it reaches the
    # least-squares optimum from there
    t, iz = cosine_samples(period, samples, span, amplitude, offset, delay)
    fit = fit_exchange_period(t, iz, guess * period)
    assert fit.period == pytest.approx(curve_fit_period(t, iz, guess * period), rel=1e-9)
    assert fit.period == pytest.approx(period, rel=1e-9)
    assert fit.amplitude == pytest.approx(2.0 * amplitude, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(**COSINES)
def test_fit_exchange_period_coefficients_are_the_least_squares_ones(period, guess, samples,
                                                                     span, amplitude, offset,
                                                                     delay):
    # the fit reports the coefficients its last dS/dw took at the root: those
    # of the linear least-squares fit of a + p cos(wt) + q sin(wt) at w = 2 pi
    # / period, here by lstsq, within 1e-9 of the swing
    t, iz = cosine_samples(period, samples, span, amplitude, offset, delay)
    fit = fit_exchange_period(t, iz, guess * period)
    t, iz = fit_window(t, iz, guess * period)
    wt = TWO_PI / fit.period * t
    (a, p, q), *_ = np.linalg.lstsq(np.column_stack((np.ones_like(t), np.cos(wt), np.sin(wt))),
                                    iz, rcond=None)
    tol = 1e-9 * 2.0 * math.hypot(p, q)
    assert fit.amplitude == pytest.approx(2.0 * math.hypot(p, q), rel=1e-9)
    assert fit.offset == pytest.approx(a, abs=tol)
    assert abs(math.remainder(fit.phase - math.atan2(-q, p), TWO_PI)) <= 1e-9


def test_fit_exchange_period_without_interior_minimum():
    # a relaxation with no oscillation: dS/dw does not rise through zero within
    # the bracket around the guess, so there is no fit
    t = np.linspace(0.0, 6e-3, 60)
    with pytest.raises(RuntimeError, match="no minimum within 2%"):
        fit_exchange_period(t, 0.5 - 100.0 * t, period_guess=3e-3)


def noisy_exchange(samples, period=3.2e-3, seed=0):
    t = np.linspace(0.0, 2.0 * period, samples)
    noise = np.random.default_rng(seed).normal(scale=1e-3, size=samples)
    return t, 0.02 - 0.48 * np.cos(TWO_PI * t / period) + noise


def test_fit_exchange_period_memory_is_bounded_on_a_long_window():
    # each dS/dw of the refinement takes one frequency on window-sized 1-D
    # arrays: about nine of them at once, however long the window
    samples = 2**16 + 1
    t, iz = noisy_exchange(samples)
    tracemalloc.start()
    try:
        fit = fit_exchange_period(t, iz, period_guess=3.16e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.period == pytest.approx(3.2e-3, rel=1e-5)
    assert peak < 16 * samples * 8


def test_transfer_fraction_directions():
    t = np.array([0.0, 1.0, 2.0])
    # I starts inverted: full exchange scores 1
    traj = Trajectory(times=t, iz=np.array([-0.5, 0.0, 0.5]),
                      sz=np.array([0.5, 0.0, -0.5]))
    assert transfer_fraction(traj) == pytest.approx(1.0)
    # opposite preparation scores the same
    traj = Trajectory(times=t, iz=np.array([0.5, 0.0, -0.5]),
                      sz=np.array([-0.5, 0.0, 0.5]))
    assert transfer_fraction(traj) == pytest.approx(1.0)
    # single-spin wobble without counter-motion does not count
    traj = Trajectory(times=t, iz=np.array([-0.5, -0.1, -0.5]),
                      sz=np.array([0.5, 0.5, 0.5]))
    assert transfer_fraction(traj) == pytest.approx(0.0)
    # no initial polarization gap: no exchange signal
    traj = Trajectory(times=t, iz=np.array([0.5, 0.4, 0.5]),
                      sz=np.array([0.5, 0.5, 0.5]))
    assert transfer_fraction(traj) == 0.0


def test_preset_configs():
    cfg = preset_config("fig3a")
    assert cfg["drive"]["amplitude_hz"] == 2339.0
    assert cfg["sequence"][0]["type"] == "pulse"
    cfg = preset_config("fig3b")
    assert cfg["drive"]["amplitude_hz"] == 8823.0
    assert cfg["drive"]["skip_trim"] == []
    with pytest.raises(ConfigError):
        preset_config("fig9")


def test_cli_solve_default(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path)]) == 0
    plans = json.loads((tmp_path / "plans.json").read_text())
    ops = {(p["condition_class"], p["m"]): p for p in plans}
    assert ops[("a", 2)]["omega_1_hz"] == pytest.approx(2338.0, abs=5.0)


def test_cli_solve_no_solution(tmp_path, capsys):
    cfg = glycine_defaults()
    cfg["solve"] = {"classes": ["b"], "harmonics": [1]}
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "no solution" in out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("offsets_hz, theta_d_deg", [([0.0, 12000.0], 64.0),
                                                     ([2000.0, 18699.0], 0.0)])
def test_cli_solve_writes_strict_json(tmp_path, capsys, offsets_hz, theta_d_deg):
    # a carrier on one resonance scores inf, and a pair along the spinning
    # axis never exchanges: both are written as null, not as Infinity
    cfg = glycine_defaults()
    cfg["system"]["offsets_hz"] = offsets_hz
    cfg["system"]["theta_d_deg"] = theta_d_deg
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    plans = json.loads((tmp_path / "plans.json").read_text(),
                       parse_constant=_reject_constant)
    assert any(None in (p["mechanism_score"], p["exchange_period_s"]) for p in plans)


PULSE = {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0}
CW = {"type": "cw", "duration_s": 1e-3}


def _without(event, key):
    return {k: v for k, v in event.items() if k != key}


def _system(**fields):
    return {"system": dict(glycine_defaults()["system"], **fields)}


def _ppm_system(**fields):
    system = _without(glycine_defaults()["system"], "offsets_hz")
    return {"system": dict(system, offsets_ppm=[20.0, 186.99], **fields)}


def _coupling_system(coupling_hz):
    system = _without(glycine_defaults()["system"], "r_angstrom")
    return {"system": dict(system, coupling_hz=coupling_hz)}


SIMULATE = ["simulate"]


def _digits_config(digits):
    """The default config with an integer of `digits` nines as its spin rate."""
    text = json.dumps({**glycine_defaults(), **_system(spin_rate_hz="DIGITS")})
    return text.replace('"DIGITS"', "9" * digits).encode()


# without an integer digit limit the spin rate parses, and its field check
# rejects it instead of the decoder
DIGIT_LIMIT = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000


@pytest.mark.parametrize("patch, field, argv", [
    pytest.param(b"{", "not valid JSON", SIMULATE, id="bad-json"),
    # files the decoder rejects without a position: each names the file
    pytest.param(b'{"schema_version": 1, "note": "\xff"}', "cfg.json", ["gate"],
                 id="not-utf-8"),
    pytest.param(_digits_config(5000), "cfg.json" if DIGIT_LIMIT else "system.spin_rate_hz",
                 ["gate"], id="integer-digits"),
    # within the digit limit, but beyond the float range
    pytest.param(_digits_config(401), "system.spin_rate_hz", ["gate"], id="integer-overflow"),
    pytest.param(b"[" * 100000 + b"]" * 100000, "cfg.json", ["gate"], id="deep-nesting"),
    pytest.param(None, "cfg.json", ["gate"], id="config-file-missing"),
    pytest.param(b"[]", "config root", SIMULATE, id="root-is-list"),
    pytest.param({"system": _without(glycine_defaults()["system"], "offsets_hz")},
                 "offsets_hz", ["solve"], id="system-without-offsets"),
    pytest.param(json.dumps({**_without(glycine_defaults(), "drive"), "sequence": [CW]}).encode(),
                 "sequence[0]", ["gate"], id="cw-without-drive"),
    pytest.param({"sequence": [dict(PULSE, targets=[5])]},
                 "sequence[0].targets", SIMULATE, id="target-out-of-range"),
    pytest.param({"sequence": [dict(PULSE, axis="+")]},
                 "sequence[0].axis", SIMULATE, id="unknown-axis"),
    pytest.param({"sequence": [PULSE, {"type": "cw"}]},
                 "sequence[1].duration_s", SIMULATE, id="cw-missing-duration"),
    pytest.param({"sequence": [_without(PULSE, "targets")]},
                 "sequence[0].targets", SIMULATE, id="pulse-missing-targets"),
    pytest.param({"sequence": [_without(PULSE, "axis")]},
                 "sequence[0].axis", SIMULATE, id="pulse-missing-axis"),
    pytest.param({"sequence": [_without(PULSE, "angle_deg")]},
                 "sequence[0].angle_deg", SIMULATE, id="pulse-missing-angle"),
    pytest.param({"drive": dict(glycine_defaults()["drive"], skip_trim=[7])},
                 "drive.skip_trim", SIMULATE, id="skip-trim-out-of-range"),
    pytest.param({"sequence": [PULSE, 5]}, "sequence[1]", SIMULATE,
                 id="event-not-object"),
    pytest.param(_system(r_angstrom=math.nan), "system.r_angstrom", ["solve"],
                 id="r-nan"),
    pytest.param(_system(offsets_hz=[2000.0, math.inf]), "system.offsets_hz[1]",
                 ["solve"], id="offset-infinite"),
    pytest.param(_system(spin_rate_hz=[1]), "system.spin_rate_hz", SIMULATE,
                 id="spin-rate-not-number"),
    pytest.param({"sequence": [PULSE, {"type": "cw", "duration_s": math.nan}]},
                 "sequence[1].duration_s", SIMULATE, id="duration-nan"),
    pytest.param({"sequence": [PULSE, {"type": "delay", "duration_s": -1e-3}]},
                 "sequence[1].duration_s", SIMULATE, id="duration-negative"),
    pytest.param({"integrator": {"steps_per_period": 0}},
                 "integrator.steps_per_period", SIMULATE, id="config-steps-zero"),
    pytest.param({"integrator": {"steps_per_period": 2.5}},
                 "integrator.steps_per_period", ["gate"], id="config-steps-fraction"),
    # one past MAX_STEPS_PER_PERIOD, from the config and from the flag
    pytest.param({"integrator": {"steps_per_period": 8193}},
                 "integrator.steps_per_period", SIMULATE, id="config-steps-above-cap"),
    pytest.param({}, "--steps-per-period", ["gate", "--steps-per-period", "8193"],
                 id="steps-flag-above-cap"),
    pytest.param({}, "--steps-per-period", ["repro", "fig3a", "--steps-per-period", "0"],
                 id="repro-steps-zero"),
    pytest.param({}, "--steps-per-period", ["simulate", "--steps-per-period", "-5"],
                 id="steps-negative"),
    pytest.param(_system(offsets_hz=[2000.0, 18699.0, 5000.0]), "system.offsets_hz",
                 ["gate"], id="three-offsets"),
    pytest.param(_system(offsets_hz=[2000.0]), "system.offsets_hz", ["solve"],
                 id="one-offset"),
    pytest.param({"system": 5}, "system", ["solve"], id="system-not-object"),
    pytest.param({"integrator": 5}, "integrator", ["gate"], id="integrator-not-object"),
    pytest.param({"solve": 5}, "solve", ["solve"], id="solve-not-object"),
    pytest.param({"drive": None, "sequence": [PULSE, {"type": "cw", "duration_s": 1e-3}]},
                 "drive", SIMULATE, id="drive-null"),
    pytest.param({"drive": 5}, "drive", ["gate"], id="drive-not-object"),
    pytest.param({"fid": 5}, "fid", ["spectrum"], id="fid-not-object"),
    pytest.param({"sequence": 5}, "sequence", ["gate"], id="sequence-not-list"),
    pytest.param({"drive": dict(glycine_defaults()["drive"], trim="false")},
                 "drive.trim", SIMULATE, id="trim-string"),
    pytest.param({"sequence": [PULSE, {"type": "delay", "duration_s": 1e-4,
                                       "dipolar_on": "no"}]},
                 "sequence[1].dipolar_on", SIMULATE, id="dipolar-on-string"),
    pytest.param({"solve": {"harmonics": [1.5]}}, "solve.harmonics", ["solve"],
                 id="harmonic-fraction"),
    pytest.param({"solve": {"harmonics": [3]}}, "solve.harmonics", ["solve"],
                 id="harmonic-three"),
    pytest.param({"solve": {"classes": ["c"]}}, "solve.classes", ["solve"],
                 id="unknown-class"),
    pytest.param({"initial_state": "000"}, "initial_state", SIMULATE,
                 id="state-three-spins"),
    pytest.param({"initial_state": "2"}, "initial_state", ["spectrum"],
                 id="state-not-binary"),
    pytest.param({"initial_state": 5}, "initial_state", SIMULATE, id="state-number"),
    pytest.param({"fid": {"duration_s": 1e-3, "dwell_s": 0}}, "fid.dwell_s",
                 ["spectrum"], id="dwell-zero"),
    pytest.param({"fid": {"duration_s": 1e-3, "dwell_s": -1e-5}}, "fid.dwell_s",
                 ["spectrum"], id="dwell-negative"),
    pytest.param({"sequence": [dict(PULSE, targets=[])]}, "sequence[0].targets",
                 SIMULATE, id="targets-empty"),
    pytest.param({"sequence": [dict(PULSE, targets=[0, 0], angle_deg=90.0)]},
                 "sequence[0].targets", ["spectrum"], id="targets-repeated"),
    # the event types check these; the message still names the config field
    pytest.param({"sequence": [PULSE, dict(CW, trim="false")]}, "sequence[1].trim",
                 SIMULATE, id="event-trim-string"),
    pytest.param({"sequence": [PULSE, dict(CW, skip_trim=[True])]},
                 "sequence[1].skip_trim", ["gate"], id="event-skip-trim-bool"),
    pytest.param({"sequence": [dict(PULSE, targets=[True])]}, "sequence[0].targets",
                 SIMULATE, id="target-bool"),
    pytest.param({"sequence": [dict(PULSE, targets=[1.0])]}, "sequence[0].targets",
                 ["gate"], id="target-float"),
    pytest.param({"sequence": [dict(PULSE, targets="01")]}, "sequence[0].targets",
                 ["spectrum"], id="targets-string"),
    pytest.param({"sequence": [dict(PULSE, targets=5)]}, "sequence[0].targets",
                 SIMULATE, id="targets-number"),
    pytest.param(_ppm_system(carrier_mhz=0.0), "system.carrier_mhz", ["solve"],
                 id="carrier-zero"),
    pytest.param(_ppm_system(carrier_mhz=-100.0), "system.carrier_mhz", ["gate"],
                 id="carrier-negative"),
    # r^3 underflows to zero or overflows
    pytest.param(_system(r_angstrom=1e-120), "system.r_angstrom", ["solve"],
                 id="r-underflow"),
    pytest.param(_system(r_angstrom=1e120), "system.r_angstrom", SIMULATE,
                 id="r-overflow"),
    pytest.param(_system(r_angstrom=0.0), "system.r_angstrom", ["solve"], id="r-zero"),
    pytest.param(_coupling_system(0.0), "system.coupling_hz", ["solve"],
                 id="coupling-zero"),
    pytest.param(_coupling_system(1e308), "system.coupling_hz", ["gate"],
                 id="coupling-overflow"),
    # no distance gives gamma = 0 a coupling: the field named is gamma's
    pytest.param(_system(gamma_rad_per_s_per_t=0.0), "system.gamma_rad_per_s_per_t",
                 ["solve"], id="gamma-zero"),
    pytest.param({"system": dict(_coupling_system(1e3)["system"], gamma_rad_per_s_per_t=1e200)},
                 "system.gamma_rad_per_s_per_t", SIMULATE, id="gamma-overflow"),
    # an end time t whose float step ulp(t) is over GRID_TOLERANCE rad at the
    # fastest frequency (on glycine, the 18.7 kHz offset: t of 64 s or more)
    # is rejected from the config, before any allocation, as are FID sizes
    pytest.param({"sequence": [{"type": "delay", "duration_s": 1e300}]},
                 "sequence[0].duration_s", ["gate"], id="delay-steps-overflow"),
    pytest.param({"sequence": [PULSE, {"type": "cw", "duration_s": 1e4}]},
                 "sequence[1].duration_s", ["gate"], id="cw-past-the-float-grid"),
    # the first delay ends at 40 s, within the rule; the second at 80 s, past it
    pytest.param({"sequence": [{"type": "delay", "duration_s": 40.0}] * 2},
                 "sequence[1].duration_s", ["gate"], id="second-delay-past-the-float-grid"),
    # offsets that the float grid of a 1 ms segment cannot resolve: a float
    # step of its t is 1.4e-8 rad at 1e10 Hz
    pytest.param({**_system(offsets_hz=[1e10, -1e10]), "sequence": [CW]},
                 "sequence[0].duration_s", ["gate"], id="offsets-past-the-float-grid"),
    pytest.param({**_system(offsets_hz=[1e299, -1e299]), "sequence": [CW]},
                 "sequence[0].duration_s", ["gate"], id="offsets-1e299"),
    # within the rule, a 10 s delay at 1 Hz spinning and 7 steps per period:
    # its batch of 5 steps has norm 1.02e6, 24 squarings, whose roundoff the
    # gate's unitarity check would reject; past the cap of 18, it exits 2
    pytest.param({**_system(spin_rate_hz=1.0, offsets_hz=[0.0, 18699.0]),
                  "drive": dict(glycine_defaults()["drive"], amplitude_hz=0.0),
                  "integrator": {"steps_per_period": 7},
                  "sequence": [{"type": "delay", "duration_s": 10.0}]},
                 "integrator.steps_per_period: ", ["gate"], id="config-steps-past-the-squarings"),
    # within the rule, a 0.99 s segment at 1 Hz spinning and one step per
    # period is one step past the step exponential's squarings
    pytest.param({**_system(spin_rate_hz=1.0, offsets_hz=[7e5, -7e5]),
                  "sequence": [{"type": "cw", "duration_s": 0.99}]}, "--steps-per-period: ",
                 ["gate", "--steps-per-period", "1"], id="steps-flag-past-the-squarings"),
    # a step count past the cap on steps per period, from the flag
    pytest.param({"sequence": [PULSE, {"type": "cw", "duration_s": 2e-2}]},
                 "--steps-per-period", ["spectrum", "--steps-per-period", "1000000"],
                 id="steps-flag-too-many-steps"),
    pytest.param({}, "--steps-per-period", ["repro", "fig4", "--steps-per-period", "100000"],
                 id="repro-too-many-steps"),
    pytest.param({"fid": {"duration_s": 1.0, "dwell_s": 1e-7}}, "fid.duration_s",
                 ["spectrum"], id="fid-too-many-points"),
    pytest.param({"fid": {"duration_s": 1.0, "dwell_s": 1e-320}}, "fid.duration_s",
                 ["spectrum"], id="fid-points-overflow"),
    # one sample per step of a 0.1 s segment, each held until the end
    pytest.param({"sequence": [{"type": "cw", "duration_s": 0.1}], "sample_every_s": 1e-12},
                 "sample_every_s", SIMULATE, id="too-many-samples"),
    # frequencies that overflow in rad/s, a zero spin rate, and a spin rate
    # whose rotor period overflows
    pytest.param({**_system(spin_rate_hz=1e308), "sequence": [PULSE, CW]},
                 "system.spin_rate_hz", SIMULATE, id="spin-rate-overflow"),
    pytest.param(_system(spin_rate_hz=0.0), "system.spin_rate_hz", SIMULATE,
                 id="spin-rate-zero"),
    pytest.param({**_system(offsets_hz=[1e308, 2000.0]), "sequence": [PULSE, CW]},
                 "system.offsets_hz[0]", SIMULATE, id="offset-overflow"),
    pytest.param({"drive": dict(glycine_defaults()["drive"], amplitude_hz=1e308),
                  "sequence": [PULSE, CW]}, "drive.amplitude_hz", ["gate"],
                 id="amplitude-overflow"),
    pytest.param({**_system(spin_rate_hz=1e-320), "sequence": [PULSE, CW]},
                 "system.spin_rate_hz", SIMULATE, id="rotor-period-overflow"),
    # below the spin-rate bound: omega_r**2 underflows, or the step integrals
    # cancel the dipolar term of a delay
    pytest.param({**_system(spin_rate_hz=1e-300), "sequence": [PULSE, CW]},
                 "system.spin_rate_hz", SIMULATE, id="spin-rate-underflow"),
    pytest.param({**_system(spin_rate_hz=1e-30, phi_deg=30.0),
                  "sequence": [{"type": "delay", "duration_s": 1e-3}]},
                 "system.spin_rate_hz", ["gate"], id="spin-rate-too-slow"),
])
def test_cli_malformed_config_exit_code(tmp_path, capsys, patch, field, argv):
    path = tmp_path / "cfg.json"
    if isinstance(patch, bytes):
        path.write_bytes(patch)
    elif patch is not None:  # None: no config file
        write_config(tmp_path, {**glycine_defaults(), **patch})
    if argv[0] != "repro":
        argv = [*argv, "--config", str(path)]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert field in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("target, field, shown", [
    ("SpinSystem", "r", "system.r_angstrom"),
    ("SpinSystem", "omega_r", "system.spin_rate_hz"),
    ("run_sequence", "sample_every", "sample_every_s"),
    # the step exponential's cap on squarings, set by the config or the flag
    ("extract_gate", "steps_per_period", "integrator.steps_per_period"),
    ("extract_gate", "steps_per_period", "--steps-per-period"),
])
def test_cli_reads_a_library_error_by_its_field(tmp_path, capsys, monkeypatch, target, field,
                                                shown):
    # the CLI names the config field of a library ValueError by its `field`
    # attribute, not by its message: a reworded message still exits 2
    def reject(*args, **kwargs):
        raise FieldError(field, "reworded")

    monkeypatch.setattr(cli, target, reject)
    argv = ["gate" if target == "extract_gate" else "simulate", "--out", str(tmp_path)]
    if shown == "--steps-per-period":
        argv += [shown, "64"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {shown}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["repro", "fig3a", "--format", "json"], id="format"),
    pytest.param(["repro", "fig3a", "--config", "cfg.json"], id="config"),
    pytest.param(["solve", "--format", "json"], id="solve-format"),
    pytest.param(["solve", "--steps-per-period", "64"], id="solve-steps-per-period"),
    pytest.param(["gate", "--format", "json"], id="gate-format"),
])
def test_cli_repro_rejects_ignored_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# magnitudes stay small, though a run's time is bounded without them: a
# segment's cost does not grow with its length, propagator.MAX_SAMPLES caps
# the samples, and the float-grid rule (cli.GRID_TOLERANCE) caps the end time
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.text(max_size=3))
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
CONFIG_PATHS = [(key,) for key in glycine_defaults()] + [
    (key, field) for key, blk in glycine_defaults().items() if isinstance(blk, dict)
    for field in blk]


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(CONFIG_PATHS), value=JSON_VALUES,
       command=st.sampled_from(["solve", "simulate", "gate", "spectrum"]))
# r^3 underflows to zero: the dipolar prefactor divides by it
@example(path=("system", "r_angstrom"), value=1e-300, command="solve")
def test_cli_config_fuzz_exits_cleanly(path, value, command):
    # one block or field of the defaults replaced by an arbitrary JSON value
    cfg = glycine_defaults()
    (cfg[path[0]] if len(path) == 2 else cfg)[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        cfg_path = os.path.join(out, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        code = main([command, "--config", cfg_path, "--out", out])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


COMBINED_EVENTS = st.one_of(
    st.fixed_dictionaries({"type": st.just("pulse"),
                           "targets": st.sampled_from([[0], [1], [0, 1]]),
                           "axis": st.sampled_from("xyz"), "angle_deg": st.floats(-360.0, 360.0)}),
    st.fixed_dictionaries({"type": st.sampled_from(["cw", "delay"]),
                           "duration_s": st.floats(1e-9, 60.0)}))


@settings(max_examples=60, deadline=None)
@given(spin_rate=st.floats(1.0, 1e9), offsets=st.lists(st.floats(-1e9, 1e9), min_size=2,
                                                        max_size=2),
       amplitude=st.floats(0.0, 1e7), steps=st.integers(1, MAX_STEPS_PER_PERIOD),
       sequence=st.lists(COMBINED_EVENTS, min_size=1, max_size=4),
       command=st.sampled_from(["simulate", "gate", "spectrum"]))
# slow spinning at 2 steps per period: a step past the step exponential's squarings
@example(spin_rate=1.0, offsets=[0.0, 18699.0], amplitude=2339.0, steps=2,
         sequence=[{"type": "cw", "duration_s": 3.0}], command="gate")
def test_cli_exits_cleanly_at_combined_extremes(spin_rate, offsets, amplitude, steps, sequence,
                                                command):
    # the fuzz above changes one field at a time; here the spin rate, offsets,
    # drive, step count and sequence all vary at once: a run exits 0, or 2 with
    # one line that names the field
    cfg = glycine_defaults()
    cfg["system"].update(spin_rate_hz=spin_rate, offsets_hz=offsets)
    cfg["drive"]["amplitude_hz"] = amplitude
    cfg["integrator"]["steps_per_period"] = steps
    cfg["sequence"] = sequence
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", write_config(pathlib.Path(out), cfg), "--out", out])
    assert code in (0, 2)
    if code:
        assert re.match(r"error: ((system|drive|integrator|sequence\[\d\])\.\w+|sample_every_s)",
                        err.getvalue())
        assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command, out", [
    ("gate", "F"),  # an existing file
    ("solve", os.path.join("F", "sub")),  # a directory under one
])
def test_cli_out_that_cannot_take_the_files_exits_2_naming_it(tmp_path, capsys, command, out):
    # an OSError from making the directory or writing into it ended, after
    # all the work, in a traceback and exit 1
    (tmp_path / "F").write_text("")
    assert main([command, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out


def test_period_fit_reported_only_for_a_real_swing():
    # the off-condition fig3b control wobbles by about 1%: a cosine fit to it
    # is not a period, while fig3a's full exchange is
    _, fig3b = _simulate_report(preset_config("fig3b"))
    assert "fitted_period_s" not in fig3b
    assert "theta_d_deg_from_period" not in fig3b
    _, fig3a = _simulate_report(preset_config("fig3a"))
    assert fig3a["fitted_period_s"] == pytest.approx(3.19e-3, rel=1e-3)
    assert "theta_d_deg_from_period" in fig3a


def test_period_below_the_geometry_minimum_reports_a_theta_note():
    # at theta_d = 90 degrees and 2600 Hz, off the matching amplitude, the
    # pair exchanges faster than any geometry of the analytic model allows:
    # the fitted period stands, and the orientation it implies is null
    cfg = glycine_defaults()
    cfg["system"]["theta_d_deg"] = 90.0
    cfg["drive"]["amplitude_hz"] = 2600.0
    cfg["sequence"] = [PULSE, {"type": "cw", "duration_s": 6e-3}]
    _, report = _simulate_report(cfg)
    assert report["fitted_period_s"] == pytest.approx(2.517e-3, rel=1e-3)
    assert report["fitted_period_s"] < report["analytic_period_s"]
    assert report["theta_d_deg_from_period"] is None
    assert "below the theta=90deg minimum" in report["theta_note"]


def walked_period(cfg, steps=None):
    """The Floquet period of a config's walk, at its own or `steps` steps per period."""
    if steps is not None:
        cfg = dict(cfg, integrator={"steps_per_period": steps})
    system, _, events, steps = build_run(cfg)
    return floquet_period(system, run_sequence(basis_state("00"), system, events, math.inf,
                                               steps_per_period=steps))


def theta_90_config():
    cfg = glycine_defaults()
    cfg["system"]["theta_d_deg"] = 90.0
    cfg["drive"]["amplitude_hz"] = 2600.0
    cfg["sequence"] = [PULSE, {"type": "cw", "duration_s": 6e-3}]
    return cfg


@pytest.mark.parametrize("cfg, steps, mixes", [
    pytest.param(preset_config("fig3b"), None, False, id="fig3b"),
    pytest.param(preset_config("fig3a"), 1, False, id="fig3a-1-step"),
    pytest.param(preset_config("fig3a"), 2, False, id="fig3a-2-steps"),
    pytest.param(theta_90_config(), None, True, id="theta-90-at-2600-hz"),
])
def test_floquet_period_is_null_where_the_pair_does_not_mix(cfg, steps, mixes):
    # the pair mixes when 4 w (1 - w) > MIN_SWING = 0.05, w > 0.0127 for its
    # cross weight w: the largest swing of <I_z> that a two-level exchange
    # between the pair can make would be under the period fit's amplitude
    # floor below it. fig3b's pair has w = 1.9e-7, and fig3a's at 1 and 2 steps
    # per period 6.4e-26 and 2.4e-7, where no fit exists; the theta_D = 90 deg
    # config off its matching amplitude has w = 0.297 and exchanges 83%
    period = walked_period(cfg, steps)
    assert (period is not None) == mixes
    if mixes:
        assert period == pytest.approx(2.517e-3, rel=1e-3)


# exchange-like systems, drawn as the exchange benchmark draws them: the class-a
# m = 2 amplitude, and the coupling that makes the analytic period 24 rotor periods
EXCHANGE_LIKE = dict(spin_rate=st.floats(7600.0, 8200.0), phi=st.floats(0.0, 360.0),
                     theta_d=st.floats(58.0, 80.0))


def exchange_like_config(spin_rate, phi, theta_d, periods):
    """Glycine defaults at the drawn spin rate, phi and theta_D, driven at the
    class-a m = 2 amplitude, with the coupling of a 24-rotor-period exchange:
    a pi pulse on spin I, then a CW segment of `periods` rotor periods."""
    cfg = glycine_defaults()
    cfg["system"].update(spin_rate_hz=spin_rate, phi_deg=phi, theta_d_deg=theta_d)
    system = build_system(cfg)
    (amplitude,) = solve_amplitude(*system.offsets, system.omega_r, "a", 2)
    cfg["drive"]["amplitude_hz"] = amplitude / TWO_PI
    point = analytic_point(system, build_drive(cfg))
    del cfg["system"]["r_angstrom"]
    cfg["system"]["coupling_hz"] = 1.0 / (24 * system.rotor_period * abs(point.b_factor)
                                          * math.sin(math.radians(theta_d)) ** 2)
    cfg["sequence"] = [PULSE, {"type": "cw", "duration_s": periods * system.rotor_period}]
    return cfg


@settings(max_examples=20, deadline=None)
@given(**EXCHANGE_LIKE)
def test_floquet_period_of_exchange_like_systems(spin_rate, phi, theta_d):
    cfg = exchange_like_config(spin_rate, phi, theta_d, 24)
    traj, report = _simulate_report(cfg)
    period = floquet_period(build_system(cfg), traj)
    assert period is not None  # the pair mixes
    assert walked_period(cfg, 2048) == pytest.approx(period, rel=1e-9)
    # the fit's root lies inside the bracket around the Floquet frequency
    assert abs(period / report["fitted_period_s"] - 1.0) < FIT_BRACKET


def sambe_theta(fn, zones=8):
    """theta = -eps T_r mod 2 pi, sorted, of the four quasi-energies eps with the
    most weight on the n = 0 block of the truncated Floquet (Sambe) Hamiltonian
    of fn, in the basis e^{i n (w_r t + phi)} for |n| <= zones: its diagonal
    blocks are tridiag(c) + n w_r, and its blocks at |n - m| = 1 and 2 are
    (w_d1 / 2) diag(d) and (w_d2 / 2) diag(d), d = (0, -1/2, 1/4, 1/4). Shirley,
    Phys. Rev. 138, B979 (1965); Sambe, Phys. Rev. A 7, 2203 (1973)."""
    n = np.arange(-zones, zones + 1)
    band, d = np.diag(fn.coupling, -1), np.diag([0.0, -0.5, 0.25, 0.25])

    def apart(k):  # the blocks at |n - m| = k
        return np.eye(len(n), k=k) + np.eye(len(n), k=-k)

    h = (np.kron(np.eye(len(n)), band + band.T) + np.kron(np.diag(n * fn.omega_r), np.eye(4))
         + np.kron(apart(1), fn.omega_d1 / 2 * d) + np.kron(apart(2), fn.omega_d2 / 2 * d))
    eps, states = np.linalg.eigh(h)
    weight = (abs(states[4 * zones:4 * zones + 4]) ** 2).sum(axis=0)
    return np.sort(np.mod(-eps[np.argsort(weight)[-4:]] * TWO_PI / fn.omega_r, TWO_PI))


@settings(max_examples=20, deadline=None)
@given(**EXCHANGE_LIKE, steps=st.integers(64, 1024))
def test_walk_quasi_phases_match_the_sambe_reference(spin_rate, phi, theta_d, steps):
    # the integrator against a reference that does not use it: the walk's
    # theta, from its period propagator U_T, and the Sambe quasi-energies.
    # Measured over 200 draws, |theta_walk - theta_ref| is 8.2e-12 (1024/s)^4
    # (fourth order; 8.6e-12 at most, with roundoff), and the 8-zone truncation
    # moves theta by under 1.3e-12. The exchange period is 2 pi T_r over a gap
    # of two theta, 2 pi / 24 here: the bound holds it within 1.6e-10 (1024/s)^4
    cfg = dict(exchange_like_config(spin_rate, phi, theta_d, 1),
               integrator={"steps_per_period": steps})
    system, drive, events, _ = build_run(cfg)
    (_, theta, _), = run_sequence(basis_state("00"), system, events, math.inf,
                                  steps_per_period=steps).floquet
    reference = sambe_theta(_segment_hamiltonian(
        system, drive, dipolar_constants(system.gamma, system.r, system.theta_d)))
    # sorted mod 2 pi, a theta near 0 may sort first in one set and last in the
    # other: the sets match at the best cyclic shift
    theta = np.sort(np.mod(theta, TWO_PI))
    error = min(np.max(abs(np.remainder(theta - np.roll(reference, k) + math.pi, TWO_PI)
                           - math.pi)) for k in range(4))
    assert error <= 2e-11 * (1024 / steps) ** 4


def test_fig4_evolves_for_half_the_floquet_period():
    # the fig4 drive is fig3a's: its Floquet period, from a walk of one rotor
    # period, is fig3a's, and the fig3a fit refines it by 3.3e-7
    report, _ = run_fig4(preset_config("fig4"))
    cfg = preset_config("fig3a")
    traj, fig3a = _simulate_report(cfg)
    assert 2.0 * report["half_period_s"] == pytest.approx(
        floquet_period(build_system(cfg), traj), rel=1e-12)
    assert 2.0 * report["half_period_s"] == pytest.approx(fig3a["fitted_period_s"], rel=1e-4)
    assert "fitted_period_s" not in report


def test_cli_simulate_too_short_to_fit(tmp_path, capsys):
    # 2e-4 s is under two rotor periods: three samples cannot fix the four
    # parameters of the cosine fit, so no period is reported
    cfg = glycine_defaults()
    cfg["sequence"] = [{"type": "cw", "duration_s": 2e-4}]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fitted_period_s" not in out
    assert "analytic_period_s" in out
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("steps", ["1", "2"])
def test_cli_repro_fig3a_without_a_fit(tmp_path, capsys, steps):
    # one or two steps per rotor period do not resolve the exchange: the
    # report omits the fit, and fig3a says so and succeeds
    assert main(["repro", "fig3a", "--steps-per-period", steps, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fitted period: none" in out
    report = json.loads((tmp_path / "fig3a_report.json").read_text())
    assert "fitted_period_s" not in report
    assert "analytic_period_s" in report


def test_cli_repro_fig4_without_a_fit(tmp_path, capsys):
    # fig4 evolves for half the drive's Floquet exchange period: at one step
    # per rotor period a one-period walk has no whole step to fold, so no
    # Floquet form gives one
    assert main(["repro", "fig4", "--steps-per-period", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Floquet form" in err and "at 1 steps per period" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("theta_d_deg", [0.0, 180.0])
def test_cli_simulate_pair_along_spinning_axis(tmp_path, capsys, theta_d_deg):
    # no harmonic recouples a pair along the spinning axis: the analytic
    # period is infinite, so neither it nor a fit is reported
    cfg = glycine_defaults()
    cfg["system"]["theta_d_deg"] = theta_d_deg
    cfg["sequence"] = [PULSE, CW]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path),
                 "--steps-per-period", "256"]) == 0
    out = capsys.readouterr().out
    assert "analytic_period_s" not in out
    assert "fitted_period_s" not in out


def test_cli_simulate_writes_trajectory(tmp_path, capsys):
    cfg = glycine_defaults()
    cfg["sequence"] = [
        {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
        {"type": "cw", "duration_s": 1e-3},
    ]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path),
                 "--steps-per-period", "256"]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t_s,Iz,Sz"
    assert len(lines) > 5


def test_cli_gate_zero_duration_identity(tmp_path):
    cfg = glycine_defaults()
    cfg["sequence"] = []
    path = write_config(tmp_path, cfg)
    assert main(["gate", "--config", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "gate.json").read_text())
    assert report["universality_class"] == "non-entangling"
    assert report["makhlin_g2"] == pytest.approx(3.0)


@pytest.mark.parametrize("duration", [
    pytest.param(0.13, id="cw-0.13s"),  # 1,025 rotor periods
    pytest.param(1.0, id="cw-1s"),
])
def test_cli_simulate_runs_a_long_cw_segment(tmp_path, capsys, duration):
    # a segment's cost does not grow with its length: only the float-grid rule
    # bounds its end time, at 64 s on glycine
    cfg = {**glycine_defaults(), "sequence": [PULSE, {"type": "cw", "duration_s": duration}]}
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    times = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[:, 0]
    assert times[-1] == pytest.approx(duration, rel=1e-12)
    assert "fitted_period_s" in capsys.readouterr().out


def test_cli_gate_of_a_long_cw_segment_is_unitary(tmp_path):
    cfg = {**glycine_defaults(), "sequence": [{"type": "cw", "duration_s": 10.0}]}
    assert main(["gate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    u = np.array(json.loads((tmp_path / "gate.json").read_text())["unitary"])
    u = u[..., 0] + 1j * u[..., 1]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


TIMED = st.tuples(st.sampled_from(["pulse", "cw", "delay"]), st.one_of(
    st.just(0.0), st.floats(1e-9, 10.0), st.sampled_from([0.1, 1 / 7884.0])))


@settings(max_examples=40, deadline=None)
@given(sequence=st.lists(TIMED, max_size=6))
def test_grid_rule_checks_the_walks_own_end_times(sequence):
    # the rule takes ulp(t) of the t that the walk reaches, bit for bit: each
    # segment's end and the sequence's end, as propagator._Plan sums them
    cfg = {**glycine_defaults(), "sequence": [
        PULSE if kind == "pulse" else {"type": kind, "duration_s": d} for kind, d in sequence]}
    ends = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "math", types.SimpleNamespace(
            **{**vars(math), "ulp": lambda t: ends.append(t.hex()) or math.ulp(t)}))
        system, _, events, steps = build_run(cfg)
    timed = [e for e in events if not isinstance(e, IdealRotation)]
    assert len(ends) == len(timed)
    plan = _Plan(system, events, steps, math.inf)
    assert [t for t, e in zip(ends, timed) if e.duration] == [
        s.t.hex() for s in plan.walk if isinstance(s, _Segment)]
    assert plan.end.hex() == (ends[-1] if ends else (0.0).hex())


def test_cli_spectrum_json(tmp_path):
    cfg = glycine_defaults()
    cfg["initial_state"] = "10"
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path),
                 "--format", "json"]) == 0
    peaks = json.loads((tmp_path / "spectrum.json").read_text())["peaks"]
    assert peaks[0][1] == pytest.approx(-1.0)
    assert peaks[1][1] == pytest.approx(1.0)


def test_cli_spectrum_applies_the_gate_and_writes_the_fid(tmp_path, capsys):
    # the spectrum and the FID are those of U rho U^dag, U the sequence's gate
    cfg = glycine_defaults()
    cfg.update(sequence=[PULSE, CW], initial_state="01",
               integrator={"steps_per_period": 256},
               fid={"duration_s": 2e-3, "dwell_s": 2.5e-5})
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 0
    system, _, events, steps = build_run(cfg)
    u = extract_gate(system, events, steps_per_period=steps)
    rho = u @ basis_state("01") @ u.conj().T
    peaks = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    expected = np.array(stick_spectrum(rho, system).peaks)
    np.testing.assert_allclose(peaks, expected, rtol=1e-11, atol=1e-12)
    # the gate moved the peaks off the prepared state's -1 and +1
    assert np.max(np.abs(peaks[:, 1] - [1.0, -1.0])) > 0.1
    fid = np.loadtxt(tmp_path / "fid.csv", delimiter=",", skiprows=1)
    expected = simulate_fid(rho, system, 2e-3, 2.5e-5)
    assert len(fid) == len(expected) == 80
    np.testing.assert_allclose(fid[:, 0], np.arange(80) * 2.5e-5, rtol=1e-11)
    np.testing.assert_allclose(fid[:, 1] + 1j * fid[:, 2], expected, rtol=1e-11, atol=1e-12)


def test_cli_simulate_json_matches_csv(tmp_path, capsys):
    cfg = glycine_defaults()
    cfg["sequence"] = [PULSE, CW]
    path = write_config(tmp_path, cfg)
    argv = ["simulate", "--config", path, "--out", str(tmp_path), "--steps-per-period", "256"]
    assert main([*argv, "--format", "json"]) == 0
    assert main(argv) == 0
    trajectory = json.loads((tmp_path / "trajectory.json").read_text())
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert sorted(trajectory) == ["Iz", "Sz", "t_s"]
    assert len(trajectory["t_s"]) == len(rows) > 5
    for k, key in enumerate(("t_s", "Iz", "Sz")):
        np.testing.assert_allclose(trajectory[key], rows[:, k], rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("argv, names", [
    pytest.param(["solve"], ["plans.json"], id="solve"),
    pytest.param(["simulate"], ["trajectory.csv"], id="simulate"),
    pytest.param(["simulate", "--format", "json"], ["trajectory.json"], id="simulate-json"),
    pytest.param(["gate"], ["gate.json"], id="gate"),
    pytest.param(["spectrum"], ["spectrum.csv", "fid.csv"], id="spectrum"),
    pytest.param(["spectrum", "--format", "json"], ["spectrum.json", "fid.csv"],
                 id="spectrum-json"),
    pytest.param(["repro", "fig3a"], ["fig3a_trajectory.csv", "fig3a_report.json"],
                 id="repro-fig3a"),
    pytest.param(["repro", "fig3b"], ["fig3b_trajectory.csv", "fig3b_report.json"],
                 id="repro-fig3b"),
    pytest.param(["repro", "fig4"], [*(f"fig4_{label}_spectrum.csv" for label in BASIS_LABELS),
                                     "fig4_report.json"], id="repro-fig4"),
])
def test_cli_announces_each_file_it_writes(tmp_path, monkeypatch, capsys, argv, names):
    # run once with --out, into a directory the run makes, and once without,
    # into the working directory: the `wrote PATH` lines name, in order, the
    # files the run made, and the run made no others; solve without --out
    # prints its plans and writes nothing
    cfg = glycine_defaults()
    cfg.update(sequence=[PULSE, CW], integrator={"steps_per_period": 64},
               fid={"duration_s": 1e-3, "dwell_s": 2.5e-5})
    if argv[0] != "repro":
        argv = [*argv, "--config", write_config(tmp_path, cfg)]
    for out in ("out/run", ""):
        work = tmp_path / ("with-out" if out else "without-out")
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([*argv, "--out", out] if out else argv) == 0
        expected = [] if argv[0] == "solve" and not out else [os.path.join(out, n) for n in names]
        wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == expected
        made = [p for p in work.rglob("*") if p.is_file()]
        assert sorted(str(p.relative_to(work)) for p in made) == sorted(expected)
        assert all(p.stat().st_size > 0 for p in made)


def test_cli_imports_without_scipy():
    # numpy is the only runtime dependency: scipy is for the tests alone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, r2tr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
