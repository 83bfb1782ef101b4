import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from r2tr import cli
from r2tr.cli import (FIT_SCAN_ELEMENTS, FIT_SCAN_POINTS, ConfigError, _simulate_report,
                      build_drive, build_events, build_run, build_system,
                      fit_exchange_period, glycine_defaults, load_config, main,
                      preset_config, transfer_fraction)
from r2tr.operators import BASIS_LABELS, basis_state
from r2tr.propagator import CWSegment, Delay, IdealRotation, Trajectory, extract_gate
from r2tr.readout import simulate_fid, stick_spectrum
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
    t = np.linspace(0.0, 6.5e-3, 400)
    period = 3.21e-3
    iz = 0.02 - 0.48 * np.cos(TWO_PI * t / period)
    fit = fit_exchange_period(t, iz, period_guess=3.0e-3)
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
    traj, report = _simulate_report(preset_config("fig3a"))
    expected = curve_fit_period(traj.times, traj.iz, report["analytic_period_s"])
    assert report["fitted_period_s"] == pytest.approx(expected, rel=1e-9)


# exchange-like curves, which start near their minimum, and a guess within 5%
# of the period
COSINES = dict(period=st.floats(1e-3, 1e-2), guess=st.floats(0.95, 1.05),
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
@example(period=3.3e-3, guess=0.95, samples=4, span=1.2, amplitude=0.45, offset=0.05,
         delay=0.2)
@example(period=3.3e-3, guess=1.0, samples=7, span=2.0, amplitude=0.45, offset=0.05,
         delay=0.2)
@example(period=3.3e-3, guess=1.0, samples=8, span=2.0, amplitude=0.45, offset=0.05,
         delay=0.2)
# exact aliases, whose S is roundoff as the period's is: 7 samples over 2.5
# periods also fit 0.714 of the period, and 4 over 1.2 periods also fit the
# scan's edge; the fit takes the frequency nearest the guess
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
    # a relaxation with no oscillation: the best frequency of the scan over
    # [0.5, 1.5] of the guess is its lowest one, so there is no fit
    t = np.linspace(0.0, 6e-3, 60)
    with pytest.raises(RuntimeError):
        fit_exchange_period(t, 0.5 - 100.0 * t, period_guess=3e-3)


def test_fit_exchange_period_memory_is_a_chunk_of_the_scan():
    # the scan projects its frequencies a chunk at a time, about five
    # (frequencies, samples) float arrays a chunk, and a window past the
    # chunk's element budget one frequency at a time: about ten window-sized
    # arrays, less than one (FIT_SCAN_POINTS, samples, 3) array; projecting
    # the whole scan at once holds several
    samples, period = 4000, 3.2e-3
    t = np.linspace(0.0, 2.0 * period, samples)
    iz = 0.02 - 0.48 * np.cos(TWO_PI * t / period)
    tracemalloc.start()
    try:
        fit = fit_exchange_period(t, iz, period_guess=3.0e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.period == pytest.approx(period, rel=1e-6)
    assert peak < FIT_SCAN_POINTS * samples * 3 * 8


def noisy_exchange(samples, period=3.2e-3, seed=0):
    t = np.linspace(0.0, 2.0 * period, samples)
    noise = np.random.default_rng(seed).normal(scale=1e-3, size=samples)
    return t, 0.02 - 0.48 * np.cos(TWO_PI * t / period) + noise


@pytest.mark.parametrize("chunk", [0, 5, 7, 15])
def test_fit_exchange_period_is_bitwise_the_same_in_any_chunk(chunk, monkeypatch):
    # the scan's projection sums each frequency's row on its own, so how
    # many frequencies share a chunk changes no bit of the fit; a budget
    # below the window's samples (chunk 0 here) takes one frequency at a time
    samples = 2000
    t, iz = noisy_exchange(samples)
    monkeypatch.setattr(cli, "FIT_SCAN_ELEMENTS", FIT_SCAN_POINTS * samples)
    expected = fit_exchange_period(t, iz, period_guess=3.0e-3)  # the whole scan at once
    monkeypatch.setattr(cli, "FIT_SCAN_ELEMENTS", (chunk + 1) * samples - 1)
    assert fit_exchange_period(t, iz, period_guess=3.0e-3) == expected


def test_fit_exchange_period_memory_is_bounded_on_a_long_window():
    # a window above the scan's element budget is projected one frequency at
    # a time: about nine window-sized float arrays, where the whole scan would
    # hold about 500, five per frequency
    samples = 2**16 + 1
    assert samples > FIT_SCAN_ELEMENTS
    t, iz = noisy_exchange(samples)
    tracemalloc.start()
    try:
        fit = fit_exchange_period(t, iz, period_guess=3.0e-3)
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
    # segment and FID sizes are rejected from the config, before any allocation
    pytest.param({"sequence": [PULSE, {"type": "cw", "duration_s": 1.0}]},
                 "sequence[1].duration_s", SIMULATE, id="cw-too-many-steps"),
    pytest.param({"sequence": [{"type": "delay", "duration_s": 1e300}]},
                 "sequence[0].duration_s", ["gate"], id="delay-steps-overflow"),
    # a step count that once only the segment bound caught now meets the cap
    # on steps per period; within the cap, a long segment still meets the
    # segment bound: 2e-2 s at 8192 steps per period is 1.3e6 steps
    pytest.param({"sequence": [PULSE, {"type": "cw", "duration_s": 2e-2}]},
                 "--steps-per-period", ["spectrum", "--steps-per-period", "1000000"],
                 id="steps-flag-too-many-steps"),
    pytest.param({}, "--steps-per-period", ["repro", "fig4", "--steps-per-period", "100000"],
                 id="repro-too-many-steps"),
    pytest.param({"sequence": [PULSE, {"type": "cw", "duration_s": 2e-2}]},
                 "sequence[1].duration_s", ["spectrum", "--steps-per-period", "8192"],
                 id="steps-flag-segment-too-many-steps"),
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
])
def test_cli_reads_a_library_error_by_its_field(tmp_path, capsys, monkeypatch, target, field,
                                                shown):
    # the CLI names the config field of a library ValueError by its `field`
    # attribute, not by its message: a reworded message still exits 2
    def reject(*args, **kwargs):
        raise FieldError(field, "reworded")

    monkeypatch.setattr(cli, target, reject)
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {shown}")


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


# magnitudes stay small: a segment within the step limit can still take
# 2**20 steps, hundreds of MB and seconds to integrate
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
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


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
    # fig4 evolves for half the fitted fig3a period, which one step per
    # rotor period does not find
    assert main(["repro", "fig4", "--steps-per-period", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "fig3a fit" in err and "at 1 steps per period" in err
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
