"""Command-line surface: config ingestion, reproduction presets, and
CSV/JSON emission.

Config files are JSON with a versioned schema; quantities cross the
boundary in degrees and Hz (matching how experiments are specified) and
are converted to radians and rad/s internally. All emitted data files use
fixed formatting and carry no timestamps, so identical configs produce
byte-identical output.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .gates import (cns, gate_to_json, iswap, locally_equivalent,
                    makhlin_invariants, universality_class, weyl_coordinates)
from .hamiltonian import dipolar_constants, effective_field
from .operators import BASIS_LABELS, SPINS, SpinSystem, basis_state, spin_operator
from .propagator import (DEFAULT_STEPS_PER_PERIOD, CWSegment, Delay, IdealRotation,
                         RFDrive, check_steps, extract_gate, run_sequence)
from .readout import classify_state, fid_points, fid_to_csv, simulate_fid, stick_spectrum
from .recoupling import (brentq, operating_point, plans_to_json, solve_plans,
                         theta_from_period)
from .units import (GAMMA_C13, HBAR, MU0_OVER_4PI, TWO_PI, FieldError, choice, choices,
                    deg_to_rad, hz_to_angular, number, ppm_to_hz, rad_to_deg)

SCHEMA_VERSION = 1
# the phase, in rad, that one float step of a timed event's end time t,
# math.ulp(t), may make at the walk's fastest angular frequency: past it, float
# time no longer resolves the rotor phase that locks a CW segment's recoupling
GRID_TOLERANCE = 1e-9
# the least peak-to-peak swing of <I_z> that counts as an exchange: the period
# fit's amplitude floor, and 4 w (1 - w) of a Floquet pair's cross weight w
MIN_SWING = 0.05
# the period fit refines the Floquet period within this fraction of its frequency
FIT_BRACKET = 0.02


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------- config

def glycine_defaults():
    """Built-in config: the doubly labeled glycine operating point."""
    return {
        "schema_version": SCHEMA_VERSION,
        "system": {
            "gamma_rad_per_s_per_t": GAMMA_C13,
            "r_angstrom": 1.53,
            "theta_d_deg": 64.0,
            "phi_deg": 0.0,
            "spin_rate_hz": 7884.0,
            "offsets_hz": [2000.0, 18699.0],
        },
        "drive": {"amplitude_hz": 2339.0, "phase_deg": 0.0,
                  "trim": True, "skip_trim": [1]},
        "sequence": [],
        "integrator": {"steps_per_period": DEFAULT_STEPS_PER_PERIOD},
        "initial_state": "00",
        "solve": {"classes": ["a", "b"], "harmonics": [1, 2]},
    }


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from exc
    # bytes that are not UTF-8, an integer past the digit limit, deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} cannot be read as JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    return cfg


def _radius_from_coupling(gamma, coupling_hz):
    # invert omega_full = (mu0/4pi) gamma^2 hbar / r^3
    return (MU0_OVER_4PI * gamma * gamma * HBAR / hz_to_angular(coupling_hz)) ** (1.0 / 3.0)


def build_system(cfg):
    """SpinSystem from the config's system block (degrees/Hz boundary)."""
    blk = _block(cfg, "system")

    def scalar(key, default=None):
        value = _field(blk, key, "system") if default is None else blk.get(key, default)
        return number(value, f"system.{key}")

    def offsets(key):
        values = blk[key]
        if not (isinstance(values, list) and len(values) == 2):
            raise ConfigError(f"system.{key} must list the I and S offsets, got {values!r}")
        return [number(v, f"system.{key}[{k}]") for k, v in enumerate(values)]

    gamma = scalar("gamma_rad_per_s_per_t", GAMMA_C13)
    has_r = "r_angstrom" in blk
    has_coupling = "coupling_hz" in blk
    if has_r == has_coupling:
        raise ConfigError("system block needs exactly one of 'r_angstrom' or 'coupling_hz'")
    if has_r:
        r_key, r = "r_angstrom", scalar("r_angstrom") * 1e-10
    else:
        r_key = "coupling_hz"
        r = _radius_from_coupling(gamma, number(blk[r_key], "system.coupling_hz", positive=True))
    if "offsets_hz" in blk:
        key = "offsets_hz"
        offsets_hz = offsets(key)
    elif "offsets_ppm" in blk:
        if "carrier_mhz" not in blk:
            raise ConfigError("'offsets_ppm' requires 'carrier_mhz'")
        key = "offsets_ppm"
        carrier = number(blk["carrier_mhz"], "system.carrier_mhz", positive=True)
        offsets_hz = [ppm_to_hz(p, carrier) for p in offsets(key)]
    else:
        raise ConfigError("system block needs 'offsets_hz' or 'offsets_ppm'")
    theta_d = deg_to_rad(scalar("theta_d_deg", 0.0))
    phi = deg_to_rad(scalar("phi_deg", 0.0))
    omega_r = hz_to_angular(number(_field(blk, "spin_rate_hz", "system"),
                                   "system.spin_rate_hz"))
    angular = tuple(_angular(o, f"system.{key}[{k}]") for k, o in enumerate(offsets_hz))
    try:
        return SpinSystem(gamma=gamma, r=r, theta_d=theta_d, phi=phi, omega_r=omega_r,
                          offsets=angular)
    except FieldError as exc:  # SpinSystem's range checks, on r or omega_r
        field = {"r": r_key, "omega_r": "spin_rate_hz"}[exc.field]
        if field == r_key and not 0.0 < MU0_OVER_4PI * gamma * gamma * HBAR < math.inf:
            field = "gamma_rad_per_s_per_t"  # no r gives this gamma a coupling
        raise ConfigError(f"system.{field} = {blk[field]!r}: {exc}") from exc


def _block(cfg, key, kind=dict):
    """cfg[key], an object (a list for `sequence`), empty if absent; any
    other value raises a ConfigError naming `key`."""
    value = cfg.get(key, kind())
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    return value


def _field(blk, key, where):
    """blk[key]; a missing key raises a ConfigError naming `where.key`."""
    if key not in blk:
        raise ConfigError(f"{where}.{key} is missing")
    return blk[key]


def _angular(hz, field):
    """hz_to_angular(hz) of a config frequency; a result that overflows to
    infinity raises a ConfigError naming `field`."""
    omega = hz_to_angular(hz)
    if not math.isfinite(omega):
        raise ConfigError(f"{field} is {hz:g} Hz, or {omega:g} rad/s; it must be finite")
    return omega


def build_drive(cfg):
    if "drive" not in cfg:
        return None
    blk = _block(cfg, "drive")
    amplitude = number(_field(blk, "amplitude_hz", "drive"), "drive.amplitude_hz", 0.0)
    phase = number(blk.get("phase_deg", 0.0), "drive.phase_deg")
    return RFDrive(omega_1=_angular(amplitude, "drive.amplitude_hz"), phase=deg_to_rad(phase))


def build_events(cfg, drive):
    """Event list from the config's sequence block; CW events use `drive`
    (the config's `build_drive`, None without a drive block).

    A missing field or an event that is not an object raises a ConfigError, and
    a bad drive.trim or drive.skip_trim, or an angle or duration that is not a
    finite number (or is negative), a FieldError: each names the field. The event
    types check spin indices, target lists, axes and flags: their ValueError
    becomes a ConfigError naming the field, e.g. sequence[0].axis.
    """
    drive_blk = _block(cfg, "drive")
    trim = choice(drive_blk.get("trim", True), (True, False), "drive.trim")
    skip_trim = choices(drive_blk.get("skip_trim", ()), SPINS, "drive.skip_trim")
    events = []
    for k, ev in enumerate(_block(cfg, "sequence", list)):
        where = f"sequence[{k}]"
        if not isinstance(ev, dict):
            raise ConfigError(f"{where} must be an object, got {ev!r}")
        kind = ev.get("type")
        if kind in ("cw", "delay"):
            duration = number(_field(ev, "duration_s", where),
                              f"{where}.duration_s", 0.0)
        if kind == "pulse":
            angle = deg_to_rad(number(_field(ev, "angle_deg", where), f"{where}.angle_deg"))
            event, fields = IdealRotation, dict(targets=_field(ev, "targets", where),
                                                axis=_field(ev, "axis", where), angle=angle)
        elif kind == "cw":
            if drive is None:
                raise ConfigError(f"{where}: cw event needs a drive block")
            event, fields = CWSegment, dict(drive=drive, duration=duration,
                                            trim=ev.get("trim", trim),
                                            skip_trim=ev.get("skip_trim", skip_trim))
        elif kind == "delay":
            event, fields = Delay, dict(duration=duration, dipolar_on=ev.get("dipolar_on", True))
        else:
            raise ConfigError(f"{where}: unknown event type {kind!r}")
        try:  # the event's message starts with the field it names
            events.append(event(**fields))
        except ValueError as exc:
            raise ConfigError(f"{where}.{exc}") from exc
    return events


def build_run(cfg):
    """(system, drive, events, steps per period) of a config. A timed event
    whose end time t gives ulp(t) times the walk's fastest angular frequency
    (2 omega_r, an offset or the drive's omega_1) above GRID_TOLERANCE raises
    a ConfigError naming its sequence[k].duration_s."""
    system = build_system(cfg)
    drive = build_drive(cfg)
    events = build_events(cfg, drive)
    steps = check_steps(_block(cfg, "integrator").get(
        "steps_per_period", DEFAULT_STEPS_PER_PERIOD), "steps_per_period")
    omega = max(2.0 * system.omega_r, *map(abs, system.offsets), drive.omega_1 if drive else 0.0)
    t = 0.0  # each timed event's end, summed as propagator._Plan sums the walk's time
    for k, event in enumerate(events):
        if isinstance(event, IdealRotation):
            continue
        t += event.duration
        if (phase := math.ulp(t) * omega) > GRID_TOLERANCE:
            raise ConfigError(
                f"sequence[{k}].duration_s = {event.duration:g} s ends at t = {t:g} s, "
                f"whose float step of {math.ulp(t):.2g} s is {phase:.2g} rad at the fastest "
                f"angular frequency, {omega:.4g} rad/s; at most {GRID_TOLERANCE:g} rad is allowed")
    return system, drive, events, steps


# --------------------------------------------------------------- analysis

@dataclass(frozen=True)
class PeriodFit:
    """Least-squares cosine fit a + b cos(2 pi t / period + phase)."""

    period: float
    amplitude: float  # peak-to-peak swing, 2|b|
    offset: float
    phase: float


def floquet_period(system, traj):
    """The exchange period 2 pi T_r / |dtheta| of the walk's first driven
    Hamiltonian: dtheta in (-pi, pi] is the quasi-phase gap of its two Floquet
    states with the most weight on |01> and |10>. None if none folded, or if
    that pair does not mix: 4 w (1 - w) <= MIN_SWING for its cross weight w, the
    least weight either has on |01> or |10> (a two-level exchange between them
    swings <I_z> by at most 4 w (1 - w))."""
    for event, theta, states in traj.floquet:
        if isinstance(event, CWSegment):
            weights = abs(states[1:3]) ** 2
            pair = np.argsort(weights.sum(axis=0))[-2:]
            w = weights[:, pair].min()
            gap = abs(math.remainder(theta[pair[0]] - theta[pair[1]], TWO_PI))
            mixes = 4.0 * w * (1.0 - w) > MIN_SWING and gap
            return TWO_PI * system.rotor_period / gap if mixes else None
    return None


def fit_exchange_period(times, values, period_guess):
    """Fit a sinusoid to an exchange trajectory and return its period,
    refined from a guess within FIT_BRACKET of it.

    The fit window is two guessed periods (if it holds 8 samples). The fit
    is by variable projection: at a fixed angular frequency w the model a + p
    cos(wt) + q sin(wt) is linear, and its best sum of squares S(w) is, in
    closed form, what the centred values keep off the centred cos(wt) and
    sin(wt), made orthogonal by Gram-Schmidt. The fit's w is the root of dS/dw
    within FIT_BRACKET of 2 pi/period_guess, and its p and q there are the
    fit's. Raises RuntimeError when there is no fit: fewer samples than the
    four model parameters, or no sign change of dS/dw in the bracket.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 4:
        raise RuntimeError(f"a cosine fit needs at least 4 samples, got {len(times)}")
    mask = times <= 2.0 * period_guess + 1e-12
    if mask.sum() >= 8:
        times, values = times[mask], values[mask]
    centred = values - (mean := values.mean())

    def slope(w):
        # dS/dw at w's least-squares coefficients, whose own derivatives drop out,
        # recorded: by sums of the centred columns c and s, s less its part along c
        cos, sin = np.cos(wt := w * times), np.sin(wt)
        mc, ms = np.einsum("i->", cos) / len(times), np.einsum("i->", sin) / len(times)
        c, s = cos - mc, sin - ms
        cc = max(np.einsum("i,i->", c, c), math.ulp(0.0))
        s -= (along := np.einsum("i,i->", c, s) / cc) * c
        q = np.einsum("i,i->", s, centred) / max(np.einsum("i,i->", s, s), math.ulp(0.0))
        fits[w] = (p := np.einsum("i,i->", c, centred) / cc - q * along), q, mc, ms
        return float((p * (cos - mc) + q * (sin - ms) - centred) @ (times * (q * cos - p * sin)))

    fits = {}  # (p, q, mc, ms) at each w that `slope` takes, brentq's root among them
    lo, hi = (TWO_PI / period_guess) * np.array([1.0 - FIT_BRACKET, 1.0 + FIT_BRACKET])
    ends = {lo: slope(lo), hi: slope(hi)}
    if not ends[lo] < 0.0 < ends[hi]:
        raise RuntimeError(f"no cosine fit: no minimum within {FIT_BRACKET:.0%} of the guess")
    w = brentq(lambda x: ends.pop(x) if x in ends else slope(x), lo, hi, xtol=1e-15 * hi)
    p, q, mc, ms = fits[w]
    # a + p cos(wt) + q sin(wt) = a + b cos(wt + c)
    return PeriodFit(period=TWO_PI / w, amplitude=2.0 * math.hypot(p, q),
                     offset=mean - p * mc - q * ms, phase=math.atan2(-q, p) % TWO_PI)


def transfer_fraction(traj):
    """Fraction of the initial I/S polarization difference actually exchanged.

    Uses min(I gain, S loss) so a single-spin wobble (which moves one
    observable without the other) does not count as transfer.
    """
    gap = traj.sz[0] - traj.iz[0]
    if abs(gap) < 1e-9:
        return 0.0
    sign = 1.0 if gap > 0 else -1.0
    exchanged = np.minimum(sign * (traj.iz - traj.iz[0]), sign * (traj.sz[0] - traj.sz))
    return max(0.0, float(exchanged.max()) / abs(gap))


def analytic_point(system, drive):
    """Class-a, m=2 operating point of the drive on the system's pair; its
    exchange period is inf when the pair lies along the spinning axis."""
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    return operating_point(system.offsets[0], system.offsets[1], drive.omega_1, constants, "a", 2)


# ---------------------------------------------------------------- presets

def preset_config(name):
    """Config dict for one of the reproduction presets."""
    cfg = glycine_defaults()
    if name == "fig3a":
        system = build_system(cfg)
        drive = build_drive(cfg)
        duration = 2.0 * analytic_point(system, drive).exchange_period
        cfg["sequence"] = [
            {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
            {"type": "cw", "duration_s": duration},
        ]
    elif name == "fig3b":
        # at this amplitude the S tilt is no longer negligible, so both
        # trim pulses are applied
        cfg["drive"]["amplitude_hz"] = 8823.0
        cfg["drive"]["skip_trim"] = []
        cfg["sequence"] = [
            {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
            {"type": "cw", "duration_s": 5e-3},
        ]
    elif name == "fig4":
        cfg["sequence"] = []  # run_fig4 builds one half-period CW gate for all four states
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return cfg


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _simulate_report(cfg):
    """Run the configured sequence; return (trajectory, report dict)."""
    system, drive, events, steps = build_run(cfg)
    sample_every = (number(cfg.get("sample_every_s", 0.0), "sample_every_s", 0.0)
                    or system.rotor_period)
    initial = basis_state(choice(cfg.get("initial_state", "00"), BASIS_LABELS, "initial_state"))
    traj = run_sequence(initial, system, events, sample_every, steps_per_period=steps)
    report = {"max_transfer_fraction": transfer_fraction(traj)}
    cw = drive is not None and any(isinstance(e, CWSegment) for e in events)
    point = analytic_point(system, drive) if cw else None
    # a pair along the spinning axis is never recoupled: no period to fit
    if point is not None and math.isfinite(point.exchange_period):
        report["analytic_period_s"] = point.exchange_period
        period = floquet_period(system, traj)  # None: a pair that does not mix
        try:
            fit = fit_exchange_period(traj.times, traj.iz, period) if period else None
        except RuntimeError:
            fit = None
        # <I_z> lies in [-1/2, 1/2], so a real swing is at most 1
        if fit is not None and MIN_SWING < fit.amplitude <= 1.0:
            constants = dipolar_constants(system.gamma, system.r, system.theta_d)
            report["fitted_period_s"] = fit.period
            report["fitted_amplitude"] = fit.amplitude
            try:
                theta = theta_from_period(fit.period, point.b_factor, constants.omega_full)
                report["theta_d_deg_from_period"] = rad_to_deg(theta)
            except ValueError as exc:
                report["theta_d_deg_from_period"] = None
                report["theta_note"] = str(exc)
    return traj, report


def run_fig4(cfg):
    """Truth table: prepare each basis state, evolve half an exchange period
    (the drive's Floquet period, from a walk of one rotor period), classify."""
    def cw_run(duration):
        return build_run(dict(cfg, sequence=[{"type": "cw", "duration_s": duration}]))

    system, _, events, steps = cw_run(build_system(cfg).rotor_period)
    period = floquet_period(system, run_sequence(basis_state("00"), system, events, math.inf,
                                                 steps_per_period=steps))
    if period is None:
        raise ValueError(f"fig4 needs the drive's exchange period, which its Floquet "
                         f"form does not give at {steps} steps per period")
    half_period = 0.5 * period
    system, _, events, _ = cw_run(half_period)
    gate = extract_gate(system, events, steps_per_period=steps)

    spectra = {label: stick_spectrum(gate @ basis_state(label) @ gate.conj().T, system)
               for label in BASIS_LABELS}
    report = {
        "truth_table": {label: classify_state(sp) for label, sp in spectra.items()},
        "half_period_s": half_period,
        "half_period_nominal_s": 1.6e-3,
        "peak_amplitudes": {label: [[off, amp] for off, amp in sp.peaks]
                            for label, sp in spectra.items()},
    }
    return report, spectra


# ------------------------------------------------------------ subcommands

def _emit(out_dir, name, write):
    """write(path) of the file `name` in out_dir (made if missing; the
    current directory if empty), then announce the path. An OSError, say
    out_dir is a file or lies under one, raises a FieldError naming --out."""
    path = os.path.join(out_dir, name)
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        write(path)
    except OSError as exc:
        raise FieldError("--out", f"--out {out_dir!r} cannot take {name}: {exc}") from exc
    print(f"wrote {path}")


def cmd_solve(cfg, args):
    system = build_system(cfg)
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    solve_blk = _block(cfg, "solve")
    classes = choices(solve_blk.get("classes", ("a", "b")), ("a", "b"), "solve.classes")
    harmonics = choices(solve_blk.get("harmonics", (1, 2)), (1, 2), "solve.harmonics")
    plans = solve_plans(system.offsets[0], system.offsets[1], system.omega_r,
                        constants, classes=classes, harmonics=harmonics)
    text = plans_to_json(plans)
    if args.out:
        def write(path):
            with open(path, "w") as fh:
                fh.write(text + "\n")
        _emit(args.out, "plans.json", write)
    else:
        print(text)
    if not plans:
        print("no solution for the requested classes/harmonics")
    return 0


def cmd_simulate(cfg, args):
    traj, report = _simulate_report(cfg)
    if args.format == "json":
        _emit(args.out, "trajectory.json", lambda path: _write_json(
            path, {"t_s": [float(t) for t in traj.times],
                   "Iz": [float(v) for v in traj.iz], "Sz": [float(v) for v in traj.sz]}))
    else:
        _emit(args.out, "trajectory.csv", traj.to_csv)
    for key in ("fitted_period_s", "analytic_period_s",
                "theta_d_deg_from_period", "max_transfer_fraction"):
        if key in report and report[key] is not None:
            print(f"{key} = {report[key]:.6g}")
    return 0


def cmd_gate(cfg, args):
    system, _, events, steps = build_run(cfg)
    # the CW segments' effective-field z-precession exp(-i T (w_eI I_z + w_eS S_z)) is
    # divided out on the left: it is diagonal, and no invariant sees it
    precession = sum((event.duration * effective_field(dw, event.drive.omega_1).omega_e
                      * spin_operator(k, "z")
                      for event in events if isinstance(event, CWSegment)
                      for k, dw in enumerate(system.offsets)), np.zeros((4, 4), dtype=complex))
    u = np.diag(np.exp(1j * np.diag(precession))) @ extract_gate(system, events, steps)
    g1, g2 = makhlin_invariants(u)
    angles = weyl_coordinates(u)
    report = {
        "unitary": gate_to_json(u),
        "makhlin_g1": [g1.real, g1.imag],
        "makhlin_g2": g2,
        # the verdict tolerance absorbs the second-order shift of the
        # matching condition left when operating at the nominal amplitude
        "locally_equivalent_iswap": bool(locally_equivalent(u, iswap(), tol=2.5e-2)),
        "locally_equivalent_cns": bool(locally_equivalent(u, cns(), tol=2.5e-2)),
        "weyl_coordinates": [angles.theta_x, angles.theta_y, angles.theta_z],
        "universality_class": universality_class(angles, tol=1e-2),
    }
    _emit(args.out, "gate.json", lambda path: _write_json(path, report))
    print(f"makhlin invariants: g1 = {g1.real:.6g}{g1.imag:+.6g}j, g2 = {g2:.6g}")
    print(f"locally equivalent to ISWAP: {report['locally_equivalent_iswap']}")
    return 0


def cmd_spectrum(cfg, args):
    system, _, events, steps = build_run(cfg)
    fid_blk = _block(cfg, "fid")
    if fid_blk:
        dwell = number(_field(fid_blk, "dwell_s", "fid"), "fid.dwell_s", positive=True)
        duration = number(_field(fid_blk, "duration_s", "fid"), "fid.duration_s", 0.0)
        try:  # simulate_fid's check, before the walk
            fid_points(duration, dwell)
        except ValueError as exc:  # the number checks above leave only the point cap
            raise ConfigError(f"fid.duration_s: {exc}") from exc
    rho = basis_state(choice(cfg.get("initial_state", "00"), BASIS_LABELS, "initial_state"))
    if events:
        u = extract_gate(system, events, steps_per_period=steps)
        rho = u @ rho @ u.conj().T
    spectrum = stick_spectrum(rho, system)
    if args.format == "json":
        _emit(args.out, "spectrum.json", lambda path: _write_json(
            path, {"peaks": [[off, amp] for off, amp in spectrum.peaks]}))
    else:
        _emit(args.out, "spectrum.csv", spectrum.to_csv)
    if fid_blk:
        fid = simulate_fid(rho, system, duration, dwell)
        _emit(args.out, "fid.csv", lambda path: fid_to_csv(fid, dwell, path))
    return 0


def cmd_repro(cfg, args):
    name = args.preset
    if name in ("fig3a", "fig3b"):
        traj, report = _simulate_report(cfg)
        _emit(args.out, f"{name}_trajectory.csv", traj.to_csv)
        _emit(args.out, f"{name}_report.json", lambda path: _write_json(path, report))
        if name == "fig3a":
            fitted = (f"{report['fitted_period_s'] * 1e3:.4g} ms"
                      if "fitted_period_s" in report else "none, the fit found no period")
            print(f"fitted period: {fitted} "
                  f"(analytic {report['analytic_period_s'] * 1e3:.4g} ms)")
        else:
            print(f"max transfer: {report['max_transfer_fraction']:.4g}")
        return 0
    report, spectra = run_fig4(cfg)
    for label, spectrum in spectra.items():
        _emit(args.out, f"fig4_{label}_spectrum.csv", spectrum.to_csv)
    _emit(args.out, "fig4_report.json", lambda path: _write_json(path, report))
    print("truth table:", json.dumps(report["truth_table"], sort_keys=True))
    return 0


# --------------------------------------------------------------- top level

def build_parser():
    parser = argparse.ArgumentParser(
        prog="r2tr",
        description="Selective dipolar recoupling simulator: condition "
                    "solving, spin dynamics, gate analysis, and readout.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve, simulate, gate, spectrum = (
        sub.add_parser(name) for name in ("solve", "simulate", "gate", "spectrum"))
    repro = sub.add_parser("repro", help="reproduction presets")
    repro.add_argument("preset", choices=("fig3a", "fig3b", "fig4"))
    for p in (solve, simulate, gate, spectrum):
        p.add_argument("--config", metavar="PATH",
                       help="JSON experiment config (default: built-in "
                            "glycine parameters)")
    for p in (simulate, spectrum):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    for p in (solve, simulate, gate, spectrum, repro):
        p.add_argument("--out", metavar="DIR", default="",
                       help="output directory (default: current directory)")
    for p in (simulate, gate, spectrum, repro):
        p.add_argument("--steps-per-period", type=int, metavar="N",
                       help="integrator steps per rotor period")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flag = getattr(args, "steps_per_period", None) is not None
    try:
        if args.command == "repro":
            cfg = preset_config(args.preset)
        else:
            cfg = load_config(args.config) if args.config else glycine_defaults()
        if flag:
            cfg["integrator"] = dict(_block(cfg, "integrator"),
                                     steps_per_period=args.steps_per_period)
        handler = {"solve": cmd_solve, "simulate": cmd_simulate, "gate": cmd_gate,
                   "spectrum": cmd_spectrum, "repro": cmd_repro}[args.command]
        return handler(cfg, args)
    except (ConfigError, FieldError) as exc:
        # a FieldError names a config field, or a library parameter renamed here
        field = {"sample_every": "sample_every_s", "steps_per_period": "--steps-per-period"
                 if flag else "integrator.steps_per_period"}.get(getattr(exc, "field", None))
        print(f"error: {field}: {exc}" if field else f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
