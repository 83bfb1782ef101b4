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
from .hamiltonian import dipolar_constants
from .operators import BASIS_LABELS, SPINS, SpinSystem, basis_state
from .propagator import (DEFAULT_STEPS_PER_PERIOD, MAX_STEPS_PER_PERIOD, CWSegment,
                         Delay, IdealRotation, RFDrive, extract_gate, run_sequence)
from .readout import classify_state, fid_points, fid_to_csv, simulate_fid, stick_spectrum
from .recoupling import (brentq, operating_point, plans_to_json, solve_plans,
                         theta_from_period)
from .units import (GAMMA_C13, HBAR, MU0_OVER_4PI, TWO_PI, FieldError, deg_to_rad,
                    hz_to_angular, number, ppm_to_hz, rad_to_deg)

SCHEMA_VERSION = 1
# size limits, checked before anything is allocated: integrator steps of one
# CW or delay segment and points of an FID, by readout.fid_points (the
# samples of a trajectory are bounded by propagator.MAX_SAMPLES)
MAX_SEGMENT_STEPS = 2**20
# angular frequencies of the period fit's scan over [0.5, 1.5] of the guess
FIT_SCAN_POINTS = 101
# the period fit's scan projects its frequencies in chunks of at most this many
# frequencies times window samples (a chunk holds about five such float arrays);
# a longer window takes one frequency at a time
FIT_SCAN_ELEMENTS = 2**11


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
        return _number(value, f"system.{key}")

    def offsets(key):
        values = blk[key]
        if not (isinstance(values, list) and len(values) == 2):
            raise ConfigError(f"system.{key} must list the I and S offsets, got {values!r}")
        return [_number(v, f"system.{key}[{k}]") for k, v in enumerate(values)]

    gamma = scalar("gamma_rad_per_s_per_t", GAMMA_C13)
    has_r = "r_angstrom" in blk
    has_coupling = "coupling_hz" in blk
    if has_r == has_coupling:
        raise ConfigError("system block needs exactly one of 'r_angstrom' or 'coupling_hz'")
    if has_r:
        r_key, r = "r_angstrom", scalar("r_angstrom") * 1e-10
    else:
        r_key = "coupling_hz"
        r = _radius_from_coupling(gamma, _number(blk[r_key], "system.coupling_hz", positive=True))
    if "offsets_hz" in blk:
        key = "offsets_hz"
        offsets_hz = offsets(key)
    elif "offsets_ppm" in blk:
        if "carrier_mhz" not in blk:
            raise ConfigError("'offsets_ppm' requires 'carrier_mhz'")
        key = "offsets_ppm"
        carrier = _number(blk["carrier_mhz"], "system.carrier_mhz", positive=True)
        offsets_hz = [ppm_to_hz(p, carrier) for p in offsets(key)]
    else:
        raise ConfigError("system block needs 'offsets_hz' or 'offsets_ppm'")
    theta_d = deg_to_rad(scalar("theta_d_deg", 0.0))
    phi = deg_to_rad(scalar("phi_deg", 0.0))
    omega_r = hz_to_angular(_number(_field(blk, "spin_rate_hz", "system"),
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


def _number(value, field, minimum=-math.inf, positive=False):
    """`units.number` of a config value, its ValueError a ConfigError."""
    try:
        return number(value, field, minimum, positive)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _angular(hz, field):
    """hz_to_angular(hz) of a config frequency; a result that overflows to
    infinity raises a ConfigError naming `field`."""
    omega = hz_to_angular(hz)
    if not math.isfinite(omega):
        raise ConfigError(f"{field} is {hz:g} Hz, or {omega:g} rad/s; it must be finite")
    return omega


def _choice(value, allowed, field):
    """value, if it is one of `allowed` and of its type (true is not 1, nor
    is 1.0); anything else raises a ConfigError naming `field`."""
    if (type(value), value) not in [(type(a), a) for a in allowed]:
        raise ConfigError(f"{field} must be one of {json.dumps(allowed)}, got {value!r}")
    return value


def _choices(values, allowed, field):
    """A list of `_choice` values, as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{field} must be a list, got {values!r}")
    return tuple(_choice(v, allowed, f"{field}[{k}]") for k, v in enumerate(values))


def build_drive(cfg):
    if "drive" not in cfg:
        return None
    blk = _block(cfg, "drive")
    amplitude = _number(_field(blk, "amplitude_hz", "drive"), "drive.amplitude_hz", 0.0)
    phase = _number(blk.get("phase_deg", 0.0), "drive.phase_deg")
    return RFDrive(omega_1=_angular(amplitude, "drive.amplitude_hz"), phase=deg_to_rad(phase))


def build_events(cfg, drive):
    """Event list from the config's sequence block; CW events use `drive`
    (the config's `build_drive`, None without a drive block).

    A missing field, an event that is not an object, an angle or duration
    that is not a finite number (or is negative), or a bad drive.trim or
    drive.skip_trim raises a ConfigError that names the field. The event
    types check spin indices, target lists, axes and flags: their ValueError
    becomes a ConfigError naming the field, e.g. sequence[0].axis.
    """
    drive_blk = _block(cfg, "drive")
    trim = _choice(drive_blk.get("trim", True), (True, False), "drive.trim")
    skip_trim = _choices(drive_blk.get("skip_trim", ()), SPINS, "drive.skip_trim")
    events = []
    for k, ev in enumerate(_block(cfg, "sequence", list)):
        where = f"sequence[{k}]"
        if not isinstance(ev, dict):
            raise ConfigError(f"{where} must be an object, got {ev!r}")
        kind = ev.get("type")
        if kind in ("cw", "delay"):
            duration = _number(_field(ev, "duration_s", where),
                               f"{where}.duration_s", 0.0)
        if kind == "pulse":
            angle = deg_to_rad(_number(_field(ev, "angle_deg", where), f"{where}.angle_deg"))
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
    """(system, drive, events, steps per period) of a config; a CW or delay
    segment of more than MAX_SEGMENT_STEPS integrator steps raises a
    ConfigError naming its sequence[k].duration_s."""
    system = build_system(cfg)
    drive = build_drive(cfg)
    events = build_events(cfg, drive)
    steps = _steps_per_period(cfg)
    for k, event in enumerate(events):
        if isinstance(event, IdealRotation):
            continue
        # the segment takes up to ceil(x) + 1 steps, which are bounded by
        # bounding x; x may overflow to inf, where ceil would raise
        x = event.duration / system.rotor_period * steps
        if x > MAX_SEGMENT_STEPS:
            raise ConfigError(
                f"sequence[{k}].duration_s = {event.duration:g} s needs {x:.4g} "
                f"integrator steps at {steps} per rotor period; at most "
                f"{MAX_SEGMENT_STEPS} are allowed")
    return system, drive, events, steps


def _steps_per_period(cfg, field="integrator.steps_per_period"):
    """integrator.steps_per_period, a whole number from 1 to MAX_STEPS_PER_PERIOD;
    a ConfigError names `field`, --steps-per-period if the flag set it."""
    value = _block(cfg, "integrator").get("steps_per_period", DEFAULT_STEPS_PER_PERIOD)
    if not 1 <= _number(value, field) == int(value) <= MAX_STEPS_PER_PERIOD:
        raise ConfigError(f"{field} must be a whole number from 1 to "
                          f"{MAX_STEPS_PER_PERIOD}, got {value!r}")
    return int(value)


# --------------------------------------------------------------- analysis

@dataclass(frozen=True)
class PeriodFit:
    """Least-squares cosine fit a + b cos(2 pi t / period + phase)."""

    period: float
    amplitude: float  # peak-to-peak swing, 2|b|
    offset: float
    phase: float


def fit_exchange_period(times, values, period_guess):
    """Fit a sinusoid to an exchange trajectory and return its period.

    The fit window is two predicted periods (if it holds 8 samples). The fit
    is by variable projection: at a fixed angular frequency w the model a + p
    cos(wt) + q sin(wt) is linear, and its best sum of squares S(w) is, in
    closed form, what the centred values keep off the centred cos(wt) and
    sin(wt), made orthogonal by Gram-Schmidt. S is scanned over [0.5, 1.5] 2
    pi/period_guess, and the best w is refined to the root of dS/dw next to
    the scan's minimum: of the scanned w within roundoff of the least S (exact
    aliases of the samples), the one nearest the guess. dS/dw is taken on one
    frequency's row by the scan's sums, and its p and q at the root are the
    fit's. Raises RuntimeError when there is no fit: fewer samples than the
    four model parameters, or no minimum inside the scan.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 4:
        raise RuntimeError(f"a cosine fit needs at least 4 samples, got {len(times)}")
    mask = times <= 2.0 * period_guess + 1e-12
    if mask.sum() >= 8:
        times, values = times[mask], values[mask]
    centred = values - (mean := values.mean())

    def project(w):
        # S per frequency in w, from row-wise sums of the centred columns c
        # and s, with s less its part along c
        columns = np.stack((np.cos(wt := np.multiply.outer(w, times)), np.sin(wt)))
        columns -= (np.einsum("kij->ki", columns) / len(times))[:, :, None]
        cos, sin = columns
        cc, sc = np.einsum("ij,kij->ki", cos, columns)
        cc = np.maximum(cc, math.ulp(0.0))  # a zero column's sums are 0: it takes no part
        sin -= (sc / cc)[:, None] * cos
        ss = np.maximum(np.einsum("ij,ij->i", sin, sin), math.ulp(0.0))
        vc, vs = np.einsum("kij,j->ki", columns, centred)
        return centred @ centred - vc * (vc / cc) - vs * (vs / ss)

    def slope(w):
        # dS/dw at w's least-squares coefficients, whose own derivatives drop
        # out; the coefficients by `project`'s sums on w's row alone, recorded
        cos, sin = np.cos(wt := w * times), np.sin(wt)
        mc, ms = np.einsum("i->", cos) / len(times), np.einsum("i->", sin) / len(times)
        c, s = cos - mc, sin - ms
        cc = max(np.einsum("i,i->", c, c), math.ulp(0.0))
        s -= (along := np.einsum("i,i->", c, s) / cc) * c
        q = np.einsum("i,i->", s, centred) / max(np.einsum("i,i->", s, s), math.ulp(0.0))
        fits[w] = (p := np.einsum("i,i->", c, centred) / cc - q * along), q, mc, ms
        return float((p * (cos - mc) + q * (sin - ms) - centred) @ (times * (q * cos - p * sin)))

    scan = np.linspace(0.5, 1.5, FIT_SCAN_POINTS) * (TWO_PI / period_guess)
    chunk = max(1, FIT_SCAN_ELEMENTS // len(times))
    scanned = np.concatenate([project(scan[i:i + chunk]) for i in range(0, len(scan), chunk)])
    # exact aliases fit equally well, each S at a roundoff of eps |centred|^2:
    # of the frequencies within 64 times that of the least S, the one nearest the guess
    near = np.flatnonzero(scanned <= scanned.min() + 64.0 * math.ulp(1.0) * (centred @ centred))
    k = int(near[np.argmin(abs(near - len(scan) // 2))])
    if k in (0, len(scan) - 1):
        raise RuntimeError("no cosine fit: the best frequency is at the edge of the scan")
    fits = {}  # (p, q, mc, ms) at each w that `slope` takes, brentq's root among them
    ends = {(lo := scan[k - 1]): slope(lo), (hi := scan[k + 1]): slope(hi)}
    if not ends[lo] < 0.0 < ends[hi]:
        raise RuntimeError("no cosine fit: no minimum next to the best scanned frequency")
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
    sample_every = (_number(cfg.get("sample_every_s", 0.0), "sample_every_s", 0.0)
                    or system.rotor_period)
    initial = basis_state(_choice(cfg.get("initial_state", "00"), BASIS_LABELS, "initial_state"))
    try:
        traj = run_sequence(initial, system, events, sample_every, steps_per_period=steps)
    except FieldError as exc:  # too many samples, counted before any is taken
        if exc.field != "sample_every":
            raise
        raise ConfigError(f"sample_every_s: {exc}") from exc
    report = {"max_transfer_fraction": transfer_fraction(traj)}
    cw = drive is not None and any(isinstance(e, CWSegment) for e in events)
    point = analytic_point(system, drive) if cw else None
    # a pair along the spinning axis is never recoupled: no period to fit
    if point is not None and math.isfinite(point.exchange_period):
        report["analytic_period_s"] = point.exchange_period
        try:
            fit = fit_exchange_period(traj.times, traj.iz, point.exchange_period)
        except RuntimeError:
            fit = None
        # <I_z> lies in [-1/2, 1/2], so a real swing is at most 1
        if fit is not None and 0.05 < fit.amplitude <= 1.0:
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
    """Truth table: prepare each basis state, evolve half a period, classify."""
    steps = _steps_per_period(cfg)
    fit_cfg = preset_config("fig3a")
    fit_cfg["integrator"] = {"steps_per_period": steps}
    _, fit_report = _simulate_report(fit_cfg)
    if "fitted_period_s" not in fit_report:
        raise ValueError(f"fig4 needs the period of the fig3a fit, which found "
                         f"none at {steps} steps per period")
    half_period = 0.5 * fit_report["fitted_period_s"]

    system, _, events, _ = build_run(dict(cfg, sequence=[
        {"type": "cw", "duration_s": half_period}]))
    gate = extract_gate(system, events, steps_per_period=steps)

    table = {}
    spectra = {}
    for label in BASIS_LABELS:
        rho = basis_state(label)
        rho = gate @ rho @ gate.conj().T
        spectrum = stick_spectrum(rho, system)
        spectra[label] = spectrum
        table[label] = classify_state(spectrum)
    report = {
        "truth_table": table,
        "half_period_s": half_period,
        "half_period_nominal_s": 1.6e-3,
        "fitted_period_s": fit_report["fitted_period_s"],
        "peak_amplitudes": {label: [[off, amp] for off, amp in sp.peaks]
                            for label, sp in spectra.items()},
    }
    return report, spectra


# ------------------------------------------------------------ subcommands

def _emit(out_dir, name, write):
    """write(path) of the file `name` in out_dir (made if missing; the
    current directory if empty), then announce the path."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write(path)
    print(f"wrote {path}")


def cmd_solve(cfg, args):
    system = build_system(cfg)
    constants = dipolar_constants(system.gamma, system.r, system.theta_d)
    solve_blk = _block(cfg, "solve")
    classes = _choices(solve_blk.get("classes", ("a", "b")), ("a", "b"), "solve.classes")
    harmonics = _choices(solve_blk.get("harmonics", (1, 2)), (1, 2), "solve.harmonics")
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
    u = extract_gate(system, events, steps_per_period=steps, remove_effective_precession=True)
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
        dwell = _number(_field(fid_blk, "dwell_s", "fid"), "fid.dwell_s", positive=True)
        duration = _number(_field(fid_blk, "duration_s", "fid"), "fid.duration_s", 0.0)
        try:  # simulate_fid's check, before the walk
            fid_points(duration, dwell)
        except ValueError as exc:  # the number checks above leave only the point cap
            raise ConfigError(f"fid.duration_s: {exc}") from exc
    rho = basis_state(_choice(cfg.get("initial_state", "00"), BASIS_LABELS, "initial_state"))
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
    try:
        if args.command == "repro":
            cfg = preset_config(args.preset)
        else:
            cfg = load_config(args.config) if args.config else glycine_defaults()
        if getattr(args, "steps_per_period", None) is not None:
            cfg["integrator"] = dict(_block(cfg, "integrator"),
                                     steps_per_period=args.steps_per_period)
            _steps_per_period(cfg, "--steps-per-period")
        handler = {"solve": cmd_solve, "simulate": cmd_simulate, "gate": cmd_gate,
                   "spectrum": cmd_spectrum, "repro": cmd_repro}[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
