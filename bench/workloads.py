"""Seeded inputs for the three benchmark workloads.

Every workload is a list of ``Item``s: one CLI command with its JSON config
and the values the benchmark expects from it, computed here from closed
forms rather than by the program under test. The seed changes the physical
parameters (spin rate, rotor phase, geometry, carrier placement, pulses and
their order) but never the amount of work: segment lengths are drawn as
fixed multisets of rotor periods, and the internuclear distance is solved
so that each system's analytic exchange period equals its assigned number
of rotor periods. Runs with different seeds therefore integrate the same
number of steps and stay comparable.

Only the standard library is used, so that a set-up probe can time the
program's own import from a fresh interpreter.
"""

from dataclasses import dataclass, field
import hashlib
import json
import math
import os
import random

WORKLOADS = ("exchange", "gate_circuits", "solve_sweep")

GAMMA_C13 = 6.7283e7  # rad s^-1 T^-1
HBAR = 1.054571817e-34
MU0_OVER_4PI = 1e-7
STEPS_PER_PERIOD = 1024

GLYCINE = {
    "gamma_rad_per_s_per_t": GAMMA_C13,
    "r_angstrom": 1.53,
    "theta_d_deg": 64.0,
    "phi_deg": 0.0,
    "spin_rate_hz": 7884.0,
    "offsets_hz": [2000.0, 18699.0],
}

# exchange: seeded systems per pass, each with this analytic exchange period
# (rotor periods) and simulated for one period; equal lengths put the
# median command inside a group of equal cost
EXCHANGE_SYSTEMS = 5
EXCHANGE_PERIOD = 24
# gate_circuits: CW segments of each seeded circuit, and per segment count
# the exchange period (rotor periods; every CW segment lasts half of it)
CIRCUIT_SEGMENTS = (2, 2, 3, 4)
CIRCUIT_PERIODS = {2: 24, 3: 22, 4: 20}
# gate_circuits: (length in rotor periods, dipolar_on) of the delay after
# each CW segment, fixed per circuit size (a delay without the dipolar term
# is cheaper to integrate) so that every command costs the same for all seeds
CIRCUIT_DELAYS = {2: ((0.41, False), (2.2, True)),
                  3: ((0.23, True), (1.3, False), (2.9, True)),
                  4: ((0.58, False), (0.95, True), (1.75, False), (3.6, True))}
FID_POINTS = 512
# solve_sweep: seeded configs per pass, of which this many are unsatisfiable
SWEEP_SIZE = 16
SWEEP_UNSATISFIABLE = 4
SOLVE_BRACKET = 10.0  # the solver searches amplitudes up to 10 omega_r


@dataclass
class Item:
    """One CLI command of a pass.

    ``config`` is None for a command run on the built-in defaults.
    ``expect`` holds independently computed expectations for the checks.
    A ``fixed`` command (a paper preset or the defaults) is the same for
    every seed.
    """

    name: str
    command: str
    config: dict
    expect: dict = field(default_factory=dict)
    fixed: bool = False
    config_path: str = None

    def reference_key(self, workload, seed):
        """Key of the command's record in reference.json."""
        if self.fixed:
            return f"{workload}/{self.name}"
        return f"{workload}/{seed}/{self.name}"

    def config_sha(self):
        text = json.dumps({"command": self.command, "config": self.config},
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:20]

    def argv(self, out_dir):
        argv = [self.command]
        if self.config_path is not None:
            argv += ["--config", self.config_path]
        return argv + ["--out", out_dir]


# ----------------------------------------------------------- closed forms

def rotor_period(spin_rate_hz):
    """Rotor period (s), with the program's own float operations."""
    return 2.0 * math.pi / (2.0 * math.pi * spin_rate_hz)


def segment_steps(duration_s, spin_rate_hz, steps_per_period=STEPS_PER_PERIOD):
    if duration_s == 0.0:
        return 0
    return max(1, math.ceil(duration_s / rotor_period(spin_rate_hz)
                            * steps_per_period))


def matching_root(delta_i, delta_s, spin_rate, condition_class, m):
    """Amplitude (Hz) meeting a matching condition, solved in closed form.

    Class a: |w_eS - w_eI| = m w_r; class b: w_eI + w_eS = m w_r, with
    w_e = sqrt(delta^2 + w_1^2). Both sides are monotone in w_1, so each
    (class, m) has at most one root; None when there is none.
    """
    big, small = max(abs(delta_i), abs(delta_s)), min(abs(delta_i), abs(delta_s))
    d = m * spin_rate
    if condition_class == "a":
        if big - small <= d:
            return None
        s = (big**2 - small**2 - d**2) / (2.0 * d)
    else:
        if big + small >= d:
            return None
        s = (d**2 + small**2 - big**2) / (2.0 * d)
    return math.sqrt(max(s * s - small * small, 0.0))


def tilt(delta, w1):
    return 0.0 if delta == 0.0 and w1 == 0.0 else math.atan2(w1, delta)


def bq(delta_i, delta_s, w1):
    bi, bs = tilt(delta_i, w1), tilt(delta_s, w1)
    cc = math.cos(bi) * math.cos(bs)
    ss = math.sin(bi) * math.sin(bs)
    return -(1.0 + cc - 2.0 * ss) / 8.0, (1.0 - cc + 2.0 * ss) / 8.0


def omega_full(gamma, r_angstrom):
    return MU0_OVER_4PI * gamma**2 * HBAR / (r_angstrom * 1e-10) ** 3


def fold_theta(theta_deg):
    theta = math.fmod(math.radians(theta_deg), math.pi)
    if theta < 0:
        theta += math.pi
    return math.pi - theta if theta > math.pi / 2 else theta


def harmonic(gamma, r_angstrom, theta_deg, m):
    full = omega_full(gamma, r_angstrom)
    theta = fold_theta(theta_deg)
    if m == 1:
        return math.sqrt(2.0) * full * math.sin(2.0 * theta)
    return full * math.sin(theta) ** 2


def exchange_period(system, condition_class, m, w1_hz):
    """Predicted exchange period (s) of a plan: pi / ((1/2)|B or Q| w_dm)."""
    d_i, d_s = system["offsets_hz"]
    b, q = bq(d_i, d_s, w1_hz)
    factor = abs(b) if condition_class == "a" else abs(q)
    coupling = 0.5 * factor * harmonic(system["gamma_rad_per_s_per_t"],
                                       system["r_angstrom"],
                                       system["theta_d_deg"], m)
    return math.pi / coupling if coupling > 0 else math.inf


def radius_for_period(gamma, theta_deg, b_factor, period_s):
    """Distance (Angstrom) whose class-a m=2 exchange period is period_s."""
    full = 2.0 * math.pi / (period_s * abs(b_factor)
                            * math.sin(fold_theta(theta_deg)) ** 2)
    return (MU0_OVER_4PI * gamma**2 * HBAR / full) ** (1.0 / 3.0) * 1e10


# ------------------------------------------------------------ generators

def base_config(system, amplitude_hz=2339.0, skip_trim=(1,)):
    return {
        "schema_version": 1,
        "system": dict(system),
        "drive": {"amplitude_hz": amplitude_hz, "phase_deg": 0.0,
                  "trim": True, "skip_trim": list(skip_trim)},
        "sequence": [],
        "integrator": {"steps_per_period": STEPS_PER_PERIOD},
        "initial_state": "00",
        "solve": {"classes": ["a", "b"], "harmonics": [1, 2]},
    }


def _on_condition_system(rng, period_rotor, solve_amplitude, name):
    """A glycine-like system on the class-a m=2 condition whose analytic
    exchange period is period_rotor rotor periods.

    Spin rate, rotor phase and theta_D are drawn; the amplitude comes from
    the program's own ``solve`` (``solve_amplitude(name, system)``); the
    distance is solved for the period.
    """
    system = dict(GLYCINE)
    system["spin_rate_hz"] = round(rng.uniform(7600.0, 8200.0), 2)
    system["phi_deg"] = round(rng.uniform(0.0, 360.0), 3)
    system["theta_d_deg"] = round(rng.uniform(58.0, 80.0), 3)
    w1 = solve_amplitude(name, system)
    b, _ = bq(*system["offsets_hz"], w1)
    period = period_rotor * rotor_period(system["spin_rate_hz"])
    system["r_angstrom"] = round(radius_for_period(
        system["gamma_rad_per_s_per_t"], system["theta_d_deg"], b, period), 6)
    analytic = exchange_period(system, "a", 2, w1)
    return system, w1, analytic


def exchange_items(rng, solve_amplitude):
    fig3a = base_config(GLYCINE)
    fig3a["sequence"] = [
        {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
        {"type": "cw", "duration_s": 0.0064113631546533715},
    ]
    fig3b = base_config(GLYCINE, amplitude_hz=8823.0, skip_trim=())
    fig3b["sequence"] = [
        {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
        {"type": "cw", "duration_s": 5e-3},
    ]
    items = [Item("fig3a", "simulate", fig3a,
                  {"on_condition": True,
                   "analytic_period_s": exchange_period(GLYCINE, "a", 2, 2339.0)},
                  fixed=True)]
    for k in range(EXCHANGE_SYSTEMS):
        system, w1, analytic = _on_condition_system(
            rng, EXCHANGE_PERIOD, solve_amplitude, f"exchange{k}")
        cfg = base_config(system, amplitude_hz=w1)
        cfg["sequence"] = [
            {"type": "pulse", "targets": [0], "axis": "x", "angle_deg": 180.0},
            {"type": "cw", "duration_s": EXCHANGE_PERIOD
             * rotor_period(system["spin_rate_hz"])},
        ]
        items.append(Item(f"exchange{k}", "simulate", cfg,
                          {"on_condition": True, "analytic_period_s": analytic}))
    items.append(Item("fig3b", "simulate", fig3b, {"on_condition": False},
                      fixed=True))
    return items


def _random_pulse(rng):
    return {"type": "pulse", "targets": rng.choice([[0], [1], [0, 1]]),
            "axis": rng.choice(["x", "y"]),
            "angle_deg": round(rng.uniform(30.0, 180.0), 3)}


def _fid_block(rng):
    dwell = round(rng.uniform(10e-6, 40e-6), 9)
    return {"duration_s": FID_POINTS * dwell, "dwell_s": dwell}


def gate_items(rng, solve_amplitude):
    items = []
    # the fig4 circuit: half an exchange period at the glycine operating
    # point, read out from every basis state (the truth table)
    fig4 = base_config(GLYCINE)
    fig4["sequence"] = [{"type": "cw", "duration_s": 1.59511e-3}]
    fig4["fid"] = {"duration_s": FID_POINTS * 20e-6, "dwell_s": 20e-6}
    items.append(Item("fig4.gate", "gate", fig4, fixed=True))
    for label in ("00", "01", "10", "11"):
        cfg = json.loads(json.dumps(fig4))
        cfg["initial_state"] = label
        items.append(Item(f"fig4.spectrum{label}", "spectrum", cfg,
                          {"gate": "fig4.gate", "fid_points": FID_POINTS},
                          fixed=True))

    counts = list(CIRCUIT_SEGMENTS)
    rng.shuffle(counts)
    for k, n_seg in enumerate(counts):
        system, w1, analytic = _on_condition_system(
            rng, CIRCUIT_PERIODS[n_seg], solve_amplitude, f"circuit{k}")
        t_r = rotor_period(system["spin_rate_hz"])
        delays = list(CIRCUIT_DELAYS[n_seg])
        rng.shuffle(delays)
        sequence = [_random_pulse(rng)]
        for s in range(n_seg):
            if s:
                sequence.append(_random_pulse(rng))
            sequence.append({"type": "cw", "duration_s": 0.5 * analytic})
            length, dipolar_on = delays.pop()
            sequence.append({"type": "delay", "duration_s": length * t_r,
                             "dipolar_on": dipolar_on})
        cfg = base_config(system, amplitude_hz=w1)
        cfg["sequence"] = sequence
        cfg["initial_state"] = rng.choice(["00", "01", "10", "11"])
        cfg["fid"] = _fid_block(rng)
        items.append(Item(f"circuit{k}.gate", "gate", cfg))
        items.append(Item(f"circuit{k}.spectrum", "spectrum", cfg,
                          {"gate": f"circuit{k}.gate",
                           "fid_points": FID_POINTS}))
    return items


def _sweep_system(rng, unsatisfiable):
    """One solve config; an unsatisfiable one puts the carrier near the
    midpoint of a pair whose shift difference exceeds 2 w_r."""
    if unsatisfiable:
        spin = rng.uniform(4500.0, 6500.0)
        diff = rng.uniform(14000.0, 19000.0)
        carrier = rng.uniform(-0.45, 0.45) * spin
    else:
        spin = rng.uniform(5000.0, 15000.0)
        diff = rng.uniform(12000.0, 20000.0)
        carrier = rng.uniform(-1.5, 1.5) * diff
    system = dict(GLYCINE)
    system["spin_rate_hz"] = round(spin, 2)
    system["offsets_hz"] = [round(carrier - 0.5 * diff, 2),
                            round(carrier + 0.5 * diff, 2)]
    system["r_angstrom"] = round(rng.uniform(1.4, 1.7), 4)
    system["theta_d_deg"] = round(rng.uniform(20.0, 90.0), 3)
    system["phi_deg"] = round(rng.uniform(0.0, 360.0), 3)
    return system


def sweep_roots(system):
    """Closed-form roots per (class, m) inside the solver's bracket
    [0, 10 w_r], or None when a root sits so close to either end of the
    bracket that whether the solver finds it is ill-posed."""
    d_i, d_s = system["offsets_hz"]
    spin = system["spin_rate_hz"]
    upper = SOLVE_BRACKET * spin
    roots = {}
    for cls in ("a", "b"):
        for m in (1, 2):
            w1 = matching_root(d_i, d_s, spin, cls, m)
            if w1 is not None and (w1 < 1e-3 * spin
                                   or 0.98 * upper < w1 < 1.02 * upper):
                return None
            roots[f"{cls}{m}"] = [] if w1 is None or w1 > upper else [w1]
    return roots


def solve_items(rng):
    items = [Item("default", "solve", None,
                  {"system": GLYCINE, "roots": sweep_roots(GLYCINE)},
                  fixed=True)]
    kinds = [True] * SWEEP_UNSATISFIABLE + [False] * (SWEEP_SIZE
                                                       - SWEEP_UNSATISFIABLE)
    rng.shuffle(kinds)
    for k, unsatisfiable in enumerate(kinds):
        while True:
            system = _sweep_system(rng, unsatisfiable)
            roots = sweep_roots(system)
            if roots is not None:
                break
        cfg = base_config(system)
        items.append(Item(f"sweep{k}", "solve", cfg,
                          {"system": system, "roots": roots}))
    return items


def generate(workload, seed, solve_amplitude, input_dir):
    """Build a workload's items for a seed and write their configs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exchange":
        items = exchange_items(rng, solve_amplitude)
    elif workload == "gate_circuits":
        items = gate_items(rng, solve_amplitude)
    elif workload == "solve_sweep":
        items = solve_items(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(input_dir, exist_ok=True)
    for item in items:
        if item.config is None:
            continue
        item.config_path = os.path.join(input_dir, f"{item.name}.json")
        with open(item.config_path, "w") as fh:
            json.dump(item.config, fh, indent=2, sort_keys=True)
    return items


def stated_size(items):
    """Rotor periods and integrator steps one pass asks for (from configs)."""
    periods = 0.0
    steps = 0
    for item in items:
        if item.config is None or item.command == "solve":
            continue
        spin = item.config["system"]["spin_rate_hz"]
        for ev in item.config["sequence"]:
            if ev["type"] in ("cw", "delay"):
                periods += ev["duration_s"] / rotor_period(spin)
                steps += segment_steps(ev["duration_s"], spin)
    return {"commands": len(items), "rotor_periods": round(periods, 3),
            "steps": steps}
