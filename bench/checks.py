"""Correctness gate for every benchmark command.

Each command's output files are parsed and checked three ways:

* exactly: exit code 0, truth-table labels, plan counts per (class, m),
  universality class and the local-equivalence verdicts;
* against expectations computed independently in ``workloads`` (closed-form
  matching roots and exchange periods, trajectory bounds, gate unitarity,
  readout peaks predicted from the same circuit's gate matrix);
* against the stored references in ``reference.json``, within the
  tolerances below, when the command has a record there and its generated
  config is the one the record was made from.

Trajectories are compared through their fitted period, never sample by
sample, because an engine that lands samples on exact multiples of the
sampling interval moves them by up to one integrator step.

Only the standard library is used (see ``workloads``).
"""

import cmath
import json
import math
import os

from workloads import exchange_period

GATE_TOL = 1e-8  # gate-matrix elements and readout amplitudes
PERIOD_RTOL = 1e-3  # fitted exchange period, relative
TRANSFER_TOL = 1e-3  # off-condition transfer fraction, absolute
RESIDUAL_RTOL = 1e-6  # plan residual, as a share of the spin rate
ROOT_RTOL = 1e-6  # plan amplitude against the closed form, share of w_r
PLAN_PERIOD_RTOL = 1e-6  # plan exchange period against the closed form
BOUND_TOL = 1e-9  # |Iz|, |Sz| <= 0.5 + this; |peak| <= 1 + this
UNITARY_TOL = 1e-9
ANALYTIC_RTOL = 1e-4  # printed analytic period vs the closed form
FIT_VS_ANALYTIC = 0.06  # fitted period vs analytic, on condition
MIN_TRANSFER_ON = 0.8
MAX_TRANSFER_OFF = 0.05
CLASSIFY_THRESHOLD = 0.2
UNIVERSALITY = ("non-entangling", "excluded-swap-class", "universal")


def _rows(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    return [[float(x) for x in line.split(",")] for line in lines[1:] if line]


def _stdout_values(text):
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = float(value)
    return values


def parse(item, outcome):
    """Read a command's outputs into plain values (raises on bad files)."""
    out = outcome["out_dir"]
    if item.command == "simulate":
        values = _stdout_values(outcome["stdout"])
        return {"trajectory": _rows(os.path.join(out, "trajectory.csv")),
                "fitted_period_s": values.get("fitted_period_s"),
                "analytic_period_s": values.get("analytic_period_s"),
                "max_transfer_fraction": values.get("max_transfer_fraction")}
    if item.command == "gate":
        with open(os.path.join(out, "gate.json")) as fh:
            gate = json.load(fh)
        gate["matrix"] = [[complex(re, im) for re, im in row]
                          for row in gate["unitary"]]
        return gate
    if item.command == "spectrum":
        return {"peaks": _rows(os.path.join(out, "spectrum.csv")),
                "fid": _rows(os.path.join(out, "fid.csv"))}
    with open(os.path.join(out, "plans.json")) as fh:
        return {"plans": json.load(fh)}


def _label(amplitudes):
    if any(abs(a) < CLASSIFY_THRESHOLD for a in amplitudes):
        return None
    return "".join("0" if a > 0 else "1" for a in amplitudes)


def _amplitude(item):
    return item.config["drive"]["amplitude_hz"] if item.config else None


def reference_record(item, parsed):
    """The values stored in reference.json for one command, with the hash
    of the config they came from."""
    record = {"config_sha": item.config_sha(), "amplitude_hz": _amplitude(item)}
    if item.command == "simulate":
        record.update(fitted_period_s=parsed["fitted_period_s"],
                      max_transfer_fraction=parsed["max_transfer_fraction"])
    elif item.command == "gate":
        record.update({key: parsed[key] for key in
                       ("unitary", "universality_class",
                        "locally_equivalent_iswap", "locally_equivalent_cns")})
    elif item.command == "spectrum":
        amps = [amp for _, amp in parsed["peaks"]]
        record.update(peaks=amps, label=_label(amps),
                      fid_head=[row[1:] for row in parsed["fid"][:4]],
                      fid_tail=[row[1:] for row in parsed["fid"][-4:]])
    else:
        record["plans"] = [[p["condition_class"], p["m"], p["omega_1_hz"]]
                           for p in parsed["plans"]]
    return record


# ------------------------------------------------------------- invariants

def _finite(values):
    return all(math.isfinite(v) for v in values)


def _check_simulate(item, parsed):
    bad = []
    rows = parsed["trajectory"]
    if len(rows) < 2:
        bad.append(f"trajectory has {len(rows)} samples")
    for t, iz, sz in rows:
        if not _finite((t, iz, sz)):
            bad.append("trajectory has a non-finite value")
            break
        if max(abs(iz), abs(sz)) > 0.5 + BOUND_TOL:
            bad.append(f"|Iz| or |Sz| exceeds 0.5 at t = {t}")
            break
    transfer = parsed["max_transfer_fraction"]
    if transfer is None:
        return bad + ["no max_transfer_fraction printed"]
    if not item.expect["on_condition"]:
        if transfer >= MAX_TRANSFER_OFF:
            bad.append(f"off-condition transfer {transfer} >= {MAX_TRANSFER_OFF}")
        return bad
    fitted, analytic = parsed["fitted_period_s"], parsed["analytic_period_s"]
    expected = item.expect["analytic_period_s"]
    if fitted is None or analytic is None:
        return bad + ["no fitted or analytic period printed"]
    if abs(analytic / expected - 1.0) > ANALYTIC_RTOL:
        bad.append(f"analytic period {analytic} != closed form {expected}")
    if abs(fitted / analytic - 1.0) > FIT_VS_ANALYTIC:
        bad.append(f"fitted period {fitted} is not within "
                   f"{FIT_VS_ANALYTIC:.0%} of analytic {analytic}")
    if transfer < MIN_TRANSFER_ON:
        bad.append(f"on-condition transfer {transfer} < {MIN_TRANSFER_ON}")
    return bad


def _unitarity_error(u):
    n = len(u)
    return max(abs(sum(u[k][i].conjugate() * u[k][j] for k in range(n))
                   - (1.0 if i == j else 0.0))
               for i in range(n) for j in range(n))


def _check_gate(item, parsed):
    bad = []
    u = parsed["matrix"]
    if len(u) != 4 or any(len(row) != 4 for row in u):
        return ["gate matrix is not 4x4"]
    if not all(cmath.isfinite(x) for row in u for x in row):
        return ["gate matrix has a non-finite element"]
    err = _unitarity_error(u)
    if err > UNITARY_TOL:
        bad.append(f"gate matrix is not unitary (deviation {err:.2e})")
    if parsed["universality_class"] not in UNIVERSALITY:
        bad.append(f"unknown universality class {parsed['universality_class']!r}")
    if not _finite(parsed["weyl_coordinates"]):
        bad.append("non-finite Weyl coordinates")
    return bad


def predicted_peaks(u, label):
    """2<Iz>, 2<Sz> after u acts on a basis state; a left z rotation (the
    precession ``gate`` divides out) leaves these populations unchanged."""
    j = int(label, 2)
    pops = [abs(u[i][j]) ** 2 for i in range(4)]
    peak_i = sum(p * (1 if i < 2 else -1) for i, p in enumerate(pops))
    peak_s = sum(p * (1 if i % 2 == 0 else -1) for i, p in enumerate(pops))
    return [peak_i, peak_s]


def _check_spectrum(item, parsed, gate):
    bad = []
    peaks = parsed["peaks"]
    offsets = item.config["system"]["offsets_hz"]
    if len(peaks) != 2:
        return [f"spectrum has {len(peaks)} peaks"]
    for (off, amp), expected_off in zip(peaks, offsets):
        if not _finite((off, amp)) or abs(amp) > 1.0 + BOUND_TOL:
            bad.append(f"peak amplitude {amp} is not finite or exceeds 1")
        if abs(off - expected_off) > 1e-6 * max(1.0, abs(expected_off)):
            bad.append(f"peak offset {off} Hz != {expected_off} Hz")
    fid = parsed["fid"]
    if len(fid) != item.expect["fid_points"]:
        bad.append(f"FID has {len(fid)} points, expected "
                   f"{item.expect['fid_points']}")
    if not all(_finite(row) and math.hypot(row[1], row[2]) <= 1.0 + BOUND_TOL
               for row in fid):
        bad.append("FID point is not finite or exceeds 1")
    if gate is None:
        bad.append("no gate output of the same circuit to compare with")
    else:
        expected = predicted_peaks(gate["matrix"], item.config["initial_state"])
        diff = max(abs(a - b) for (_, a), b in zip(peaks, expected))
        if diff > GATE_TOL:
            bad.append(f"peaks differ from the circuit's gate matrix by {diff:.2e}")
    return bad


def _check_solve(item, parsed):
    bad = []
    system = item.expect["system"]
    spin = system["spin_rate_hz"]
    plans = parsed["plans"]
    for key, roots in item.expect["roots"].items():
        cls, m = key[0], int(key[1])
        found = sorted(p["omega_1_hz"] for p in plans
                       if p["condition_class"] == cls and p["m"] == m)
        if len(found) != len(roots):
            bad.append(f"class {cls} m={m}: {len(found)} plans, closed form "
                       f"has {len(roots)}")
            continue
        for w1, root in zip(found, roots):
            if abs(w1 - root) > ROOT_RTOL * spin:
                bad.append(f"class {cls} m={m}: amplitude {w1} Hz != "
                           f"closed form {root} Hz")
    d_i, d_s = system["offsets_hz"]
    for p in plans:
        if abs(p["residual_hz"]) >= RESIDUAL_RTOL * spin:
            bad.append(f"plan residual {p['residual_hz']} Hz >= 1e-6 w_r")
        if (abs(p["delta_i_hz"] - d_i) > 1e-6 * max(1.0, abs(d_i))
                or abs(p["delta_s_hz"] - d_s) > 1e-6 * max(1.0, abs(d_s))):
            bad.append("plan offsets differ from the config")
        expected = exchange_period(system, p["condition_class"], p["m"],
                                   p["omega_1_hz"])
        got = p["exchange_period_s"]
        if not (got == expected or abs(got / expected - 1.0) <= PLAN_PERIOD_RTOL):
            bad.append(f"plan exchange period {got} s != closed form {expected} s")
    return bad


# ------------------------------------------------------------- references

def _close(a, b, tol):
    return abs(a - b) <= tol


def compare_reference(item, record, ref):
    """Failures of a command's reference record against the stored one."""
    if record["config_sha"] != ref["config_sha"]:
        # the seeded amplitudes are pinned to the stored ones while the
        # program's solve agrees with them (see run.amplitude_solver)
        if record["amplitude_hz"] != ref["amplitude_hz"]:
            return [f"solve amplitude {record['amplitude_hz']} Hz is not "
                    f"within 1e-6 w_r of the reference's {ref['amplitude_hz']} Hz"]
        return ["the generated config differs from the reference's"]
    bad = []
    if item.command == "simulate":
        if item.expect["on_condition"]:
            a, b = record["fitted_period_s"], ref["fitted_period_s"]
            if a is None or abs(a / b - 1.0) > PERIOD_RTOL:
                bad.append(f"fitted period {a} s differs from reference {b} s")
        elif not _close(record["max_transfer_fraction"],
                        ref["max_transfer_fraction"], TRANSFER_TOL):
            bad.append("off-condition transfer differs from reference")
    elif item.command == "gate":
        diff = max(abs(complex(*x) - complex(*y))
                   for row_a, row_b in zip(record["unitary"], ref["unitary"])
                   for x, y in zip(row_a, row_b))
        if diff > GATE_TOL:
            bad.append(f"gate matrix differs from reference by {diff:.2e}")
        for key in ("universality_class", "locally_equivalent_iswap",
                    "locally_equivalent_cns"):
            if record[key] != ref[key]:
                bad.append(f"{key} {record[key]!r} != reference {ref[key]!r}")
    elif item.command == "spectrum":
        if record["label"] != ref["label"]:
            bad.append(f"truth-table label {record['label']!r} != reference "
                       f"{ref['label']!r}")
        pairs = list(zip(record["peaks"], ref["peaks"]))
        for key in ("fid_head", "fid_tail"):
            pairs += [(complex(*x), complex(*y))
                      for x, y in zip(record[key], ref[key])]
        diff = max(abs(a - b) for a, b in pairs)
        if diff > GATE_TOL:
            bad.append(f"readout differs from reference by {diff:.2e}")
    else:
        got, want = record["plans"], ref["plans"]
        if [p[:2] for p in got] != [p[:2] for p in want]:
            bad.append("plan classes/harmonics differ from reference")
        elif any(abs(a[2] - b[2]) > ROOT_RTOL * item.expect["system"]["spin_rate_hz"]
                 for a, b in zip(got, want)):
            bad.append("plan amplitudes differ from reference")
    return bad


def load_reference(path):
    with open(path) as fh:
        return json.load(fh)


def check_pass(workload, seed, items, outcomes, reference):
    """Check every command of one pass; return {item name: [failures]}.

    ``outcomes`` maps item names to dicts with ``rc``, ``error``,
    ``out_dir`` and ``stdout``. A command fails when it did not exit 0,
    its outputs do not parse, or any check fails.
    """
    stored = reference["items"]
    reference_seed = seed in reference["seeds"].get(workload, [])
    parsed = {}
    failures = {}
    for item in items:
        outcome = outcomes[item.name]
        bad = []
        if outcome["error"] is not None:
            bad.append(outcome["error"])
        elif outcome["rc"] != 0:
            bad.append(f"exit code {outcome['rc']}")
        else:
            try:
                parsed[item.name] = parse(item, outcome)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad.append(f"unreadable output: {exc!r}")
        if not bad:
            p = parsed[item.name]
            if item.command == "simulate":
                bad += _check_simulate(item, p)
            elif item.command == "gate":
                bad += _check_gate(item, p)
            elif item.command == "spectrum":
                bad += _check_spectrum(item, p, parsed.get(item.expect["gate"]))
            else:
                bad += _check_solve(item, p)
            ref = stored.get(item.reference_key(workload, seed))
            if ref is not None:
                bad += compare_reference(item, reference_record(item, p), ref)
            elif ((item.fixed and stored)
                  or (reference_seed and item.command != "solve")):
                bad.append("no stored reference: the generated commands "
                           "changed")
        failures[item.name] = bad
    return failures

