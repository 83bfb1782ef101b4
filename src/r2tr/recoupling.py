"""Solving and scoring the tilted-frame recoupling conditions.

Condition class 'a' (flip-flop) matches the difference of the two
effective-field frequencies to a rotor harmonic, class 'b' (flop-flop)
their sum. The carrier placement (hence the offsets) is treated as given
and the RF amplitude in [0, 10 omega_r] is solved for in closed form; a
sweep over carrier placement can be layered on top by the caller.
"""

from dataclasses import dataclass, asdict
import json
import math
from typing import NamedTuple

from .hamiltonian import bq_factors, effective_field
from .units import angular_to_hz, number

SOLVER_REL_TOL = 1e-6
BRACKET_FACTOR = 10.0  # no amplitude above 10 * omega_r is returned
# brentq's relative x tolerance and step limit, as in scipy.optimize.brentq
BRENT_RTOL = 4 * math.ulp(1.0)
BRENT_MAXITER = 100
SELECTIVITY_THRESHOLD_HZ = 1000.0  # shift differences below this recouple poorly


@dataclass(frozen=True)
class RecouplingPlan:
    """A solved operating point with its predicted coupling and timing.

    All frequencies in rad/s; exchange_period in seconds. coupling is
    (1/2)|B or Q| * omega_dm. mechanism_score ranks how well the plan
    follows the selection guidance (higher is better).
    """

    condition_class: str
    m: int
    delta_i: float
    delta_s: float
    omega_1: float
    residual: float
    coupling: float
    exchange_period: float
    mechanism_score: float
    warning: str = None

    def to_record(self):
        """JSON-ready dict with frequencies in Hz; a non-finite
        mechanism_score or exchange_period_s is None (JSON null)."""
        rec = asdict(self)
        for key in ("delta_i", "delta_s", "omega_1", "residual", "coupling"):
            rec[key + "_hz"] = angular_to_hz(rec.pop(key))
        rec["exchange_period_s"] = rec.pop("exchange_period")
        # a carrier on one resonance scores inf, a zero coupling never exchanges
        for key in ("mechanism_score", "exchange_period_s"):
            if not math.isfinite(rec[key]):
                rec[key] = None
        return rec


def plans_to_json(plans):
    return json.dumps([p.to_record() for p in plans], indent=2, allow_nan=False)


def brentq(f, xa, xb, xtol):
    """A root of f in [xa, xb], where f changes sign, by Brent's method.

    Step for step the method of scipy.optimize.brentq (Brent 1973, ch. 4):
    inverse quadratic or secant steps, bisection when they do not shrink
    the bracket fast enough, and convergence once half the bracket is
    below (xtol + BRENT_RTOL |x|) / 2. Raises ValueError when f(xa) and
    f(xb) have the same sign, RuntimeError after BRENT_MAXITER steps.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {BRENT_MAXITER} steps")


def _check_condition(condition_class, m):
    if m not in (1, 2):
        raise ValueError(f"harmonic m must be 1 or 2, got {m}")
    if condition_class not in ("a", "b"):
        raise ValueError(f"condition class must be 'a' or 'b', got {condition_class!r}")


def condition_residual(delta_i, delta_s, omega_1, omega_r, condition_class, m):
    """Distance (rad/s) from the matching condition for the given class/harmonic."""
    _check_condition(condition_class, m)
    # the omega_e of effective_field, without its tilt angle
    w_ei = math.hypot(delta_i, omega_1)
    w_es = math.hypot(delta_s, omega_1)
    side = abs(w_es - w_ei) if condition_class == "a" else w_ei + w_es
    return side - m * omega_r


def solve_amplitude(delta_i, delta_s, omega_r, condition_class, m):
    """All RF amplitudes in [0, 10 * omega_r] satisfying the matching condition.

    With B >= S the larger and smaller of |delta_i|, |delta_s| and
    d = m * omega_r, class a's |w_eS - w_eI| falls from B - S to 0 as
    omega_1 grows and class b's w_eI + w_eS rises from B + S, so there is
    one root iff B - S >= d (a) or B + S <= d (b), else none. Squaring twice
    gives sqrt(S^2 + omega_1^2) = |s|, s = ((B - S)(B + S) - d^2) / (2d),
    so omega_1 = sqrt((s - S)(s + S)), exactly 0 for a root at 0. A root is
    kept only if |condition_residual| < 1e-6 * omega_r.
    """
    _check_condition(condition_class, m)
    small, big = sorted((abs(delta_i), abs(delta_s)))
    d = m * omega_r
    if (big - small < d) if condition_class == "a" else (big + small > d):
        return []
    s = ((big - small) * (big + small) - d * d) / (2 * d)
    omega_1 = math.sqrt(max((s - small) * (s + small), 0.0))
    if omega_1 > BRACKET_FACTOR * omega_r:
        return []
    residual = condition_residual(delta_i, delta_s, omega_1, omega_r, condition_class, m)
    return [omega_1] if abs(residual) < SOLVER_REL_TOL * omega_r else []


def _mechanism_score(condition_class, delta_i, delta_s, omega_1):
    # heuristic rank from the carrier-placement guidance: offsets much
    # larger (class a) or much smaller (class b) than the RF amplitude
    smallest = min(abs(delta_i), abs(delta_s))
    if omega_1 == 0.0:
        return math.inf if condition_class == "a" else 0.0
    ratio = smallest / omega_1
    return ratio if condition_class == "a" else 1.0 / ratio if ratio > 0 else math.inf


class OperatingPoint(NamedTuple):
    """Tilt angles, B/Q factors, coupling (rad/s) and exchange period (s) of
    one drive amplitude; the period is inf when the coupling vanishes."""

    beta_i: float
    beta_s: float
    b_factor: float
    q_factor: float
    coupling: float
    exchange_period: float


def operating_point(delta_i, delta_s, omega_1, constants, condition_class, m):
    """Matching arithmetic of a (class, m) condition at amplitude omega_1."""
    beta_i = effective_field(delta_i, omega_1).beta
    beta_s = effective_field(delta_s, omega_1).beta
    b, q = bq_factors(beta_i, beta_s)
    factor = abs(b) if condition_class == "a" else abs(q)
    coupling = 0.5 * factor * constants.harmonic(m)
    # the two coupled states Rabi at twice the off-diagonal element `coupling`
    period = 2.0 * math.pi / (2.0 * coupling) if coupling > 0 else math.inf
    return OperatingPoint(beta_i, beta_s, b, q, coupling, period)


def make_plan(delta_i, delta_s, omega_r, condition_class, m, omega_1, constants):
    """Assemble a RecouplingPlan for a solved (or proposed) amplitude."""
    point = operating_point(delta_i, delta_s, omega_1, constants, condition_class, m)
    residual = condition_residual(delta_i, delta_s, omega_1, omega_r, condition_class, m)
    warning = None
    shift_diff_hz = angular_to_hz(abs(delta_s - delta_i))
    if shift_diff_hz < SELECTIVITY_THRESHOLD_HZ:
        warning = (f"shift difference {shift_diff_hz:.0f} Hz is below "
                   f"{SELECTIVITY_THRESHOLD_HZ:.0f} Hz; selective recoupling "
                   "may be inefficient")
    return RecouplingPlan(
        condition_class=condition_class, m=m, delta_i=delta_i, delta_s=delta_s,
        omega_1=omega_1, residual=residual, coupling=point.coupling,
        exchange_period=point.exchange_period,
        mechanism_score=_mechanism_score(condition_class, delta_i, delta_s, omega_1),
        warning=warning)


def solve_plans(delta_i, delta_s, omega_r, constants,
                classes=("a", "b"), harmonics=(1, 2)):
    """Solve every requested (class, m) combination into RecouplingPlans."""
    plans = []
    for condition_class in classes:
        for m in harmonics:
            for omega_1 in solve_amplitude(delta_i, delta_s, omega_r,
                                           condition_class, m):
                plans.append(make_plan(delta_i, delta_s, omega_r,
                                       condition_class, m, omega_1, constants))
    return plans


def theta_from_period(period, b_factor, omega_full):
    """Invert the exchange period for the pair-to-rotor angle theta_d.

    Uses period = 2 pi / (|B| omega_full sin^2 theta); raises when the
    implied sin^2 falls outside [0, 1].
    """
    period = number(period, "period", positive=True)
    sin2 = 2.0 * math.pi / (period * abs(b_factor) * omega_full)
    if sin2 > 1.0 + 1e-12:
        raise ValueError(
            f"period {period} s is below the theta=90deg minimum; no geometry fits")
    return math.asin(math.sqrt(min(sin2, 1.0)))
