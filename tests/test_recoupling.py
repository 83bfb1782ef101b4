import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from r2tr.cli import build_system, glycine_defaults
from r2tr.hamiltonian import dipolar_constants, effective_field
from r2tr import recoupling
from r2tr.recoupling import (condition_residual, make_plan, operating_point,
                             plans_to_json, solve_amplitude, solve_plans,
                             theta_from_period)
from r2tr.units import GAMMA_C13, GLYCINE_CC_DISTANCE, TWO_PI, deg_to_rad

W_R = TWO_PI * 7884.0
D_I = TWO_PI * 2000.0
D_S = TWO_PI * 18699.0


def glycine_constants(theta_deg=64.0):
    return dipolar_constants(GAMMA_C13, GLYCINE_CC_DISTANCE,
                             deg_to_rad(theta_deg))


def test_condition_residual_nominal_point():
    # the nominal operating amplitude satisfies class a, m = 2 to < 2 Hz
    res = condition_residual(D_I, D_S, TWO_PI * 2339.0, W_R, "a", 2)
    assert abs(res) / TWO_PI < 2.0


def test_condition_residual_class_b_analytic():
    # zero offsets: both effective fields equal omega_1, so class b with
    # m = 1 is met exactly at omega_1 = omega_r / 2
    res = condition_residual(0.0, 0.0, W_R / 2, W_R, "b", 1)
    assert res == pytest.approx(0.0, abs=1e-9)


def test_condition_residual_validation():
    with pytest.raises(ValueError):
        condition_residual(D_I, D_S, 1.0, W_R, "c", 1)
    with pytest.raises(ValueError):
        condition_residual(D_I, D_S, 1.0, W_R, "a", 3)


def test_solve_amplitude_recovers_operating_point():
    roots = solve_amplitude(D_I, D_S, W_R, "a", 2)
    assert len(roots) == 1
    assert roots[0] / TWO_PI == pytest.approx(2338.0, abs=5.0)
    assert abs(condition_residual(D_I, D_S, roots[0], W_R, "a", 2)) < 1e-6 * W_R


def test_solve_amplitude_matches_dense_scan():
    # every sign change of the residual on a fine grid corresponds to a root
    for cls, m in (("a", 1), ("a", 2), ("b", 1), ("b", 2)):
        roots = solve_amplitude(D_I, D_S, W_R, cls, m)
        grid = np.linspace(1.0, 10 * W_R, 20001)
        vals = np.array([condition_residual(D_I, D_S, w, W_R, cls, m)
                         for w in grid])
        crossings = np.sum(np.sign(vals[1:]) != np.sign(vals[:-1]))
        assert len(roots) == crossings


CONDITIONS = st.sampled_from([("a", 1), ("a", 2), ("b", 1), ("b", 2)])
OFFSET_HZ = st.floats(-3e4, 3e4)
SPIN_RATE_HZ = st.floats(2e3, 2e4)


@st.composite
def matchable(draw):
    """(d_i, d_s, w_r, class, m), rad/s, that meet the condition at w_1 = 0
    with room to spare: class a needs |d_s - d_i| > m w_r, class b needs
    |d_i| + |d_s| < m w_r."""
    condition_class, m = draw(CONDITIONS)
    w_r = TWO_PI * draw(SPIN_RATE_HZ)
    if condition_class == "a":
        d_i = draw(st.floats(-2.0, 2.0)) * w_r
        d_s = d_i + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.01, 3.0)) * m * w_r
    else:
        d_i = draw(st.floats(-0.99, 0.99)) * m * w_r
        d_s = draw(st.floats(-0.99, 0.99)) * (m * w_r - abs(d_i))
    return d_i, d_s, w_r, condition_class, m


@settings(max_examples=40, deadline=None)
@given(point=matchable(), data=st.data())
def test_brentq_matches_scipy(point, data):
    # scipy's Brent method is the independent reference: the same root, to
    # the bit, from the same residual evaluations
    from scipy.optimize import brentq as scipy_brentq

    d_i, d_s, w_r, *condition = point
    grid = np.linspace(0.0, 10.0 * w_r, 257)
    vals = np.array([condition_residual(d_i, d_s, w, w_r, *condition) for w in grid])
    cells = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    assume(len(cells) > 0)
    k = data.draw(st.sampled_from(cells.tolist()), label="bracket")
    xa, xb = data.draw(st.permutations([grid[k], grid[k + 1]]), label="ends")
    xtol = data.draw(st.sampled_from([1e-9, 1e-6, 1e-2]), label="xtol") * w_r
    results = []
    for solver in (recoupling.brentq, scipy_brentq):
        calls = []

        def f(w):
            calls.append(w)
            return condition_residual(d_i, d_s, w, w_r, *condition)

        results.append((solver(f, xa, xb, xtol=xtol), calls))
    (root, calls), (expected, expected_calls) = results
    assert root == expected
    assert calls == expected_calls


def test_brentq_returns_an_exact_root_at_an_end():
    for root in (1.0, 3.0):
        calls = []

        def f(x):
            calls.append(x)
            return x - root

        assert recoupling.brentq(f, 1.0, 3.0, xtol=1e-12) == root
        assert calls == [1.0, 3.0]


def test_brentq_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        recoupling.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


# a matchable point or any offsets, spin rate and condition
POINTS = st.one_of(matchable(), st.builds(
    lambda d_i, d_s, rate, condition: (TWO_PI * d_i, TWO_PI * d_s, TWO_PI * rate, *condition),
    OFFSET_HZ, OFFSET_HZ, SPIN_RATE_HZ, CONDITIONS))


@settings(max_examples=40, deadline=None)
@given(point=POINTS)
def test_solve_amplitude_roots_meet_the_condition(point):
    d_i, d_s, w_r, *condition = point
    for root in solve_amplitude(d_i, d_s, w_r, *condition):
        assert 0.0 <= root <= 10.0 * w_r
        assert abs(condition_residual(d_i, d_s, root, w_r, *condition)) < 1e-6 * w_r


def test_solve_amplitude_impossible_condition_is_empty():
    # sum of effective fields always exceeds m*omega_r here: no solution
    assert len(solve_amplitude(D_I, D_S, W_R, "b", 1)) == 0


def effective_field_residual(delta_i, delta_s, omega_1, omega_r, condition_class, m):
    """condition_residual through effective_field's omega_e, the reference
    that its math.hypot must match to the bit."""
    w_ei = effective_field(delta_i, omega_1).omega_e
    w_es = effective_field(delta_s, omega_1).omega_e
    if condition_class == "a":
        return abs(w_es - w_ei) - m * omega_r
    return (w_ei + w_es) - m * omega_r


PER_CELL_GRID_POINTS = 4096


def per_cell_solve_amplitude(delta_i, delta_s, omega_r, condition_class, m):
    """The reference root search: sign changes of effective_field_residual
    on a 4,096-point grid over [0, 10 omega_r], visited cell by cell in a
    Python loop and polished by Brent's method."""

    def f(w1):
        return effective_field_residual(delta_i, delta_s, w1, omega_r, condition_class, m)

    upper = recoupling.BRACKET_FACTOR * omega_r
    grid = np.linspace(0.0, upper, PER_CELL_GRID_POINTS)
    vals = np.array([f(w) for w in grid])
    roots = []
    tol = recoupling.SOLVER_REL_TOL * omega_r
    for k in range(len(grid) - 1):
        a, b = vals[k], vals[k + 1]
        if a == 0.0:
            roots.append(grid[k])
        elif a * b < 0.0:
            roots.append(recoupling.brentq(f, grid[k], grid[k + 1], xtol=1e-3 * tol))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return [r for r in roots if abs(f(r)) < tol]


def recording(residual, calls):
    def wrapper(*args):
        value = residual(*args)
        calls.append((args, value))
        return value
    return wrapper


def assert_solves_like_per_cell_scan(point):
    # the same number of roots, each within the 1e-6 omega_r of criterion 1,
    # and condition_residual equal to the reference residual at each root
    d_i, d_s, w_r, *condition = point
    roots = solve_amplitude(*point)
    expected = per_cell_solve_amplitude(*point)
    assert len(roots) == len(expected)
    for root, ref in zip(roots, expected):
        assert abs(root - ref) <= 1e-6 * w_r
        assert (condition_residual(d_i, d_s, root, w_r, *condition)
                == effective_field_residual(d_i, d_s, root, w_r, *condition))
    return roots


@settings(max_examples=40, deadline=None)
@given(point=POINTS)
def test_solve_amplitude_matches_per_cell_scan(point):
    assert_solves_like_per_cell_scan(point)


def test_solve_amplitude_keeps_exact_grid_zeros():
    # both classes with offsets (0, 2), w_r = 1 and m = 2 are met at w_1 = 0,
    # the scan's first grid point; class b with (3, 0), w_r = 9, m = 1 at
    # w_1 = 4 = grid[182]
    assert assert_solves_like_per_cell_scan((0.0, 2.0, 1.0, "a", 2)) == [0.0]
    assert assert_solves_like_per_cell_scan((0.0, 2.0, 1.0, "b", 2)) == [0.0]
    assert assert_solves_like_per_cell_scan((3.0, 0.0, 9.0, "b", 1)) == [4.0]
    for point in ((D_I, D_S, W_R, "a", 2), (0.0, 0.0, W_R, "b", 1)):
        assert_solves_like_per_cell_scan(point)


@pytest.mark.parametrize("condition", [("c", 1), ("a", 3)])
def test_solve_amplitude_rejects_a_bad_condition_without_a_root(condition):
    # at glycine's offsets and spin rate neither class b with m = 1 (the
    # branch an unknown class would take) nor class a with m = 3 has a root:
    # the check must come before the early return
    with pytest.raises(ValueError):
        solve_amplitude(D_I, D_S, W_R, *condition)


def test_default_solve_makes_the_pinned_residual_evaluations(monkeypatch):
    # the default `r2tr solve` has class a roots at m = 1 and m = 2 and none
    # of class b: one residual per root in solve_amplitude's filter plus one
    # per plan in make_plan, 2 + 2 = 4
    system = build_system(glycine_defaults())
    calls = []
    monkeypatch.setattr(recoupling, "condition_residual",
                        recording(condition_residual, calls))
    plans = solve_plans(system.offsets[0], system.offsets[1], system.omega_r,
                        dipolar_constants(system.gamma, system.r, system.theta_d))
    assert len(plans) == 2
    assert len(calls) == 4


def test_solve_amplitude_memory_holds_no_per_point_objects():
    # the closed form holds a few floats and a one-element list: no grid,
    # no per-point objects
    solve_amplitude(D_I, D_S, W_R, "a", 2)
    tracemalloc.start()
    try:
        solve_amplitude(D_I, D_S, W_R, "a", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_theta_from_period_matches_known_geometry():
    c = glycine_constants()
    b_factor = -0.182023118
    theta = theta_from_period(3.3e-3, b_factor, c.omega_full)
    assert math.degrees(theta) == pytest.approx(64.0, abs=3.0)


@given(st.floats(20.0, 89.0))
def test_theta_period_round_trip(theta_deg):
    c = glycine_constants(theta_deg=theta_deg)
    # hold B fixed; the round trip must invert exactly
    b_factor = -0.182023118
    coupling = 0.5 * abs(b_factor) * c.omega_full * math.sin(
        math.radians(theta_deg)) ** 2
    period = 2.0 * math.pi / (2.0 * coupling)
    theta = theta_from_period(period, b_factor, c.omega_full)
    assert math.degrees(theta) == pytest.approx(theta_deg, abs=1e-9)


def test_theta_from_period_rejects_too_short_period():
    c = glycine_constants()
    with pytest.raises(ValueError):
        theta_from_period(1e-5, -0.18, c.omega_full)
    with pytest.raises(ValueError):
        theta_from_period(-1.0, -0.18, c.omega_full)
    # unchecked, a NaN period gave a NaN angle and an integer past the float
    # range raised an OverflowError
    for period in (math.nan, 10**400):
        with pytest.raises(ValueError, match="^period must be finite"):
            theta_from_period(period, -0.18, c.omega_full)


def test_off_condition_point_is_far_from_all_matches():
    # the flat-exchange control amplitude misses every class/harmonic by
    # several kHz
    for cls in ("a", "b"):
        for m in (1, 2):
            res = condition_residual(D_I, D_S, TWO_PI * 8823.0, W_R, cls, m)
            assert abs(res) / TWO_PI > 3.7e3


def test_solve_plans_glycine_table():
    plans = solve_plans(D_I, D_S, W_R, glycine_constants())
    keyed = {(p.condition_class, p.m): p for p in plans}
    assert set(keyed) == {("a", 1), ("a", 2)}
    op = keyed[("a", 2)]
    assert op.omega_1 / TWO_PI == pytest.approx(2338.0, abs=5.0)
    assert op.exchange_period == pytest.approx(3.2e-3, rel=0.05)
    assert op.warning is None
    # the operating point should rank as the better-conditioned match
    assert op.mechanism_score > keyed[("a", 1)].mechanism_score


def test_plan_record_uses_hz_boundary():
    plans = solve_plans(D_I, D_S, W_R, glycine_constants())
    rec = plans[0].to_record()
    assert rec["delta_i_hz"] == pytest.approx(2000.0)
    data = json.loads(plans_to_json(plans))
    assert data[0]["condition_class"] == "a"


def test_plan_warns_on_small_shift_difference():
    plan = make_plan(TWO_PI * 100.0, TWO_PI * 600.0, W_R, "a", 2,
                     TWO_PI * 2000.0, glycine_constants())
    assert plan.warning is not None


def test_mechanism_score_without_a_drive():
    # no RF: every offset is infinitely larger than the amplitude, which
    # class a wants and class b does not
    scores = {k: make_plan(D_I, D_S, W_R, k, 2, 0.0, glycine_constants()).mechanism_score
              for k in "ab"}
    assert scores == {"a": math.inf, "b": 0.0}


def test_operating_point_glycine():
    c = glycine_constants()
    point = operating_point(D_I, D_S, TWO_PI * 2339.0, c, "a", 2)
    assert np.degrees(point.beta_i) == pytest.approx(49.467364, abs=1e-4)
    assert np.degrees(point.beta_s) == pytest.approx(7.129919, abs=1e-4)
    assert point.b_factor == pytest.approx(-0.182023118, abs=1e-8)
    assert point.q_factor == pytest.approx(0.067976882, abs=1e-8)
    assert point.coupling == pytest.approx(0.5 * abs(point.b_factor) * c.omega_d2)
    assert point.coupling / TWO_PI == pytest.approx(155.973071, rel=1e-6)


def test_predicted_exchange_period_glycine():
    c = glycine_constants()
    point = operating_point(D_I, D_S, TWO_PI * 2339.0, c, "a", 2)
    # the coupled states Rabi at twice the coupling: 2 pi / (|B| omega_d2)
    assert point.exchange_period == pytest.approx(3.2057e-3, rel=1e-4)
    assert point.exchange_period == pytest.approx(
        TWO_PI / (abs(point.b_factor) * c.omega_d2), rel=1e-12)
    # no coupling along the spinning axis: no exchange
    assert operating_point(D_I, D_S, TWO_PI * 2339.0, glycine_constants(0.0),
                           "a", 2).exchange_period == math.inf
