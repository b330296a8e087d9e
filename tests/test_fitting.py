import collections
import math

import numpy as np
import pytest

from dtqsw import FitForm, find_minimum, fit_power_law
from dtqsw.errors import FitDegenerateError, ParameterError
from dtqsw.fitting import _solve_linear, minimize_unimodal

Z_GRID = np.array(
    [0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998, 0.9999, 0.99995, 0.99998, 0.99999]
)


def test_fit_recovers_exact_power_law():
    a, b, c = 0.8, 0.3, 0.55
    points = [(z, a - b * (1 - z) ** c) for z in Z_GRID]
    fit = fit_power_law(points, FitForm.A_MINUS_B)
    assert fit.a_fit == pytest.approx(a, abs=1e-8)
    assert fit.b_fit == pytest.approx(b, abs=1e-6)
    assert fit.c_fit == pytest.approx(c, abs=1e-6)
    assert fit.residual_norm < 1e-10


def test_fit_one_minus_b_form():
    b, c = 0.45, 0.5
    points = [(z, 1 - b * (1 - z) ** c) for z in Z_GRID]
    fit = fit_power_law(points, "oneminusb")
    assert fit.model_form is FitForm.ONE_MINUS_B
    assert fit.a_fit == 1.0
    assert fit.a_err == 0.0
    assert fit.b_fit == pytest.approx(b, abs=1e-6)
    assert fit.c_fit == pytest.approx(c, abs=1e-6)


def test_fit_predict_roundtrip():
    points = [(z, 0.7 - 0.2 * (1 - z) ** 0.8) for z in Z_GRID]
    fit = fit_power_law(points)
    assert np.max(np.abs(fit.predict(Z_GRID) - [v for _, v in points])) < 1e-8


def test_fit_with_noise_stays_close():
    rng = np.random.default_rng(3)
    values = 0.8 - 0.3 * (1 - Z_GRID) ** 0.55 + rng.normal(0, 1e-7, len(Z_GRID))
    fit = fit_power_law(list(zip(Z_GRID, values)))
    assert fit.c_fit == pytest.approx(0.55, abs=1e-2)
    assert fit.c_err > 0.0 and math.isfinite(fit.c_err)


@pytest.mark.parametrize("form", list(FitForm))
def test_solve_linear_matches_lstsq(form):
    """The closed-form least squares, called once on an array of exponents,
    against np.linalg.lstsq at each exponent: a, b and SSE to 1e-12 relative."""
    rng = np.random.default_rng(5)
    t = 1 - Z_GRID
    values = 0.8 - 0.3 * t**0.55 + rng.normal(0, 1e-4, len(t))
    exponents = np.array([0.1, 0.3, 0.55, 0.9, 1.4, 2.0])
    a, b, sse = _solve_linear(t, values, exponents, form)
    assert a.shape == b.shape == sse.shape == exponents.shape
    for k, c in enumerate(exponents):
        basis = t**c
        if form is FitForm.A_MINUS_B:
            (a_ref, b_ref), res, *_ = np.linalg.lstsq(
                np.column_stack([np.ones_like(t), -basis]), values, rcond=None
            )
        else:
            a_ref = 1.0
            (b_ref,), res, *_ = np.linalg.lstsq(-basis[:, None], values - 1.0, rcond=None)
        assert a[k] == pytest.approx(a_ref, rel=1e-12)
        assert b[k] == pytest.approx(b_ref, rel=1e-12)
        assert sse[k] == pytest.approx(res[0], rel=1e-12)


# R~_z of balanced recur sweeps (theta, p) at the ten default z, and the limit a
# and exponent c the golden-section search found on them (a - b(1-z)^c form)
RECUR_SWEEPS = {
    (math.pi / 4, 0.25): (
        [0.6772358066566639, 0.6842569880699363, 0.6885955661303135, 0.690069580655455,
         0.6908137315084861, 0.6912637538509311, 0.6914150213608333, 0.691491370448275,
         0.6915379614081588, 0.6915540077320912],
        0.6915779094021763, 0.974661738692653,
    ),
    (math.pi / 4, 0.95): (
        [0.8662672732927492, 0.9022032973878883, 0.9341215871342416, 0.949631060655323,
         0.9598313023188743, 0.967726824731197, 0.9709895070972284, 0.9728669965228678,
         0.9741469840824503, 0.9746253227868142],
        0.9774989099114777, 0.5989214265584657,
    ),
    (2 * math.pi / 5, 0.9): (
        [0.8703755450670096, 0.9058656811702571, 0.9375155183506625, 0.9530820428090402,
         0.9635062386876909, 0.9718015529253176, 0.9753439469910213, 0.9774386934877457,
         0.9789071934925955, 0.9794703078807413],
        0.9825600558092976, 0.579778553789824,
    ),
}


@pytest.mark.parametrize("key", RECUR_SWEEPS)
def test_fit_of_recur_sweeps_matches_golden_section(key):
    """Re-gridding the bracket finds the golden-section optimum of recur data:
    a within 1e-9 and c within 1e-7."""
    values, a_ref, c_ref = RECUR_SWEEPS[key]
    fit = fit_power_law(list(zip(Z_GRID, values)))
    assert abs(fit.a_fit - a_ref) <= 1e-9
    assert abs(fit.c_fit - c_ref) <= 1e-7


def test_fit_validation():
    with pytest.raises(ParameterError):
        fit_power_law([(0.9, 0.5), (0.95, 0.6), (0.99, 0.7)])  # too few
    good = [(z, 0.5 + z / 10) for z in Z_GRID]
    with pytest.raises(ParameterError):
        fit_power_law(good[:-1] + [(1.0, 0.6)])  # z = 1
    with pytest.raises(ParameterError):
        fit_power_law(good[:-1] + [(Z_GRID[0], 0.6)])  # duplicate z
    with pytest.raises(ParameterError):
        fit_power_law([(z, float("nan")) for z in Z_GRID])
    for z in (float("nan"), -math.inf):  # neither fails z >= 1 or the increase check
        with pytest.raises(ParameterError, match="finite"):
            fit_power_law(good[:-1] + [(z, 0.6)])


def test_fit_degenerate_constant_data():
    with pytest.raises(FitDegenerateError) as err:
        fit_power_law([(z, 0.25) for z in Z_GRID])
    assert err.value.constant == pytest.approx(0.25)


def test_minimize_unimodal_quadratic():
    p, val = minimize_unimodal(lambda p: (p - 0.3) ** 2 + 0.1)
    assert p == pytest.approx(0.3, abs=1e-3)
    assert val == pytest.approx(0.1, abs=1e-6)


def test_find_minimum_interior():
    est = find_minimum(lambda p: (p - 0.4) ** 2 + 0.1)
    assert not est.monotone
    assert est.p_min == pytest.approx(0.4, abs=1e-3)
    assert est.r_min == pytest.approx(0.1, abs=1e-6)
    # level-set endpoints: r_min + 1e-2 is crossed at 0.4 +- 0.1
    assert est.interval_1e2[0] == pytest.approx(0.3, abs=5e-3)
    assert est.interval_1e2[1] == pytest.approx(0.5, abs=5e-3)
    lo3, hi3 = est.interval_1e3
    assert lo3 == pytest.approx(0.4 - math.sqrt(1e-3), abs=5e-3)
    assert hi3 == pytest.approx(0.4 + math.sqrt(1e-3), abs=5e-3)


def test_find_minimum_evaluates_each_endpoint_once():
    """func(0) and func(1) are each evaluated once and reused by every band-edge
    root: 2 probes (func(1/32) < func(0) ends the monotonicity probe), 2 per
    halving and the final value of the minimizer, func(1), then 5 + 7 + 7 + 10 ITP
    steps for the four interval ends (bisection took 15 each, 94 in all)."""
    calls = collections.Counter()

    def profile(p):
        calls[p] += 1
        return (p - 0.4) ** 2 + 0.1

    est = find_minimum(profile)
    assert calls[0.0] == 1 and calls[1.0] == 1
    assert sum(calls.values()) == 2 + (2 * 15 + 1) + 1 + 29
    assert est == find_minimum(lambda p: (p - 0.4) ** 2 + 0.1)


# (profile, its minimum at p = 0.4 or 0.3, and its slope factor left and right of it)
BAND_STUBS = {
    "symmetric": (lambda p: (p - 0.4) ** 2 + 0.1, 0.4, 1.0, 1.0),
    "asymmetric": (lambda p: 0.1 + (p - 0.3) ** 2 * (4.0 if p < 0.3 else 0.25), 0.3, 4.0, 0.25),
}


@pytest.mark.parametrize("iterations", [8, 15, 30])
@pytest.mark.parametrize("name", BAND_STUBS)
def test_find_minimum_band_edges_meet_their_contract(name, iterations):
    """Each band edge lies within width 2^-(iterations + 1) of the crossing of
    r_min + offset, width being p_min on the left and 1 - p_min on the right;
    func(0) and func(1) are evaluated once, and each edge takes at most
    iterations + 1 evaluations."""
    func, centre, left, right = BAND_STUBS[name]
    calls = collections.Counter()

    def profile(p):
        calls[p] += 1
        return func(p)

    est = find_minimum(profile, iterations)
    assert calls[0.0] == 1 and calls[1.0] == 1
    assert sum(calls.values()) <= 2 + (2 * iterations + 1) + 1 + 4 * (iterations + 1)
    for offset, (lo, hi) in ((1e-2, est.interval_1e2), (1e-3, est.interval_1e3)):
        rise = est.r_min + offset - 0.1
        # rounding of func near the crossing moves its root by far less than 1e-13
        assert abs(lo - (centre - math.sqrt(rise / left))) <= (
            math.ldexp(est.p_min, -iterations - 1) + 1e-13)
        assert abs(hi - (centre + math.sqrt(rise / right))) <= (
            math.ldexp(1.0 - est.p_min, -iterations - 1) + 1e-13)


@pytest.mark.parametrize("iterations", [0, -2])
def test_find_minimum_refuses_iterations_below_one(iterations):
    calls = []
    with pytest.raises(ParameterError):
        find_minimum(lambda p: calls.append(p) or (p - 0.4) ** 2, iterations)
    assert not calls


def test_find_minimum_monotone_profile():
    est = find_minimum(lambda p: 0.2 + 0.5 * p)
    assert est.monotone
    assert est.p_min == 0.0
    assert est.r_min == pytest.approx(0.2)
    assert est.interval_1e2 == (0.0, 0.0)
