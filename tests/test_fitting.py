import collections
import math

import numpy as np
import pytest

from dtqsw import FitForm, find_minimum, fit_power_law
from dtqsw.errors import FitDegenerateError, ParameterError
from dtqsw.fitting import minimize_unimodal

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
    """func(0) and func(1) are each evaluated once and reused by every crossover
    bisection: 2 probes (func(1/32) < func(0) ends the monotonicity probe), 2 per
    halving and the final value of the minimizer, then 15 bisection steps for each
    of the four interval ends."""
    calls = collections.Counter()

    def profile(p):
        calls[p] += 1
        return (p - 0.4) ** 2 + 0.1

    est = find_minimum(profile)
    assert calls[0.0] == 1 and calls[1.0] == 1
    assert sum(calls.values()) == 2 + (2 * 15 + 1) + 1 + 4 * 15
    assert est == find_minimum(lambda p: (p - 0.4) ** 2 + 0.1)


def test_find_minimum_monotone_profile():
    est = find_minimum(lambda p: 0.2 + 0.5 * p)
    assert est.monotone
    assert est.p_min == 0.0
    assert est.r_min == pytest.approx(0.2)
    assert est.interval_1e2 == (0.0, 0.0)
