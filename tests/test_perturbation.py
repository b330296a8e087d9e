import math

import numpy as np
import pytest

from dtqsw import (
    Model,
    MonitoredDensityState,
    WalkParams,
    initial_state,
    kraus_family,
    monitored_trajectory,
    return_series,
    slope_balanced,
    slope_correlated,
    slope_series,
    step_monitored,
    theta_star,
)
from dtqsw import directsim, perturbation
from dtqsw.errors import BracketError, ParameterError, ResourceError


def _slope_fd(model, theta, t, eps=1e-5):
    """Centered one-sided finite difference of R_t(p) at p = 0."""
    r0 = return_series(WalkParams(theta, 0.0, model), t).return_prob[t]
    r1 = return_series(WalkParams(theta, eps, model), t).return_prob[t]
    r2 = return_series(WalkParams(theta, 2 * eps, model), t).return_prob[t]
    return (4 * r1 - r2 - 3 * r0) / (2 * eps)


def test_slope_balanced_matches_finite_difference():
    val = slope_balanced(math.pi / 3, 12)
    ref = _slope_fd(Model.BALANCED, math.pi / 3, 12)
    assert abs(val - ref) < 1e-3 * max(1.0, abs(ref))


def test_slope_correlated_matches_finite_difference():
    val = slope_correlated(2 * math.pi / 5, 12)
    ref = _slope_fd(Model.CORRELATED, 2 * math.pi / 5, 12)
    assert abs(val - ref) < 1e-3 * max(1.0, abs(ref))


def test_slope_is_first_order_coefficient():
    """R_t(p) - R_t(0) - B_t p must shrink quadratically in p."""
    theta, t = 1.0, 10
    b_t = slope_balanced(theta, t)
    r0 = return_series(WalkParams(theta, 0.0), t).return_prob[t]
    remainders = []
    for p in (2e-3, 1e-3, 5e-4):
        r_p = return_series(WalkParams(theta, p), t).return_prob[t]
        remainders.append(abs(r_p - r0 - b_t * p) / p**2)
    # quadratic remainder: the p^2-normalized residual stays bounded
    assert max(remainders) < 10 * min(remainders) + 1.0


def _tangent_slope(theta, model, t_max):
    """B_t from the density-matrix tangent: d/dp of rho_t at p = 0, stepped
    by directsim.step_monitored with the coined and the classical families."""
    coined = kraus_family(WalkParams(theta, 0.0, model))
    classical = kraus_family(WalkParams(theta, 1.0, model))
    rho = initial_state(np.diag([1.0, 0.0]), t_max + 1)
    sigma = MonitoredDensityState(t_max + 1, np.zeros_like(rho.rho))
    values = []
    for t in range(1, t_max + 1):
        # d/dp [(1 - p) U rho U^dag + p sum_j E_j rho E_j^dag] at p = 0
        a = step_monitored(sigma, coined)
        b = step_monitored(rho, classical)
        rho = step_monitored(rho, coined)
        sigma = MonitoredDensityState(t_max + 1, a.rho + b.rho - rho.rho, t)
        values.append(-sigma.survival())
    return np.array(values)


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2, math.pi / 2])
def test_slope_series_matches_density_matrix_tangent(model, theta):
    ref = _tangent_slope(theta, model, 40)
    values = slope_series(theta, 40, model).values
    assert np.all(np.abs(values - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_slope_series_one_pass_matches_endpoints():
    series = slope_series(math.pi / 3, 15, Model.BALANCED)
    assert len(series.values) == 15
    for t in (3, 9, 15):
        assert series.values[t - 1] == pytest.approx(slope_balanced(math.pi / 3, t))


def test_pi_half_slope_is_exactly_minus_one():
    # at theta = pi/2 the unitary walk returns with certainty at step 2,
    # so every classical insertion can only delay detection: B_t = -1 + t*0
    series = slope_series(math.pi / 2, 40, Model.BALANCED)
    assert series.values[-1] == pytest.approx(-1.0, abs=1e-12)


def test_pi_half_trajectory_returns_at_step_two():
    traj = monitored_trajectory(math.pi / 2, 6)
    s = traj.survival()
    assert s[0] == pytest.approx(1.0)
    assert s[1] == pytest.approx(1.0)
    assert np.max(np.abs(s[2:])) < 1e-14


def test_hadamard_slopes_positive_and_saturating():
    series = slope_series(math.pi / 4, 100, Model.BALANCED)
    # R_2 = 1/2 and R_4 = 5/8 for every p at theta = pi/4, so B_2 = B_4 = 0
    assert np.max(np.abs(series.values[[1, 3]])) < 1e-14
    assert np.all(series.values[5::2] > 0)  # even t >= 6
    # saturation: late even-t values change slowly
    assert abs(series.values[99] - series.values[79]) < 0.05 * abs(series.values[99])


def test_correlated_slopes_vanish_up_to_t5():
    series = slope_series(math.pi / 4, 8, Model.CORRELATED)
    assert np.max(np.abs(series.values[:5])) < 1e-12
    assert abs(series.values[5]) > 1e-3


def test_theta_star_location():
    ts = theta_star(60)
    assert 0.285 * math.pi < ts < 0.295 * math.pi
    # sign change across the root
    assert slope_balanced(ts - 5e-3, 60) * slope_balanced(ts + 5e-3, 60) < 0


def test_theta_star_bad_bracket():
    with pytest.raises(BracketError):
        theta_star(60, bracket_lo=0.40 * math.pi, bracket_hi=0.45 * math.pi)


def test_monitored_trajectory_validation():
    with pytest.raises(ParameterError):
        monitored_trajectory(0.5, 0)
    with pytest.raises(ParameterError):
        monitored_trajectory(0.5, 5, coin_state=[1.0, 1.0])


def test_monitored_trajectory_norm_decreasing():
    traj = monitored_trajectory(0.9, 30)
    s = traj.survival()
    assert np.all(np.diff(s) <= 1e-14)
    assert s[0] == 1.0


def test_slope_series_memory_cap(monkeypatch):
    """The stack and the trajectory of slope_series(t) take 16 (B t + t + 1)(2 t + 3)
    bytes for B branch operators; one byte over the cap is a ResourceError."""
    t = 10
    nbytes = 16 * (2 * t + t + 1) * (2 * t + 3)  # balanced: two branch operators
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", nbytes)
    assert slope_series(math.pi / 4, t).values.shape == (t,)
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", nbytes - 1)
    with pytest.raises(ResourceError, match="slope series"):
        slope_series(math.pi / 4, t)


def _counted(f):
    """f with a call count in .calls."""
    def wrapper(x):
        wrapper.calls += 1
        return f(x)
    wrapper.calls = 0
    return wrapper


def _stub_cases(rng):
    """(name, f, root) stubs over a seeded root: smooth, flat-spotted, steep, sign-only."""
    root = rng.uniform(-1.0, 1.0)
    scale = rng.uniform(0.1, 10.0)
    up, down = rng.uniform(0.01, 100.0, size=2)
    return [
        ("linear", lambda x: scale * (x - root), root),
        ("cubic flat spot", lambda x: (x - root) ** 3 + 1e-9 * (x - root), root),
        ("steep tanh", lambda x: math.tanh(200.0 * (x - root)), root),
        # sign-only with unequal sides: regula falsi probes far from the root,
        # and only the minmax projection keeps the evaluation bound
        ("step", lambda x: up if x > root else (-down if x < root else 0.0), root),
    ]


@pytest.mark.parametrize("seed", range(25))
def test_itp_root_contract_on_stubs(seed):
    """Within tol/2 of the root after at most ceil(log2((hi - lo) / tol)) + 1
    evaluations past the ends; bisection takes ceil(log2((hi - lo) / tol))."""
    rng = np.random.default_rng(seed)
    for name, f, root in _stub_cases(rng):
        lo = root - rng.uniform(1e-3, 2.0)
        hi = root + rng.uniform(1e-3, 2.0)
        tol = 10.0 ** rng.uniform(-12, -2)
        g = _counted(f)
        x = perturbation._itp_root(g, lo, hi, f(lo), f(hi), tol)
        # the final midpoint is rounded once: allow a few ulps beyond tol/2
        assert abs(x - root) <= tol / 2 + 4 * np.spacing(abs(root) + hi - lo), name
        assert g.calls <= math.ceil(math.log2((hi - lo) / tol)) + 1, name


def test_itp_root_returns_an_exact_zero_probe():
    probes = []

    def f(x):
        probes.append(x)
        return 0.0 if len(probes) == 3 else x - 0.3

    x = perturbation._itp_root(f, 0.0, 1.0, -0.3, 0.7, 1e-12)
    assert len(probes) == 3
    assert x == probes[-1]


def test_itp_root_ends_below_float_spacing():
    """A tol far below the spacing of floats near the root still ends, after
    at most ceil(log2((hi - lo) / tol)) + 1 evaluations."""
    f = _counted(lambda x: x - 0.7)
    x = perturbation._itp_root(f, 0.5, 1.0, -0.2, 0.3, 1e-300)
    assert abs(x - 0.7) <= 2 * np.spacing(0.7)
    assert f.calls <= math.ceil(math.log2(0.5 / 1e-300)) + 1


def _capped_slope(monkeypatch, cap=50):
    """slope_balanced replaced by a sign-only stub with a root at 0.29 pi that
    raises after cap calls, so a theta_star that loops fails instead of hanging."""
    calls = []

    def stub(theta, t):
        calls.append(theta)
        if len(calls) > cap:
            raise AssertionError(f"theta_star made more than {cap} slope calls")
        return 1.0 if theta < 0.29 * math.pi else -1.0

    monkeypatch.setattr(perturbation, "slope_balanced", stub)
    return calls


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t": 0},
        {"t": -3},
        {"t": 60, "tol": 0.0},
        {"t": 60, "tol": -1e-4},
        {"t": 60, "tol": math.nan},
        {"t": 60, "tol": math.inf},
        {"t": 60, "bracket_lo": 0.295 * math.pi, "bracket_hi": 0.285 * math.pi},
        {"t": 60, "bracket_lo": 0.29 * math.pi, "bracket_hi": 0.29 * math.pi},
        {"t": 60, "bracket_lo": math.nan},
        {"t": 60, "bracket_hi": math.inf},
        {"t": 60, "bracket_lo": -math.inf},
    ],
)
def test_theta_star_rejects_bad_arguments(monkeypatch, kwargs):
    calls = _capped_slope(monkeypatch)
    with pytest.raises(ParameterError):
        theta_star(**kwargs)
    assert not calls


def test_theta_star_sign_only_stub_meets_its_contract(monkeypatch):
    calls = _capped_slope(monkeypatch)
    ts = theta_star(60, tol=1e-9)
    assert abs(ts - 0.29 * math.pi) <= 0.5e-9 + 1e-15
    width = 0.01 * math.pi
    assert len(calls) <= 2 + math.ceil(math.log2(width / 1e-9)) + 1


def test_theta_star_matches_a_fine_bisection_in_seven_calls(monkeypatch):
    """theta_star(60) against the same slope bisected to 1e-9, and its count of
    slope_balanced calls (bisection makes 11 at the default bracket and tol)."""
    t, tol = 60, 1e-4
    lo, hi = 0.285 * math.pi, 0.295 * math.pi
    f_lo = slope_balanced(lo, t)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        f_mid = slope_balanced(mid, t)
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    reference = 0.5 * (lo + hi)

    calls = []

    def counted(theta, t):
        calls.append(theta)
        return slope_balanced(theta, t)

    monkeypatch.setattr(perturbation, "slope_balanced", counted)
    ts = theta_star(t, tol=tol)
    assert abs(ts - reference) <= tol / 2 + 1e-9
    assert len(calls) <= 7
