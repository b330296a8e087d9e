"""Acceptance gate: one pass/fail line per criterion.

Each criterion emits `[ACCEPTANCE nn] PASS/FAIL - ...`; the lines are
replayed in the terminal summary (see conftest.py). Tolerances are
pinned here and must not be loosened.
"""

import math

import numpy as np

import conftest

from dtqsw import (
    FitForm,
    Model,
    WalkParams,
    fit_power_law,
    fourier_blocks,
    kraus_family,
    momentum_kernel,
    recurrence_estimate,
    return_series,
    slope_series,
    theta_star,
    weighted_return,
    z_sweep,
)
from dtqsw._kernels import determinant_grid
from dtqsw.genfun import DEFAULT_Z_SAMPLES
from dtqsw.model import balanced_family_from_coin, general_coin
from dtqsw.oracles import pi_half_weighted_return, recurrence_unitary
from dtqsw.perturbation import slope_balanced

THETA_STAR_REF = 0.2892 * math.pi


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_acceptance_01_unitary_oracle_match():
    params = WalkParams(math.pi / 4, 0.0)
    target = 2 / math.pi
    diff_a = abs(recurrence_estimate(params, 0.9999) - target)
    diff_b = abs(recurrence_estimate(params, 0.99999) - target)
    ok = diff_a < 5e-3 and diff_b < 1e-3
    report(1, ok, f"theta=pi/4 unitary vs 2/pi: |diff|={diff_a:.2e} (tol 5e-3) "
                  f"at z=0.9999, {diff_b:.2e} (tol 1e-3) at z=0.99999")


def test_acceptance_02_unitary_value_at_2pi5():
    value = recurrence_estimate(WalkParams(2 * math.pi / 5, 0.0), 0.99999)
    ok = abs(value - 0.9224) < 2e-3
    report(2, ok, f"theta=2pi/5 unitary estimate {value:.6f} vs 0.9224 (tol 2e-3)")


def test_acceptance_03_dip_existence():
    z = 0.99999
    p_grid = [0.02 * i for i in range(16)]  # 0, 0.02, ..., 0.30
    theta_dip = THETA_STAR_REF + 0.1
    dip_vals = [recurrence_estimate(WalkParams(theta_dip, p), z) for p in p_grid]
    i_min = int(np.argmin(dip_vals))
    drop = dip_vals[0] - dip_vals[i_min]
    had_vals = [recurrence_estimate(WalkParams(math.pi / 4, p), z) for p in p_grid]
    nondecreasing = all(b - a > -1e-4 for a, b in zip(had_vals, had_vals[1:]))
    ok = i_min > 0 and drop >= 0.005 and nondecreasing
    report(3, ok, f"dip at p={p_grid[i_min]:.2f} with drop {drop:.4f} "
                  f"(need p>0, drop>=0.005); Hadamard non-decreasing: {nondecreasing}")


def test_acceptance_04_crossover_angle():
    ts = theta_star(100)
    ok = 0.2885 * math.pi <= ts <= 0.2895 * math.pi
    report(4, ok, f"theta_star(100) = {ts / math.pi:.5f} pi "
                  f"(need [0.2885 pi, 0.2895 pi])")


def test_acceptance_05_oracle_equivalence_small_z():
    worst = 0.0
    t_max = 219  # 0.9^219 < 1e-10 covers every z in the set
    for model in (Model.BALANCED, Model.CORRELATED):
        for theta in (math.pi / 4, 2 * math.pi / 5):
            for p in (0.2, 0.7):
                params = WalkParams(theta, p, model)
                series = return_series(params, t_max)
                for z in (0.5, 0.8, 0.9):
                    est = recurrence_estimate(params, z)
                    worst = max(worst, abs(est - weighted_return(series, z)))
    ok = worst < 5e-6
    report(5, ok, f"genfun vs direct simulation, worst |diff| = {worst:.2e} "
                  f"(tol 5e-6, both models, 4 combos x 3 z)")


def test_acceptance_06_pi_half_closed_form():
    worst = 0.0
    for z in (0.9, 0.99, 0.999):
        for p in (0.1, 0.5, 0.9):
            est = recurrence_estimate(WalkParams(math.pi / 2, p), z)
            worst = max(worst, abs(est - pi_half_weighted_return(z, p)))
    ok = worst < 1e-6
    report(6, ok, f"theta=pi/2 numerics vs closed form, worst |diff| = "
                  f"{worst:.2e} (tol 1e-6)")


def test_acceptance_07_correlated_step_function():
    params = WalkParams(2 * math.pi / 5, 0.5, Model.CORRELATED)
    points = z_sweep(params)
    assert all(pt.error is None for pt in points)
    fit = fit_power_law([(pt.z, pt.value) for pt in points], FitForm.ONE_MINUS_B)
    fit_ok = math.isfinite(fit.c_fit) and fit.c_fit > 0 and fit.a_fit == 1.0
    r5 = []
    r10 = []
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        series = return_series(WalkParams(2 * math.pi / 5, p, Model.CORRELATED), 10)
        r5.append(series.return_prob[5])
        r10.append(series.return_prob[10])
    r5_const = max(r5) - min(r5) < 1e-12
    r10_increasing = all(b > a for a, b in zip(r10, r10[1:]))
    ok = fit_ok and r5_const and r10_increasing
    report(7, ok, f"1-b(1-z)^c fit: b={fit.b_fit:.3f}, c={fit.c_fit:.3f}, limit 1; "
                  f"R5 spread {max(r5) - min(r5):.1e} (tol 1e-12); "
                  f"R10 strictly increasing: {r10_increasing}")


def test_acceptance_08_slope_regimes():
    bal = slope_series(2 * math.pi / 5, 40, Model.BALANCED).values
    saturation = abs(bal[39] - bal[29]) < 0.05 * abs(bal[39])
    cor = slope_series(2 * math.pi / 5, 100, Model.CORRELATED).values
    t = np.arange(40, 101)
    y = cor[39:100]
    coeffs = np.polyfit(t, y, 1)
    resid = y - np.polyval(coeffs, t)
    r_sq = 1 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    linear = r_sq > 0.999
    b40_pi_half = slope_balanced(math.pi / 2, 40)
    pi_half_ok = abs(b40_pi_half + 1.0) < 0.05
    ok = saturation and linear and pi_half_ok
    report(8, ok, f"balanced saturation |B40-B30|/|B40| = "
                  f"{abs(bal[39] - bal[29]) / abs(bal[39]):.3f} (tol 0.05); "
                  f"correlated linearity R^2 = {r_sq:.5f} (need >0.999); "
                  f"B40(pi/2) = {b40_pi_half:.6f} (need -1 +- 0.05)")


def test_acceptance_09_fit_exponent_regimes():
    results = {}
    for p, c_target in ((0.0, 1.0), (1.0, 0.5)):
        points = z_sweep(WalkParams(math.pi / 4, p), DEFAULT_Z_SAMPLES)
        assert all(pt.error is None for pt in points)
        fit = fit_power_law([(pt.z, pt.value) for pt in points], FitForm.A_MINUS_B)
        results[p] = fit.c_fit
    ok = abs(results[0.0] - 1.0) < 0.1 and abs(results[1.0] - 0.5) < 0.1
    report(9, ok, f"c_fit(p=0) = {results[0.0]:.3f} (need 1 +- 0.1); "
                  f"c_fit(p=1) = {results[1.0]:.3f} (need 0.5 +- 0.1)")


def test_acceptance_10_truncation_stability():
    worst = 0.0
    # the three featured coin angles; small angles (theta < ~0.35 rad)
    # converge slower in n_max and sit outside the validated bound
    for theta in (math.pi / 4, THETA_STAR_REF + 0.1, 2 * math.pi / 5):
        for p in (0.1, 0.5, 0.9):
            params = WalkParams(theta, p)
            a = recurrence_estimate(params, 0.999, n_max=20)
            b = recurrence_estimate(params, 0.999, n_max=30)
            worst = max(worst, abs(a - b))
    ok = worst < 2e-5
    report(10, ok, f"|R(n_max=20) - R(n_max=30)| worst = {worst:.2e} "
                   f"(tol 2e-5, 3x3 grid at z=0.999)")


def test_acceptance_11_property_suites():
    checks = {}
    k = np.linspace(0, 2 * np.pi, 64, endpoint=False)

    # CPTP completeness on a momentum grid, both models
    defect = max(
        kraus_family(WalkParams(theta, p, model)).completeness_defect(k)
        for model in (Model.BALANCED, Model.CORRELATED)
        for theta in (0.3, math.pi / 4, 1.4)
        for p in (0.0, 0.5, 1.0)
    )
    checks["completeness<1e-12"] = defect < 1e-12

    # coin-state independence of the survival
    params = WalkParams(math.pi / 3, 0.3)
    base = return_series(params, 30, np.diag([1.0, 0.0])).survival
    circ = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
    diff = np.max(np.abs(return_series(params, 30, circ).survival - base))
    checks["coin-independence<1e-10"] = diff < 1e-10

    # gauge invariance under the phase angles of the general coin
    fam = balanced_family_from_coin(general_coin(math.pi / 3, 0.7, 1.1, 0.0), 0.3)
    from dtqsw import initial_state, step_monitored

    state = initial_state(np.diag([1.0, 0.0]), 31)
    gauge = [1.0]
    for _ in range(30):
        state = step_monitored(state, fam)
        gauge.append(state.survival())
    checks["gauge-invariance<1e-10"] = np.max(np.abs(np.array(gauge) - base)) < 1e-10

    # parity selection rule: odd-step first returns vanish
    series = return_series(WalkParams(math.pi / 4, 0.3), 21)
    checks["parity-rule<1e-14"] = np.max(np.abs(series.first_return[0::2])) < 1e-14

    # Hermiticity / positivity / trace of the monitored state
    state = initial_state(circ, 10)
    family = kraus_family(WalkParams(0.9, 0.4, Model.CORRELATED))
    herm_ok = True
    for _ in range(8):
        state = step_monitored(state, family)
        dim = 2 * (2 * state.half_width + 1)
        flat = state.rho.reshape(dim, dim)
        herm_ok &= np.max(np.abs(flat - flat.conj().T)) < 1e-12
        herm_ok &= np.min(np.linalg.eigvalsh(flat)) > -1e-10
        herm_ok &= state.survival() + state.absorbed_mass < 1 + 1e-12
    checks["state-invariants"] = bool(herm_ok)

    # determinant closed form vs brute force
    rng = np.random.default_rng(5)
    worst_det = 0.0
    for _ in range(50):
        theta, p = rng.uniform(0, math.pi / 2), rng.uniform(0, 1)
        z, k1, k2 = rng.uniform(0.1, 0.99), *rng.uniform(0, 2 * np.pi, 2)
        fam = kraus_family(WalkParams(theta, p))
        ref = np.linalg.det(np.eye(4) - z * momentum_kernel(fam, k1, k2)).real
        det = determinant_grid(np.array([k1 + k2]), np.array([k1 - k2]), z, p, theta)
        worst_det = max(worst_det, abs(det[0, 0] - ref))
    checks["determinant<1e-12"] = worst_det < 1e-12

    ok = all(checks.values())
    detail = ", ".join(f"{name}: {'ok' if v else 'FAIL'}" for name, v in checks.items())
    report(11, ok, detail)
