"""Compute the committed reference values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_references.py [--out perfbench/references.json]

Run once; it takes about half an hour on two cores. No reference is
the output the benchmark checks: each comes from the other route or from a
refined truncation.

* recur_balanced: genfun at n_max=30, grid=4096 (the benchmark runs the
  default n_max=20, grid=1024), for every interior-pool and p=0 point.
* fit: fit_power_law of the ten reference values of one (theta, p) sweep;
  the reference values are closed forms at theta=pi/2 or p=1, else the
  refined genfun values above.
* recur_correlated: direct simulation to t_max=100, summed as
  sum_m q_m z^(m-1) (the tail is below z^100 <= 2e-10).
* evolve_correlated: genfun at the default truncation, which at z <= 0.8
  is converged far below the 5e-6 check.
* slope: dR_t/dp at p=0 from the density-matrix tangent recursion
  sigma_{t+1} = P Phi_0 sigma_t + P (Phi_1 - Phi_0) rho_t, where Phi_p is
  the channel (affine in p) and P the monitoring projection. The
  perturbation module instead sums pure-state branch norms.
* theta_star: the root of the balanced tangent-recursion B_t(theta) on
  perturbation.theta_star's bracket [0.285pi, 0.295pi], bisected to a width
  of THETA_STAR_WIDTH (theta_star bisects B_t from slope_series to 1e-4).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from dtqsw import directsim, genfun, oracles  # noqa: E402
from dtqsw.fitting import FitForm, fit_power_law  # noqa: E402
from dtqsw.model import Model, WalkParams, kraus_family  # noqa: E402
from dtqsw.perturbation import slope_series  # noqa: E402
from perfbench import provenance, workloads as wl  # noqa: E402

REFINED = {"n_max": 30, "grid_n": 4096}
THETA_STAR_WIDTH = 1e-7


def log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def balanced_closed_form(theta, p, z):
    """Closed-form R~_z where one exists for the balanced model, else None."""
    if abs(theta - math.pi / 2) < 1e-12:
        return oracles.pi_half_weighted_return(z, p)
    if p == 1.0:
        return (1.0 - math.sqrt(1.0 - z * z)) / z
    return None


def recur_balanced():
    rows = []
    for theta in wl.INTERIOR_THETAS:
        for p in (0.0,) + wl.BALANCED_P_POOL:
            params = WalkParams(theta, p)
            for z in wl.DEFAULT_Z_SAMPLES:
                rows.append([theta, p, z, genfun.recurrence_estimate(params, z, **REFINED)])
            log(f"refined balanced theta={theta:.6f} p={p}")
    return rows


def fits(refined_rows):
    refined = {(round(t, 8), round(p, 8), z): v for t, p, z, v in refined_rows}
    rows = []
    for theta in wl.THETAS:
        for p in (0.0,) + wl.BALANCED_P_POOL + (1.0,):
            points = []
            for z in wl.DEFAULT_Z_SAMPLES:
                value = balanced_closed_form(theta, p, z)
                if value is None:
                    value = refined[(round(theta, 8), round(p, 8), z)]
                points.append((z, value))
            fit = fit_power_law(points, FitForm.A_MINUS_B)
            rows.append([theta, p, fit.a_fit, fit.c_fit])
    return rows


def recur_correlated():
    rows = []
    for theta, p in wl.CORRELATED_POOL:
        series = directsim.return_series(WalkParams(theta, p, Model.CORRELATED), 100)
        for z in wl.SMALL_Z:
            rows.append([theta, p, z, directsim.weighted_return(series, z)])
        log(f"directsim correlated theta={theta:.6f} p={p}")
    return rows


def evolve_correlated():
    rows = []
    for theta, p in wl.CORRELATED_POOL:
        params = WalkParams(theta, p, Model.CORRELATED)
        for z in wl.SMALL_Z:
            rows.append([theta, p, z, genfun.recurrence_estimate(params, z)])
        log(f"genfun correlated theta={theta:.6f} p={p}")
    return rows


def tangent_slope(theta, model, t_max):
    """B_t = dR_t/dp at p=0, t = 1..t_max, by the density-matrix tangent."""
    fam0 = kraus_family(WalkParams(theta, 0.0, model))
    fam1 = kraus_family(WalkParams(theta, 1.0, model))
    half = t_max + 1
    rho = directsim.initial_state(np.diag([1.0, 0.0]), half)
    sigma = directsim.MonitoredDensityState(half, np.zeros_like(rho.rho))
    values = []
    for t in range(1, t_max + 1):
        a = directsim.step_monitored(sigma, fam0)
        b = directsim.step_monitored(rho, fam1)
        rho = directsim.step_monitored(rho, fam0)
        sigma = directsim.MonitoredDensityState(half, a.rho + b.rho - rho.rho, t)
        values.append(-sigma.survival())
    return values


def slopes():
    rows = []
    gap = 0.0
    t_max = max(wl.SLOPE_TS)
    for model in (Model.BALANCED, Model.CORRELATED):
        for theta in wl.THETAS:
            values = tangent_slope(theta, model, t_max)
            other = slope_series(theta, t_max, model).values
            gap = max(gap, float(np.max(np.abs(np.array(values) - other))))
            rows.extend([model.value, theta, t, values[t - 1]] for t in wl.SLOPE_TS)
            log(f"tangent slope {model.value} theta={theta:.6f}")
    return rows, gap


def tangent_theta_star(t):
    lo, hi = 0.285 * math.pi, 0.295 * math.pi
    f_lo = tangent_slope(lo, Model.BALANCED, t)[-1]
    if math.copysign(1.0, f_lo) == math.copysign(1.0, tangent_slope(hi, Model.BALANCED, t)[-1]):
        raise RuntimeError(f"B_{t} does not change sign on [{lo}, {hi}]")
    while hi - lo > THETA_STAR_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = tangent_slope(mid, Model.BALANCED, t)[-1]
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theta_stars():
    rows = []
    for t in wl.THETA_STAR_TS:
        rows.append([t, tangent_theta_star(t)])
        log(f"tangent theta_star({t}) = {rows[-1][1] / math.pi:.8f} pi")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "references.json"))
    args = parser.parse_args()
    started = time.perf_counter()
    slope_rows, slope_gap = slopes()
    theta_star_rows = theta_stars()
    cor_direct = recur_correlated()
    cor_genfun = evolve_correlated()
    cross_gap = max(abs(a[3] - b[3]) for a, b in zip(cor_direct, cor_genfun))
    refined = recur_balanced()
    doc = {
        "provenance": {
            "script": "perfbench/make_references.py",
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "dtqsw_git_sha": provenance.git_sha(ROOT),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "minutes": round((time.perf_counter() - started) / 60, 1),
            "recur_balanced": "genfun.recurrence_estimate at n_max=30, grid_n=4096",
            "fit": "fit_power_law(a - b(1-z)^c) of closed-form or refined values",
            "recur_correlated": "directsim.weighted_return of return_series(t_max=100)",
            "evolve_correlated": "genfun.recurrence_estimate at n_max=20, grid_n=1024",
            "slope": "density-matrix tangent recursion on directsim.step_monitored",
            "theta_star": f"bisection of the tangent-recursion B_t to width {THETA_STAR_WIDTH:g}",
            "max_gap_correlated_genfun_vs_directsim": cross_gap,
            "max_gap_slope_tangent_vs_perturbation": slope_gap,
        },
        "recur_balanced": refined,
        "fit": fits(refined),
        "recur_correlated": cor_direct,
        "evolve_correlated": cor_genfun,
        "slope": slope_rows,
        "theta_star": theta_star_rows,
    }
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {args.out}")


if __name__ == "__main__":
    main()
