"""Power-law fits of R~_z-vs-z data and minima location in p.

The fit model a - b(1-z)^c is linear in (a, b) once c is fixed, so the
nonlinear part reduces to a 1-d search over the exponent. The linear part
is a closed-form least squares, vectorised over an array of exponents:
one call scores a coarse grid, then the bracket around the best exponent
is re-gridded with 33 points per round until it is as narrow as 60
golden-section steps would leave it. No initialization heuristics are
needed and the fit cannot diverge.

_itp_root is the one bracketed root-finder, ITP (I. F. D. Oliveira and
R. H. C. Takahashi, ACM TOMS 47(1), 2020): find_minimum finds its band edges
with it, and perturbation.theta_star the crossover angle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerateError, ParameterError

__all__ = [
    "FitForm",
    "PowerLawFit",
    "MinimumEstimate",
    "fit_power_law",
    "minimize_unimodal",
    "find_minimum",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
C_GRID = np.linspace(0.1, 2.0, 96)
_REGRID = 33  # points per round of bracket refinement


class FitForm(enum.Enum):
    A_MINUS_B = "aminusb"  # a - b (1-z)^c
    ONE_MINUS_B = "oneminusb"  # 1 - b (1-z)^c


def _solve_linear(t, values, c, form):
    """Least-squares (a, b) and SSE for each exponent in c; t = 1 - z.

    c may be an array: the results have its shape. a - b t^c is fitted
    with centred sums, which do not lose the small slope to cancellation.
    """
    basis = t ** np.asarray(c, dtype=float)[..., None]
    if form is FitForm.A_MINUS_B:
        mean = basis.mean(axis=-1)
        centred = basis - mean[..., None]
        b = -(centred @ (values - values.mean())) / np.sum(centred * centred, axis=-1)
        a = values.mean() + b * mean
    else:
        b = (basis @ (1.0 - values)) / np.sum(basis * basis, axis=-1)
        a = np.ones_like(b)
    resid = values - (a[..., None] - b[..., None] * basis)
    return a, b, np.sum(resid * resid, axis=-1)


@dataclass(frozen=True)
class PowerLawFit:
    a_fit: float
    b_fit: float
    c_fit: float
    a_err: float
    b_err: float
    c_err: float
    model_form: FitForm
    residual_norm: float

    def predict(self, z):
        z = np.asarray(z, dtype=float)
        return self.a_fit - self.b_fit * (1.0 - z) ** self.c_fit


def fit_power_law(points, form: FitForm = FitForm.A_MINUS_B) -> PowerLawFit:
    """Fit (z, value) data to a - b(1-z)^c or 1 - b(1-z)^c.

    Standard errors are Jacobian-based asymptotic estimates at the optimum
    (no error model beyond i.i.d. residuals is assumed).
    """
    if isinstance(form, str):
        form = FitForm(form)
    points = sorted(points)
    if len(points) < 4:
        raise ParameterError("need at least 4 points")
    z = np.array([q[0] for q in points], dtype=float)
    values = np.array([q[1] for q in points], dtype=float)
    if not np.all(np.isfinite(z)):
        raise ParameterError("z must be finite")
    if np.any(z >= 1.0) or np.any(np.diff(z) <= 0):
        raise ParameterError("z must be strictly increasing and < 1")
    if np.ptp(values) < 1e-14:
        raise FitDegenerateError("constant data", constant=float(values[0]))
    if not np.all(np.isfinite(values)):
        raise ParameterError("values must be finite")
    t = 1.0 - z

    i_best = int(np.argmin(_solve_linear(t, values, C_GRID, form)[2]))
    lo = C_GRID[max(i_best - 1, 0)]
    hi = C_GRID[min(i_best + 1, len(C_GRID) - 1)]
    width = _GOLDEN**60 * (hi - lo)
    while hi - lo > width:
        grid = np.linspace(lo, hi, _REGRID)
        i_best = int(np.argmin(_solve_linear(t, values, grid, form)[2]))
        lo, hi = grid[max(i_best - 1, 0)], grid[min(i_best + 1, _REGRID - 1)]
    c = 0.5 * (lo + hi)
    a, b, best_sse = (float(v) for v in _solve_linear(t, values, c, form))

    # asymptotic covariance from the Jacobian of the residuals
    basis = t**c
    log_t = np.log(t)
    if form is FitForm.A_MINUS_B:
        jac = np.column_stack([np.ones_like(t), -basis, -b * basis * log_t])
        n_par = 3
    else:
        jac = np.column_stack([-basis, -b * basis * log_t])
        n_par = 2
    dof = max(len(z) - n_par, 1)
    sigma2 = best_sse / dof
    cov = sigma2 * np.linalg.pinv(jac.T @ jac)
    if form is FitForm.A_MINUS_B:
        a_err, b_err, c_err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    else:
        a_err = 0.0
        b_err, c_err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return PowerLawFit(
        a_fit=a, b_fit=b, c_fit=c,
        a_err=float(a_err), b_err=float(b_err), c_err=float(c_err),
        model_form=form, residual_norm=math.sqrt(best_sse),
    )


@dataclass(frozen=True)
class MinimumEstimate:
    p_min: float
    r_min: float
    interval_1e2: tuple
    interval_1e3: tuple
    monotone: bool = False


def minimize_unimodal(func, lo=0.0, hi=1.0, iterations=15):
    """Halve the bracket around the minimizer of a unimodal function.

    Each iteration compares the function just left and right of the
    midpoint, so the interval width shrinks by 2^-iterations.
    """
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        delta = (hi - lo) * 1e-3
        if func(mid - delta) < func(mid + delta):
            hi = mid + delta
        else:
            lo = mid - delta
    p = 0.5 * (lo + hi)
    return p, func(p)


def _itp_root(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """Root of f on [lo, hi] by ITP with k1 = 0.2 / (hi - lo), k2 = 2, n0 = 1.

    f_lo = f(lo) and f_hi = f(hi) have opposite signs. Each step interpolates
    (regula falsi), truncates toward the midpoint by k1 w^k2 and projects into
    the minmax radius around it, so the bracket after step j is no wider than
    tol 2^(n_max - j - 1) with n_max = ceil(log2((hi - lo) / tol)) + n0.
    Returns the midpoint of a final bracket no wider than tol, or a probe where
    f is exactly 0, after at most n_max evaluations of f: one more than
    bisection in the worst case.
    """
    k1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / tol)) + 1
    for j in range(n_max):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        x_f = lo + width * (f_lo / (f_lo - f_hi))
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        radius = math.ldexp(tol, n_max - j - 1) - 0.5 * width
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        y = f(x)
        if y == 0.0:
            return x
        if math.copysign(1.0, y) == math.copysign(1.0, f_lo):
            lo, f_lo = x, y
        else:
            hi, f_hi = x, y
    return 0.5 * (lo + hi)


def find_minimum(func, iterations: int = 15) -> MinimumEstimate:
    """Locate the minimizer of p -> func(p) on [0, 1] with uncertainty bands.

    Unimodality is assumed; a monotone profile (detected by probing near
    p = 0) short-circuits to p_min = 0 with empty intervals. Each band edge,
    an _itp_root on [0, p_min] or [p_min, 1] that reuses func(0), func(1) and
    r_min, lies within width 2^-(iterations + 1) of its crossing.
    ParameterError for iterations < 1.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    probe = 1.0 / 32.0
    f0 = func(0.0)
    if f0 <= func(probe) and f0 <= func(2 * probe):
        return MinimumEstimate(
            p_min=0.0, r_min=f0, interval_1e2=(0.0, 0.0),
            interval_1e3=(0.0, 0.0), monotone=True,
        )
    p_min, r_min = minimize_unimodal(func, 0.0, 1.0, iterations)
    f1 = func(1.0)
    intervals = []
    for offset in (1e-2, 1e-3):
        target = r_min + offset
        lo = _itp_root(lambda p: func(p) - target, 0.0, p_min, f0 - target, r_min - target,
                       math.ldexp(p_min, -iterations)) if f0 > target else 0.0
        hi = _itp_root(lambda p: func(p) - target, p_min, 1.0, r_min - target, f1 - target,
                       math.ldexp(1.0 - p_min, -iterations)) if f1 > target else 1.0
        intervals.append((lo, hi))
    return MinimumEstimate(
        p_min=p_min, r_min=r_min,
        interval_1e2=intervals[0], interval_1e3=intervals[1],
    )
