"""First derivative of the return probability at p = 0.

Works entirely with pure states: the unperturbed dynamics is the
monitored unitary walk, and each first-order term compares the surviving
norm of the unperturbed trajectory with branch trajectories where one
classical Kraus operator was inserted at step k. Every operator comes
from model.kraus_family and is applied by _apply, the pure-state twin of
directsim._apply_cptp; slope_series steps all branch states as one stack.

theta_star, the crossover angle, is the root of B_t(theta) found by
fitting._itp_root, the ITP root-finder find_minimum uses for its band edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import directsim
from .directsim import _span
from .errors import BracketError, ParameterError, ResourceError
from .fitting import _itp_root
from .model import Model, TranslationKraus, WalkParams, kraus_family

__all__ = [
    "MonitoredTrajectory",
    "SlopeSeries",
    "monitored_trajectory",
    "slope_series",
    "slope_balanced",
    "slope_correlated",
    "theta_star",
    "NONUNIFORM_THETA_WARNING",
]

# B_t need not converge to R'(0) close to theta = pi/2: the derivatives of
# R_t(p) fail to converge uniformly near p = 0 there. Surfaced by the CLI.
NONUNIFORM_THETA_WARNING = 0.45 * math.pi

# Branch states per _apply call in slope_series. Whole-stack temporaries grew
# the heap to several times the stack, and the heap kept that after the call.
_CHUNK = 64


def _apply(op: TranslationKraus, psi: np.ndarray) -> np.ndarray:
    """op on amplitudes of shape (2, ..., P), coin axis first; nothing wraps around."""
    n = psi.shape[-1]
    flat = psi.reshape(2, -1)
    out = np.zeros(psi.shape, np.result_type(psi, *(block for block, _ in op.terms)))
    for block, shift in op.terms:
        moved = (block @ flat).reshape(psi.shape)
        out[..., _span(shift, n)] += moved[..., _span(-shift, n)]
    return out


def _project_origin(psi: np.ndarray, origin: int) -> np.ndarray:
    psi[..., origin] = 0.0
    return psi


@dataclass
class MonitoredTrajectory:
    theta: float
    states: list  # v_k = (pi0' U)^k psi0, k = 0..t

    @property
    def origin(self) -> int:
        return (self.states[0].shape[1] - 1) // 2

    def survival(self) -> np.ndarray:
        return np.array([np.vdot(v, v).real for v in self.states])


def monitored_trajectory(
    theta: float, t_max: int, coin_state=None
) -> MonitoredTrajectory:
    """Monitored pure-state evolution (pi0' U)^k from the origin; complex only
    for a complex coin_state."""
    if t_max < 1:
        raise ParameterError("t_max must be >= 1")
    if coin_state is None:
        coin_state = [1.0, 0.0]
    coin_state = np.asarray(coin_state)
    coin_state = coin_state.astype(complex if np.iscomplexobj(coin_state) else float)
    if abs(np.vdot(coin_state, coin_state) - 1.0) > 1e-12:
        raise ParameterError("coin state must be normalized")
    half = t_max + 1
    step = kraus_family(WalkParams(theta, 0.0)).kraus[0]  # U = S (C x I)
    psi = np.zeros((2, 2 * half + 1), dtype=coin_state.dtype)
    psi[:, half] = coin_state
    states = [psi]
    for _ in range(t_max):
        psi = _project_origin(_apply(step, psi), half)
        states.append(psi)
    return MonitoredTrajectory(theta=theta, states=states)


@dataclass
class SlopeSeries:
    theta: float
    model: Model
    values: np.ndarray  # B_t for t = 1..t_max, values[t-1]


def slope_series(theta: float, t_max: int, model: Model = Model.BALANCED) -> SlopeSeries:
    """B_t = R_t'(p=0) for every t up to t_max in one stacked pass.

    B_t = t S_t - ||stack||^2, where the stack (2, branch, P) holds every
    branch state spawned so far: step t applies U and the origin projection
    to the whole stack, _CHUNK states per call, then appends P E_j v_{t-1}
    for each classical E_j. Coin, Kraus blocks and start are real, so the
    stack is float64: half the memory of a complex one. ResourceError when
    the stack and the trajectory would exceed directsim.DEFAULT_MEMORY_CAP.
    """
    # the classical Kraus operators at unit weight (p = 1, coined operator dropped)
    params = WalkParams(theta, 1.0, model)
    branches = kraus_family(params).kraus[1:]
    nbytes = 16 * (len(branches) * t_max + t_max + 1) * (2 * t_max + 3)
    cap = directsim.DEFAULT_MEMORY_CAP
    if nbytes > cap:
        raise ResourceError(f"slope series would need {nbytes} bytes (cap {cap})")
    traj = monitored_trajectory(theta, t_max)
    origin = traj.origin
    survival = traj.survival()
    step = kraus_family(WalkParams(theta, 0.0)).kraus[0]

    stack = np.zeros((2, len(branches) * t_max, 2 * origin + 1))
    values = np.empty(t_max)
    for t, v in enumerate(traj.states[:t_max], start=1):
        live = len(branches) * (t - 1)
        for i in range(0, live, _CHUNK):
            part = stack[:, i:min(i + _CHUNK, live)]
            part[...] = _apply(step, part)
        for j, op in enumerate(branches):
            stack[:, live + j] = _apply(op, v)
        _project_origin(stack, origin)
        values[t - 1] = t * survival[t] - np.vdot(stack, stack)
    return SlopeSeries(theta=theta, model=params.model, values=values)


def slope_balanced(theta: float, t: int) -> float:
    """R_t'(p=0) for the balanced-RW interpolation."""
    return float(slope_series(theta, t, Model.BALANCED).values[t - 1])


def slope_correlated(theta: float, t: int) -> float:
    """R_t'(p=0) for the correlated-RW interpolation."""
    return float(slope_series(theta, t, Model.CORRELATED).values[t - 1])


def theta_star(
    t: int,
    bracket_lo: float = 0.285 * math.pi,
    bracket_hi: float = 0.295 * math.pi,
    tol: float = 1e-4,
) -> float:
    """Root of B_t(theta) on the bracket, by _itp_root: the crossover angle.

    The result lies within tol/2 of the root. Past the two ends it takes at
    most ceil(log2((bracket_hi - bracket_lo) / tol)) + 1 slope evaluations; at
    the defaults it makes 7 calls in all at t = 60, 100 and 120.
    ParameterError for t < 1, a bracket that is not finite with
    bracket_lo < bracket_hi, or a tol that is not finite and > 0; BracketError
    when B_t has one sign at both ends.
    """
    if t < 1:
        raise ParameterError("t must be >= 1")
    if not (math.isfinite(bracket_lo) and math.isfinite(bracket_hi) and bracket_lo < bracket_hi):
        raise ParameterError(
            f"theta_star needs finite bracket_lo < bracket_hi, got [{bracket_lo}, {bracket_hi}]"
        )
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"theta_star needs a finite tol > 0, got {tol}")
    f_lo = slope_balanced(bracket_lo, t)
    f_hi = slope_balanced(bracket_hi, t)
    if f_lo == 0.0:
        return bracket_lo
    if f_hi == 0.0:
        return bracket_hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"B_{t} does not change sign on [{bracket_lo}, {bracket_hi}]"
        )
    return _itp_root(
        lambda theta: slope_balanced(theta, t), bracket_lo, bracket_hi, f_lo, f_hi, tol
    )
