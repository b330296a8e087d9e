"""First derivative of the return probability at p = 0.

Works entirely with pure states: the unperturbed dynamics is the
monitored unitary walk, and each first-order term compares the surviving
norm of the unperturbed trajectory with branch trajectories where one
classical Kraus operator was inserted at step k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ParameterError
from .model import Model, WalkParams, coin_matrix, kraus_family

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


def _unitary_step(psi: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """Apply U = S (C x I) to a (2, P) amplitude array, zero-fill shifts."""
    mixed = coin @ psi
    out = np.zeros_like(psi)
    out[0, 1:] = mixed[0, :-1]  # R component shifts right
    out[1, :-1] = mixed[1, 1:]  # L component shifts left
    return out


def _project_origin(psi: np.ndarray, origin: int) -> np.ndarray:
    psi[:, origin] = 0.0
    return psi


def _shift_state(psi: np.ndarray, shift: int) -> np.ndarray:
    out = np.zeros_like(psi)
    if shift > 0:
        out[:, shift:] = psi[:, :-shift]
    else:
        out[:, :shift] = psi[:, -shift:]
    return out


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
    """Monitored pure-state evolution (pi0' U)^k from the origin."""
    if t_max < 1:
        raise ParameterError("t_max must be >= 1")
    if coin_state is None:
        coin_state = np.array([1.0, 0.0])
    coin_state = np.asarray(coin_state, dtype=complex)
    if abs(np.vdot(coin_state, coin_state) - 1.0) > 1e-12:
        raise ParameterError("coin state must be normalized")
    half = t_max + 1
    p_dim = 2 * half + 1
    coin = coin_matrix(theta)
    psi = np.zeros((2, p_dim), dtype=complex)
    psi[:, half] = coin_state
    states = [psi]
    for _ in range(t_max):
        psi = _project_origin(_unitary_step(psi, coin), half)
        states.append(psi)
    return MonitoredTrajectory(theta=theta, states=states)


@dataclass
class SlopeSeries:
    theta: float
    model: Model
    values: np.ndarray  # B_t for t = 1..t_max, values[t-1]


def slope_series(theta: float, t_max: int, model: Model = Model.BALANCED) -> SlopeSeries:
    """B_t = R_t'(p=0) for every t up to t_max in one pass.

    Each branch state spawned at step k is evolved monitored to t_max,
    recording its norm at every intermediate step, so all B_t come out of
    a single O(t_max^2) sweep.
    """
    if isinstance(model, str):
        model = Model(model)
    traj = monitored_trajectory(theta, t_max)
    origin = traj.origin
    coin = coin_matrix(theta)
    survival = traj.survival()
    # the classical Kraus operators at unit weight (p = 1, coined operator dropped)
    branches = kraus_family(WalkParams(theta, 1.0, model)).kraus[1:]

    # acc[t] accumulates the (negative) branch norms contributing to B_t
    acc = np.zeros(t_max + 1)
    for k, v in enumerate(traj.states[:t_max]):
        for op in branches:
            w = sum(_shift_state(block @ v, shift) for block, shift in op.terms)
            w = _project_origin(w, origin)
            acc[k + 1] -= np.vdot(w, w).real
            for t in range(k + 2, t_max + 1):
                w = _project_origin(_unitary_step(w, coin), origin)
                acc[t] -= np.vdot(w, w).real
    values = np.array([t * survival[t] + acc[t] for t in range(1, t_max + 1)])
    return SlopeSeries(theta=theta, model=model, values=values)


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
    """Bisection root of B_t(theta) on the bracket: the crossover angle."""
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
    lo, hi = bracket_lo, bracket_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = slope_balanced(mid, t)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
