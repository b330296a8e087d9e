"""Closed-form reference values used as ground truth in tests and the CLI."""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "recurrence_unitary",
    "pi_half_genfun",
    "pi_half_weighted_return",
    "classical_first_return",
]


# theta(1 - cot^2) + cot = theta * sum_k c_k theta^(2k), c_6 .. c_0 (Taylor series)
_SMALL_THETA_SERIES = (-8 / 2606175, -5528 / 212837625, -4 / 18711, -8 / 4725, -4 / 315,
                       -4 / 45, 4 / 3)
_SMALL_THETA = 0.15


def recurrence_unitary(theta: float) -> float:
    """Recurrence probability of the unitary walk, (2/pi)[theta(1-cot^2) + cot].

    The 1/theta terms of the bracket cancel, leaving a relative error of
    about 2e-16/theta^2, so below _SMALL_THETA the Taylor series is summed
    instead: relative error under 3e-16 there against 50-digit values, and
    under 1e-14 for the closed form above it. theta = 0 gives 0; the formula
    is singular there, but the walker moves one way and never returns.
    """
    if not 0.0 <= theta <= math.pi / 2 + 1e-15:
        raise ParameterError("theta must lie in [0, pi/2]")
    if theta < _SMALL_THETA:
        return (2.0 / math.pi) * theta * float(np.polyval(_SMALL_THETA_SERIES, theta * theta))
    cot = math.cos(theta) / math.sin(theta)
    return (2.0 / math.pi) * (theta * (1.0 - cot**2) + cot)


def pi_half_genfun(z: float, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Return-probability and first-return generating matrices at theta=pi/2.

    R(z) has 0/0 off-diagonals at p = 0 (algebraic limit 0) and u -> 0 as
    z -> 1; Q(z) = I - R(z)^-1 uses the closed-form inverse, which stays
    finite in both corners.
    """
    if not 0.0 <= z < 1.0:
        raise ParameterError("z must lie in [0, 1)")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    a = 1.0 - (1.0 - p) * z
    b = 1.0 + (1.0 - p) * z
    c = p * z
    # a^2 - c^2 = (1 - z)(1 - z + 2pz) >= 0 and b^2 - c^2 = (1 + z)(1 + z - 2pz) >= 0
    u = math.sqrt(max(a * a - c * c, 0.0))
    v = math.sqrt(max(b * b - c * c, 0.0))
    diag = 0.5 * (1.0 / u + 1.0 / v)
    off = 0.0 if c == 0.0 else 0.5 * (a / (u * c) - b / (v * c))
    r_mat = np.array([[diag, off], [off, diag]])
    inv_diag = 0.5 * (a * v + b * u)
    inv_off = 0.5 * (c * u - c * v)
    q_mat = np.eye(2) - np.array([[inv_diag, inv_off], [inv_off, inv_diag]])
    return r_mat, q_mat


def pi_half_weighted_return(z: float, p: float) -> float:
    """sum_m q_m z^(m-1) at theta = pi/2 from an R-coin start; z in (0, 1).

    Column sums of Q(z) give sum_m q_m z^m; dividing by z matches the
    genfun normalization. Q = I - R^-1 is accurate only in absolute terms at
    small z: relative error 2.3e-8 at z = 1e-4 and 1.2e-4 at z = 1e-6.
    """
    if not z > 0.0:
        raise ParameterError(f"z must lie in (0, 1), got {z}")
    _, q_mat = pi_half_genfun(z, p)
    return float((q_mat[0, 0] + q_mat[1, 0]) / z)


def classical_first_return(m: int) -> float:
    """First-return probability of the balanced RW at step m (0 for odd m)."""
    if m < 2:
        raise ParameterError("m must be >= 2")
    if m % 2:
        return 0.0
    # exact integer ratio, so large m never overflows the float power
    return math.comb(m, m // 2) / ((m - 1) << m)
