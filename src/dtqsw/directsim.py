"""Direct iteration of the monitored CP map on a truncated lattice.

The density matrix is stored as a (2, P, 2, P) array over
(ket coin, ket position, bra coin, bra position) with P = 2L + 1 and the
origin at index L. The truncation half-width is chosen as L = t_max + 1,
so the light cone can never touch the boundary; any contact is a hard
error, never silent mass loss.

Step t applies rho'(x, y) = sum M_{ss'} rho(x - s, y - s'), with the 4x4
blocks of model.shift_blocks, on the light cone |x|, |y| <= t only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    ParameterError,
    ResourceError,
    TruncationError,
)
from .model import TranslationKrausFamily, WalkParams, kraus_family, shift_blocks

__all__ = [
    "MonitoredDensityState",
    "ReturnSeries",
    "initial_state",
    "step_monitored",
    "return_series",
    "weighted_return",
]

DEFAULT_MEMORY_CAP = 4 << 30  # bytes


@dataclass
class MonitoredDensityState:
    half_width: int
    rho: np.ndarray  # (2, P, 2, P) complex
    step_count: int = 0
    absorbed_mass: float = 0.0

    @property
    def origin(self) -> int:
        return self.half_width

    def survival(self) -> float:
        return float(np.trace(self.rho.reshape(2 * (2 * self.half_width + 1), -1)).real)


@dataclass
class ReturnSeries:
    """Survival, return and first-return series of one monitored evolution."""

    survival: np.ndarray  # S_t for t = 0..t_max
    return_prob: np.ndarray  # R_t = 1 - S_t
    first_return: np.ndarray  # q_m = R_m - R_{m-1}, index m-1 for m = 1..t_max

    def __post_init__(self):
        if np.min(self.first_return) < -1e-12:
            raise ConsistencyError(
                f"negative first-return weight {np.min(self.first_return):.3e}"
            )


def _check_density(coin_density: np.ndarray) -> np.ndarray:
    coin_density = np.asarray(coin_density, dtype=complex)
    if coin_density.shape != (2, 2):
        raise ParameterError("coin density must be 2x2")
    if not np.allclose(coin_density, coin_density.conj().T, atol=1e-12):
        raise ParameterError("coin density must be Hermitian")
    if abs(np.trace(coin_density) - 1.0) > 1e-12:
        raise ParameterError("coin density must have unit trace")
    if np.min(np.linalg.eigvalsh(coin_density)) < -1e-12:
        raise ParameterError("coin density must be positive semidefinite")
    return coin_density


def initial_state(coin_density: np.ndarray, half_width: int) -> MonitoredDensityState:
    """Walker localized at the origin with the given coin density.

    The origin block is not projected at step 0: monitoring starts after
    the first application of the map.
    """
    coin_density = _check_density(coin_density)
    if half_width < 1:
        raise ParameterError("half_width must be >= 1")
    p_dim = 2 * half_width + 1
    rho = np.zeros((2, p_dim, 2, p_dim), dtype=complex)
    rho[:, half_width, :, half_width] = coin_density
    return MonitoredDensityState(half_width=half_width, rho=rho)


def _span(shift: int, n: int) -> slice:
    """Sites of an n-site axis that a shift moves to (the source is _span(-shift))."""
    return slice(max(shift, 0), n + min(shift, 0))


def _apply_cptp(rho: np.ndarray, family: TranslationKrausFamily, out=None):
    """sum_j E_j rho E_j^dag on a (2, n, 2, n) array, added into out (default zeros);
    nothing wraps around. One output coin pair at a time: a quarter-size temporary."""
    out = np.zeros_like(rho) if out is None else out
    n = rho.shape[1]
    for (s, s2), m in shift_blocks(family).items():
        src = rho[:, _span(-s, n), :, _span(-s2, n)]
        dst = out[:, _span(s, n), :, _span(s2, n)]  # a view: += adds in place
        for a, b in np.ndindex(2, 2):
            dst[a, :, b] += np.einsum("cd,cxdy->xy", m.reshape(2, 2, 2, 2)[a, b], src)
    return out


def step_monitored(
    state: MonitoredDensityState, family: TranslationKrausFamily
) -> MonitoredDensityState:
    """One CPTP step followed by absorption projection at the origin.

    The state must lie in its light cone |x|, |y| <= step_count, as every
    state grown from initial_state does.
    """
    t = state.step_count + 1
    if t > state.half_width:
        raise TruncationError(
            f"step {t} would reach the truncation boundary "
            f"(half_width={state.half_width})"
        )
    o = state.origin
    cone = slice(o - t, o + t + 1)
    rho = np.zeros_like(state.rho)
    _apply_cptp(state.rho[:, cone, :, cone], family, rho[:, cone, :, cone])
    absorbed = float((rho[0, o, 0, o] + rho[1, o, 1, o]).real)
    rho[:, o, :, :] = 0.0
    rho[:, :, :, o] = 0.0
    return MonitoredDensityState(
        half_width=state.half_width,
        rho=rho,
        step_count=t,
        absorbed_mass=state.absorbed_mass + absorbed,
    )


def _evolution_bytes(t_max: int) -> int:
    """Peak bytes of return_series(t_max), the figure its ResourceError guards.

    A step holds the old state, the new state and one coin pair of a block
    contraction (a quarter state) at once, plus numpy's buffers for the strided
    adds, which stay under 1 MiB.
    """
    dim = 2 * (2 * (t_max + 1) + 1)
    return 9 * dim * dim * 16 // 4 + (1 << 20)


def return_series(
    params: WalkParams,
    t_max: int,
    coin_density: np.ndarray | None = None,
) -> ReturnSeries:
    """Full survival / return / first-return series up to t_max; ResourceError
    when _evolution_bytes(t_max) exceeds DEFAULT_MEMORY_CAP."""
    if t_max < 1:
        raise ParameterError("t_max must be >= 1")
    if coin_density is None:
        coin_density = np.diag([1.0, 0.0])
    half_width = t_max + 1
    nbytes = _evolution_bytes(t_max)
    if nbytes > DEFAULT_MEMORY_CAP:
        raise ResourceError(
            f"monitored evolution would need {nbytes} bytes (cap {DEFAULT_MEMORY_CAP})"
        )
    family = kraus_family(params)
    state = initial_state(coin_density, half_width)
    survival = np.empty(t_max + 1)
    survival[0] = 1.0
    for t in range(1, t_max + 1):
        state = step_monitored(state, family)
        survival[t] = state.survival()
    return_prob = 1.0 - survival
    first_return = np.diff(return_prob)
    return ReturnSeries(
        survival=survival, return_prob=return_prob, first_return=first_return
    )


def weighted_return(series: ReturnSeries, z: float) -> float:
    """sum_m q_m z^(m-1): the truncated generating-function estimate.

    Matches the genfun estimate up to the geometric tail bound z^t_max.
    """
    if not 0.0 < z < 1.0:
        raise ParameterError("z must lie in (0, 1)")
    m = np.arange(1, len(series.first_return) + 1)
    return float(np.sum(series.first_return * z ** (m - 1)))
