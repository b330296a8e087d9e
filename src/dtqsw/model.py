"""Coins, Kraus families and their momentum-space representations.

Conventions (fixed here, inherited by every other module):

* coin basis ordering is (R, L);
* the right shift acts in momentum space as multiplication by exp(-i k),
  so the unitary step reads U(k) = diag(exp(-i k), exp(i k)) @ C(theta);
* in the vectorized (density-matrix) picture the tensor ordering is
  ket-coin first, bra-coin second, i.e. pair index = 2*c + c'.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedFamilyError

__all__ = [
    "Model",
    "WalkParams",
    "TranslationKraus",
    "TranslationKrausFamily",
    "coin_matrix",
    "general_coin",
    "kraus_balanced",
    "kraus_correlated",
    "kraus_family",
    "balanced_family_from_coin",
    "momentum_kernel",
    "shift_blocks",
    "unitary_step_momentum",
]


class Model(enum.Enum):
    BALANCED = "balanced"
    CORRELATED = "correlated"


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2 + 1e-15:
        raise ParameterError(f"coin angle must lie in [0, pi/2], got {theta}")
    return min(theta, math.pi / 2)


def _check_prob(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class WalkParams:
    """Parameters of one walk: coin angle, classical mixing, model choice."""

    theta: float
    p: float
    model: Model = Model.BALANCED

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        object.__setattr__(self, "p", _check_prob(self.p))
        if isinstance(self.model, str):
            object.__setattr__(self, "model", Model(self.model))


def coin_matrix(theta: float) -> np.ndarray:
    """Real symmetric coin [[cos, sin], [sin, -cos]]; involution for any theta."""
    theta = _check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def general_coin(theta: float, phi: float, alpha: float, beta: float) -> np.ndarray:
    """General U(2) coin exp(i phi) exp(i alpha sz) C(theta) exp(i beta sz)."""
    left = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
    right = np.diag([np.exp(1j * beta), np.exp(-1j * beta)])
    return np.exp(1j * phi) * (left @ coin_matrix(theta) @ right)


@dataclass(frozen=True)
class TranslationKraus:
    """Position-homogeneous operator: sum of (2x2 coin block) x (shift +-1)."""

    terms: tuple  # of (ndarray(2,2), int)

    def __post_init__(self):
        clean = []
        for block, shift in self.terms:
            shift = int(shift)
            if shift not in (-1, 1):
                raise ParameterError(f"shift {shift}: every term must step +-1")
            clean.append((np.asarray(block), shift))
        object.__setattr__(self, "terms", tuple(clean))

    def momentum(self, k):
        """E(k) = sum_t block_t * exp(-i shift_t k); k may be an array."""
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape + (2, 2), dtype=complex)
        for block, shift in self.terms:
            out += np.exp(-1j * shift * k)[..., None, None] * block
        return out

    @property
    def is_real(self) -> bool:
        return all(np.isrealobj(b) or np.allclose(b.imag, 0) for b, _ in self.terms)


@dataclass(frozen=True)
class TranslationKrausFamily:
    kraus: tuple  # of TranslationKraus

    @property
    def is_real(self) -> bool:
        return all(op.is_real for op in self.kraus)

    def completeness_defect(self, k) -> float:
        """Max norm of sum_j E_j(k)^dag E_j(k) - I over the given k values."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        acc = np.zeros(k.shape + (2, 2), dtype=complex)
        for op in self.kraus:
            e = op.momentum(k)
            acc += np.conj(np.swapaxes(e, -1, -2)) @ e
        return float(np.max(np.abs(acc - np.eye(2))))


def unitary_step_momentum(theta: float, k) -> np.ndarray:
    """U(k) = diag(exp(-ik), exp(ik)) @ C(theta)."""
    k = np.asarray(k, dtype=float)
    phase = np.zeros(k.shape + (2, 2), dtype=complex)
    phase[..., 0, 0] = np.exp(-1j * k)
    phase[..., 1, 1] = np.exp(1j * k)
    return phase @ coin_matrix(theta)


def _coined_operator(coin: np.ndarray, p: float) -> TranslationKraus:
    """sqrt(1 - p) S (C x I): the R row of the coin steps right, the L row left."""
    right, left = np.zeros((2, 2, 2), dtype=coin.dtype)
    right[0], left[1] = coin
    amp = math.sqrt(1 - p)
    return TranslationKraus(((amp * right, +1), (amp * left, -1)))


def balanced_family_from_coin(coin: np.ndarray, p: float) -> TranslationKrausFamily:
    """Balanced-interpolation family built on an arbitrary 2x2 coin.

    Exists to exercise the gauge-freedom property with complex coins;
    the public constructors below use the real coin_matrix.
    """
    p = _check_prob(p)
    e0 = _coined_operator(np.asarray(coin), p)
    w = math.sqrt(p / 2)
    e1 = TranslationKraus(((w * np.eye(2), +1),))
    e2 = TranslationKraus(((w * np.eye(2), -1),))
    return TranslationKrausFamily((e0, e1, e2))


def kraus_balanced(params: WalkParams) -> TranslationKrausFamily:
    """QW interpolated with the coinless balanced RW: three Kraus operators."""
    if params.model is not Model.BALANCED:
        raise ParameterError("kraus_balanced requires model=BALANCED")
    return balanced_family_from_coin(coin_matrix(params.theta), params.p)


def kraus_correlated(params: WalkParams) -> TranslationKrausFamily:
    """QW interpolated with the correlated RW: five Kraus operators.

    The four classical branches project the coin onto (R, L) before and
    after the step, decohering it: branch (u, v) keeps the coin entry
    C[u, v] and steps right for u = R, left for u = L.
    """
    if params.model is not Model.CORRELATED:
        raise ParameterError("kraus_correlated requires model=CORRELATED")
    coin = coin_matrix(params.theta)
    sp = math.sqrt(params.p)
    ops = [_coined_operator(coin, params.p)]
    for u, v in ((0, 0), (0, 1), (1, 0), (1, 1)):
        block = np.zeros((2, 2))
        block[u, v] = sp * coin[u, v]
        ops.append(TranslationKraus(((block, 1 - 2 * u),)))
    return TranslationKrausFamily(tuple(ops))


def kraus_family(params: WalkParams) -> TranslationKrausFamily:
    if params.model is Model.BALANCED:
        return kraus_balanced(params)
    return kraus_correlated(params)


def shift_blocks(family: TranslationKrausFamily) -> dict:
    """M_{ss'} = sum_j B_{j,s} kron conj(B_{j,s'}), keyed by the shift pair (s, s').

    B_{j,s} is the coin block of Kraus operator j at shift s; the 4x4 blocks
    act on the coin-pair index 2*c + c'. One step of the map is rho'(x, y) =
    sum M_{ss'} rho(x - s, y - s'), and for real blocks momentum_kernel is
    sum M_{ss'} exp(-i (s k1 + s' k2)). All-zero blocks are left out.
    """
    blocks = {}
    for op in family.kraus:
        for ket, s in op.terms:
            for bra, s2 in op.terms:
                blocks[s, s2] = blocks.get((s, s2), 0) + np.kron(ket, np.conj(bra))
    return {key: m for key, m in blocks.items() if np.any(m)}


def momentum_kernel(family: TranslationKrausFamily, k1, k2) -> np.ndarray:
    """V(k1, k2) = sum_j E_j(k1) kron E_j(k2) on the coin-pair space.

    Valid only for families with real coin blocks; the vectorized map
    would otherwise require conjugation on the bra side.
    """
    if not family.is_real:
        raise UnsupportedFamilyError(
            "momentum_kernel requires real coin blocks"
        )
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    out = np.zeros(np.broadcast(k1, k2).shape + (4, 4), dtype=complex)
    for op in family.kraus:
        e1 = op.momentum(k1)
        e2 = op.momentum(k2)
        out += np.einsum("...ab,...cd->...acbd", e1, e2).reshape(out.shape)
    return out
