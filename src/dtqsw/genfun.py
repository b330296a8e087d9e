"""Recurrence estimates through the Stieltjes function and renewal equation.

The resolvent kernel A(z, k1, k2) = (I4 - z V(k1, k2))^-1 is integrated
over momentum in rotated coordinates xi = k1 + k2, eta = k1 - k2. Both V
and the needed Fourier phases are 2pi-periodic in (xi, eta) separately,
so the integral over the k-torus equals the integral over the (xi, eta)
torus with the plain product measure.

Every Kraus operator shifts by +-1, so with the shift blocks M of
model.shift_blocks, at each xi

    I - zV = A0 + A_-1 exp(-i eta) + A_1 exp(i eta),
    A0 = I - z (M++ exp(-i xi) + M-- exp(i xi)),  A_-1 = -z M+-,  A_1 = -z M-+,

a matrix Laurent polynomial of degree +-1 in exp(i eta). Only the coined
operator S(C x I) carries both shifts, and its blocks have one nonzero row
each, so the cross blocks have rank one (zero at p=1): A_-1 = u1 v1^T and
A_1 = u2 v2^T. With L = A0^-1 [u1 u2], R = [v1 v2]^T A0^-1 and
W = [v1 v2]^T L, the Woodbury identity gives

    (I - zV)^-1 = A0^-1 - L (D^-1 + W)^-1 R,  D = diag(exp(-i eta), exp(i eta)),

and det(D^-1 + W) = kappa (1 - a exp(-i eta)) (1 - b exp(i eta)), where
kappa is the larger root of kappa^2 - (1 + det W) kappa + w11 w22 = 0,
a = -w11/kappa and b = -w22/kappa. Expanding both factors in geometric
series gives the exact eta coefficients, with c = 1/(kappa (1 - ab)):

    H0 = A0^-1 - c L (E0 + a E+ + b E-) R,
    H_n = -c b^(n-1) L (b E0 + E+ + b^2 E-) R   (n >= 1),   H_-n = P H_n P,

E0 = adj W, E+ = diag(0, 1), E- = diag(1, 0), and P the coin-pair swap
(c, c') -> (c', c), which maps M+- to M-+ for real coin blocks. For real
blocks det(I - zV) is even in eta, so where it does not vanish on the
circle one root of the quadratic lies inside it and one outside, and
|a|, |b| < 1. A xi node costs one batched 4 x 4 inverse and a few 2 x 2
products at any z. A family with complex coin blocks or a cross block
of rank > 1 raises UnsupportedFamilyError.

The one quadrature is over xi: Sidi's sin^8 substitution, xi = s -
(4/5) sin 2s + (1/5) sin 4s - (4/105) sin 6s + (1/280) sin 8s, whose
Jacobian (128/35) sin^8(s) flattens the integrand at the crest lines
xi in pi*Z, where I - zV comes close to singular as z -> 1. It is sampled
by the rectangle rule at half-interval offsets, with weight
(128/35) sin^8(s) / grid_n per node (DEFAULT_GRID = 384 nodes). Next to a
crest line the sine series cancels, so a node is kept as k pi + delta, the
offset delta taken from the integral of the Jacobian, and no node lands on
a crest line. The map is odd about s = pi: xi(2pi - s) = 2pi - xi(s). For
real coin blocks the nodes xi and 2pi - xi carry complex-conjugate
coefficients, so only the first half is computed and the harmonics are
real. The cross basis reads only harmonics a (in xi) and n (in eta) of
equal parity: one complex matmul per parity, with the node phases
exp(-i xi), phase rows and the index that gathers s(z) from the fold
cached per (n_max, grid_n). resolvent_kernel, the pointwise resolvent at
one momentum pair, is a pivoted 4 x 4 inverse for every family.

s(z) commutes with the ket-bra swap J : (x, m, c, c') -> (m, x, c', c),
the Hermiticity of rho (for real Kraus operators the map commutes with the
transpose of rho). J fixes e_(R,R,0,0) and e_(L,L,0,0) and swaps the other
basis vectors in pairs, so on J-even and J-odd vectors s(z) splits into
two blocks, 83 x 83 and 81 x 81 at n_max = 20. The renewal inverts both
blocks of the J-average of s(z), after refusing with ConsistencyError an
s(z) that differs from J s(z) J by more than 1e-9 of its largest entry
(rounding leaves under 1e-11). The source e_(R,R,0,0) is J-even, so w
comes from the even block, and the exact kappa_1 = |s|_1 |s^-1|_1 is read
from the two inverses in O(dim^2). The guard refuses dim kappa_1 > 1e14:
|A|_2 <= sqrt(dim) |A|_1, so kappa_2 <= dim kappa_1, and it refuses every
s(z) a kappa_2 limit would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import invert_grid_4x4
from .errors import (
    ConditioningError,
    ConsistencyError,
    DtqswError,
    OutOfValidatedRangeError,
    ParameterError,
    SingularKernelError,
    UnsupportedFamilyError,
)
from .model import TranslationKrausFamily, WalkParams, kraus_family, momentum_kernel, shift_blocks

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_Z_SAMPLES",
    "Z_CAP",
    "Z_MIN",
    "StieltjesMatrix",
    "SweepPoint",
    "resolvent_kernel",
    "fourier_blocks",
    "cross_basis",
    "stieltjes_matrix",
    "recurrence_estimate",
    "z_sweep",
]

Z_CAP = 0.99999
Z_MIN = 1e-2  # below, (1 - w) / z cancels: relative error 1.7e-7 at z = 1e-4, 5.4 at 1e-8
DEFAULT_GRID = 384
DEFAULT_Z_SAMPLES = (
    0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998, 0.9999, 0.99995, 0.99998, 0.99999,
)

_COND_LIMIT = 1e14
# largest |s - J s J| accepted, relative to the largest |s_ij|; rounding leaves < 1e-11
_SWAP_TOL = 1e-9
_FLUSH = np.sqrt(np.finfo(float).tiny)
# coin pair 2*c + c' -> 2*c' + c
_SWAP = [0, 2, 1, 3]


def _check_z(z: float) -> float:
    z = float(z)
    if not 0.0 < z <= 1.0:
        raise ParameterError(f"z must lie in (0, 1), got {z}")
    if z > Z_CAP:
        raise OutOfValidatedRangeError(
            f"z={z} exceeds the validated cap {Z_CAP}"
        )
    return z


def resolvent_kernel(
    family: TranslationKrausFamily, z: float, k1: float, k2: float
) -> np.ndarray:
    """A(z, k1, k2) = (I4 - z V(k1, k2))^-1 at one momentum pair, by a pivoted inverse."""
    z = _check_z(z)
    m = np.eye(4) - z * momentum_kernel(family, k1, k2)
    try:
        return invert_grid_4x4(m[None])[0]
    except np.linalg.LinAlgError as exc:
        raise SingularKernelError(
            f"I - zV is singular at (k1, k2)=({k1}, {k2}), z={z}: {exc}"
        ) from exc


def _subst_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, delta, w): node j of Sidi's sin^8 rule on grid_n nodes is
    xi_j = k_j pi + delta_j with weight w_j; |delta| < pi/2 and delta has
    the sign of s_j - k_j pi."""
    if grid_n <= 0 or grid_n % 4:
        raise ParameterError("grid_n must be a positive multiple of 4")
    # s_j = (2j + 1) pi / grid_n = k pi + m pi / grid_n, m odd and |m| < grid_n / 2
    odd = 2 * np.arange(grid_n) + 1
    k = (odd + grid_n // 2) // grid_n
    m = odd - k * grid_n
    h = np.abs(m) * (np.pi / grid_n)
    # xi(k pi +- h) = k pi +- xi(h), xi(h) = (128/35) int_0^h sin^8 by 20-point Gauss-Legendre,
    # nodes t and weights 2 v_0^2 from the eigenpairs of the Jacobi matrix (Golub-Welsch)
    j = np.arange(1, 20)
    t, v = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1), -1))
    xi_h = (64.0 / 35.0) * h * (np.sin(h[:, None] * (1 + t) / 2) ** 8 @ (2 * v[0] ** 2))
    return k, np.copysign(xi_h, m), (128.0 / 35.0) * np.sin(h) ** 8 / grid_n


def _rank_one(m):
    """(u, v) with m = u v^T; UnsupportedFamilyError when m has rank > 1."""
    u, s, vt = np.linalg.svd(m)
    if s[1] > 4 * np.finfo(float).eps * s[0]:
        raise UnsupportedFamilyError(
            f"cross shift block of rank > 1 (singular values {s[0]:.3g}, {s[1]:.3g}): "
            "the closed-form eta coefficients need rank <= 1"
        )
    return u[:, 0] * s[0], vt[0]


@functools.lru_cache(maxsize=32)
def _laurent_blocks(family):
    """M++, M-- and rank-one factors (u, v) of M+- and M-+, from model.shift_blocks.

    Raises UnsupportedFamilyError for complex coin blocks (conjugate-node
    fold, coin-pair swap) or a cross block of rank > 1. The blocks are kept, read-only,
    per family object for the 32 most recent; a refused family raises, so is never kept.
    """
    if not family.is_real:
        raise UnsupportedFamilyError(
            "complex coin blocks: the conjugate-node fold and the coin-pair swap need real ones"
        )
    shifts = shift_blocks(family)
    m_pp, m_mm, m_pm, m_mp = (
        shifts.get(pair, np.zeros((4, 4))) for pair in ((1, 1), (-1, -1), (1, -1), (-1, 1))
    )
    blocks = m_pp, m_mm, _rank_one(m_pm), _rank_one(m_mp)
    for array in (m_pp, m_mm, *blocks[2], *blocks[3]):
        array.flags.writeable = False
    return blocks


def _eta_parts(blocks, z, phase):
    """(H0, H1, b) on the nodes phase = exp(-i xi), shapes (n, 4, 4) twice and (n,).

    blocks are the _laurent_blocks of the family. H_n = b^(n-1) H1 for
    n >= 1 multiplies exp(i n eta) in (I - zV)^-1, and H_-n = P H_n P.
    """
    m_pp, m_mm, (u1, v1), (u2, v2) = blocks
    phase = phase[:, None, None]
    a0 = np.eye(4) - z * (m_pp * phase + m_mm * phase.conj())
    # A_-1 = u[:, 0] v[:, 0]^T and A_1 = u[:, 1] v[:, 1]^T, the columns of u scaled by -z
    u, v = -z * np.stack([u1, u2], axis=1), np.stack([v1, v2], axis=1)
    try:
        a0_inv = invert_grid_4x4(a0)
    except np.linalg.LinAlgError as exc:
        raise SingularKernelError(f"A0 is singular on the xi grid at z={z}: {exc}") from exc
    left = np.tensordot(a0_inv, u, axes=(2, 0))  # L = A0^-1 u
    right = np.tensordot(a0_inv, v, axes=(1, 0)).transpose(0, 2, 1)  # R = v^T A0^-1
    w = np.tensordot(right, u, axes=(2, 0))  # W = R u
    w11, w12, w21, w22 = w[:, 0, 0], w[:, 0, 1], w[:, 1, 0], w[:, 1, 1]
    # det(W + diag(exp(i eta), exp(-i eta))) = kappa (1 - a exp(-i eta)) (1 - b exp(i eta))
    delta = 1 + w11 * w22 - w12 * w21
    root = np.sqrt(delta * delta - 4 * w11 * w22)
    kappa = (delta + np.where((delta.conj() * root).real < 0, -root, root)) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = -w11 / kappa, -w22 / kappa
        c = 1 / (kappa * (1 - a * b))
    if not (np.all(np.isfinite(c)) and np.all(np.abs(a) < 1) and np.all(np.abs(b) < 1)):
        raise SingularKernelError(
            f"I - zV has an eta root on or outside the unit circle on the xi grid at z={z}"
        )
    # H0 = A0^-1 - L k0 R and H1 = -L k1 R, with adj W = [[w22, -w12], [-w21, w11]],
    # k0 = c (adj W + a E+ + b E-) and k1 = c (b adj W + E+ + b^2 E-)
    k = np.empty((2,) + w.shape, dtype=complex)
    scale = c * np.stack([np.ones_like(b), b])
    k[:, :, 0, 0] = scale * (w22 + b)
    k[:, :, 0, 1] = -scale * w12
    k[:, :, 1, 0] = -scale * w21
    k[0, :, 1, 1] = c * (w11 + a)
    k[1, :, 1, 1] = c * (b * w11 + 1)
    # L k R over the node stack, term by term: the inner sums have length 2
    lk = left[:, :, :1] * k[:, :, None, 0] + left[:, :, 1:] * k[:, :, None, 1]
    lkr = lk[..., :1] * right[:, None, 0] + lk[..., 1:] * right[:, None, 1]
    return a0_inv - lkr[0], -lkr[1], b


def _fold_index(d1, d2, n_max):
    """Index into _fold's output of the 4 x 4 blocks at even offsets (d1, d2).

    The block is harmonic a = (d1 + d2)/2 of H_-b, b = (d1 - d2)/2, which is
    P H_b P for b > 0; a = b (mod 2), and block (q, j, k) of the fold is
    a = 2j - n_max + q against n = 2k + q.
    """
    a, b = (d1 + d2) // 2, (d1 - d2) // 2
    q = a % 2
    block = (q * (n_max + 1) + (a + n_max - q) // 2) * (n_max // 2 + 1) + abs(b) // 2
    pair = np.where((b > 0)[..., None], _SWAP, np.arange(4))
    return 16 * block[..., None, None] + 4 * pair[..., :, None] + pair[..., None, :]


class _Tables(NamedTuple):
    phase: np.ndarray  # exp(-i xi) at the first-half nodes
    phases: np.ndarray  # 2 w exp(i a xi) per parity of a
    index: np.ndarray  # s(z) in _fold's output
    split: np.ndarray  # flat index of [s[ket, ket] | s[ket, J ket]] in s
    mirror: np.ndarray  # the same rows of J s J: [s[J ket, J ket] | s[J ket, ket]]


@functools.lru_cache(maxsize=8)
def _tables(n_max, grid_n):
    """Node phases exp(-i xi) of the first half, phase rows 2 w exp(i a xi)
    per parity of a (row a = n_max + 1 is never read), the index of s(z) in
    _fold's output, and the gathers of the ket rows of s(z) and of J s(z) J,
    J the ket-bra swap, with ket the two fixed points of J (e_(R,R,0,0) first,
    then e_(L,L,0,0)) followed by one basis index of each swapped pair.
    ParameterError for an odd or < 2 n_max and a grid_n _subst_grid refuses."""
    if n_max < 2 or n_max % 2:
        raise ParameterError("n_max must be even and >= 2")
    k, delta, w = (part[: grid_n // 2] for part in _subst_grid(grid_n))
    rows = np.arange(-n_max, n_max + 1, 2)[None, :, None] + np.arange(2)[:, None, None]
    # exp(i a xi) = (-1)^(a k) exp(i a delta)
    phases = 2 * w * (-1.0) ** (rows * k) * np.exp(1j * rows * delta)
    phase = (-1.0) ** k * np.exp(-1j * delta)
    positions = np.array(cross_basis(n_max))
    d1, d2 = (positions[:, None] - positions[None, :]).transpose(2, 0, 1)
    index = _fold_index(d1, d2, n_max).transpose(0, 2, 1, 3).reshape(4 * len(positions), -1)
    # J: (x, m, c, c') -> (m, x, c', c)
    where = {point: i for i, point in enumerate(cross_basis(n_max))}
    j = (4 * np.array([where[point[::-1]] for point in where])[:, None] + _SWAP).ravel()
    basis = np.arange(len(j))
    ket = np.concatenate([np.flatnonzero(j == basis), np.flatnonzero(basis < j)])
    split = len(j) * ket[:, None] + np.concatenate([ket, j[ket]])
    mirror = len(j) * j[ket][:, None] + np.concatenate([j[ket], ket])
    tables = _Tables(phase, phases, index, split, mirror)
    for table in tables:
        table.flags.writeable = False
    return tables


def _fold(family, z, n_max, grid_n):
    """The xi fold, flat and real: block (q, j, k) is 2 Re sum_xi w exp(i a xi)
    H_n(xi) over the first-half nodes, a = 2j - n_max + q and n = 2k + q."""
    z = _check_z(z)
    blocks = _laurent_blocks(family)  # refuses an unsupported family before any work
    phase, phases = _tables(n_max, grid_n)[:2]
    h0, h1, b = _eta_parts(blocks, z, phase)
    # powers[:, m] = b^(m-1), so H_m = powers[:, m] H1 for m >= 1; m = 0 is H0's slot
    powers = np.ones((len(phase), n_max + 2), dtype=complex)
    powers[:, 2:] = b[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # parts below sqrt(tiny) ~ 1e-154 go to 0, so no product b^(n-1) H1 is subnormal
    # (subnormal arithmetic is slow; at theta = pi/2 - 1e-9 |b| is ~1e-17)
    for table in (powers, h1):
        parts = table.view(float)
        parts[np.abs(parts) < _FLUSH] = 0.0
    # H_(2k+q) = coef[:, k, q] H1; H_(n_max+1) is never read
    coef = powers.reshape(len(phase), -1, 2)
    fold = np.empty(phases.shape[:2] + (coef.shape[1] * 16,))
    for q in (0, 1):  # one parity at a time holds half the harmonics in memory
        h = coef[:, :, q, None] * h1.reshape(-1, 1, 16)
        if q == 0:
            h[:, 0] = h0.reshape(-1, 16)
        fold[q] = (phases[q] @ h.reshape(len(phase), -1)).real
        del h
    return fold.ravel()


def fourier_blocks(
    family: TranslationKrausFamily, z: float, n_max: int, grid_n: int = DEFAULT_GRID
) -> dict:
    """Map (d1, d2) -> 4x4 block A_{xm,yn}(z) with d1 = x - y, d2 = m - n.

    The keys are the even offsets with |d1| + |d2| <= 2 n_max, all the
    cross basis reads; odd offsets are never computed. The blocks are real.
    """
    fold = _fold(family, z, n_max, grid_n)
    span = range(-2 * n_max, 2 * n_max + 1, 2)
    keys = [(d1, d2) for d1 in span for d2 in span if abs(d1) + abs(d2) <= 2 * n_max]
    d1, d2 = np.array(keys).T
    return dict(zip(keys, fold[_fold_index(d1, d2, n_max)]))


def cross_basis(n_max: int) -> list:
    """Ordered (x, m) cross points: even, |.| <= n_max, x = 0 or m = 0."""
    points = [(x, 0) for x in range(-n_max, n_max + 1, 2)]
    points += [(0, m) for m in range(-n_max, n_max + 1, 2) if m != 0]
    return points


@dataclass
class StieltjesMatrix:
    """s(z) restricted to the even cross subspace, coin pairs innermost."""

    z: float
    n_max: int
    positions: list  # (x, m) cross points; basis index = 4*pos + (2c + c')
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def basis_index(self, coin_pair: int, x: int, m: int) -> int:
        return 4 * self.positions.index((x, m)) + coin_pair


def stieltjes_matrix(
    family: TranslationKrausFamily, z: float, n_max: int, grid_n: int = DEFAULT_GRID
) -> StieltjesMatrix:
    """Assemble the real s(z) over the even cross basis: one gather from the xi fold."""
    mat = _fold(family, z, n_max, grid_n)[_tables(n_max, grid_n).index]
    positions = cross_basis(n_max)
    return StieltjesMatrix(z=z, n_max=n_max, positions=positions, matrix=mat)


def _split_renewal(matrix, tables):
    """(w_(R,R,0,0) + w_(L,L,0,0), kappa_1) with w = s^-1 e_(R,R,0,0), from the
    J-even and J-odd blocks of s = matrix; tables are _tables' for its truncation.

    s is replaced by its J-average (s + JsJ)/2, after a ConsistencyError if
    the two differ by more than _SWAP_TOL of the largest entry (the ket rows
    hold every entry of s - JsJ up to sign). With P = s[ket, ket] and
    Q = s[ket, J ket], the even block is P + Q and the odd block is P - Q
    without the two fixed points. A column of s and its J image sum to
    sum|P| + sum|Q| over the paired rows. With M and O the block inverses,
    s^-1 reads 2M between fixed points, M between a fixed point and a pair,
    and (M +- O)/2 in each pair of pairs, so a fixed column of |s^-1| sums
    to 2 sum|M| and a paired one to sum|M| over the fixed rows plus
    sum max(|M|, |O|) over pairs.
    """
    flat = matrix.ravel()
    g, mirror = flat[tables.split], flat[tables.mirror]
    asymmetry = np.max(np.abs(g - mirror))
    if asymmetry > _SWAP_TOL * np.max(np.abs(g)):
        raise ConsistencyError(
            f"s(z) is not symmetric under the ket-bra swap: |s - JsJ| = {asymmetry:.3e}"
        )
    g = (g + mirror) / 2
    p, q = g[:, : len(g)], g[:, len(g):]
    s_norm = np.max(np.abs(p).sum(axis=0) + np.abs(q[2:]).sum(axis=0))
    even = np.linalg.inv(p + q)
    even_abs, odd_abs = np.abs(even), np.abs(np.linalg.inv((p - q)[2:, 2:]))
    fixed = 2 * even_abs[:, :2].sum(axis=0)
    paired = even_abs[:2, 2:].sum(axis=0) + np.maximum(even_abs[2:, 2:], odd_abs).sum(axis=0)
    return 2 * (even[0, 0] + even[1, 0]), s_norm * max(fixed.max(), paired.max())


def recurrence_estimate(
    params: WalkParams,
    z: float,
    n_max: int = 20,
    grid_n: int = DEFAULT_GRID,
) -> float:
    """R~_z from the renewal equation, traced against rho0 = |R,0><R,0|.

    w = s(z)^-1 e_(R,R,0,0), solved in the J-even block of s(z), gives
    (1 - w_(R,R,0,0) - w_(L,L,0,0)) / z. The initial coin choice is WLOG
    by coin-state independence. OutOfValidatedRangeError below Z_MIN.
    """
    z = _check_z(z)
    if z < Z_MIN:
        raise OutOfValidatedRangeError(f"z={z} is below the validated floor {Z_MIN}")
    s = stieltjes_matrix(kraus_family(params), z, n_max, grid_n)
    try:
        w, kappa_1 = _split_renewal(s.matrix, _tables(n_max, grid_n))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"inverse failed at z={z}, n_max={n_max}: {exc}") from exc
    # kappa_2 <= dim kappa_1, so this refuses every s(z) with kappa_2 above the limit (and NaN)
    cond = s.dim * kappa_1
    if not cond <= _COND_LIMIT:
        raise ConditioningError(f"condition estimate {cond:.3e} at z={z}, n_max={n_max}")
    return float((1.0 - w) / z)


@dataclass(frozen=True)
class SweepPoint:
    z: float
    value: float  # nan when the point failed
    error: str | None = None


def z_sweep(
    params: WalkParams,
    z_list=None,
    n_max: int = 20,
    grid_n: int = DEFAULT_GRID,
) -> list:
    """One recurrence estimate per z; a DtqswError is recorded as a failed point."""
    if z_list is None:
        z_list = DEFAULT_Z_SAMPLES
    points = []
    for z in z_list:
        try:
            points.append(SweepPoint(z, recurrence_estimate(params, z, n_max, grid_n)))
        except DtqswError as exc:
            points.append(SweepPoint(z, float("nan"), f"{type(exc).__name__}: {exc}"))
    return points
