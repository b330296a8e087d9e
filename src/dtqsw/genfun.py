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

a matrix Laurent polynomial of degree +-1 in exp(i eta). In every family
the library builds, M+- lives on row (R,L) and M-+ on row (L,R) (zero at
p=1), so A_-1 = u1 v1^T and A_1 = u2 v2^T with u1 = -z e_RL, u2 = -z e_LR;
and rows (R,L), (L,R) of M++ and M-- are alpha e_RL, alpha e_LR. With
L = A0^-1 [u1 u2], R = [v1 v2]^T A0^-1 and W = [v1 v2]^T L, Woodbury gives

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
|a|, |b| < 1. In the order (RR, LL | RL, LR), A0 = [[T, Q], [0, g I]] is block
triangular: _eta_parts inverts it in closed form on node vectors, H0 and H1
node-last (16, n). A family with complex coin blocks, or whose shift blocks
miss those rows or the reflection symmetry below, is refused before any work.

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
real. resolvent_kernel, the pointwise resolvent at one momentum pair, is a
pivoted 4 x 4 inverse for every family.

Every family the library builds is symmetric under the reflection Pi:
(x, m) -> (-x, -m) with G x G on the coin pair, G = [[0, 1], [-1, 0]] in
(R, L), which maps e_(R,R) <-> e_(L,L) and e_(R,L) -> -e_(L,R). On the
shift blocks, M_-s,-s' = K M_s,s' K^T with K = G x G, so s(z) commutes
with Pi. At offsets (d1, d2) the cross basis reads harmonic a = (d1 + d2)/2
(in xi) of H_n, n = |d1 - d2|/2 (in eta), with a = n (mod 2) and
|a| + n <= n_max or |a| = n: 251 blocks at n_max = 20. The 131 with a >= 0
are folded as [Re Y, Im Y] @ [Re H; -Im H], with rows 2 w exp(i a xi) b^(n-1)
(one real matmul for H1, one for H0 - I), and the a < 0 blocks are gathered
from their Pi images with signs. An a = 0 entry x is averaged with its image
y as (x + s y) / 2, s = +-1, which rounds to the number (y + s x) / 2 does,
so s(z) commutes with Pi bit for bit and needs no run-time check. s(z) is
the signed fold [F, -F] (2 x 2096 values at n_max = 20) with a signed index
into it. The node phases and rows are cached per (n_max, grid_n); the fold
runs, the index and the renewal's tables for it per n_max.

s(z) also commutes with the ket-bra swap J : (x, m, c, c') -> (m, x, c', c),
the Hermiticity of rho (for real Kraus operators the map commutes with the
transpose of rho), and J commutes with Pi. J can break only by rounding and
only in the n = 0 blocks, F(a, 0) against P F(a, 0) P; every other block
reads the fold entries its J image reads. The fold refuses with
ConsistencyError an s(z) that differs from J s(z) J by more than 1e-9 of
max |F| (rounding leaves under 1e-11) on those 132 entry pairs at n_max = 20,
then sets each pair to its mean (x + y) / 2, so s(z) commutes with the group
{1, Pi, J, J Pi} bit for bit. On the joint (J, Pi) eigenvectors it splits
into four blocks, 41, 42, 41 and 40 rows at n_max = 20, one per orbit
representative that each holds. The renewal reads the fold, not the dense
s(z), and is linear algebra alone: it inverts the four blocks, one signed
gather (4 x 42 x 42) of the fold values of s(z) - I, in one call on a stack
padded with the identity. The source e_(R,R,0,0) is half in the (J+, Pi+)
block, which holds (e_(R,R) + e_(L,L)) / sqrt 2, so w comes from that
block, and the exact kappa_1 = |s|_1 |s^-1|_1 is read from the four
inverses in O(dim^2). The guard refuses dim kappa_1 > 1e14: |A|_2 <=
sqrt(dim) |A|_1, so kappa_2 <= dim kappa_1, and it refuses every s(z) a
kappa_2 limit would.
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
    ResourceError,
    SingularKernelError,
    UnsupportedFamilyError,
)
from . import directsim
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
_SWAP = np.array([0, 2, 1, 3])
# the reflection on a coin pair, G x G with G = [[0, 1], [-1, 0]] in (R, L):
# e_RR <-> e_LL, e_RL -> -e_LR and e_LR -> -e_RL
_REFLECT = np.array([3, 2, 1, 0])
_REFLECT_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
# characters of the group {1, Pi, J, J Pi}, element 2 j + pi for J^j Pi^pi: row 2 c_J + c_Pi
# is the renewal block of J-parity (-1)^c_J and Pi-parity (-1)^c_Pi
_CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


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


@functools.lru_cache(maxsize=32)
def _laurent_blocks(family):
    """(outer, inner, alpha, v) from model.shift_blocks: rows (R,R) and (L,L) of M++
    and of M-- as (2, 4, 1); alpha, with rows (R,L) and (L,R) alpha e_RL and alpha
    e_LR in both; and v = [v1 v2]^T, with M+- = e_RL v1^T and M-+ = e_LR v2^T.

    Raises UnsupportedFamilyError for complex coin blocks (conjugate-node
    fold, coin-pair swap), for blocks without the reflection symmetry
    M_-s,-s' = K M_s,s' K^T, K = G x G (the a >= 0 fold and the four-block
    renewal), or for blocks without those coin-pair rows (the closed-form A0
    inverse; a cross block of rank > 1 has two nonzero rows). The blocks are
    kept, read-only, per family object for the 32 most recent; a refused
    family raises, so is never kept.
    """
    if not family.is_real:
        raise UnsupportedFamilyError(
            "complex coin blocks: the conjugate-node fold and the coin-pair swap need real ones"
        )
    shifts = shift_blocks(family)
    m_pp, m_mm, m_pm, m_mp = (
        shifts.get(pair, np.zeros((4, 4))) for pair in ((1, 1), (-1, -1), (1, -1), (-1, 1))
    )
    signs = _REFLECT_SIGN[:, None] * _REFLECT_SIGN
    residual = max(
        np.max(np.abs(image - signs * m[np.ix_(_REFLECT, _REFLECT)]))
        for m, image in ((m_pp, m_mm), (m_pm, m_mp))
    )
    tol = 4 * np.finfo(float).eps * max(np.max(np.abs(m_pp)), np.max(np.abs(m_pm)))
    if residual > tol:
        raise UnsupportedFamilyError(
            f"shift blocks not symmetric under the reflection (x, c) -> (-x, G c) "
            f"(residual {residual:.3g}): the a >= 0 fold and the four-block renewal need it"
        )
    # the reflection maps rows (R,L), (L,R) of M++ to rows (L,R), (R,L) of M--, M+- to M-+
    alpha, off_row = m_pp[1, 1], np.delete(m_pm, 1, axis=0)
    residual = max(np.max(np.abs(m_pp[1:3] - alpha * np.eye(4)[1:3])), np.max(np.abs(off_row)))
    if residual > tol:
        raise UnsupportedFamilyError(
            f"shift blocks without the coin-pair rows (residual {residual:.3g}): the closed-form "
            "A0 inverse needs rows alpha e_RL, e_LR in M++ and M+- of rank <= 1 on row (R,L)")
    blocks = m_pp[::3, :, None], m_mm[::3, :, None], alpha, np.stack([m_pm[1], m_mp[2]])
    for array in (blocks[0], blocks[1], blocks[3]):
        array.flags.writeable = False
    return blocks


def _eta_parts(blocks, z, phase):
    """(H0, H1, b) on the nodes phase = exp(-i xi), node-last: (16, n) twice, entry
    (c, c') in row 4 c + c', and (n,).

    blocks are the _laurent_blocks of the family. H_n = b^(n-1) H1 for
    n >= 1 multiplies exp(i n eta) in (I - zV)^-1, and H_-n = P H_n P. In
    the order (RR, LL | RL, LR), A0 = [[T, Q], [0, g I]], g = 1 - z alpha
    (exp(i xi) + exp(-i xi)), so A0^-1 = [[T^-1, -T^-1 Q / g], [0, I / g]]
    with T^-1 = adj T / det T. SingularKernelError where det T, its pivot
    t00 or g is 0 or not finite.
    """
    outer, inner, alpha, v = blocks
    # rows (R,R) and (L,L) of A0, [T | Q] in the columns RR, RL, LR, LL: (2, 4, n)
    rows = np.eye(4)[::3, :, None] - z * (outer * phase + inner * phase.conj())
    (t00, t03), (t30, t33) = rows[:, ::3]
    det, g = t00 * t33 - t03 * t30, 1 - 2 * z * alpha * phase.real
    if not np.all(np.isfinite(pivots := np.stack([det, g, t00])) & (pivots != 0)):
        raise SingularKernelError(f"A0 is singular on the xi grid at z={z}")
    a0_inv, rdet, rg = np.zeros((4, 4, len(phase)), dtype=complex), 1 / det, 1 / g
    a0_inv[::3, ::3] = np.array([[t33, -t03], [-t30, t00]]) * rdet
    a0_inv[1, 1] = a0_inv[2, 2] = rg
    # T^-1 Q: row LL by Cramer, row RR from it through the pivot t00 (|t00| >= 1 - z + |t30|
    # when the family preserves trace). Its error then lies along T's near-null direction,
    # which v^T cancels in W; adj T Q / det T would cost 1 + det W (~1e-5 at a crest) 1e-7
    a0_inv[3, 1:3] = (t30 * rows[0, 1:3] - t00 * rows[1, 1:3]) * rdet
    a0_inv[0, 1:3] = (-rows[0, 1:3] - t03 * a0_inv[3, 1:3]) / t00
    a0_inv[::3, 1:3] *= rg
    # A_-1 = -z e_RL v1^T and A_1 = -z e_LR v2^T: L = A0^-1 [u1 u2], R = v^T A0^-1, W = R [u1 u2]
    left = -z * a0_inv[:, 1:3]
    right = (v @ a0_inv.reshape(4, -1)).reshape(2, 4, -1)
    (w11, w12), (w21, w22) = -z * right[:, 1:3]
    # det(W + diag(exp(i eta), exp(-i eta))) = kappa (1 - a exp(-i eta)) (1 - b exp(i eta)), and
    # kappa (1 - ab) = 2 kappa - delta is the root taken. The discriminant delta^2 - 4 A equals
    # (1 - A - B)^2 - 4 A B, A = w11 w22, B = w12 w21, which does not cancel at A ~ 1, B ~ 0
    prod, cross = w11 * w22, w12 * w21
    delta, root = 1 + prod - cross, np.sqrt((1 - prod - cross) ** 2 - 4 * prod * cross)
    root = np.where((delta.conj() * root).real < 0, -root, root)
    kappa = (delta + root) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c = -w11 / kappa, -w22 / kappa, 1 / root
    if not (np.all(np.isfinite(c)) and np.all(np.abs(a) < 1) and np.all(np.abs(b) < 1)):
        raise SingularKernelError(
            f"I - zV has an eta root on or outside the unit circle on the xi grid at z={z}"
        )
    # H0 = A0^-1 - X and H1 = -b X - L E+ R / kappa, X = L k0 R, with adj W = [[w22, -w12],
    # [-w21, w11]] and E+ = diag(0, 1): k0 = c (adj W + a E+ + b E-) and k1 = b k0 + E+ / kappa
    k0 = c * np.array([[w22 + b, -w12], [-w21, w11 + a]])
    k0_right = k0[:, :1] * right[0] + k0[:, 1:] * right[1]  # the inner sums have length 2
    x = left[:, :1] * k0_right[0] + left[:, 1:] * k0_right[1]
    h1 = x * -b
    h1 -= left[:, 1, None] * (right[1] / kappa)
    return (a0_inv - x).reshape(16, -1), h1.reshape(16, -1), b


def _block_index(d1, d2, row_of):
    """Flat index into [F, -F] of the 4 x 4 entries of the blocks at even
    offsets (d1, d2), F the flat fold whose block (a, n) is row row_of[a, n].

    The block is harmonic a = (d1 + d2)/2 of H_-b, b = (d1 - d2)/2, which is
    P H_b P for b > 0. For a < 0 it is the reflection image of the block at
    (-d1, -d2): entry (c, c') is sigma_c sigma_c' times its entry (k c, k c'),
    k and sigma the coin-pair map and signs of G x G.
    """
    a, b = (d1 + d2) // 2, (d1 - d2) // 2
    negative = (a < 0)[..., None]
    pair = np.where(np.where(a < 0, b < 0, b > 0)[..., None], _SWAP, np.arange(4))
    pair = np.where(negative, pair[..., _REFLECT], pair)
    block = row_of[np.abs(a), np.abs(b)][..., None, None]
    flat = 16 * block + 4 * pair[..., :, None] + pair[..., None, :]
    minus = negative[..., None] & (_REFLECT_SIGN[:, None] * _REFLECT_SIGN < 0)
    return np.where(minus, flat + 16 * (row_of.max() + 1), flat)


class _Fold(NamedTuple):
    """The folded blocks (a, n), a >= 0: first n = 0 at a = 0, 2, .., n_max, then
    n = 1, 2, .. in turn, by a."""

    count: int  # blocks folded
    groups: tuple  # (n - 1, start, stop, first row after n = 0) per run at n >= 1
    zero: np.ndarray  # flat fold entries of the a = 0 blocks
    image: np.ndarray  # the entry of each one's reflection image
    sign: np.ndarray  # and its sign
    swap: np.ndarray  # (2, m): the n = 0 entries (c, c') that P moves, and (P c, P c')


def _fold_pairs(n_max):
    """The _Fold of the blocks (a, n) that s(z) reads with a >= 0, a = n (mod 2)
    and a + n <= n_max or a = n, and row_of[a, n]: each block's row in the fold,
    -1 where none.

    An a = 0 block of s(z) equals its reflection image: F(0, 0) = K F(0, 0) K^T
    and F(0, n) = KP F(0, n) (KP)^T for n >= 1, K = G x G; zero, image and
    sign pair each entry with its image, and swap each n = 0 entry that P
    moves with its J image.
    """
    a, n = np.indices((n_max + 1, n_max + 1))
    taken = (a % 2 == n % 2) & ((a + n <= n_max) | (a == n))
    order = np.lexsort((a[taken], n[taken]))
    a, n = a[taken][order], n[taken][order]
    row_of = np.full((n_max + 1, n_max + 1), -1)
    row_of[a, n] = np.arange(len(a))
    n_zero = n_max // 2 + 1
    rows = row_of[0, n[a == 0]]
    pair = np.where((n[a == 0] > 0)[:, None], _SWAP[_REFLECT], _REFLECT)
    coin = np.arange(4)
    zero = 16 * rows[:, None, None] + 4 * coin[:, None] + coin
    image = 16 * rows[:, None, None] + 4 * pair[:, :, None] + pair[:, None, :]
    sign = np.broadcast_to(_REFLECT_SIGN[:, None] * _REFLECT_SIGN, zero.shape)
    # runs of blocks at one n >= 1 and a = start, start + 2, .. < stop: rows start:stop:2
    # of the phase rows (s(z) reads two runs at n > n_max / 2: a <= n_max - n, and a = n)
    first = np.flatnonzero((np.diff(n, prepend=0) != 0) | (np.diff(a, prepend=-2) != 2))
    last = np.append(first[1:], len(a)) - 1
    groups = tuple((int(n[i]) - 1, int(a[i]), int(a[j]) + 1, int(i) - n_zero)
                   for i, j in zip(first, last) if n[i] > 0)
    entry, swapped = 4 * coin[:, None] + coin, 4 * _SWAP[:, None] + _SWAP
    moved = np.stack([entry[entry != swapped], swapped[entry != swapped]])  # 12 per block
    swap = (16 * np.arange(n_zero)[:, None] + moved[:, None]).reshape(2, -1)  # the n_zero first rows
    fold = _Fold(len(a), groups, zero.ravel(), image.ravel(), sign.ravel(), swap)
    return fold, row_of


class _Renewal(NamedTuple):
    """The renewal's tables for one signed index of s(z) into values = [F, -F]."""

    at: np.ndarray  # (k, r, o): the signed index of entry e = (r, k o), with the sign of k o
    unit: np.ndarray  # (k, r, o): the entry of I at e, with that sign
    scale: np.ndarray  # (c, r, o): 1 / |fix o| where block c holds r and o, else 0
    pad: np.ndarray  # (c, r, r): 1 where block c does not hold r
    fix: np.ndarray  # |fix r|, the group elements that fix representative r


def _renewal_tables(index, n):
    """The _Renewal of s = values[index], values = [F, -F] of length 2 n: J (x, m,
    c, c') -> (m, x, c', c) and Pi (x, m, c) -> (-x, -m, sigma_c e_(k c)) act on
    the entries of s. Orbit representatives r come with the origin's e_(R,R)
    first, then its e_(R,L); block c = 2 c_J + c_Pi holds r when every element
    that fixes r acts on e_r by chi_c."""
    positions = cross_basis((len(index) // 4 - 1) // 2)
    where = {point: i for i, point in enumerate(positions)}
    dim = 4 * len(positions)
    swap = (4 * np.array([where[m, x] for x, m in positions])[:, None] + _SWAP).ravel()
    reflect = (4 * np.array([where[-x, -m] for x, m in positions])[:, None] + _REFLECT).ravel()
    sign = np.tile(_REFLECT_SIGN, len(positions))
    # element 2 j + pi is J^j Pi^pi: e_i -> sign e_perm(i); the group law is XOR
    perm = np.stack([np.arange(dim), reflect, swap, swap[reflect]])
    signs = np.stack([np.ones(dim), sign, np.ones(dim), sign])
    # the least index of each orbit, the origin's e_(R,R) and e_(R,L) first
    origin, least = 4 * where[0, 0], np.flatnonzero(perm.min(axis=0) == np.arange(dim))
    reps = np.concatenate([[origin, origin + 1], least[(least != origin) & (least != origin + 1)]])
    image_of, image_sign = perm[:, reps], signs[:, reps]  # (g, r)
    fixed = image_of == reps
    held = np.all(~fixed | (_CHARACTERS[:, :, None] * image_sign == 1), axis=1)  # (c, r)
    # e = (r, k o) with the sign of k o: the value's index moves by n where the sign is -1
    at = (index[reps[:, None], image_of[:, None, :]] + n * (image_sign[:, None, :] < 0)) % (2 * n)
    unit = np.where(image_of[:, None, :] == reps[:, None], image_sign[:, None, :], 0.0)
    fix = fixed.sum(axis=0).astype(float)
    scale = np.where(held[:, :, None] & held[:, None, :], 1 / fix, 0.0)
    pad = np.eye(len(reps)) * ~held[:, None, :]
    return _Renewal(at, unit, scale, pad, fix)


class _Tables(NamedTuple):
    phase: np.ndarray  # exp(-i xi) at the first-half nodes
    phases: np.ndarray  # 2 w exp(i a xi), a = 0 .. n_max
    fold: _Fold  # the blocks s(z) reads with a >= 0
    index: np.ndarray  # s(z) in [F, -F]
    renewal: _Renewal  # the renewal's tables for index


def _table_bytes(n_max, grid_n):
    """Peak bytes of _tables(n_max, grid_n), the figure its ResourceError guards:
    32 (dim + 4)^2 + 24 (n_max + 1) grid_n + 1 MiB, dim = 4 (2 n_max + 1).

    The signed index of s(z) is dim^2 int64 (dim is the size of s(z)), and
    building it holds about three more; the renewal's index, unit entries,
    scales and pads are dim^2 / 4 entries each, and the xi rows about three
    (n_max + 1) x grid_n / 2 complex arrays. Traced peaks at grid 384 are
    30 dim^2 from n_max = 100 on (306 MB at n_max = 400, 0.92 of the figure).
    """
    dim = 4 * (2 * n_max + 1)
    return 32 * (dim + 4) ** 2 + 24 * (n_max + 1) * max(grid_n, 0) + (1 << 20)


@functools.lru_cache(maxsize=8)
def _tables(n_max, grid_n):
    """Node phases exp(-i xi) of the first half and rows 2 w exp(i a xi) for
    a = 0 .. n_max, and _signed_index(n_max). ParameterError for an odd or
    < 2 n_max and a grid_n _subst_grid refuses; ResourceError when
    _table_bytes exceeds directsim.DEFAULT_MEMORY_CAP."""
    if n_max < 2 or n_max % 2:
        raise ParameterError("n_max must be even and >= 2")
    nbytes, cap = _table_bytes(n_max, grid_n), directsim.DEFAULT_MEMORY_CAP
    if nbytes > cap:
        raise ResourceError(
            f"genfun tables for n_max={n_max} would need {nbytes} bytes (cap {cap})"
        )
    k, delta, w = (part[: grid_n // 2] for part in _subst_grid(grid_n))
    # exp(i a xi) = (-1)^(a k) exp(i a delta)
    rows = np.arange(n_max + 1)[:, None]
    phases = 2 * w * (-1.0) ** (rows * k) * np.exp(1j * rows * delta)
    phase = (-1.0) ** k * np.exp(-1j * delta)
    tables = _Tables(phase, phases, *_signed_index(n_max))
    for table in (*tables[:2], *tables.fold[2:], tables.index, *tables.renewal):
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _signed_index(n_max):
    """The _Fold of the 131 blocks (a, n), a >= 0, that s(z) reads at n_max = 20,
    the signed index of s(z) in [F, -F] and its _Renewal; _tables guards it."""
    fold, row_of = _fold_pairs(n_max)
    positions = cross_basis(n_max)
    d1, d2 = (np.array(positions)[:, None] - np.array(positions)[None, :]).transpose(2, 0, 1)
    index = _block_index(d1, d2, row_of).transpose(0, 2, 1, 3).reshape(4 * len(positions), -1)
    return fold, index, _renewal_tables(index, 16 * fold.count)


def _fold(blocks, z, tables):
    """[F, -F], F the flat xi fold of the blocks (a, n) of tables.fold: 2 Re
    sum_xi w exp(i a xi) H_n(xi) over the first-half nodes, the a = 0 blocks
    averaged with their reflection images and the fold.swap pairs with their
    J images, so that s(z) commutes with Pi and J bit for bit. ConsistencyError
    when, before the J average, s(z) differs from J s(z) J on fold.swap by
    more than _SWAP_TOL of max |F|. blocks are the family's _laurent_blocks."""
    phase, phases, fold = tables.phase, tables.phases, tables.fold
    h0, h1, b = _eta_parts(blocks, z, phase)
    # Re(Y H) = [Re Y, Im Y] @ [Re H; -Im H]: rows interleaved per node on both sides, the
    # right side the transposed float view of conj(H) (16, n).
    # Against H0 the rows are 2 w exp(i a xi), a = 0, 2, .., n_max; H0 - I is folded and
    # the a = 0 harmonic of I, exactly I, added after, so that at small z, where s(z) - I
    # is O(z), the rounding stays relative to s(z) - I
    zero_rows = phases.view(float)[::2]
    out = np.empty((fold.count, 16))
    h0[::5] -= 1  # H0 - I: rows 0, 5, 10 and 15 hold the diagonal
    np.matmul(zero_rows, np.conj(h0).view(float).T, out=out[: len(zero_rows)])
    out[0] += np.eye(4).ravel()
    right = np.conj(h1).view(float).T
    del h0, h1  # each stage frees what it is done with: a point's peak heap stays small
    # powers[m] = b^m, so H_n = powers[n - 1] H1 for n >= 1. A power whose row factor
    # 2 w |b^m| is below sqrt(tiny) / eps ~ 7e-139 goes to 0, and so does a part of H1
    # below sqrt(tiny): the parts of a row factor are then 0 or above sqrt(tiny), and no
    # product in the matmul is subnormal (subnormal arithmetic is slow; at theta =
    # pi/2 - 1e-9 |b| is ~1e-17). phases[0] holds 2 w.
    powers = np.empty((fold.groups[-1][0] + 1, len(phase)), dtype=complex)
    powers[0] = 1.0
    powers[1:] = b
    np.cumprod(powers, axis=0, out=powers)
    powers[np.abs(powers) * phases[0].real < _FLUSH / np.finfo(float).eps] = 0.0
    right[np.abs(right) < _FLUSH] = 0.0
    # a row of Y against H1 holds 2 w exp(i a xi) b^(n-1), so that Re(Y H1) is block (a, n)
    rows = np.empty((fold.count - len(zero_rows), len(phase)), dtype=complex)
    for power, start, stop, first in fold.groups:
        np.multiply(phases[start:stop:2], powers[power],
                    out=rows[first : first + (stop - start + 1) // 2])
    np.matmul(rows.view(float), right, out=out[len(zero_rows):])
    flat = out.ravel()
    flat[fold.zero] = (flat[fold.zero] + fold.sign * flat[fold.image]) / 2
    value = np.max(np.abs(flat[fold.swap[0]] - flat[fold.swap[1]]))
    if value > _SWAP_TOL * np.max(np.abs(flat)):
        raise ConsistencyError(
            f"s(z) is not symmetric under the ket-bra swap: |s - JsJ| = {value:.3e}")
    # swap holds each pair both ways and x + y rounds as y + x: J holds bit for bit, and Pi too
    flat[fold.swap[0]] = (flat[fold.swap[0]] + flat[fold.swap[1]]) / 2
    return np.concatenate([flat, -flat])


def cross_basis(n_max: int) -> list:
    """Ordered (x, m) cross points: even, |.| <= n_max, x = 0 or m = 0."""
    points = [(x, 0) for x in range(-n_max, n_max + 1, 2)]
    points += [(0, m) for m in range(-n_max, n_max + 1, 2) if m != 0]
    return points


@dataclass
class StieltjesMatrix:
    """s(z) = values[index] on the even cross subspace, coin pairs innermost."""

    z: float
    n_max: int
    positions: list  # (x, m) cross points; basis index = 4*pos + (2c + c')
    values: np.ndarray  # [F, -F], F the flat xi fold
    index: np.ndarray  # (dim, dim) signed index into values
    renewal: _Renewal  # the renewal's tables for index

    @property
    def matrix(self) -> np.ndarray:  # gathered on each read
        return self.values[self.index]

    @property
    def dim(self) -> int:
        return len(self.index)

    def basis_index(self, coin_pair: int, x: int, m: int) -> int:
        return 4 * self.positions.index((x, m)) + coin_pair


def stieltjes_matrix(
    family: TranslationKrausFamily, z: float, n_max: int, grid_n: int = DEFAULT_GRID
) -> StieltjesMatrix:
    """The real s(z) over the even cross basis: the xi fold and its signed index."""
    z, blocks = _check_z(z), _laurent_blocks(family)  # refuses a family before any work
    tables = _tables(n_max, grid_n)
    values = _fold(blocks, z, tables)
    return StieltjesMatrix(z, n_max, cross_basis(n_max), values, tables.index, tables.renewal)


def fourier_blocks(
    family: TranslationKrausFamily, z: float, n_max: int, grid_n: int = DEFAULT_GRID
) -> dict:
    """Map (d1, d2) -> 4x4 block A_{xm,yn}(z) with d1 = x - y, d2 = m - n.

    A block view of stieltjes_matrix: the keys are the offsets between two
    cross points (481 at n_max = 20), each block the real 4 x 4 block of s(z)
    at that offset.
    """
    s = stieltjes_matrix(family, z, n_max, grid_n)
    blocks = s.matrix.reshape(len(s.positions), 4, len(s.positions), 4)
    return {(x - y, m - n): blocks[i, :, j]
            for i, (x, m) in enumerate(s.positions) for j, (y, n) in enumerate(s.positions)}


def _orbit_norms(blocks, fix):
    """|A|_1 of each operator A that commutes with {1, Pi, J, J Pi}, given by its
    (c, r, o) blocks as in _split_renewal (blocks has shape (m, 4, r, o)). The
    entry of column r at g r' is sum_c chi_c(g) |fix r| / 4 blocks[c, r', r] up
    to sign, and every column has the 1-norm of its orbit representative."""
    entries = np.matmul(_CHARACTERS, blocks.reshape(len(blocks), 4, -1))
    entries = np.abs(entries, out=entries).sum(axis=1)
    columns = (1 / fix) @ entries.reshape(len(blocks), len(fix), -1)  # (m, r)
    return np.max(columns * fix / 4, axis=1)


def _split_renewal(values, renewal):
    """(1 - w_(R,R,0,0) - w_(L,L,0,0), kappa_1) with w = s^-1 e_(R,R,0,0), from
    the four (J, Pi) blocks of s = values[index], renewal the _Renewal of index.

    Each of the 41, 42, 41 and 40 rows of the blocks at n_max = 20 is an orbit
    representative r. _fold makes s commute with {1, Pi, J, J Pi} bit for
    bit, so block c is 1/|fix o| sum_k chi_c(k) (s - I)(r, k o) in the
    coordinates v[r], the entries (r, k o) one signed gather of the fold
    values. The inverse is one np.linalg.inv on the stack, each
    block padded with the identity. The (J+, Pi+) block holds
    (e_(R,R) + e_(L,L)) / sqrt 2 at the origin, so w is its inverse's first
    entry; the blocks are summed from s - I, and 1 - w = [(s - I) s^-1]_00,
    so that at small z, where s - I is O(z), the rounding stays relative to
    s - I. kappa_1 is exact (_orbit_norms).
    """
    terms = values[renewal.at]
    terms -= renewal.unit
    # block c of s - I sums chi_c(k) (s - I)(r, k o) over k
    blocks = (_CHARACTERS @ terms.reshape(4, -1)).reshape(terms.shape) * renewal.scale
    system = blocks + np.eye(len(renewal.fix))
    both = np.stack([system, np.linalg.inv(system)])
    q = blocks[0, 0] @ both[1, 0, :, 0]
    both -= renewal.pad
    norms = _orbit_norms(both, renewal.fix)
    return q, norms[0] * norms[1]


def recurrence_estimate(
    params: WalkParams,
    z: float,
    n_max: int = 20,
    grid_n: int = DEFAULT_GRID,
) -> float:
    """R~_z from the renewal equation, traced against rho0 = |R,0><R,0|.

    w = s(z)^-1 e_(R,R,0,0), solved in the (J+, Pi+) block of s(z), gives
    (1 - w_(R,R,0,0) - w_(L,L,0,0)) / z, the blocks built from the xi fold
    without gathering s(z). The initial coin choice is WLOG by coin-state
    independence. OutOfValidatedRangeError below Z_MIN.
    """
    z = _check_z(z)
    if z < Z_MIN:
        raise OutOfValidatedRangeError(f"z={z} is below the validated floor {Z_MIN}")
    s = stieltjes_matrix(kraus_family(params), z, n_max, grid_n)
    try:
        q, kappa_1 = _split_renewal(s.values, s.renewal)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"inverse failed at z={z}, n_max={n_max}: {exc}") from exc
    # kappa_2 <= dim kappa_1, so this refuses every s(z) with kappa_2 above the limit (and NaN)
    cond = s.dim * kappa_1
    if not cond <= _COND_LIMIT:
        raise ConditioningError(f"condition estimate {cond:.3e} at z={z}, n_max={n_max}")
    return float(q / z)


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
