"""Recurrence estimates through the Stieltjes function and renewal equation.

The resolvent kernel A(z, k1, k2) = (I4 - z V(k1, k2))^-1 is integrated
over momentum in rotated coordinates xi = k1 + k2, eta = k1 - k2. Both V
and the needed Fourier phases are 2pi-periodic in (xi, eta) separately,
so the integral over the k-torus equals the integral over the (xi, eta)
torus with the plain product measure. Each axis is regularized by the
substitution xi = s - sin(2 s)/2 (Jacobian 1 - cos(2 s)), sampled by the
rectangle rule at half-interval offsets so no node lands on the crest
lines xi, eta in pi*Z where the determinant becomes small as z -> 1.

Every Kraus family takes one route: A = adj(I - zV) / D. Every Kraus
operator shifts by +-1, so in (xi, eta) the adjugate is a Laurent
polynomial of band 3 and D = det(I - zV) one of band 4. Only the scalar
1/D field is sampled on the quadrature grid; its moments are convolved
with the adjugate's exact coefficients, taken from an FFT on an 8 x 8
uniform grid. D comes from the closed form determinant_grid when the
family has the shift blocks of a standard balanced family (it stays free
of cancellation where D vanishes to fourth order at p = 1), and for any
other family from its band-4 coefficients, taken the same way from a
9 x 9 uniform grid. resolvent_kernel, the pointwise resolvent at one
momentum pair, is a pivoted 4 x 4 inverse for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import determinant_grid, invert_grid_4x4
from .errors import (
    ConditioningError,
    DtqswError,
    OutOfValidatedRangeError,
    ParameterError,
    SingularKernelError,
)
from .model import (
    TranslationKrausFamily,
    WalkParams,
    kraus_balanced,
    kraus_family,
    momentum_kernel,
    shift_blocks,
)

__all__ = [
    "DEFAULT_Z_SAMPLES",
    "Z_CAP",
    "StieltjesMatrix",
    "SweepPoint",
    "adjugate_4x4",
    "resolvent_kernel",
    "fourier_blocks",
    "cross_basis",
    "stieltjes_matrix",
    "recurrence_estimate",
    "z_sweep",
]

Z_CAP = 0.99999
DEFAULT_Z_SAMPLES = (
    0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998, 0.9999, 0.99995, 0.99998, 0.99999,
)

# Adjugate entries and the determinant of I - zV are Laurent polynomials in
# exp(i xi), exp(i eta) of band at most 3 and 4 (products of three and four
# single-harmonic matrix entries).
_ADJ_BAND = 3
_DET_BAND = 4
_COND_LIMIT = 1e14
_DET_FLOOR = 1e-300
# shift blocks within this of a standard balanced family's select the closed-form D
_STANDARD_TOL = 1e-14


def adjugate_4x4(mats: np.ndarray) -> np.ndarray:
    """Adjugate of a (..., 4, 4) stack via cofactor expansion."""
    mats = np.asarray(mats)
    minors = np.empty_like(mats)
    idx = np.arange(4)
    for i in range(4):
        rows = idx[idx != i]
        for j in range(4):
            cols = idx[idx != j]
            sub = mats[..., rows[:, None], cols[None, :]]
            minors[..., i, j] = (-1) ** (i + j) * _det3(sub)
    return np.swapaxes(minors, -1, -2)


def _det3(m):
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


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


def _balanced_angles(family: TranslationKrausFamily) -> tuple[float, float] | None:
    """(theta, p) if family has the shift blocks of kraus_balanced(theta, p), else None.

    The angles are read off the Kraus blocks where a balanced family keeps
    them, and trusted only once the standard family built from them
    reproduces the shift blocks of the one passed in.
    """
    try:
        coin_block = family.kraus[0].terms[0][0]
        rw_block = family.kraus[1].terms[0][0]
    except IndexError:
        return None
    p = float(np.clip(2 * rw_block[0, 0].real ** 2, 0.0, 1.0))
    if p == 1:
        # coin blocks vanish; any angle gives the same kernel
        theta = 0.0
    else:
        scale = math.sqrt(1 - p)
        c = float(np.real(coin_block[0, 0])) / scale
        s = float(np.real(coin_block[0, 1])) / scale
        theta = math.atan2(s, c)
    try:
        params = WalkParams(theta, p)
    except ParameterError:
        return None
    mine = shift_blocks(family)
    standard = shift_blocks(kraus_balanced(params))
    if mine.keys() != standard.keys() or any(
        np.max(np.abs(mine[key] - standard[key])) > _STANDARD_TOL for key in mine
    ):
        return None
    return params.theta, params.p


def _subst_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    if grid_n <= 0 or grid_n % 4:
        raise ParameterError("grid_n must be a positive multiple of 4")
    s = (np.arange(grid_n) + 0.5) * (2 * np.pi / grid_n)
    return s - 0.5 * np.sin(2 * s), (1.0 - np.cos(2 * s)) / grid_n


def _uniform_coefficients(family, z, n_u, transform):
    """Laurent coefficients of transform(I - zV) from an n_u x n_u (xi, eta) grid.

    Entry [a % n_u, b % n_u] multiplies exp(i (a xi + b eta)); exact for a
    polynomial of band at most (n_u - 1) // 2.
    """
    ku = 2 * np.pi * np.arange(n_u) / n_u
    xi_g, eta_g = np.meshgrid(ku, ku, indexing="ij")
    v = momentum_kernel(family, (xi_g + eta_g) / 2, (xi_g - eta_g) / 2)
    return np.fft.fft2(transform(np.eye(4) - z * v), axes=(0, 1)) / n_u**2


def _determinant_field(family, z, x):
    """D = det(I - zV) on the (xi, eta) = (x, x) product grid."""
    angles = _balanced_angles(family)
    if angles is not None:
        theta, p = angles
        return determinant_grid(x, x, z, p, theta)
    # 2 * band + 1 samples per axis: 8 would alias the +-4 harmonics
    n_u = 2 * _DET_BAND + 1
    coeffs = _uniform_coefficients(family, z, n_u, np.linalg.det)
    harmonics = np.arange(-_DET_BAND, _DET_BAND + 1)
    band = coeffs[np.ix_(harmonics % n_u, harmonics % n_u)]
    phases = np.exp(1j * np.outer(x, harmonics))
    return phases @ band @ phases.T


def _harmonics(family, z, n_max, grid_n):
    """Fourier coefficients of A over integer (xi, eta) harmonics.

    The scalar 1/D field is transformed once; the 16 adjugate entries are
    attached by discrete convolution with their (small) Laurent bands.
    """
    x, w = _subst_grid(grid_n)
    det = _determinant_field(family, z, x)
    small = np.min(np.abs(det))
    if small < _DET_FLOOR:
        raise SingularKernelError(f"determinant reached {small:.3e} on the grid")
    inv_det = 1.0 / det

    pad = 2 * n_max + _ADJ_BAND
    harmonics = np.arange(-pad, pad + 1)
    phases = np.exp(1j * np.outer(harmonics, x)) * w  # (n_h, N), weights folded in
    moments = (phases @ inv_det) @ phases.T  # (n_h, n_h)

    n_u = 8
    coeffs = _uniform_coefficients(family, z, n_u, adjugate_4x4)

    n_a = 4 * n_max + 1
    out = np.zeros((n_a, n_a, 4, 4), dtype=complex)
    lo = pad - 2 * n_max
    for dp_ in range(-_ADJ_BAND, _ADJ_BAND + 1):
        for dq in range(-_ADJ_BAND, _ADJ_BAND + 1):
            c = coeffs[dp_ % n_u, dq % n_u]
            if np.max(np.abs(c)) < 1e-300:
                continue
            sl = moments[
                lo + dp_ : lo + dp_ + n_a, lo + dq : lo + dq + n_a
            ]
            out += sl[:, :, None, None] * c
    return out


def fourier_blocks(
    family: TranslationKrausFamily, z: float, n_max: int, grid_n: int = 1024
) -> dict:
    """Map (d1, d2) -> 4x4 block A_{xm,yn}(z) with d1 = x - y, d2 = m - n.

    Only even offsets appear; odd-sum blocks vanish by bipartiteness and
    are never computed.
    """
    z = _check_z(z)
    if n_max < 2 or n_max % 2:
        raise ParameterError("n_max must be even and >= 2")
    harm = _harmonics(family, z, n_max, grid_n)
    off = 2 * n_max
    blocks = {}
    for d1 in range(-2 * n_max, 2 * n_max + 1, 2):
        for d2 in range(-2 * n_max, 2 * n_max + 1, 2):
            a = (d1 + d2) // 2
            b = (d1 - d2) // 2
            blocks[(d1, d2)] = harm[a + off, b + off]
    return blocks


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
    family: TranslationKrausFamily, z: float, n_max: int, grid_n: int = 1024
) -> StieltjesMatrix:
    """Assemble s(z) over the even cross basis from the Fourier blocks."""
    blocks = fourier_blocks(family, z, n_max, grid_n)
    positions = cross_basis(n_max)
    n_pos = len(positions)
    mat = np.zeros((4 * n_pos, 4 * n_pos), dtype=complex)
    for i, (x, m) in enumerate(positions):
        for j, (y, n) in enumerate(positions):
            mat[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = blocks[(x - y, m - n)]
    return StieltjesMatrix(z=z, n_max=n_max, positions=positions, matrix=mat)


def recurrence_estimate(
    params: WalkParams,
    z: float,
    n_max: int = 20,
    grid_n: int = 1024,
) -> float:
    """R~_z from the renewal equation, traced against rho0 = |R,0><R,0|.

    Solves s(z) w = e_(R,R,0,0) with a pivoted solve and returns
    (1 - w_(R,R,0,0) - w_(L,L,0,0)) / z. The initial coin choice is WLOG
    by coin-state independence.
    """
    z = _check_z(z)
    family = kraus_family(params)
    s = stieltjes_matrix(family, z, n_max, grid_n)
    rhs = np.zeros(s.dim, dtype=complex)
    i_rr = s.basis_index(0, 0, 0)
    i_ll = s.basis_index(3, 0, 0)
    rhs[i_rr] = 1.0

    try:
        cond = np.linalg.cond(s.matrix)
        if cond > _COND_LIMIT:
            raise ConditioningError(
                f"condition estimate {cond:.3e} at z={z}, n_max={n_max}"
            )
        w = np.linalg.solve(s.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"solve failed at z={z}, n_max={n_max}: {exc}") from exc

    value = (1.0 - w[i_rr] - w[i_ll]) / z
    return float(value.real)


@dataclass(frozen=True)
class SweepPoint:
    z: float
    value: float  # nan when the point failed
    error: str | None = None


def z_sweep(
    params: WalkParams,
    z_list=None,
    n_max: int = 20,
    grid_n: int = 1024,
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
