"""Recurrence estimates through the Stieltjes function and renewal equation.

The resolvent kernel A(z, k1, k2) = (I4 - z V(k1, k2))^-1 is integrated
over momentum in rotated coordinates xi = k1 + k2, eta = k1 - k2. Both V
and the needed Fourier phases are 2pi-periodic in (xi, eta) separately,
so the integral over the k-torus equals the integral over the (xi, eta)
torus with the plain product measure. Each axis is regularized by the
substitution xi = s - sin(2 s)/2 (Jacobian 1 - cos(2 s)), sampled by the
rectangle rule at half-interval offsets so no node lands on the crest
lines xi, eta in pi*Z where the determinant becomes small as z -> 1.
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
    Model,
    TranslationKrausFamily,
    WalkParams,
    kraus_family,
    momentum_kernel,
)

__all__ = [
    "DEFAULT_Z_SAMPLES",
    "Z_CAP",
    "DeterminantParams",
    "StieltjesMatrix",
    "SweepPoint",
    "determinant_balanced",
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

# Adjugate entries of I - zV are Laurent polynomials in exp(i xi), exp(i eta)
# of band at most 3 (products of three single-harmonic matrix entries).
_ADJ_BAND = 3
_COND_LIMIT = 1e14
_DET_FLOOR = 1e-300


@dataclass(frozen=True)
class DeterminantParams:
    """Rotated-coordinate symbols entering the balanced determinant."""

    xi: float
    eta: float
    rho_var: float  # 1 - z p cos(xi)
    sigma_var: float  # z (1 - p)

    @classmethod
    def from_walk(cls, z: float, p: float, xi: float, eta: float):
        return cls(
            xi=xi, eta=eta, rho_var=1.0 - z * p * math.cos(xi), sigma_var=z * (1.0 - p)
        )


def determinant_balanced(dp: DeterminantParams, theta: float) -> float:
    """Closed form of det(I4 - z V) for the balanced family."""
    rho, sigma = dp.rho_var, dp.sigma_var
    cxi, ceta = math.cos(dp.xi), math.cos(dp.eta)
    bracket = 2 * rho * sigma * (1 - cxi * ceta) - (rho**2 + sigma**2) * (cxi - ceta)
    return (rho**2 - sigma**2) ** 2 + bracket * 2 * rho * sigma * math.cos(theta) ** 2


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
    """A(z, k1, k2) = (I4 - z V(k1, k2))^-1 for a single momentum pair.

    Balanced families use the adjugate/determinant closed form; others a
    pivoted direct inverse.
    """
    z = _check_z(z)
    v = momentum_kernel(family, k1, k2)
    m = np.eye(4) - z * v
    if family.label == "balanced":
        theta, p = _balanced_angles(family)
        dp = DeterminantParams.from_walk(z, p, k1 + k2, k1 - k2)
        det = determinant_balanced(dp, theta)
        if abs(det) < _DET_FLOOR:
            raise SingularKernelError(
                f"determinant {det:.3e} at (k1, k2)=({k1}, {k2}), z={z}"
            )
        return adjugate_4x4(m) / det
    return invert_grid_4x4(m[None])[0]


def _balanced_angles(family: TranslationKrausFamily) -> tuple[float, float]:
    """Recover (theta, p) from a balanced family's Kraus blocks."""
    e0 = family.kraus[0]
    e1 = family.kraus[1]
    p = float(np.clip(2 * e1.terms[0][0][0, 0].real ** 2, 0.0, 1.0))
    block = e0.terms[0][0]
    scale = math.sqrt(1 - p) if p < 1 else 1.0
    if p == 1:
        # coin blocks vanish; any angle gives the same kernel
        return 0.0, 1.0
    c = float(np.real(block[0, 0])) / scale
    s = float(np.real(block[0, 1])) / scale
    return math.atan2(s, c), p


def _subst_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    if grid_n <= 0 or grid_n % 4:
        raise ParameterError("grid_n must be a positive multiple of 4")
    s = (np.arange(grid_n) + 0.5) * (2 * np.pi / grid_n)
    return s - 0.5 * np.sin(2 * s), (1.0 - np.cos(2 * s)) / grid_n


def _harmonics_balanced(theta, p, z, n_max, grid_n):
    """Fourier coefficients of A over integer (xi, eta) harmonics.

    The scalar 1/D field is transformed once; the 16 adjugate entries are
    attached by discrete convolution with their (small) Laurent bands.
    """
    x, w = _subst_grid(grid_n)
    det = determinant_grid(x, x, z, p, theta)
    small = np.min(np.abs(det))
    if small < _DET_FLOOR:
        raise SingularKernelError(f"determinant reached {small:.3e} on the grid")
    inv_det = 1.0 / det

    pad = 2 * n_max + _ADJ_BAND
    harmonics = np.arange(-pad, pad + 1)
    phases = np.exp(1j * np.outer(harmonics, x)) * w  # (n_h, N), weights folded in
    moments = (phases @ inv_det) @ phases.T  # (n_h, n_h)

    # exact band-limited coefficients of the adjugate from a small uniform grid
    n_u = 8
    ku = 2 * np.pi * np.arange(n_u) / n_u
    xi_g, eta_g = np.meshgrid(ku, ku, indexing="ij")
    fam = kraus_family(WalkParams(theta, p, Model.BALANCED))
    v = momentum_kernel(fam, (xi_g + eta_g) / 2, (xi_g - eta_g) / 2)
    adj = adjugate_4x4(np.eye(4) - z * v)
    coeffs = np.fft.fft2(adj, axes=(0, 1)) / n_u**2

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


def _harmonics_direct(family, z, n_max, grid_n, chunk=64):
    """Fourier coefficients of A via per-sample pivoted inversion."""
    x, w = _subst_grid(grid_n)
    n_a = 4 * n_max + 1
    harmonics = np.arange(-2 * n_max, 2 * n_max + 1)
    phases = np.exp(1j * np.outer(harmonics, x)) * w  # (n_a, N)

    eye = np.eye(4)
    rows = np.zeros((grid_n, n_a, 16), dtype=complex)
    for start in range(0, grid_n, chunk):
        xi = x[start : start + chunk]
        k1 = (xi[:, None] + x[None, :]) / 2
        k2 = (xi[:, None] - x[None, :]) / 2
        v = momentum_kernel(family, k1, k2)
        try:
            a = invert_grid_4x4((eye - z * v).reshape(-1, 4, 4))
        except np.linalg.LinAlgError as exc:
            raise SingularKernelError(f"I - zV singular at z={z}: {exc}") from exc
        a = a.reshape(len(xi), grid_n, 16)
        # contract the eta axis with every harmonic at once
        rows[start : start + chunk] = np.einsum("bn,cnf->cbf", phases, a)
    out = phases @ rows.reshape(grid_n, -1)
    return out.reshape(n_a, n_a, 4, 4)


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
    if family.label == "balanced":
        theta, p = _balanced_angles(family)
        harm = _harmonics_balanced(theta, p, z, n_max, grid_n)
    else:
        harm = _harmonics_direct(family, z, n_max, grid_n)
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


def _transpose_pair_index(positions, i):
    """Index of the transpose partner of basis element i: (c,c',x,m)->(c',c,m,x)."""
    pos, pair = divmod(i, 4)
    x, m = positions[pos]
    c, cp = divmod(pair, 2)
    return 4 * positions.index((m, x)) + 2 * cp + c


def recurrence_estimate(
    params: WalkParams,
    z: float,
    n_max: int = 20,
    grid_n: int = 1024,
    symmetry_reduction: bool = False,
) -> float:
    """R~_z from the renewal equation, traced against rho0 = |R,0><R,0|.

    Solves s(z) w = e_(R,R,0,0) with a pivoted solve and returns
    (1 - w_(R,R,0,0) - w_(L,L,0,0)) / z. The initial coin choice is WLOG
    by coin-state independence.

    With symmetry_reduction=True the solve runs on the transpose-symmetric
    half of the cross basis (dimension 83 at n_max=20 instead of 164).
    """
    z = _check_z(z)
    family = kraus_family(params)
    s = stieltjes_matrix(family, z, n_max, grid_n)
    rhs = np.zeros(s.dim, dtype=complex)
    i_rr = s.basis_index(0, 0, 0)
    i_ll = s.basis_index(3, 0, 0)
    rhs[i_rr] = 1.0

    mat = s.matrix
    if symmetry_reduction:
        basis_map = np.array(
            [_transpose_pair_index(s.positions, i) for i in range(s.dim)]
        )
        cols = []
        for i in range(s.dim):
            j = basis_map[i]
            if j < i:
                continue
            col = np.zeros(s.dim)
            if j == i:
                col[i] = 1.0
            else:
                col[i] = col[j] = 1.0 / math.sqrt(2)
            cols.append(col)
        b = np.array(cols).T  # (dim, reduced)
        mat, rhs = b.T @ s.matrix @ b, b.T @ rhs
    try:
        cond = np.linalg.cond(mat)
        if cond > _COND_LIMIT:
            raise ConditioningError(
                f"condition estimate {cond:.3e} at z={z}, n_max={n_max}"
            )
        w = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"solve failed at z={z}, n_max={n_max}: {exc}") from exc
    if symmetry_reduction:
        w = b @ w

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
