"""Hot numerical kernels with numba acceleration and a pure-numpy fallback.

Set DTQSW_DISABLE_NUMBA=1 to force the numpy path (also taken automatically
when numba is unavailable). Both paths produce identical results.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "determinant_grid",
    "invert_grid_4x4",
    "determinant_grid_numpy",
    "invert_grid_4x4_numpy",
]

_DISABLED = os.environ.get("DTQSW_DISABLE_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if _DISABLED:
        raise ImportError("numba disabled via DTQSW_DISABLE_NUMBA")
    from numba import njit

    USING_NUMBA = True
except ImportError:
    USING_NUMBA = False


def determinant_grid_numpy(xi, eta, z, p, theta):
    """det(I4 - z V) of the balanced kernel on the (xi, eta) product grid."""
    rho = 1.0 - z * p * np.cos(xi)[:, None]
    sigma = z * (1.0 - p)
    cxi = np.cos(xi)[:, None]
    ceta = np.cos(eta)[None, :]
    cos2 = np.cos(theta) ** 2
    r2, s2 = rho * rho, sigma * sigma
    bracket = 2.0 * rho * sigma * (1.0 - cxi * ceta) - (r2 + s2) * (cxi - ceta)
    return (r2 - s2) ** 2 + bracket * 2.0 * rho * sigma * cos2


def invert_grid_4x4_numpy(mats):
    """Batched inverse of an (n, 4, 4) stack."""
    return np.linalg.inv(mats)


if USING_NUMBA:

    @njit(cache=True)
    def _determinant_grid_numba(xi, eta, z, p, theta):
        n, m = xi.shape[0], eta.shape[0]
        out = np.empty((n, m))
        sigma = z * (1.0 - p)
        s2 = sigma * sigma
        cos2 = np.cos(theta) ** 2
        ceta = np.cos(eta)
        for i in range(n):
            cxi = np.cos(xi[i])
            rho = 1.0 - z * p * cxi
            r2 = rho * rho
            for j in range(m):
                bracket = 2.0 * rho * sigma * (1.0 - cxi * ceta[j]) - (r2 + s2) * (
                    cxi - ceta[j]
                )
                out[i, j] = (r2 - s2) ** 2 + bracket * 2.0 * rho * sigma * cos2
        return out

    @njit(cache=True)
    def _invert_grid_4x4_numba(mats):
        n = mats.shape[0]
        out = np.empty_like(mats)
        work = np.empty((4, 8), dtype=np.complex128)
        for idx in range(n):
            # Gauss-Jordan with partial pivoting on [M | I]
            for i in range(4):
                for j in range(4):
                    work[i, j] = mats[idx, i, j]
                    work[i, j + 4] = 1.0 if i == j else 0.0
            for col in range(4):
                piv = col
                best = abs(work[col, col])
                for r in range(col + 1, 4):
                    mag = abs(work[r, col])
                    if mag > best:
                        best = mag
                        piv = r
                if piv != col:
                    for j in range(8):
                        tmp = work[col, j]
                        work[col, j] = work[piv, j]
                        work[piv, j] = tmp
                inv_p = 1.0 / work[col, col]
                for j in range(8):
                    work[col, j] *= inv_p
                for r in range(4):
                    if r != col:
                        factor = work[r, col]
                        if factor != 0:
                            for j in range(8):
                                work[r, j] -= factor * work[col, j]
            for i in range(4):
                for j in range(4):
                    out[idx, i, j] = work[i, j + 4]
        return out

    def determinant_grid(xi, eta, z, p, theta):
        return _determinant_grid_numba(
            np.ascontiguousarray(xi, dtype=np.float64),
            np.ascontiguousarray(eta, dtype=np.float64),
            float(z),
            float(p),
            float(theta),
        )

    def invert_grid_4x4(mats):
        return _invert_grid_4x4_numba(np.ascontiguousarray(mats, dtype=np.complex128))

else:
    determinant_grid = determinant_grid_numpy
    invert_grid_4x4 = invert_grid_4x4_numpy
