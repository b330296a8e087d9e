"""Grid kernels of the generating-function route, in numpy.

USING_NUMBA is always False: the kernels have no compiled variant. The
name stays because the benchmark's provenance record reads it. invert_grid_4x4
is the pointwise resolvent's inverse and, in the quadrature, the one
batched inverse of A0 over the xi nodes of each point. determinant_grid is
a closed-form reference that the quadrature does not use.
"""

from __future__ import annotations

import numpy as np

__all__ = ["USING_NUMBA", "determinant_grid", "invert_grid_4x4"]

USING_NUMBA = False


def determinant_grid(xi, eta, z, p, theta):
    """det(I4 - z V) of the balanced kernel on the (xi, eta) product grid."""
    rho = 1.0 - z * p * np.cos(xi)[:, None]
    sigma = z * (1.0 - p)
    cxi = np.cos(xi)[:, None]
    ceta = np.cos(eta)[None, :]
    cos2 = np.cos(theta) ** 2
    r2, s2 = rho * rho, sigma * sigma
    bracket = 2.0 * rho * sigma * (1.0 - cxi * ceta) - (r2 + s2) * (cxi - ceta)
    return (r2 - s2) ** 2 + bracket * 2.0 * rho * sigma * cos2


def invert_grid_4x4(mats):
    """Batched inverse of an (n, 4, 4) stack."""
    return np.linalg.inv(mats)
