import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqsw import (
    Model,
    WalkParams,
    coin_matrix,
    fourier_blocks,
    genfun,
    kraus_family,
    momentum_kernel,
    recurrence_estimate,
    resolvent_kernel,
    return_series,
    stieltjes_matrix,
    weighted_return,
    z_sweep,
)
from dtqsw.directsim import _apply_cptp
from dtqsw.errors import (
    ConditioningError,
    OutOfValidatedRangeError,
    ParameterError,
    SingularKernelError,
)
from dtqsw._kernels import determinant_grid
from dtqsw.genfun import (
    DEFAULT_Z_SAMPLES,
    Z_CAP,
    _determinant_field,
    _subst_grid,
    adjugate_4x4,
    cross_basis,
)
from dtqsw.model import balanced_family_from_coin

RNG = np.random.default_rng(7)


# ------------------------------------------------------------ determinant path


def test_determinant_closed_form_vs_brute_force():
    for _ in range(100):
        theta = RNG.uniform(0, math.pi / 2)
        p = RNG.uniform(0, 1)
        z = RNG.uniform(0.05, 0.99)
        k1, k2 = RNG.uniform(0, 2 * np.pi, 2)
        fam = kraus_family(WalkParams(theta, p))
        det_ref = np.linalg.det(np.eye(4) - z * momentum_kernel(fam, k1, k2))
        det = determinant_grid(np.array([k1 + k2]), np.array([k1 - k2]), z, p, theta)
        assert abs(det[0, 0] - det_ref.real) < 1e-12 * max(1.0, abs(det_ref))
        assert abs(det_ref.imag) < 1e-12


def test_adjugate_vs_inverse_times_det():
    mats = RNG.normal(size=(50, 4, 4)) + 1j * RNG.normal(size=(50, 4, 4))
    adj = adjugate_4x4(mats)
    ref = np.linalg.inv(mats) * np.linalg.det(mats)[:, None, None]
    assert np.max(np.abs(adj - ref)) < 1e-10


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_resolvent_kernel_inverts(model):
    """A(z,k1,k2)(I - zV) = I for z up to Z_CAP."""
    for _ in range(50):
        theta = RNG.uniform(0, math.pi / 2)
        p = RNG.uniform(0, 1)
        z = RNG.uniform(0.05, Z_CAP)
        k1, k2 = RNG.uniform(0, 2 * np.pi, 2)
        fam = kraus_family(WalkParams(theta, p, model))
        a = resolvent_kernel(fam, z, k1, k2)
        m = np.eye(4) - z * momentum_kernel(fam, k1, k2)
        assert np.max(np.abs(a @ m - np.eye(4))) < 1e-10


def test_resolvent_dual_paths_agree():
    """The quadrature's adj(I - zV) / D, with either D source, equals the pivoted
    inverse: to 1e-10 absolute for z <= 0.99. Above, |A| reaches ~1e4 and D
    loses relative accuracy next to its zeros (worst 5.4e-9 of |A| in 8000
    draws, the inverse being exact to 1e-14 there), so the bound is 1e-8 of |A|."""
    near_cap = 1 - 10 ** RNG.uniform(np.log10(1 - Z_CAP), -2, 100)
    for model in [Model.BALANCED, Model.CORRELATED]:
        for z in np.concatenate([RNG.uniform(0.05, 0.99, 100), near_cap]):
            theta = RNG.uniform(0, math.pi / 2)
            p = RNG.uniform(0, 1)
            x = RNG.uniform(0, 2 * np.pi, 2)  # (xi, eta) over the 2 x 2 product grid
            fam = kraus_family(WalkParams(theta, p, model))
            k1 = (x[:, None] + x[None, :]) / 2
            k2 = (x[:, None] - x[None, :]) / 2
            m = np.eye(4) - z * momentum_kernel(fam, k1, k2)
            quad = adjugate_4x4(m) / _determinant_field(fam, z, x)[..., None, None]
            for i, j in np.ndindex(2, 2):
                ref = resolvent_kernel(fam, z, k1[i, j], k2[i, j])
                tol = 1e-10 if z <= 0.99 else 1e-8 * np.max(np.abs(ref))
                assert np.max(np.abs(quad[i, j] - ref)) < tol


# -------------------------------------------------------------- Fourier blocks


SIGMA_Z = np.diag([1.0, -1.0])
# real coins outside the standard family C(theta); their D comes from the
# band-4 polynomial (the recovered angle is 0.9 for the first, -0.9 for the second)
NONSTANDARD_COINS = {
    "sz_c": SIGMA_Z @ coin_matrix(0.9),
    "c_sz": coin_matrix(0.9) @ SIGMA_Z,
}


def _assert_blocks_match_rectangle_rule(fam):
    """Fourier blocks against a plain rectangle rule in (k1, k2)."""
    z = 0.3
    blocks = fourier_blocks(fam, z, 4, grid_n=256)
    n = 128
    k = 2 * np.pi * np.arange(n) / n
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    a = np.linalg.inv(np.eye(4) - z * momentum_kernel(fam, k1, k2))
    for d1, d2 in [(0, 0), (2, 0), (0, -2), (2, 2), (4, -2), (-6, 0)]:
        phases = np.exp(1j * (k1 * d1 + k2 * d2))
        ref = np.einsum("ab,abij->ij", phases, a) / n**2
        assert np.max(np.abs(ref - blocks[(d1, d2)])) < 1e-12


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_fourier_blocks_vs_uniform_grid_integral(model):
    """Both D sources against a plain rectangle rule in (k1, k2)."""
    _assert_blocks_match_rectangle_rule(kraus_family(WalkParams(0.9, 0.4, model)))


@pytest.mark.parametrize("coin", NONSTANDARD_COINS)
def test_fourier_blocks_nonstandard_balanced_coin(coin):
    """A balanced family on another real coin is integrated as it is, not as C(theta)."""
    fam = balanced_family_from_coin(NONSTANDARD_COINS[coin], 0.4)
    _assert_blocks_match_rectangle_rule(fam)
    k1, k2 = 0.4, 1.3
    a = resolvent_kernel(fam, 0.3, k1, k2)
    m = np.eye(4) - 0.3 * momentum_kernel(fam, k1, k2)
    assert np.max(np.abs(a @ m - np.eye(4))) < 1e-12


@pytest.mark.parametrize(
    "fam",
    [
        kraus_family(WalkParams(0.9, 0.4)),
        kraus_family(WalkParams(0.9, 0.4, Model.CORRELATED)),
        balanced_family_from_coin(NONSTANDARD_COINS["sz_c"], 0.4),
    ],
    ids=["balanced", "correlated", "sz_c"],
)
def test_determinant_field_vs_pointwise_determinant(fam):
    """The closed form and the band-4 polynomial both give det(I - zV) at the nodes."""
    z = 0.999
    x, _ = _subst_grid(16)
    det = _determinant_field(fam, z, x)
    k1 = (x[:, None] + x[None, :]) / 2
    k2 = (x[:, None] - x[None, :]) / 2
    ref = np.linalg.det(np.eye(4) - z * momentum_kernel(fam, k1, k2))
    assert np.max(np.abs(det - ref)) < 1e-13


def test_fourier_blocks_small_z_is_identity():
    fam = kraus_family(WalkParams(0.7, 0.3))
    blocks = fourier_blocks(fam, 1e-8, 2, grid_n=64)
    assert np.max(np.abs(blocks[(0, 0)] - np.eye(4))) < 1e-7
    assert np.max(np.abs(blocks[(2, 0)])) < 1e-7


def test_fourier_blocks_validation():
    fam = kraus_family(WalkParams(0.7, 0.3))
    with pytest.raises(ParameterError):
        fourier_blocks(fam, 0.5, 3)  # odd n_max
    with pytest.raises(ParameterError):
        fourier_blocks(fam, 0.5, 4, grid_n=100 + 2)  # not a multiple of 4
    with pytest.raises(OutOfValidatedRangeError):
        fourier_blocks(fam, (1 + Z_CAP) / 2, 4)
    with pytest.raises(ParameterError):
        fourier_blocks(fam, -0.1, 4)


# ------------------------------------------------------------- Stieltjes matrix


def test_cross_basis_layout():
    points = cross_basis(20)
    assert len(points) == 41  # 21 on the x arm + 20 more on the m arm
    assert all(x % 2 == 0 and m % 2 == 0 for x, m in points)
    assert all(x == 0 or m == 0 for x, m in points)
    assert len(set(points)) == len(points)


def test_stieltjes_dimension_at_default_truncation():
    fam = kraus_family(WalkParams(0.7, 0.3))
    s = stieltjes_matrix(fam, 0.5, 20, grid_n=256)
    assert s.dim == 164
    assert s.basis_index(0, 0, 0) != s.basis_index(3, 0, 0)


def test_stieltjes_matrix_vs_lattice_neumann_series():
    """Entry-wise against sum_t z^t of the iterated map on the lattice.

    z = 0.3 makes the geometric tail beyond 40 steps < 1e-21, so a
    truncated position-space iteration is an exact independent oracle.
    """
    fam = kraus_family(WalkParams(0.9, 0.4))
    z, n_max = 0.3, 2
    s = stieltjes_matrix(fam, z, n_max, grid_n=256)
    half = 25
    p_dim = 2 * half + 1
    brute = np.zeros((s.dim, s.dim), dtype=complex)
    for j, (y, n) in enumerate(s.positions):
        for pair_j in range(4):
            d, d2 = divmod(pair_j, 2)
            cur = np.zeros((2, p_dim, 2, p_dim), dtype=complex)
            cur[d, half + y, d2, half + n] = 1.0
            z_pow = 1.0
            for _ in range(40):
                for i, (x, m) in enumerate(s.positions):
                    for pair_i in range(4):
                        c, c2 = divmod(pair_i, 2)
                        brute[4 * i + pair_i, 4 * j + pair_j] += (
                            z_pow * cur[c, half + x, c2, half + m]
                        )
                cur = _apply_cptp(cur, fam)
                z_pow *= z
    assert np.max(np.abs(brute - s.matrix)) < 1e-12


def test_stieltjes_transpose_symmetry_and_reality():
    fam = kraus_family(WalkParams(1.1, 0.6))
    s = stieltjes_matrix(fam, 0.8, 4, grid_n=256)
    assert np.max(np.abs(s.matrix.imag)) < 1e-12

    def transpose_index(i):
        """Basis index of the transpose partner: (c, c', x, m) -> (c', c, m, x)."""
        pos, pair = divmod(i, 4)
        x, m = s.positions[pos]
        c, cp = divmod(pair, 2)
        return s.basis_index(2 * cp + c, m, x)

    for i in range(s.dim):
        for j in range(s.dim):
            ti, tj = transpose_index(i), transpose_index(j)
            assert abs(s.matrix[i, j] - s.matrix[ti, tj]) < 1e-12


# --------------------------------------------------------- recurrence estimate


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_renewal_consistency_with_direct_simulation(model):
    """genfun and the direct simulation agree on sum_m q_m z^(m-1).

    At z = 0.5 the truncated series from 44 steps is exact to ~1e-13.
    """
    z, t_max = 0.5, 44
    combos = [(math.pi / 4, 0.3), (1.2, 0.7), (0.5, 0.05)]
    if model is Model.CORRELATED:
        combos = combos[:2]
    for theta, p in combos:
        params = WalkParams(theta, p, model)
        est = recurrence_estimate(params, z, n_max=12, grid_n=512)
        series = return_series(params, t_max)
        assert abs(est - weighted_return(series, z)) < 1e-10


@settings(deadline=None, max_examples=10)
@given(
    st.floats(0.0, math.pi / 2),
    st.floats(0.0, 1.0),
    st.sampled_from([Model.BALANCED, Model.CORRELATED]),
)
def test_renewal_matches_direct_simulation_property(theta, p, model):
    params = WalkParams(theta, p, model)
    est = recurrence_estimate(params, 0.5, n_max=12, grid_n=512)
    assert abs(est - weighted_return(return_series(params, 44), 0.5)) < 1e-10


def test_grid_refinement_stability():
    params = WalkParams(math.pi / 4, 0.3)
    coarse = recurrence_estimate(params, 0.9, n_max=8, grid_n=256)
    fine = recurrence_estimate(params, 0.9, n_max=8, grid_n=512)
    assert abs(coarse - fine) < 1e-8


def test_recurrence_estimate_validation():
    params = WalkParams(math.pi / 4, 0.3)
    with pytest.raises(OutOfValidatedRangeError):
        recurrence_estimate(params, 0.999999)
    with pytest.raises(ParameterError):
        recurrence_estimate(params, 0.0)


def test_z_sweep_records_failures_and_continues():
    params = WalkParams(math.pi / 4, 0.3)
    points = z_sweep(params, [0.5, 0.9999999, 0.6], n_max=4, grid_n=64)
    assert len(points) == 3
    assert points[0].error is None and np.isfinite(points[0].value)
    assert points[1].error is not None and math.isnan(points[1].value)
    assert points[2].error is None and np.isfinite(points[2].value)
    assert points[0].z == 0.5 and points[2].z == 0.6


def test_z_sweep_propagates_bugs(monkeypatch):
    """Only DtqswError is a per-point failure; anything else is a bug and escapes."""

    def broken(*_args, **_kwargs):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(genfun, "stieltjes_matrix", broken)
    with pytest.raises(ZeroDivisionError):
        z_sweep(WalkParams(math.pi / 4, 0.3), [0.5], n_max=4, grid_n=64)


def test_linalg_errors_become_typed_errors(monkeypatch):
    """D at the floor is a SingularKernelError from either D source, and so is a
    singular pointwise inverse; a failed solve is a ConditioningError."""

    def singular(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as m:
        m.setattr(genfun, "invert_grid_4x4", singular)
        with pytest.raises(SingularKernelError):
            resolvent_kernel(kraus_family(WalkParams(0.6, 0.3)), 0.5, 0.1, 0.2)

    with monkeypatch.context() as m:
        m.setattr(
            genfun, "determinant_grid", lambda xi, eta, *_: np.zeros((xi.size, eta.size))
        )
        with pytest.raises(SingularKernelError):
            recurrence_estimate(WalkParams(0.6, 0.3), 0.5, 4, 64)
    with monkeypatch.context() as m:
        m.setattr(genfun.np.linalg, "det", lambda mats: np.zeros(mats.shape[:-2]))
        with pytest.raises(SingularKernelError):
            recurrence_estimate(WalkParams(0.6, 0.3, Model.CORRELATED), 0.5, 4, 64)
    monkeypatch.setattr(genfun.np.linalg, "solve", singular)
    with pytest.raises(ConditioningError):
        recurrence_estimate(WalkParams(0.6, 0.3), 0.5, 4, 64)


# ------------------------------------------------ correlated oracles up to Z_CAP


def test_correlated_simple_random_walk_limit_up_to_zcap():
    """p=1, theta=pi/4 is the simple random walk: (1 - sqrt(1 - z^2)) / z."""
    params = WalkParams(math.pi / 4, 1.0, Model.CORRELATED)
    for z in DEFAULT_Z_SAMPLES:
        ref = (1 - math.sqrt(1 - z * z)) / z
        assert abs(recurrence_estimate(params, z) - ref) < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_correlated_pi_half_returns_after_two_steps(p):
    """At theta=pi/2 every path returns at t=2, so R~_z = z."""
    params = WalkParams(math.pi / 2, p, Model.CORRELATED)
    for z in DEFAULT_Z_SAMPLES:
        assert abs(recurrence_estimate(params, z) - z) < 1e-12


@pytest.mark.parametrize("theta", [math.pi / 4, 2 * math.pi / 5])
def test_correlated_unitary_limit_matches_balanced_near_zcap(theta, monkeypatch):
    """At p=0 both models are the unitary walk. The correlated family then has
    the balanced shift blocks and takes the closed-form D; with that shortcut
    off, the band-4 polynomial D still agrees."""
    for z in (0.999, 0.9999, Z_CAP):
        balanced = recurrence_estimate(WalkParams(theta, 0.0), z)
        correlated = recurrence_estimate(WalkParams(theta, 0.0, Model.CORRELATED), z)
        assert correlated == balanced
        with monkeypatch.context() as m:
            m.setattr(genfun, "_balanced_angles", lambda _family: None)
            polynomial = recurrence_estimate(WalkParams(theta, 0.0, Model.CORRELATED), z)
        assert abs(polynomial - balanced) < 1e-6
