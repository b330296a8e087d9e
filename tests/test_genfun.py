import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqsw import (
    Model,
    WalkParams,
    coin_matrix,
    directsim,
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
    ConsistencyError,
    OutOfValidatedRangeError,
    ParameterError,
    ResourceError,
    SingularKernelError,
    UnsupportedFamilyError,
)
from dtqsw._kernels import determinant_grid
from dtqsw.genfun import (
    DEFAULT_Z_SAMPLES,
    Z_CAP,
    Z_MIN,
    StieltjesMatrix,
    _eta_parts,
    _laurent_blocks,
    cross_basis,
)
from dtqsw.model import (
    TranslationKraus,
    TranslationKrausFamily,
    _coined_operator,
    balanced_family_from_coin,
    general_coin,
    kraus_balanced,
    shift_blocks,
)
from dtqsw.oracles import pi_half_weighted_return

RNG = np.random.default_rng(7)
TOL_PI_HALF = 1e-6  # acceptance 06: theta = pi/2 against the closed form


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


def test_eta_coefficients_vs_uniform_eta_fft():
    """The closed-form eta coefficients H_n(xi) = b^(n-1) H_1(xi) (n >= 1)
    against an N-point FFT in eta of resolvent_kernel, for |n| <= 20. The FFT sums the aliases H_{n + jN};
    with H_n = G^n H_0 (G = H_1 H_0^-1) and H_-n = P H_n P they sum to
    S(n) = (I - G^N)^-1 G^n H_0 over j >= 0 and T(n) = (I - G^N)^-1 G^(N-n) H_0
    over j >= 1, so the FFT is S(n) + P T(n) P at n >= 0 and T(m) + P S(m) P
    at n = -m. To 1e-10 absolute for z <= 0.99; above, |A| reaches ~1e4 and
    the bound is 1e-8 of |A|. _eta_parts returns H0 and H1 node-last, (16, n)."""
    n_fft, n_max = 256, 20
    eta = 2 * np.pi * np.arange(n_fft) / n_fft
    swap = [0, 2, 1, 3]
    near_cap = 1 - 10 ** RNG.uniform(np.log10(1 - Z_CAP), -2, 100)
    for model in [Model.BALANCED, Model.CORRELATED]:
        for z in np.concatenate([RNG.uniform(0.05, 0.99, 100), near_cap]):
            theta = RNG.uniform(0, math.pi / 2)
            p = RNG.uniform(0, 1)
            xi = RNG.uniform(0, 2 * np.pi, 2)
            fam = kraus_family(WalkParams(theta, p, model))
            h0, h1, b = _eta_parts(_laurent_blocks(fam), z, np.exp(-1j * xi))
            h0, h1 = (part.T.reshape(-1, 4, 4) for part in (h0, h1))
            powers = b[None, :, None, None] ** np.arange(n_max)[:, None, None, None]
            h = np.concatenate([h0[None], powers * h1])
            for i, x in enumerate(xi):
                a = resolvent_kernel(fam, z, (x + eta) / 2, (x - eta) / 2)
                fft = np.fft.fft(a, axis=0) / n_fft
                h0, h1 = h[0, i], h[1, i]
                g = h1 @ np.linalg.inv(h0)
                tail = np.linalg.inv(np.eye(4) - np.linalg.matrix_power(g, n_fft))
                tol = 1e-10 if z <= 0.99 else 1e-8 * np.max(np.abs(a))
                for m in range(n_max + 1):
                    s_m = tail @ h[m, i]
                    t_m = tail @ np.linalg.matrix_power(g, n_fft - m) @ h0
                    pos = s_m + t_m[swap][:, swap]
                    neg = t_m + s_m[swap][:, swap]
                    assert np.max(np.abs(fft[m] - pos)) < tol
                    assert np.max(np.abs(fft[-m] - neg)) < tol


def _eta_parts_extended(fam, z, phase):
    """(H0, H1, b) in np.clongdouble from the full 4 x 4 A0 of model.shift_blocks,
    inverted by Gauss-Jordan with partial pivoting, and the Woodbury form with
    delta^2 - 4 w11 w22 and c = 1 / (kappa (1 - ab)), as (n, 4, 4) stacks."""
    blocks = {key: m.astype(np.longdouble) for key, m in shift_blocks(fam).items()}
    zero, z, phase = np.zeros((4, 4), dtype=np.longdouble), np.longdouble(z), phase.astype(np.clongdouble)
    m_pp, m_mm, m_pm, m_mp = (blocks.get(key, zero) for key in ((1, 1), (-1, -1), (1, -1), (-1, 1)))
    n = len(phase)
    aug = np.zeros((n, 4, 8), dtype=np.clongdouble)
    aug[:, :, :4] = np.eye(4) - z * (m_pp * phase[:, None, None] + m_mm * phase.conj()[:, None, None])
    aug[:, :, 4:] = np.eye(4)
    for col in range(4):
        pivot = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
        row = aug[np.arange(n), pivot].copy()
        aug[np.arange(n), pivot] = aug[:, col]
        aug[:, col] = row / row[:, col, None]
        aug -= np.where(np.arange(4)[:, None] == col, 0, aug[:, :, col, None]) * aug[:, col, None]
    a0_inv, u, v = aug[:, :, 4:], -z * np.eye(4)[:, 1:3], np.stack([m_pm[1], m_mp[2]], axis=1)
    left, right = a0_inv @ u, v.T @ a0_inv
    w = right @ u
    w11, w12, w21, w22 = w[:, 0, 0], w[:, 0, 1], w[:, 1, 0], w[:, 1, 1]
    delta = 1 + w11 * w22 - w12 * w21
    root = np.sqrt(delta * delta - 4 * w11 * w22)
    kappa = (delta + np.where((delta.conj() * root).real < 0, -root, root)) / 2
    a, b = -w11 / kappa, -w22 / kappa
    c = (1 / (kappa * (1 - a * b)))[:, None, None]
    k0 = c * np.stack([np.stack([w22 + b, -w12], -1), np.stack([-w21, w11 + a], -1)], -2)
    k1 = c * np.stack([np.stack([b * (w22 + b), -b * w12], -1), np.stack([-b * w21, b * w11 + 1], -1)], -2)
    return a0_inv - left @ k0 @ right, -left @ k1 @ right, b


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended long double")
@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_eta_parts_near_crest_lines_vs_extended_precision(model):
    """At p = 0 and Z_CAP the default nodes next to the crest lines xi in pi Z are
    where the eta stage loses most. Against an np.clongdouble evaluation, H0, H1
    and b are within 2e-9 of their largest entry per node (4.5e-11 at theta =
    1.2, 3.0e-10 at 0.05): T^-1 Q is back-substituted through its pivot and the
    discriminant of kappa read as (1 - A - B)^2 - 4 A B. The adjugate T^-1 Q
    lost 2.2e-6 in b, and delta^2 - 4 w11 w22 1.1e-6 in H0 and H1."""
    phase = genfun._tables(20, genfun.DEFAULT_GRID).phase
    for theta in (0.05, 0.3, 1.2):
        fam = kraus_family(WalkParams(theta, 0.0, model))
        ref = _eta_parts_extended(fam, Z_CAP, phase)
        h0, h1, b = _eta_parts(_laurent_blocks(fam), Z_CAP, phase)
        for x, r in zip((h0.T.reshape(-1, 4, 4), h1.T.reshape(-1, 4, 4), b), ref):
            err = np.abs(x - r.astype(complex)).reshape(len(phase), -1).max(axis=1)
            assert np.all(err <= 2e-9 * np.abs(r).astype(float).reshape(len(phase), -1).max(axis=1))


# -------------------------------------------------------------- Fourier blocks


SIGMA_Z = np.diag([1.0, -1.0])
# real coins outside the standard family C(theta)
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
    """Both models against a plain rectangle rule in (k1, k2)."""
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


def test_fourier_blocks_key_set_and_reality():
    """Keys are the offsets (x - y, m - n) between two cross points (61 at
    n_max = 6); blocks are real 4 x 4 arrays."""
    n_max = 6
    blocks = fourier_blocks(kraus_family(WalkParams(0.9, 0.4)), 0.9, n_max, grid_n=64)
    points = cross_basis(n_max)
    keys = {(x - y, m - n) for x, m in points for y, n in points}
    assert set(blocks) == keys and len(keys) == 61
    assert all(np.isrealobj(b) and b.shape == (4, 4) for b in blocks.values())


def test_complex_coin_family_is_unsupported(monkeypatch):
    """The conjugate-node fold and the coin-pair swap hold only for real coin
    blocks, so a complex family is refused before any work, on every call,
    and leaves nothing in the Laurent block cache."""

    def no_work(*_args, **_kwargs):
        raise AssertionError("xi tables or eta coefficients computed for a complex family")

    for stage in ("_tables", "_eta_parts"):
        monkeypatch.setattr(genfun, stage, no_work)
    _laurent_blocks.cache_clear()
    fam = balanced_family_from_coin(general_coin(math.pi / 3, 0.7, 1.1, 0.0), 0.3)
    for route in (fourier_blocks, stieltjes_matrix, stieltjes_matrix):
        with pytest.raises(UnsupportedFamilyError, match="complex coin blocks") as info:
            route(fam, 0.5, 4, grid_n=64)
        assert "fourier_blocks" not in str(info.value)
    info = _laurent_blocks.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 3


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


# the coin-pair swap P and the reflection K = G x G on a coin pair, G = [[0, 1], [-1, 0]]
COIN_PAIR_SWAP = np.eye(4)[[0, 2, 1, 3]]
COIN_PAIR_REFLECT = np.kron([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])


def _assembled_stieltjes(fam, z, n_max, grid_n):
    """s(z) block by block from the eta coefficients on the xi nodes: F(a, n) =
    Re sum_xi 2 w exp(i a xi) (H0 - I, or b^(n-1) H1) by a direct sum, plus I at
    (0, 0), the a = 0 blocks averaged with their reflection images; block
    (d1, d2) is F(a, |b|), a = (d1 + d2)/2 and b = (d1 - d2)/2, with P F P for
    b > 0, and K (block (-d1, -d2)) K^T for a < 0."""
    tables = genfun._tables(n_max, grid_n)
    h0, h1, b = _eta_parts(_laurent_blocks(fam), z, tables.phase)
    h0, h1 = (part.T.reshape(-1, 4, 4) for part in (h0, h1))  # node-last (16, n) to (n, 4, 4)
    k, kp = COIN_PAIR_REFLECT, COIN_PAIR_REFLECT @ COIN_PAIR_SWAP

    def harmonic(a, n):
        h = h0 - np.eye(4) if n == 0 else b[:, None, None] ** (n - 1) * h1
        f = np.einsum("j,jkl->kl", tables.phases[a], h).real + (a == n == 0) * np.eye(4)
        image = k if n == 0 else kp
        return (f + image @ f @ image.T) / 2 if a == 0 else f

    def block(d1, d2):
        a, n = (d1 + d2) // 2, (d1 - d2) // 2
        if a < 0:
            return k @ block(-d1, -d2) @ k.T
        f = harmonic(a, abs(n))
        return COIN_PAIR_SWAP @ f @ COIN_PAIR_SWAP if n > 0 else f

    positions = cross_basis(n_max)
    return np.block([[block(x - y, m - n) for y, n in positions] for x, m in positions])


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
@pytest.mark.parametrize("n_max", [4, 20])
def test_stieltjes_gather_matches_block_assembly(model, n_max):
    """The one-index gather of s(z) against s(z) assembled block by block from
    the eta coefficients, (x, m), (y, n) -> block (x - y, m - n): both parities
    of the fold, the averaged a = 0 blocks, the coin-pair swap of the b > 0
    blocks and the reflection of the a < 0 blocks, as explicit 4 x 4 matrices."""
    fam = kraus_family(WalkParams(0.9, 0.35, model))
    for z in (0.5, 0.999, Z_CAP):
        ref = _assembled_stieltjes(fam, z, n_max, 256)
        s = stieltjes_matrix(fam, z, n_max, grid_n=256).matrix
        assert s.shape == ref.shape
        assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_xi_tables_cache_keeps_values():
    """A point is the same bit for bit after the tables of another truncation
    are built in between, and a refused grid is refused again."""
    params = WalkParams(math.pi / 4, 0.35)
    first = recurrence_estimate(params, 0.999, 20, 1024)
    recurrence_estimate(params, 0.999, 4, 64)
    assert recurrence_estimate(params, 0.999, 20, 1024) == first
    for _ in range(2):
        with pytest.raises(ParameterError):
            recurrence_estimate(params, 0.999, 4, 66)


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
    with pytest.raises(OutOfValidatedRangeError):
        recurrence_estimate(params, 1e-3)  # below Z_MIN
    with pytest.raises(ParameterError):
        recurrence_estimate(params, 0.0)


@pytest.mark.parametrize(
    "theta, p, model",
    [
        (math.pi / 4, 0.0, Model.BALANCED),
        (math.pi / 4, 0.35, Model.BALANCED),
        (math.pi / 2, 0.5, Model.BALANCED),
        (0.3, 1.0, Model.CORRELATED),
        (2 * math.pi / 5, 0.5, Model.CORRELATED),
    ],
)
def test_recurrence_estimate_at_z_min_matches_direct_simulation(theta, p, model):
    """At Z_MIN the renewal's (1 - w) / z still keeps 1e-10 relative accuracy
    (40 steps leave a tail below 1e-80); below it the cancellation grows to
    1.7e-7 at z = 1e-4 and an O(1) error at 1e-8, so those z are refused."""
    params = WalkParams(theta, p, model)
    ref = weighted_return(return_series(params, 40), Z_MIN)
    assert abs(recurrence_estimate(params, Z_MIN) - ref) <= 1e-10 * abs(ref)


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
    """A singular pointwise inverse, a det T or g of A0 = [[T, Q], [0, g I]] that is
    0 or not finite at a xi node, and an eta root moved across the unit circle are
    each a SingularKernelError; a failed renewal inverse is a ConditioningError."""
    laurent_blocks = genfun._laurent_blocks

    def singular(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    def one_sided(family):
        """A_-1 scaled by 100 and A_1 not: det(I - zV) is no longer even in eta,
        so both of its eta roots sit on one side of the unit circle."""
        outer, inner, alpha, v = laurent_blocks(family)
        return outer, inner, alpha, v * [[100.0], [1.0]]

    with monkeypatch.context() as m:
        m.setattr(genfun, "invert_grid_4x4", singular)
        with pytest.raises(SingularKernelError):
            resolvent_kernel(kraus_family(WalkParams(0.6, 0.3)), 0.5, 0.1, 0.2)
    for model in (Model.BALANCED, Model.CORRELATED):
        params = WalkParams(0.6, 0.3, model)
        outer, inner, alpha, v = laurent_blocks(kraus_family(params))
        # det T, then g, not finite at every node
        for blocks in ((np.nan * outer, inner, alpha, v), (outer, inner, np.nan, v)):
            with monkeypatch.context() as m:
                m.setattr(genfun, "_laurent_blocks", lambda _family, blocks=blocks: blocks)
                with pytest.raises(SingularKernelError, match="A0 is singular"):
                    recurrence_estimate(params, 0.5, 4, 64)
        # at xi = 0 and z = 0.5, T = 0 when M++ and M-- hold I on rows (R,R) and (L,L),
        # and g = 1 - 2 z alpha = 0 at alpha = 1
        unit = np.eye(4)[::3, :, None]
        for blocks in ((unit, unit, alpha, v), (outer, inner, 1.0, v)):
            with pytest.raises(SingularKernelError, match="A0 is singular"):
                _eta_parts(blocks, 0.5, np.array([1.0 + 0j]))
    with monkeypatch.context() as m:
        m.setattr(genfun, "_laurent_blocks", one_sided)
        for model in (Model.BALANCED, Model.CORRELATED):
            with pytest.raises(SingularKernelError, match="unit circle"):
                recurrence_estimate(WalkParams(0.6, 0.3, model), 0.5, 4, 64)
    # the renewal's stack of four blocks is the one np.linalg.inv of a point
    monkeypatch.setattr(genfun.np.linalg, "inv", singular)
    with pytest.raises(ConditioningError):
        recurrence_estimate(WalkParams(0.6, 0.3), 0.5, 4, 64)


def _ket_bra_swap(n_max):
    """J as a permutation of the cross basis, (x, m, c, c') -> (m, x, c', c), and
    its orbits: the fixed basis indices and one (i, J i) per swapped pair."""
    positions = cross_basis(n_max)
    j = np.array([
        4 * positions.index((m, x)) + 2 * (pair % 2) + pair // 2
        for x, m in positions for pair in range(4)
    ])
    basis = np.arange(len(j))
    fixed = basis[j == basis]
    pairs = [(i, j[i]) for i in basis if i < j[i]]
    return j, fixed, pairs


def _reflection(n_max):
    """Pi as a signed permutation of the cross basis, (x, m, c) -> (-x, -m, G c)
    with G = [[0, 1], [-1, 0]] in (R, L) on each coin: Pi e_i = sign[i] e_perm[i]."""
    positions = cross_basis(n_max)
    perm = np.array([
        4 * positions.index((-x, -m)) + 3 - pair for x, m in positions for pair in range(4)
    ])
    sign = np.tile([1.0, -1.0, -1.0, 1.0], len(positions))
    return perm, sign


def _reflected(mat, n_max):
    """Pi mat Pi^T."""
    perm, sign = _reflection(n_max)
    return sign[:, None] * sign * mat[np.ix_(perm, perm)]


def _joint_eigenbasis(n_max):
    """Orthogonal Q whose columns span the (J+, Pi+), (J+, Pi-), (J-, Pi+) and
    (J-, Pi-) eigenspaces in turn, their sizes, and the orbits of {1, Pi, J, J Pi}
    on the basis indices."""
    j = _ket_bra_swap(n_max)[0]
    perm, sign = _reflection(n_max)
    dim = len(j)
    swap, reflect = np.eye(dim)[:, j], np.zeros((dim, dim))
    reflect[perm, np.arange(dim)] = sign
    columns, sizes = [], []
    for c_j in (1, -1):
        for c_pi in (1, -1):
            projector = (np.eye(dim) + c_j * swap) @ (np.eye(dim) + c_pi * reflect) / 4
            values, vectors = np.linalg.eigh(projector)
            columns.append(vectors[:, values > 0.5])
            sizes.append(int(np.sum(values > 0.5)))
    orbits = {frozenset((i, j[i], perm[i], j[perm[i]])) for i in range(dim)}
    return np.hstack(columns), sizes, [sorted(orbit) for orbit in orbits]


def _dense_stieltjes(z, n_max, mat):
    """A dense s(z) as a StieltjesMatrix: values [s, -s], the identity index and
    the renewal's tables for it."""
    values, index = np.concatenate([mat.ravel(), -mat.ravel()]), np.arange(mat.size)
    index = index.reshape(mat.shape)
    renewal = genfun._renewal_tables(index, mat.size)
    return StieltjesMatrix(z, n_max, cross_basis(n_max), values, index, renewal)


def _inject_stieltjes(monkeypatch, z, n_max, mat):
    monkeypatch.setattr(genfun, "stieltjes_matrix", lambda *_args: _dense_stieltjes(z, n_max, mat))
    return _dense_stieltjes(z, n_max, mat)


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_stieltjes_commutes_with_ket_bra_swap(model):
    """s(z) = J s(z) J bit for bit, J the ket-bra swap (the Hermiticity of rho;
    the fold averages the n = 0 entry pairs J moves after it checks them), and
    s(z) = Pi s(z) Pi^T bit for bit, Pi the reflection (a < 0 blocks are
    gathered from their images, a = 0 blocks averaged with theirs), over the
    edges of the validated domain."""
    j, fixed, pairs = _ket_bra_swap(20)
    assert list(fixed) == [4 * cross_basis(20).index((0, 0)) + pair for pair in (0, 3)]
    assert len(pairs) == 81
    for theta in (0.0, math.pi / 4, math.pi / 2):
        for p in (0.0, 0.35, 1.0):
            for z in (0.5, Z_CAP):
                mat = stieltjes_matrix(kraus_family(WalkParams(theta, p, model)), z, 20).matrix
                assert np.array_equal(mat, mat[np.ix_(j, j)])
                assert np.array_equal(mat, _reflected(mat, 20))


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_split_renewal_matches_full_inverse(model):
    """R~ from the four (J, Pi) blocks is within 1e-12 of R~ read from a plain
    164 x 164 inverse, and |s|_1 |s^-1|_1 from the blocks within 1e-9 of the
    plain kappa_1. theta = 1.1, p = 0, z = Z_CAP is where the fold's s(z) is
    least J-symmetric before the fold averages the J pairs."""
    for theta in (0.0, math.pi / 4, 1.1, math.pi / 2):
        for p in (0.0, 0.35, 1.0):
            for z in (0.5, Z_CAP):
                params = WalkParams(theta, p, model)
                s = stieltjes_matrix(kraus_family(params), z, 20)
                inv = np.linalg.inv(s.matrix)
                i_rr, i_ll = s.basis_index(0, 0, 0), s.basis_index(3, 0, 0)
                plain = (1.0 - inv[i_rr, i_rr] - inv[i_ll, i_rr]) / z
                assert abs(recurrence_estimate(params, z) - plain) <= 1e-12
                _, kappa_1 = genfun._split_renewal(s.values, s.renewal)
                plain = np.linalg.norm(s.matrix, 1) * np.linalg.norm(inv, 1)
                assert kappa_1 == pytest.approx(plain, rel=1e-9)


@pytest.mark.parametrize("rotated", [False, True])
def test_condition_guard_is_never_looser_than_kappa_2(monkeypatch, rotated):
    """The guard reads dim * kappa_1 >= kappa_2, so an s(z) with kappa_2 = 2e14 is
    refused; at kappa_2 = 1e3 the blocks give the value of a plain solve, within
    1e-15 for diagonal s(z), equal on each orbit of {1, Pi, J, J Pi}, and
    kappa_2 eps |R~| for Q U diag(sigma) V^T Q^T with random orthogonal U and V,
    block diagonal in the joint (J, Pi) eigenbasis Q. Both commute with the
    ket-bra swap J and the reflection Pi, as every s(z) does."""
    n_max, z = 4, 0.5
    j = _ket_bra_swap(n_max)[0]
    q, sizes, orbits = _joint_eigenbasis(n_max)
    dim = len(j)
    rng = np.random.default_rng(11)

    def block_orthogonal():
        m = np.zeros((dim, dim))
        for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
            m[lo:hi, lo:hi] = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))[0]
        return m

    u, v = block_orthogonal(), block_orthogonal()

    def with_kappa(kappa):
        if rotated:
            sigma = np.diag(np.geomspace(1.0, 1.0 / kappa, dim))
            mat = q @ u @ sigma @ v.T @ q.T
        else:
            diag = np.empty(dim)
            for value, orbit in zip(np.geomspace(1.0, 1.0 / kappa, len(orbits)), orbits):
                diag[orbit] = value
            mat = np.diag(diag)
        assert np.max(np.abs(mat - mat[np.ix_(j, j)])) <= 1e-15
        assert np.max(np.abs(mat - _reflected(mat, n_max))) <= 1e-15
        assert np.linalg.cond(mat) == pytest.approx(kappa, rel=1e-2)
        return _inject_stieltjes(monkeypatch, z, n_max, mat)

    with_kappa(2e14)
    with pytest.raises(ConditioningError, match="condition estimate"):
        recurrence_estimate(WalkParams(0.6, 0.3), z, n_max, 64)
    s = with_kappa(1e3)
    i_rr, i_ll = s.basis_index(0, 0, 0), s.basis_index(3, 0, 0)
    w = np.linalg.solve(s.matrix, np.eye(dim)[i_rr])
    expected = (1.0 - w[i_rr] - w[i_ll]) / z
    tol = 1e3 * np.finfo(float).eps * abs(expected) if rotated else 1e-15
    assert abs(recurrence_estimate(WalkParams(0.6, 0.3), z, n_max, 64) - expected) <= tol


def test_non_swap_symmetric_stieltjes_is_refused(monkeypatch):
    """An s(z) that does not commute with the ket-bra swap is a ConsistencyError
    (a DtqswError, so a sweep records it) rather than a silently wrong split:
    H0's (RL, RR) entry moved by 1e-6 at every xi node moves F(0, 0)'s by
    5e-7 after the reflection average, and not its J image (LR, RR); the fold
    refuses it for stieltjes_matrix and recurrence_estimate alike. Moved by
    1e-13 the point is solved, within 1e-12 of the unmoved value."""
    n_max, z = 4, 0.5
    eta_parts = genfun._eta_parts

    def moved(shift):
        def parts(*args):
            h0, h1, b = eta_parts(*args)
            h0[4] += shift  # entry (1, 0), node-last
            return h0, h1, b
        return parts

    for model in (Model.BALANCED, Model.CORRELATED):
        params = WalkParams(0.6, 0.3, model)
        unmoved = recurrence_estimate(params, z, n_max, 64)
        with monkeypatch.context() as m:
            m.setattr(genfun, "_eta_parts", moved(1e-13))
            assert recurrence_estimate(params, z, n_max, 64) == pytest.approx(unmoved, abs=1e-12)
            m.setattr(genfun, "_eta_parts", moved(1e-6))
            message = r"ket-bra swap: \|s - JsJ\| = 5\.000e-07"
            with pytest.raises(ConsistencyError, match=message):
                recurrence_estimate(params, z, n_max, 64)
            with pytest.raises(ConsistencyError, match=message):
                stieltjes_matrix(kraus_family(params), z, n_max, 64)
            point = z_sweep(params, [z], n_max, 64)[0]
            assert math.isnan(point.value) and point.error.startswith("ConsistencyError")


def test_default_tables_fold_131_blocks_and_split_four_ways():
    """At n_max = 20 s(z) reads 251 blocks (a, n) of the 462 with |a|, n <= 20,
    a = n (mod 2); the 131 with a >= 0 are folded, the rest are gathered from
    their reflection images. The renewal's four (J, Pi) blocks have 41, 42, 41
    and 40 rows (164 in all), one per orbit representative they hold."""
    tables = genfun._tables(20, genfun.DEFAULT_GRID)
    n_zero = 11  # a = 0, 2, .., 20 against H0
    assert tables.fold.count == 131
    runs = tables.fold.groups
    assert sum((stop - start + 1) // 2 for _, start, stop, _ in runs) == 131 - n_zero
    assert list(tables.renewal.scale.shape) == [4, 42, 42]
    held = [42 - int(np.trace(pad)) for pad in tables.renewal.pad]
    assert held == [41, 42, 41, 40]
    _, sizes, orbits = _joint_eigenbasis(20)
    assert sizes == held and len(orbits) == 42


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_fold_pair_checks_equal_the_dense_checks(model):
    """The fold checks J on the pairs of n = 0 fold entries that s - J s J
    compares (132 at n_max = 20), then averages them: the dense s(z) is
    J-symmetric bit for bit at n_max = 2, 4 and 20, the check's peak max |F|
    equals max |s(z)|, and the renewal of the fold equals, bit for bit, the
    renewal of the dense s(z) (values [s, -s], identity index). The check's
    value before the average is pinned by
    test_non_swap_symmetric_stieltjes_is_refused."""
    assert genfun._tables(20, genfun.DEFAULT_GRID).fold.swap.shape == (2, 132)
    for n_max in (2, 4, 20):
        j = _ket_bra_swap(n_max)[0]
        for theta in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2):
            for p in (0.0, 0.35, 1.0):
                for z in (0.05, 0.5, 0.999, Z_CAP):
                    s = stieltjes_matrix(kraus_family(WalkParams(theta, p, model)), z, n_max)
                    mat = s.matrix
                    assert np.array_equal(mat, mat[np.ix_(j, j)])
                    assert np.max(np.abs(s.values)) == np.max(np.abs(mat))
                    dense = _dense_stieltjes(z, n_max, mat)
                    assert genfun._split_renewal(s.values, s.renewal) == genfun._split_renewal(
                        dense.values, dense.renewal)


@settings(deadline=None, max_examples=10)
@given(
    st.floats(0.0, math.pi / 2),
    st.floats(0.0, 1.0),
    st.floats(Z_MIN, Z_CAP),
    st.sampled_from([Model.BALANCED, Model.CORRELATED]),
    st.sampled_from([2, 4, 20]),
)
def test_stieltjes_commutes_with_reflection_property(theta, p, z, model, n_max):
    """s(z) = Pi s(z) Pi^T and s(z) = J s(z) J bit for bit, which the fold holds
    by construction: the a < 0 blocks are signed gathers of their images, the
    a = 0 blocks are averaged with theirs, and the n = 0 entry pairs that J
    moves are averaged after the fold checks them."""
    mat = stieltjes_matrix(kraus_family(WalkParams(theta, p, model)), z, n_max).matrix
    assert np.array_equal(mat, _reflected(mat, n_max))
    j = _ket_bra_swap(n_max)[0]
    assert np.array_equal(mat, mat[np.ix_(j, j)])


def test_warm_default_point_heap_stays_small():
    """A warm default point's traced peak stays under 600 KiB (550 KiB when it was
    set; 710 KiB with the dense s(z) and its orbit gather). glibc returns the top
    of the heap to the system when its free space passes twice the largest freed
    mmap chunk (the fold's 368 KB row block), and a point whose transient heap
    crossed that faulted its pages back in on every call: about 10% of wall time."""
    params = WalkParams(math.pi / 4, 0.35)
    recurrence_estimate(params, 0.999)
    tracemalloc.start()
    try:
        recurrence_estimate(params, 0.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600 * 1024


@pytest.mark.parametrize("p", [0.0, 0.35])
def test_pi_half_stieltjes_has_no_subnormal_entries(p):
    """cos(pi/2) is exactly 0 in the coin, so the eta root b is 0 rather than about
    1e-30 and none of its powers underflow: no nonzero entry of s(z) is subnormal."""
    mat = stieltjes_matrix(kraus_family(WalkParams(math.pi / 2, p)), 0.999, 20).matrix
    assert np.abs(mat[mat != 0]).min() >= np.finfo(float).tiny


def test_flushed_powers_keep_r_tilde_near_pi_half(monkeypatch):
    """At theta = pi/2 - 1e-9 the eta root |b| is 1e-19 to 1e-16, so high powers
    of b and their products with H1 would be subnormal; the fold flushes them
    to 0. R~ is within 1e-15 of the unflushed fold's value, and within the
    acceptance tolerance of the pi/2 closed form."""
    params, z = WalkParams(math.pi / 2 - 1e-9, 0.35), 0.999
    flushed = recurrence_estimate(params, z)
    mat = stieltjes_matrix(kraus_family(params), z, 20).matrix
    assert np.abs(mat[mat != 0]).min() >= np.finfo(float).tiny
    monkeypatch.setattr(genfun, "_FLUSH", 0.0)
    assert abs(flushed - recurrence_estimate(params, z)) <= 1e-15
    assert abs(flushed - pi_half_weighted_return(z, 0.35)) < TOL_PI_HALF


def test_rank_two_cross_blocks_are_unsupported(monkeypatch):
    """A real family whose cross shift blocks have rank 2 has no closed-form eta
    coefficients, so it is refused before any work. Two unitaries mixed half
    and half: S(C(0.4) x I), the coin then the shift, and (C(1.1) x I) S, the
    shift then the coin (no library constructor mixes the two orders). It is
    refused on every call and leaves nothing in the Laurent block cache."""

    def no_work(*_args, **_kwargs):
        raise AssertionError("xi tables or eta coefficients computed for a rank-2 family")

    for stage in ("_tables", "_eta_parts"):
        monkeypatch.setattr(genfun, stage, no_work)
    _laurent_blocks.cache_clear()
    amp, coin = math.sqrt(0.5), coin_matrix(1.1)
    shift_then_coin = TranslationKraus(
        ((amp * coin @ np.diag([1.0, 0.0]), 1), (amp * coin @ np.diag([0.0, 1.0]), -1))
    )
    fam = TranslationKrausFamily((_coined_operator(coin_matrix(0.4), 0.5), shift_then_coin))
    assert fam.is_real and fam.completeness_defect(np.linspace(0, 2 * np.pi, 9)) < 1e-12
    for key in ((1, -1), (-1, 1)):
        assert np.linalg.matrix_rank(shift_blocks(fam)[key]) == 2
    for route in (fourier_blocks, stieltjes_matrix, stieltjes_matrix):
        with pytest.raises(UnsupportedFamilyError, match="rank"):
            route(fam, 0.5, 4, grid_n=64)
    info = _laurent_blocks.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 3


def test_family_without_reflection_symmetry_is_unsupported(monkeypatch):
    """The a >= 0 fold and the four-block renewal need the reflection Pi. A real,
    trace-preserving family with biased classical weights, 0.35 right and 0.15
    left beside S(C(0.9) x I) at weight 0.5 (no library constructor builds it),
    misses it, so every genfun route refuses it before any work and keeps
    nothing in the Laurent block cache; the direct simulation still runs it."""

    def no_work(*_args, **_kwargs):
        raise AssertionError("xi tables or eta coefficients computed for a biased family")

    for stage in ("_tables", "_eta_parts"):
        monkeypatch.setattr(genfun, stage, no_work)
    _laurent_blocks.cache_clear()
    right = TranslationKraus(((math.sqrt(0.35) * np.eye(2), 1),))
    left = TranslationKraus(((math.sqrt(0.15) * np.eye(2), -1),))
    fam = TranslationKrausFamily((_coined_operator(coin_matrix(0.9), 0.5), right, left))
    assert fam.is_real and fam.completeness_defect(np.linspace(0, 2 * np.pi, 9)) < 1e-12
    monkeypatch.setattr(genfun, "kraus_family", lambda _params: fam)
    for route in (fourier_blocks, stieltjes_matrix):
        with pytest.raises(UnsupportedFamilyError, match="reflection"):
            route(fam, 0.5, 4, grid_n=64)
    with pytest.raises(UnsupportedFamilyError, match="reflection"):
        recurrence_estimate(WalkParams(0.9, 0.5), 0.5, 4, 64)
    assert _laurent_blocks.cache_info().currsize == 0
    monkeypatch.setattr(directsim, "kraus_family", lambda _params: fam)
    series = return_series(WalkParams(0.9, 0.5), 30)
    assert np.all(np.diff(series.survival) <= 1e-14) and series.survival[-1] < 1.0


def test_family_without_coin_pair_rows_is_unsupported(monkeypatch):
    """The closed-form A0 inverse needs rows (R,L) and (L,R) of M++ and M-- to be
    alpha e_RL and alpha e_LR. A real, trace-preserving, reflection-symmetric
    family whose classical +1/-1 coin block flips the coin, sqrt(p/2) sigma_x
    in place of sqrt(p/2) I beside S(C(0.9) x I) at weight 1 - p (no library
    constructor builds it), has e_LR on row (R,L) of M++, so every genfun route
    refuses it before any work and keeps nothing in the Laurent block cache;
    the direct simulation still runs it."""

    def no_work(*_args, **_kwargs):
        raise AssertionError("xi tables or eta coefficients computed for a coin-flip family")

    for stage in ("_tables", "_eta_parts"):
        monkeypatch.setattr(genfun, stage, no_work)
    _laurent_blocks.cache_clear()
    p, flip = 0.5, np.array([[0.0, 1.0], [1.0, 0.0]])
    classical = [TranslationKraus(((math.sqrt(p / 2) * flip, shift),)) for shift in (1, -1)]
    fam = TranslationKrausFamily((_coined_operator(coin_matrix(0.9), p), *classical))
    assert fam.is_real and fam.completeness_defect(np.linspace(0, 2 * np.pi, 9)) < 1e-12
    m_pp, m_mm = shift_blocks(fam)[1, 1], shift_blocks(fam)[-1, -1]
    assert np.array_equal(m_mm, COIN_PAIR_REFLECT @ m_pp @ COIN_PAIR_REFLECT.T)  # the reflection
    monkeypatch.setattr(genfun, "kraus_family", lambda _params: fam)
    for route in (fourier_blocks, stieltjes_matrix):
        with pytest.raises(UnsupportedFamilyError, match="coin-pair rows"):
            route(fam, 0.5, 4, grid_n=64)
    with pytest.raises(UnsupportedFamilyError, match="coin-pair rows"):
        recurrence_estimate(WalkParams(0.9, p), 0.5, 4, 64)
    assert _laurent_blocks.cache_info().currsize == 0
    monkeypatch.setattr(directsim, "kraus_family", lambda _params: fam)
    series = return_series(WalkParams(0.9, p), 30)
    assert np.all(np.diff(series.survival) <= 1e-14) and series.survival[-1] < 1.0


def test_tables_over_the_memory_cap_are_refused(monkeypatch):
    """_table_bytes bounds the traced peak of building the tables, and a
    truncation whose tables would pass directsim.DEFAULT_MEMORY_CAP is a
    ResourceError before they are built; n_max = 30 at grid 4096, the
    truncation of the benchmark's references, fits under the real cap."""
    genfun._tables.cache_clear()
    genfun._signed_index.cache_clear()
    for n_max in (20, 50):
        tracemalloc.start()
        try:
            genfun._tables(n_max, genfun.DEFAULT_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= genfun._table_bytes(n_max, genfun.DEFAULT_GRID)
    assert genfun._table_bytes(30, 4096) <= directsim.DEFAULT_MEMORY_CAP
    genfun._tables(30, 4096)
    genfun._tables.cache_clear()
    genfun._signed_index.cache_clear()
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", genfun._table_bytes(50, 384) - 1)
    genfun._tables(48, 384)
    for _ in range(2):
        with pytest.raises(ResourceError, match="n_max=50"):
            recurrence_estimate(WalkParams(math.pi / 4, 0.35), 0.5, 50)


@pytest.mark.parametrize("grid_n", [128, genfun.DEFAULT_GRID, 2048, 4096])
def test_sin8_substitution_nodes_and_weights(grid_n):
    """Sidi's sin^8 rule: the weights sum to 1 and are the Jacobian of the map
    (exp(i k xi) integrates to 0 for k = 1..8; from 96 nodes on), the rule is
    odd about s = pi (the conjugate-node fold pairs xi with 2pi - xi), and no
    node lies on a crest line xi in pi*Z: each node xi = k pi + delta has a
    nonzero offset delta on the side of k pi its s lies on, and the nodes are
    strictly increasing in (k, delta). At grid 384 the first offset is 6.7e-20,
    which the sine series xi(s) put at -1.0e-18."""
    k, delta, w = genfun._subst_grid(grid_n)
    assert abs(w.sum() - 1.0) < 1e-14
    harmonics = [w * (-1.0) ** (j * k) * np.exp(1j * j * delta) for j in range(1, 9)]
    assert max(abs(np.sum(h)) for h in harmonics) < 1e-14
    assert np.all(w > 0)
    assert np.all(k[::-1] == 2 - k) and np.all(delta[::-1] == -delta) and np.all(w[::-1] == w)
    s = (np.arange(grid_n) + 0.5) * (2 * np.pi / grid_n)
    assert np.all(delta != 0) and np.all(np.sign(delta) == np.sign(s - k * np.pi))
    assert np.all(np.abs(delta) < np.pi / 2)
    dk, dd = np.diff(k), np.diff(delta)
    assert np.all((dk == 1) | ((dk == 0) & (dd > 0)))


def test_default_point_makes_no_4x4_inverse(monkeypatch):
    """A default point inverts A0 in closed form at each of its DEFAULT_GRID // 2
    first-half xi nodes, so it makes no invert_grid_4x4 call (the benchmark's
    invert_grid_4x4.calls and .matrices read 0), and the default tables hold
    that many nodes."""
    batches = []
    invert = genfun.invert_grid_4x4

    def counting(a):
        batches.append(len(a))
        return invert(a)

    monkeypatch.setattr(genfun, "invert_grid_4x4", counting)
    recurrence_estimate(WalkParams(math.pi / 4, 0.35), 0.999)
    assert batches == []
    tables = genfun._tables(20, genfun.DEFAULT_GRID)
    assert tables.phase.shape == (genfun.DEFAULT_GRID // 2,)
    assert tables.phases.shape[-1] == genfun.DEFAULT_GRID // 2


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
@pytest.mark.parametrize("p", [0.0, 0.35])
def test_default_grid_converged_at_zcap(model, p):
    """At the two deepest z, where the xi integrand is sharpest, the default
    grid is within 1e-9 of grid 4096 at theta = 0.05, pi/4 and theta* + 0.1
    (the sin^4 rule at grid 512 missed by 1.8e-8 at theta = 0.05, p = 0.05,
    Z_CAP; the sin^2 rule at grid 1024 by up to 2.1e-7)."""
    for theta in (0.05, math.pi / 4, 0.2892 * math.pi + 0.1):
        params = WalkParams(theta, p, model)
        for z in (0.99998, Z_CAP):
            ref = recurrence_estimate(params, z, 20, 4096)
            assert abs(recurrence_estimate(params, z) - ref) < 1e-9


def test_laurent_cache_keeps_values_and_is_bounded():
    """R~ is the same bit for bit with a cold and a warm cache of the Laurent
    blocks; the cache holds at most 32 families, the most recent, and the
    factors it hands out are read-only."""
    _laurent_blocks.cache_clear()
    params = WalkParams(math.pi / 4, 0.35, Model.CORRELATED)
    cold = recurrence_estimate(params, 0.999, 4, 64)
    assert _laurent_blocks.cache_info().currsize == 1
    warm = recurrence_estimate(params, 0.999, 4, 64)
    info = _laurent_blocks.cache_info()
    assert warm == cold and info.currsize == 1 and info.hits == 1
    assert info.maxsize == 32
    families = [kraus_family(WalkParams(0.9, p)) for p in np.linspace(0, 1, info.maxsize + 5)]
    blocks = [_laurent_blocks(fam) for fam in families]
    assert _laurent_blocks.cache_info().currsize == info.maxsize
    assert _laurent_blocks(families[-1]) is blocks[-1]  # kept
    assert _laurent_blocks(families[0]) is not blocks[0]  # evicted, rebuilt
    assert recurrence_estimate(params, 0.999, 4, 64) == cold
    outer, inner, _, v = blocks[-1]
    for array in (outer, inner, v):
        with pytest.raises(ValueError):  # the cached blocks cannot be changed in place
            array[0] = 1.0


def test_z_sweep_builds_one_family(monkeypatch):
    """A sweep over 10 z reads kraus_family at every point, and the family is
    built once: kraus_family is memoised per WalkParams."""
    built = []

    def spy(params):
        built.append(params)
        return kraus_balanced(params)

    monkeypatch.setattr("dtqsw.model.kraus_balanced", spy)
    kraus_family.cache_clear()
    params = WalkParams(0.3 * math.pi, 0.35)
    points = z_sweep(params, np.linspace(0.5, 0.95, 10), n_max=4, grid_n=64)
    assert len(points) == 10 and all(pt.error is None for pt in points)
    assert built == [params]


# --------------------------------------------------- balanced oracles up to Z_CAP


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 2 * math.pi / 5, math.pi / 2])
def test_balanced_classical_limit_up_to_zcap(theta):
    """p=1 is the balanced random walk whatever the coin: (1 - sqrt(1 - z^2)) / z."""
    for z in DEFAULT_Z_SAMPLES:
        ref = (1 - math.sqrt(1 - z * z)) / z
        assert abs(recurrence_estimate(WalkParams(theta, 1.0), z) - ref) < 1e-11


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_balanced_pi_half_closed_form_up_to_zcap(p):
    for z in DEFAULT_Z_SAMPLES:
        est = recurrence_estimate(WalkParams(math.pi / 2, p), z)
        assert abs(est - pi_half_weighted_return(z, p)) < 1e-11


def test_balanced_theta_zero_unitary_never_returns():
    """theta=0, p=0: the coin never flips, each coin state moves one way, so
    R~ = 0 at every z; the default grid meets 1e-10 up to 0.99998 and 5e-10
    at Z_CAP (the sin^4 rule at grid 512 read -1.6e-9 and -8.5e-9 there)."""
    for z in DEFAULT_Z_SAMPLES:
        bound = 5e-10 if z == Z_CAP else 1e-10
        assert abs(recurrence_estimate(WalkParams(0.0, 0.0), z)) < bound


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
def test_correlated_unitary_limit_matches_balanced_near_zcap(theta):
    """At p=0 both models are the unitary walk: the correlated family has the
    balanced shift blocks, so the two estimates are the same number."""
    for z in (0.999, 0.9999, Z_CAP):
        balanced = recurrence_estimate(WalkParams(theta, 0.0), z)
        correlated = recurrence_estimate(WalkParams(theta, 0.0, Model.CORRELATED), z)
        assert correlated == balanced
