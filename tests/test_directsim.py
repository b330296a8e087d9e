import math
import tracemalloc

import numpy as np
import pytest

from dtqsw import (
    Model,
    ReturnSeries,
    WalkParams,
    initial_state,
    kraus_balanced,
    kraus_family,
    return_series,
    step_monitored,
    weighted_return,
)
from dtqsw import directsim
from dtqsw.directsim import _apply_cptp, _evolution_bytes
from dtqsw.errors import (
    ConsistencyError,
    ParameterError,
    ResourceError,
    TruncationError,
)
from dtqsw.model import (
    balanced_family_from_coin,
    coin_matrix,
    general_coin,
    momentum_kernel,
    shift_blocks,
)
from dtqsw.perturbation import monitored_trajectory

COIN_R = np.diag([1.0, 0.0])
COIN_L = np.diag([0.0, 1.0])
COIN_CIRC = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])  # (|R> + i|L>)/sqrt(2)


def test_survival_monotone_and_bounded():
    series = return_series(WalkParams(math.pi / 4, 0.3), 30)
    assert series.survival[0] == 1.0
    assert np.all(np.diff(series.survival) <= 1e-14)
    assert np.all(series.survival >= -1e-14)
    assert np.allclose(series.return_prob, 1.0 - series.survival)
    assert np.allclose(series.first_return, np.diff(series.return_prob))


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_coin_state_independence(model):
    """Survival is independent of the initial coin density at every step."""
    params = WalkParams(math.pi / 3, 0.3, model)
    base = return_series(params, 50, COIN_R).survival
    for coin_density in (COIN_L, COIN_CIRC):
        s = return_series(params, 50, coin_density).survival
        assert np.max(np.abs(s - base)) < 1e-10


def test_gauge_invariance_global_phase_and_left_rotation():
    """phi and alpha in the general coin never change the survival."""
    theta, p, t_max = 0.6, 0.25, 30
    base = return_series(WalkParams(theta, p), t_max).survival
    for phi, alpha in ((0.7, 0.0), (0.0, 1.1), (0.4, -0.9)):
        fam = balanced_family_from_coin(general_coin(theta, phi, alpha, 0.0), p)
        state = initial_state(COIN_R, t_max + 1)
        survival = [1.0]
        for _ in range(t_max):
            state = step_monitored(state, fam)
            survival.append(state.survival())
        assert np.max(np.abs(np.array(survival) - base)) < 1e-10


def test_gauge_invariance_right_rotation_with_rotated_input():
    """beta rotates the coin input; rotating the initial density undoes it."""
    theta, p, beta, t_max = 0.6, 0.25, 0.8, 30
    base = return_series(WalkParams(theta, p), t_max, COIN_CIRC).survival
    fam = balanced_family_from_coin(general_coin(theta, 0.0, 0.0, beta), p)
    rot = np.diag([np.exp(-1j * beta), np.exp(1j * beta)])
    state = initial_state(rot.conj().T @ COIN_CIRC @ rot, t_max + 1)
    survival = [1.0]
    for _ in range(t_max):
        state = step_monitored(state, fam)
        survival.append(state.survival())
    assert np.max(np.abs(np.array(survival) - base)) < 1e-10


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_cptp_preserves_trace_hermiticity_positivity(model):
    family = kraus_family(WalkParams(0.9, 0.4, model))
    state = initial_state(COIN_CIRC, 12)
    for _ in range(10):
        rho_next = _apply_cptp(state.rho, family)
        dim = 2 * (2 * state.half_width + 1)
        flat = rho_next.reshape(dim, dim)
        # trace preserved before the absorbing projection
        assert abs(np.trace(flat).real - state.survival()) < 1e-12
        assert np.max(np.abs(flat - flat.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(flat)) > -1e-10
        state = step_monitored(state, family)


@pytest.mark.parametrize(
    "coin_state",
    [[1.0, 0.0], np.array([1.0, 1.0j]) / math.sqrt(2), [0.6, 0.8]],
    ids=["R", "circular", "real"],
)
def test_p_zero_matches_pure_state_trajectory(coin_state):
    theta, t_max = 1.1, 40
    psi = np.asarray(coin_state)
    series = return_series(WalkParams(theta, 0.0), t_max, np.outer(psi, psi.conj()))
    traj = monitored_trajectory(theta, t_max, coin_state)
    assert np.max(np.abs(series.survival - traj.survival())) < 1e-12


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_odd_first_return_weights_vanish(model):
    series = return_series(WalkParams(math.pi / 4, 0.3, model), 21)
    # first_return[m-1] = q_m; the lattice is bipartite so odd m never return
    odd = series.first_return[0::2]
    assert np.max(np.abs(odd)) < 1e-14


def test_correlated_return_is_p_independent_up_to_t5():
    """Every classical branch shadows the unitary path for 5 steps."""
    base = return_series(WalkParams(math.pi / 4, 0.0, Model.CORRELATED), 6)
    for p in (0.1, 0.5, 0.9):
        series = return_series(WalkParams(math.pi / 4, p, Model.CORRELATED), 6)
        diff = np.abs(series.return_prob - base.return_prob)
        assert np.max(diff[:6]) < 1e-12
        assert diff[6] > 1e-3  # the degeneracy breaks at t = 6


def test_pi_half_balanced_matches_absorbing_chain():
    """theta = pi/2 evolution is a classical chain; compare survivals."""
    p, t_max = 0.37, 12
    series = return_series(WalkParams(math.pi / 2, p), t_max)
    width = t_max + 1
    n_pos = 2 * width + 1
    dist = np.zeros((2, n_pos))
    dist[0, width] = 1.0
    survival = [1.0]
    for _ in range(t_max):
        nxt = np.zeros_like(dist)
        nxt[1, :-1] += (1 - p) * dist[0, 1:]
        nxt[0, 1:] += (1 - p) * dist[1, :-1]
        nxt[:, 1:] += (p / 2) * dist[:, :-1]
        nxt[:, :-1] += (p / 2) * dist[:, 1:]
        nxt[:, width] = 0.0  # absorb at the origin
        dist = nxt
        survival.append(float(dist.sum()))
    assert np.max(np.abs(series.survival - survival)) < 1e-12
    # two-step enumeration: q_2 = 1 - p + p^2/2
    assert series.first_return[1] == pytest.approx(1 - p + p**2 / 2, abs=1e-14)


def test_weighted_return_definition_and_domain():
    series = return_series(WalkParams(math.pi / 4, 0.5), 10)
    z = 0.6
    m = np.arange(1, 11)
    expected = float(np.sum(series.first_return * z ** (m - 1)))
    assert weighted_return(series, z) == expected
    with pytest.raises(ParameterError):
        weighted_return(series, 1.0)
    with pytest.raises(ParameterError):
        weighted_return(series, 0.0)


def test_truncation_boundary_is_hard_error():
    family = kraus_balanced(WalkParams(math.pi / 4, 0.2))
    state = initial_state(COIN_R, 2)
    state = step_monitored(state, family)
    state = step_monitored(state, family)
    with pytest.raises(TruncationError):
        step_monitored(state, family)


def test_initial_state_validation():
    with pytest.raises(ParameterError):
        initial_state(np.array([[0.5, 0.5]]), 3)  # wrong shape
    with pytest.raises(ParameterError):
        initial_state(np.array([[0.5, 1.0], [0.0, 0.5]]), 3)  # not Hermitian
    with pytest.raises(ParameterError):
        initial_state(np.diag([0.7, 0.7]), 3)  # trace != 1
    with pytest.raises(ParameterError):
        initial_state(np.array([[1.5, 0.0], [0.0, -0.5]]), 3)  # not PSD
    with pytest.raises(ParameterError):
        initial_state(COIN_R, 0)


def test_resource_cap(monkeypatch):
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", 1 << 20)
    with pytest.raises(ResourceError):
        return_series(WalkParams(math.pi / 4, 0.5), 100)


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_resource_guard_covers_traced_peak(monkeypatch, model):
    """The guarded figure bounds every array a return_series call allocates."""
    params, t_max = WalkParams(math.pi / 4, 0.5, model), 100
    tracemalloc.start()
    try:
        return_series(params, t_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state_bytes = (2 * (2 * t_max + 3)) ** 2 * 16
    assert 2 * state_bytes < peak <= _evolution_bytes(t_max)
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", _evolution_bytes(t_max) - 1)
    with pytest.raises(ResourceError):
        return_series(params, t_max)


def _dense(op, n_pos):
    """(2P x 2P) matrix of a TranslationKraus; shifts past the edge are dropped."""
    return sum(np.kron(block, np.eye(n_pos, k=-shift)) for block, shift in op.terms)


REFERENCE_FAMILIES = {
    "balanced": kraus_family(WalkParams(0.7, 0.35, Model.BALANCED)),
    "correlated": kraus_family(WalkParams(0.7, 0.35, Model.CORRELATED)),
    "complex_coin": balanced_family_from_coin(
        general_coin(0.7, 0.4, -0.9, 1.3), 0.35
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_FAMILIES))
def test_apply_cptp_matches_dense_kraus_sum(name):
    """Dense sum_j E_j rho E_j^dag on a random array with mass at the edges."""
    family = REFERENCE_FAMILIES[name]
    n_pos = 7
    rng = np.random.default_rng(11)
    shape = (2, n_pos, 2, n_pos)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = rho.reshape(2 * n_pos, 2 * n_pos)
    expected = sum(
        e @ flat @ e.conj().T for e in (_dense(op, n_pos) for op in family.kraus)
    )
    got = _apply_cptp(rho, family).reshape(2 * n_pos, 2 * n_pos)
    assert np.max(np.abs(got - expected)) < 1e-13


@pytest.mark.parametrize("name", ["balanced", "correlated"])
def test_momentum_kernel_matches_kraus_momenta_and_shift_blocks(name):
    """V is sum_j E_j(k1) kron E_j(k2), and the shift blocks with their phases."""
    family = REFERENCE_FAMILIES[name]
    rng = np.random.default_rng(12)
    k1, k2 = rng.uniform(-np.pi, np.pi, size=(2, 5, 3))
    v = momentum_kernel(family, k1, k2)
    from_kraus = sum(
        np.einsum("...ab,...cd->...acbd", op.momentum(k1), op.momentum(k2))
        for op in family.kraus
    ).reshape(5, 3, 4, 4)
    from_blocks = sum(
        np.exp(-1j * (s * k1 + s2 * k2))[..., None, None] * m
        for (s, s2), m in shift_blocks(family).items()
    )
    assert np.max(np.abs(v - from_kraus)) < 1e-14
    assert np.max(np.abs(v - from_blocks)) < 1e-14


def test_return_series_rejects_negative_first_return():
    with pytest.raises(ConsistencyError):
        ReturnSeries(
            survival=np.array([1.0, 0.5, 0.6]),
            return_prob=np.array([0.0, 0.5, 0.4]),
            first_return=np.array([0.5, -0.1]),
        )


def test_return_series_computes_shift_blocks_once():
    """Every step reads shift_blocks(family), and the blocks are computed once
    per family, not once per step."""
    shift_blocks.cache_clear()
    return_series(WalkParams(0.3 * math.pi, 0.35, Model.CORRELATED), 50)
    info = shift_blocks.cache_info()
    assert info.misses == 1 and info.hits == 49
