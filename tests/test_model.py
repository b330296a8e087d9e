import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqsw import (
    Model,
    WalkParams,
    coin_matrix,
    general_coin,
    kraus_balanced,
    kraus_correlated,
    kraus_family,
    momentum_kernel,
)
from dtqsw.errors import ParameterError, UnsupportedFamilyError
from dtqsw.model import (
    TranslationKraus,
    balanced_family_from_coin,
    shift_blocks,
    unitary_step_momentum,
)

K_GRID = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)


def test_coin_matrix_examples():
    h = coin_matrix(math.pi / 4)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert np.allclose(coin_matrix(0.0), np.diag([1.0, -1.0]))
    # exact: cos(pi/2) rounds to 6.1e-17, and the coin must not carry it
    assert np.array_equal(coin_matrix(math.pi / 2), np.array([[0, 1], [1, 0]]))


def test_coin_matrix_out_of_range():
    with pytest.raises(ParameterError):
        coin_matrix(-0.1)
    with pytest.raises(ParameterError):
        coin_matrix(math.pi)


@given(st.floats(0.0, math.pi / 2))
def test_coin_involution(theta):
    c = coin_matrix(theta)
    assert np.max(np.abs(c @ c - np.eye(2))) < 1e-14


def test_general_coin_reduces_to_coin_matrix():
    assert np.array_equal(general_coin(0.7, 0, 0, 0), coin_matrix(0.7).astype(complex))
    g = general_coin(math.pi / 4, math.pi / 3, 0, 0)
    assert np.allclose(g, np.exp(1j * math.pi / 3) * coin_matrix(math.pi / 4))


def test_general_coin_unitary():
    g = general_coin(0.7, 0.2, 1.1, -0.4)
    assert np.max(np.abs(g.conj().T @ g - np.eye(2))) < 1e-14


def test_balanced_family_limits():
    fam0 = kraus_balanced(WalkParams(0.6, 0.0))
    # p=0: classical parts vanish, only the unitary operator survives
    assert np.max(np.abs(fam0.kraus[1].terms[0][0])) == 0.0
    assert np.max(np.abs(fam0.kraus[2].terms[0][0])) == 0.0
    fam1 = kraus_balanced(WalkParams(0.6, 1.0))
    assert np.max(np.abs(fam1.kraus[0].terms[0][0])) == 0.0
    assert np.allclose(fam1.kraus[1].terms[0][0], np.sqrt(0.5) * np.eye(2))


def test_balanced_completeness_at_k():
    fam = kraus_balanced(WalkParams(math.pi / 4, 0.5))
    assert fam.completeness_defect(0.37) < 1e-12


def test_correlated_kraus_blocks():
    theta = 0.8
    fam = kraus_correlated(WalkParams(theta, 0.4, Model.CORRELATED))
    f_rr_block, f_rr_shift = fam.kraus[1].terms[0]
    assert f_rr_shift == +1
    assert np.allclose(
        f_rr_block, math.sqrt(0.4) * math.cos(theta) * np.array([[1, 0], [0, 0]])
    )
    f_ll_block, f_ll_shift = fam.kraus[4].terms[0]
    assert f_ll_shift == -1
    assert f_ll_block[1, 1] == pytest.approx(-math.sqrt(0.4) * math.cos(theta))


def test_correlated_p1_hadamard_is_balanced_crw():
    # all four transition weights equal 1/2 at theta=pi/4, p=1
    fam = kraus_correlated(WalkParams(math.pi / 4, 1.0, Model.CORRELATED))
    for op in fam.kraus[1:]:
        block, _ = op.terms[0]
        assert np.max(np.abs(block)) ** 2 == pytest.approx(0.5)


def test_correlated_p0_equals_balanced_p0():
    fam_c = kraus_correlated(WalkParams(0.5, 0.0, Model.CORRELATED))
    fam_b = kraus_balanced(WalkParams(0.5, 0.0))
    v_c = momentum_kernel(fam_c, 0.3, 1.2)
    v_b = momentum_kernel(fam_b, 0.3, 1.2)
    assert np.max(np.abs(v_c - v_b)) < 1e-15


@settings(deadline=None, max_examples=25)
@given(
    st.floats(0.0, math.pi / 2),
    st.floats(0.0, 1.0),
    st.sampled_from([Model.BALANCED, Model.CORRELATED]),
)
def test_completeness_on_grid(theta, p, model):
    params = WalkParams(theta, p, model)
    fam = kraus_balanced(params) if model is Model.BALANCED else kraus_correlated(params)
    assert fam.completeness_defect(K_GRID) < 1e-12


def test_momentum_kernel_balanced_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta = rng.uniform(0, math.pi / 2)
        p = rng.uniform(0, 1)
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        fam = kraus_balanced(WalkParams(theta, p))
        v = momentum_kernel(fam, k1, k2)
        closed = (1 - p) * np.kron(
            unitary_step_momentum(theta, k1), unitary_step_momentum(theta, k2)
        ) + p * np.cos(k1 + k2) * np.eye(4)
        assert np.max(np.abs(v - closed)) < 1e-14


def test_momentum_kernel_balanced_p_limits():
    fam1 = kraus_balanced(WalkParams(0.9, 1.0))
    v = momentum_kernel(fam1, 0.4, 1.1)
    assert np.allclose(v, np.cos(1.5) * np.eye(4))
    fam0 = kraus_balanced(WalkParams(0.9, 0.0))
    v0 = momentum_kernel(fam0, 0.4, 1.1)
    expected = np.kron(
        unitary_step_momentum(0.9, 0.4), unitary_step_momentum(0.9, 1.1)
    )
    assert np.max(np.abs(v0 - expected)) < 1e-14


def test_momentum_kernel_correlated_term_by_term():
    theta, p, k1, k2 = math.pi / 3, 0.5, 0.4, 1.1
    fam = kraus_correlated(WalkParams(theta, p, Model.CORRELATED))
    v = momentum_kernel(fam, k1, k2)
    # independent re-evaluation straight from the Kraus list
    expected = np.zeros((4, 4), dtype=complex)
    for op in fam.kraus:
        e1 = sum(b * np.exp(-1j * s * k1) for b, s in op.terms)
        e2 = sum(b * np.exp(-1j * s * k2) for b, s in op.terms)
        expected += np.kron(e1, e2)
    assert np.max(np.abs(v - expected)) < 1e-14


def test_momentum_kernel_rejects_complex_blocks():
    fam = balanced_family_from_coin(general_coin(0.5, 0.3, 0.2, 0.1), 0.2)
    with pytest.raises(UnsupportedFamilyError, match="real coin blocks"):
        momentum_kernel(fam, 0.1, 0.2)


def test_walk_params_validation():
    with pytest.raises(ParameterError):
        WalkParams(0.5, 1.5)
    with pytest.raises(ParameterError):
        WalkParams(-0.5, 0.5)



@pytest.mark.parametrize("shift", [0, 2])
def test_translation_kraus_rejects_non_unit_shift(shift):
    """genfun keeps only even offsets, so every term must step by +-1.

    A lazy walk (stay with amplitude sqrt(1/2), step +-1 with amplitude 1/2)
    is trace preserving but has odd-offset blocks that genfun never computes.
    """
    with pytest.raises(ParameterError):
        TranslationKraus(((np.eye(2) / math.sqrt(2), shift),))


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_kraus_family_is_built_once_per_params(model):
    """Equal WalkParams share one family, and one family one set of shift blocks;
    families built apart are distinct keys, compared and hashed by identity."""
    fam = kraus_family(WalkParams(0.3 * math.pi, 0.35, model))
    assert kraus_family(WalkParams(0.3 * math.pi, 0.35, model.value)) is fam
    assert shift_blocks(fam) is shift_blocks(fam)
    build = kraus_balanced if model is Model.BALANCED else kraus_correlated
    apart = build(WalkParams(0.3 * math.pi, 0.35, model))
    assert apart != fam and len({fam, apart}) == 2


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_shared_family_and_shift_blocks_are_read_only(model):
    """Writing into a shared family's coin block, or into one of its shift
    blocks, raises; the blocks are copies, so the source array stays free."""
    fam = kraus_family(WalkParams(0.3 * math.pi, 0.35, model))
    for op in fam.kraus:
        for block, _ in op.terms:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
    blocks = shift_blocks(fam)
    for m in blocks.values():
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    with pytest.raises(TypeError):
        blocks[1, 1] = np.eye(4)
    source = np.eye(2)
    op = TranslationKraus(((source, 1),))
    source[0, 0] = 2.0
    assert op.terms[0][0][0, 0] == 1.0
