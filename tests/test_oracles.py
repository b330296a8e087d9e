"""Ground-truth checks of the closed-form oracles.

The theta = pi/2 coin maps basis states to basis states, so the whole
evolution is a classical Markov chain on (coin, position):

    (R, x) -> (L, x-1) w.p. 1-p,  (R, x+1) w.p. p/2,  (R, x-1) w.p. p/2
    (L, x) -> (R, x+1) w.p. 1-p,  (L, x+1) w.p. p/2,  (L, x-1) w.p. p/2

Iterating this chain gives the return probabilities P_n((c,0) -> (c',0))
with no reference to any generating function; the closed form must
reproduce them as Taylor coefficients. Coefficients are extracted by an
FFT over a complex circle |z| = 0.4, well inside the branch points.
"""

import math

import numpy as np
import pytest

from dtqsw.errors import ParameterError
from dtqsw.oracles import (
    classical_first_return,
    pi_half_genfun,
    pi_half_weighted_return,
    recurrence_unitary,
)

# ---------------------------------------------------------------- chain oracle


def chain_return_probs(p, n_steps):
    """P_n((c0, 0) -> (c, 0)) for n = 0..n_steps, entry [n, c, c0]."""
    width = n_steps + 1
    n_pos = 2 * width + 1
    out = np.zeros((n_steps + 1, 2, 2))
    for c0 in range(2):
        dist = np.zeros((2, n_pos))
        dist[c0, width] = 1.0
        out[0, c0, c0] = 1.0
        for n in range(1, n_steps + 1):
            nxt = np.zeros_like(dist)
            # flip + shift (quantum part, deterministic at theta = pi/2)
            nxt[1, :-1] += (1 - p) * dist[0, 1:]
            nxt[0, 1:] += (1 - p) * dist[1, :-1]
            # lazy classical part keeps the coin
            nxt[:, 1:] += (p / 2) * dist[:, :-1]
            nxt[:, :-1] += (p / 2) * dist[:, 1:]
            dist = nxt
            out[n, :, c0] = dist[:, width]
    return out


def pi_half_r_complex(z, p):
    """Closed-form return matrix continued to complex z (|z| small)."""
    a = 1.0 - (1.0 - p) * z
    b = 1.0 + (1.0 - p) * z
    c = p * z
    u = np.sqrt(a * a - c * c)
    v = np.sqrt(b * b - c * c)
    diag = 0.5 * (1.0 / u + 1.0 / v)
    off = 0.5 * (a / (u * c) - b / (v * c))
    return np.array([[diag, off], [off, diag]])


@pytest.mark.parametrize("p", [0.2, 0.37, 0.7, 1.0])
def test_pi_half_closed_form_matches_chain(p):
    n_coeff = 10
    radius, n_fft = 0.4, 64
    zs = radius * np.exp(2j * np.pi * np.arange(n_fft) / n_fft)
    samples = np.array([pi_half_r_complex(z, p) for z in zs])
    coeffs = np.fft.fft(samples, axis=0) / n_fft
    coeffs /= radius ** np.arange(n_fft)[:, None, None]
    chain = chain_return_probs(p, n_coeff)
    for n in range(n_coeff + 1):
        assert np.max(np.abs(coeffs[n].real - chain[n])) < 1e-10
        assert np.max(np.abs(coeffs[n].imag)) < 1e-10


def test_pi_half_genfun_matches_complex_continuation():
    r_mat, _ = pi_half_genfun(0.4, 0.37)
    r_ref = pi_half_r_complex(0.4 + 0j, 0.37)
    assert np.max(np.abs(r_mat - r_ref.real)) < 1e-14


# ---------------------------------------------------------- closed-form algebra


@pytest.mark.parametrize("z", [0.3, 0.8, 0.99])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_q_matrix_is_identity_minus_inverse(z, p):
    r_mat, q_mat = pi_half_genfun(z, p)
    assert np.max(np.abs(q_mat - (np.eye(2) - np.linalg.inv(r_mat)))) < 1e-10


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_q_matrix_z_to_1_limit(p):
    # I - R^-1 stays finite as z -> 1 even though R itself diverges:
    # entries tend to 1 -+ p sqrt(1-p), with unit column sums (certain return)
    # the approach is O(sqrt(1 - z)), so 1 - z = 1e-10 gives ~1e-5 residuals
    _, q_mat = pi_half_genfun(1.0 - 1e-10, p)
    edge = p * math.sqrt(1.0 - p)
    assert q_mat[0, 0] == pytest.approx(1.0 - edge, abs=1e-4)
    assert q_mat[0, 1] == pytest.approx(edge, abs=1e-4)
    assert q_mat[0, 0] + q_mat[1, 0] == pytest.approx(1.0, abs=1e-4)


def test_weighted_return_definition():
    z, p = 0.7, 0.3
    _, q_mat = pi_half_genfun(z, p)
    assert pi_half_weighted_return(z, p) == pytest.approx(
        (q_mat[0, 0] + q_mat[1, 0]) / z
    )


def test_pi_half_first_return_coefficients():
    # q_1 = 0 and q_2 = 1 - p + p^2/2 follow from two-step enumeration of
    # the chain: every x = +-1 state reaches the origin with prob 1 - p/2
    # except (R,-1) and (L,+1), which reach it with prob p/2
    p = 0.37
    radius, n_fft = 0.3, 64
    zs = radius * np.exp(2j * np.pi * np.arange(n_fft) / n_fft)
    vals = []
    for z in zs:
        r_mat = pi_half_r_complex(z, p)
        q_mat = np.eye(2) - np.linalg.inv(r_mat)
        vals.append((q_mat[0, 0] + q_mat[1, 0]) / z)
    coeffs = np.fft.fft(np.array(vals)) / n_fft
    coeffs /= radius ** np.arange(n_fft)
    q1 = coeffs[0].real
    q2 = coeffs[1].real
    expected_q2 = 1.0 - p + p**2 / 2
    assert abs(q1) < 1e-12
    assert q2 == pytest.approx(expected_q2, abs=1e-12)


# ----------------------------------------------------------- unitary recurrence


def test_recurrence_unitary_anchors():
    assert recurrence_unitary(0.0) == 0.0
    assert recurrence_unitary(math.pi / 4) == pytest.approx(2 / math.pi)
    assert recurrence_unitary(math.pi / 2) == pytest.approx(1.0)


# (theta, 50-digit value of (2/pi)[theta(1 - cot^2 theta) + cot theta])
SMALL_THETA_REFERENCES = [
    (1e-10, 8.4882636315677512e-11),
    (1e-8, 8.4882636315677512e-9),
    (1e-6, 8.4882636315671854e-7),
    (1e-4, 8.4882636259089088e-5),
    (1e-3, 8.4882630656834283e-4),
    (1e-2, 8.488207042335124e-3),
]


@pytest.mark.parametrize("theta, ref", SMALL_THETA_REFERENCES)
def test_recurrence_unitary_small_theta(theta, ref):
    """The closed form cancels at small theta (0.0 at 1e-8, 6.6e-5 off at 1e-6)."""
    assert abs(recurrence_unitary(theta) - ref) <= 1e-14 * ref


def test_recurrence_unitary_monotone():
    thetas = np.linspace(0.01, math.pi / 2, 200)
    vals = [recurrence_unitary(t) for t in thetas]
    assert np.all(np.diff(vals) > 0)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


def test_recurrence_unitary_domain():
    with pytest.raises(ParameterError):
        recurrence_unitary(-0.1)
    with pytest.raises(ParameterError):
        recurrence_unitary(math.pi)


# -------------------------------------------------------------- classical walk


def test_classical_first_return_values():
    assert classical_first_return(2) == pytest.approx(0.5)
    assert classical_first_return(4) == pytest.approx(1 / 8)
    assert classical_first_return(6) == pytest.approx(1 / 16)
    assert classical_first_return(3) == 0.0
    with pytest.raises(ParameterError):
        classical_first_return(1)


def test_classical_first_return_sums_to_one():
    total = sum(classical_first_return(m) for m in range(2, 2001, 2))
    # recurrent but heavy-tailed: partial sums approach 1 like m^-1/2
    assert 0.97 < total < 1.0


def test_pi_half_parameter_validation():
    with pytest.raises(ParameterError):
        pi_half_genfun(1.0, 0.5)
    with pytest.raises(ParameterError):
        pi_half_genfun(0.5, 1.2)
    # Q(0) = 0, so sum_m q_m z^(m-1) would be 0/0 at z = 0
    with pytest.raises(ParameterError):
        pi_half_weighted_return(0.0, 0.5)
