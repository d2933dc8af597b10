import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qracdiscord.discord import (
    _entropy_offset,
    _xlog2x,
    classical_correlation,
    conditional_ensemble,
    conditional_ensemble_dense,
    conditional_entropy,
    conditional_entropy_grid,
    discord_pre_opt,
    mutual_information,
    quantum_discord,
)
from qracdiscord.encoding import bloch_batch, encoding_states, planar_rotation

SQRT2 = math.sqrt(2.0)
DIAG_XZ = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
Y = np.array([0.0, 1.0, 0.0])
X = np.array([1.0, 0.0, 0.0])

IDENTICAL_OFFSETS = (0.0, -3 * math.pi / 4, -math.pi / 4, -math.pi / 2)

# An encoding on which coordinate-wise line searches stall 1.5e-5 above
# the minimum, in units of pi.
STALL_ANGLES_PI = (1.719225, 1.324356, 1.939288, 1.947611, 1.172453, 0.865686)


def random_encoding(rng):
    return encoding_states(rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, 2 * np.pi, 2))


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def fibonacci_directions(n):
    """n nearly uniform unit vectors on the sphere (Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z * z)
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.stack([r * np.cos(azimuth), r * np.sin(azimuth), z], axis=-1)


def dense_minimum(enc, dirs):
    """Pre-optimisation discord minimised over a fixed direction set."""
    k = int(np.argmin(conditional_entropy_grid(enc.bloch, dirs)))
    return discord_pre_opt(enc, dirs[k])


def rotation_matrix(rng):
    axis = random_direction(rng)
    angle = rng.uniform(0, 2 * np.pi)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# ------------------------------------------------------ conditional state


def test_conditional_ensemble_optimal_diagonal_direction():
    ens = conditional_ensemble(planar_rotation(0.0), DIAG_XZ)
    assert np.isclose(ens.p_plus, 0.5, atol=1e-12)
    assert np.isclose(ens.p_minus, 0.5, atol=1e-12)
    assert_allclose(ens.spec_plus, [0.5, 0.25, 0.25, 0.0], atol=1e-12)
    assert_allclose(ens.spec_minus, [0.5, 0.25, 0.25, 0.0], atol=1e-12)


def test_conditional_ensemble_y_direction_is_uniform():
    ens = conditional_ensemble(planar_rotation(0.0), Y)
    assert np.isclose(ens.p_plus, 0.5, atol=1e-12)
    assert_allclose(ens.spec_plus, [0.25] * 4, atol=1e-12)
    assert_allclose(ens.spec_minus, [0.25] * 4, atol=1e-12)


def test_conditional_ensemble_identical_states_deterministic():
    enc = encoding_states(IDENTICAL_OFFSETS)
    ens = conditional_ensemble(enc, enc.bloch[0])
    assert np.isclose(ens.p_plus, 1.0, atol=1e-12)
    assert np.isclose(ens.p_minus, 0.0, atol=1e-12)
    assert_allclose(ens.spec_plus, [0.25] * 4, atol=1e-12)
    assert np.isclose(ens.spec_minus.sum(), 1.0)  # zero branch: uniform stand-in


def test_conditional_ensemble_probabilities_sum_to_one():
    rng = np.random.default_rng(30)
    for _ in range(100):
        ens = conditional_ensemble(random_encoding(rng), random_direction(rng))
        assert np.isclose(ens.p_plus + ens.p_minus, 1.0, atol=1e-12)
        assert np.isclose(ens.spec_plus.sum(), 1.0, atol=1e-10)
        assert np.isclose(ens.spec_minus.sum(), 1.0, atol=1e-10)
        assert ens.spec_plus.min() >= -1e-10
        assert ens.spec_minus.min() >= -1e-10


def test_conditional_ensemble_depends_only_on_a1_a3_for_planar():
    rng = np.random.default_rng(31)
    for _ in range(50):
        enc = planar_rotation(rng.uniform(0, 2 * np.pi))
        a = random_direction(rng)
        flipped = a * np.array([1.0, -1.0, 1.0])
        e1 = conditional_ensemble(enc, a)
        e2 = conditional_ensemble(enc, flipped)
        assert np.isclose(e1.p_plus, e2.p_plus, atol=1e-14)
        assert_allclose(e1.spec_plus, e2.spec_plus, atol=1e-14)
        assert_allclose(e1.spec_minus, e2.spec_minus, atol=1e-14)


# ------------------------------------------------------------ dense oracle


def test_fast_path_matches_dense_path():
    rng = np.random.default_rng(32)
    for _ in range(50):
        enc = random_encoding(rng)
        a = random_direction(rng)
        fast = conditional_ensemble(enc, a)
        dense = conditional_ensemble_dense(enc, a)
        assert np.isclose(fast.p_plus, dense.p_plus, atol=1e-10)
        assert np.isclose(fast.p_minus, dense.p_minus, atol=1e-10)
        assert_allclose(fast.spec_plus, dense.spec_plus, atol=1e-10)
        assert_allclose(fast.spec_minus, dense.spec_minus, atol=1e-10)


# ------------------------------------------------------------- entropies


def test_conditional_entropy_reference_directions():
    enc = planar_rotation(0.0)
    assert np.isclose(conditional_entropy(enc, DIAG_XZ), 1.5, atol=1e-12)
    assert np.isclose(conditional_entropy(enc, Y), 2.0, atol=1e-12)
    # binary entropy of the optimal success probability, about 1.6009 - 1
    p = (2 + SQRT2) / 4
    oracle = -(p * np.log2(p) + (1 - p) * np.log2(1 - p)) + 1.0
    assert np.isclose(conditional_entropy(enc, X), oracle, atol=1e-12)


def test_conditional_entropy_grid_matches_scalar():
    rng = np.random.default_rng(33)
    enc = random_encoding(rng)
    dirs = np.array([random_direction(rng) for _ in range(64)])
    grid_vals = conditional_entropy_grid(enc.bloch, dirs)
    for a, val in zip(dirs, grid_vals):
        assert np.isclose(conditional_entropy(enc, a), val, atol=1e-12)


def masked_xlog2x(w):
    """Reference w log2 w: 0 at w <= 0, log taken only where w > 0."""
    w = np.maximum(w, 0.0)
    out = np.zeros_like(w)
    mask = w > 0.0
    out[mask] = w[mask] * np.log2(w[mask])
    return out


@pytest.mark.parametrize("n", [1, 2, 8, 1000, 100_000])
def test_xlog2x_matches_masked_reference_bitwise(n):
    rng = np.random.default_rng(n)
    w = rng.uniform(-1e-12, 1.0, size=n)
    w[::3] = 0.0
    w[1::7] = -1e-17
    got = _xlog2x(w)
    assert np.array_equal(got, masked_xlog2x(w))
    assert not np.any(np.isnan(got))


def test_entropy_offset_batch_matches_single_calls_bitwise():
    rng = np.random.default_rng(500)
    bloch = bloch_batch(rng.uniform(0, 2 * np.pi, (500, 4)), rng.uniform(0, 2 * np.pi, (500, 2)))
    batched = _entropy_offset(bloch)
    assert batched.shape == (500,)
    for b, value in zip(bloch, batched):
        assert _entropy_offset(b) == value
    assert _entropy_offset(bloch.reshape(20, 25, 4, 3)).shape == (20, 25)


def test_conditional_entropy_is_batch_of_one():
    rng = np.random.default_rng(34)
    for _ in range(20):
        enc = random_encoding(rng)
        a = random_direction(rng)
        assert conditional_entropy(enc, a) == conditional_entropy_grid(enc.bloch, a[None, :])[0]


def test_discord_pre_opt_reference_directions():
    enc = planar_rotation(0.0)
    assert np.isclose(discord_pre_opt(enc, DIAG_XZ), 0.5, atol=1e-12)
    assert np.isclose(discord_pre_opt(enc, Y), 1.0, atol=1e-12)
    assert np.isclose(discord_pre_opt(planar_rotation(np.pi / 8), X), 0.0, atol=1e-12)


def test_noisy_direction_never_helps():
    # a = (eta cos t, +-sqrt(1-eta^2), eta sin t): the pre-optimisation
    # discord is nonincreasing in eta for planar encodings
    rng = np.random.default_rng(34)
    etas = np.linspace(0.0, 1.0, 11)
    for _ in range(10):
        enc = planar_rotation(rng.uniform(0, 2 * np.pi))
        for t in np.linspace(0.0, np.pi, 7):
            for sign in (1.0, -1.0):
                vals = [
                    discord_pre_opt(
                        enc,
                        np.array(
                            [
                                eta * np.cos(t),
                                sign * np.sqrt(max(1.0 - eta * eta, 0.0)),
                                eta * np.sin(t),
                            ]
                        ),
                    )
                    for eta in etas
                ]
                assert np.all(np.diff(vals) <= 1e-12)


# -------------------------------------------------------------- optimiser


def test_quantum_discord_optimal_encoding():
    value, direction = quantum_discord(planar_rotation(0.0))
    assert np.isclose(value, 0.5, atol=1e-6)
    angle = math.atan2(direction[2], direction[0]) % math.pi
    assert min(abs(angle - math.pi / 4), abs(angle - 3 * math.pi / 4)) <= math.pi / 180


def test_quantum_discord_classical_point():
    value, _ = quantum_discord(planar_rotation(np.pi / 8))
    assert abs(value) <= 1e-6


def test_quantum_discord_identical_states():
    value, _ = quantum_discord(encoding_states(IDENTICAL_OFFSETS))
    assert abs(value) <= 1e-9


def test_quantum_discord_matches_pre_opt_at_minimiser():
    rng = np.random.default_rng(35)
    for _ in range(5):
        enc = random_encoding(rng)
        value, direction = quantum_discord(enc)
        assert np.isclose(discord_pre_opt(enc, direction), value, atol=1e-9)


def test_quantum_discord_rotation_invariant():
    rng = np.random.default_rng(36)
    for _ in range(5):
        enc = random_encoding(rng)
        value, direction = quantum_discord(enc)
        rot = rotation_matrix(rng)
        rotated_value, _ = quantum_discord(enc.bloch @ rot.T)
        assert np.isclose(rotated_value, value, atol=1e-8)
        # the rotated original minimiser attains the same value
        carried = discord_pre_opt(enc.bloch @ rot.T, rot @ direction)
        assert np.isclose(carried, value, atol=1e-8)


def test_quantum_discord_below_dense_minimum_at_stall_point():
    params = np.array(STALL_ANGLES_PI) * math.pi
    enc = encoding_states(params[:4], params[4:])
    value, _ = quantum_discord(enc)
    dense = dense_minimum(enc, fibonacci_directions(400_000))
    assert np.isclose(dense, 0.4534223, atol=1e-7)
    assert value <= dense


def test_quantum_discord_never_above_dense_minimum():
    rng = np.random.default_rng(38)
    dirs = fibonacci_directions(50_000)
    for _ in range(50):
        enc = random_encoding(rng)
        value, direction = quantum_discord(enc)
        assert value <= dense_minimum(enc, dirs) + 1e-12
        assert abs(discord_pre_opt(enc, direction) - value) <= 1e-12


def test_quantum_discord_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        quantum_discord(np.full((4, 3), np.nan))


# ------------------------------------------------- information quantities


def test_mutual_information_reference_values():
    assert np.isclose(mutual_information(planar_rotation(0.0)), 1.0, atol=1e-12)
    assert np.isclose(mutual_information(planar_rotation(np.pi / 8)), 1.0, atol=1e-12)
    assert np.isclose(mutual_information(encoding_states(IDENTICAL_OFFSETS)), 0.0, atol=1e-12)


def test_classical_correlation_reference_values():
    assert np.isclose(classical_correlation(planar_rotation(0.0)), 0.5, atol=1e-6)
    assert np.isclose(classical_correlation(planar_rotation(np.pi / 8)), 1.0, atol=1e-6)
    assert abs(classical_correlation(encoding_states(IDENTICAL_OFFSETS))) <= 1e-9


def test_discord_between_zero_and_mutual_information():
    rng = np.random.default_rng(37)
    for _ in range(10):
        enc = random_encoding(rng)
        value, _ = quantum_discord(enc)
        mi = mutual_information(enc)
        assert value >= -1e-9
        assert value <= mi + 1e-9
        assert np.isclose(classical_correlation(enc), mi - value, atol=1e-9)
