import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qracdiscord.encoding import (
    BASE_ANGLES,
    as_bloch,
    bloch_batch,
    cq_state,
    encoding_states,
    planar_rotation,
    qubit_density,
    reduced_qubit,
    state_kets,
)
from qracdiscord.linalg import density_spectrum, partial_trace, vn_entropy

SQRT2 = math.sqrt(2.0)

# Offsets that map every state onto |state(00)>: all half-angles become pi/8.
IDENTICAL_OFFSETS = (0.0, -3 * math.pi / 4, -math.pi / 4, -math.pi / 2)


def random_encoding(rng):
    return encoding_states(rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, 2 * np.pi, 2))


def test_optimal_bloch_vectors():
    enc = encoding_states((0.0, 0.0, 0.0, 0.0))
    assert_allclose(enc.bloch[0], [SQRT2 / 2, 0.0, SQRT2 / 2], atol=1e-15)
    assert_allclose(enc.bloch[2], [SQRT2 / 2, 0.0, -SQRT2 / 2], atol=1e-15)


def test_optimal_kets_match_reference_amplitudes():
    kets = state_kets(encoding_states((0.0, 0.0, 0.0, 0.0)))
    expected = [
        [np.cos(np.pi / 8), np.sin(np.pi / 8)],
        [np.cos(7 * np.pi / 8), np.sin(7 * np.pi / 8)],
        [np.cos(3 * np.pi / 8), np.sin(3 * np.pi / 8)],
        [np.cos(5 * np.pi / 8), np.sin(5 * np.pi / 8)],
    ]
    assert_allclose(kets, expected, atol=1e-15)


def test_planar_rotation_collapses_to_x_axis():
    enc = planar_rotation(np.pi / 8)
    assert_allclose(enc.bloch[0], [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(enc.bloch[1], [-1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(enc.bloch[2], [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(enc.bloch[3], [-1.0, 0.0, 0.0], atol=1e-15)


def test_planar_rotation_half_angles():
    enc = planar_rotation(np.pi / 16)
    expected = BASE_ANGLES + np.pi / 16 * np.array([1, -1, -1, 1])
    assert_allclose(enc.half_angles, expected)


def test_phase_moves_state_out_of_plane():
    enc = encoding_states((0.0, 0.0, 0.0, 0.0), (np.pi / 2, 0.0))
    assert_allclose(enc.bloch[2], [0.0, SQRT2 / 2, -SQRT2 / 2], atol=1e-15)


def test_bloch_vectors_unit_norm_and_planar_registers():
    rng = np.random.default_rng(10)
    for _ in range(50):
        enc = random_encoding(rng)
        assert_allclose(np.linalg.norm(enc.bloch, axis=1), 1.0, atol=1e-12)
        assert enc.bloch[0, 1] == 0.0
        assert enc.bloch[1, 1] == 0.0


def test_bloch_matches_kets():
    rng = np.random.default_rng(11)
    from qracdiscord.linalg import PAULI

    for _ in range(20):
        enc = random_encoding(rng)
        for ket, r in zip(state_kets(enc), enc.bloch):
            rho = np.outer(ket, ket.conj())
            r_from_ket = [np.trace(rho @ s).real for s in PAULI]
            assert_allclose(r, r_from_ket, atol=1e-14)


def test_bloch_batch_shapes():
    rng = np.random.default_rng(12)
    delta = rng.uniform(0, 2 * np.pi, (7, 4))
    phi = rng.uniform(0, 2 * np.pi, (7, 2))
    batch = bloch_batch(delta, phi)
    assert batch.shape == (7, 4, 3)
    for k in range(7):
        assert_allclose(batch[k], encoding_states(delta[k], phi[k]).bloch)


def test_as_bloch_accepts_arrays_and_rejects_junk():
    enc = planar_rotation(0.1)
    assert as_bloch(enc) is enc.bloch
    assert_allclose(as_bloch(np.asarray(enc.bloch)), enc.bloch)
    with pytest.raises(ValueError):
        as_bloch(np.ones((4, 3)))  # not unit vectors
    with pytest.raises(ValueError):
        as_bloch(np.zeros((3, 3)))


def test_encoding_rejects_nonfinite():
    with pytest.raises(ValueError):
        encoding_states((np.nan, 0, 0, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_as_bloch_rejects_nonfinite(bad):
    bloch = np.array(planar_rotation(0.1).bloch)
    bloch[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        as_bloch(bloch)
    with pytest.raises(ValueError, match="finite"):
        as_bloch(np.full((4, 3), bad))


def test_cq_state_blocks_and_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(20):
        enc = random_encoding(rng)
        rho = cq_state(enc)
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-14)
        for a, ket in enumerate(state_kets(enc)):
            block = rho[2 * a : 2 * a + 2, 2 * a : 2 * a + 2]
            assert_allclose(block, 0.25 * np.outer(ket, ket.conj()), atol=1e-14)
        spectrum = density_spectrum(rho)
        assert_allclose(spectrum, [0.25] * 4 + [0.0] * 4, atol=1e-12)
        assert np.isclose(vn_entropy(rho), 2.0, atol=1e-12)


def test_reduced_qubit_is_maximally_mixed_for_rotations():
    assert_allclose(reduced_qubit(planar_rotation(0.0)), np.eye(2) / 2, atol=1e-15)
    for d in np.linspace(0.0, np.pi / 8, 7):
        assert_allclose(reduced_qubit(planar_rotation(d)), np.eye(2) / 2, atol=1e-15)


def test_identical_states_marginals():
    enc = encoding_states(IDENTICAL_OFFSETS)
    assert_allclose(enc.bloch, np.tile(enc.bloch[0], (4, 1)), atol=1e-15)
    rho = cq_state(enc)
    register = partial_trace(rho, (4, 2), keep=0)
    assert_allclose(register, np.eye(4) / 4, atol=1e-14)
    assert_allclose(reduced_qubit(enc), qubit_density(enc.bloch[0]), atol=1e-14)
    # the reduced qubit is the pure encoding state itself
    assert np.isclose(vn_entropy(reduced_qubit(enc)), 0.0, atol=1e-12)


def test_encoding_is_immutable():
    enc = planar_rotation(0.2)
    with pytest.raises(ValueError):
        enc.bloch[0, 0] = 2.0
