import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qracdiscord.encoding import encoding_states, planar_rotation, state_kets
from qracdiscord.geodiscord import (
    bloch_decompose,
    frame_operator,
    gd8_batch,
    geometric_discord,
    planar_gd_closed,
)
from qracdiscord.linalg import PAULI, W_DIAG, eigvalsh3

IDENTICAL_OFFSETS = (0.0, -3 * math.pi / 4, -math.pi / 4, -math.pi / 2)


def random_encoding(rng):
    return encoding_states(rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, 2 * np.pi, 2))


def swapped_dense_state(enc):
    """Qubit (x) register layout of the joint state, for the definition check."""
    rho = np.zeros((8, 8), dtype=complex)
    for a, ket in enumerate(state_kets(enc)):
        reg = np.zeros((4, 4))
        reg[a, a] = 1.0
        rho += 0.25 * np.kron(np.outer(ket, ket.conj()), reg)
    return rho


def test_optimal_decomposition():
    dec = bloch_decompose(planar_rotation(0.0))
    assert_allclose(dec.x, np.zeros(3), atol=1e-15)
    assert_allclose(dec.corr[1], np.zeros(3), atol=1e-15)  # no y correlations
    assert np.isclose(dec.corr[2, 0], 0.0, atol=1e-15)
    assert_allclose(dec.gram, 0.5 * np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_decomposition_matches_generator_definition():
    # corr[i, j] must equal 2 Tr(rho sigma_i (x) W_j) on the swapped layout,
    # and x must be the qubit marginal's Pauli expectation
    rng = np.random.default_rng(40)
    for _ in range(10):
        enc = random_encoding(rng)
        dec = bloch_decompose(enc)
        rho = swapped_dense_state(enc)
        for i in range(3):
            for j in range(3):
                ref = 2.0 * np.trace(rho @ np.kron(PAULI[i], W_DIAG[j])).real
                assert np.isclose(dec.corr[i, j], ref, atol=1e-12)
        qubit = np.einsum("abcb->ac", rho.reshape(2, 4, 2, 4))
        for i in range(3):
            assert np.isclose(dec.x[i], np.trace(qubit @ PAULI[i]).real, atol=1e-12)


def test_decomposition_gram_is_frame_operator():
    # x x^t + T T^t / 2 = (1/4) B^t B: (1, 1, 1, 1)/2 and the normalised
    # generator diagonals are an orthonormal basis of R^4
    rng = np.random.default_rng(47)
    for _ in range(200):
        enc = random_encoding(rng)
        assert_allclose(bloch_decompose(enc).gram, frame_operator(enc), rtol=0, atol=1e-15)
        assert_allclose(frame_operator(enc), 0.25 * enc.bloch.T @ enc.bloch, rtol=0, atol=0)


def test_geometric_discord_reference_values():
    assert np.isclose(geometric_discord(planar_rotation(0.0)), 1.0 / 16.0, atol=1e-12)
    assert np.isclose(geometric_discord(encoding_states(IDENTICAL_OFFSETS)), 0.0, atol=1e-12)


def test_geometric_discord_symmetric_rotation_closed_form():
    for d in np.linspace(0.0, np.pi / 4, 41):
        expected = (1.0 - abs(math.sin(4.0 * d))) / 16.0
        assert np.isclose(geometric_discord(planar_rotation(d)), expected, atol=1e-12)


def test_planar_closed_form_reference_cases():
    lam, dg = planar_gd_closed((0.0, 0.0, 0.0, 0.0))
    assert_allclose(lam, [0.5, 0.5, 0.0], atol=1e-15)
    assert np.isclose(dg, 1.0 / 16.0, atol=1e-15)
    for d in np.linspace(0.0, np.pi / 2, 17):
        lam, _ = planar_gd_closed((d, -d, -d, d))
        s = abs(math.sin(4.0 * d))
        assert_allclose(lam, [(1 + s) / 2, (1 - s) / 2, 0.0], atol=1e-12)


def test_planar_closed_form_matches_general_path():
    rng = np.random.default_rng(41)
    for _ in range(500):
        delta = rng.uniform(0, 2 * np.pi, 4)
        enc = encoding_states(delta)
        lam_closed, dg_closed = planar_gd_closed(delta)
        assert np.isclose(dg_closed, geometric_discord(enc), atol=1e-10)
        lam_general = eigvalsh3(bloch_decompose(enc).gram)
        assert_allclose(lam_closed, lam_general, atol=1e-10)


def test_planar_closed_form_rejects_phases():
    enc = encoding_states((0.1, 0.2, 0.3, 0.4), (0.5, 0.0))
    with pytest.raises(ValueError):
        planar_gd_closed(enc)
    # an EncodingSet with zero phases is fine
    lam, dg = planar_gd_closed(encoding_states((0.1, 0.2, 0.3, 0.4)))
    assert np.isclose(dg, geometric_discord(encoding_states((0.1, 0.2, 0.3, 0.4))), atol=1e-12)


def test_planar_gram_has_zero_eigenvalue():
    # the y row and column of G vanish for planar encodings, so one
    # eigenvalue is exactly zero (the smallest: G is positive semidefinite)
    rng = np.random.default_rng(42)
    for _ in range(200):
        enc = encoding_states(rng.uniform(0, 2 * np.pi, 4))
        lam = eigvalsh3(bloch_decompose(enc).gram)
        assert abs(lam[2]) <= 1e-9


def test_gram_trace_is_one_and_discord_bounded():
    rng = np.random.default_rng(43)
    for _ in range(500):
        enc = random_encoding(rng)
        dec = bloch_decompose(enc)
        assert np.isclose(np.trace(dec.gram), 1.0, atol=1e-10)
        lam = eigvalsh3(dec.gram)
        assert lam[2] >= -1e-10  # positive semidefinite
        dg = geometric_discord(enc)
        assert -1e-12 <= dg <= 1.0 / 12.0 + 1e-12


def test_planar_discord_capped_at_sixteenth():
    rng = np.random.default_rng(44)
    for _ in range(300):
        enc = encoding_states(rng.uniform(0, 2 * np.pi, 4))
        assert geometric_discord(enc) <= 1.0 / 16.0 + 1e-12


def test_geometric_discord_z_rotation_invariant():
    rng = np.random.default_rng(45)
    for _ in range(50):
        enc = random_encoding(rng)
        chi = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(chi), np.sin(chi)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.isclose(
            geometric_discord(enc.bloch @ rot.T), geometric_discord(enc), atol=1e-9
        )


def test_gd8_batch_matches_scalar_path():
    rng = np.random.default_rng(46)
    delta = rng.uniform(0, 2 * np.pi, (200, 4))
    phi = rng.uniform(0, 2 * np.pi, (200, 2))
    batch = gd8_batch(delta[:, 0], delta[:, 1], delta[:, 2], delta[:, 3], phi[:, 0], phi[:, 1])
    for k in range(200):
        scalar = 8.0 * geometric_discord(encoding_states(delta[k], phi[k]))
        assert np.isclose(batch[k], scalar, atol=1e-12)


def test_gd8_batch_broadcasts():
    d = np.linspace(0, 2 * np.pi, 5)
    out = gd8_batch(d[:, None], d[None, :], 0.0, 0.0, 0.0, 0.0)
    assert out.shape == (5, 5)


def test_geometric_discord_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        geometric_discord(np.full((4, 3), np.nan))
