"""Property tests for the structural identities the discord minimiser rests on."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qracdiscord.discord import conditional_entropy_grid, mutual_information, quantum_discord
from qracdiscord.encoding import encoding_states
from qracdiscord.geodiscord import geometric_discord

angle = st.floats(0.0, 2.0 * math.pi)
six_angles = st.tuples(*([angle] * 6))
# The optimal encoding (top eigenvalue of F repeated) and the tetrahedral
# encoding (all three repeated), where closed-form spectra lose accuracy.
_HALF_TETRA = math.acos(-1.0 / 3.0) / 2.0
DEGENERATE = (
    (0.0,) * 6,
    (-math.pi / 8, _HALF_TETRA - 7 * math.pi / 8, _HALF_TETRA - 3 * math.pi / 8,
     _HALF_TETRA - 5 * math.pi / 8, 2 * math.pi / 3, 4 * math.pi / 3),
)
quaternion = st.tuples(*([st.floats(-1.0, 1.0)] * 4)).filter(
    lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3
)
direction = st.tuples(*([st.floats(-1.0, 1.0)] * 3)).filter(
    lambda v: math.hypot(*v) > 1e-3
)


@settings(deadline=None, max_examples=50)
@given(six_angles, direction)
def test_conditional_entropy_even_in_direction(params, a):
    # H(a) = H(-a): the two outcomes swap, so a hemisphere scan suffices.
    enc = encoding_states(params[:4], params[4:])
    a = np.array(a) / math.hypot(*a)
    h_plus, h_minus = conditional_entropy_grid(enc.bloch, np.stack([a, -a]))
    assert abs(h_plus - h_minus) <= 1e-12


@settings(deadline=None, max_examples=15)
@given(six_angles)
def test_discord_between_zero_and_mutual_information(params):
    enc = encoding_states(params[:4], params[4:])
    value, _ = quantum_discord(enc)
    assert -1e-12 <= value <= mutual_information(enc) + 1e-12


def _rotation(q):
    w, x, y, z = np.array(q) / math.sqrt(sum(c * c for c in q))
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.sampled_from(DEGENERATE), six_angles), quaternion)
def test_geometric_discord_rotation_invariant(params, q):
    # F -> R F R^t keeps the spectrum; this must hold to roundoff even at
    # a repeated top eigenvalue.
    enc = encoding_states(params[:4], params[4:])
    rotated = enc.bloch @ _rotation(q).T
    assert abs(geometric_discord(rotated) - geometric_discord(enc)) <= 1e-13
