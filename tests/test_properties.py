"""Property tests for the structural identities the discord minimiser rests on."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qracdiscord.discord import conditional_entropy_grid, mutual_information, quantum_discord
from qracdiscord.encoding import encoding_states

angle = st.floats(0.0, 2.0 * math.pi)
six_angles = st.tuples(*([angle] * 6))
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
