"""Decoding success probability and the two-dimensional quantum witness.

Conventions
-----------
- A measurement direction m defines the projector pair (I +- m . sigma)/2;
  outcome b = 0 is the projector along +m.
- Measurement y in {0, 1} decodes bit a_{y+1} of the register a = a1 a2,
  and outcome 0 decodes to bit value 0. This is the unique convention for
  which the optimal encoding scores (2 + sqrt(2))/4 with m0 = z, m1 = x.
- The witness is T = sum_{a,y} c_{a,y} P(b=0 | a, y) with the sign table
  below. Each column sums to zero, so the constant halves of the Born
  probabilities cancel and T = (m0 . v0 + m1 . v1) / 2 with
  v_y = sum_a c_{a,y} r_a. Qubit strategies obey T <= 2 sqrt(2), and for
  any fixed measurement pair the success probability satisfies
  P = 1/2 + T/8.
"""

from __future__ import annotations

import numpy as np

from .encoding import as_bloch

# Rows: registers 00, 01, 10, 11. Columns: measurements y = 0, 1.
SIGN_TABLE = np.array(
    [
        [+1.0, +1.0],
        [+1.0, -1.0],
        [-1.0, +1.0],
        [-1.0, -1.0],
    ]
)
SIGN_TABLE.setflags(write=False)

# Bit a_{y+1} requested from register a under measurement y.
REGISTER_BITS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
REGISTER_BITS.setflags(write=False)

DIRECTION_NORM_TOL = 1e-12


def unit_direction(m) -> np.ndarray:
    """Validate a measurement direction: a unit 3-vector within 1e-12."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {m.shape}")
    if abs(np.linalg.norm(m) - 1.0) > DIRECTION_NORM_TOL:
        raise ValueError("measurement direction must have unit norm")
    return m


def success_probability(enc, m0, m1) -> float:
    """Mean probability of decoding the requested bit correctly.

    Averages the Born probability of the correct outcome over the eight
    uniformly weighted (register, measurement) pairs.
    """
    bloch = as_bloch(enc)
    total = 0.0
    for y, m in enumerate((unit_direction(m0), unit_direction(m1))):
        wanted_zero = 1.0 - 2.0 * REGISTER_BITS[:, y]  # +1 when bit a_{y+1} is 0
        total += float(np.sum(0.5 * (1.0 + wanted_zero * (bloch @ m))))
    return total / 8.0


def witness_vectors(enc) -> np.ndarray:
    """The two sign-weighted Bloch sums v_y, as a (2, 3) array."""
    return SIGN_TABLE.T @ as_bloch(enc)


def witness_value(enc, m0, m1) -> float:
    """Witness T = (v0 . m0 + v1 . m1) / 2 for a fixed measurement pair."""
    v = witness_vectors(enc)
    return 0.5 * float(v[0] @ unit_direction(m0) + v[1] @ unit_direction(m1))


def witness_max_closed(enc) -> tuple[float, np.ndarray, np.ndarray]:
    """Global witness maximum over projective measurement pairs.

    T is linear in each measurement direction, so the maximum is
    (|v0| + |v1|) / 2, attained at m_y = v_y / |v_y|. A vanishing v_y
    leaves T independent of that measurement; the x axis is returned as
    the fixed stand-in direction.

    Returns (t_max, m0, m1).
    """
    v = witness_vectors(enc)
    norms = np.linalg.norm(v, axis=1)
    dirs = [
        v[y] / norms[y] if norms[y] > 0.0 else np.array([1.0, 0.0, 0.0])
        for y in range(2)
    ]
    return 0.5 * float(norms.sum()), dirs[0], dirs[1]
