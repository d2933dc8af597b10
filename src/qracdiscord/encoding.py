"""Parameterisation of the four pure-qubit encoding states.

The register values a in {00, 01, 10, 11} are encoded as

    |state(a)> = cos(alpha_a)|0> + exp(i phase_a) sin(alpha_a)|1>,

where the half-angles alpha_a are offsets delta1..delta4 from the optimal
values (pi/8, 7pi/8, 3pi/8, 5pi/8) and the phases are (0, 0, phi1, phi2):
states 00 and 01 always stay in the x-z plane of the Bloch sphere. A state
with half-angle alpha and phase phi has the unit Bloch vector

    (sin 2alpha cos phi, sin 2alpha sin phi, cos 2alpha).

The joint register-qubit state is the uniform classical-quantum mixture
(1/4) sum_a |a><a| (x) rho_a, an 8x8 block-diagonal matrix in register
order 00, 01, 10, 11.

Every quantity in this package depends on the encoding only through the
four Bloch vectors, so functions documented as taking ``enc`` accept
either an EncodingSet or a bare (4, 3) array of unit Bloch vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI

BASE_ANGLES = np.array([np.pi / 8, 7 * np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8])
BASE_ANGLES.setflags(write=False)

UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EncodingSet:
    """Four pure encoding states: offsets, phases and derived Bloch vectors.

    Values are immutable after construction and safe to share between
    workers. Build instances with :func:`encoding_states` or
    :func:`planar_rotation`.
    """

    delta: np.ndarray  # (4,) half-angle offsets, radians
    phi: np.ndarray    # (2,) phases of states 10 and 11, radians
    bloch: np.ndarray  # (4, 3) unit Bloch vectors, register order

    @property
    def half_angles(self) -> np.ndarray:
        """The four half-angles alpha_a = base + delta."""
        return BASE_ANGLES + self.delta


def bloch_batch(delta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bloch vectors for batches of encodings.

    ``delta`` has shape (..., 4) and ``phi`` shape (..., 2); the result has
    shape (..., 4, 3).
    """
    delta = np.asarray(delta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta = 2.0 * (BASE_ANGLES + delta)
    phases = np.zeros(delta.shape[:-1] + (4,))
    phases[..., 2] = phi[..., 0]
    phases[..., 3] = phi[..., 1]
    sin_t = np.sin(theta)
    return np.stack(
        [sin_t * np.cos(phases), sin_t * np.sin(phases), np.cos(theta)], axis=-1
    )


def encoding_states(delta, phi=(0.0, 0.0)) -> EncodingSet:
    """Build an EncodingSet from four offsets and two phases (radians)."""
    delta = np.array(delta, dtype=float)
    phi = np.array(phi, dtype=float)
    if delta.shape != (4,) or phi.shape != (2,):
        raise ValueError("expected 4 offsets and 2 phases")
    if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(phi))):
        raise ValueError("angles must be finite")
    bloch = bloch_batch(delta, phi)
    for arr in (delta, phi, bloch):
        arr.setflags(write=False)
    return EncodingSet(delta=delta, phi=phi, bloch=bloch)


def planar_rotation(delta: float) -> EncodingSet:
    """Symmetric in-plane rotation: offsets (d, -d, -d, d) with zero phases.

    The two orthogonal encoding bases counter-rotate by the same angle;
    delta = 0 is the optimal encoding and delta = pi/8 collapses both bases
    onto the +-x axis.
    """
    d = float(delta)
    return encoding_states((d, -d, -d, d))


def state_kets(enc: EncodingSet) -> np.ndarray:
    """The four encoding state vectors as a (4, 2) complex array."""
    alpha = enc.half_angles
    phases = np.array([0.0, 0.0, enc.phi[0], enc.phi[1]])
    return np.stack([np.cos(alpha) + 0.0j, np.exp(1j * phases) * np.sin(alpha)], axis=-1)


def as_bloch(enc) -> np.ndarray:
    """Coerce an EncodingSet or raw array to (4, 3) unit Bloch vectors."""
    if isinstance(enc, EncodingSet):
        return enc.bloch
    b = np.asarray(enc, dtype=float)
    if b.shape != (4, 3):
        raise ValueError(f"expected an EncodingSet or a (4, 3) array, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("Bloch vectors must be finite")
    norms = np.linalg.norm(b, axis=1)
    if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
        raise ValueError("Bloch vectors must have unit norm")
    return b


def qubit_density(r) -> np.ndarray:
    """2x2 density operator (I + r . sigma) / 2 for a Bloch vector r."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2, dtype=complex) + np.einsum("i,ijk->jk", r, PAULI))


def cq_state(enc) -> np.ndarray:
    """The 8x8 classical-quantum state, block-diagonal in register order.

    Block a is rho_a / 4; the spectrum is {1/4 x4, 0 x4} for every pure
    encoding and the total trace is 1.
    """
    bloch = as_bloch(enc)
    out = np.zeros((8, 8), dtype=complex)
    for a in range(4):
        out[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = 0.25 * qubit_density(bloch[a])
    return out


def reduced_qubit(enc) -> np.ndarray:
    """Qubit marginal (I + rbar . sigma) / 2 with rbar the mean Bloch vector."""
    return qubit_density(as_bloch(enc).mean(axis=0))
