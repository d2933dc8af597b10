"""Geometric discord from the frame operator of the four Bloch vectors.

With the measurement on the qubit (m = 2) and the four-dimensional
register as the other side (n = 4), the geometric discord of the
classical-quantum state follows from its Bloch decomposition
(Dakic-Vedral-Brukner, PRL 105, 190502 (2010)): the qubit marginal x
and the correlations T against the three diagonal SU(4) generators
(states diagonal in the register basis have no overlap with the
off-diagonal ones). It is (tr G - lambda_max(G)) / 8 with

    G = x x^t + T T^t / 2.

Since (1, 1, 1, 1) / 2 and the three normalised generator diagonals are
an orthonormal basis of R^4, G is the frame operator of the Bloch
vectors r_a, F = (1/4) sum_a r_a r_a^t, and everything here is computed
from F; :func:`bloch_decompose` stays as the reference for the identity.
For pure encodings tr F = 1, so 8 D_G = 1 - lambda_max(F) <= 2/3, with
equality exactly at tight frames, F = I/3 (Benedetto-Fickus, Adv.
Comput. Math. 18 (2003)), such as the tetrahedral encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import BASE_ANGLES, EncodingSet, as_bloch
from .linalg import W_DIAG, eigvalsh3, eigvalsh3_components


@dataclass(frozen=True)
class BlochDecomposition:
    """Local vector, correlation block and their positive combination."""

    x: np.ndarray     # (3,) qubit Bloch marginal
    corr: np.ndarray  # (3, 3) correlations against the diagonal generators
    gram: np.ndarray  # (3, 3) symmetric PSD, x x^t + corr corr^t / 2


def bloch_decompose(enc) -> BlochDecomposition:
    """Bloch decomposition of the classical-quantum state, with
    T_ij = (1/2) sum_a r_ai W_j[a, a] for the Bloch vectors r_a."""
    bloch = as_bloch(enc)
    x = bloch.mean(axis=0)
    corr = 0.5 * bloch.T @ np.diagonal(W_DIAG, axis1=1, axis2=2).T
    gram = np.outer(x, x) + 0.5 * (corr @ corr.T)
    return BlochDecomposition(x=x, corr=corr, gram=gram)


def frame_operator(enc) -> np.ndarray:
    """Frame operator F = (1/4) sum_a r_a r_a^t of the four Bloch vectors."""
    bloch = as_bloch(enc)
    return 0.25 * (bloch.T @ bloch)


def geometric_discord(enc) -> float:
    """Geometric discord (tr F - lambda_max(F)) / 8."""
    frame = frame_operator(enc)
    return float(np.trace(frame) - eigvalsh3(frame)[0]) / 8.0


def planar_gd_closed(delta) -> tuple[np.ndarray, float]:
    """Closed-form spectrum of F and geometric discord for planar encodings.

    ``delta`` is the four half-angle offsets (an EncodingSet is accepted
    if its phases are exactly zero). The spectrum is

        { (4 + s)/8, (4 - s)/8, 0 },   s = sqrt(2 D),
        D = 2 + cos 4(d1-d4) + cos 4(d2-d3) - cos 4(d1-d2)
              - cos 4(d1-d3) - cos 4(d2-d4) - cos 4(d3-d4),

    with D clamped to [0, 8] against roundoff. Returns the eigenvalues
    sorted nonincreasing and D_G = (4 - s)/64. For the symmetric rotation
    (d, -d, -d, d) this reduces to D_G = (1 - |sin 4d|)/16.
    """
    if isinstance(delta, EncodingSet):
        if np.any(delta.phi != 0.0):
            raise ValueError("closed form requires planar encodings (zero phases)")
        delta = delta.delta
    d1, d2, d3, d4 = np.asarray(delta, dtype=float)
    disc = (
        2.0
        + np.cos(4.0 * (d1 - d4))
        + np.cos(4.0 * (d2 - d3))
        - np.cos(4.0 * (d1 - d2))
        - np.cos(4.0 * (d1 - d3))
        - np.cos(4.0 * (d2 - d4))
        - np.cos(4.0 * (d3 - d4))
    )
    disc = min(max(disc, 0.0), 8.0)
    s = np.sqrt(2.0 * disc)
    lam = np.array([(4.0 + s) / 8.0, (4.0 - s) / 8.0, 0.0])
    return lam, float(lam[1]) / 8.0


def gd8_batch(d1, d2, d3, d4, p1, p2) -> np.ndarray:
    """Normalised geometric discord 8 D_G over broadcastable angle arrays.

    The six arguments are the four offsets and two phases; any
    broadcast-compatible shapes work. This is the hot kernel of the grid
    search, so the six entries of F are built componentwise instead of
    materialising stacked (..., 4, 3) arrays; the closed-form top
    eigenvalue is accurate to about 1e-9 near tight frames.
    """
    t1 = 2.0 * (BASE_ANGLES[0] + np.asarray(d1, dtype=float))
    t2 = 2.0 * (BASE_ANGLES[1] + np.asarray(d2, dtype=float))
    t3 = 2.0 * (BASE_ANGLES[2] + np.asarray(d3, dtype=float))
    t4 = 2.0 * (BASE_ANGLES[3] + np.asarray(d4, dtype=float))
    x1, z1 = np.sin(t1), np.cos(t1)
    x2, z2 = np.sin(t2), np.cos(t2)
    s3, z3 = np.sin(t3), np.cos(t3)
    s4, z4 = np.sin(t4), np.cos(t4)
    x3, y3 = s3 * np.cos(p1), s3 * np.sin(p1)
    x4, y4 = s4 * np.cos(p2), s4 * np.sin(p2)
    # 4 F entrywise; the first two vectors lie in the xz plane.
    fxx = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
    fyy = y3 * y3 + y4 * y4
    fzz = z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4
    fxy = x3 * y3 + x4 * y4
    fxz = x1 * z1 + x2 * z2 + x3 * z3 + x4 * z4
    fyz = y3 * z3 + y4 * z4
    lam_max, _, _ = eigvalsh3_components(fxx, fyy, fzz, fxy, fxz, fyz)
    return 0.25 * (fxx + fyy + fzz - lam_max)
