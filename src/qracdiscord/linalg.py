"""Dense linear-algebra and entropy kernel for dimensions up to 8.

Everything operates on plain numpy arrays; matrices here are tiny (at most
8x8), so no sparse or large-scale machinery is involved. Entropies are in
bits (base-2 logarithms) with the convention 0 log 0 = 0. Spectra are
returned sorted nonincreasing, and eigenvalues in [-1e-10, 0) are clamped
to zero before any logarithm: rank-deficient spectra are the generic case
in this problem.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-12
NEG_EIG_TOL = 1e-10
ZERO_EIG = 1e-12
PROB_SUM_TOL = 1e-10

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# Diagonal SU(4) generators, normalised so that Tr(W_i W_j) = 2 delta_ij.
W_DIAG = np.array(
    [
        np.diag([1.0, -1.0, 0.0, 0.0]),
        np.diag([1.0, 1.0, -2.0, 0.0]) / np.sqrt(3.0),
        np.diag([1.0, 1.0, 1.0, -3.0]) / np.sqrt(6.0),
    ]
)


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduced operator of a bipartite matrix.

    ``dims`` is (dA, dB); ``keep`` selects the surviving factor, 0 for the
    first and 1 for the second. The trace of the result equals the trace
    of the input.
    """
    rho = np.asarray(rho)
    da, db = dims
    if rho.shape != (da * db, da * db):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    blocks = rho.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("abcb->ac", blocks)
    if keep == 1:
        return np.einsum("abad->bd", blocks)
    raise ValueError("keep must be 0 or 1")


def density_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density operator, clamped and sorted nonincreasing.

    Raises ValueError if the operator is not Hermitian within 1e-12
    entrywise or has an eigenvalue below -1e-10.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > HERM_TOL:
        raise ValueError("operator is not Hermitian within tolerance")
    lam = np.linalg.eigvalsh(rho)
    if lam[0] < -NEG_EIG_TOL:
        raise ValueError(f"eigenvalue {lam[0]:.3e} below -{NEG_EIG_TOL:.0e}")
    return np.maximum(lam, 0.0)[::-1]


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits."""
    lam = density_spectrum(rho)
    lam = lam[lam > ZERO_EIG]
    return float(-np.sum(lam * np.log2(lam)))


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits, with 0 log 0 = 0.

    Entries may undershoot zero by at most 1e-12 and must sum to 1 within
    1e-10; anything worse raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    if p.size and p.min() < -ZERO_EIG:
        raise ValueError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    q = p[p > 0.0]
    return float(-np.sum(q * np.log2(q)))


def eigvalsh3_components(g11, g22, g33, g12, g13, g23):
    """Eigenvalues of real symmetric 3x3 matrices given entrywise.

    All arguments broadcast; returns three arrays sorted nonincreasing.
    Uses the trigonometric closed form of the characteristic cubic, with
    the arccos argument clamped against roundoff, so the eigenvalue sum
    matches the trace to machine precision. Near a repeated top eigenvalue
    the arccos loses half the digits, leaving the top eigenvalue accurate
    to about 1e-9; :func:`eigvalsh3` stays accurate there.
    """
    g11, g22, g33, g12, g13, g23 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (g11, g22, g33, g12, g13, g23))
    )
    q = (g11 + g22 + g33) / 3.0
    off = g12 * g12 + g13 * g13 + g23 * g23
    p2 = (g11 - q) ** 2 + (g22 - q) ** 2 + (g33 - q) ** 2 + 2.0 * off
    p = np.sqrt(p2 / 6.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        b11 = (g11 - q) / p
        b22 = (g22 - q) / p
        b33 = (g33 - q) / p
        b12 = g12 / p
        b13 = g13 / p
        b23 = g23 / p
        half_det = 0.5 * (
            b11 * (b22 * b33 - b23 * b23)
            - b12 * (b12 * b33 - b23 * b13)
            + b13 * (b12 * b23 - b22 * b13)
        )
    angle = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    hi = q + 2.0 * p * np.cos(angle)
    lo = q + 2.0 * p * np.cos(angle + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - hi - lo
    # p2 == 0 means a scalar matrix: all eigenvalues equal the mean.
    scalar = p2 <= 0.0
    hi = np.where(scalar, q, hi)
    mid = np.where(scalar, q, mid)
    lo = np.where(scalar, q, lo)
    lam = np.sort(np.stack([hi, mid, lo], axis=-1), axis=-1)
    return lam[..., 2], lam[..., 1], lam[..., 0]


def eigvalsh3(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of one real symmetric 3x3 matrix, sorted nonincreasing.

    Accurate to roundoff relative to the matrix norm, repeated eigenvalues
    included. Raises ValueError if ``g`` is asymmetric beyond 1e-12.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {g.shape}")
    if np.abs(g - g.T).max() > HERM_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(g)[::-1]
