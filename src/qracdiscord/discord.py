"""Quantum discord of the register-qubit state, measured on the qubit.

A projective measurement (I +- a . sigma)/2 on the qubit collapses the
register to one of two conditional ensembles. The discord before
optimisation is

    S(qubit marginal) - S(joint) + sum_k p_k S(register | outcome k),

and the discord proper is its minimum over the unit sphere of directions.
The post-measurement arithmetic reduces to Bloch algebra: the outcome
probabilities are p_+- = (1 +- a . rbar)/2 and the unnormalised register
weights are (1 +- a . r_a)/8. A dense 8x8 route through explicit
projectors and partial traces is kept as an independent cross-check of
that fast path (:func:`conditional_ensemble_dense`).

The minimisation runs over unit-norm directions only. Subunit vectors
correspond to noisy measurements whose outcomes are a classical
post-processing of the unit-vector measurement, so they can only raise
the conditional entropy; the test suite checks this monotonicity rather
than assuming it silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import as_bloch, cq_state, qubit_density
from .linalg import ZERO_EIG, density_spectrum, partial_trace, vn_entropy
from .optimize import refine_on_sphere, sphere_grid, sphere_point
from .witness import unit_direction


# Measurement-sphere scan over the upper hemisphere, pole and equator
# included: polar step pi/180 and azimuth step pi/45, which places the
# in-plane minimisers of planar encodings (polar pi/4 at azimuth 0 or pi)
# exactly on the lattice. Both grids start at 0, so their second points
# are the steps.
SCAN_THETAS = np.linspace(0.0, np.pi / 2.0, 91)
SCAN_PHIS = np.linspace(0.0, 2.0 * np.pi, 91)
SCAN_DIRS = sphere_grid(SCAN_THETAS, SCAN_PHIS)

# Compass refinement of the best scan point: final step (radians) and
# evaluation budget.
REFINE_TOL = 1e-9
REFINE_MAX_EVALS = 10_000


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Post-measurement register ensemble for one measurement direction.

    ``spec_plus`` and ``spec_minus`` are the spectra of the conditional
    register states, each sorted nonincreasing and summing to 1. A branch
    of zero probability carries the uniform spectrum by convention, which
    is neutral in every entropy average.
    """

    p_plus: float
    p_minus: float
    spec_plus: np.ndarray
    spec_minus: np.ndarray


def _xlog2x(w: np.ndarray) -> np.ndarray:
    """Elementwise w log2 w, continued by 0 at w <= 0.

    No positive cutoff here: a threshold would carve a spurious dip into
    the objective near spectrum degeneracies, which the minimiser would
    then chase.
    """
    w = np.maximum(w, 0.0)
    return w * np.log2(np.where(w > 0.0, w, 1.0))


def _branch_spectrum(weights: np.ndarray, p: float) -> np.ndarray:
    if p <= ZERO_EIG:
        return np.full(4, 0.25)
    return np.sort(np.maximum(weights, 0.0) / p)[::-1]


def conditional_ensemble(enc, a) -> ConditionalEnsemble:
    """Conditional register ensemble via Bloch arithmetic (fast path)."""
    bloch = as_bloch(enc)
    a = unit_direction(a)
    dots = bloch @ a
    w_plus = 0.125 * (1.0 + dots)
    w_minus = 0.125 * (1.0 - dots)
    p_plus = float(w_plus.sum())
    p_minus = float(w_minus.sum())
    return ConditionalEnsemble(
        p_plus=p_plus,
        p_minus=p_minus,
        spec_plus=_branch_spectrum(w_plus, p_plus),
        spec_minus=_branch_spectrum(w_minus, p_minus),
    )


def conditional_ensemble_dense(enc, a) -> ConditionalEnsemble:
    """Conditional ensemble through the explicit 8x8 state.

    Applies (I (x) projector) to the joint density matrix, partial-traces
    out the qubit and diagonalises the conditional register states.
    Deliberately literal; exists as the oracle for the fast path.
    """
    rho = cq_state(enc)
    a = unit_direction(a)
    eye4 = np.eye(4, dtype=complex)
    out = []
    for sign in (+1.0, -1.0):
        proj = np.kron(eye4, qubit_density(sign * a))
        collapsed = proj @ rho @ proj
        p = float(np.trace(collapsed).real)
        if p > ZERO_EIG:
            spec = density_spectrum(partial_trace(collapsed / p, (4, 2), keep=0))
        else:
            spec = np.full(4, 0.25)
        out.append((p, spec))
    return ConditionalEnsemble(
        p_plus=out[0][0], p_minus=out[1][0], spec_plus=out[0][1], spec_minus=out[1][1]
    )


def conditional_entropy(enc, a) -> float:
    """Average register entropy after measuring along ``a``, in bits: a
    batch of one of :func:`conditional_entropy_grid`."""
    return float(conditional_entropy_grid(as_bloch(enc), unit_direction(a)[None, :])[0])


def conditional_entropy_grid(bloch: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Conditional entropies for many directions at once.

    ``bloch`` has shape (..., 4, 3) and ``dirs`` shape (m, 3); returns an
    array of shape (..., m). Uses p S(w/p) = -sum w log2 w + p log2 p,
    which avoids dividing by vanishing branch probabilities.
    """
    dots = np.asarray(bloch, dtype=float) @ np.asarray(dirs, dtype=float).T
    w_plus = 0.125 * (1.0 + dots)
    w_minus = 0.125 * (1.0 - dots)
    p_plus = w_plus.sum(axis=-2)
    p_minus = w_minus.sum(axis=-2)
    ent = -_xlog2x(w_plus).sum(axis=-2) - _xlog2x(w_minus).sum(axis=-2)
    return ent + _xlog2x(p_plus) + _xlog2x(p_minus)


def _entropy_offset(bloch: np.ndarray) -> np.ndarray:
    """S(qubit marginal) - S(joint), the direction-independent part.

    For pure encodings the joint spectrum is {1/4 x4, 0 x4}, so S(joint)
    is exactly 2 bits, and the qubit marginal has eigenvalues
    (1 +- |rbar|)/2 with rbar the mean Bloch vector. ``bloch`` has shape
    (..., 4, 3); returns shape (...). |rbar|^2 is a matmul, which takes
    the same dot product as np.linalg.norm of a single vector, so a batch
    gives bitwise the values of one call per encoding.
    """
    rbar = bloch.mean(axis=-2)[..., None, :]
    p = 0.5 * (1.0 + np.sqrt(rbar @ np.swapaxes(rbar, -1, -2))[..., 0, 0])
    return -(_xlog2x(p) + _xlog2x(1.0 - p)) - 2.0


def discord_pre_opt(enc, a) -> float:
    """Discord before optimisation, for a fixed measurement direction."""
    bloch = as_bloch(enc)
    return float(_entropy_offset(bloch)) + conditional_entropy(bloch, a)


def quantum_discord(enc):
    """Quantum discord and the minimising measurement direction.

    The conditional entropy is even in the direction, H(a) = H(-a), since
    the two outcomes swap, so only the upper hemisphere ``SCAN_DIRS`` is
    scanned (ties resolve to the smallest angle pair in lexicographic
    order). The best grid point is then polished by compass search from
    the grid steps down to ``REFINE_TOL``. Returns (value, unit
    direction).
    """
    bloch = as_bloch(enc)
    ent = conditional_entropy_grid(bloch, SCAN_DIRS)
    i, j = divmod(int(np.argmin(ent)), len(SCAN_PHIS))
    theta, phi, cond, _ = refine_on_sphere(
        lambda t, p: conditional_entropy_grid(bloch, sphere_point(t, p)),
        SCAN_THETAS[i],
        SCAN_PHIS[j],
        dtheta=SCAN_THETAS[1],
        dphi=SCAN_PHIS[1],
        tol=REFINE_TOL,
        max_evals=REFINE_MAX_EVALS,
    )
    return float(_entropy_offset(bloch)) + cond, sphere_point(theta, phi)


def mutual_information(enc) -> float:
    """Quantum mutual information of the register-qubit state, in bits."""
    rho = cq_state(enc)
    return (
        vn_entropy(partial_trace(rho, (4, 2), keep=0))
        + vn_entropy(partial_trace(rho, (4, 2), keep=1))
        - vn_entropy(rho)
    )


def classical_correlation(enc) -> float:
    """Classical correlation: register entropy minus minimised conditional
    entropy. Equals mutual_information - quantum_discord."""
    bloch = as_bloch(enc)
    discord, _ = quantum_discord(bloch)
    min_cond = discord - float(_entropy_offset(bloch))
    register_entropy = vn_entropy(partial_trace(cq_state(bloch), (4, 2), keep=0))
    return register_entropy - min_cond
