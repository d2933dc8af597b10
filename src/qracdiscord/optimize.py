"""Derivative-free search helpers on the unit sphere.

The sphere refinement is a compass (pattern) search rather than a
gradient method because the objectives here have absolute-value kinks at
spectrum degeneracies, where gradients are undefined and line searches
along one angle stall. Each step scores a whole stencil of directions in
one vectorised objective call. All routines are deterministic.
"""

from __future__ import annotations

import numpy as np

# The eight neighbours of the centre of a 3x3 pattern, in units of the
# current (theta, phi) steps; order fixes the tie-break between them.
COMPASS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)


def sphere_point(theta, phi) -> np.ndarray:
    """Unit vector at polar angle ``theta`` (from +z) and azimuth ``phi``.

    The angles broadcast against each other; the result has their shape
    plus a trailing axis of length 3.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def sphere_grid(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """All (theta, phi) combinations as unit vectors, polar index major.

    The flattened row order matches C order over (theta, phi), so the
    first occurrence of an extremum is the lexicographically smallest
    angle pair.
    """
    return sphere_point(np.asarray(thetas)[:, None], np.asarray(phis)[None, :]).reshape(-1, 3)


def refine_on_sphere(f, theta, phi, dtheta, dphi, tol, max_evals):
    """Compass-search refinement of ``f(thetas, phis)`` from a grid point.

    ``f`` takes equal-length arrays of polar and azimuth angles and
    returns one value per pair. Each iteration scores the eight stencil
    points (theta +- dtheta, phi +- dphi) in one call and moves to the
    best of them if it beats the current value; otherwise both steps are
    halved. Stops when both steps are at most ``tol``. Angles are left
    unclamped; the sphere map is periodic and smooth, so out-of-range
    angles are harmless.

    Returns (theta, phi, value, evaluations), where ``value`` is the
    smallest objective value seen, never above the start value. Raises
    RuntimeError if the evaluation budget is exhausted before
    convergence, which signals a pathological objective.
    """
    theta, phi = float(theta), float(phi)
    best = float(f(np.array([theta]), np.array([phi]))[0])
    evals = 1
    ht, hp = float(dtheta), float(dphi)
    while ht > tol or hp > tol:
        thetas = theta + ht * COMPASS[:, 0]
        phis = phi + hp * COMPASS[:, 1]
        vals = f(thetas, phis)
        evals += len(COMPASS)
        if evals > max_evals:
            raise RuntimeError(
                f"sphere refinement did not converge within {max_evals} evaluations"
            )
        k = int(np.argmin(vals))
        if vals[k] < best:
            theta, phi, best = float(thetas[k]), float(phis[k]), float(vals[k])
        else:
            ht *= 0.5
            hp *= 0.5
    return theta, phi, best, evals
