"""Derivative-free local search: an n-dimensional compass search, and its
use on the unit sphere.

The refinements are compass (pattern) searches rather than gradient
methods because the objectives here have absolute-value kinks at spectrum
degeneracies, where gradients are undefined and line searches along one
coordinate stall. Each step scores the whole stencil of neighbours in one
vectorised objective call. All routines are deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def compass_search(f, x, steps, tol, max_evals):
    """Compass-search minimisation of ``f`` from the point ``x``.

    ``f`` takes an (m, n) array of points and returns their m values.
    Each iteration scores the 3^n - 1 points x + h * d, d in
    {-1, 0, 1}^n minus the origin, in one call and moves to the best of
    them if it beats the current value, then doubles the steps ``h`` again
    up to their starting values ``steps``; otherwise the steps are
    halved. Regrowing the steps lets the search follow a curved ridge at
    a useful pace instead of crawling along it at the smallest step that
    once found an improvement. Stops when every step is at most ``tol``.

    Returns (x, value, evaluations), ``value`` the smallest objective
    value seen, never above the start value. Raises RuntimeError if the
    budget is exhausted first, which signals a pathological objective.
    """
    x = np.array(x, dtype=float)
    h0 = np.broadcast_to(np.asarray(steps, dtype=float), x.shape)
    # The neighbours of the centre of a 3^n pattern at the starting steps;
    # their order fixes the tie-break between them. The current steps are
    # scale * h0, scale a power of two, so every move is exact.
    moves = h0 * np.array([d for d in itertools.product((-1, 0, 1), repeat=len(x)) if any(d)])
    h_max = float(h0.max())
    best = float(f(x[None, :])[0])
    evals = 1
    scale = 1.0
    while scale * h_max > tol:
        points = x + scale * moves
        vals = f(points)
        evals += len(moves)
        if evals > max_evals:
            raise RuntimeError(f"compass search did not converge within {max_evals} evaluations")
        k = int(np.argmin(vals))
        if vals[k] < best:
            x, best = points[k], float(vals[k])
            scale = min(2.0 * scale, 1.0)
        else:
            scale *= 0.5
    return x, best, evals


def refine_on_sphere(f, theta, phi, dtheta, dphi, tol, max_evals):
    """:func:`compass_search` of ``f(thetas, phis)`` over (theta, phi).

    ``f`` takes equal-length arrays of polar and azimuth angles. Angles
    are left unclamped; the sphere map is periodic and smooth, so
    out-of-range angles are harmless. Returns (theta, phi, value,
    evaluations).
    """
    x, best, evals = compass_search(
        lambda p: f(p[:, 0], p[:, 1]), (theta, phi), (dtheta, dphi), tol, max_evals
    )
    return float(x[0]), float(x[1]), best, evals
