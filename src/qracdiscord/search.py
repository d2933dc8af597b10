"""Six-angle grid search, local refinement and rotation sweeps.

The grid search maximises the normalised geometric discord 8 D_G over the
lattice {lo + k step < hi} in each of the six angles (half-open ranges,
anchored at the range start; angles are periodic so the excluded endpoint
is immaterial). Evaluation is vectorised in slabs over the first axis and
optionally distributed over a process pool; the reduction is a maximum
with a lexicographic tie-break on the lattice indices, so results are
identical for any worker count. The local refinement is a compass search
over all six angles, starting at the lattice step.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .discord import _entropy_offset, conditional_entropy_grid, quantum_discord
from .encoding import as_bloch, encoding_states, planar_rotation
from .geodiscord import gd8_batch, geometric_discord
from .optimize import compass_search, refine_on_sphere, sphere_grid, sphere_point
from .witness import witness_max_closed, witness_vectors

TWO_PI = 2.0 * math.pi

GRID_CELL_GUARD = 1_000_000_000

# Local refinement: final step (radians) and evaluation budget.
REFINE_TOL = 1e-12
REFINE_MAX_EVALS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Lattice specification for the six-angle search.

    ``ranges`` holds one closed-open interval per angle, in the order
    delta1..delta4, phi1, phi2. A range shorter than one step pins that
    angle to the range start.
    """

    step: float
    ranges: tuple = ((0.0, TWO_PI),) * 6
    workers: int = 1


@dataclass(frozen=True)
class SearchResult:
    """Best lattice point found: angles, 8 D_G there, witness maximum and
    the number of objective evaluations."""

    params: np.ndarray
    gd8: float
    t_max: float
    evaluations: int


@dataclass(frozen=True)
class SweepRecord:
    """One row of a rotation sweep."""

    delta: float
    qd: float
    gd8: float
    t_minus_2: float


def grid_lattice(lo: float, hi: float, step: float) -> np.ndarray:
    """Lattice points lo + k step < hi, always at least the range start."""
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not hi > lo:
        raise ValueError("range must be nonempty")
    n = max(1, math.ceil((hi - lo) / step - 1e-12))
    return lo + step * np.arange(n)


def _grid_slab(i0: int, axes) -> tuple[float, tuple[int, ...]]:
    """Maximum of 8 D_G over one slab of the lattice (first index fixed).

    Returns (value, full index tuple); np.argmax picks the first maximum
    in C order, which is the lexicographically smallest index.
    """
    vals = gd8_batch(
        axes[0][i0],
        axes[1][:, None, None, None, None],
        axes[2][None, :, None, None, None],
        axes[3][None, None, :, None, None],
        axes[4][None, None, None, :, None],
        axes[5][None, None, None, None, :],
    )
    k = int(np.argmax(vals))
    return float(vals.flat[k]), (i0, *np.unravel_index(k, vals.shape))


def grid_search_gd(spec: GridSpec, force: bool = False) -> SearchResult:
    """Exhaustive lattice search for the maximal normalised geometric discord.

    Refuses grids above 1e9 cells unless ``force`` is set. The winner's
    witness maximum is evaluated with the closed form.
    """
    if spec.workers < 1:
        raise ValueError("workers must be >= 1")
    axes = [grid_lattice(lo, hi, spec.step) for lo, hi in spec.ranges]
    cells = math.prod(len(ax) for ax in axes)
    if cells > GRID_CELL_GUARD and not force:
        raise RuntimeError(
            f"grid has {cells} cells (guard {GRID_CELL_GUARD}); pass force to run anyway"
        )
    slab_indices = range(len(axes[0]))
    if spec.workers > 1:
        with multiprocessing.Pool(spec.workers) as pool:
            slabs = pool.starmap(
                _grid_slab, [(i, axes) for i in slab_indices], chunksize=1
            )
    else:
        slabs = [_grid_slab(i, axes) for i in slab_indices]

    best_val = -math.inf
    best_idx: tuple[int, ...] | None = None
    for val, idx in slabs:  # slab order is ascending in the first index
        if val > best_val:
            best_val, best_idx = val, idx
    params = np.array([axes[d][best_idx[d]] for d in range(6)])
    t_max, _, _ = witness_max_closed(encoding_states(params[:4], params[4:]))
    return SearchResult(params=params, gd8=best_val, t_max=t_max, evaluations=cells)


def refine_local(start, step: float) -> SearchResult:
    """Compass-search ascent on 8 D_G from a six-angle starting point.

    Runs :func:`compass_search` on -8 D_G with every starting step equal
    to ``step`` (the lattice step, for a search winner) down to
    ``REFINE_TOL``. The value never decreases. The step never grows past
    ``step``, so a small ``step`` far from a maximum cannot travel far:
    the search then raises RuntimeError once it is still moving after
    ``REFINE_MAX_EVALS`` evaluations. Start at the lattice step.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    start = np.asarray(start, dtype=float)
    if start.shape != (6,):
        raise ValueError("expected six angles")
    params, neg, evals = compass_search(
        lambda p: -gd8_batch(*p.T), start, step, REFINE_TOL, REFINE_MAX_EVALS
    )
    t_max, _, _ = witness_max_closed(encoding_states(params[:4], params[4:]))
    return SearchResult(params=params, gd8=-neg, t_max=t_max, evaluations=evals)


def witness_max_numeric(
    enc, grid_points: int = 50, tol: float = 1e-8, max_evals: int = 10_000
) -> tuple[float, np.ndarray, np.ndarray]:
    """Witness maximum by sphere scan plus compass refinement.

    Derivative-free cross-check of :func:`witness_max_closed`; not used on
    any hot path. Returns (t, m0, m1).
    """
    v = witness_vectors(enc)
    thetas = np.linspace(0.0, np.pi, grid_points)
    phis = np.linspace(0.0, TWO_PI, grid_points)
    grid = sphere_grid(thetas, phis)
    total = 0.0
    dirs = []
    for vy in v:
        k = int(np.argmax(grid @ vy))
        i, j = divmod(k, grid_points)
        theta, phi, neg, _ = refine_on_sphere(
            lambda t, p: -(sphere_point(t, p) @ vy),
            thetas[i],
            phis[j],
            dtheta=thetas[1] - thetas[0],
            dphi=phis[1] - phis[0],
            tol=tol,
            max_evals=max_evals,
        )
        total -= neg
        dirs.append(sphere_point(theta, phi))
    return 0.5 * total, dirs[0], dirs[1]


def sweep_planar(start: float, stop: float, steps: int) -> list[SweepRecord]:
    """Symmetric-rotation sweep of discord, 8 D_G and the witness excess.

    The witness column is the closed-form maximum re-optimised at every
    angle; for this symmetric family the optimal measurements coincide
    with the fixed optimal-encoding pair, so either convention gives the
    same curve.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    records = []
    for delta in np.linspace(start, stop, steps):
        enc = planar_rotation(delta)
        qd, _ = quantum_discord(enc)
        t_max, _, _ = witness_max_closed(enc)
        records.append(
            SweepRecord(
                delta=float(delta),
                qd=float(qd),
                gd8=8.0 * geometric_discord(enc),
                t_minus_2=t_max - 2.0,
            )
        )
    return records


def sweep_preopt_plane(enc, steps: int = 512, fd_step: float = 1e-5) -> np.ndarray:
    """Pre-optimisation discord along the in-plane directions
    (cos t, 0, sin t) for t in [0, pi).

    Returns an array with columns (t, value, derivative), the derivative
    by central differences with step ``fd_step``. This is the curve whose
    minima sit at t = pi/4 and 3pi/4 for the optimal encoding.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    bloch = as_bloch(enc)
    offset = _entropy_offset(bloch)

    def values(ts: np.ndarray) -> np.ndarray:
        dirs = np.stack([np.cos(ts), np.zeros_like(ts), np.sin(ts)], axis=-1)
        return offset + conditional_entropy_grid(bloch, dirs)

    ts = np.linspace(0.0, np.pi, steps, endpoint=False)
    vals = values(ts)
    deriv = (values(ts + fd_step) - values(ts - fd_step)) / (2.0 * fd_step)
    return np.column_stack([ts, vals, deriv])
