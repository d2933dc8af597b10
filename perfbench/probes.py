"""Per-layer probes: seeded inputs timed through each module's public functions.

Each probe times one call pattern, checks a property of its output that
must hold for any input (so a wrong kernel counts as a failed operation),
and returns (metrics, attempted, failed). Timings are medians of repeats
after one untimed warm-up call; the slab probe skips the warm-up so that
its process's memory peak is the slab's own.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from qracdiscord.discord import conditional_ensemble_dense, conditional_entropy_grid
from qracdiscord.encoding import bloch_batch, encoding_states
from qracdiscord.geodiscord import gd8_batch, geometric_discord, planar_gd_closed
from qracdiscord.linalg import eigvalsh3_components
from qracdiscord.optimize import sphere_grid
from qracdiscord.witness import witness_max_closed

TWO_PI = 2.0 * math.pi
GATE = 1e-9
REPEATS = 7
SCALAR_CALLS = 2000
SCALAR_BLOCKS = 10


def _median_s(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _per_call_us(fn, inputs) -> float:
    """Median per-call time over equal blocks of ``inputs``, in microseconds."""
    fn(inputs[0])
    size = len(inputs) // SCALAR_BLOCKS
    times = []
    for b in range(SCALAR_BLOCKS):
        block = inputs[b * size:(b + 1) * size]
        start = time.perf_counter()
        for item in block:
            fn(item)
        times.append((time.perf_counter() - start) / size)
    return statistics.median(times) * 1e6


def _angles(rng, n):
    return rng.uniform(0.0, TWO_PI, size=(n, 4)), rng.uniform(0.0, TWO_PI, size=(n, 2))


def _entropy_ok(values) -> bool:
    return bool(np.all(np.isfinite(values)) and values.min() >= -GATE and values.max() <= 2 + GATE)


def probe_discord(rng) -> tuple[dict, int, int]:
    """The batched entropy kernel over many encodings and directions."""
    delta, phi = _angles(rng, 5000)
    batch = bloch_batch(delta, phi)
    dirs = sphere_grid(np.linspace(0.0, math.pi, 13), np.linspace(0.0, TWO_PI, 13))
    pair_s = _median_s(lambda: conditional_entropy_grid(batch, dirs))
    ok = _entropy_ok(conditional_entropy_grid(batch, dirs))
    metrics = {
        "discord.conditional_entropy_grid_ns_per_pair": pair_s / (len(batch) * len(dirs)) * 1e9,
    }
    return metrics, 1, int(not ok)


def probe_kernels(rng) -> tuple[dict, int, int]:
    """gd8_batch on independent random cells and the 3x3 eigenvalue kernel."""
    n = 100_000
    delta, phi = _angles(rng, n)
    cols = [delta[:, k] for k in range(4)] + [phi[:, 0], phi[:, 1]]
    gd8_s = _median_s(lambda: gd8_batch(*cols))
    gd8 = gd8_batch(*cols)
    gd8_ok = bool(np.all(np.isfinite(gd8)) and gd8.min() >= -GATE and gd8.max() <= 2 / 3 + GATE)

    a = rng.normal(size=(n, 3, 3))
    sym = a + np.swapaxes(a, 1, 2)
    entries = (sym[:, 0, 0], sym[:, 1, 1], sym[:, 2, 2], sym[:, 0, 1], sym[:, 0, 2], sym[:, 1, 2])
    eig_s = _median_s(lambda: eigvalsh3_components(*entries))
    hi, mid, lo = eigvalsh3_components(*entries)
    trace = np.trace(sym, axis1=1, axis2=2)
    eig_ok = bool(np.abs(hi + mid + lo - trace).max() <= 1e-9 * (1 + np.abs(sym).max())
                  and np.all(hi >= mid) and np.all(mid >= lo))
    metrics = {
        "geodiscord.gd8_batch_random_ns_per_cell": gd8_s / n * 1e9,
        "linalg.eigvalsh3_ns_per_matrix": eig_s / n * 1e9,
    }
    return metrics, 2, int(not gd8_ok) + int(not eig_ok)


def probe_scalar(rng) -> tuple[dict, int, int]:
    """Per-call cost of the scalar entry points on out-of-plane encodings."""
    delta, phi = _angles(rng, SCALAR_CALLS)
    pairs = list(zip(delta, phi))
    encs = [encoding_states(d, p) for d, p in pairs]
    dirs = rng.normal(size=(SCALAR_CALLS, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    metrics = {
        "encoding.encoding_states_us": _per_call_us(lambda dp: encoding_states(*dp), pairs),
        "geodiscord.geometric_discord_us": _per_call_us(geometric_discord, encs),
        "geodiscord.planar_gd_closed_us": _per_call_us(planar_gd_closed, list(delta)),
        "witness.witness_max_closed_us": _per_call_us(witness_max_closed, encs),
        "discord.conditional_ensemble_dense_us": _per_call_us(
            lambda ea: conditional_ensemble_dense(*ea), list(zip(encs, dirs))),
    }
    gd_ok = all(-GATE <= geometric_discord(e) <= 1 / 12 + GATE for e in encs[:200])
    t_ok = all(witness_max_closed(e)[0] <= 2 * math.sqrt(2) + GATE for e in encs[:200])
    ens = [conditional_ensemble_dense(e, a) for e, a in zip(encs[:200], dirs[:200])]
    p_ok = all(abs(x.p_plus + x.p_minus - 1.0) <= GATE for x in ens)
    return metrics, 3, int(not gd_ok) + int(not t_ok) + int(not p_ok)


def probe_slab(rng, step: float = 0.1 * math.pi) -> tuple[float, float, int]:
    """One broadcast slab of the step-pi/10 lattice (first angle fixed).

    Returns (seconds per slab, cells per slab, failed) for a slab chosen by
    the seed. Run it in a fresh process to read the slab's memory peak.
    """
    axis = step * np.arange(round(TWO_PI / step))
    i0 = int(rng.integers(len(axis)))
    shape = (len(axis),) * 5

    def slab():
        return gd8_batch(
            axis[i0],
            axis[:, None, None, None, None],
            axis[None, :, None, None, None],
            axis[None, None, :, None, None],
            axis[None, None, None, :, None],
            axis[None, None, None, None, :],
        )

    times = []
    ok = True
    for _ in range(3):
        start = time.perf_counter()
        vals = slab()
        times.append(time.perf_counter() - start)
        ok = ok and vals.shape == shape and float(vals.max()) <= 2 / 3 + GATE
        del vals
    return statistics.median(times), float(math.prod(shape)), int(not ok)
