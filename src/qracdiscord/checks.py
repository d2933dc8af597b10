"""Reference-value checks for the whole package.

Every check recomputes a quantity with an independently known value (a
closed form, a reference search optimum, or a structural identity) and
compares at a fixed tolerance. The ``reproduce`` CLI subcommand and the
acceptance test module both run this registry, so there is exactly one
statement of each expected value.

Stated runtimes in the check descriptions are wall-clock envelopes for a
desktop-class machine; they are reported, not asserted.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .discord import _entropy_offset, conditional_ensemble, conditional_ensemble_dense
from .discord import conditional_entropy, conditional_entropy_grid, discord_pre_opt, quantum_discord
from .encoding import bloch_batch, encoding_states, planar_rotation
from .geodiscord import bloch_decompose, gd8_batch, geometric_discord, planar_gd_closed
from .linalg import shannon_entropy
from .optimize import sphere_grid
from .search import GridSpec, grid_search_gd, refine_local, sweep_planar, sweep_preopt_plane
from .witness import SIGN_TABLE, success_probability, witness_max_closed

SQRT2 = math.sqrt(2.0)

# Reference optima of the normalised geometric discord found by lattice
# searches at steps pi/10 and pi/20 and by a fine local refinement at step
# pi * 1e-4: six angles in units of pi, the value 8 D_G there (4 decimal
# places), and the witness maximum reported by a local optimiser. The
# witness figures are lower references: the closed form is a global
# maximum and may exceed them slightly.
REFERENCE_POINTS = (
    ((1.40, 1.90, 0.30, 0.70, 0.60, 0.40), 0.6090, 1.9519),
    ((0.35, 1.90, 0.45, 1.55, 0.60, 0.35), 0.6431, 2.2740),
    ((0.2509, 0.1980, 0.3909, 1.6089, 0.6928, 0.3079), 0.6649, 1.1658),
)


@dataclass
class CheckResult:
    name: str
    expected: str
    got: str
    tolerance: str
    passed: bool
    seconds: float


def _random_encodings(rng, n):
    delta = rng.uniform(0.0, 2.0 * math.pi, size=(n, 4))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
    return delta, phi, bloch_batch(delta, phi)


def _random_directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _plane_angle(direction) -> float:
    """In-plane angle of a direction from +x towards +z, in [0, pi)."""
    return math.atan2(direction[2], direction[0]) % math.pi


def check_qd_optimal(workers=None):
    """Discord of the optimal encoding is 1/2, minimised in-plane at pi/4."""
    enc = planar_rotation(0.0)
    value, direction = quantum_discord(enc)
    angle = _plane_angle(direction)
    grid_step = math.pi / 180.0
    angle_ok = min(abs(angle - math.pi / 4), abs(angle - 3 * math.pi / 4)) <= grid_step
    planar_ok = abs(direction[1]) <= 1e-6
    passed = abs(value - 0.5) <= 1e-6 and angle_ok and planar_ok
    return (
        "qd=0.5, minimiser angle in {pi/4, 3pi/4}",
        f"qd={value:.9f}, angle={angle / math.pi:.6f}pi",
        "1e-6 on qd, grid step on angle",
        passed,
    )


def check_gd_optimal(workers=None):
    """Geometric discord of the optimal encoding is 1/16 with G = diag(1,0,1)/2."""
    enc = planar_rotation(0.0)
    value = geometric_discord(enc)
    gram = bloch_decompose(enc).gram
    gram_err = np.abs(gram - 0.5 * np.diag([1.0, 0.0, 1.0])).max()
    passed = abs(value - 1.0 / 16.0) <= 1e-12 and gram_err <= 1e-12
    return (
        "D_G=1/16, G=diag(1,0,1)/2",
        f"D_G={value:.15f}, max|G err|={gram_err:.2e}",
        "1e-12",
        passed,
    )


def check_gd_tight_frame(workers=None):
    """The tetrahedral encoding, a tight frame: 8 D_G = 2/3 exactly and
    T = 4/sqrt 3 (Bloch vectors (0, 0, 1) and three at polar angle
    arccos(-1/3), 120 degrees apart)."""
    half = math.acos(-1.0 / 3.0) / 2.0
    delta = (-math.pi / 8.0, half - 7.0 * math.pi / 8.0, half - 3.0 * math.pi / 8.0,
             half - 5.0 * math.pi / 8.0)
    phi = (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    enc = encoding_states(delta, phi)
    gd8 = 8.0 * geometric_discord(enc)
    gd8_kernel = float(gd8_batch(*delta, *phi))
    t_max, _, _ = witness_max_closed(enc)
    err = max(abs(gd8 - 2.0 / 3.0), abs(gd8_kernel - 2.0 / 3.0), abs(t_max - 4.0 / math.sqrt(3.0)))
    passed = err <= 1e-12
    return (
        "8D_G=2/3 (scalar and batched), T=4/sqrt3=2.309401076759",
        f"8D_G={gd8:.16f}, batched={gd8_kernel:.16f}, T={t_max:.12f}",
        "1e-12",
        passed,
    )


def check_witness_optimal(workers=None):
    """Witness maximum 2 sqrt(2) and success probability (2+sqrt 2)/4."""
    enc = planar_rotation(0.0)
    t_max, m0, m1 = witness_max_closed(enc)
    p = success_probability(enc, m0, m1)
    passed = abs(t_max - 2.0 * SQRT2) <= 1e-12 and abs(p - (2.0 + SQRT2) / 4.0) <= 1e-12
    return (
        "T=2sqrt2=2.828427124746, P=0.853553390593",
        f"T={t_max:.12f}, P={p:.12f}",
        "1e-12",
        passed,
    )


def check_planar_closed_form(workers=None):
    """Closed-form planar spectrum matches the general decomposition path."""
    rng = np.random.default_rng(414213)
    worst = 0.0
    for _ in range(10_000):
        delta = rng.uniform(0.0, 2.0 * math.pi, size=4)
        enc = encoding_states(delta)
        _, closed = planar_gd_closed(delta)
        worst = max(worst, abs(closed - geometric_discord(enc)))
    sym_worst = 0.0
    for d in np.linspace(0.0, 2.0 * math.pi, 1001):
        _, closed = planar_gd_closed((d, -d, -d, d))
        sym_worst = max(sym_worst, abs(closed - (1.0 - abs(math.sin(4.0 * d))) / 16.0))
    passed = worst <= 1e-10 and sym_worst <= 1e-12
    return (
        "closed = general (1e4 tuples); symmetric = (1-|sin 4d|)/16",
        f"max|diff|={worst:.2e}, max|sym diff|={sym_worst:.2e}",
        "1e-10 general, 1e-12 symmetric",
        passed,
    )


def check_classical_point(workers=None):
    """At delta = pi/8 the state is classical-classical: all measures vanish."""
    enc = planar_rotation(math.pi / 8.0)
    qd, _ = quantum_discord(enc)
    gd = geometric_discord(enc)
    t_max, _, _ = witness_max_closed(enc)
    passed = qd <= 1e-6 and gd <= 1e-12 and abs(t_max - 2.0) <= 1e-9
    return (
        "qd=0, D_G=0, T=2",
        f"qd={qd:.2e}, D_G={gd:.2e}, T={t_max:.12f}",
        "1e-6 / 1e-12 / 1e-9",
        passed,
    )


def check_reference_points(workers=None):
    """8 D_G and the witness at the three reference parameter sets."""
    got = []
    passed = True
    for params_pi, gd8_ref, t_ref in REFERENCE_POINTS:
        params = np.array(params_pi) * math.pi
        enc = encoding_states(params[:4], params[4:])
        gd8 = 8.0 * geometric_discord(enc)
        t_max, _, _ = witness_max_closed(enc)
        got.append(f"{gd8:.4f}/{t_max:.4f}")
        passed = passed and abs(gd8 - gd8_ref) <= 5e-4 and t_max >= t_ref - 5e-3
    return (
        "8D_G=0.6090, 0.6431, 0.6649; T >= reference - 5e-3",
        "; ".join(got),
        "5e-4 on 8D_G (4-decimal references)",
        passed,
    )


def check_grid_search_coarse(workers=None):
    """Step pi/10 lattice search and local refinement of its winner."""
    w = workers or min(8, os.cpu_count() or 1)
    res = grid_search_gd(GridSpec(step=math.pi / 10.0, workers=w))
    refined = refine_local(res.params, math.pi / 10.0)
    passed = res.evaluations == 20**6 and res.gd8 >= 0.6090 - 1e-4 and refined.gd8 >= 0.66
    return (
        "search gd8 >= 0.6090; refined gd8 >= 0.66",
        f"search gd8={res.gd8:.4f}, refined gd8={refined.gd8:.4f}",
        "1e-4 slack on search",
        passed,
    )


def check_random_bounds(workers=None):
    """Structural bounds over 1e5 random encodings.

    8 D_G <= 2/3, T <= 2 sqrt 2, tr G = 1, 0 <= discord <= mutual
    information, and P = 1/2 + T/8 at matched measurements. The discord
    minimisation here uses a coarse direction grid: both bounds hold for
    the minimum over any direction set.
    """
    rng = np.random.default_rng(20250810)
    n = 100_000
    delta, phi, bloch = _random_encodings(rng, n)

    gd8 = gd8_batch(
        delta[:, 0], delta[:, 1], delta[:, 2], delta[:, 3], phi[:, 0], phi[:, 1]
    )
    gd8_ok = float(gd8.max()) <= 2.0 / 3.0 + 1e-9

    v = np.einsum("ay,naj->nyj", SIGN_TABLE, bloch)
    t_max = 0.5 * np.linalg.norm(v, axis=2).sum(axis=1)
    t_ok = float(t_max.max()) <= 2.0 * SQRT2 + 1e-9

    x = bloch.mean(axis=1)
    col1 = 0.5 * (bloch[:, 0] - bloch[:, 1])
    col2 = (bloch[:, 0] + bloch[:, 1] - 2.0 * bloch[:, 2]) / (2.0 * math.sqrt(3.0))
    col3 = (bloch[:, 0] + bloch[:, 1] + bloch[:, 2] - 3.0 * bloch[:, 3]) / (
        2.0 * math.sqrt(6.0)
    )
    trace = (x**2).sum(axis=1) + 0.5 * (col1**2 + col2**2 + col3**2).sum(axis=1)
    trace_err = float(np.abs(trace - 1.0).max())

    dirs = sphere_grid(np.linspace(0.0, math.pi, 13), np.linspace(0.0, 2.0 * math.pi, 13))
    offset = _entropy_offset(bloch)  # mutual information - 2 for pure encodings
    qd_err = 0.0
    for lo in range(0, n, 5000):
        chunk = slice(lo, lo + 5000)
        qd = offset[chunk] + conditional_entropy_grid(bloch[chunk], dirs).min(axis=1)
        qd_err = max(qd_err, float((-qd).max()), float((qd - offset[chunk] - 2.0).max()))

    m0 = _random_directions(rng, n)
    m1 = _random_directions(rng, n)
    born0 = 0.5 * (1.0 + np.einsum("naj,nj->na", bloch, m0))
    born1 = 0.5 * (1.0 + np.einsum("naj,nj->na", bloch, m1))
    t_val = born0 @ SIGN_TABLE[:, 0] + born1 @ SIGN_TABLE[:, 1]
    success = (
        born0 @ np.array([1.0, 1.0, 0.0, 0.0]) + (1.0 - born0) @ np.array([0.0, 0.0, 1.0, 1.0])
        + born1 @ np.array([1.0, 0.0, 1.0, 0.0]) + (1.0 - born1) @ np.array([0.0, 1.0, 0.0, 1.0])
    ) / 8.0
    ident_err = float(np.abs(success - 0.5 - t_val / 8.0).max())

    passed = (
        gd8_ok and t_ok and trace_err <= 1e-10 and qd_err <= 1e-9 and ident_err <= 1e-12
    )
    return (
        "8D_G<=2/3, T<=2sqrt2, trG=1, 0<=qd<=MI, P=1/2+T/8",
        (
            f"max gd8={float(gd8.max()):.6f}, max T={float(t_max.max()):.6f}, "
            f"|trG-1|={trace_err:.1e}, qd excess={qd_err:.1e}, |P-T/8-0.5|={ident_err:.1e}"
        ),
        "1e-9 / 1e-9 / 1e-10 / 1e-9 / 1e-12",
        passed,
    )


def check_dense_oracle(workers=None):
    """Bloch-arithmetic ensembles equal the dense 8x8 projector route, and
    the shipped conditional entropy equals p+ S(spec+) + p- S(spec-) from
    the dense ensemble."""
    rng = np.random.default_rng(8128)
    worst = 0.0
    entropy_worst = 0.0
    for _ in range(1000):
        delta = rng.uniform(0.0, 2.0 * math.pi, size=4)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        enc = encoding_states(delta, phi)
        a = _random_directions(rng, 1)[0]
        fast = conditional_ensemble(enc, a)
        dense = conditional_ensemble_dense(enc, a)
        worst = max(
            worst,
            abs(fast.p_plus - dense.p_plus),
            abs(fast.p_minus - dense.p_minus),
            float(np.abs(fast.spec_plus - dense.spec_plus).max()),
            float(np.abs(fast.spec_minus - dense.spec_minus).max()),
        )
        dense_entropy = dense.p_plus * shannon_entropy(dense.spec_plus) + (
            dense.p_minus * shannon_entropy(dense.spec_minus)
        )
        entropy_worst = max(entropy_worst, abs(conditional_entropy(enc, a) - dense_entropy))
    passed = worst <= 1e-10 and entropy_worst <= 1e-10
    return (
        "fast path = dense path (1e3 pairs), ensembles and conditional entropy",
        f"max|diff|={worst:.2e}, max|entropy diff|={entropy_worst:.2e}",
        "1e-10",
        passed,
    )


def check_sweep_monotonic(workers=None):
    """All three sweep columns decrease monotonically on [0, pi/8]."""
    records = sweep_planar(0.0, math.pi / 8.0, 101)
    qd = np.array([r.qd for r in records])
    gd8 = np.array([r.gd8 for r in records])
    t2 = np.array([r.t_minus_2 for r in records])
    rise = max(float(np.diff(col).max()) for col in (qd, gd8, t2))
    passed = rise <= 1e-9
    return ("each column nonincreasing over 101 points", f"max rise={rise:.2e}", "1e-9", passed)


def check_plane_curve(workers=None):
    """The in-plane pre-optimisation curve: minima, endpoint, stationarity.

    The value at angle 0 has the independent form h2((2+sqrt 2)/4), the
    binary entropy of the optimal success probability (about 0.6009).
    """
    enc = planar_rotation(0.0)
    v_quarter = discord_pre_opt(enc, np.array([SQRT2 / 2.0, 0.0, SQRT2 / 2.0]))
    v_three_quarter = discord_pre_opt(enc, np.array([-SQRT2 / 2.0, 0.0, SQRT2 / 2.0]))
    v_zero = discord_pre_opt(enc, np.array([1.0, 0.0, 0.0]))
    q = (2.0 + SQRT2) / 4.0
    oracle_zero = -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)

    curve = sweep_preopt_plane(enc, steps=2048)
    ts, dv = curve[:, 0], curve[:, 2]
    crossings = []
    for i in range(len(ts) - 1):
        if dv[i] == 0.0:
            crossings.append(ts[i])
        elif dv[i] * dv[i + 1] < 0.0:
            crossings.append(ts[i] - dv[i] * (ts[i + 1] - ts[i]) / (dv[i + 1] - dv[i]))
    nearest = min(crossings, key=lambda t: abs(t - math.pi / 4.0)) if crossings else math.nan
    passed = (
        abs(v_quarter - 0.5) <= 1e-9
        and abs(v_three_quarter - 0.5) <= 1e-9
        and abs(v_zero - oracle_zero) <= 1e-9
        and abs(nearest - math.pi / 4.0) <= 1e-3
    )
    return (
        f"curve(pi/4)=curve(3pi/4)=0.5, curve(0)={oracle_zero:.6f}, zero slope at pi/4",
        (
            f"curve(pi/4)={v_quarter:.9f}, curve(3pi/4)={v_three_quarter:.9f}, "
            f"curve(0)={v_zero:.9f}, crossing at {nearest / math.pi:.6f}pi"
        ),
        "1e-9 on values, 1e-3 on the crossing",
        passed,
    )


CHECKS = {
    "qd_optimal": check_qd_optimal,
    "gd_optimal": check_gd_optimal,
    "gd_tight_frame": check_gd_tight_frame,
    "witness_optimal": check_witness_optimal,
    "planar_closed_form": check_planar_closed_form,
    "classical_point": check_classical_point,
    "reference_points": check_reference_points,
    "grid_search_coarse": check_grid_search_coarse,
    "random_bounds": check_random_bounds,
    "dense_oracle": check_dense_oracle,
    "sweep_monotonic": check_sweep_monotonic,
    "plane_curve": check_plane_curve,
}


def run_checks(names=None, workers=None) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results."""
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}; known: {', '.join(CHECKS)}")
    results = []
    for name in selected:
        start = time.perf_counter()
        expected, got, tolerance, passed = CHECKS[name](workers=workers)
        results.append(
            CheckResult(
                name=name,
                expected=expected,
                got=got,
                tolerance=tolerance,
                passed=passed,
                seconds=time.perf_counter() - start,
            )
        )
    return results
