import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qracdiscord.encoding import encoding_states, planar_rotation
from qracdiscord.geodiscord import gd8_batch
from qracdiscord.search import (
    GridSpec,
    grid_lattice,
    grid_search_gd,
    refine_local,
    sweep_planar,
    sweep_preopt_plane,
    witness_max_numeric,
)
from qracdiscord.witness import witness_max_closed

SQRT2 = math.sqrt(2.0)
TWO_PI = 2 * math.pi

IDENTICAL_OFFSETS = (0.0, -3 * math.pi / 4, -math.pi / 4, -math.pi / 2)

PINNED = (0.0, 1e-9)  # range shorter than any step: pins the angle to 0


def test_grid_lattice_half_open():
    vals = grid_lattice(0.0, TWO_PI, math.pi / 10)
    assert len(vals) == 20
    assert vals[0] == 0.0
    assert vals[-1] < TWO_PI
    assert len(grid_lattice(0.0, 1e-9, math.pi / 20)) == 1
    with pytest.raises(ValueError):
        grid_lattice(0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        grid_lattice(0.0, 1.0, 0.0)


def test_grid_search_smoke():
    res = grid_search_gd(GridSpec(step=math.pi / 2))
    assert res.evaluations == 4**6
    assert 0.0 <= res.gd8 <= 2.0 / 3.0 + 1e-9


def test_grid_search_guard():
    with pytest.raises(RuntimeError):
        grid_search_gd(GridSpec(step=math.pi / 100))


def test_grid_search_validates_workers():
    with pytest.raises(ValueError):
        grid_search_gd(GridSpec(step=math.pi / 2, workers=0))


def test_grid_search_planar_maximum_at_origin():
    # phases pinned to zero: the planar maximum is 1/2 and the zero-offset
    # lattice point attains it (ties under float noise may name another
    # maximiser, so assert the value, not the winning coordinates)
    spec = GridSpec(step=math.pi / 20, ranges=((0.0, TWO_PI),) * 4 + (PINNED, PINNED))
    res = grid_search_gd(spec)
    assert np.isclose(res.gd8, 0.5, atol=1e-12)
    at_origin = float(gd8_batch(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert np.isclose(at_origin, res.gd8, atol=1e-12)


def test_grid_search_deterministic_across_workers():
    spec1 = GridSpec(step=math.pi / 3, workers=1)
    spec2 = GridSpec(step=math.pi / 3, workers=2)
    res1 = grid_search_gd(spec1)
    res2 = grid_search_gd(spec2)
    assert res1.gd8 == res2.gd8
    assert_allclose(res1.params, res2.params)
    assert res1.evaluations == res2.evaluations


def test_refine_local_monotone():
    rng = np.random.default_rng(50)
    for _ in range(5):
        start = rng.uniform(0, TWO_PI, 6)
        before = float(gd8_batch(*start))
        res = refine_local(start, math.pi / 10)
        assert res.gd8 >= before - 1e-15


def test_refine_local_converged_point_is_fixed():
    start = np.array([1.40, 1.90, 0.30, 0.70, 0.60, 0.40]) * math.pi
    first = refine_local(start, math.pi * 1e-4)
    again = refine_local(first.params, math.pi * 1e-4)
    assert_allclose(again.params, first.params)
    assert again.gd8 == first.gd8


def test_refine_local_reaches_fine_reference():
    start = np.array([0.2509, 0.1980, 0.3909, 1.6089, 0.6928, 0.3079]) * math.pi
    res = refine_local(start, math.pi * 1e-4)
    assert res.gd8 >= 0.6649


@pytest.mark.parametrize("delta2", [0.4, 0.9, 1.4, 1.9])
def test_refine_local_from_equivalent_lattice_winners(delta2):
    # delta_a -> delta_a + pi/2 flips r_a and leaves 8 D_G unchanged, so
    # the step-pi/10 winner has equivalent lattice cells; which one wins
    # is a floating-point tie. Every one must refine to near 2/3.
    start = np.array([1.4, delta2, 0.3, 0.2, 1.4, 1.6]) * math.pi
    assert np.isclose(gd8_batch(*start), 0.6090413131018753, atol=1e-12)
    assert refine_local(start, math.pi / 10).gd8 >= 0.66


def test_refine_local_validates_input():
    with pytest.raises(ValueError):
        refine_local(np.zeros(5), 1e-4)
    with pytest.raises(ValueError):
        refine_local(np.zeros(6), -1e-4)


def test_witness_numeric_matches_closed_form():
    enc = planar_rotation(0.0)
    t, _, _ = witness_max_numeric(enc)
    assert np.isclose(t, 2 * SQRT2, atol=1e-6)
    t0, _, _ = witness_max_numeric(encoding_states(IDENTICAL_OFFSETS))
    assert abs(t0) <= 1e-9
    rng = np.random.default_rng(51)
    for _ in range(100):
        enc = encoding_states(rng.uniform(0, TWO_PI, 4), rng.uniform(0, TWO_PI, 2))
        closed, _, _ = witness_max_closed(enc)
        numeric, m0, m1 = witness_max_numeric(enc)
        assert np.isclose(numeric, closed, atol=1e-6)
        assert np.isclose(np.linalg.norm(m0), 1.0, atol=1e-12)
        assert np.isclose(np.linalg.norm(m1), 1.0, atol=1e-12)


def test_sweep_planar_endpoints():
    records = sweep_planar(0.0, math.pi / 8, 11)
    first, last = records[0], records[-1]
    assert np.isclose(first.qd, 0.5, atol=1e-6)
    assert np.isclose(first.gd8, 0.5, atol=1e-12)
    assert np.isclose(first.t_minus_2, 2 * SQRT2 - 2.0, atol=1e-12)
    assert abs(last.qd) <= 1e-6
    assert abs(last.gd8) <= 1e-12
    assert abs(last.t_minus_2) <= 1e-9


def test_sweep_planar_interior_value():
    records = sweep_planar(0.0, math.pi / 8, 3)  # midpoint is pi/16
    expected = (1.0 - math.sin(math.pi / 4)) / 2.0
    assert np.isclose(records[1].gd8, expected, atol=1e-12)


def test_sweep_planar_two_rows():
    records = sweep_planar(0.0, math.pi / 8, 2)
    assert len(records) == 2
    assert records[0].delta == 0.0
    assert np.isclose(records[1].delta, math.pi / 8)


def test_sweep_planar_validates_steps():
    with pytest.raises(ValueError):
        sweep_planar(0.0, 1.0, 1)


def test_sweep_planar_monotone_smoke():
    records = sweep_planar(0.0, math.pi / 8, 11)
    for column in ("qd", "gd8", "t_minus_2"):
        vals = np.array([getattr(r, column) for r in records])
        assert np.all(np.diff(vals) <= 1e-9)


def test_plane_curve_minima():
    curve = sweep_preopt_plane(planar_rotation(0.0), steps=512)
    ts, vals = curve[:, 0], curve[:, 1]
    quarter = np.argmin(np.abs(ts - math.pi / 4))
    assert np.isclose(ts[quarter], math.pi / 4)
    assert np.isclose(vals[quarter], 0.5, atol=1e-12)
    assert np.isclose(vals.min(), 0.5, atol=1e-12)
    # derivative is odd around the minimum
    assert np.isclose(curve[quarter, 2], 0.0, atol=1e-6)
