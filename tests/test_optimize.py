import numpy as np
import pytest
from numpy.testing import assert_allclose

from qracdiscord.optimize import compass_search, refine_on_sphere, sphere_grid, sphere_point


def test_sphere_point_unit_norm():
    for theta in np.linspace(-1.0, 4.0, 11):
        for phi in np.linspace(0.0, 7.0, 11):
            assert np.isclose(np.linalg.norm(sphere_point(theta, phi)), 1.0, atol=1e-15)


def test_sphere_grid_order_and_shape():
    thetas = np.linspace(0, np.pi, 4)
    phis = np.linspace(0, 2 * np.pi, 3)
    grid = sphere_grid(thetas, phis)
    assert grid.shape == (12, 3)
    assert_allclose(grid[0], sphere_point(thetas[0], phis[0]), atol=1e-15)
    assert_allclose(grid[1], sphere_point(thetas[0], phis[1]), atol=1e-15)
    assert_allclose(grid[3], sphere_point(thetas[1], phis[0]), atol=1e-15)


def test_refine_on_sphere_finds_direction():
    target = sphere_point(1.1, 2.3)
    theta, phi, val, _ = refine_on_sphere(
        lambda t, p: -(sphere_point(t, p) @ target),
        1.0,
        2.0,
        dtheta=0.25,
        dphi=0.25,
        tol=1e-10,
        max_evals=10_000,
    )
    assert np.isclose(-val, 1.0, atol=1e-12)
    assert_allclose(sphere_point(theta, phi), target, atol=1e-6)


def test_refine_on_sphere_budget_exhaustion():
    with pytest.raises(RuntimeError):
        refine_on_sphere(
            lambda t, p: t * 0.0,
            0.5,
            0.5,
            dtheta=1.0,
            dphi=1.0,
            tol=1e-12,
            max_evals=10,
        )


def test_sphere_point_broadcasts():
    thetas = np.array([0.3, 1.2, 2.9])
    phis = np.array([5.0, 0.1, 2.2])
    batch = sphere_point(thetas, phis)
    assert batch.shape == (3, 3)
    for row, t, p in zip(batch, thetas, phis):
        assert_allclose(row, sphere_point(t, p), atol=0.0)


def test_refine_on_sphere_never_above_start():
    # A rugged objective on which a local search can go astray: the
    # reported value is still the best seen, never worse than the start.
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = rng.normal(size=(3, 3))

        def f(t, p):
            d = sphere_point(t, p)
            return np.sin(7.0 * d @ k[0]) + np.cos(5.0 * d @ k[1]) * (d @ k[2])

        theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
        start = float(f(np.array([theta]), np.array([phi]))[0])
        t_best, p_best, val, evals = refine_on_sphere(
            f, theta, phi, dtheta=0.5, dphi=0.5, tol=1e-9, max_evals=10_000
        )
        assert val <= start
        assert abs(val - float(f(np.array([t_best]), np.array([p_best]))[0])) <= 1e-12
        assert evals > 1


def test_compass_search_six_dimensions_never_above_start():
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = rng.normal(size=(2, 6))

        def f(x):
            return np.sin(3.0 * x @ k[0]) + np.cos(x @ k[1]) * np.sin(x[:, 0])

        start = rng.uniform(-2.0, 2.0, 6)
        x, val, evals = compass_search(f, start, 0.5, 1e-6, 1_000_000)
        assert x.shape == (6,)
        assert val <= float(f(start[None, :])[0])
        assert abs(val - float(f(x[None, :])[0])) <= 1e-12
        assert evals > 1


def test_compass_search_budget_exhaustion():
    # a flat objective never improves: 1 + 728 evaluations fit, 1 + 2 * 728 do not
    with pytest.raises(RuntimeError):
        compass_search(lambda x: np.zeros(len(x)), np.zeros(6), 1.0, 1e-12, 1000)
