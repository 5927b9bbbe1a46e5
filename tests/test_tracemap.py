import math

import numpy as np
import pytest

from fibspec import Point3, apply_map, invariant, invariant_gradient
from fibspec.spectrum import _half_trace


def line_point(lam, E):
    """(x_1, x_0, x_{-1}) = (x_1, x_0, 1) from the band finder's half-trace
    kernel: the point of the spectral line at energy E."""
    E = np.array([E], dtype=float)
    return Point3(float(_half_trace(lam, E, 1)[0]),
                  float(_half_trace(lam, E, 0)[0]), 1.0)


def test_map_examples():
    assert tuple(apply_map(Point3(0, 1, 0))) == (0, 0, 1)
    assert tuple(apply_map(Point3(1, 1, 1))) == (1, 1, 1)
    assert tuple(apply_map(Point3(-0.5, 1, -0.5))) == (-0.5, -0.5, 1)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Point3(0, math.inf, 0)


def test_invariant_examples():
    assert invariant(Point3(1, 1, 1)) == 0
    assert invariant(Point3(0, 1, 0)) == 0
    assert invariant(Point3(0, math.sqrt(2), 0)) == pytest.approx(1, abs=1e-15)


def test_spectral_line_examples():
    assert tuple(line_point(2, 0)) == (-1, 0, 1)
    assert tuple(line_point(0, 2)) == (1, 1, 1)
    p = line_point(4, 4)
    assert tuple(p) == (0, 2, 1)
    assert invariant(p) == pytest.approx(4, abs=1e-15)


def forward_orbit(p, n):
    points = [p]
    for _ in range(n):
        points.append(apply_map(points[-1]))
    return points


def test_orbit_period_six():
    points = forward_orbit(Point3(0, 1, 0), 6)
    assert len(points) == 7
    assert tuple(points[-1]) == (0, 1, 0)
    assert all(tuple(q) != (0, 1, 0) for q in points[1:-1])


def test_orbit_fixed_point_constant():
    points = forward_orbit(Point3(1, 1, 1), 100)
    assert all(tuple(q) == (1, 1, 1) for q in points)


def test_conservation_on_box():
    rng = np.random.default_rng(7)
    for x, y, z in rng.uniform(-10, 10, size=(20_000, 3)).tolist():
        p = Point3(x, y, z)
        before = invariant(p)
        after = invariant(apply_map(p))
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    h = 1e-6
    for _ in range(50):
        x, y, z = rng.uniform(-3, 3, size=3)
        g = invariant_gradient(Point3(x, y, z))
        num = [
            (invariant(Point3(x + h, y, z)) - invariant(Point3(x - h, y, z))) / (2 * h),
            (invariant(Point3(x, y + h, z)) - invariant(Point3(x, y - h, z))) / (2 * h),
            (invariant(Point3(x, y, z + h)) - invariant(Point3(x, y, z - h))) / (2 * h),
        ]
        assert np.allclose(g, num, atol=1e-5)
