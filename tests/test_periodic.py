import math
from fractions import Fraction

import numpy as np
import pytest

from fibspec import (Point3, g_p, g_q, invariant, jacobian, log_ratio,
                     minimal_period, multiplier_p_closed, multiplier_q_closed,
                     orbit_info_p, orbit_info_q, point_p, point_q,
                     restricted_jacobian, restricted_multiplier,
                     scan_exceptional, tangent_frame)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_g_values():
    assert g_p(0) == pytest.approx(1.0, abs=1e-15)
    assert g_q(0) == pytest.approx(1.0, abs=1e-15)
    assert g_p(1) == pytest.approx(1.5, abs=1e-15)
    assert g_q(1) == pytest.approx(math.sqrt(2), abs=1e-15)
    with pytest.raises(ValueError):
        g_p(-0.5)


def test_points_on_their_surfaces():
    assert tuple(point_p(0)) == (-0.5, 1.0, -0.5)
    assert tuple(point_q(1)) == (0.0, math.sqrt(2), 0.0)
    assert tuple(point_p(1)) == (-0.5, 1.5, -0.5)
    assert invariant(point_p(0)) == pytest.approx(0.0, abs=1e-15)
    assert invariant(point_p(1)) == pytest.approx(1.0, abs=1e-13)
    assert invariant(point_q(1)) == pytest.approx(1.0, abs=1e-13)


def test_surface_placement_on_wide_range():
    for a in np.linspace(0.0, 100.0, 41):
        assert abs(invariant(point_p(a)) - a) <= 1e-12 * max(1.0, a)
        assert abs(invariant(point_q(a)) - a) <= 1e-12 * max(1.0, a)


def test_minimal_periods():
    for a in (0.0, 0.25, 1.0, 4.0):
        assert minimal_period(point_p(a)) == 4
        assert minimal_period(point_q(a)) == 6
    assert minimal_period(Point3(1, 1, 1)) == 1


def test_minimal_period_rejects_wandering_point():
    # the orbit overflows within 64 steps; that is no period either
    with pytest.raises(ValueError, match="not periodic within 64 steps"):
        minimal_period(Point3(5.0, 4.0, 3.0))


def test_jacobian_values_and_determinant():
    j0 = jacobian(Point3(0, 0, 0))
    assert np.array_equal(j0, [[0, 0, -1], [1, 0, 0], [0, 1, 0]])
    j1 = jacobian(Point3(1, 1, 1))
    assert np.array_equal(j1, [[2, 2, -1], [1, 0, 0], [0, 1, 0]])
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = Point3(*rng.uniform(-5, 5, size=3))
        assert np.linalg.det(jacobian(p)) == pytest.approx(-1.0, abs=1e-12)


def test_tangent_frame_is_orthonormal_and_normal_to_gradient():
    from fibspec import invariant_gradient
    for a in (0.25, 1.0, 4.0):
        for pt in (point_p(a), point_q(a)):
            u, v = tangent_frame(pt)
            g = invariant_gradient(pt)
            assert abs(np.dot(u, v)) < 1e-12
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.dot(u, g)) < 1e-10
            assert abs(np.dot(v, g)) < 1e-10


def test_singular_surface_point_rejected():
    """The invariant's gradient vanishes at (1,1,1); there is no
    well-defined tangent plane, so the restricted machinery refuses."""
    with pytest.raises(ValueError):
        tangent_frame(Point3(1, 1, 1))
    with pytest.raises(ValueError):
        restricted_multiplier(Point3(1, 1, 1), 1)


def test_closed_form_multipliers_at_zero():
    assert multiplier_p_closed(0) == pytest.approx((7 + math.sqrt(45)) / 2,
                                                   abs=1e-12)
    assert multiplier_q_closed(0) == pytest.approx(9 + math.sqrt(80),
                                                   abs=1e-12)
    # both are powers of the golden ratio at the degenerate parameter
    assert multiplier_p_closed(0) == pytest.approx(GOLDEN ** 4, abs=1e-10)
    assert multiplier_q_closed(0) == pytest.approx(GOLDEN ** 6, abs=1e-10)


def test_closed_form_multiplier_at_one():
    assert multiplier_p_closed(1) == pytest.approx((23 + math.sqrt(525)) / 2,
                                                   abs=1e-10)


def test_numeric_multipliers_match_closed_forms():
    for a in (0.25, 1.0, 4.0):
        mp = restricted_multiplier(point_p(a), 4)
        mq = restricted_multiplier(point_q(a), 6)
        assert abs(mp - multiplier_p_closed(a)) / multiplier_p_closed(a) <= 1e-8
        assert abs(mq - multiplier_q_closed(a)) / multiplier_q_closed(a) <= 1e-8


def test_restricted_jacobian_is_area_preserving():
    for a in (0.25, 1.0, 4.0):
        for pt, n in ((point_p(a), 4), (point_q(a), 6)):
            m = restricted_jacobian(pt, n)
            assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-8


def test_restricted_jacobian_rejects_escaping_point():
    # the orbit overflows within 64 steps: refused as not periodic, before
    # any matrix product overflows (a RuntimeWarning is an error here)
    with pytest.raises(ValueError, match="point is not n=64 periodic: its "
                                         "orbit escapes to infinity"):
        restricted_jacobian(Point3(5.0, 4.0, 3.0), 64)


def test_log_ratio_values():
    assert log_ratio(0) == pytest.approx(2 / 3, abs=1e-10)
    assert abs(log_ratio(1) - 2 / 3) > 0.05
    assert log_ratio(1) == pytest.approx(0.74798, abs=5e-5)


def test_log_ratio_continuity():
    a = np.linspace(0, 10, 1001)
    vals = np.array([log_ratio(x) for x in a])
    assert np.max(np.abs(np.diff(vals))) < 5e-3


def test_orbit_info_bundles():
    info = orbit_info_p(1.0)
    assert info.a == 1.0
    assert info.lam == pytest.approx(2.0)
    assert info.period == 4
    assert info.multiplier_numeric == pytest.approx(info.multiplier_closed,
                                                    rel=1e-8)
    info_q = orbit_info_q(0.25)
    assert info_q.period == 6
    assert info_q.multiplier_closed > 1


def test_scan_flags_the_two_thirds_ratio_near_zero():
    hits = scan_exceptional(0.0, 1e-6, grid=5, qmax=10)
    assert any(a == 0.0 and frac == Fraction(2, 3) for a, frac in hits)


def test_scan_with_unit_denominator_finds_nothing_midrange():
    assert scan_exceptional(0.5, 1.0, grid=21, qmax=1) == []


def test_scan_flag_set_grows_with_qmax():
    small = {a for a, _ in scan_exceptional(0.0, 2.0, grid=201, qmax=3)}
    large = {a for a, _ in scan_exceptional(0.0, 2.0, grid=201, qmax=30)}
    assert small <= large
