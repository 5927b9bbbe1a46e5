import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fibspec import (Point3, SizeCapError, invariant, log_ratio, orbit_info,
                     scan_exceptional)
from fibspec.periodic import _SCAN_GRID_CAP, _differential, _jacobian, _orbit

GOLDEN = (1 + math.sqrt(5)) / 2


def test_g_values():
    p0, q0 = orbit_info(0)
    p1, q1 = orbit_info(1)
    assert p0.point.y == pytest.approx(1.0, abs=1e-15)
    assert q0.point.y == pytest.approx(1.0, abs=1e-15)
    assert p1.point.y == pytest.approx(1.5, abs=1e-15)
    assert q1.point.y == pytest.approx(math.sqrt(2), abs=1e-15)
    with pytest.raises(ValueError, match="surface parameter must be finite"):
        orbit_info(-0.5)


def test_points_on_their_surfaces():
    (p0, _), (p1, q1) = orbit_info(0), orbit_info(1)
    assert tuple(p0.point) == (-0.5, 1.0, -0.5)
    assert tuple(q1.point) == (0.0, math.sqrt(2), 0.0)
    assert tuple(p1.point) == (-0.5, 1.5, -0.5)
    assert invariant(p0.point) == pytest.approx(0.0, abs=1e-15)
    assert invariant(p1.point) == pytest.approx(1.0, abs=1e-13)
    assert invariant(q1.point) == pytest.approx(1.0, abs=1e-13)


def test_surface_placement_on_wide_range():
    for a in np.linspace(0.0, 100.0, 41):
        for info in orbit_info(a):
            assert abs(invariant(info.point) - a) <= 1e-12 * max(1.0, a)


def test_minimal_periods():
    for a in (0.0, 0.25, 1.0, 4.0):
        info_p, info_q = orbit_info(a)
        assert len(_orbit(info_p.point)) - 1 == info_p.period == 4
        assert len(_orbit(info_q.point)) - 1 == info_q.period == 6
    # the fixed point, where the invariant's gradient vanishes
    assert _orbit(Point3(1, 1, 1)) == [Point3(1, 1, 1)] * 2


def test_minimal_period_rejects_wandering_point():
    # The orbit overflows within 64 steps; that is no period either.  The
    # walk refuses it before any matrix product, so nothing overflows in
    # one (a RuntimeWarning is an error here).
    with pytest.raises(ValueError, match=r"point \(5\.0, 4\.0, 3\.0\) is not "
                                         "periodic within 64 steps"):
        _orbit(Point3(5.0, 4.0, 3.0))


@pytest.mark.parametrize("a", [1e32, 1e40])
def test_orbit_info_refuses_past_the_precision_floor(a):
    """The period-4 point is periodic for every a >= 0, but from
    a = 2.03e31 on, where g reaches 2**52, -g + 0.5 is not a double and
    the float orbit misses its start."""
    with pytest.raises(ValueError, match=r"the orbit of the periodic point "
                                         r"\(-0\.5, .*, -0\.5\) does not close "
                                         r".* past the precision floor"):
        orbit_info(a)


def test_precision_floor_starts_where_g_reaches_two_to_the_52():
    assert orbit_info(2.02e31)[0].period == 4
    with pytest.raises(ValueError, match="precision floor"):
        orbit_info(2.04e31)


def test_jacobian_values_and_determinant():
    j0 = _jacobian(Point3(0, 0, 0))
    assert np.array_equal(j0, [[0, 0, -1], [1, 0, 0], [0, 1, 0]])
    j1 = _jacobian(Point3(1, 1, 1))
    assert np.array_equal(j1, [[2, 2, -1], [1, 0, 0], [0, 1, 0]])
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = Point3(*rng.uniform(-5, 5, size=3))
        assert np.linalg.det(_jacobian(p)) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.25, 1.0, 4.0, 1e10])
def test_orbit_differential_fixes_the_gradient_and_pairs_its_multipliers(a):
    """M, the 3x3 differential along either orbit, has det 1 (an even
    number of steps of det -1), the invariant's gradient at the point as a
    left eigenvector with eigenvalue 1, and its other two eigenvalues
    multiply to 1: the smallest is the reciprocal of the largest of M^-1,
    the product of the exact inverse differentials."""
    eps = np.finfo(float).eps
    for info in orbit_info(a):
        orbit = _orbit(info.point)
        m = _differential(orbit)
        norm = np.linalg.norm(m)
        # LU rounding moves det M by about eps * |M| * |M^-1|, and M^-1
        # is as large as M
        assert abs(np.linalg.det(m) - 1.0) <= 16 * eps * norm ** 2
        grad = oracles.invariant_gradient(info.point)
        assert (np.linalg.norm(grad @ m - grad)
                <= 16 * eps * norm * np.linalg.norm(grad))
        eigs = np.linalg.eigvals(m)
        unit = np.argmin(np.abs(eigs - 1.0))
        assert abs(eigs[unit] - 1.0) <= 16 * eps * norm
        big = eigs[np.argmax(np.abs(eigs))]
        assert abs(big) == info.multiplier_numeric
        inverse = np.eye(3)
        for q in orbit[:-1]:
            inverse = inverse @ oracles.inverse_jacobian(q)
        assert np.linalg.norm(inverse @ m - np.eye(3)) <= 16 * eps * norm ** 2
        inverse_eigs = np.linalg.eigvals(inverse)
        reciprocal = inverse_eigs[np.argmax(np.abs(inverse_eigs))]
        assert big / reciprocal == pytest.approx(1.0, rel=4e-15)


def test_closed_form_multipliers_at_zero():
    info_p, info_q = orbit_info(0)
    assert info_p.multiplier_closed == pytest.approx((7 + math.sqrt(45)) / 2,
                                                     abs=1e-12)
    assert info_q.multiplier_closed == pytest.approx(9 + math.sqrt(80),
                                                     abs=1e-12)
    # both are powers of the golden ratio at the degenerate parameter
    assert info_p.multiplier_closed == pytest.approx(GOLDEN ** 4, abs=1e-10)
    assert info_q.multiplier_closed == pytest.approx(GOLDEN ** 6, abs=1e-10)


def test_closed_form_multiplier_at_one():
    assert orbit_info(1)[0].multiplier_closed == pytest.approx(
        (23 + math.sqrt(525)) / 2, abs=1e-10)


def test_numeric_multipliers_match_closed_forms():
    """Over the whole accepted range: a = 0 and 400 log-spaced values up to
    2e31, just below the precision floor at 2.03e31."""
    for a in [0.0, *np.logspace(-12.0, math.log10(2e31), 400).tolist()]:
        for info in orbit_info(a):
            error = abs(info.multiplier_numeric - info.multiplier_closed)
            assert error <= 4e-15 * info.multiplier_closed


@pytest.mark.parametrize("a", [0.0, 0.25, 1.0, 4.0, 10.0, 123.456, 1e10, 1e30,
                               *np.linspace(0.0, 5.0, 21).tolist()])
def test_orbit_info_bit_identical_to_reference(a):
    """One walk per orbit gives the floats of the two-walk reference, and
    the 3x3 route agrees with the tangent-frame 2x2 route."""
    reference = ((oracles.point_p(a), oracles.multiplier_p_closed(a), 4),
                 (oracles.point_q(a), oracles.multiplier_q_closed(a), 6))
    for info, (point, closed, n) in zip(orbit_info(a), reference):
        assert info.point == point
        assert info.period == oracles.minimal_period(point) == n
        assert info.multiplier_closed == closed
        assert info.multiplier_numeric == oracles.orbit_multiplier(point, n)
        assert info.multiplier_numeric == pytest.approx(
            oracles.restricted_multiplier(point, n), rel=4e-15)
    assert log_ratio(a) == (math.log(oracles.multiplier_p_closed(a))
                            / math.log(oracles.multiplier_q_closed(a)))


def test_log_ratio_values():
    assert log_ratio(0) == pytest.approx(2 / 3, abs=1e-10)
    assert abs(log_ratio(1) - 2 / 3) > 0.05
    assert log_ratio(1) == pytest.approx(0.74798, abs=5e-5)


def test_log_ratio_continuity():
    a = np.linspace(0, 10, 1001)
    vals = np.array([log_ratio(x) for x in a])
    assert np.max(np.abs(np.diff(vals))) < 5e-3


# The last double a at which the period-6 multiplier S + sqrt(S^2 - 1),
# S = 8(a + 1)^2 + 1, is finite: at the next one S^2 overflows.
LAST_FINITE_A = 4.0938685753732067e76


def test_log_ratio_is_the_reference_up_to_the_precision_floor():
    for a in (1e60, 1e76, LAST_FINITE_A):
        assert log_ratio(a) == (math.log(oracles.multiplier_p_closed(a))
                                / math.log(oracles.multiplier_q_closed(a)))
    assert log_ratio(LAST_FINITE_A) == pytest.approx(0.5039, abs=1e-4)


@pytest.mark.parametrize("a", [math.nextafter(LAST_FINITE_A, math.inf), 1e77,
                               1e153, 1e155, 1e300, sys.float_info.max])
def test_log_ratio_refuses_past_the_precision_floor(a):
    """Past the floor the ratio was 0.0 (the period-6 multiplier alone
    overflows), nan (both do) or an OverflowError (from g**4)."""
    with pytest.raises(ValueError, match=r"the closed-form multipliers at "
                                         r"a = .* overflow a double: a is "
                                         "past the precision floor"):
        log_ratio(a)


def test_scan_refuses_past_the_precision_floor():
    with pytest.raises(ValueError, match="past the precision floor"):
        scan_exceptional(1e70, 1e80, grid=11, qmax=10)


@pytest.mark.parametrize("a_max", [math.inf, math.nan, -1.0])
def test_scan_validates_a_max_up_front(a_max):
    with pytest.raises(ValueError, match="surface parameter must be finite "
                                         f"and >= 0, got {a_max}"):
        scan_exceptional(0.0, a_max, grid=3, qmax=10)


def test_scan_grid_capped_before_any_point(monkeypatch):
    """A grid past the cap is refused before linspace forms it; 1e9
    points would be an 8 GB grid and hours of scanning."""
    class Formed(Exception):
        pass

    def no_grid(*args, **kwargs):
        raise Formed
    monkeypatch.setattr(np, "linspace", no_grid)
    for grid in (_SCAN_GRID_CAP + 1, 10 ** 9):
        with pytest.raises(SizeCapError) as info:
            scan_exceptional(0.0, 1.0, grid=grid, qmax=10)
        assert (info.value.requested, info.value.cap) == (grid, 10_000_000)
    with pytest.raises(Formed):  # the cap itself is allowed
        scan_exceptional(0.0, 1.0, grid=_SCAN_GRID_CAP, qmax=10)


def test_orbit_info_bundles():
    info, _ = orbit_info(1.0)
    assert info.a == 1.0
    assert info.lam == pytest.approx(2.0)
    assert info.period == 4
    assert info.multiplier_numeric == pytest.approx(info.multiplier_closed,
                                                    rel=1e-8)
    _, info_q = orbit_info(0.25)
    assert info_q.period == 6
    assert info_q.multiplier_closed > 1


def test_orbit_info_refuses_a_point_off_its_surface_or_not_hyperbolic():
    info, _ = orbit_info(1.0)
    with pytest.raises(ValueError, match=r"does not lie on the surface"):
        dataclasses.replace(info, a=1.5)
    for field in ("multiplier_closed", "multiplier_numeric"):
        with pytest.raises(ValueError, match="must exceed 1"):
            dataclasses.replace(info, **{field: 1.0})


def test_scan_flags_the_two_thirds_ratio_near_zero():
    hits = scan_exceptional(0.0, 1e-6, grid=5, qmax=10)
    assert any(a == 0.0 and frac == Fraction(2, 3) for a, frac in hits)


def test_scan_with_unit_denominator_finds_nothing_midrange():
    assert scan_exceptional(0.5, 1.0, grid=21, qmax=1) == []


def test_scan_flag_set_grows_with_qmax():
    small = {a for a, _ in scan_exceptional(0.0, 2.0, grid=201, qmax=3)}
    large = {a for a, _ in scan_exceptional(0.0, 2.0, grid=201, qmax=30)}
    assert small <= large
