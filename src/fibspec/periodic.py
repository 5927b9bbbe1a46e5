"""Distinguished periodic orbits of the trace map.

Two families of periodic points, one of period 4 and one of period 6,
exist on every invariant surface {I = a}, a >= 0, with closed-form
coordinates and closed-form unstable multipliers.  The ratio of the two
log-multipliers is 2/3 at a = 0 and varies with a, which is the quantity
the parameter scan probes for rational values.

The surface parameter a corresponds to coupling lam = 2*sqrt(a): the
spectral line of coupling lam lies on the surface {I = lam**2/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tracemap import Point3, apply_map, invariant, invariant_gradient

PERIOD_TOL = 1e-10
PERIOD_MAX = 64
GRADIENT_FLOOR = 1e-8


def _require_surface_parameter(a: float) -> float:
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"surface parameter must be finite and >= 0, got {a}")
    return a


def g_p(a: float) -> float:
    """y-coordinate of the period-4 point on the surface {I = a}."""
    a = _require_surface_parameter(a)
    return (1.0 + math.sqrt(9.0 + 16.0 * a)) / 4.0


def g_q(a: float) -> float:
    """y-coordinate of the period-6 point on the surface {I = a}."""
    a = _require_surface_parameter(a)
    return math.sqrt(a + 1.0)


def point_p(a: float) -> Point3:
    g = g_p(a)
    return Point3(-0.5, g, -0.5)


def point_q(a: float) -> Point3:
    g = g_q(a)
    return Point3(0.0, g, 0.0)


def minimal_period(p: Point3) -> int:
    """Smallest n <= PERIOD_MAX with max|f^n(p) - p| < PERIOD_TOL."""
    q = p
    for n in range(1, PERIOD_MAX + 1):
        try:
            q = apply_map(q)
        except ValueError:  # the orbit overflowed: it escapes to infinity
            break
        if max(abs(q.x - p.x), abs(q.y - p.y), abs(q.z - p.z)) < PERIOD_TOL:
            return n
    raise ValueError(f"point {tuple(p)} is not periodic within {PERIOD_MAX} "
                     f"steps at tol {PERIOD_TOL}")


def jacobian(p: Point3) -> np.ndarray:
    """Differential of the trace map; determinant is identically -1."""
    return np.array([
        [2.0 * p.y, 2.0 * p.x, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])


def tangent_frame(p: Point3) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the plane orthogonal to the invariant's
    gradient at p, built by Gram-Schmidt from the two coordinate axes
    least aligned with the gradient.  Rejects surface singular points
    (vanishing gradient), where no tangent plane exists."""
    grad = invariant_gradient(p)
    norm = float(np.linalg.norm(grad))
    if norm < GRADIENT_FLOOR:
        raise ValueError(
            f"gradient {tuple(grad)} vanishes at {tuple(p)}: singular point "
            "of the invariant surface, no tangent plane")
    normal = grad / norm
    axes = np.argsort(np.abs(grad), kind="stable")
    e1 = np.zeros(3)
    e1[axes[0]] = 1.0
    u1 = e1 - np.dot(e1, normal) * normal
    u1 /= np.linalg.norm(u1)
    e2 = np.zeros(3)
    e2[axes[1]] = 1.0
    u2 = e2 - np.dot(e2, normal) * normal - np.dot(e2, u1) * u1
    u2 /= np.linalg.norm(u2)
    return u1, u2


def restricted_jacobian(p: Point3, n: int) -> np.ndarray:
    """2x2 matrix of the n-step differential along the orbit of p,
    expressed in the tangent frame at p.  Requires f^n(p) = p to PERIOD_TOL;
    the map preserves both the invariant and area, so the result has
    determinant of magnitude 1 up to roundoff."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u1, u2 = tangent_frame(p)
    # Walk the orbit before multiplying along it, so that an escaping
    # orbit is refused before any matrix product can overflow.
    orbit = [p]
    try:
        for _ in range(n):
            orbit.append(apply_map(orbit[-1]))
    except ValueError:  # the orbit overflowed: it escapes to infinity
        raise ValueError(f"point is not n={n} periodic: its orbit escapes "
                         "to infinity") from None
    q = orbit[-1]
    drift = max(abs(q.x - p.x), abs(q.y - p.y), abs(q.z - p.z))
    if drift > PERIOD_TOL:
        raise ValueError(f"point is not n={n} periodic: returns with error {drift:.3e}")
    m = np.eye(3)
    for q in orbit[:-1]:
        m = jacobian(q) @ m
    frame = np.column_stack([u1, u2])
    return frame.T @ m @ frame


def restricted_multiplier(p: Point3, n: int) -> float:
    """Largest eigenvalue magnitude of the restricted n-step differential."""
    eigs = np.linalg.eigvals(restricted_jacobian(p, n))
    return float(np.max(np.abs(eigs)))


def multiplier_p_closed(a: float) -> float:
    """Unstable multiplier of the period-4 orbit, in closed form.

    The restricted 4-step differential has trace T = 8g(1-2g)+1 with
    g = g_p(a) (T <= -7 for a >= 0) and determinant 1, so the expanding
    eigenvalue has magnitude (|T| + sqrt(T^2 - 4))/2.
    """
    g = g_p(a)
    trace = 8.0 * g * (1.0 - 2.0 * g) + 1.0
    return (abs(trace) + math.sqrt(trace * trace - 4.0)) / 2.0


def multiplier_q_closed(a: float) -> float:
    """Unstable multiplier of the period-6 orbit, in closed form:
    S + sqrt(S^2 - 1) with S = 8*g_q(a)**4 + 1."""
    g = g_q(a)
    s = 8.0 * g ** 4 + 1.0
    return s + math.sqrt(s * s - 1.0)


def log_ratio(a: float) -> float:
    """log of the period-4 multiplier over log of the period-6 one.

    Equals 2/3 exactly at a = 0, where both multipliers are the 4th and
    6th powers of the same base, and moves away from 2/3 as a grows.
    """
    return math.log(multiplier_p_closed(a)) / math.log(multiplier_q_closed(a))


@dataclass(frozen=True)
class PeriodicPointInfo:
    """One orbit's data: placement, period, and both multiplier routes."""

    a: float
    lam: float
    point: Point3
    period: int
    multiplier_closed: float
    multiplier_numeric: float
    tangent_frame: tuple[tuple[float, float, float], tuple[float, float, float]]

    def __post_init__(self):
        if abs(invariant(self.point) - self.a) > 1e-12 * max(1.0, abs(self.a)):
            raise ValueError("point does not lie on the surface {I = a}")
        if not (self.multiplier_closed > 1.0 and self.multiplier_numeric > 1.0):
            raise ValueError("multipliers of a hyperbolic orbit must exceed 1")


def _orbit_info(a: float, point: Point3, closed: float) -> PeriodicPointInfo:
    n = minimal_period(point)
    numeric = restricted_multiplier(point, n)
    u1, u2 = tangent_frame(point)
    return PeriodicPointInfo(
        a=float(a),
        lam=2.0 * math.sqrt(a),
        point=point,
        period=n,
        multiplier_closed=closed,
        multiplier_numeric=numeric,
        tangent_frame=(tuple(u1), tuple(u2)),
    )


def orbit_info_p(a: float) -> PeriodicPointInfo:
    a = _require_surface_parameter(a)
    return _orbit_info(a, point_p(a), multiplier_p_closed(a))


def orbit_info_q(a: float) -> PeriodicPointInfo:
    a = _require_surface_parameter(a)
    return _orbit_info(a, point_q(a), multiplier_q_closed(a))


def scan_exceptional(a_min: float, a_max: float, grid: int, qmax: int,
                     tol: float = 1e-9) -> list[tuple[float, Fraction]]:
    """Grid points where the log-multiplier ratio sits within tol of a
    rational with denominator <= qmax — candidate parameters where the
    sum-dimension identity can fail (coupling lam = 2*sqrt(a)).

    Proximity flagging, not exact rationality: the scan is a screen for
    candidates, and widening qmax can only grow the flagged set.
    """
    a_min = _require_surface_parameter(a_min)
    if not (a_min < a_max):
        raise ValueError("need a_min < a_max")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    flagged: list[tuple[float, Fraction]] = []
    for a in np.linspace(a_min, a_max, grid):
        ratio = log_ratio(float(a))
        best = Fraction(ratio).limit_denominator(qmax)
        if abs(ratio - float(best)) <= tol:
            flagged.append((float(a), best))
    return flagged
