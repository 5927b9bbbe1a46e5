"""Distinguished periodic orbits of the trace map.

Two families of periodic points, one of period 4 and one of period 6,
exist on every invariant surface {I = a}, a >= 0, with closed-form
coordinates and closed-form unstable multipliers.  The ratio of the two
log-multipliers is 2/3 at a = 0 and varies with a, which is the quantity
the parameter scan probes for rational values.

Each family is declared once, in ``_FAMILIES``.  ``orbit_info(a)`` places
both points, walks each orbit once to find its period, multiplies the
differential along that same walk, and restricts the product to the
tangent plane of the surface.  From a = 2.03e31 on, where the period-4
point's y-coordinate g reaches 2**52, -g + 0.5 is no longer a double, so
the float orbit does not close; ``orbit_info`` refuses such an a as past
the precision floor.

The surface parameter a corresponds to coupling lam = 2*sqrt(a): the
spectral line of coupling lam lies on the surface {I = lam**2/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeCapError
from .tracemap import Point3, apply_map, invariant, invariant_gradient

PERIOD_TOL = 1e-10
PERIOD_MAX = 64
GRADIENT_FLOOR = 1e-8
# points of one scan grid: 80 MB, and about 2 min at 11.5 us a point on 2 vCPUs
_SCAN_GRID_CAP = 10_000_000


def _require_surface_parameter(a: float) -> float:
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"surface parameter must be finite and >= 0, got {a}")
    return a


def _multiplier_p(g: float) -> float:
    """The restricted 4-step differential at (-1/2, g, -1/2) has trace
    T = 8g(1-2g)+1 (T <= -7 for a >= 0) and determinant 1, so the
    expanding eigenvalue has magnitude (|T| + sqrt(T^2 - 4))/2."""
    trace = 8.0 * g * (1.0 - 2.0 * g) + 1.0
    return (abs(trace) + math.sqrt(trace * trace - 4.0)) / 2.0


def _multiplier_q(g: float) -> float:
    """S + sqrt(S^2 - 1) with S = 8g^4 + 1, at (0, g, 0)."""
    s = 8.0 * g ** 4 + 1.0
    return s + math.sqrt(s * s - 1.0)


#: The period-4 and the period-6 family as (x = z coordinate, y-coordinate
#: g of the point (x, g, x) on the surface {I = a}, unstable multiplier
#: from g).
_FAMILIES = (
    (-0.5, lambda a: (1.0 + math.sqrt(9.0 + 16.0 * a)) / 4.0, _multiplier_p),
    (0.0, lambda a: math.sqrt(a + 1.0), _multiplier_q),
)


def _orbit(p: Point3) -> list[Point3]:
    """p, f(p), ..., f^n(p) for the smallest n <= PERIOD_MAX with
    max|f^n(p) - p| < PERIOD_TOL."""
    orbit = [p]
    for _ in range(PERIOD_MAX):
        try:
            q = apply_map(orbit[-1])
        except ValueError:  # the orbit overflowed: it escapes to infinity
            break
        orbit.append(q)
        if max(abs(q.x - p.x), abs(q.y - p.y), abs(q.z - p.z)) < PERIOD_TOL:
            return orbit
    raise ValueError(f"point {tuple(p)} is not periodic within {PERIOD_MAX} "
                     f"steps at tol {PERIOD_TOL}")


def _jacobian(p: Point3) -> np.ndarray:
    """Differential of the trace map; determinant is identically -1."""
    return np.array([
        [2.0 * p.y, 2.0 * p.x, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])


def _tangent_frame(p: Point3) -> tuple[np.ndarray, np.ndarray]:
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


def _restricted_jacobian(orbit: list[Point3], frame: np.ndarray) -> np.ndarray:
    """2x2 matrix of the differential along ``orbit``, in the tangent
    frame (columns of ``frame``) at its closing point.  The map preserves
    both the invariant and area, so the determinant has magnitude 1 up to
    roundoff."""
    m = np.eye(3)
    for q in orbit[:-1]:
        m = _jacobian(q) @ m
    return frame.T @ m @ frame


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


def _orbit_info(a: float, x: float, g_of, multiplier) -> PeriodicPointInfo:
    g = g_of(a)
    point = Point3(x, g, x)
    try:
        orbit = _orbit(point)
    except ValueError:  # the point is periodic: rounding kept it from closing
        raise ValueError(
            f"the orbit of the periodic point {tuple(point)} does not close "
            f"to {PERIOD_TOL} in double precision: its coordinates are past "
            "the precision floor") from None
    u1, u2 = _tangent_frame(point)
    m = _restricted_jacobian(orbit, np.column_stack([u1, u2]))
    return PeriodicPointInfo(
        a=a,
        lam=2.0 * math.sqrt(a),
        point=point,
        period=len(orbit) - 1,
        multiplier_closed=multiplier(g),
        multiplier_numeric=float(np.max(np.abs(np.linalg.eigvals(m)))),
        tangent_frame=(tuple(u1), tuple(u2)),
    )


def orbit_info(a: float) -> tuple[PeriodicPointInfo, PeriodicPointInfo]:
    """The period-4 and the period-6 orbit on the surface {I = a}.

    A ValueError names the precision floor where a float orbit of a
    family's exactly periodic point does not close.
    """
    a = _require_surface_parameter(a)
    info_p, info_q = (_orbit_info(a, *family) for family in _FAMILIES)
    return info_p, info_q


def log_ratio(a: float) -> float:
    """log of the period-4 multiplier over log of the period-6 one, from
    the closed forms.

    Equals 2/3 exactly at a = 0, where both multipliers are the 4th and
    6th powers of the same base, and moves away from 2/3 as a grows.  A
    ValueError names the precision floor where either multiplier is not a
    finite double: from a ~ 4.09e76 on, the period-6 one overflows.
    """
    a = _require_surface_parameter(a)
    try:
        mp, mq = (multiplier(g_of(a)) for _, g_of, multiplier in _FAMILIES)
    except OverflowError:  # g ** 4 of the period-6 form, from a ~ 1e155 on
        mp = mq = math.inf
    if not (math.isfinite(mp) and math.isfinite(mq)):
        raise ValueError(f"the closed-form multipliers at a = {a!r} overflow a "
                         "double: a is past the precision floor")
    return math.log(mp) / math.log(mq)


def scan_exceptional(a_min: float, a_max: float, grid: int, qmax: int,
                     tol: float = 1e-9) -> list[tuple[float, Fraction]]:
    """Grid points where the log-multiplier ratio sits within tol of a
    rational with denominator <= qmax — candidate parameters where the
    sum-dimension identity can fail (coupling lam = 2*sqrt(a)).

    Proximity flagging, not exact rationality: the scan is a screen for
    candidates, and widening qmax can only grow the flagged set.  A grid
    past ``_SCAN_GRID_CAP`` points raises SizeCapError before it is formed.
    """
    a_min, a_max = (_require_surface_parameter(a) for a in (a_min, a_max))
    if not (a_min < a_max):
        raise ValueError("need a_min < a_max")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    if grid > _SCAN_GRID_CAP:
        raise SizeCapError("scan grid points", grid, _SCAN_GRID_CAP)
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    flagged: list[tuple[float, Fraction]] = []
    for a in np.linspace(a_min, a_max, grid):
        ratio = log_ratio(float(a))
        best = Fraction(ratio).limit_denominator(qmax)
        if abs(ratio - float(best)) <= tol:
            flagged.append((float(a), best))
    return flagged
