"""The Fibonacci trace map and its invariant surfaces.

The map acts on triples of transfer-matrix half-traces,

    f(x, y, z) = (2*x*y - z, x, y),

and preserves the Fricke-Vogt invariant

    I(x, y, z) = x**2 + y**2 + z**2 - 2*x*y*z - 1.

For coupling ``lam`` the level sets { I = lam**2 / 4 } foliate phase space;
an energy E enters the picture through the spectral line

    l(E) = ((E - lam)/2, E/2, 1),

whose forward orbit encodes the half-trace recursion of the associated
quasiperiodic operator.  ``spectrum._half_trace`` runs that recursion
along the spectral line for the band finder, vectorized over energies,
on the doubled coordinates 2 l(E) = (E - lam, E, 2), where each step
is t_{j+1} = t_j * t_{j-1} - t_{j-2}; the map and the invariant here
serve the periodic orbits.
Everything here is exact double-precision arithmetic; no randomness, no
tolerance knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point3:
    """A point of trace-map phase space.  Coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate in Point3: {c!r}")

    def __iter__(self):
        return iter((self.x, self.y, self.z))


def apply_map(p: Point3) -> Point3:
    """One forward step of the trace map."""
    return Point3(2.0 * p.x * p.y - p.z, p.x, p.y)


def invariant(p: Point3) -> float:
    """Fricke-Vogt invariant I(x, y, z) = x^2 + y^2 + z^2 - 2xyz - 1."""
    return p.x * p.x + p.y * p.y + p.z * p.z - 2.0 * p.x * p.y * p.z - 1.0

