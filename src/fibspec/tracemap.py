"""The Fibonacci trace map and its invariant surfaces.

The map acts on triples of transfer-matrix half-traces,

    f(x, y, z) = (2*x*y - z, x, y),

and preserves the Fricke-Vogt invariant

    I(x, y, z) = x**2 + y**2 + z**2 - 2*x*y*z - 1.

For coupling ``lam`` the level sets { I = lam**2 / 4 } foliate phase space;
an energy E enters the picture through the spectral line

    l(E) = ((E - lam)/2, E/2, 1),

whose forward orbit encodes the half-trace recursion of the associated
quasiperiodic operator.  Everything here is exact double-precision
arithmetic; no randomness, no tolerance knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def apply_map(p: Point3) -> Point3:
    """One forward step of the trace map."""
    return Point3(2.0 * p.x * p.y - p.z, p.x, p.y)


def apply_map_inverse(p: Point3) -> Point3:
    """One backward step; composing with apply_map gives the identity."""
    return Point3(p.y, p.z, 2.0 * p.y * p.z - p.x)


def apply_map_batch(pts: np.ndarray) -> np.ndarray:
    """Forward step applied to an (N, 3) array of points at once."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
    out = np.empty_like(pts)
    out[:, 0] = 2.0 * pts[:, 0] * pts[:, 1] - pts[:, 2]
    out[:, 1] = pts[:, 0]
    out[:, 2] = pts[:, 1]
    return out


def apply_map_inverse_batch(pts: np.ndarray) -> np.ndarray:
    """Backward step applied to an (N, 3) array of points at once."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 1]
    out[:, 1] = pts[:, 2]
    out[:, 2] = 2.0 * pts[:, 1] * pts[:, 2] - pts[:, 0]
    return out


def invariant(p: Point3) -> float:
    """Fricke-Vogt invariant I(x, y, z) = x^2 + y^2 + z^2 - 2xyz - 1."""
    return p.x * p.x + p.y * p.y + p.z * p.z - 2.0 * p.x * p.y * p.z - 1.0


def invariant_batch(pts: np.ndarray) -> np.ndarray:
    """Invariant evaluated over an (N, 3) array of points."""
    pts = np.asarray(pts, dtype=float)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def invariant_gradient(p: Point3) -> np.ndarray:
    """Gradient of the invariant; normal to its level surface at p."""
    return np.array(
        [
            2.0 * p.x - 2.0 * p.y * p.z,
            2.0 * p.y - 2.0 * p.x * p.z,
            2.0 * p.z - 2.0 * p.x * p.y,
        ]
    )


def spectral_line(lam: float, E: float) -> Point3:
    """Initial condition ((E - lam)/2, E/2, 1) for energy E at coupling lam.

    Its invariant equals lam**2 / 4 identically, so the whole line lives on
    one level surface of I.
    """
    if not (math.isfinite(lam) and math.isfinite(E)):
        raise ValueError("coupling and energy must be finite")
    return Point3((E - lam) / 2.0, E / 2.0, 1.0)
