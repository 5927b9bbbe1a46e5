"""Linear iterated-function-system sandbox.

Exactly self-similar Cantor sets with known dimensions, used to exercise
the dimension estimators and to demonstrate the resonance dichotomy for
sums: when log r1 / log r2 is rational the sum of two attractors can
have dimension strictly below min(d1 + d2, 1); when it is irrational the
bound is attained.  Orientation-preserving maps x -> r*x + t only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dimension import solve_partition_exponent
from .errors import SizeCapError
from .intervals import IntervalSet

ATTRACTOR_CELL_CAP = 1_000_000
RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class LinearIFS:
    """Contractions x -> ratio*x + offset on a common hull interval.

    Every map must send the hull into itself (checked in floating
    point), which makes depth-refined covers exactly nested.
    """

    ratios: tuple[float, ...]
    offsets: tuple[float, ...]
    hull: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if len(self.ratios) != len(self.offsets) or not self.ratios:
            raise ValueError("need equally many ratios and offsets, at least one map")
        lo, hi = self.hull
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("hull must be a nondegenerate finite interval")
        for r, t in zip(self.ratios, self.offsets):
            if not (0.0 < r < 1.0):
                raise ValueError(f"contraction ratio {r} outside (0, 1)")
            if not (r * lo + t >= lo and r * hi + t <= hi):
                raise ValueError(
                    f"map x -> {r}*x + {t} does not send the hull into itself")

    def __len__(self) -> int:
        return len(self.ratios)


def attractor_cover(ifs: LinearIFS, depth: int) -> IntervalSet:
    """Union of hull images under all depth-fold map compositions.

    Depth 0 is the hull itself.  Covers are exactly nested in depth:
    float multiplication and addition are monotone, so each child image
    stays inside its parent bit-for-bit.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n_cells = len(ifs) ** depth
    if n_cells > ATTRACTOR_CELL_CAP:
        raise SizeCapError("attractor cover cells", n_cells, ATTRACTOR_CELL_CAP)
    lo = np.array([ifs.hull[0]])
    hi = np.array([ifs.hull[1]])
    r = np.asarray(ifs.ratios)
    t = np.asarray(ifs.offsets)
    for _ in range(depth):
        lo = (np.multiply.outer(r, lo) + t[:, None]).ravel()
        hi = (np.multiply.outer(r, hi) + t[:, None]).ravel()
    return IntervalSet.from_arrays(lo, hi)


def similarity_dim(ifs: LinearIFS) -> float:
    """The s with sum(r_i**s) = 1, for maps whose first-level images do
    not overlap in more than single points (checked)."""
    lo = np.array([r * ifs.hull[0] + t for r, t in zip(ifs.ratios, ifs.offsets)])
    hi = np.array([r * ifs.hull[1] + t for r, t in zip(ifs.ratios, ifs.offsets)])
    order = np.argsort(lo)
    if np.any(hi[order][:-1] > lo[order][1:]):
        raise ValueError("first-level images overlap; similarity dimension "
                         "formula requires separated maps")
    if len(ifs) == 1:
        return 0.0
    return solve_partition_exponent(np.asarray(ifs.ratios))


@dataclass(frozen=True)
class ResonanceVerdict:
    """Rationality verdict for a ratio of contraction logarithms.

    ``numerator/denominator`` is p/q, the best rational approximation of
    ``value`` with denominator <= qmax (``Fraction.limit_denominator``),
    and ``error`` is |value - p/q|.  ``resonant`` means the ratio is
    exactly rational at double precision, decided in exact rationals:
    |value - p/q| is within the rounding error of the computed quotient,
    or |value - p/q| * q**2 <= RESONANCE_TOL, so that the continued
    fraction's next complete quotient is about 1/RESONANCE_TOL or more.
    To first order the rounding error is at most
    2**-53 * value * (1/|log r1| + 1/|log r2| + 5): half an ulp of r1 or
    r2 moves its log by up to 2**-53, each log is within one ulp, and the
    division within half an ulp.  That covers a p/q which rounds to
    ``value``.  A small error beyond both bounds is never treated as
    resonance: excellent rational approximations of irrational ratios
    are the expected behaviour.
    """

    value: float
    resonant: bool
    numerator: int
    denominator: int
    error: float
    qmax: int


def log_ratio_resonance(r1: float, r2: float, qmax: int = 10 ** 6) -> ResonanceVerdict:
    """Exact rationality test of log r1 / log r2 at denominators <= qmax."""
    if not (0.0 < r1 < 1.0 and 0.0 < r2 < 1.0):
        raise ValueError("contraction ratios must lie in (0, 1)")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    log_r1, log_r2 = math.log(r1), math.log(r2)
    value = log_r1 / log_r2
    rounding = 2.0 ** -53 * value * (1.0 / -log_r1 + 1.0 / -log_r2 + 5.0)
    exact = Fraction(value)
    best = exact.limit_denominator(int(qmax))
    p, q = best.numerator, best.denominator
    gap = abs(exact - best)
    resonant = gap <= rounding or gap * q * q <= RESONANCE_TOL
    return ResonanceVerdict(value, resonant, p, q, abs(value - p / q), int(qmax))
