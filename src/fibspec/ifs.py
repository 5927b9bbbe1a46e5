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

    ``resonant`` means the continued fraction of ``value`` terminated
    (fractional part below RESONANCE_TOL) at denominator <= qmax, i.e.
    the ratio is exactly rational at double precision.  Otherwise
    ``numerator/denominator`` is the best rational approximation with
    denominator <= qmax and ``error`` its distance — possibly tiny, but
    tiny error alone is never treated as resonance: excellent rational
    approximations of irrational ratios are the expected behaviour.
    """

    value: float
    resonant: bool
    numerator: int
    denominator: int
    error: float
    qmax: int


def _continued_fraction_verdict(value: float, qmax: int) -> ResonanceVerdict:
    p_prev, q_prev = 1, 0
    p, q = int(math.floor(value)), 1
    x = value - math.floor(value)
    if x <= RESONANCE_TOL:
        return ResonanceVerdict(value, True, p, q, abs(value - p), qmax)
    while True:
        a = math.floor(1.0 / x)
        x = 1.0 / x - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > qmax:
            best = Fraction(value).limit_denominator(qmax)
            return ResonanceVerdict(
                value, False, best.numerator, best.denominator,
                abs(value - best.numerator / best.denominator), qmax)
        if x <= RESONANCE_TOL:
            return ResonanceVerdict(value, True, p, q, abs(value - p / q), qmax)


def log_ratio_resonance(r1: float, r2: float, qmax: int = 10 ** 6) -> ResonanceVerdict:
    """Continued-fraction rationality scan of log r1 / log r2."""
    if not (0.0 < r1 < 1.0 and 0.0 < r2 < 1.0):
        raise ValueError("contraction ratios must lie in (0, 1)")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    return _continued_fraction_verdict(math.log(r1) / math.log(r2), int(qmax))
