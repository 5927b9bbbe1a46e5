"""Box-counting and partition-exponent (Moran) dimension estimators.

Both estimators consume IntervalSet covers.  Box counting uses half-open
cells [j*eps, (j+1)*eps) anchored at 0, with the exact occupancy rule
spelled out on box_count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .intervals import IntervalSet

PARTITION_TOL = 1e-10
"""Bracket width at which the partition-exponent bisection stops."""


@dataclass(frozen=True)
class DimensionEstimate:
    """A dimension value with its provenance.

    ``method`` is "box" (log-log regression over scales) or "moran"
    (fixed-level partition exponent).  ``slope_stderr`` is the OLS
    standard error for box estimates and 0 for Moran.  ``levels_used``
    lists the indices of the cover levels that entered a regression.
    ``degenerate`` flags inputs with no scaling content (all counts
    equal; a single short band).  ``approximate`` marks Moran values on
    band systems that are not exactly self-similar.
    """

    value: float
    slope_stderr: float = 0.0
    levels_used: list[int] = field(default_factory=list)
    method: str = "box"
    degenerate: bool = False
    approximate: bool = False

    def __post_init__(self):
        if not (0.0 <= self.value <= 2.0):
            raise ValueError(f"dimension estimate {self.value} outside [0, 2]")


def box_count(s: IntervalSet, eps: float) -> int:
    """Number of grid cells [j*eps, (j+1)*eps) met by s.

    A point x lies in cell floor(x/eps), so a component [a, b] meets the
    cells floor(a/eps) through floor(b/eps), with the quotients taken in
    double precision; a single-point component meets exactly one cell.
    The rule is a closed-set intersection count: an endpoint sitting on a
    cell boundary occupies the cell to its right, which can add one cell
    beyond the positive-length overlaps.
    """
    if eps <= 0 or not math.isfinite(eps):
        raise ValueError("cell size must be positive and finite")
    if not s:
        return 0
    j0 = np.floor(s.lo / eps).astype(np.int64)
    j1 = np.floor(s.hi / eps).astype(np.int64)
    if j0.size == 1:
        return int(j1[0] - j0[0] + 1)
    # Components are sorted, so cell runs can only overlap earlier runs;
    # clip each run to start past the running maximum.
    prev_max = np.concatenate([[np.iinfo(np.int64).min],
                               np.maximum.accumulate(j1)[:-1]])
    start = np.maximum(j0, prev_max + 1)
    return int(np.sum(np.maximum(0, j1 - start + 1)))


def box_dim_regression(covers: list[IntervalSet],
                       eps: list[float]) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log(1/eps) over every
    level; callers choose the window by what they pass.

    At least three levels are needed.  All-equal counts are returned as
    slope 0 with the degenerate flag set.
    """
    if len(covers) != len(eps):
        raise ValueError("covers and eps must align")
    if len(covers) < 3:
        raise ValueError(f"need at least 3 levels, have {len(covers)}")
    eps_arr = np.asarray(eps, dtype=float)
    if np.any(eps_arr <= 0):
        raise ValueError("cell sizes must be positive")
    if np.any(np.diff(eps_arr) >= 0):
        raise ValueError("cell sizes must be strictly decreasing (coarse to fine)")
    levels = list(range(len(covers)))
    counts = np.array([box_count(c, e) for c, e in zip(covers, eps_arr)],
                      dtype=float)
    if np.any(counts == 0):
        raise ValueError("a cover level produced zero boxes (empty set?)")
    if np.all(counts == counts[0]):
        return DimensionEstimate(0.0, 0.0, levels, "box", degenerate=True)
    x = np.log(1.0 / eps_arr)
    y = np.log(counts)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    stderr = float(np.sqrt(np.dot(resid, resid) / (len(levels) - 2)
                           / np.dot(xc, xc)))
    return DimensionEstimate(float(np.clip(slope, 0.0, 2.0)), stderr, levels, "box")


def solve_partition_exponent(lengths: np.ndarray) -> float:
    """The unique s in [0, 2] with sum(lengths**s) == 1, by bisection.

    Requires every length in (0, 1) and at least two entries, so the sum
    is strictly decreasing in s with a sign change on [0, 2].
    """
    ell = np.asarray(lengths, dtype=float)
    if ell.size < 2:
        raise ValueError("need at least two lengths")
    if np.any(ell <= 0) or np.any(ell >= 1):
        raise ValueError("lengths must lie strictly inside (0, 1)")
    log_ell = np.log(ell)

    def g(s: float) -> float:
        return float(np.sum(np.exp(s * log_ell))) - 1.0

    lo, hi = 0.0, 2.0
    if g(hi) > 0:
        raise ValueError("partition sum still exceeds 1 at s = 2; not a contracting cover")
    for _ in range(200):
        if hi - lo <= PARTITION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moran_dim(bands: IntervalSet, approximate: bool = False) -> DimensionEstimate:
    """Partition exponent of a band system: the s with sum(len_i**s) = 1.

    For the exact cover of a self-similar set this is the similarity
    dimension; on spectral band systems it is a fixed-level estimate and
    callers should set ``approximate=True``.  A system of fewer than two
    bands has exponent 0 by convention (degenerate flag set).
    """
    if not bands:
        raise ValueError("empty band system")
    lengths = bands.lengths
    if np.any(lengths >= 1.0):
        raise ValueError("band lengths must be < 1 for a partition exponent")
    if len(bands) == 1:
        if lengths[0] <= 0:
            raise ValueError("a single degenerate point has no partition exponent")
        return DimensionEstimate(0.0, 0.0, [], "moran", degenerate=True,
                                 approximate=approximate)
    if np.any(lengths <= 0):
        raise ValueError("degenerate bands not admitted in a multi-band system")
    s = solve_partition_exponent(lengths)
    return DimensionEstimate(s, 0.0, [], "moran", approximate=approximate)
