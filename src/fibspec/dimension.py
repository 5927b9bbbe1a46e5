"""Box-counting and partition-exponent (Moran) dimension estimators.

Box counting consumes IntervalSet covers, or a set's components in
order as they stream past, in half-open cells [j*eps, (j+1)*eps)
anchored at 0, with the exact occupancy rule spelled out on box_count.
The one box-dimension regression takes a ladder whose levels may be of
either kind, so a factor's covers and a streamed sum's windows are
counted and fitted alike.  The partition exponent is solved from band
lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .intervals import IntervalSet

PARTITION_TOL = 1e-10
"""Bracket width at which the partition-exponent bisection stops."""

_BLOCK_COMPONENTS = 1 << 16  # components box_count handles at a time


@dataclass(frozen=True)
class DimensionEstimate:
    """A dimension value with its provenance.

    ``method`` is "box" (log-log regression over scales) or "moran"
    (fixed-level partition exponent).  ``slope_stderr`` is the OLS
    standard error for box estimates and 0 for Moran.  ``levels_used``
    lists the indices of the cover levels that entered a regression.
    ``degenerate`` flags inputs with no scaling content (all counts
    equal).  ``approximate`` marks Moran values on band systems that are
    not exactly self-similar.
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
    beyond the positive-length overlaps.  Components are sorted and
    disjoint, so one shares at most its first cell, with the last cell of
    the one before it (see _count_cells).  Components are counted in
    blocks, so the temporaries do not grow with the size of s.

    ValueError once |x|/eps reaches 2**53 for an endpoint x: past that
    precision floor the float quotients no longer tell neighbouring
    cells apart.
    """
    return _count_cells(((s.lo[i:i + _BLOCK_COMPONENTS],
                          s.hi[i:i + _BLOCK_COMPONENTS])
                         for i in range(0, len(s), _BLOCK_COMPONENTS)), eps)


def _count_cells(chunks: Iterable[tuple[np.ndarray, np.ndarray]],
                 eps: float) -> int:
    """box_count of the set whose components, in order, are the (lo, hi)
    arrays of the non-empty chunks: any split of a normalized set into
    consecutive runs gives the same count, so a set can be counted as it
    streams.

    The components are trusted to be in normal form, sorted and
    disjoint, as every caller's are.  Then j0 = floor(lo/eps) and
    j1 = floor(hi/eps) never decrease along the set, because division by
    eps and floor are monotone even when rounded.  So component i meets
    cells j0[i] .. j1[i], and can share only j0[i], only with j1[i-1],
    also across chunks: the count is the sum of j1 - j0 + 1 less the
    number of i with j0[i] == j1[i-1].  The first and last ends of each
    chunk bound the rest, so they alone are tested against the precision
    floor.
    """
    if eps <= 0 or not math.isfinite(eps):
        raise ValueError("cell size must be positive and finite")
    total = 0
    last = None  # the last cell of the previous chunk
    for lo, hi in chunks:
        if max(-float(lo[0]), float(hi[-1])) / eps >= 2.0**53:
            raise ValueError(
                f"cell size {eps!r} is past the precision floor: |x|/eps "
                "reaches 2**53 at an endpoint x, where float cell indices "
                "no longer tell neighbouring cells apart")
        j0, j1 = _cells(lo, eps), _cells(hi, eps)
        total += (int(np.sum(j1 - j0)) + j0.size
                  - int(np.count_nonzero(j0[1:] == j1[:-1]))
                  - (int(j0[0]) == last))
        last = int(j1[-1])
    return total


def _cells(x: np.ndarray, eps: float) -> np.ndarray:
    """floor(x/eps) as int64 cell indices, floored in place so that a
    chunk holds one float temporary at a time."""
    q = x / eps
    return np.floor(q, out=q).astype(np.int64)


def box_dim_regression(
        covers: list[IntervalSet | Iterable[tuple[np.ndarray, np.ndarray]]],
        eps: list[float]) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log(1/eps) over every
    level; callers choose the window by what they pass.

    A level is an IntervalSet, counted by box_count, or a stream: the
    (lo, hi) chunks of one set's components in order, counted by
    _count_cells as they pass.  At least three levels are needed, with
    cell sizes positive, finite and strictly decreasing (coarse to
    fine); these are checked before the first level is counted, so no
    stream is advanced for such a scale.  All-equal counts are returned
    as slope 0 with the degenerate flag set.
    """
    if len(covers) != len(eps):
        raise ValueError("covers and eps must align")
    if len(eps) < 3:
        raise ValueError(f"need at least 3 levels, have {len(eps)}")
    eps_arr = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps_arr) & (eps_arr > 0)):
        raise ValueError("cell sizes must be positive and finite")
    if np.any(np.diff(eps_arr) >= 0):
        raise ValueError("cell sizes must be strictly decreasing (coarse to fine)")
    counts = np.array([box_count(c, e) if isinstance(c, IntervalSet)
                       else _count_cells(c, e)
                       for c, e in zip(covers, eps_arr)], dtype=float)
    if np.any(counts == 0):
        raise ValueError("a cover level produced zero boxes (empty set?)")
    levels = list(range(len(counts)))
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
