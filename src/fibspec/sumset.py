"""Minkowski sums of interval sets and sum-dimension comparisons.

The headline routine compares the box dimension of a sum of two spectral
covers against min(d1 + d2, 1), where d1 and d2 are per-factor dimension
estimates.  Reports carry the numbers and diagnostics only; they never
declare success or failure — thresholds belong to the caller (and to the
test suite), since an isolated miss at a single coupling does not mean
much for a statement that allows countably many exceptions.

Counting scales are not a fixed geometric ladder: at strong coupling the
bands of a depth-12 cover are already narrower than 1e-8, at weak
coupling they are wider than 1e-2, so any coupling-independent scale
choice lands outside the scaling window somewhere.  Instead, every cover
level is counted at its own resolution — the width of its widest band —
which tracks the hierarchy's actual contraction rate.  Using the same
rule for the factor estimates and the sum estimate makes the finite-depth
transients largely cancel in the reported gap.

A sum is formed one merge window of pair sums at a time (_sum_chunks),
and its components come out in order.  The windows are merged without
the constructors' checks, which the pair sums pass by construction: a
test of the two extreme sums, made once before any window is formed,
proves every pair sum finite.  The window edges are quantiles of a
strided sample of about a thousand pair sums per window, so placing
them costs in proportion to the windows.  A window being formed holds
its pairs' left sums and right sums, each built in one array in place,
and briefly their column indices, released before the merge; beside
them lie the previous window, held back until this one is merged, and
the window its consumer holds.  The sum check hands its four
ladder sums to dimension.box_dim_regression as streams of windows, the
same regression that fits each factor's covers, so the components are
box-counted as they pass and its memory is bounded by the window; the
finest sum's windows are also written into its cover as they pass, only
when its caller will list it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dimension import (DimensionEstimate, box_dim_regression,
                        solve_partition_exponent)
from .errors import SizeCapError
from .intervals import IntervalSet, _merge
from .spectrum import band_hierarchy

SUM_PAIR_CAP = 10_000_000
"""Maximum number of pair sums a Minkowski sum of a and b forms:
len(a) * len(b), or n(n+1)/2 for a self-sum of n components, which
forms each unordered pair once.  A bound on the work; the memory is
bounded by the merge window and whatever output is held."""

# Pair sums merged together by _sum_chunks.  Streaming the (20, 14)
# self-sum peaks at 1.83 MiB traced with 2**15, against 3.44 MiB with
# 2**16, at no cost in time; at 2**14 the per-window overhead cost 1.7%
# more wall time, and a sample of _SAMPLE_PER_WINDOW sums no longer kept
# every window within 5% of this size.
_WINDOW_PAIRS = 1 << 15
_SAMPLE_PER_WINDOW = 1024  # sampled sums per window placed by _window_edges
_SAMPLE_SIDE = 256  # ... and at most 256**2 sampled sums in all

CROSS_CHECK_TOL = 0.05
"""Disagreement between the box estimate and the partition-exponent
cross-check of a factor dimension beyond this width earns a caveat."""

EXCEPTIONAL_CAVEAT = (
    "floating-point estimates cannot distinguish the countable dense set of "
    "couplings where the sum-dimension identity is known to fail"
)


def _charged_pairs(a: IntervalSet, b: IntervalSet) -> int:
    """The pair sums _sum_chunks(a, b) forms, each unordered pair once
    when b is a; SizeCapError when they exceed SUM_PAIR_CAP."""
    n_pairs = len(a) * (len(a) + 1) // 2 if a is b else len(a) * len(b)
    if n_pairs > SUM_PAIR_CAP:
        raise SizeCapError("pairwise interval sums", n_pairs, SUM_PAIR_CAP)
    return n_pairs


def _sum_chunks(a: IntervalSet, b: IntervalSet
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All pairwise sums of components of a and b, merged, as (lo, hi)
    arrays of one merge window each, in order; refused when the pairs it
    forms exceed SUM_PAIR_CAP.  Nothing is formed, or refused, before the
    first item is asked for.

    A self-sum (b is a) forms only the n(n+1)/2 pairs j >= i, and is
    charged that many against the cap: fl(a_i + a_j) == fl(a_j + a_i),
    so the union is the same.  The endpoints are the floats
    a.lo[i] + b.lo[j] and a.hi[i] + b.hi[j].

    Each window of pair sums is merged in place by intervals._merge, the
    merge IntervalSet.from_arrays runs after its checks.  The pair sums
    pass those checks by construction.  Rounding is monotone, so every
    pair sum lies between fl(a.lo[0] + b.lo[0]) and
    fl(a.hi[-1] + b.hi[-1]); these two are tested once, and if either is
    not finite the sum is refused, with the constructors' ValueError,
    before any window is formed.  For the same reason each pair's hi is
    at least its lo.  Normal-form endpoints are never -0.0, and a float
    sum is -0.0 only when both terms are, so no pair sum is -0.0.

    A window's leading components that reach back to the right end of
    the previous window's last component extend that component, so a
    window is held back until the next window that keeps a component of
    its own has been merged; what is yielded is final.
    """
    if not a or not b:
        raise ValueError("a Minkowski sum requires two non-empty interval sets")
    n_pairs = _charged_pairs(a, b)
    if not (math.isfinite(float(a.lo[0]) + float(b.lo[0]))
            and math.isfinite(float(a.hi[-1]) + float(b.hi[-1]))):
        raise ValueError("interval endpoints must be finite")
    self_sum = a is b
    if len(a) > len(b):
        a, b = b, a  # rows are the shorter operand
    rows = np.arange(len(a))
    held = None  # the last window with a component of its own
    edges = _window_edges(a.lo, b.lo, n_pairs)
    first = np.zeros(len(a), dtype=np.int64)
    for w in range(edges.size + 1):
        stop = (_first_at_least(a.lo, b.lo, edges[w]) if w < edges.size
                else np.full(len(a), len(b)))
        # row i's pairs in this window are the columns first[i]:stop[i]
        if self_sum:
            lo_col, hi_col = np.maximum(first, rows), np.maximum(stop, rows)
        else:
            lo_col, hi_col = first, stop
        first = stop
        counts = hi_col - lo_col
        total = int(counts.sum())
        if total == 0:
            continue
        offsets = np.cumsum(counts) - counts
        pair_col = np.repeat(lo_col - offsets, counts)
        pair_col += np.arange(total)
        wlo = np.repeat(a.lo, counts)
        wlo += b.lo[pair_col]
        whi = np.repeat(a.hi, counts)
        whi += b.hi[pair_col]
        del pair_col
        wlo, whi = _merge(wlo, whi)
        # Components that reach back to the right end of the held window's
        # last component continue it.
        if held is not None:
            held_hi = held[1]
            joined = int(np.searchsorted(wlo, held_hi[-1], side="right"))
            if joined:
                held_hi[-1] = max(held_hi[-1], whi[joined - 1])
                wlo, whi = wlo[joined:], whi[joined:]
            if not wlo.size:
                continue
            yield held
        held = wlo, whi
    yield held


def _window_edges(a_lo: np.ndarray, b_lo: np.ndarray, n_pairs: int) -> np.ndarray:
    """Left-endpoint edges that split n_pairs pair sums into windows of
    about _WINDOW_PAIRS each, from quantiles of a strided sample of about
    _SAMPLE_PER_WINDOW sums per window.  Windows only split the work: the
    sum is the same for any edges."""
    n_windows = -(-n_pairs // _WINDOW_PAIRS)
    if n_windows <= 1:
        return np.empty(0)
    side = min(_SAMPLE_SIDE, math.isqrt(_SAMPLE_PER_WINDOW * n_windows))
    sample = np.sort(np.add.outer(a_lo[::-(-a_lo.size // side)],
                                  b_lo[::-(-b_lo.size // side)]),
                     axis=None)
    return np.unique(sample[np.arange(1, n_windows) * sample.size // n_windows])


def _first_at_least(a_lo: np.ndarray, b_lo: np.ndarray, edge: float) -> np.ndarray:
    """For each row i, the first column j with fl(a_lo[i] + b_lo[j]) >= edge.

    searchsorted on edge - a_lo[i] can be off where that difference
    rounds, or overflows where the sets span the float range; the float
    sums are monotone in j, so stepping until they straddle the edge
    gives the exact column.
    """
    m = b_lo.size
    with np.errstate(over="ignore"):  # an overflow only moves the start
        j = np.searchsorted(b_lo, edge - a_lo)
    while True:
        back = (j > 0) & (a_lo + b_lo[j - 1] >= edge)
        if not back.any():
            break
        j -= back
    while True:
        ahead = (j < m) & (a_lo + b_lo[np.minimum(j, m - 1)] < edge)
        if not ahead.any():
            return j
        j += ahead


@dataclass(frozen=True)
class TheoremReport:
    """Numbers from one sum-dimension comparison at covers of depth k.

    ``gap`` = sum_dim_est.value - rhs with rhs = min(hd1 + hd2, 1); a
    small |gap| is consistent with the sum-dimension identity at this
    coupling pair, a clearly negative gap is consistent with the general
    upper bound only.  ``sum_count``, ``sum_hull`` and
    ``sum_total_length`` describe the finest sum cover; ``sum_cover`` is
    that cover itself, or None where it has more components than the
    caller asked to keep.
    """

    lambda1: float
    lambda2: float
    k: int
    hd1_est: DimensionEstimate
    hd2_est: DimensionEstimate
    sum_dim_est: DimensionEstimate
    rhs: float
    gap: float
    levels: list[int]
    sum_count: int
    sum_hull: tuple[float, float]
    sum_total_length: float
    sum_cover: IntervalSet | None
    caveats: tuple[str, ...] = field(default=(EXCEPTIONAL_CAVEAT,))

    def __post_init__(self):
        if not (0.0 <= self.rhs <= 1.0):
            raise ValueError(f"rhs {self.rhs} outside [0, 1]")
        if not np.isfinite(self.gap):
            raise ValueError("gap must be finite")


def ladder_dimension(covers: list[IntervalSet]
                     ) -> tuple[DimensionEstimate, DimensionEstimate | None]:
    """Box and partition-exponent estimates from covers ordered coarse to
    fine.

    The box estimate regresses over every level, each counted at its
    own resolution: the width of its widest band.  At that cell size a
    cover is indistinguishable from the set it covers — no component
    spans more than one extra cell — so the count is a covering number
    of the underlying set, not of the fattening.  The partition exponent
    is that of the finest cover, or None where it means nothing: fewer
    than two bands, a length outside (0, 1), or lengths summing to 1 or
    more.  It is flagged approximate: a spectral band system is not
    exactly self-similar.
    """
    box = box_dim_regression(covers, [c.max_length for c in covers])
    finest = covers[-1]
    lengths = finest.lengths
    if (len(finest) < 2 or np.any(lengths <= 0) or np.any(lengths >= 1)
            or lengths.sum() >= 1.0):
        return box, None
    return box, DimensionEstimate(solve_partition_exponent(lengths), 0.0, [],
                                  "moran", approximate=True)


def _factor_report(covers: list[IntervalSet], which: str,
                   caveats: list[str]) -> DimensionEstimate:
    """Box dimension of one factor, with the partition exponent as a
    cross-check."""
    est, check = ladder_dimension(covers)
    if check is None:
        caveats.append(
            f"{which}: cover bands too coarse for a partition-exponent "
            "cross-check")
    elif abs(check.value - est.value) > CROSS_CHECK_TOL:
        caveats.append(
            f"{which}: partition-exponent cross-check {check.value:.4f} "
            f"disagrees with the box estimate {est.value:.4f}")
    return est


def check_theorem_rect(lambda1: float, lambda2: float, k: int,
                       tol: float = 1e-12,
                       cover_cap: int | None = 10_000) -> TheoremReport:
    """Compare dim(cover(lambda1,k) + cover(lambda2,k)) with
    min(d1 + d2, 1) over cover levels k-3 .. k.  Depth is bounded only
    by SUM_PAIR_CAP, charged before any sum is formed.

    All four ladder sums go to one box_dim_regression call as streams
    of merge windows, each counted at the wider of its factors' widest
    bands; the regression checks the cell sizes before any sum is
    formed, and no sum is held.  The finest sum's stream (_finest_sum) also measures
    it (count, hull, total length) and keeps its cover for the report
    only if it has at most cover_cap components (None: any number).
    """
    levels, covers1 = band_hierarchy(lambda1, k + 1, tol).ladder(k)
    covers2 = (covers1 if lambda2 == lambda1
               else band_hierarchy(lambda2, k + 1, tol).ladder(k)[1])
    # Refuse an oversized finest sum before forming the coarser ones.
    _charged_pairs(covers1[-1], covers2[-1])

    finest = {}
    sum_dim = box_dim_regression(
        [_sum_chunks(c1, c2) for c1, c2 in zip(covers1[:-1], covers2[:-1])]
        + [_finest_sum(covers1[-1], covers2[-1], cover_cap, finest)],
        [max(c1.max_length, c2.max_length) for c1, c2 in zip(covers1, covers2)])

    caveats = [EXCEPTIONAL_CAVEAT]
    if lambda2 == lambda1:
        hd1 = hd2 = _factor_report(covers1, "both factors", caveats)
    else:
        hd1 = _factor_report(covers1, "factor 1", caveats)
        hd2 = _factor_report(covers2, "factor 2", caveats)

    rhs = min(hd1.value + hd2.value, 1.0)
    return TheoremReport(
        lambda1=float(lambda1),
        lambda2=float(lambda2),
        k=int(k),
        hd1_est=hd1,
        hd2_est=hd2,
        sum_dim_est=sum_dim,
        rhs=rhs,
        gap=sum_dim.value - rhs,
        levels=levels,
        caveats=tuple(caveats),
        **finest,
    )


def _finest_sum(a: IntervalSet, b: IntervalSet, cap: int | None,
                report: dict) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The windows of a + b, passed through from _sum_chunks; once they
    run out, report holds the sum's TheoremReport fields: sum_count,
    sum_hull, sum_total_length and sum_cover.  The cover is None if it
    has more than cap components (None: keep every window).  Windows are
    written into the cover's arrays as they pass, while those can hold
    them.  The total length is np.sum of one array of every component's
    length: the kept cover's, or, where cap may drop the cover, a buffer
    written as the windows pass.  Summing each window instead, joined by
    math.fsum, gave the same floats in less memory but 14% more wall time
    and six times the minor page faults, likely because glibc, without
    this large block, then returns the window temporaries to the system.
    """
    n_pairs = _charged_pairs(a, b)
    # A sum has at most as many components as pairs; the pages past the
    # count are never written, so they are never resident.
    keep = n_pairs if cap is None else min(max(cap, 0), n_pairs)
    kept_lo, kept_hi = np.empty(keep), np.empty(keep)
    lengths = None if cap is None else np.empty(n_pairs)
    count = 0
    for lo, hi in _sum_chunks(a, b):
        end = count + lo.size
        if not count:
            first = float(lo[0])
        last = float(hi[-1])
        if end <= keep:
            kept_lo[count:end], kept_hi[count:end] = lo, hi
        if lengths is not None:
            np.subtract(hi, lo, out=lengths[count:end])
        count = end
        yield lo, hi
    cover = (IntervalSet._from_normalized(kept_lo[:count], kept_hi[:count])
             if count <= keep else None)
    report.update(sum_count=count, sum_hull=(first, last),
                  sum_total_length=(cover.total_length if cover is not None
                                    else float(np.sum(lengths[:count]))),
                  sum_cover=cover)
