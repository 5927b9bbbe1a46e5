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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dimension import (DimensionEstimate, box_dim_regression,
                        solve_partition_exponent)
from .errors import SizeCapError
from .intervals import IntervalSet, _normalize
from .spectrum import band_hierarchy

SUM_PAIR_CAP = 10_000_000
"""Maximum number of pair sums a Minkowski sum of a and b forms:
len(a) * len(b), or n(n+1)/2 for a self-sum of n components, which
forms each unordered pair once.  A bound on the work; the memory is
bounded by the merge window and the output."""

_WINDOW_PAIRS = 1 << 16  # pair sums merged together by minkowski_sum
_SAMPLE_SIDE = 256  # window edges come from at most 256**2 sampled sums

CROSS_CHECK_TOL = 0.05
"""Disagreement between the box estimate and the partition-exponent
cross-check of a factor dimension beyond this width earns a caveat."""

EXCEPTIONAL_CAVEAT = (
    "floating-point estimates cannot distinguish the countable dense set of "
    "couplings where the sum-dimension identity is known to fail"
)


def _charged_pairs(a: IntervalSet, b: IntervalSet) -> int:
    """The pair sums minkowski_sum(a, b) forms, each unordered pair once
    when b is a; SizeCapError when they exceed SUM_PAIR_CAP."""
    n_pairs = len(a) * (len(a) + 1) // 2 if a is b else len(a) * len(b)
    if n_pairs > SUM_PAIR_CAP:
        raise SizeCapError("pairwise interval sums", n_pairs, SUM_PAIR_CAP)
    return n_pairs


def minkowski_sum(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """All pairwise sums of components of a and b, merged; refused when
    the pairs it forms exceed SUM_PAIR_CAP.

    The pairs are formed and merged one window of left endpoints at a
    time, so memory is bounded by the window and the output, not by the
    number of pairs.  A self-sum (b is a) forms only the n(n+1)/2 pairs
    j >= i, and is charged that many against the cap:
    fl(a_i + a_j) == fl(a_j + a_i), so the union is the same.  The
    endpoints are the floats a.lo[i] + b.lo[j] and a.hi[i] + b.hi[j].
    Each window is merged in place by intervals._normalize, as
    IntervalSet.from_arrays merges, and the windows are joined in order.
    """
    if not a or not b:
        raise ValueError("minkowski_sum requires two non-empty interval sets")
    n_pairs = _charged_pairs(a, b)
    self_sum = a is b
    if len(a) > len(b):
        a, b = b, a  # rows are the shorter operand
    rows = np.arange(len(a))
    out_lo: list[np.ndarray] = []
    out_hi: list[np.ndarray] = []
    run = -np.inf  # right end of the last component so far
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
        pair_col = np.arange(total) + np.repeat(lo_col - offsets, counts)
        wlo, whi = _normalize(np.repeat(a.lo, counts) + b.lo[pair_col],
                              np.repeat(a.hi, counts) + b.hi[pair_col])
        # Components that reach back to the running right end continue
        # the last component of the previous windows.
        joined = int(np.searchsorted(wlo, run, side="right"))
        if joined:
            run = max(run, float(whi[joined - 1]))
            out_hi[-1][-1] = run
            wlo, whi = wlo[joined:], whi[joined:]
        if wlo.size:
            out_lo.append(wlo)
            out_hi.append(whi)
            run = float(whi[-1])
    return IntervalSet._from_normalized(np.concatenate(out_lo),
                                        np.concatenate(out_hi))


def _window_edges(a_lo: np.ndarray, b_lo: np.ndarray, n_pairs: int) -> np.ndarray:
    """Left-endpoint edges that split n_pairs pair sums into windows of
    about _WINDOW_PAIRS each, from quantiles of a strided sample."""
    n_windows = -(-n_pairs // _WINDOW_PAIRS)
    if n_windows <= 1:
        return np.empty(0)
    sample = np.sort(np.add.outer(a_lo[::-(-a_lo.size // _SAMPLE_SIDE)],
                                  b_lo[::-(-b_lo.size // _SAMPLE_SIDE)]),
                     axis=None)
    return np.unique(sample[np.arange(1, n_windows) * sample.size // n_windows])


def _first_at_least(a_lo: np.ndarray, b_lo: np.ndarray, edge: float) -> np.ndarray:
    """For each row i, the first column j with fl(a_lo[i] + b_lo[j]) >= edge.

    searchsorted on edge - a_lo[i] can be off where that difference
    rounds; the float sums are monotone in j, so stepping until they
    straddle the edge gives the exact column.
    """
    m = b_lo.size
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
    upper bound only.
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
    sum_cover: IntervalSet
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
                       tol: float = 1e-12) -> TheoremReport:
    """Compare dim(cover(lambda1,k) + cover(lambda2,k)) with
    min(d1 + d2, 1) over cover levels k-3 .. k.  Depth is bounded only
    by SUM_PAIR_CAP, charged before any sum is formed."""
    levels, covers1 = band_hierarchy(lambda1, k + 1, tol).ladder(k)
    covers2 = (covers1 if lambda2 == lambda1
               else band_hierarchy(lambda2, k + 1, tol).ladder(k)[1])
    # Refuse an oversized finest sum before forming the coarser ones.
    _charged_pairs(covers1[-1], covers2[-1])

    sums = [minkowski_sum(covers1[i], covers2[i]) for i in range(len(levels))]
    sum_dim = box_dim_regression(sums, [max(c1.max_length, c2.max_length)
                                        for c1, c2 in zip(covers1, covers2)])

    caveats = [EXCEPTIONAL_CAVEAT]
    hd1 = _factor_report(covers1, "factor 1", caveats)
    hd2 = hd1 if lambda2 == lambda1 else _factor_report(covers2, "factor 2", caveats)
    if lambda2 == lambda1 and len(caveats) > 1:
        # the shared factor was reported once; relabel for both
        caveats[1:] = [c.replace("factor 1", "both factors") for c in caveats[1:]]

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
        sum_cover=sums[-1],
        caveats=tuple(caveats),
    )
