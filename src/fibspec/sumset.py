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

from .dimension import DimensionEstimate, box_dim_regression, moran_dim
from .errors import SizeCapError
from .intervals import IntervalSet
from .spectrum import band_hierarchy

SUM_PAIR_CAP = 10_000_000
"""Maximum number of pairwise interval sums formed before merging."""

LADDER_LEVELS = 4
"""Cover levels k-3 .. k enter the sum-dimension regression."""

CROSS_CHECK_TOL = 0.05
"""Disagreement between the box estimate and the partition-exponent
cross-check of a factor dimension beyond this width earns a caveat."""

EXCEPTIONAL_CAVEAT = (
    "floating-point estimates cannot distinguish the countable dense set of "
    "couplings where the sum-dimension identity is known to fail"
)


def _refuse_over_cap(n_pairs: int, cap: int) -> None:
    if n_pairs > cap:
        raise SizeCapError("pairwise interval sums", n_pairs, cap)


def minkowski_sum(a: IntervalSet, b: IntervalSet, *, cap: int = SUM_PAIR_CAP,
                  coarsen: float = 0.0) -> IntervalSet:
    """All pairwise sums of components of a and b, merged.

    ``coarsen`` dilates both operands by that radius first (merging
    near-touching components); it is the escape hatch when the raw
    pairwise product would exceed ``cap``.
    """
    if not a or not b:
        raise ValueError("minkowski_sum requires two non-empty interval sets")
    if coarsen < 0:
        raise ValueError("coarsening radius must be >= 0")
    if coarsen > 0:
        a = a.dilate(coarsen)
        b = b.dilate(coarsen)
    _refuse_over_cap(len(a) * len(b), cap)
    lo = np.add.outer(a.lo, b.lo).ravel()
    hi = np.add.outer(a.hi, b.hi).ravel()
    return IntervalSet.from_arrays(lo, hi)


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


def cover_scales(covers: list[IntervalSet]) -> list[float]:
    """Natural counting scale of each cover: its widest component.

    At that cell size a cover is indistinguishable from the set it
    covers — no component spans more than one extra cell — so the count
    is a covering number of the underlying set, not of the fattening.
    """
    return [c.max_length for c in covers]


def moran_applicable(bands: IntervalSet) -> bool:
    """Whether a partition exponent is meaningful for these bands:
    at least two, every length in (0, 1), total length below 1."""
    if len(bands) < 2:
        return False
    lengths = bands.lengths
    return bool(np.all(lengths > 0) and np.all(lengths < 1)
                and lengths.sum() < 1.0)


def cover_box_dimension(covers: list[IntervalSet]) -> DimensionEstimate:
    """Box regression over successive covers, each counted at its own
    resolution (see cover_scales).  Expects covers ordered coarse to
    fine, so the scales come out strictly decreasing."""
    return box_dim_regression(covers, cover_scales(covers), skip_coarsest=0)


def _factor_report(covers: list[IntervalSet], which: str,
                   caveats: list[str]) -> DimensionEstimate:
    """Box dimension of one factor, with a partition-exponent
    cross-check on the finest cover when that is meaningful."""
    est = cover_box_dimension(covers)
    finest = covers[-1]
    if moran_applicable(finest):
        check = moran_dim(finest, approximate=True)
        if abs(check.value - est.value) > CROSS_CHECK_TOL:
            caveats.append(
                f"{which}: partition-exponent cross-check {check.value:.4f} "
                f"disagrees with the box estimate {est.value:.4f}")
    else:
        caveats.append(
            f"{which}: cover bands too coarse for a partition-exponent "
            "cross-check")
    return est


def cover_ladder(lam: float, k: int,
                 tol: float = 1e-12) -> tuple[list[int], list[IntervalSet]]:
    """Cover levels k-3 .. k and the two-level covers sigma_j | sigma_{j+1}
    at those levels, coarse to fine, from one band hierarchy."""
    if not (k >= LADDER_LEVELS - 1):
        raise ValueError(f"need k >= {LADDER_LEVELS - 1} for the level ladder")
    levels = list(range(k - LADDER_LEVELS + 1, k + 1))
    hier = band_hierarchy(lam, k + 1, tol=tol)
    return levels, [hier[j].union(hier[j + 1]) for j in levels]


def check_theorem_rect(lambda1: float, lambda2: float, k: int,
                       tol: float = 1e-12) -> TheoremReport:
    """Compare dim(cover(lambda1,k) + cover(lambda2,k)) with
    min(d1 + d2, 1) over cover levels k-3 .. k."""
    if k > 16:
        raise ValueError("cover depth k > 16 is beyond the supported range")
    levels, covers1 = cover_ladder(lambda1, k, tol)
    covers2 = covers1 if lambda2 == lambda1 else cover_ladder(lambda2, k, tol)[1]
    # Refuse an oversized finest sum before forming the coarser ones.
    _refuse_over_cap(len(covers1[-1]) * len(covers2[-1]), SUM_PAIR_CAP)

    sums = [minkowski_sum(covers1[i], covers2[i]) for i in range(len(levels))]
    sum_scales = [max(e1, e2) for e1, e2 in zip(cover_scales(covers1),
                                                cover_scales(covers2))]
    sum_dim = box_dim_regression(sums, sum_scales, skip_coarsest=0)

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


def check_theorem_square(lam: float, k: int, tol: float = 1e-12) -> TheoremReport:
    """Equal-coupling case: dim(cover + cover) against min(2*d, 1)."""
    return check_theorem_rect(lam, lam, k, tol=tol)
