"""Normalized finite unions of closed intervals on the real line.

IntervalSet is the lingua franca between the band finder, the dimension
estimators, the Minkowski-sum machinery and the IFS sandbox, which read
its lo and hi arrays; it is neither iterable nor hashable.  The normal
form is: components sorted by left endpoint, pairwise disjoint, with
touching endpoints merged (so hi[i] < lo[i+1] strictly), and zero
endpoints written +0.0.  Degenerate single-point components [a, a] are
legal and preserved unless a merge swallows them.  Every constructor
merges by sorting left and right endpoints apart (see _normalize).

The constructors validate: _normalize refuses non-finite endpoints and
reversed intervals before it merges, and turns -0.0 into +0.0.  The
merge itself (_merge) trusts its input, so a caller whose endpoints are
finite, ordered and never -0.0 by construction, as the pair sums of
sumset._sum_chunks are, merges without the checks; the result is the
same normal form.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class IntervalSet:
    """Immutable normalized union of closed intervals."""

    __slots__ = ("lo", "hi")

    def __init__(self, pairs: Iterable[tuple[float, float]] | np.ndarray = ()):
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected pairs of endpoints")
        lo, hi = _normalize(arr[:, 0].copy(), arr[:, 1].copy())
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # The constructors merge unconditionally; this trusts normalized data.
    @classmethod
    def _from_normalized(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalSet":
        self = object.__new__(cls)
        lo = np.ascontiguousarray(lo, dtype=float)
        hi = np.ascontiguousarray(hi, dtype=float)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        return self

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalSet":
        return cls._from_normalized(*_normalize(np.array(lo, dtype=float),
                                                np.array(hi, dtype=float)))

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.lo.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self.lo.shape == other.lo.shape
            and bool(np.all(self.lo == other.lo))
            and bool(np.all(self.hi == other.hi))
        )

    @property
    def lengths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def total_length(self) -> float:
        return float(np.sum(self.hi - self.lo))

    @property
    def hull(self) -> tuple[float, float]:
        if not self:
            raise ValueError("empty interval set has no hull")
        return float(self.lo[0]), float(self.hi[-1])

    @property
    def max_length(self) -> float:
        return float(np.max(self.hi - self.lo)) if self else 0.0

    def contains_points(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized closed-set membership for an array of reals."""
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self.lo, xs, side="right") - 1
        ok = idx >= 0
        safe = np.where(ok, idx, 0)
        return ok & (xs <= self.hi[safe])

    # -- constructive ops ------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        lo = np.concatenate([self.lo, other.lo])
        hi = np.concatenate([self.hi, other.hi])
        return IntervalSet.from_arrays(lo, hi)

    def dilate(self, eps: float) -> "IntervalSet":
        """Closed eps-neighborhood (components may merge)."""
        if not 0.0 <= eps < np.inf:
            raise ValueError("dilation must be finite and >= 0")
        return IntervalSet.from_arrays(self.lo - eps, self.hi + eps)


def _normalize(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check [lo[i], hi[i]] and merge them into the normal form, sorting
    lo and hi in place: callers pass arrays they own (IntervalSet(...)
    and from_arrays copy).  Every endpoint must be finite and no interval
    reversed; 0.0 is added to each merged end, so a zero endpoint is
    always +0.0 and no other float changes.
    """
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("endpoint arrays must be 1-d and equal length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("interval endpoints must be finite")
    if np.any(hi < lo):
        j = int(np.argmax(hi < lo))
        raise ValueError(f"reversed interval [{lo[j]}, {hi[j]}]")
    lo, hi = _merge(lo, hi)
    lo += 0.0
    hi += 0.0
    return lo, hi


def _merge(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge [lo[i], hi[i]], sorting lo and hi in place, trusting that
    every endpoint is finite and no interval is reversed.  Sorted apart,
    a component starts at each m with lo[m] > hi[m-1].  Exact, because
    for x in a gap the intervals with lo <= x are those with hi < x; so
    each component gets its smallest lo and largest hi, and touching
    intervals merge.  The sort breaks ties in no set order, so a zero end
    keeps whichever sign landed there: the result is in the normal form
    when no endpoint is -0.0.  _normalize checks its input and adds 0.0
    to the result; sumset._sum_chunks passes pair sums that are finite,
    ordered and never -0.0 by construction, so it needs neither.
    """
    lo.sort()
    hi.sort()
    # cut[m] marks a boundary before position m; cut[0] and cut[n] always
    cut = np.ones(lo.size + 1, dtype=bool)
    np.greater(lo[1:], hi[:-1], out=cut[1:-1])
    return lo[cut[:-1]], hi[cut[1:]]
