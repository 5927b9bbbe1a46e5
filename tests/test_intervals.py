import numpy as np
import pytest

from fibspec.intervals import IntervalSet, _normalize

import oracles
from oracles import assert_same_endpoints, covers, pairs


def test_from_arrays_merges_touching_and_sorts():
    s = IntervalSet.from_arrays([2.0, 0.0, 1.0], [3.0, 1.0, 2.0])
    assert pairs(s) == [[0.0, 3.0]]


def test_from_arrays_keeps_disjoint_components():
    s = IntervalSet.from_arrays([0.0, 2.0], [1.0, 3.0])
    assert len(s) == 2
    assert pairs(s) == [[0.0, 1.0], [2.0, 3.0]]


def test_from_arrays_rejects_bad_input():
    with pytest.raises(ValueError):
        IntervalSet.from_arrays([0.0], [-1.0])
    with pytest.raises(ValueError):
        IntervalSet.from_arrays([0.0, np.nan], [1.0, 2.0])
    with pytest.raises(ValueError):
        IntervalSet.from_arrays([0.0], [1.0, 2.0])


def test_point_set():
    s = IntervalSet([(1.5, 1.5)])
    assert len(s) == 1
    assert s.total_length == 0.0
    assert pairs(s) == [[1.5, 1.5]]


def test_empty_set_is_falsy():
    s = IntervalSet.from_arrays([], [])
    assert not s
    assert len(s) == 0
    assert s.total_length == 0.0


def test_union():
    a = IntervalSet.from_arrays([0.0], [1.0])
    b = IntervalSet.from_arrays([0.5, 3.0], [2.0, 4.0])
    u = a.union(b)
    assert pairs(u) == [[0.0, 2.0], [3.0, 4.0]]


def test_dilate():
    s = IntervalSet.from_arrays([0.0, 2.0], [1.0, 3.0])
    d = s.dilate(0.6)  # radius large enough to merge the two pieces
    assert pairs(d) == [[-0.6, 3.6]]
    assert pairs(s.dilate(0.0)) == pairs(s)
    with pytest.raises(ValueError):
        s.dilate(-0.1)


def test_covers_with_slack():
    outer = IntervalSet.from_arrays([0.0, 2.0], [1.0, 3.0])
    inner = IntervalSet.from_arrays([0.1, 2.5], [0.9, 3.0 + 1e-12])
    assert covers(outer, inner, slack=1e-9)
    assert not covers(outer, IntervalSet.from_arrays([1.4], [1.6]), slack=1e-9)


def test_contains_points():
    s = IntervalSet.from_arrays([0.0, 2.0], [1.0, 3.0])
    pts = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5])
    np.testing.assert_array_equal(
        s.contains_points(pts),
        [False, True, True, True, False, True, True, False])


def test_scalar_summaries():
    s = IntervalSet.from_arrays([0.0, 2.0], [1.0, 4.0])
    assert s.total_length == 3.0
    assert s.hull == (0.0, 4.0)
    assert s.max_length == 2.0
    np.testing.assert_array_equal(s.lengths, [1.0, 2.0])


def _messy_intervals(rng, n):
    """n intervals, many of them nested, touching, duplicated, single
    points, swallowed by a wider one or ending at 0; endpoints on a grid
    of quarters (so ties are common) or, for a few, anywhere.  No
    endpoint is -0.0."""
    lo = rng.integers(-2 * n - 8, 2 * n + 8, n) / 4
    width = rng.choice([0.0, 0.25, 0.5, 2.0], n) * rng.integers(0, 3, n)
    wide = rng.random(n) < 0.02  # these swallow their neighbours
    width[wide] = rng.integers(8, 64, wide.sum())
    hi = lo + width
    z = np.flatnonzero(rng.random(n) < 0.05)  # these start or end at 0
    right = rng.random(z.size) < 0.5
    lo[z] = np.where(right, 0.0, 0.0 - width[z])
    hi[z] = np.where(right, width[z], 0.0)
    free = rng.random(n) < 0.1
    lo[free] = rng.uniform(-n / 2, n / 2, free.sum())
    hi[free] = lo[free] + rng.exponential(0.5, free.sum()) * (rng.random(free.sum()) < 0.8)
    dup = rng.integers(0, max(n, 1), n // 5)  # exact duplicates
    lo[: dup.size] = lo[dup]
    hi[: dup.size] = hi[dup]
    order = rng.permutation(n)
    return lo[order], hi[order]


SIZES = [0, 1, 2, 3, 4, 5, 16, 17, 31, 100, 257, 1000, 4096, 10_000, 70_001]


@pytest.mark.parametrize("n", SIZES)
def test_normalize_matches_argsort_sweep(n):
    rng = np.random.default_rng(1300 + n)
    for _ in range(3):
        lo, hi = _messy_intervals(rng, n)
        assert not np.any(np.signbit(lo) & (lo == 0))
        want = IntervalSet._from_normalized(*oracles.argsort_normalize(lo, hi))
        got = IntervalSet._from_normalized(*_normalize(lo.copy(), hi.copy()))
        assert_same_endpoints(got, want)
        # sign flips of the zero endpoints: the same components, every
        # zero end written as +0.0
        lo[(lo == 0) & (rng.random(n) < 0.5)] = -0.0
        hi[(hi == 0) & (rng.random(n) < 0.5)] = -0.0
        if n:
            lo[0], hi[0] = -0.0, -0.0
        got = IntervalSet._from_normalized(*_normalize(lo.copy(), hi.copy()))
        want_lo, want_hi = oracles.argsort_normalize(lo, hi)
        assert_same_endpoints(
            got, IntervalSet._from_normalized(want_lo + 0.0, want_hi + 0.0))
        assert not np.any(np.signbit(got.lo) & (got.lo == 0))
        assert not np.any(np.signbit(got.hi) & (got.hi == 0))


def test_signed_zero_ties_merge_to_positive_zero():
    for lo in ([0.0] * 20 + [-0.0] * 20, [-0.0] * 20 + [0.0] * 20):
        s = IntervalSet.from_arrays(lo, [1.0] * 40)
        assert pairs(s) == [[0.0, 1.0]]
        assert not np.signbit(s.lo[0])
    s = IntervalSet([(-1.0, -0.0), (-0.0, -0.0), (2.0, 3.0)])
    assert pairs(s) == [[-1.0, 0.0], [2.0, 3.0]]
    assert not np.signbit(s.hi[0])


def test_constructors_leave_their_arguments_unchanged():
    rng = np.random.default_rng(5)
    lo, hi = _messy_intervals(rng, 500)
    arr = np.column_stack([lo, hi])
    lo_list, hi_list = lo.tolist(), hi.tolist()
    kept = [a.copy() for a in (lo, hi, arr)]
    s = IntervalSet(arr)
    assert IntervalSet.from_arrays(lo, hi) == s
    assert IntervalSet.from_arrays(lo_list, hi_list) == s
    for a, b in zip((lo, hi, arr), kept):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert lo.tolist() == lo_list and hi.tolist() == hi_list
    other = IntervalSet.from_arrays(lo[::-1] + 0.125, hi[::-1] + 0.125)
    sets = [s, other]
    kept = [(t.lo.copy(), t.hi.copy()) for t in sets]
    s.union(other)
    other.union(s)
    s.dilate(0.25)
    other.dilate(0.0)
    for t, (t_lo, t_hi) in zip(sets, kept):
        assert_same_endpoints(t, IntervalSet._from_normalized(t_lo, t_hi))
