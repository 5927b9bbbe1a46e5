import numpy as np
import pytest

from fibspec.intervals import IntervalSet

from oracles import covers, pairs


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
