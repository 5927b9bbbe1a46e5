import math

import numpy as np
import pytest

from fibspec import (LinearIFS, attractor_cover, binary_halves,
                     box_dim_regression, log_ratio_resonance, middle_thirds,
                     minkowski_sum, quarter_corners, similarity_dim)
from fibspec.errors import SizeCapError


def test_middle_thirds_first_level():
    c = attractor_cover(middle_thirds(), 1)
    assert np.allclose(c.pairs(), [[0, 1 / 3], [2 / 3, 1]])


def test_depth_zero_is_hull():
    for ifs in (middle_thirds(), quarter_corners(), binary_halves()):
        assert attractor_cover(ifs, 0).pairs() == [[0.0, 1.0]]


def test_quarter_corners_depth_two():
    c = attractor_cover(quarter_corners(), 2)
    assert len(c) == 4
    assert np.allclose(c.lengths, 1 / 16)


def test_cover_nesting_is_exact():
    for ifs in (middle_thirds(), quarter_corners()):
        prev = attractor_cover(ifs, 0)
        for depth in range(1, 8):
            cur = attractor_cover(ifs, depth)
            assert prev.covers(cur, slack=0.0)
            prev = cur


def test_depth_cap():
    with pytest.raises(SizeCapError):
        attractor_cover(middle_thirds(), 21)  # 2^21 > 10^6 leaves


def test_ifs_validation():
    with pytest.raises(ValueError):
        LinearIFS(ratios=(1.2,), offsets=(0.0,))
    with pytest.raises(ValueError):
        LinearIFS(ratios=(0.5,), offsets=(0.6,))  # image pokes out of hull


def test_similarity_dims():
    assert similarity_dim(middle_thirds()) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-9)
    assert similarity_dim(quarter_corners()) == pytest.approx(0.5, abs=1e-9)
    assert similarity_dim(binary_halves()) == pytest.approx(1.0, abs=1e-9)


def test_similarity_dim_rejects_overlap():
    overlapping = LinearIFS(ratios=(0.6, 0.6), offsets=(0.0, 0.4))
    with pytest.raises(ValueError):
        similarity_dim(overlapping)


def test_box_regression_tracks_similarity_dim():
    for ifs in (middle_thirds(), quarter_corners(), binary_halves()):
        depths = range(4, 11)
        covers = [attractor_cover(ifs, d) for d in depths]
        eps = [ifs.ratios[0] ** d for d in depths]
        est = box_dim_regression(covers, eps)
        assert abs(est.value - similarity_dim(ifs)) <= 0.02


def test_resonance_equal_ratios():
    v = log_ratio_resonance(1 / 3, 1 / 3)
    assert v.resonant
    assert (v.numerator, v.denominator) == (1, 1)


def test_resonance_quarter_half():
    v = log_ratio_resonance(0.25, 0.5)
    assert v.resonant
    assert (v.numerator, v.denominator) == (2, 1)


def test_non_resonance_thirds_vs_halves():
    v = log_ratio_resonance(1 / 3, 1 / 2, qmax=10 ** 6)
    assert not v.resonant
    assert v.denominator <= 10 ** 6
    # the reported best approximation really is close but inexact
    assert 0 < abs(v.value - v.numerator / v.denominator) < 1e-10


def test_resonance_flag_monotone_in_qmax():
    """Anything resonant at small qmax stays resonant at larger qmax."""
    cases = [(0.25, 0.5), (1 / 8, 0.5), (1 / 3, 1 / 9), (0.3, 0.7)]
    for r1, r2 in cases:
        small = log_ratio_resonance(r1, r2, qmax=10)
        large = log_ratio_resonance(r1, r2, qmax=10 ** 6)
        if small.resonant:
            assert large.resonant


def test_resonant_sum_dimension_deficit():
    """Equal contraction ratios cap the sum's dimension at log3/log4,
    strictly below the naive d1 + d2 = 1."""
    q = quarter_corners()
    depths = range(4, 10)
    covers = [minkowski_sum(attractor_cover(q, d), attractor_cover(q, d))
              for d in depths]
    eps = [0.25 ** d for d in depths]
    est = box_dim_regression(covers, eps)
    assert est.value == pytest.approx(math.log(3) / math.log(4), abs=0.02)
    assert est.value < 1 - 0.1


def test_non_resonant_sum_reaches_full_dimension():
    t, q = middle_thirds(), quarter_corners()
    depths = range(4, 10)
    covers = [minkowski_sum(attractor_cover(t, d), attractor_cover(q, d))
              for d in depths]
    eps = [0.25 ** d for d in depths]
    est = box_dim_regression(covers, eps)
    assert est.value == pytest.approx(1.0, abs=0.02)
