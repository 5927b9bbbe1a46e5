import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from fibspec import ifs
from fibspec import (LinearIFS, attractor_cover, box_dim_regression,
                     log_ratio_resonance, similarity_dim)
from fibspec.errors import SizeCapError

import oracles
from oracles import (BINARY_HALVES, MIDDLE_THIRDS, QUARTER_CORNERS,
                     minkowski_sum, pairs)


def test_middle_thirds_first_level():
    c = attractor_cover(MIDDLE_THIRDS, 1)
    assert np.allclose(pairs(c), [[0, 1 / 3], [2 / 3, 1]])


def test_depth_zero_is_hull():
    for ifs in (MIDDLE_THIRDS, QUARTER_CORNERS, BINARY_HALVES):
        assert pairs(attractor_cover(ifs, 0)) == [[0.0, 1.0]]


def test_quarter_corners_depth_two():
    c = attractor_cover(QUARTER_CORNERS, 2)
    assert len(c) == 4
    assert np.allclose(c.lengths, 1 / 16)


def test_cover_nesting_is_exact():
    for ifs in (MIDDLE_THIRDS, QUARTER_CORNERS):
        prev = attractor_cover(ifs, 0)
        for depth in range(1, 8):
            cur = attractor_cover(ifs, depth)
            assert oracles.covers(prev, cur, slack=0.0)
            prev = cur


def test_depth_cap():
    with pytest.raises(SizeCapError):
        attractor_cover(MIDDLE_THIRDS, 21)  # 2^21 > 10^6 leaves


def test_ifs_validation():
    with pytest.raises(ValueError):
        LinearIFS(ratios=(1.2,), offsets=(0.0,))
    with pytest.raises(ValueError):
        LinearIFS(ratios=(0.5,), offsets=(0.6,))  # image pokes out of hull


def test_similarity_dims():
    assert similarity_dim(MIDDLE_THIRDS) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-9)
    assert similarity_dim(QUARTER_CORNERS) == pytest.approx(0.5, abs=1e-9)
    assert similarity_dim(BINARY_HALVES) == pytest.approx(1.0, abs=1e-9)


def test_similarity_dim_rejects_overlap():
    overlapping = LinearIFS(ratios=(0.6, 0.6), offsets=(0.0, 0.4))
    with pytest.raises(ValueError):
        similarity_dim(overlapping)


def test_box_regression_tracks_similarity_dim():
    for ifs in (MIDDLE_THIRDS, QUARTER_CORNERS, BINARY_HALVES):
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


def test_exact_quotients_resonant_exactly_when_the_denominator_fits(monkeypatch):
    """Fed fl(p/q) itself as the log ratio, for every reduced p/q with
    p, q <= 120, the verdict is resonant exactly when q <= qmax, and then
    names p/q.  A floating-point continued fraction called 130 of these
    verdicts non-resonant, the first at 83/87."""
    # with log r = -r, log r1 / log r2 = r1 / r2, which is fl(p/q) for
    # r1 = fl(p/q) / 128 and r2 = 1/128: both scalings are exact
    monkeypatch.setattr(ifs, "math", SimpleNamespace(**{**vars(math), "log": operator.neg}))
    for q in range(1, 121):
        for p in range(1, 121):
            if math.gcd(p, q) > 1:
                continue
            for qmax in (10, 1000):
                v = log_ratio_resonance(p / q / 128, 1 / 128, qmax)
                assert v.value == p / q
                assert v.resonant == (q <= qmax), (p, q, qmax)
                if v.resonant:
                    assert (v.numerator, v.denominator, v.error) == (p, q, 0.0)


def test_resonance_of_a_rounded_quotient():
    """0.5**(77/90) gives the log ratio fl(77/90), resonant at qmax 1000
    with error 0; the continued fraction's rounding stopped one quotient
    past 77/90 and called it non-resonant."""
    v = log_ratio_resonance(0.55265246928962, 0.5, qmax=1000)
    assert v.value == 77 / 90
    assert v.resonant
    assert (v.numerator, v.denominator, v.error) == (77, 90, 0.0)


def test_resonant_sum_dimension_deficit():
    """Equal contraction ratios cap the sum's dimension at log3/log4,
    strictly below the naive d1 + d2 = 1."""
    q = QUARTER_CORNERS
    depths = range(4, 10)
    covers = [minkowski_sum(attractor_cover(q, d), attractor_cover(q, d))
              for d in depths]
    eps = [0.25 ** d for d in depths]
    est = box_dim_regression(covers, eps)
    assert est.value == pytest.approx(math.log(3) / math.log(4), abs=0.02)
    assert est.value < 1 - 0.1


def test_non_resonant_sum_reaches_full_dimension():
    t, q = MIDDLE_THIRDS, QUARTER_CORNERS
    depths = range(4, 10)
    covers = [minkowski_sum(attractor_cover(t, d), attractor_cover(q, d))
              for d in depths]
    eps = [0.25 ** d for d in depths]
    est = box_dim_regression(covers, eps)
    assert est.value == pytest.approx(1.0, abs=0.02)
