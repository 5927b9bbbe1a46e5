import numpy as np
import pytest

from fibspec import (IntervalSet, TheoremReport, box_dim_regression,
                     check_theorem_rect, cover_ladder, ladder_dimension,
                     minkowski_sum)
from fibspec import sumset
from fibspec.errors import SizeCapError
from fibspec.spectrum import band_hierarchy
from fibspec.sumset import EXCEPTIONAL_CAVEAT


def iset(*pairs):
    lo, hi = zip(*pairs)
    return IntervalSet.from_arrays(lo, hi)


def test_sum_of_unit_intervals():
    s = minkowski_sum(iset((0, 1)), iset((0, 1)))
    assert s.pairs() == [[0.0, 2.0]]


def test_thirds_self_sum_tiles():
    thirds = iset((0, 1 / 3), (2 / 3, 1))
    s = minkowski_sum(thirds, thirds)
    assert len(s) == 1
    assert np.allclose(s.pairs(), [[0.0, 2.0]], atol=1e-15)


def test_quarters_self_sum_three_pieces():
    quarters = iset((0, 0.25), (0.75, 1))
    s = minkowski_sum(quarters, quarters)
    assert np.allclose(s.pairs(),
                       [[0.0, 0.5], [0.75, 1.25], [1.5, 2.0]], atol=1e-15)


def test_degenerate_point_is_identity():
    b = iset((0.5, 1.0), (2.0, 3.5))
    s = minkowski_sum(IntervalSet([(0.0, 0.0)]), b)
    assert s.pairs() == b.pairs()


def test_translation_equivariance():
    a = iset((0, 1), (3, 4))
    b = iset((0.25, 0.5), (1.5, 1.75))
    t = 0.375  # exactly representable, so the identity is bitwise
    left = minkowski_sum(a.translate(t), b)
    right = minkowski_sum(a, b).translate(t)
    assert left.pairs() == right.pairs()


def test_length_superadditivity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        cuts_a = np.sort(rng.uniform(0, 10, size=8)).reshape(-1, 2)
        cuts_b = np.sort(rng.uniform(0, 10, size=6)).reshape(-1, 2)
        a = IntervalSet.from_arrays(cuts_a[:, 0], cuts_a[:, 1])
        b = IntervalSet.from_arrays(cuts_b[:, 0], cuts_b[:, 1])
        s = minkowski_sum(a, b)
        assert s.total_length >= max(a.total_length, b.total_length) - 1e-12


def test_commutative_and_associative():
    a = iset((0, 0.1), (1, 1.2))
    b = iset((0.05, 0.3))
    c = iset((2, 2.5), (4, 4.01))
    ab = minkowski_sum(a, b)
    ba = minkowski_sum(b, a)
    assert ab.pairs() == ba.pairs()
    left = minkowski_sum(ab, c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert np.allclose(left.pairs(), right.pairs(), atol=1e-12)


def test_pair_cap():
    n = 4000
    lo = np.arange(n, dtype=float) * 2.0
    many = IntervalSet.from_arrays(lo, lo + 0.5)
    with pytest.raises(SizeCapError):
        minkowski_sum(many, many)


def test_sum_cover_levels_nest():
    hier = band_hierarchy(3.0, 10)
    prev = None
    for k in (7, 8, 9):
        cov = hier[k].union(hier[k + 1])
        s = minkowski_sum(cov, cov)
        if prev is not None:
            assert prev.dilate(1e-9).covers(s)
        prev = s


def _finest_moran(finest):
    """The partition exponent of a ladder whose finest cover is ``finest``."""
    return ladder_dimension([iset((0, 4)), iset((0, 3)), finest])[1]


def test_moran_applicability_rule():
    moran = _finest_moran(iset((0, 0.25), (0.5, 0.75)))
    assert moran.value == pytest.approx(0.5, abs=1e-9)
    assert moran.method == "moran" and moran.approximate
    assert _finest_moran(iset((0, 0.25))) is None
    assert _finest_moran(iset((0, 1.5), (2, 2.1))) is None
    assert _finest_moran(iset((0, 0.8), (1, 1.8))) is None  # lengths sum > 1


def test_cover_scales_are_max_widths():
    covers = [iset((0, 0.5), (2, 2.25)), iset((0, 0.125), (2, 2.06)),
              iset((0, 0.03), (2, 2.01))]
    assert ladder_dimension(covers)[0] == box_dim_regression(
        covers, [0.5, 0.125, 0.03])


def test_cover_box_dimension_on_exact_thirds():
    import fibspec
    depths = range(5, 11)
    covers = [fibspec.attractor_cover(fibspec.middle_thirds(), d)
              for d in depths]
    est = ladder_dimension(covers)[0]
    assert est.value == pytest.approx(np.log(2) / np.log(3), abs=0.02)


def test_square_report_fields():
    rep = check_theorem_rect(8.0, 8.0, 8)
    assert isinstance(rep, TheoremReport)
    assert rep.lambda1 == rep.lambda2 == 8.0
    assert rep.levels == [5, 6, 7, 8]
    assert rep.rhs == min(rep.hd1_est.value + rep.hd2_est.value, 1.0)
    assert rep.gap == rep.sum_dim_est.value - rep.rhs
    assert EXCEPTIONAL_CAVEAT in rep.caveats
    assert len(rep.sum_cover) >= 1
    assert rep.sum_dim_est.method == "box"


def test_small_coupling_sum_cover_single_interval():
    rep = check_theorem_rect(0.2, 0.2, 14)
    assert len(rep.sum_cover) == 1
    assert rep.sum_dim_est.value >= 0.98
    assert any("cross-check" in c for c in rep.caveats)


def test_rect_small_couplings():
    rep = check_theorem_rect(0.2, 0.3, 14)
    assert rep.sum_dim_est.value >= 0.98


def test_depth_preconditions():
    with pytest.raises(ValueError):
        check_theorem_rect(5.0, 5.0, 2)
    with pytest.raises(ValueError):
        check_theorem_rect(5.0, 5.0, 17)


def test_cover_ladder_levels_and_covers():
    hier = band_hierarchy(5.0, 9)
    levels, covers = cover_ladder(5.0, 8)
    assert levels == [5, 6, 7, 8]
    assert covers == [hier[j].union(hier[j + 1]) for j in levels]
    with pytest.raises(ValueError, match="need k >= 3"):
        cover_ladder(5.0, 2)


def test_cover_ladder_has_no_depth_ceiling():
    # the k > 16 refusal belongs to the sum check; dim uses deeper ladders
    levels, covers = cover_ladder(5.0, 17)
    assert levels == [14, 15, 16, 17]
    assert len(covers) == 4


def test_equal_couplings_build_one_ladder(monkeypatch):
    calls = []
    monkeypatch.setattr(sumset, "band_hierarchy",
                        lambda *args, **kw: calls.append(args) or band_hierarchy(*args, **kw))
    check_theorem_rect(8.0, 8.0, 6)
    assert len(calls) == 1
    check_theorem_rect(8.0, 9.0, 6)
    assert len(calls) == 3


def test_pair_cap_refused_before_any_sum(monkeypatch):
    hier = band_hierarchy(8.0, 9)
    n_pairs = len(hier[8].union(hier[9])) ** 2
    calls = []
    monkeypatch.setattr(sumset, "minkowski_sum",
                        lambda *args, **kw: calls.append(args) or minkowski_sum(*args, **kw))
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n_pairs - 1)
    with pytest.raises(SizeCapError) as info:
        check_theorem_rect(8.0, 8.0, 8)
    assert str(info.value) == (f"pairwise interval sums: {n_pairs} items "
                               f"exceeds cap {n_pairs - 1}")
    assert calls == []
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n_pairs)
    check_theorem_rect(8.0, 8.0, 8)
    assert len(calls) == 4


def test_report_validates_rhs_and_gap():
    rep = check_theorem_rect(8.0, 8.0, 8)
    with pytest.raises(ValueError):
        TheoremReport(lambda1=1.0, lambda2=1.0, k=8, hd1_est=rep.hd1_est,
                      hd2_est=rep.hd2_est, sum_dim_est=rep.sum_dim_est,
                      rhs=1.5, gap=0.0, levels=[5, 6, 7, 8],
                      sum_cover=rep.sum_cover)
    with pytest.raises(ValueError):
        TheoremReport(lambda1=1.0, lambda2=1.0, k=8, hd1_est=rep.hd1_est,
                      hd2_est=rep.hd2_est, sum_dim_est=rep.sum_dim_est,
                      rhs=0.5, gap=float("nan"), levels=[5, 6, 7, 8],
                      sum_cover=rep.sum_cover)


def test_estimator_slack_bound():
    """A sum of genuine interval sets can never regress to a slope
    meaningfully above 1."""
    for lam, k in ((0.2, 14), (1.0, 10), (8.0, 8)):
        rep = check_theorem_rect(lam, lam, k)
        assert rep.sum_dim_est.value <= 1.02
