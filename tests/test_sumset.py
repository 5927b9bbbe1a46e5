import dataclasses
import tracemalloc

import numpy as np
import pytest

from fibspec import (IntervalSet, TheoremReport, box_count,
                     box_dim_regression, check_theorem_rect, ladder_dimension)
from fibspec import cli, dimension, sumset
from fibspec.errors import SizeCapError
from fibspec.spectrum import band_hierarchy
from fibspec.sumset import EXCEPTIONAL_CAVEAT

import oracles
from oracles import assert_same_endpoints, minkowski_sum, pairs


def iset(*bounds):
    lo, hi = zip(*bounds)
    return IntervalSet.from_arrays(lo, hi)


def test_sum_of_unit_intervals():
    s = minkowski_sum(iset((0, 1)), iset((0, 1)))
    assert pairs(s) == [[0.0, 2.0]]


def test_thirds_self_sum_tiles():
    thirds = iset((0, 1 / 3), (2 / 3, 1))
    s = minkowski_sum(thirds, thirds)
    assert len(s) == 1
    assert np.allclose(pairs(s), [[0.0, 2.0]], atol=1e-15)


def test_quarters_self_sum_three_pieces():
    quarters = iset((0, 0.25), (0.75, 1))
    s = minkowski_sum(quarters, quarters)
    assert np.allclose(pairs(s),
                       [[0.0, 0.5], [0.75, 1.25], [1.5, 2.0]], atol=1e-15)


def test_degenerate_point_is_identity():
    b = iset((0.5, 1.0), (2.0, 3.5))
    s = minkowski_sum(IntervalSet([(0.0, 0.0)]), b)
    assert pairs(s) == pairs(b)


def test_translation_equivariance():
    def translate(s, t):
        return IntervalSet.from_arrays(s.lo + t, s.hi + t)

    a = iset((0, 1), (3, 4))
    b = iset((0.25, 0.5), (1.5, 1.75))
    t = 0.375  # exactly representable, so the identity is bitwise
    left = minkowski_sum(translate(a, t), b)
    right = translate(minkowski_sum(a, b), t)
    assert pairs(left) == pairs(right)


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
    assert pairs(ab) == pairs(ba)
    left = minkowski_sum(ab, c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert np.allclose(pairs(left), pairs(right), atol=1e-12)


def test_pair_cap():
    n = 4500  # a self-sum forms n(n+1)/2 = 10,127,250 pairs
    lo = np.arange(n, dtype=float) * 2.0
    many = IntervalSet.from_arrays(lo, lo + 0.5)
    with pytest.raises(SizeCapError, match=" 10127250 items"):
        minkowski_sum(many, many)


def test_cap_charges_the_pairs_a_sum_forms(monkeypatch):
    """A self-sum is charged its n(n+1)/2 unordered pairs, a sum of two
    sets len(a) * len(b), even when they are equal."""
    cover = band_hierarchy(5.0, 11).cover(10)
    copy = IntervalSet.from_arrays(cover.lo, cover.hi)
    n = len(cover)
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n * (n + 1) // 2)
    assert_same_endpoints(minkowski_sum(cover, cover),
                          oracles.all_pairs_minkowski_sum(cover, cover))
    with pytest.raises(SizeCapError, match=f" {n * n} items"):
        minkowski_sum(cover, copy)


def test_sum_cover_levels_nest():
    hier = band_hierarchy(3.0, 10)
    prev = None
    for k in (7, 8, 9):
        cov = hier.cover(k)
        s = minkowski_sum(cov, cov)
        if prev is not None:
            assert oracles.covers(prev.dilate(1e-9), s)
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
    covers = [fibspec.attractor_cover(oracles.MIDDLE_THIRDS, d)
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
    # no depth ceiling: k = 17 at coupling 5 is refused by the pair cap
    with pytest.raises(SizeCapError, match="13356696 items"):
        check_theorem_rect(5.0, 5.0, 17)


def test_cover_ladder_levels_and_covers():
    hier = band_hierarchy(5.0, 9)
    levels, covers = hier.ladder(8)
    assert levels == [5, 6, 7, 8]
    assert covers == [hier.cover(j) for j in levels]
    with pytest.raises(ValueError, match="need k >= 3"):
        hier.ladder(2)


def test_cover_ladder_has_no_depth_ceiling():
    # the k > 16 refusal belongs to the sum check; dim uses deeper ladders
    levels, covers = band_hierarchy(5.0, 18).ladder(17)
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
    n = len(band_hierarchy(8.0, 9).cover(8))
    n_pairs = n * (n + 1) // 2  # the finest self-sum's unordered pairs
    calls = []
    chunks = sumset._sum_chunks
    monkeypatch.setattr(sumset, "_sum_chunks",
                        lambda *args: calls.append(args) or chunks(*args))
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n_pairs - 1)
    with pytest.raises(SizeCapError) as info:
        check_theorem_rect(8.0, 8.0, 8)
    assert str(info.value) == (f"pairwise interval sums: {n_pairs} items "
                               f"exceeds cap {n_pairs - 1}")
    assert calls == []
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n_pairs)
    check_theorem_rect(8.0, 8.0, 8)
    assert len(calls) == 4


def test_rect_pair_cap_charges_all_pairs(monkeypatch):
    n_pairs = len(band_hierarchy(8.0, 9).cover(8)) * len(band_hierarchy(9.0, 9).cover(8))
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n_pairs - 1)
    with pytest.raises(SizeCapError, match=f" {n_pairs} items"):
        check_theorem_rect(8.0, 9.0, 8)
    monkeypatch.setattr(sumset, "SUM_PAIR_CAP", n_pairs)
    assert check_theorem_rect(8.0, 9.0, 8).levels == [5, 6, 7, 8]


def test_report_validates_rhs_and_gap():
    rep = check_theorem_rect(8.0, 8.0, 8)
    assert isinstance(rep, TheoremReport)
    with pytest.raises(ValueError):
        dataclasses.replace(rep, lambda1=1.0, lambda2=1.0, rhs=1.5, gap=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(rep, lambda1=1.0, lambda2=1.0, rhs=0.5,
                            gap=float("nan"))


def test_estimator_slack_bound():
    """A sum of genuine interval sets can never regress to a slope
    meaningfully above 1."""
    for lam, k in ((0.2, 14), (1.0, 10), (8.0, 8)):
        rep = check_theorem_rect(lam, lam, k)
        assert rep.sum_dim_est.value <= 1.02


@pytest.mark.parametrize("window", [None, 61])
@pytest.mark.parametrize("lam1, lam2, k", [(0.5, 0.5, 14), (2.0, 2.0, 14),
                                           (5.0, 5.0, 14), (20.0, 20.0, 14),
                                           (20.0, 30.0, 13)])
def test_windowed_sum_matches_all_pairs(lam1, lam2, k, window, monkeypatch):
    """Every ladder level of the sum check, at the real window and at a
    window of a few dozen pairs; the self-sums pass the same object."""
    if window is not None:
        k -= 4  # keep the number of tiny windows small
        monkeypatch.setattr(sumset, "_WINDOW_PAIRS", window)
    covers1 = band_hierarchy(lam1, k + 1).ladder(k)[1]
    covers2 = covers1 if lam2 == lam1 else band_hierarchy(lam2, k + 1).ladder(k)[1]
    for c1, c2 in zip(covers1, covers2):
        assert_same_endpoints(minkowski_sum(c1, c2),
                              oracles.all_pairs_minkowski_sum(c1, c2))


def _points(*xs):
    return IntervalSet.from_arrays(xs, xs)


HAND_MADE = {
    "wide component": (iset((0, 100), (200, 200.5)),
                       IntervalSet.from_arrays(np.arange(50.0), np.arange(50.0) + 0.25)),
    "touching": (iset((0, 1), (3, 4)), iset((0, 0), (1, 2))),
    "unit touch": (iset((0, 1)), iset((1, 2))),
    "points": (_points(0.0, 1.0, 2.5), _points(0.0, 0.5)),
    "point and set": (_points(0.1), IntervalSet.from_arrays(
        np.arange(300.0) * 3, np.arange(300.0) * 3 + 1)),
    "sizes 3 and 500": (iset((0, 0.01), (7, 7.5), (40, 41)),
                        IntervalSet.from_arrays(np.arange(500.0) / 7,
                                                np.arange(500.0) / 7 + 1e-3)),
}


@pytest.mark.parametrize("window", [1, 2, 5])
@pytest.mark.parametrize("case", HAND_MADE)
def test_windowed_sum_hand_made(case, window, monkeypatch):
    monkeypatch.setattr(sumset, "_WINDOW_PAIRS", window)
    a, b = HAND_MADE[case]
    want = oracles.all_pairs_minkowski_sum(a, b)
    assert_same_endpoints(minkowski_sum(a, b), want)
    assert_same_endpoints(minkowski_sum(b, a), want)
    assert_same_endpoints(minkowski_sum(a, a), oracles.all_pairs_minkowski_sum(a, a))


def test_windowed_sum_random_sets(monkeypatch):
    rng = np.random.default_rng(8)
    for _ in range(200):
        monkeypatch.setattr(sumset, "_WINDOW_PAIRS", int(rng.integers(1, 40)))
        monkeypatch.setattr(sumset, "_SAMPLE_SIDE", int(rng.integers(1, 10)))
        sets = []
        for _ in range(2):
            x = np.sort(rng.uniform(-5, 5, 2 * int(rng.integers(1, 30))))
            if rng.random() < 0.5:
                x = np.round(x * 4) / 4  # touching and point components
            sets.append(IntervalSet.from_arrays(x[::2], x[1::2]))
        a, b = sets
        assert_same_endpoints(minkowski_sum(a, b),
                              oracles.all_pairs_minkowski_sum(a, b))
        assert_same_endpoints(minkowski_sum(a, a),
                              oracles.all_pairs_minkowski_sum(a, a))


def test_window_cut_is_exact():
    """searchsorted on edge - a_i misses the first column with
    fl(a_i + b_j) >= edge both ways when the difference rounds; the cut
    must not."""
    rng = np.random.default_rng(12)
    a = np.sort(np.concatenate([2.0**53 + 2 * rng.integers(0, 50, 40),
                                rng.uniform(-3, 3, 40)
                                * 10.0 ** rng.integers(-17, 1, 40)]))
    b = np.unique(np.concatenate([rng.integers(-40, 200, 60) / 4,
                                  rng.uniform(-3, 3, 60)]))
    sums = np.add.outer(a, b).ravel()
    missed = np.zeros(2, dtype=int)
    for edge in np.concatenate([sums[::29], np.nextafter(sums[::31], np.inf)]):
        want = [int(np.argmax(np.append(x + b >= edge, True))) for x in a]
        assert sumset._first_at_least(a, b, edge).tolist() == want
        naive = np.searchsorted(b, edge - a)
        missed += [np.sum(naive > want), np.sum(naive < want)]
    assert np.all(missed > 0)


def test_self_sum_forms_each_unordered_pair_once(monkeypatch):
    cover = band_hierarchy(5.0, 11).cover(10)
    copy = IntervalSet.from_arrays(cover.lo.copy(), cover.hi.copy())
    merged = []
    merge = sumset._merge

    def counting_merge(lo, hi):
        merged.append(lo.size)
        return merge(lo, hi)

    monkeypatch.setattr(sumset, "_WINDOW_PAIRS", 500)
    monkeypatch.setattr(sumset, "_merge", counting_merge)
    self_sum = minkowski_sum(cover, cover)
    n = len(cover)
    assert sum(merged) == n * (n + 1) // 2
    assert len(merged) > 10
    merged.clear()
    assert_same_endpoints(minkowski_sum(cover, copy), self_sum)
    assert sum(merged) == n * n


def test_sum_check_memory_stays_small():
    """The finest self-sum at lambda = 20, k = 14 has 1220**2 pairs and
    564,934 components.  The ladder sums are box-counted as their windows
    stream past and the finest cover, too long to list in a document, is
    not kept; holding all four sums peaked at 24.1 MB traced."""
    check_theorem_rect(20.0, 20.0, 6)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        rep = check_theorem_rect(20.0, 20.0, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.sum_count == 564_934 and rep.sum_cover is None
    assert peak <= 14 * 2**20


def test_kept_cover_memory_stays_small():
    """The same sum with its cover kept, as a CSV document lists it.  The
    windows are written into the cover's arrays as they pass, with no
    buffer of lengths beside them: 18.3 MiB traced, against 19.1 MiB
    when the kept windows were joined into the cover after they ran out."""
    check_theorem_rect(20.0, 20.0, 6)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        rep = check_theorem_rect(20.0, 20.0, 14, cover_cap=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.sum_count == len(rep.sum_cover) == 564_934
    assert peak <= 20 * 2**20


def _random_set(rng, n):
    """n intervals with nested and zero-width ones among them; on a grid
    of quarters half the time, where many of them touch."""
    lo = rng.uniform(-5, 5, n)
    if rng.random() < 0.5:
        lo = np.round(lo * 4) / 4
    hi = lo + rng.choice([0.0, 0.25, 0.5, 1.5], n) * rng.integers(0, 2, n)
    nested = rng.random(n) < 0.2  # a sub-interval of an earlier interval
    parent = rng.integers(0, n, n)
    lo = np.where(nested, lo[parent] + 0.125 * (hi[parent] > lo[parent]), lo)
    hi = np.where(nested, np.maximum(lo, hi[parent] - 0.125), hi)
    return IntervalSet.from_arrays(lo, hi)


def test_streamed_sum_matches_materialized_sum(monkeypatch):
    """Box counts, component count, hull and total length of a streamed
    sum are those of the all-pairs reference sum, bit for bit, and the
    cover is kept exactly when it has at most cap components."""
    rng = np.random.default_rng(19)
    merge, windows = sumset._merge, []

    def counting_merge(lo, hi):
        windows.append(lo.size)
        return merge(lo, hi)

    monkeypatch.setattr(sumset, "_merge", counting_merge)
    joins = 0
    for _ in range(150):
        monkeypatch.setattr(sumset, "_WINDOW_PAIRS", int(rng.integers(1, 12)))
        a = _random_set(rng, int(rng.integers(1, 25)))
        b = _random_set(rng, int(rng.integers(1, 25)))
        for x, y in ((a, a), (a, b), (b, a)):
            want = oracles.all_pairs_minkowski_sum(x, y)
            windows.clear()
            chunks = list(sumset._sum_chunks(x, y))
            joins += len(windows) - len(chunks)
            assert_same_endpoints(oracles.joined(chunks), want)
            for eps in (0.03, 0.25, 0.4, 3.0):
                assert (dimension._count_cells(sumset._sum_chunks(x, y), eps)
                        == box_count(want, eps))
            for cap in (None, len(want), len(want) - 1, -1):
                report = {}
                boxes = dimension._count_cells(
                    sumset._finest_sum(x, y, cap, report), 0.25)
                count, hull, total, cover = (
                    report["sum_count"], report["sum_hull"],
                    report["sum_total_length"], report["sum_cover"])
                assert boxes == box_count(want, 0.25)
                assert count == len(want)
                assert hull == want.hull
                assert np.float64(total).view(np.int64) == np.float64(
                    want.total_length).view(np.int64)
                if cap is None or cap >= len(want):
                    assert_same_endpoints(cover, want)
                else:
                    assert cover is None
    assert joins > 1000  # windows swallowed whole by the component before


def _assert_normal_windows(chunks):
    """The windows are finite and sorted, strictly disjoint within a window
    and across windows, and have no -0.0 endpoint."""
    prev_hi = -np.inf
    for lo, hi in chunks:
        assert lo.size and lo.shape == hi.shape
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        assert np.all(lo <= hi)
        assert lo[0] > prev_hi and np.all(lo[1:] > hi[:-1])
        assert not np.any(np.signbit(lo)[lo == 0])
        assert not np.any(np.signbit(hi)[hi == 0])
        prev_hi = hi[-1]


def test_windows_are_in_normal_form(monkeypatch):
    """_sum_chunks merges without the constructors' checks; what it yields
    must still be the normal form, zero ends included."""
    rng = np.random.default_rng(29)
    zeros = [IntervalSet([(-1.0, -0.5), (-0.0, -0.0), (0.5, 1.0)]),
             IntervalSet([(-0.5, -0.25), (0.0, 0.0), (0.25, 0.5)]),
             IntervalSet([(-0.75, -0.0), (0.75, 1.0)])]
    for window in (1, 2, 5, 1 << 16):
        monkeypatch.setattr(sumset, "_WINDOW_PAIRS", window)
        for x in zeros:
            for y in zeros:
                _assert_normal_windows(sumset._sum_chunks(x, y))
    for _ in range(100):
        monkeypatch.setattr(sumset, "_WINDOW_PAIRS", int(rng.integers(1, 12)))
        a = _random_set(rng, int(rng.integers(1, 25)))
        b = _random_set(rng, int(rng.integers(1, 25)))
        for x, y in ((a, a), (a, b), (b, a)):
            _assert_normal_windows(sumset._sum_chunks(x, y))


def test_overflowing_sum_refused_before_any_window(monkeypatch):
    """Pair sums past the float range are refused by one test of the two
    extreme sums, before a window is formed, even where the first
    windows hold only finite sums."""
    merge, merged = sumset._merge, []

    def counting_merge(lo, hi):
        merged.append(lo.size)
        return merge(lo, hi)

    monkeypatch.setattr(sumset, "_merge", counting_merge)
    monkeypatch.setattr(sumset, "_WINDOW_PAIRS", 3)
    high = IntervalSet([(float(i), i + 0.5) for i in range(30)]
                       + [(1.7e308, 1.75e308)])
    low = IntervalSet.from_arrays(-high.hi, -high.lo)
    for x, y in ((high, high), (low, low),
                 (high, IntervalSet.from_arrays(high.lo, high.hi))):
        chunks = sumset._sum_chunks(x, y)
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            next(chunks)
    assert merged == []


def test_sum_spanning_the_float_range_is_exact(monkeypatch):
    """Window edges far from a row's left ends overflow edge - a_lo to
    ±inf; the sum is still the all-pairs sum, bit for bit, and no
    overflow warning escapes."""
    monkeypatch.setattr(sumset, "_WINDOW_PAIRS", 3)
    a = IntervalSet([(float(i), i + 0.5) for i in range(30)]
                    + [(1.7e308, 1.75e308)])
    b = IntervalSet.from_arrays(-a.hi, -a.lo)
    for x, y in ((a, b), (b, a)):
        assert_same_endpoints(oracles.joined(sumset._sum_chunks(x, y)),
                              oracles.all_pairs_minkowski_sum(x, y))


BENCHMARK_SUMS = [  # the sum argvs of perfbench's square_sum workload
    ["sum", "--lambda", "20", "--k", "14"],
    ["sum", "--lambda", "5", "--k", "14"],
    ["sum", "--lambda", "20", "--lambda2", "30", "--k", "13"],
    ["sum", "--lambda", "0.5", "--k", "14"],
    ["sum", "--lambda", "20", "--k", "12"],
    ["sum", "--lambda", "20", "--lambda2", "30", "--k", "12"],
]
REFERENCE_SUMS = BENCHMARK_SUMS + [
    ["sum", "--lambda", "20", "--k", "12", "--format", "csv"],
    ["sum", "--lambda", "0.5", "--k", "14", "--format", "csv"],
    ["sum", "--lambda", "20", "--lambda2", "30", "--k", "12", "--format", "csv"],
]


@pytest.mark.parametrize("argv", REFERENCE_SUMS, ids=" ".join)
def test_streamed_documents_match_materialized_sums(argv, monkeypatch, capsys):
    assert cli.main(argv) == 0
    streamed = capsys.readouterr().out
    monkeypatch.setattr(cli, "check_theorem_rect",
                        oracles.materialized_check_theorem_rect)
    assert cli.main(argv) == 0
    assert streamed == capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_each_ladder_sum_formed_once(fmt, monkeypatch, capsys):
    covers = band_hierarchy(5.0, 11).ladder(10)[1]
    merge, merged = sumset._merge, []

    def counting_merge(lo, hi):
        merged.append(lo.size)
        return merge(lo, hi)

    monkeypatch.setattr(sumset, "_WINDOW_PAIRS", 500)
    monkeypatch.setattr(sumset, "_merge", counting_merge)
    assert cli.main(["sum", "--lambda", "5", "--k", "10", "--format", fmt]) == 0
    capsys.readouterr()
    assert sum(merged) == sum(len(c) * (len(c) + 1) // 2 for c in covers)


@pytest.mark.parametrize("argv", BENCHMARK_SUMS, ids=" ".join)
def test_sampled_windows_stay_near_the_window_size(argv, monkeypatch):
    """The window edges come from a sample of about _SAMPLE_PER_WINDOW
    sums per window; every window of the benchmark's ladder sums stays
    within 5% of _WINDOW_PAIRS."""
    lam = float(argv[2])
    lam2 = float(argv[4]) if "--lambda2" in argv else lam
    k = int(argv[-1])
    merge, windows = sumset._merge, []

    def counting_merge(lo, hi):
        windows.append(lo.size)
        return merge(lo, hi)

    monkeypatch.setattr(sumset, "_merge", counting_merge)
    covers1 = band_hierarchy(lam, k + 1).ladder(k)[1]
    covers2 = covers1 if lam2 == lam else band_hierarchy(lam2, k + 1).ladder(k)[1]
    for a, b in zip(covers1, covers2):
        windows.clear()
        for _ in sumset._sum_chunks(a, b):
            pass
        assert sum(windows) == sumset._charged_pairs(a, b)
        assert max(windows) <= 1.05 * sumset._WINDOW_PAIRS
