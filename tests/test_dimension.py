import math

import numpy as np
import pytest

import oracles
from oracles import minkowski_sum
from fibspec import (DimensionEstimate, attractor_cover, box_count,
                     box_dim_regression, solve_partition_exponent)
from fibspec import dimension, sumset
from fibspec.intervals import IntervalSet
from fibspec.spectrum import band_hierarchy
from fibspec.sumset import ladder_dimension

LOG2_OVER_LOG3 = math.log(2) / math.log(3)


def thirds_cover(depth):
    return attractor_cover(oracles.MIDDLE_THIRDS, depth)


def test_box_count_basic():
    assert box_count(IntervalSet.from_arrays([0.0], [0.9]), 0.25) == 4
    assert box_count(IntervalSet([(0.0, 0.0)]), 0.1) == 1
    assert box_count(IntervalSet([(0.0, 0.0)]), 123.0) == 1


def test_box_count_two_thirds_components():
    """Cells are half-open [j*eps, (j+1)*eps) anchored at 0, and a cell is
    counted when the closed set meets it.  Each component [0,1/3] and
    [2/3,1] therefore meets two cells (its right endpoint sits on a cell
    boundary), giving 4 in total."""
    s = IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])
    assert box_count(s, 1 / 3) == 4


def test_box_count_shared_cell_not_double_counted():
    s = IntervalSet.from_arrays([0.0, 0.4], [0.1, 0.6])
    # both components touch cell j=0 at eps=0.5
    assert box_count(s, 0.5) == 2


@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocked_box_count_matches_unblocked(block, monkeypatch):
    """With tiny blocks one run of cells spans many blocks: the first
    component below is wide, the rest sit in cells it already met."""
    wide_first = IntervalSet.from_arrays(
        np.concatenate([[0.0], 1.1 + np.arange(20) * 0.05]),
        np.concatenate([[1.05], 1.12 + np.arange(20) * 0.05]))
    sums = [minkowski_sum(c, c) for c in band_hierarchy(5.0, 10).ladder(9)[1]]
    monkeypatch.setattr(dimension, "_BLOCK_COMPONENTS", block)
    for s, eps_list in [(wide_first, (1.0, 0.3, 0.01))] + [
            (s, (s.max_length, s.max_length / 16, 1.0)) for s in sums]:
        for eps in eps_list:
            assert box_count(s, eps) == oracles.unblocked_box_count(s, eps)


def test_box_count_rejects_bad_eps():
    s = IntervalSet.from_arrays([0.0], [1.0])
    with pytest.raises(ValueError):
        box_count(s, 0.0)
    with pytest.raises(ValueError):
        box_count(s, -1.0)
    with pytest.raises(ValueError):
        box_count(s, math.inf)


def test_box_count_refuses_cells_past_the_precision_floor(monkeypatch):
    """From |x|/eps = 2**53 on, floor(x/eps) no longer tells neighbouring
    cells apart, and past 2**63 it does not fit a cell index at all (an
    int64 cast of it gives garbage and a RuntimeWarning)."""
    s = IntervalSet([(0.0, 1.0), (2.0, 3.0)])
    for block in (1, 64):  # the second block alone crosses at 3 / 2**53
        monkeypatch.setattr(dimension, "_BLOCK_COMPONENTS", block)
        for eps in (1e-19, 1e-300, 3.0 / 2**53):
            with pytest.raises(ValueError, match="precision floor"):
                box_count(s, eps)
    with pytest.raises(ValueError, match="precision floor"):
        box_count(IntervalSet([(-3.0, -2.0)]), 3.0 / 2**53)
    assert box_count(IntervalSet([(0.0, 1.0)]), 2.0**-52) == 2**52 + 1
    assert box_count(IntervalSet([(-1.0, 0.0)]), 2.0**-52) == 2**52 + 1


def _chunks(s, cuts):
    """The components of s as (lo, hi) chunks, cut before each index in cuts."""
    edges = [0, *cuts, len(s)]
    return [(s.lo[i:j], s.hi[i:j]) for i, j in zip(edges, edges[1:])]


def _count_at_every_split(s, eps):
    """The running-max count of s at eps, after checking that _count_cells
    gives it for s whole, cut at each single position and cut everywhere."""
    want = oracles.unblocked_box_count(s, eps)
    assert dimension._count_cells(_chunks(s, []), eps) == want
    for m in range(1, len(s)):
        assert dimension._count_cells(_chunks(s, [m]), eps) == want
    assert dimension._count_cells(_chunks(s, range(1, len(s))), eps) == want
    return want


def test_cell_count_matches_running_max_on_random_sets():
    rng = np.random.default_rng(41)
    for _ in range(80):
        x = np.sort(rng.uniform(-3, 3, 2 * int(rng.integers(1, 15))))
        if rng.random() < 0.5:
            x = np.round(x * 4) / 4  # touching and point components
        s = IntervalSet.from_arrays(x[::2], x[1::2])
        for eps in (0.01, 0.3, 0.7, 5.0):
            _count_at_every_split(s, eps)


def test_cell_count_matches_running_max_on_cell_boundaries():
    rng = np.random.default_rng(42)
    for eps in (0.25, 0.1, 1 / 3, 2.0**-30):
        for _ in range(20):
            x = np.sort(rng.integers(-40, 40, 2 * int(rng.integers(1, 15)))) * eps
            _count_at_every_split(IntervalSet.from_arrays(x[::2], x[1::2]), eps)


def test_cell_count_matches_running_max_where_cells_are_shared():
    """Cells far wider than the gaps: most components share their first
    cell with the component before them."""
    rng = np.random.default_rng(43)
    x = np.sort(rng.uniform(-1, 1, 600))
    s = IntervalSet.from_arrays(x[::2], x[1::2])
    for eps in (0.05, 0.3, 2.0):
        assert _count_at_every_split(s, eps) <= 2 / eps + 2


def test_cell_count_of_streamed_ladder_sums_matches_running_max(monkeypatch):
    monkeypatch.setattr(sumset, "_WINDOW_PAIRS", 50)
    for c in band_hierarchy(5.0, 10).ladder(9)[1]:
        s = oracles.all_pairs_minkowski_sum(c, c)
        assert len(list(sumset._sum_chunks(c, c))) > 1
        for eps in (c.max_length, s.max_length / 16, 1.0):
            assert (dimension._count_cells(sumset._sum_chunks(c, c), eps)
                    == oracles.unblocked_box_count(s, eps))


def test_box_count_empty_set():
    assert box_count(IntervalSet.from_arrays([], []), 0.5) == 0


def test_regression_middle_thirds():
    depths = range(4, 13)
    covers = [thirds_cover(d) for d in depths]
    eps = [3.0 ** -d for d in depths]
    est = box_dim_regression(covers[2:], eps[2:])
    assert est.method == "box"
    assert not est.degenerate
    assert est.value == pytest.approx(LOG2_OVER_LOG3, abs=0.02)
    # The same levels as streams of blocks give the same estimate.
    streams = [iter(_chunks(c, range(7, len(c), 7))) for c in covers[2:]]
    assert box_dim_regression(streams, eps[2:]) == est


def test_regression_nested_intervals_degenerate():
    covers = [IntervalSet.from_arrays([0.0], [2.0 ** -k]) for k in range(1, 9)]
    eps = [2.0 ** -k for k in range(1, 9)]
    est = box_dim_regression(covers[2:], eps[2:])
    assert est.degenerate
    assert est.value == 0.0


def test_regression_full_interval_slope_one():
    """Counts on [0,1] are 2^k + 1 (the right endpoint owns an extra
    cell), so coarse levels bias the slope slightly below 1; it converges
    from below as the levels deepen."""
    unit = IntervalSet.from_arrays([0.0], [1.0])
    eps = [2.0 ** -k for k in range(1, 9)]
    est = box_dim_regression([unit] * len(eps[2:]), eps[2:])
    assert est.value == pytest.approx(1.0, abs=0.05)
    deep = [2.0 ** -k for k in range(8, 15)]
    est_deep = box_dim_regression([unit] * len(deep), deep)
    assert est_deep.value == pytest.approx(1.0, abs=5e-3)
    assert est_deep.value > est.value


def test_regression_input_validation():
    unit = IntervalSet.from_arrays([0.0], [1.0])
    with pytest.raises(ValueError):
        box_dim_regression([unit] * 3, [0.5, 0.5, 0.25])
    with pytest.raises(ValueError):
        box_dim_regression([unit] * 2, [0.5, 0.25])
    with pytest.raises(ValueError):
        box_dim_regression([unit] * 3, [0.5, 0.25])
    empty = IntervalSet.from_arrays([], [])
    with pytest.raises(ValueError, match="zero boxes"):
        box_dim_regression([unit, unit, empty], [0.5, 0.25, 0.125])


def test_regression_refuses_bad_scales_before_any_stream_advances():
    def untouchable():
        raise AssertionError("a stream was advanced")
        yield

    for eps, message in (([0.5, 0.25], "need at least 3 levels"),
                         ([0.5, 0.25, 0.0], "must be positive"),
                         ([0.5, 0.25, -0.125], "must be positive"),
                         ([0.5, 0.25, math.nan], "must be positive"),
                         ([0.5, 0.25, 0.25], "strictly decreasing"),
                         ([0.5, 0.125, 0.25], "strictly decreasing")):
        with pytest.raises(ValueError, match=message):
            box_dim_regression([untouchable() for _ in eps], eps)


def test_regression_scale_invariance():
    """Rescaling covers and cells by an exactly-representable factor
    cannot move the estimate (quotients are bitwise identical)."""
    depths = range(3, 10)
    covers = [thirds_cover(d) for d in depths]
    eps = [3.0 ** -d for d in depths]
    base = box_dim_regression(covers[2:], eps[2:])
    for factor in (2.0, 0.125, 1024.0):
        scaled = [IntervalSet.from_arrays(c.lo * factor, c.hi * factor)
                  for c in covers]
        est = box_dim_regression(scaled[2:], [e * factor for e in eps][2:])
        assert abs(est.value - base.value) < 1e-9


def test_moran_examples():
    thirds = IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])
    assert solve_partition_exponent(thirds.lengths) == pytest.approx(
        LOG2_OVER_LOG3, abs=1e-9)

    quarters = IntervalSet.from_arrays([0.0, 1.0, 2.0, 3.0],
                                       [0.25, 1.25, 2.25, 3.25])
    assert solve_partition_exponent(quarters.lengths) == pytest.approx(
        1.0, abs=1e-9)


def test_moran_rejects_long_bands():
    with pytest.raises(ValueError):
        solve_partition_exponent(
            IntervalSet.from_arrays([0.0, 2.0], [1.5, 2.5]).lengths)


def test_moran_monotone_in_band_insertion():
    base = IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])
    bigger = base.union(IntervalSet.from_arrays([2.0], [2.2]))
    assert (solve_partition_exponent(bigger.lengths)
            > solve_partition_exponent(base.lengths))


def test_moran_approximate_flag_propagates():
    """The ladder's partition exponent is that of its finest cover, flagged
    approximate: spectral band systems are not exactly self-similar."""
    covers = [attractor_cover(oracles.MIDDLE_THIRDS, d) for d in range(4, 8)]
    _, moran = ladder_dimension(covers)
    assert moran.method == "moran" and moran.approximate
    assert moran.value == solve_partition_exponent(covers[-1].lengths)


def test_partition_exponent_no_root_rejected():
    with pytest.raises(ValueError):
        solve_partition_exponent([0.9, 0.9])
    with pytest.raises(ValueError):
        solve_partition_exponent([0.5])
    with pytest.raises(ValueError):
        solve_partition_exponent([0.5, 1.0])


def test_estimators_agree_on_self_similar_sets():
    for ifs, bands in (
        (oracles.MIDDLE_THIRDS, IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])),
        (oracles.QUARTER_CORNERS, IntervalSet.from_arrays([0.0, 0.75], [0.25, 1.0])),
    ):
        depths = range(4, 11)
        covers = [attractor_cover(ifs, d) for d in depths]
        ratio = ifs.ratios[0]
        eps = [ratio ** d for d in depths]
        box = box_dim_regression(covers[2:], eps[2:])
        moran = solve_partition_exponent(bands.lengths)
        assert abs(box.value - moran) <= 0.03


def test_estimate_value_range_enforced():
    with pytest.raises(ValueError):
        DimensionEstimate(value=2.5, slope_stderr=0.0, levels_used=[0, 1, 2],
                          method="box")
    with pytest.raises(ValueError):
        DimensionEstimate(value=-0.1, slope_stderr=0.0, levels_used=[0, 1, 2],
                          method="box")
