import math

import numpy as np
import pytest

from fibspec import (DimensionEstimate, attractor_cover, box_count,
                     box_dim_regression, middle_thirds, moran_dim,
                     quarter_corners, solve_partition_exponent)
from fibspec.intervals import IntervalSet

LOG2_OVER_LOG3 = math.log(2) / math.log(3)


def thirds_cover(depth):
    return attractor_cover(middle_thirds(), depth)


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


def test_box_count_rejects_bad_eps():
    s = IntervalSet.from_arrays([0.0], [1.0])
    with pytest.raises(ValueError):
        box_count(s, 0.0)
    with pytest.raises(ValueError):
        box_count(s, -1.0)
    with pytest.raises(ValueError):
        box_count(s, math.inf)


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
    assert moran_dim(thirds).value == pytest.approx(LOG2_OVER_LOG3, abs=1e-9)

    quarters = IntervalSet.from_arrays([0.0, 1.0, 2.0, 3.0],
                                       [0.25, 1.25, 2.25, 3.25])
    assert moran_dim(quarters).value == pytest.approx(1.0, abs=1e-9)

    single = moran_dim(IntervalSet.from_arrays([0.0], [0.5]))
    assert single.value == 0.0
    assert single.degenerate


def test_moran_rejects_long_bands():
    with pytest.raises(ValueError):
        moran_dim(IntervalSet.from_arrays([0.0, 2.0], [1.5, 2.5]))


def test_moran_monotone_in_band_insertion():
    base = IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])
    bigger = base.union(IntervalSet.from_arrays([2.0], [2.2]))
    assert moran_dim(bigger).value > moran_dim(base).value


def test_moran_approximate_flag_propagates():
    thirds = IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])
    assert moran_dim(thirds, approximate=True).approximate
    assert not moran_dim(thirds).approximate


def test_partition_exponent_no_root_rejected():
    with pytest.raises(ValueError):
        solve_partition_exponent([0.9, 0.9])
    with pytest.raises(ValueError):
        solve_partition_exponent([0.5])
    with pytest.raises(ValueError):
        solve_partition_exponent([0.5, 1.0])


def test_estimators_agree_on_self_similar_sets():
    for ifs, bands in (
        (middle_thirds(), IntervalSet.from_arrays([0.0, 2 / 3], [1 / 3, 1.0])),
        (quarter_corners(), IntervalSet.from_arrays([0.0, 0.75], [0.25, 1.0])),
    ):
        depths = range(4, 11)
        covers = [attractor_cover(ifs, d) for d in depths]
        ratio = ifs.ratios[0]
        eps = [ratio ** d for d in depths]
        box = box_dim_regression(covers[2:], eps[2:])
        moran = moran_dim(bands)
        assert abs(box.value - moran.value) <= 0.03


def test_estimate_value_range_enforced():
    with pytest.raises(ValueError):
        DimensionEstimate(value=2.5, slope_stderr=0.0, levels_used=[0, 1, 2],
                          method="box")
    with pytest.raises(ValueError):
        DimensionEstimate(value=-0.1, slope_stderr=0.0, levels_used=[0, 1, 2],
                          method="box")
