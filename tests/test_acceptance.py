"""End-to-end acceptance checks for the whole laboratory.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single summary line when it holds, so a verbose run reads as a
checklist.  Runtime bounds are asserted with ``time.perf_counter`` around
the work they cover.
"""

import json
import math
import time

import numpy as np
import pytest

from fibspec import (Point3, attractor_cover, band_hierarchy,
                     box_dim_regression, check_theorem_rect, eigenvalues,
                     fibonacci_number, fibonacci_tridiagonal, invariant,
                     log_ratio, orbit_info, solve_partition_exponent)
from fibspec import cli
from fibspec.periodic import _differential, _orbit
from fibspec.spectrum import _half_trace

from oracles import (MIDDLE_THIRDS, QUARTER_CORNERS, covers, dense_band_count,
                     minkowski_sum, pairs)


def _passed(tag: str, detail: str):
    print(f"[{tag} PASS] {detail}")


def test_01_band_endpoint_triples_stay_on_the_invariant_surface():
    """(x_k, x_{k-1}, x_{k-2}) from the band finder's half-trace kernel, at
    every band endpoint of sigma_k, lies on the surface {I = lam^2/4}."""
    t0 = time.perf_counter()
    worst = 0.0
    endpoints = 0
    for lam in (0.1, 0.5, 2.0, 5.0, 20.0):
        surface = lam * lam / 4.0
        k_max = 14 if lam == 20.0 else 15
        hier = band_hierarchy(lam, k_max)
        for k in range(2, k_max + 1):
            ends = np.concatenate([hier[k].lo, hier[k].hi])
            triples = zip(*(_half_trace(lam, ends, j).tolist()
                            for j in (k, k - 1, k - 2)))
            for x, y, z in triples:
                err = abs(invariant(Point3(x, y, z)) - surface)
                worst = max(worst, err / max(1.0, surface))
            endpoints += ends.size
    assert worst <= 1e-13
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed("01", f"{endpoints} band endpoints, lam in {{0.1 .. 20}}, "
                  f"k <= 15: max |I - lambda^2/4| / max(1, lambda^2/4) = "
                  f"{worst:.2e}, {elapsed:.2f} s")


def test_02_spectral_line_lands_on_quarter_lambda_squared_surface():
    """(x_1, x_0, 1) from the half-trace kernel, the spectral line's point
    at E, lies on the surface {I = lam^2/4}."""
    rng = np.random.default_rng(7)
    lams = 10.0 - rng.uniform(0.0, 10.0, size=1000)  # in (0, 10]
    energies = rng.uniform(-20.0, 20.0, size=1000)
    worst = 0.0
    for lam, energy in zip(lams, energies):
        E = np.array([energy])
        p = Point3(float(_half_trace(lam, E, 1)[0]),
                   float(_half_trace(lam, E, 0)[0]), 1.0)
        err = abs(invariant(p) - lam * lam / 4.0)
        worst = max(worst, err)
    assert worst <= 1e-12
    _passed("02", f"1e3 couplings: max |I - lambda^2/4| = {worst:.2e}")


def test_03_first_two_band_sets_match_closed_forms():
    for lam in (0.5, 3.0, 20.0):
        s0, s1 = band_hierarchy(lam, 1)
        assert len(s0) == 1 and len(s1) == 1
        assert np.allclose(pairs(s0), [[-2.0, 2.0]], atol=1e-10)
        assert np.allclose(pairs(s1), [[lam - 2.0, lam + 2.0]], atol=1e-10)
    _passed("03", "level 0 = [-2,2], level 1 = [lam-2, lam+2] "
                  "at lam in {0.5, 3, 20}")


def test_04_band_counts_follow_fibonacci_and_dense_grid_oracle():
    t0 = time.perf_counter()
    hier = band_hierarchy(5.0, 12)
    counts = [len(hier[k]) for k in range(13)]
    assert counts == [fibonacci_number(k) for k in range(13)]
    for k in (10, 11, 12):
        assert dense_band_count(5.0, k) == counts[k]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed("04", f"lam=5 counts {counts[-3:]} = Fibonacci through k=12, "
                  f"dense-grid oracle agrees, {elapsed:.1f} s")


def test_05_covers_nest_as_depth_grows():
    hier = band_hierarchy(2.0, 12)
    for k in range(11):
        outer = hier.cover(k).dilate(1e-9)
        inner = hier.cover(k + 1)
        assert covers(outer, inner)
    _passed("05", "lam=2 cover(k+1) within cover(k) + 1e-9 for k <= 10")


def test_06_finite_box_eigenvalues_land_in_the_cover():
    t0 = time.perf_counter()
    fractions = {}
    for lam in (1.0, 5.0):
        evs = eigenvalues(fibonacci_tridiagonal(lam, 610))
        cover = band_hierarchy(lam, 13).cover(12).dilate(1e-2)
        fractions[lam] = float(np.mean(cover.contains_points(evs)))
        assert fractions[lam] >= 0.95
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed("06", f"n=610 eigenvalues inside dilated cover: "
                  f"{fractions[1.0]:.4f} (lam=1), {fractions[5.0]:.4f} "
                  f"(lam=5), {elapsed:.1f} s")


def test_07_dimension_estimators_agree_on_middle_thirds():
    thirds = MIDDLE_THIRDS
    first_level = attractor_cover(thirds, 1)
    moran = solve_partition_exponent(first_level.lengths)
    target = math.log(2) / math.log(3)
    assert moran == pytest.approx(target, abs=1e-6)
    depths = range(4, 13)
    covers = [attractor_cover(thirds, d) for d in depths]
    box = box_dim_regression(covers[2:], [3.0 ** -d for d in depths][2:])
    assert box.value == pytest.approx(0.6309, abs=0.02)
    _passed("07", f"middle thirds: partition exponent {moran:.6f}, "
                  f"box estimate {box.value:.4f}")


def test_08_periodic_orbits_match_closed_form_multipliers():
    t0 = time.perf_counter()
    for a in (0.25, 1.0, 4.0):
        for info, n in zip(orbit_info(a), (4, 6)):
            pt = info.point
            assert abs(invariant(pt) - a) <= 1e-12 * max(1.0, a)
            orbit = _orbit(pt)
            assert info.period == len(orbit) - 1 == n
            rel = abs(info.multiplier_numeric - info.multiplier_closed)
            assert rel <= 1e-8 * abs(info.multiplier_closed)
            det = np.linalg.det(_differential(orbit))
            assert abs(det - 1.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed("08", f"a in {{0.25, 1, 4}}: placement, periods 4/6, closed vs "
                  f"numeric multipliers, unit determinants, {elapsed:.2f} s")


def test_09_log_multiplier_ratio_rational_only_at_zero():
    at_zero = log_ratio(0.0)
    at_one = log_ratio(1.0)
    assert at_zero == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert abs(at_one - 2.0 / 3.0) > 0.05
    _passed("09", f"log-multiplier ratio 2/3 at a=0, {at_one:.5f} at a=1")


def test_10_equal_ratio_sum_loses_dimension_mixed_ratio_does_not():
    t0 = time.perf_counter()
    thirds, quarters = MIDDLE_THIRDS, QUARTER_CORNERS
    depths = range(4, 10)
    eps = [0.25 ** d for d in depths]
    self_sum = [minkowski_sum(attractor_cover(quarters, d),
                              attractor_cover(quarters, d)) for d in depths]
    deficit = box_dim_regression(self_sum, eps)
    assert deficit.value == pytest.approx(math.log(3) / math.log(4), abs=0.02)
    assert deficit.value < 1.0
    mixed = [minkowski_sum(attractor_cover(thirds, d),
                           attractor_cover(quarters, d)) for d in depths]
    full = box_dim_regression(mixed, eps)
    assert full.value == pytest.approx(1.0, abs=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed("10", f"quarter self-sum {deficit.value:.4f} ~ log3/log4, "
                  f"thirds+quarters {full.value:.4f} ~ 1, {elapsed:.1f} s")


def test_11_square_sum_theorem_large_and_small_coupling():
    t0 = time.perf_counter()
    large = check_theorem_rect(20.0, 20.0, 12)
    hd = large.hd1_est.value
    assert large.sum_dim_est.value <= min(2.0 * hd, 1.0) + 0.05
    assert abs(large.gap) <= 0.05
    small = check_theorem_rect(0.2, 0.2, 14)
    assert len(small.sum_cover) == 1
    assert small.sum_dim_est.value >= 0.98
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passed("11", f"lam=20: gap {large.gap:+.4f}; lam=0.2: single-interval "
                  f"sum cover, dim {small.sum_dim_est.value:.4f}, "
                  f"{elapsed:.1f} s")


def test_12_rect_sum_theorem_distinct_couplings():
    report = check_theorem_rect(20.0, 30.0, 12)
    assert abs(report.gap) <= 0.05
    _passed("12", f"lam=(20,30): sum dim {report.sum_dim_est.value:.4f} vs "
                  f"rhs {report.rhs:.4f}, gap {report.gap:+.4f}")


def test_13_cli_output_is_byte_deterministic(capsys):
    invocations = [
        ["spectrum", "--lambda", "5", "--k", "6"],
        ["oracle", "--lambda", "5", "--n", "89", "--k", "8"],
        ["dim", "--lambda", "5", "--k", "8"],
        ["sum", "--lambda", "8", "--k", "8"],
        ["periodic", "--a", "1"],
        ["periodic", "--scan", "0", "1", "--grid", "11", "--qmax", "50"],
        ["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "4"],
        ["ifs", "--resonance", "0.25", "0.5"],
        ["sweep", "--command", "periodic", "--start", "0", "--stop", "1",
         "--count", "3"],
    ]
    for argv in invocations:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out.encode()
        assert cli.main(argv) == 0
        second = capsys.readouterr().out.encode()
        assert first == second
        json.loads(first)  # every payload is well-formed JSON
    _passed("13", f"{len(invocations)} invocations byte-identical on rerun")
