import tracemalloc

import numpy as np
import pytest

from fibspec import (IntervalSet, apply_map, fibonacci_number,
                     sigma_bands, spectral_line, spectrum_cover)
from fibspec import spectrum
from fibspec.errors import BandIsolationError
from fibspec.spectrum import band_hierarchy

import oracles
from oracles import dense_band_count


def half_trace(lam, E, k):
    """x_k at each energy of E, through the library's one kernel."""
    E = np.atleast_1d(np.asarray(E, dtype=float))
    return spectrum._half_trace(lam, E, k)


def escape_index(lam, E, K):
    """Smallest k < K with |x_k| > 1 and |x_{k+1}| > 1, or None."""
    big = [abs(half_trace(lam, E, k)[0]) > 1.0 for k in range(K + 1)]
    return next((k for k in range(K) if big[k] and big[k + 1]), None)


def test_fibonacci_degrees():
    assert [fibonacci_number(k) for k in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_half_traces_fixed_point():
    assert all(half_trace(0.0, 2.0, k)[0] == 1.0 for k in range(21))
    assert escape_index(0.0, 2.0, 20) is None


def test_half_traces_immediate_escape():
    assert escape_index(1.0, 100.0, 10) == 0


def test_half_traces_hand_iteration():
    assert [half_trace(4.0, 0.0, k)[0] for k in range(5)] == [0.0, -2.0, -1.0, 4.0, -6.0]


def test_half_traces_recursion_holds():
    """The kernel computes each step as ((2 * x_k) * x_{k-1}) - x_{k-2},
    so the recursion holds exactly, from the first step x_2 on."""
    E = np.array([-1.0, 0.0, 1.3, 2.0, 3.0])
    xs = {-1: np.ones_like(E), **{j: half_trace(2.5, E, j) for j in range(16)}}
    for k in range(1, 15):
        assert np.array_equal(xs[k + 1], 2 * xs[k] * xs[k - 1] - xs[k - 2])


def test_escape_examples():
    """Once two consecutive half traces exceed 1 in modulus, the sequence
    grows without bound: the one-sided non-membership certificate."""
    assert escape_index(1.0, 10.0, 10) == 0
    assert escape_index(0.0, 0.0, 200) is None
    k = escape_index(4.0, 0.0, 10)
    assert k == 3
    moduli = [abs(half_trace(4.0, 0.0, j)[0]) for j in range(k, 11)]
    assert all(a < b for a, b in zip(moduli, moduli[1:]))


def test_half_trace_kernel_matches_unblocked_and_keeps_energies():
    E = np.linspace(-7.0, 7.0, 33)
    before = E.copy()
    for k in (0, 1, 2, 9):
        x = spectrum._half_trace(5.0, E, k)
        assert np.array_equal(x, oracles.unblocked_half_trace_on_grid(5.0, E, k))
    assert np.array_equal(E, before)


def test_recursion_is_the_map_on_the_line():
    """(x_{k+1}, x_k, x_{k-1}) must track f^k applied to the line point."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        lam = rng.uniform(0.2, 6.0)
        E = rng.uniform(-2 - lam, 2 + lam)
        xs = {-1: 1.0, **{j: half_trace(lam, E, j)[0] for j in range(10)}}
        p = spectral_line(lam, E)
        for k in range(0, 9):
            triple = (xs[k + 1], xs[k], xs[k - 1])
            if max(abs(t) for t in triple) > 1e10:
                break
            assert np.allclose(triple, tuple(p), rtol=1e-10, atol=1e-10)
            p = apply_map(p)


def test_sigma_band_examples():
    assert np.allclose(sigma_bands(7.3, 0).pairs(), [[-2.0, 2.0]], atol=1e-10)
    assert np.allclose(sigma_bands(3.0, 1).pairs(), [[1.0, 5.0]], atol=1e-10)
    assert len(sigma_bands(5.0, 6)) == 13


def test_band_endpoints_solve_unit_half_trace():
    ends = np.ravel(sigma_bands(5.0, 5).pairs())
    assert np.all(np.abs(np.abs(half_trace(5.0, ends, 5)) - 1.0) < 1e-9)


def test_cover_examples():
    assert np.allclose(spectrum_cover(3.0, 0).cover.pairs(), [[-2.0, 5.0]],
                       atol=1e-10)
    assert np.allclose(spectrum_cover(5.0, 0).cover.pairs(),
                       [[-2.0, 2.0], [3.0, 7.0]], atol=1e-10)


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_cover_refuses_negative_level(k):
    # k = -1 once indexed the hierarchy from the end and returned sigma_0
    # as both sigma_k and sigma_{k+1}
    with pytest.raises(ValueError, match="level must be >= 0"):
        spectrum_cover(5.0, k)


def test_cover_length_decreases():
    assert (spectrum_cover(5.0, 10).cover.total_length
            < spectrum_cover(5.0, 8).cover.total_length)


def test_band_counts_match_dense_oracle():
    # at weak coupling the oracle's grid must resolve the narrow gaps
    for lam, k, refine in ((5.0, 8, 64), (6.0, 7, 64), (0.05, 10, 1024),
                           (0.1, 12, 1024), (0.2, 12, 1024), (0.3, 8, 1024)):
        assert (len(sigma_bands(lam, k)) == fibonacci_number(k)
                == dense_band_count(lam, k, refine=refine))


@pytest.mark.parametrize("lam", [0.05, 0.1])
def test_cover_contains_next_level_on_dense_grid(lam):
    """sigma_{k+2} lies inside sigma_k | sigma_{k+1}.  A band finder that
    accepted short counts once left up to 3.7% of these points outside."""
    k = 10
    E = np.linspace(-2.0 - lam, 2.0 + lam, 1_000_001)
    with np.errstate(over="ignore", invalid="ignore"):
        x = oracles.unblocked_half_trace_on_grid(lam, E, k + 2)
    members = E[np.abs(x) <= 1.0]
    assert members.size > 0
    cover = spectrum_cover(lam, k).cover.dilate(1e-9)  # endpoint tolerance
    assert np.all(cover.contains_points(members))


def test_weak_coupling_refused_when_gaps_outrun_the_grid():
    # level 7 at coupling 0.01 has a gap narrower than the finest scan
    with pytest.raises(BandIsolationError) as info:
        band_hierarchy(0.01, 10)
    err = info.value
    assert (err.level, err.found, err.expected) == (7, 20, 21)


def test_bands_inside_operator_norm_interval():
    for lam in (0.5, 2.0, 8.0):
        for k in (3, 6):
            lo, hi = sigma_bands(lam, k).hull
            assert lo >= -2 - lam - 1e-9
            assert hi <= 2 + lam + 1e-9


def test_cover_nesting():
    for lam in (2.0, 5.0):
        hier = band_hierarchy(lam, 9)
        for k in range(8):
            outer = hier[k].union(hier[k + 1]).dilate(1e-9)
            inner = hier[k + 1].union(hier[k + 2])
            assert outer.covers(inner)


def test_hierarchy_consistent_with_direct_bands():
    hier = band_hierarchy(5.0, 7)
    for k in range(8):
        direct = sigma_bands(5.0, k)
        assert len(direct) == len(hier[k])
        assert np.allclose(direct.lo, hier[k].lo, atol=1e-9)
        assert np.allclose(direct.hi, hier[k].hi, atol=1e-9)


# ----------------------------------------------------------------------
# The blocked scan against the unblocked one it replaced
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.2, 0.5, 2.0, 5.0, 20.0])
def test_hierarchy_bit_identical_to_unblocked_scan(lam, monkeypatch):
    blocked = band_hierarchy(lam, 15)
    monkeypatch.setattr(spectrum, "_scan_parents", oracles.unblocked_scan_parents)
    unblocked = band_hierarchy(lam, 15)
    assert len(blocked) == len(unblocked) == 16
    for got, want in zip(blocked, unblocked):
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(got.hi, want.hi)


@pytest.mark.parametrize("points, n_parents", [(256, None), (1024, None), (16384, 3)])
def test_scan_bit_identical_to_unblocked_scan(points, n_parents):
    """At 256 and 1024 points the 178 parents fill their last block only
    partly; at 16384 points every parent is a block of its own."""
    hier = band_hierarchy(5.0, 11)
    parents = hier[10].union(hier[11])
    parents = IntervalSet.from_arrays(parents.lo[:n_parents], parents.hi[:n_parents])
    if n_parents is None:
        assert len(parents) % (spectrum._BLOCK_POINTS // points) != 0
    got = spectrum._scan_parents(5.0, 12, parents, points, 1e-12)
    want = oracles.unblocked_scan_parents(5.0, 12, parents, points, 1e-12)
    assert len(got) > 0
    assert np.array_equal(got.lo, want.lo)
    assert np.array_equal(got.hi, want.hi)


@pytest.mark.parametrize("lam, k, level, found, expected",
                         [(100.0, 12, 12, 220, 233), (1000.0, 9, 8, 33, 34)])
def test_escalation_failure_unchanged(lam, k, level, found, expected):
    with pytest.raises(BandIsolationError) as info:
        band_hierarchy(lam, k)
    err = info.value
    assert (err.level, err.found, err.expected) == (level, found, expected)


def test_escalated_scan_memory_stays_small():
    """Escalation to 16384 points on the 178 parents of level 12 is a
    2.9M-point grid; the blocked scan must never hold it all at once."""
    tracemalloc.start()
    try:
        with pytest.raises(BandIsolationError):
            band_hierarchy(100.0, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
