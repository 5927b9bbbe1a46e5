import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from fibspec import (BandHierarchy, IntervalSet, Point3, apply_map,
                     fibonacci_number)
from fibspec import spectrum
from fibspec.errors import BandIsolationError, SizeCapError
from fibspec.spectrum import band_hierarchy

import oracles
from oracles import dense_band_count, pairs


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
    """The kernel's traces t = 2x give the floats of
    ((2 * x_k) * x_{k-1}) - x_{k-2}, so the recursion holds exactly, from
    the first step x_2 on."""
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


@pytest.mark.parametrize("lam", [0.05, 2.0, 5.0, 20.0])
def test_trace_kernel_bit_identical_to_half_trace_recursion(lam):
    """The kernel runs the traces t = 2x and halves once; scaling by 2 is
    exact, so each x_k is the float that the half-trace recursion gives:
    across the whole window [-lam - 3, lam + 3] up to k = 8, and up to
    k = 21 across the bands of levels 15 and 16, the parents of level 17."""
    window = np.linspace(-lam - 3.0, lam + 3.0, 4001)
    for k in range(9):
        assert np.array_equal(spectrum._half_trace(lam, window, k),
                              oracles.unblocked_half_trace_on_grid(lam, window, k))
    levels = band_hierarchy(lam, 16)
    parents = levels[15].union(levels[16])
    E = (parents.lo[:, None]
         + parents.lengths[:, None] * np.linspace(0.0, 1.0, 9)).ravel()
    for k in range(22):
        assert np.array_equal(spectrum._half_trace(lam, E, k),
                              oracles.unblocked_half_trace_on_grid(lam, E, k))


@pytest.mark.parametrize("lam", [0.05, 2.0, 5.0, 20.0])
def test_refinement_within_half_tol_of_where_bisection(lam):
    """Seeded random brackets, across the window at level 8 and around the
    band endpoints at level 16, with shifts +1 and -1 mixed; those that
    hold a sign change of x_k - shift are refined.  Each root shows that
    sign change, oriented as its bracket's, within tol/4 on either side
    inside the bracket, and the arguments are left alone.  Where sigma_k
    puts a single endpoint in the bracket, so that it holds one crossing,
    the root is within tol/2 of the one np.where bisection returns."""
    tol = spectrum.ENDPOINT_TOL
    rng = np.random.default_rng(13)
    hier = band_hierarchy(lam, 16)
    ends16 = np.concatenate([hier[16].lo, hier[16].hi])
    n = 3000
    cases = [(8, rng.uniform(-lam - 3.0, lam + 3.0, n), 10.0 ** rng.uniform(-12, 0, n)),
             (16, rng.choice(ends16, n), 10.0 ** rng.uniform(-12, -6, n))]
    singles = 0
    for k, centre, width in cases:
        lo = centre - width * rng.uniform(0.0, 1.0, n)
        hi = lo + width
        rng.random(n)  # the draw that once chose the sign at lo
        shift = rng.choice([1.0, -1.0], n)
        xlo, xhi = half_trace(lam, lo, k), half_trace(lam, hi, k)
        held = (xlo > shift) != (xhi > shift)
        args = [a[held] for a in (lo, hi, xlo, xhi, shift)]
        before = [a.copy() for a in args]
        got = spectrum._refine_roots(lam, k, *args)
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
        lo, hi, xlo, _, shift = args
        pos = xlo > shift
        below = half_trace(lam, np.maximum(got - tol / 4, lo), k) > shift
        above = half_trace(lam, np.minimum(got + tol / 4, hi), k) > shift
        assert np.all((below == pos) & (above != pos))
        ends = np.sort(np.concatenate([hier[k].lo, hier[k].hi]))
        single = np.searchsorted(ends, hi + tol) - np.searchsorted(ends, lo - tol) == 1
        want = oracles.unblocked_bisect_roots(lam, k, lo, hi, pos, shift, tol)
        assert np.all(np.abs(got - want)[single] <= tol / 2)
        singles += np.count_nonzero(single)
    assert singles > 0


def test_recursion_is_the_map_on_the_line():
    """(x_{k+1}, x_k, x_{k-1}) must track f^k applied to the line point."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        lam = rng.uniform(0.2, 6.0)
        E = rng.uniform(-2 - lam, 2 + lam)
        xs = {-1: 1.0, **{j: half_trace(lam, E, j)[0] for j in range(10)}}
        p = Point3((E - lam) / 2, E / 2, 1.0)
        for k in range(0, 9):
            triple = (xs[k + 1], xs[k], xs[k - 1])
            if max(abs(t) for t in triple) > 1e10:
                break
            assert np.allclose(triple, tuple(p), rtol=1e-10, atol=1e-10)
            p = apply_map(p)


def test_sigma_band_examples():
    assert np.allclose(pairs(band_hierarchy(7.3, 0)[0]), [[-2.0, 2.0]],
                       atol=1e-10)
    assert np.allclose(pairs(band_hierarchy(3.0, 1)[1]), [[1.0, 5.0]],
                       atol=1e-10)
    assert len(band_hierarchy(5.0, 6)[6]) == 13


def test_band_endpoints_solve_unit_half_trace():
    ends = np.ravel(pairs(band_hierarchy(5.0, 5)[5]))
    assert np.all(np.abs(np.abs(half_trace(5.0, ends, 5)) - 1.0) < 1e-9)


def test_cover_examples():
    assert np.allclose(pairs(band_hierarchy(3.0, 1).cover(0)), [[-2.0, 5.0]],
                       atol=1e-10)
    assert np.allclose(pairs(band_hierarchy(5.0, 1).cover(0)),
                       [[-2.0, 2.0], [3.0, 7.0]], atol=1e-10)


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_cover_refuses_negative_level(k):
    # k = -1 once indexed the hierarchy from the end and returned sigma_0
    # as both sigma_k and sigma_{k+1}
    with pytest.raises(ValueError, match="level must be >= 0"):
        band_hierarchy(5.0, 3).cover(k)
    with pytest.raises(ValueError, match="level must be >= 0"):
        band_hierarchy(5.0, k + 1).cover(k)  # the path of spectrum --k
    # a cover at or past the top level once raised a bare IndexError
    hier, top = band_hierarchy(5.0, 6), 5 - k
    with pytest.raises(ValueError, match="level must be <= 5: .* ends at level 6"):
        hier.cover(top)
    with pytest.raises(ValueError, match="level must be <= 5: .* ends at level 6"):
        hier.ladder(top)


def test_hierarchy_survives_copy_and_pickle():
    # the list band_hierarchy once returned could be copied and sent to a
    # worker process; the tuple with its coupling must be too
    hier = band_hierarchy(5.0, 9)
    for twin in (copy.copy(hier), copy.deepcopy(hier),
                 pickle.loads(pickle.dumps(hier))):
        assert type(twin) is BandHierarchy
        assert twin.lam == 5.0 and twin == hier
        assert twin.ladder(8) == hier.ladder(8)


def test_cover_length_decreases():
    hier = band_hierarchy(5.0, 11)
    assert hier.cover(10).total_length < hier.cover(8).total_length


def _outcome(method, *args):
    """What a call returns, or the message of the ValueError it raises."""
    try:
        return method(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0, 20.0])
def test_covers_and_ladders_bit_identical_to_reference(lam):
    """The hierarchy's levels, covers and ladders are the floats, and its
    refusals the messages, of the stand-alone functions they replaced."""
    k_max = 13
    hier = band_hierarchy(lam, k_max)
    assert isinstance(hier, BandHierarchy) and isinstance(hier, tuple)
    assert hier.lam == lam and len(hier) == k_max + 1
    assert list(hier) == [hier[j] for j in range(k_max + 1)]
    for k in range(-1, k_max):
        assert _outcome(lambda j: (hier[j], hier[j + 1], hier.cover(j)), k) == (
            _outcome(oracles.spectrum_cover, lam, k))
    for k in (0, 2, 3, 6, 9, 12):
        assert _outcome(hier.ladder, k) == _outcome(oracles.cover_ladder, lam, k)


def test_band_counts_match_dense_oracle():
    # at weak coupling the oracle's grid must resolve the narrow gaps
    for lam, k, refine in ((5.0, 8, 64), (6.0, 7, 64), (0.05, 10, 1024),
                           (0.1, 12, 1024), (0.2, 12, 1024), (0.3, 8, 1024)):
        assert (len(band_hierarchy(lam, k)[k]) == fibonacci_number(k)
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
    cover = band_hierarchy(lam, k + 1).cover(k).dilate(1e-9)  # endpoint tolerance
    assert np.all(cover.contains_points(members))


def test_too_deep_hierarchy_refused_before_any_scan(monkeypatch):
    """Time and memory grow about 1.6x per level, so a hierarchy past
    ``_MAX_LEVEL`` is refused up front; the deepest one allowed scans."""
    def no_scan(*args):
        raise AssertionError("scanned")
    monkeypatch.setattr(spectrum, "_half_trace", no_scan)
    assert spectrum._MAX_LEVEL == 30
    with pytest.raises(SizeCapError, match="levels: 41 items exceeds cap 31"):
        band_hierarchy(0.5, 40)
    with pytest.raises(SizeCapError, match="levels: 32 items"):
        band_hierarchy(0.5, 31)
    with pytest.raises(AssertionError, match="scanned"):
        band_hierarchy(0.5, 30)


def test_weak_coupling_refused_when_gaps_outrun_the_grid():
    # level 7 at coupling 0.01 has a gap narrower than the finest scan
    with pytest.raises(BandIsolationError) as info:
        band_hierarchy(0.01, 10)
    err = info.value
    assert (err.level, err.found, err.expected) == (7, 20, 21)


def test_bands_inside_operator_norm_interval():
    for lam in (0.5, 2.0, 8.0):
        for k in (3, 6):
            lo, hi = band_hierarchy(lam, k)[k].hull
            assert lo >= -2 - lam - 1e-9
            assert hi <= 2 + lam + 1e-9


def test_cover_nesting():
    for lam in (2.0, 5.0):
        hier = band_hierarchy(lam, 9)
        for k in range(8):
            outer = hier.cover(k).dilate(1e-9)
            inner = hier.cover(k + 1)
            assert oracles.covers(outer, inner)


def test_hierarchy_consistent_with_direct_bands():
    hier = band_hierarchy(5.0, 7)
    for k in range(8):
        direct = band_hierarchy(5.0, k)[k]
        assert len(direct) == len(hier[k])
        assert np.allclose(direct.lo, hier[k].lo, atol=1e-9)
        assert np.allclose(direct.hi, hier[k].hi, atol=1e-9)


# ----------------------------------------------------------------------
# The per-parent scan against the uniform scan it replaced
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.2, 0.5, 2.0, 5.0, 20.0])
def test_hierarchy_within_tol_of_uniform_scan(lam):
    """Grids sized per parent bisect from other brackets, so endpoints
    move in their last bits, but never by more than ``tol``."""
    tol = spectrum.ENDPOINT_TOL
    got = band_hierarchy(lam, 15)
    want = oracles.uniform_band_hierarchy(lam, 15)
    assert len(got) == len(want) == 16
    for g, w in zip(got, want):
        assert len(g) == len(w)
        assert np.max(np.abs(g.lo - w.lo)) <= tol
        assert np.max(np.abs(g.hi - w.hi)) <= tol


@pytest.mark.parametrize("lam", [0.05, 0.2, 1.0, 5.0, 20.0])
def test_bands_per_parent_equal_merged_count(lam):
    """Each parent holds as many bands of level k as of levels k-2 and
    k-1 together merged into it, at weak and strong coupling alike."""
    levels = band_hierarchy(lam, 14)
    for k in range(2, 15):
        parents = levels[k - 2].union(levels[k - 1])

        def per_parent(lo):
            return np.bincount(np.searchsorted(parents.lo, lo, "right") - 1,
                               minlength=len(parents))

        merged = per_parent(np.concatenate([levels[k - 2].lo, levels[k - 1].lo]))
        assert merged.sum() == fibonacci_number(k)
        assert np.array_equal(per_parent(levels[k].lo), merged), k


def count_kernel_calls(monkeypatch):
    """Patch the kernel to log the size of every call, and the refinement
    to mark the calls made inside it; returns the log of (size, refining)."""
    log, refining = [], [False]
    kernel, refine = spectrum._half_trace, spectrum._refine_roots

    def counted(*args, **kwargs):
        log.append((args[1].size, refining[0]))
        return kernel(*args, **kwargs)

    def marked(*args):
        refining[0] = True
        try:
            return refine(*args)
        finally:
            refining[0] = False

    monkeypatch.setattr(spectrum, "_half_trace", counted)
    monkeypatch.setattr(spectrum, "_refine_roots", marked)
    return log


@pytest.mark.parametrize("lam, k, limit", [(5.0, 20, 1_600_000), (0.05, 20, 10_000_000)])
def test_half_trace_evaluations_bounded(lam, k, limit, monkeypatch):
    """x_k point evaluations per hierarchy, refinement included; the
    uniform 256-point scan made 6,240,342 at (5, 20) and 48,008,889 at
    (0.05, 20)."""
    log = count_kernel_calls(monkeypatch)
    assert len(band_hierarchy(lam, k)[k]) == fibonacci_number(k)
    assert sum(size for size, _ in log) <= limit


@pytest.mark.parametrize("lam, k, limit", [(5.0, 20, 945_000), (0.05, 20, 7_250_000)])
def test_half_trace_evaluations_below_bisection(lam, k, limit, monkeypatch):
    """The same count held to the refined totals with the same relative
    margin; bisecting every bracket to tol made 1,297,542 at (5, 20) and
    8,635,188 at (0.05, 20)."""
    log = count_kernel_calls(monkeypatch)
    assert len(band_hierarchy(lam, k)[k]) == fibonacci_number(k)
    assert sum(size for size, _ in log) <= limit


def test_refinement_kernel_calls_a_quarter_of_bisection(monkeypatch):
    """Bisecting every bracket of a level until the widest was below tol
    took 550 kernel calls at (5, 20); refining each bracket on its own
    takes at most a quarter of that."""
    log = count_kernel_calls(monkeypatch)
    band_hierarchy(5.0, 20)
    assert sum(refining for _, refining in log) <= 550 // 4


@pytest.mark.parametrize("lam, k, bisection_calls", [
    (0.04, 20, 2581), (0.05, 20, 2666), (0.015, 9, 1020)])
def test_weak_coupling_refined_quietly_and_no_slower(lam, k, bisection_calls, monkeypatch):
    """Near-tangent crossings at weak coupling converge slowly; every step
    stays finite or is caught, nothing overflows into a warning, and the
    hierarchy makes no more kernel calls than it did when every bracket
    was bisected to tol (the counts pinned here)."""
    log = count_kernel_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(band_hierarchy(lam, k)[k]) == fibonacci_number(k)
    assert len(log) <= bisection_calls


def test_no_refinement_runs_to_the_pass_cap(monkeypatch):
    """A root stops at a step of a few ulps of max(|E|, 1).  With the
    floor at |E| alone, roots near E = 0 never stopped: at (0.5, 21)
    eleven refinements ran all _REFINE_PASSES passes, and the hierarchy
    made 330 kernel calls.  A refinement takes a Muller step at pass 0 and
    at every pass from _MULLER_AGAIN on, so its Muller steps count its
    passes."""
    muller, refine, steps = spectrum._parabola_step, spectrum._refine_roots, []

    def counted_muller(*args):
        steps[-1] += 1
        return muller(*args)

    def marked(*args):
        steps.append(0)
        return refine(*args)

    monkeypatch.setattr(spectrum, "_parabola_step", counted_muller)
    monkeypatch.setattr(spectrum, "_refine_roots", marked)
    log = count_kernel_calls(monkeypatch)
    assert len(band_hierarchy(0.5, 21)[21]) == fibonacci_number(21)
    assert len(steps) == 24
    assert max(steps) < 1 + spectrum._REFINE_PASSES - spectrum._MULLER_AGAIN
    assert len(log) == 257


def test_refinement_memory_stays_below_global_bisection():
    """The brackets of level 21 at (5, 21), 35,422 of them, are refined in
    blocks; bisecting them all at once peaked at 7.62 MB traced."""
    band_hierarchy(5.0, 6)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        band_hierarchy(5.0, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.6 * 2**20


def test_weak_coupling_answered_after_rescans():
    """At coupling 0.015 levels 3 to 9 each need rescans, and the count
    found is not monotone in the grid size (level 7 finds 9, 5 and 21 of
    its 21 bands at 256, 1024 and 4096 points).  The uniform scan answers
    this hierarchy, and so must the per-parent one."""
    assert len(band_hierarchy(0.015, 9)[9]) == fibonacci_number(9)


def _edge_parents(case):
    """Hand-built parent sets at the edges of the scan's cell rule, each
    holding bands of sigma_12 at coupling 5."""
    if case == "straddles-zero":
        assert -0.5 + (0.3 + 0.5) == 0.30000000000000004  # last grid point past hi
        return IntervalSet([(-0.5, 0.3)])
    sigma = band_hierarchy(5.0, 12)[12]
    if case == "one-float-apart":  # the first band of sigma_12 cut in two
        cut = 0.5 * (sigma.lo[0] + sigma.hi[0])
        return IntervalSet.from_arrays([sigma.lo[0] - 1e-6, np.nextafter(cut, np.inf)],
                                       [cut, sigma.hi[0] + 1e-6])
    # neither parent holds a root: one lies in sigma_12's widest band, one
    # in its widest gap
    i = np.argmax(sigma.hi - sigma.lo)
    j = np.argmax(sigma.lo[1:] - sigma.hi[:-1])
    a = np.array([sigma.lo[i], sigma.hi[j]])
    b = np.array([sigma.hi[i], sigma.lo[j + 1]])
    return IntervalSet.from_arrays(a + 0.25 * (b - a), b - 0.25 * (b - a))


@pytest.mark.parametrize("points, parents", [
    (256, None), (1024, None), (16384, 3),
    (256, "straddles-zero"), (256, "one-float-apart"), (256, "no-root")])
def test_scan_bit_identical_to_unblocked_scan(points, parents):
    """At 256 and 1024 points the 178 parents of cover 10 fill their last
    block only partly; at 16384 points each of the first 3 is a block of
    its own.  A named set is built by hand (``_edge_parents``).  Both scans
    refine their brackets with the library's refinement, which handles
    each bracket alone, so blocks change no float, and one sorted cut list
    cuts the cells the per-parent layout of the reference cuts."""
    if not isinstance(parents, str):
        cover = band_hierarchy(5.0, 11).cover(10)
        parents = IntervalSet.from_arrays(cover.lo[:parents], cover.hi[:parents])
        if len(parents) == len(cover):
            assert len(parents) % (spectrum._BLOCK_POINTS // points) != 0
    else:
        parents = _edge_parents(parents)
    got = spectrum._scan_parents(5.0, 12, parents, points)
    want = oracles.unblocked_scan_parents(5.0, 12, parents, points,
                                          refine=spectrum._refine_roots)
    assert len(got) > 0
    assert np.array_equal(got.lo, want.lo)
    assert np.array_equal(got.hi, want.hi)


def test_scan_clips_a_band_to_its_parent():
    """The last grid point of [-0.27, hi] rounds one float past hi, onto
    the float just outside a band of sigma_12, so the band's end root lies
    outside the parent.  The band ends at the parent's hi; the reference's
    per-parent layout let it end on that root."""
    end = 4.083201684951323
    assert end in band_hierarchy(5.0, 12)[12].hi
    lo, hi = -0.27, np.nextafter(end, -np.inf)
    assert lo + (hi - lo) == end
    parents = IntervalSet([(lo, hi)])
    got = spectrum._scan_parents(5.0, 12, parents, 256)
    want = oracles.unblocked_scan_parents(5.0, 12, parents, 256,
                                          refine=spectrum._refine_roots)
    assert want.hi[-1] == end
    assert np.array_equal(got.lo, want.lo)
    assert np.array_equal(got.hi, np.minimum(want.hi, hi))
    assert got.hi[-1] == hi


def test_scan_evaluates_only_inside_the_parent(monkeypatch):
    """Where lo + (hi - lo) rounds one float past hi, the grid's last point
    is hi itself, so no x_k is evaluated outside the parent: neither on
    the grid nor in a bracket or a cell midpoint."""
    lo, hi = -0.27, np.nextafter(4.083201684951323, -np.inf)
    assert lo + (hi - lo) > hi
    evaluated = []
    half_trace = spectrum._half_trace

    def recording(lam, E, k):
        evaluated.append(np.array(E, dtype=float).ravel())
        return half_trace(lam, E, k)

    monkeypatch.setattr(spectrum, "_half_trace", recording)
    got = spectrum._scan_parents(5.0, 12, IntervalSet([(lo, hi)]), 256)
    E = np.concatenate(evaluated)
    assert len(got) > 0 and E.size > 256
    assert np.all((lo <= E) & (E <= hi))


@pytest.mark.parametrize("lam", [0.05, 0.5, 2.0, 20.0])
def test_every_band_inside_one_parent(lam):
    """Each band of sigma_k lies inside one merged band of
    sigma_{k-2} | sigma_{k-1}, the parents it was scanned in."""
    hier = band_hierarchy(lam, 16)
    for k in range(2, 17):
        parents = hier[k - 2].union(hier[k - 1])
        owner = np.searchsorted(parents.lo, hier[k].lo, "right") - 1
        assert np.all(owner >= 0)
        assert np.all(hier[k].hi <= parents.hi[owner])


@pytest.mark.parametrize("lam, k, level, found, expected", [
    (0.01, 20, 7, 20, 21), (0.015, 20, 10, 88, 89), (0.02, 20, 10, 86, 89),
    (0.025, 20, 12, 232, 233), (0.03, 20, 9, 54, 55), (0.035, 20, 15, 986, 987),
    (100.0, 12, 12, 220, 233), (1000.0, 9, 8, 33, 34)])
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


# ----------------------------------------------------------------------
# The tolerance against the float spacing of the energies
# ----------------------------------------------------------------------

def test_tol_below_float_spacing_refused():
    # doubles near 1e5 are 1.46e-11 apart, so no bracket reaches 1e-12
    with pytest.raises(ValueError, match="coupling 100000 is past the precision "
                                         "floor: energies near 100003 are 1.46e-11 "
                                         "apart, more than the endpoint tolerance "
                                         "1e-12"):
        band_hierarchy(1e5, 2)
    # doubles in [8192, 16384) are 1.82e-12 apart, those below 8192 half that
    with pytest.raises(ValueError, match="are 1.82e-12 apart"):
        band_hierarchy(8189.0, 2)
    assert len(band_hierarchy(np.nextafter(8189.0, 0.0), 2)[2]) == 2


def test_tol_above_float_spacing_answered_at_strong_coupling():
    levels = band_hierarchy(1000.0, 7)  # spacing 1.14e-13 near 1003
    assert [len(s) for s in levels] == [fibonacci_number(k) for k in range(8)]


def test_bisection_refuses_to_stop_short_of_tol(monkeypatch):
    """A bracket one ulp wide, whose ends claim a sign change that x_3 does
    not have, fails both proofs; the bisection it falls back to cannot
    shrink it below a tolerance finer than the ulp."""
    lo = np.array([1.0])
    hi = np.nextafter(lo, 2.0)
    assert np.all(half_trace(5.0, np.concatenate([lo, hi]), 3) > 11.0)
    monkeypatch.setattr(spectrum, "ENDPOINT_TOL", 1e-17)
    with pytest.raises(ValueError, match="above the tolerance 1e-17"):
        spectrum._refine_roots(5.0, 3, lo, hi, np.array([2.0]), np.array([0.0]),
                               np.array([1.0]))


@pytest.mark.parametrize("lam", [3.75, 19.15])
def test_one_ulp_proof_steps_off_zero_to_a_finite_float(lam, monkeypatch):
    """sigma_2 ends at E = 0.0 at these couplings.  The one-ulp proof once
    stepped a root through its integer bits, which from +0.0 downwards
    gives the bits of a NaN, so x_2 was evaluated at a NaN energy and
    the proof there was skipped."""
    energies, kernel = [], spectrum._half_trace

    def logged(lam, E, k):
        energies.append(E.copy())
        return kernel(lam, E, k)

    monkeypatch.setattr(spectrum, "_half_trace", logged)
    hier = band_hierarchy(lam, 12)
    assert 0.0 in np.concatenate([hier[2].lo, hier[2].hi])
    assert all(np.all(np.isfinite(E)) for E in energies)


def test_quarter_tol_proof_evaluates_one_far_point_per_root(monkeypatch):
    """A refined root is its sign bracket's end on its own side, so its
    sign is known.  The tol/4 proof's one kernel call holds one point per
    root that reached it, tol/4 or less into the bracket, and never the
    root itself; evaluating both ends of the tol/4 window took two."""
    lam, k, tol = 5.0, 12, spectrum.ENDPOINT_TOL
    rng = np.random.default_rng(25)
    level = band_hierarchy(lam, k)[k]
    ends = np.concatenate([level.lo, level.hi])
    lo = ends - 1e-9 * rng.uniform(0.0, 1.0, ends.size)
    hi = lo + 1e-9
    shift = np.sign(half_trace(lam, ends, k))
    xlo, xhi = half_trace(lam, lo, k), half_trace(lam, hi, k)
    held = (xlo > shift) != (xhi > shift)
    lo, hi, xlo, xhi, shift = (a[held] for a in (lo, hi, xlo, xhi, shift))
    calls, kernel = [], spectrum._half_trace

    def logged(lam, E, k):
        calls.append(E.copy())
        return kernel(lam, E, k)

    def no_bisection(*args):
        raise AssertionError("a root fell back to bisection")

    monkeypatch.setattr(spectrum, "_half_trace", logged)
    monkeypatch.setattr(spectrum, "_bisect_roots", no_bisection)
    roots = spectrum._refine_roots(lam, k, lo, hi, xlo, xhi, shift)
    monkeypatch.undo()

    def above(E):
        return half_trace(lam, E, k) > shift

    # the roots that no sign change against a neighbouring float proves
    unproved = ((above(np.nextafter(roots, np.inf)) == above(roots))
                & (above(np.nextafter(roots, -np.inf)) == above(roots)))
    assert 0 < np.count_nonzero(unproved) < roots.size
    far = calls[-1]
    assert far.size == np.count_nonzero(unproved)
    r, b_lo, b_hi = roots[unproved], lo[unproved], hi[unproved]
    nearest = np.argmin(np.abs(far[:, None] - r[None, :]), axis=1)
    assert np.array_equal(np.sort(nearest), np.arange(r.size))
    gap = np.abs(far - r[nearest])  # r +- tol/4 is rounded
    assert np.all((gap > 0) & (gap <= tol / 4 + np.spacing(np.abs(r[nearest]))))
    assert np.all((far >= b_lo[nearest]) & (far <= b_hi[nearest]))


# ----------------------------------------------------------------------
# The certificate of each endpoint
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam, k, residual", [(5.0, 16, 1e-6), (20.0, 16, 0.05), (0.5, 18, 5e-9)])
def test_endpoints_show_a_sign_change_within_quarter_tol(lam, k, residual):
    """x_k crosses +1 or -1 between e - tol/4 and e + tol/4 for every band
    endpoint e: from beyond the level outside the band to its other side,
    which for a band narrower than tol/4 may lie past the band's far end.
    Each | |x_k(e)| - 1 | stays below ``residual``; bisection to tol left
    3.9e-6, 0.179 and 1.1e-8, and at (0.5, 18) some endpoints showed no
    sign change within tol/4."""
    tol = spectrum.ENDPOINT_TOL
    s = band_hierarchy(lam, k)[k]
    for end, outward in ((s.lo, -1.0), (s.hi, 1.0)):
        out = half_trace(lam, end + outward * tol / 4, k)
        inn = half_trace(lam, end - outward * tol / 4, k)
        level = np.sign(out)
        assert np.all(np.abs(out) > 1.0)
        assert np.all((out > level) != (inn > level))
        assert np.max(np.abs(np.abs(half_trace(lam, end, k)) - 1.0)) < residual


def test_strong_coupling_keeps_every_band():
    """At coupling 20 every one of the 2,584 bands of level 17 is narrower
    than tol; bisecting each bracket only to tol lost 50 of them."""
    levels = band_hierarchy(20.0, 17)
    assert [len(s) for s in levels] == [fibonacci_number(k) for k in range(18)]


def test_precision_floor_refusal_at_coupling_20():
    """Level 19 at coupling 20 has bands below the float spacing, so its
    count is refused; the roots found to the last ulp now isolate 6,084
    of its 6,765 bands, against 5,437 when every bracket was bisected."""
    with pytest.raises(BandIsolationError) as info:
        band_hierarchy(20.0, 19)
    err = info.value
    assert (err.level, err.found, err.expected) == (19, 6084, 6765)
