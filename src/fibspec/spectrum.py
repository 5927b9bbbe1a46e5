"""Half-trace sequences and certified band covers of the spectrum.

For coupling lam > 0 the k-th approximant of the spectrum is

    sigma_k = { E : |x_k(E)| <= 1 },

where x_k(E) follows the three-term recursion

    x_{-1} = 1,  x_0 = E/2,  x_1 = (E - lam)/2,
    x_{k+1} = 2 * x_k * x_{k-1} - x_{k-2}.

x_k is a polynomial in E whose degree is the Fibonacci number F_k
(F_0 = F_1 = 1), and sigma_k is a union of at most F_k closed bands.
The covering property

    sigma_{k+2}  is contained in  sigma_k | sigma_{k+1}

holds for every positive coupling, which makes the band sets computable
level by level: bands of level k live inside the merged bands of the two
previous levels, so each can be isolated with a *local* scan.  A global
uniform grid cannot do this job — at coupling 20 the level-12 bands are
narrower than 1e-9 while the energy window is ~44 wide — hence the
hierarchical refinement below.

The F_k bands are disjoint for lam > 4 (Raymond), and every gap of the
spectrum is open at every lam > 0 (Damanik-Gorodetski-Yessen), so the
band count of every level is certified against F_k at every coupling.
Each parent's grid is sized by the bands it must hold: a parent into
which c bands of the two previous levels merged gets min(16 c, 256)
points, and the c of all parents sum to F_k.  While a level's count
differs from F_k, only the parents holding fewer than c bands are
rescanned, climbing through 256, 1024, 4096 and 16384 points; the others
keep their bands.  When the short parents have reached the last rung the
computation fails loudly.  c only chooses what to rescan: the count of
the whole level is the certificate.

One kernel, ``_half_trace``, evaluates x_k for the grid scan, the root
refinement and the membership test alike.  It runs the recursion on the
traces t_j = 2 x_j, t_{j+1} = t_j * t_{j-1} - t_{j-2}, in place in four
rows of scratch: two ufunc calls per step and no temporary.  It halves
once at the end.  Scaling by 2 is exact in binary floating point, so each
x_k is bit-identical to the half-trace recursion above, barring overflow
and results below the normal range.  The scan walks the
parents in blocks of whole parents and about ``_BLOCK_POINTS`` grid
points, so its memory does not grow with the number of parents or the
grid density.  Blocking changes no float operation, so the bands are the
same floats as those of a scan over one whole grid of the same
per-parent sizes.

x_k is strictly monotone on each band (Raymond), so each band endpoint
is a simple root of x_k = +1 or x_k = -1.  The scan's brackets are
refined about ``_BLOCK_POINTS`` at a time, each on its own: from the
regula-falsi point by one Muller step, through that point and the two
bracket ends whose values the scan holds, then by secant steps, inside
the sign bracket, until the step is a few ulps of max(|E|, 1).  The
floor at 1 is there because the rounding of x_k is on the scale of its
O(1) values, not of E: near E = 0 a step of a few ulps of E may never
come.  Each root is then
proved, by a sign change between it and the next float, where the root
moves to the one of the two outside its band, or else by a sign change
within ENDPOINT_TOL/4 of it; a root that fails both is bisected to
adjacent floats.  So every endpoint lies within ENDPOINT_TOL/4 of a sign
change of x_k -+ 1, 72% within one ulp (381,633 of 528,244 roots in the
``band_cover`` benchmark), at about a fifth of the kernel calls that
bisecting every bracket to ENDPOINT_TOL took.  Only the one-ulp proof
puts the endpoint outside its band: sigma_0 at lam = 63.699799115272214
comes out as [-2.0, 1.9999999999999991], 4 ulps inside [-2, 2].  So the
covers contain the spectrum only up to ENDPOINT_TOL/4 at band ends.

``band_hierarchy`` returns the levels as a ``BandHierarchy``: a tuple
that also forms the two-level covers sigma_j | sigma_{j+1}, which contain
the spectrum and are nested, both up to ENDPOINT_TOL/4 at band ends, and
their ladders.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BandIsolationError, SizeCapError
from .intervals import IntervalSet

# Local scan resolution per parent band: a parent first gets
# _POINTS_PER_BAND points per band it is expected to hold, at most
# _RUNGS[0]; a parent that comes up short climbs the rungs.
_POINTS_PER_BAND = 16
_RUNGS = (256, 1024, 4096, 16384)
_BLOCK_POINTS = 16384  # grid points per block of the scan, and brackets refined together
_STEP_ULPS = 4  # a root stops once its step is at most this times max(|root|, 1) * 2**-52
_REFINE_PASSES = 12  # interpolation passes before a root is proved as it stands
_MULLER_AGAIN = 3  # the pass from which Muller's steps replace secant steps
_MAX_LEVEL = 30  # deepest level built; time and memory grow about 1.6x per level

ENDPOINT_TOL = 1e-12
"""Endpoint tolerance of the band finder: each band endpoint is proved
within ENDPOINT_TOL/4 of a sign change of x_k -+ 1, and a coupling whose
energies near lam + 3 lie further apart than ENDPOINT_TOL is refused."""

LADDER_LEVELS = 4
"""Cover levels k-3 .. k enter the sum-dimension regression."""


def fibonacci_number(k: int) -> int:
    """Degree of the half-trace polynomial x_k (F_0 = F_1 = 1)."""
    if k < -1:
        raise ValueError("index must be >= -1")
    if k == -1:
        return 0
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class BandHierarchy(tuple):
    """The tuple sigma_0 .. sigma_{k_max} at coupling ``lam``, with its
    two-level covers and the ladders of four covers built from them."""

    def __new__(cls, lam: float, levels):
        self = super().__new__(cls, levels)
        self.lam = lam
        return self

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self.lam, tuple(self)

    def cover(self, j: int) -> IntervalSet:
        """The two-level cover sigma_j | sigma_{j+1}."""
        if j < 0:  # j = -1 would index sigma_{k_max} from the end
            raise ValueError("level must be >= 0")
        if j >= len(self) - 1:
            raise ValueError(f"level must be <= {len(self) - 2}: a cover needs "
                             f"the level above it, and the hierarchy ends at "
                             f"level {len(self) - 1}")
        return self[j].union(self[j + 1])

    def ladder(self, k: int) -> tuple[list[int], list[IntervalSet]]:
        """Cover levels k-3 .. k and the covers at those levels, coarse to
        fine; the hierarchy must reach level k + 1.

        Each cover is counted at the width of its widest band, so those
        widths must strictly shrink with depth.  Consecutive covers share
        sigma_{j+1}, and where its widest band is the widest of both covers
        the ladder is refused (ValueError naming the two levels).  The sum's
        scales are the larger of two factors' widths, so they shrink whenever
        both factor ladders do.
        """
        if not (k >= LADDER_LEVELS - 1):
            raise ValueError(f"need k >= {LADDER_LEVELS - 1} for the level ladder")
        levels = list(range(k - LADDER_LEVELS + 1, k + 1))
        covers = [self.cover(j) for j in levels]
        for j, coarse, fine in zip(levels, covers, covers[1:]):
            if fine.max_length >= coarse.max_length:
                raise ValueError(
                    f"cover levels {j} and {j + 1} at lambda={self.lam:g} share "
                    f"their widest band (width {fine.max_length:.6g}), so the "
                    "box-count scales do not shrink with depth")
        return levels, covers


# ----------------------------------------------------------------------
# The half-trace kernel and the blocked band scan
# ----------------------------------------------------------------------

def _half_trace(lam: float, E: np.ndarray, k: int) -> np.ndarray:
    """x_k (k >= 0) at every energy of the 1-d array ``E``.

    The recursion runs on the traces t_j = 2 x_j,

        t_{-1} = 2,  t_0 = E,  t_1 = E - lam,
        t_{j+1} = t_j * t_{j-1} - t_{j-2},

    in place in four rows of scratch: one multiply and one subtract per
    step, and no temporary.  x_k = t_k / 2 is halved once at the end; the
    result is a view of one of the rows.  Scaling by 2 is exact in binary
    floating point, so (2c)(2b) - 2a = 2((2c)b - a) bit for bit and the
    result is the same float as x_{j+1} = ((2 x_j) x_{j-1}) - x_{j-2} run
    on the half traces, unless an intermediate overflows or falls below
    the normal range.
    """
    if k == 0:
        return E / 2.0
    a, b, c, t = np.empty((4, E.size))
    a.fill(2.0)
    b[:] = E
    np.subtract(E, lam, out=c)
    for _ in range(2, k + 1):
        np.multiply(c, b, out=t)
        t -= a
        a, b, c, t = b, c, t, a
    c /= 2.0
    return c


def _parabola_step(x0, f0, x1, f1, x2, f2):
    """x2 minus the root nearest x2 of the parabola through the three points
    (Muller's method), with a negative discriminant taken as zero."""
    d1 = (f1 - f0) / (x1 - x0)
    h2 = x2 - x1
    d2 = (f2 - f1) / h2
    a = (d2 - d1) / (x2 - x0)
    b = a * h2 + d2  # the parabola's slope at x2
    disc = b * b - 4.0 * a * f2
    np.fmax(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    b += np.copysign(disc, b)
    return 2.0 * f2 / b


def _refine_roots(lam: float, k: int, lo: np.ndarray, hi: np.ndarray,
                  xlo: np.ndarray, xhi: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Roots of x_k - shift in the sign-change brackets [lo, hi], each
    bracket refined on its own.

    ``xlo`` and ``xhi`` are x_k at the bracket ends, which the scan already
    holds; ``shift`` is per bracket, so crossings of +1 and -1 refine
    together.  Each root starts at the regula-falsi point.  Its first step
    is Muller's, from the parabola through that point and both ends; secant
    steps follow, and Muller's again from pass ``_MULLER_AGAIN`` on, for the
    few roots that creep towards a near-tangency.  Every pass keeps the sign
    bracket, and a step that would leave it bisects it instead.  A root
    stops once its step is at most ``_STEP_ULPS`` * max(|root|, 1) * 2**-52,
    four to eight ulps, or as many ulps of 1 where |root| < 1, or after
    ``_REFINE_PASSES`` passes, at its last point: an end of its bracket.
    The floor at 1 matters near E = 0, where the rounding of x_k cannot
    settle a step to a few ulps of E.

    One batched pass then evaluates x_k at the float next to each root,
    towards the other end of its bracket.  Where the sign changes between
    the two, the root becomes whichever of them lies outside the band: a
    band keeps every float it holds, even a single one, and bands of two
    levels that meet at a common root overlap in their union.  Elsewhere a
    second pass evaluates x_k only ENDPOINT_TOL/4 from the root into its
    bracket, as the root is the bracket's end of its own sign; a sign
    change there proves the root, which may lie up to ENDPOINT_TOL/4
    inside its band.  A root that fails that too is bisected from its
    bracket.  No root depends on which brackets are refined with it.
    """
    n = lo.size
    pos = xlo > shift  # x_k - shift is positive on lo's side
    roots, side = np.empty(n), np.empty(n, dtype=bool)  # side: the root is its bracket's lo
    klo, khi = np.empty(n), np.empty(n)  # the brackets kept
    glo, ghi = xlo - shift, xhi - shift
    ulps = _STEP_ULPS * 2.0 ** -52
    # a non-finite step fails the bracket test and bisects; a trace that
    # overflows has the sign of its overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = lo + glo / (glo - ghi) * (hi - lo)
        np.clip(r, lo, hi, out=r)
        a, b, sh, ps, idx = lo, hi, shift, pos, None
        x0, f0, x1, f1 = lo, glo, hi, ghi
        still = np.zeros(n, dtype=bool)
        for p in range(_REFINE_PASSES):
            g = _half_trace(lam, r, k) - sh
            low = (g > 0) == ps
            # r replaces the end on its side, exactly and without a branch
            a = np.fmax(a, r - ~low * 1e308)
            b = np.fmin(b, r + low * 1e308)
            if p == 0 or p >= _MULLER_AGAIN:
                step = _parabola_step(x0, f0, x1, f1, r, g)
            else:
                step = g * (r - x1) / (g - f1)
            x0, f0, x1, f1 = x1, f1, r, g
            still |= np.abs(step) <= np.fmax(np.abs(r), 1.0) * ulps
            n_still = np.count_nonzero(still)
            if n_still == still.size or p == _REFINE_PASSES - 1:
                break
            np.copyto(step, 0.0, where=still)
            r = r - step
            np.copyto(r, 0.5 * (a + b), where=~((r >= a) & (r <= b)))
            # set the stopped roots aside once half have stopped; until
            # then evaluating them again costs less than gathering the rest
            if 2 * n_still >= still.size:
                j = np.flatnonzero(still)
                i = j if idx is None else idx[j]
                roots[i], side[i], klo[i], khi[i] = x1[j], low[j], a[j], b[j]
                j = np.flatnonzero(~still)
                idx = j if idx is None else idx[j]
                r, x0, f0, x1, f1, a, b, sh, ps = (
                    v[j] for v in (r, x0, f0, x1, f1, a, b, sh, ps))
                still = np.zeros(j.size, dtype=bool)
        i = slice(None) if idx is None else idx
        roots[i], side[i], klo[i], khi[i] = x1, low, a, b

    # the float next to each root, towards the other end of its bracket
    q = np.nextafter(roots, np.where(side, np.inf, -np.inf))
    q_side = (_half_trace(lam, q, k) > shift) == pos
    found = (q_side != side) & (q >= klo) & (q <= khi)
    band_lo = pos == (shift < 0)  # |x_k| <= 1 on lo's side
    np.copyto(roots, q, where=found & (q_side != band_lo))
    j = np.flatnonzero(~found)
    if j.size:
        r, s = roots[j], side[j]
        far = np.where(s, np.minimum(r + ENDPOINT_TOL / 4.0, khi[j]),
                       np.maximum(r - ENDPOINT_TOL / 4.0, klo[j]))
        j = j[((_half_trace(lam, far, k) > shift[j]) == pos[j]) == s]
        if j.size:
            roots[j] = _bisect_roots(lam, k, klo[j], khi[j], pos[j], shift[j])
    return roots


def _bisect_roots(lam: float, k: int, lo: np.ndarray, hi: np.ndarray,
                  glo_pos: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Bisect sign-change brackets of x_k - shift until their ends are
    adjacent floats, and return the end of each outside the band.

    ``glo_pos`` says whether x_k > shift at lo.  Raises ValueError if a
    bracket is still wider than ``ENDPOINT_TOL``: one float spacing cannot
    be halved.
    """
    lo, hi = lo.copy(), hi.copy()
    # a bracket no wider than the window, 2 * (lam + 3), spans fewer than
    # 2**54 of its floats, so 64 halvings always reach adjacent ones
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        wide = (mid > lo) & (mid < hi)
        if not wide.any():
            break
        low = (_half_trace(lam, mid, k) > shift) == glo_pos
        np.copyto(lo, mid, where=low & wide)
        np.copyto(hi, mid, where=~low & wide)
    width = float(np.max(hi - lo, initial=0.0))
    if width > ENDPOINT_TOL:
        raise ValueError(f"bisection stopped at bracket width {width:.3g}, "
                         f"above the tolerance {ENDPOINT_TOL:.3g}")
    return np.where(glo_pos == (shift < 0), hi, lo)


def _scan_parents(lam: float, k: int, parents: IntervalSet,
                  points: int | np.ndarray) -> IntervalSet:
    """Locate the bands of sigma_k inside each parent interval.

    Scans a uniform local grid per parent for sign changes of
    x_k -(+1) and x_k -(-1), a block of whole parents and about
    ``_BLOCK_POINTS`` grid points at a time, and refines the root in every
    bracket (about ``_BLOCK_POINTS`` brackets at a time, each on its own).
    ``points`` is one grid size for every parent or one per parent; parent
    p's grid is lo_p + width_p * np.linspace(0, 1, points[p]) in whichever
    block it falls, with its last point hi_p, so no point lies outside
    the parent.

    One sort of every parent end and every root cuts the line into cells.
    A cell that ends past the hi of the parent it starts in is a gap
    between parents, however narrow, and is dropped; the others are kept
    where x_k at their midpoint has |x_k| <= 1, and touching cells merge
    into bands, so a root that merely grazes +-1 inside a band splits
    nothing.  Bands are clipped to their parent, which is harmless: the
    covering property puts every true band inside some parent.
    """
    n_par = len(parents)
    points = np.broadcast_to(np.asarray(points, dtype=np.int64), (n_par,))
    widths = parents.hi - parents.lo
    ends = np.cumsum(points)  # the ragged grid's offset just past each parent
    starts = ends - points

    # Collect sign-change brackets for both target levels, block by block,
    # and refine them once about _BLOCK_POINTS of them are pending.
    pending, roots = [], []
    n_pending = 0
    p0 = 0
    while p0 < n_par:
        p1 = max(p0 + 1, int(np.searchsorted(ends, starts[p0] + _BLOCK_POINTS, "right")))
        n = points[p0:p1]
        owner = np.repeat(np.arange(p1 - p0), n)
        last = ends[p0:p1] - starts[p0] - 1  # each parent's last point in the block
        # lo + width * j * (1 / (n - 1)), with the last point set to hi:
        # lo + width * 1.0 can round past hi
        grid = np.arange(owner.size) - (starts[p0:p1] - starts[p0])[owner]
        grid = grid * (1.0 / (n - 1))[owner]
        grid *= widths[p0:p1][owner]
        grid += parents.lo[p0:p1][owner]
        grid[last] = parents.hi[p0:p1]
        vals = _half_trace(lam, grid, k)
        for shift in (1.0, -1.0):
            gp = vals > shift
            flip = gp[:-1] != gp[1:]
            flip[last[:-1]] = False  # no bracket across the seam of two parents
            j = np.flatnonzero(flip)
            if j.size:
                pending.append((grid[j], grid[j + 1], vals[j], vals[j + 1],
                                np.full(j.size, shift)))
                n_pending += j.size
        p0 = p1
        if n_pending >= _BLOCK_POINTS or (p0 == n_par and n_pending):
            brackets = [np.concatenate(b) for b in zip(*pending)]
            roots.append(_refine_roots(lam, k, *brackets))
            pending, n_pending = [], 0

    cuts = np.sort(np.concatenate([parents.lo, *roots, parents.hi]))
    lo, hi = cuts[:-1], cuts[1:]
    cell = hi <= parents.hi[np.searchsorted(parents.lo, lo, "right") - 1]
    inside = np.zeros(lo.size, dtype=bool)
    inside[cell] = np.abs(_half_trace(lam, 0.5 * (lo[cell] + hi[cell]), k)) <= 1.0
    return IntervalSet.from_arrays(lo[inside], hi[inside])


def _level_bands(lam: float, k: int, parents: IntervalSet,
                 expect: np.ndarray) -> IntervalSet:
    """Bands of sigma_k inside ``parents``, certified to number F_k.

    ``expect[p]`` is the number of bands of the two levels before k that
    merged into parent p; these numbers sum to F_k.  Parent p is first
    scanned at min(_POINTS_PER_BAND * expect[p], _RUNGS[0]) points.  While
    the level's count differs from F_k, the parents that hold fewer than
    ``expect[p]`` bands are rescanned at their next rung, up to the last
    of ``_RUNGS``; the other parents keep their bands.  Only the count of
    the whole level certifies: ``expect`` just chooses what to rescan.
    """
    expected = fibonacci_number(k)
    points = np.minimum(_POINTS_PER_BAND * expect, _RUNGS[0])
    bands = _scan_parents(lam, k, parents, points)
    while len(bands) != expected:
        owner = np.searchsorted(parents.lo, bands.lo, "right") - 1
        found = np.bincount(owner, minlength=len(parents))
        short = (found < expect) & (points < _RUNGS[-1])
        if not short.any():
            raise BandIsolationError(lam, k, len(bands), expected)
        points[short] = np.take(_RUNGS, np.searchsorted(_RUNGS, points[short], "right"))
        rescanned = _scan_parents(
            lam, k, IntervalSet._from_normalized(parents.lo[short], parents.hi[short]),
            points[short])
        kept = ~short[owner]
        bands = IntervalSet.from_arrays(np.concatenate([bands.lo[kept], rescanned.lo]),
                                        np.concatenate([bands.hi[kept], rescanned.hi]))
    return bands


def band_hierarchy(lam: float, k_max: int) -> BandHierarchy:
    """sigma_0 .. sigma_{k_max} computed by hierarchical refinement.

    Levels 0 and 1 are isolated from a scan of the operator-norm window
    [-2 - lam, 2 + lam] (padded so boundary roots produce sign changes);
    every later level is isolated inside the merged bands of the two
    levels before it.  Each band endpoint is proved within
    ENDPOINT_TOL/4 of a sign change.  Raises ValueError where the float
    spacing of energies near lam + 3 exceeds ENDPOINT_TOL (lam + 3 >= 8192),
    and SizeCapError, before any scan, when ``k_max`` is past
    ``_MAX_LEVEL``.
    """
    if lam <= 0:
        raise ValueError("coupling must be > 0 for spectral band computation")
    if not math.isfinite(lam):
        raise ValueError("coupling must be finite")
    if k_max < 0:
        raise ValueError("level must be >= 0")
    spacing = float(np.spacing(lam + 3.0))
    if ENDPOINT_TOL < spacing:
        raise ValueError(f"coupling {lam:g} is past the precision floor: "
                         f"energies near {lam + 3.0:g} are {spacing:.3g} apart, "
                         f"more than the endpoint tolerance {ENDPOINT_TOL:.3g}")
    if k_max > _MAX_LEVEL:
        raise SizeCapError("band hierarchy levels", k_max + 1, _MAX_LEVEL + 1)
    window = IntervalSet([(-2.0 - lam - 1.0, 2.0 + lam + 1.0)])
    levels: list[IntervalSet] = []
    for k in range(min(k_max, 1) + 1):
        levels.append(_level_bands(lam, k, window, np.ones(1, dtype=np.int64)))
    for k in range(2, k_max + 1):
        parents = levels[k - 2].union(levels[k - 1])
        merged = np.concatenate([levels[k - 2].lo, levels[k - 1].lo])
        expect = np.bincount(np.searchsorted(parents.lo, merged, "right") - 1,
                             minlength=len(parents))
        levels.append(_level_bands(lam, k, parents, expect))
    return BandHierarchy(lam, levels)
