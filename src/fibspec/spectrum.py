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
bisection and the membership test alike.  It runs the recursion on the
traces t_j = 2 x_j, t_{j+1} = t_j * t_{j-1} - t_{j-2}, in place in four
rows of scratch: two ufunc calls per step and no temporary.  It halves
once at the end.  Scaling by 2 is exact in binary floating point, so each
x_k is bit-identical to the half-trace recursion above, barring overflow
and results below the normal range.  The scan walks the
parents in blocks of whole parents and about ``_BLOCK_POINTS`` grid
points, so its memory does not grow with the number of parents or the
grid density; every bracket found is bisected together afterwards.
Blocking changes no float operation, so the bands are the same floats as
those of a scan over one whole grid of the same per-parent sizes.

``band_hierarchy`` returns the levels as a ``BandHierarchy``: a tuple
that also forms the two-level covers sigma_j | sigma_{j+1}, which contain
the spectrum and are nested up to endpoint tolerance, and their ladders.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BandIsolationError
from .intervals import IntervalSet

# Local scan resolution per parent band: a parent first gets
# _POINTS_PER_BAND points per band it is expected to hold, at most
# _RUNGS[0]; a parent that comes up short climbs the rungs.
_POINTS_PER_BAND = 16
_RUNGS = (256, 1024, 4096, 16384)
_BLOCK_POINTS = 16384  # grid points per block of the scan

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


def _bisect_roots(lam: float, k: int, lo: np.ndarray, hi: np.ndarray,
                  glo_pos: np.ndarray, shift: np.ndarray, tol: float) -> np.ndarray:
    """Refine sign-change brackets of x_k - shift by simultaneous bisection.

    ``shift`` is per-bracket, so crossings of +1 and -1 refine together.
    Each pass moves lo or hi to the midpoint with a branch-free select on
    the endpoints' int64 bit patterns, in scratch reused across passes; it
    copies the same bits as ``np.where`` would.  Raises ValueError if a
    bracket is still wider than ``tol`` when the passes run out: a bracket
    one float spacing wide cannot be halved.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    mid = np.empty_like(lo)
    width = np.empty_like(lo)
    same = np.empty(lo.size, dtype=bool)
    mask = np.empty(lo.size, dtype=np.int64)
    flip = np.empty(lo.size, dtype=np.int64)
    lo_bits, hi_bits, mid_bits = lo.view(np.int64), hi.view(np.int64), mid.view(np.int64)
    # Bracket widths shrink by half each pass down to one float spacing.
    # band_hierarchy refuses a tol below the spacing of its energy window,
    # and a bracket no wider than that window, 2 * (lam + 3), is below
    # 2**54 of its spacings, so 64 passes always reach tol there.
    for _ in range(64):
        np.subtract(hi, lo, out=width)
        if np.all(width <= tol):
            break
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.greater(_half_trace(lam, mid, k), shift, out=same)
        np.equal(same, glo_pos, out=same)
        # mask is all ones where x_k(mid) sits on lo's side, else zero:
        # there lo takes mid's bits, elsewhere hi does
        np.negative(same.view(np.int8), out=mask)
        np.bitwise_xor(lo_bits, mid_bits, out=flip)
        flip &= mask
        lo_bits ^= flip
        np.bitwise_xor(hi_bits, mid_bits, out=flip)
        flip &= mask
        np.bitwise_xor(mid_bits, flip, out=hi_bits)
    width = float(np.max(hi - lo, initial=0.0))
    if width > tol:
        raise ValueError(f"bisection stopped at bracket width {width:.3g}, "
                         f"above the tolerance {tol:.3g}")
    return 0.5 * (lo + hi)


def _scan_parents(lam: float, k: int, parents: IntervalSet,
                  points: int | np.ndarray, tol: float) -> IntervalSet:
    """Locate the bands of sigma_k inside each parent interval.

    Scans a uniform local grid per parent for sign changes of
    x_k -(+1) and x_k -(-1), a block of whole parents and about
    ``_BLOCK_POINTS`` grid points at a time, bisects every bracket (all
    parents at once), then classifies the gaps between consecutive
    certified roots by a midpoint membership test.  ``points`` is one
    grid size for every parent or one per parent; parent p's grid is
    lo_p + width_p * np.linspace(0, 1, points[p]) in whichever block it
    falls.  Bands are clipped to their parent, which is harmless: the
    covering property puts every true band inside some parent.
    """
    n_par = len(parents)
    if n_par == 0:
        return IntervalSet()
    points = np.broadcast_to(np.asarray(points, dtype=np.int64), (n_par,))
    widths = parents.hi - parents.lo
    ends = np.cumsum(points)  # the ragged grid's offset just past each parent
    starts = ends - points

    # Collect sign-change brackets for both target levels, block by block.
    blo, bhi, bpos, bshift, bparent = [], [], [], [], []
    p0 = 0
    while p0 < n_par:
        p1 = max(p0 + 1, int(np.searchsorted(ends, starts[p0] + _BLOCK_POINTS, "right")))
        n = points[p0:p1]
        owner = np.repeat(np.arange(p1 - p0), n)
        last = ends[p0:p1] - starts[p0] - 1  # each parent's last point in the block
        # j * (1 / (n - 1)) with the last point set to 1 is np.linspace(0, 1, n)
        grid = np.arange(owner.size) - (starts[p0:p1] - starts[p0])[owner]
        grid = grid * (1.0 / (n - 1))[owner]
        grid[last] = 1.0
        grid *= widths[p0:p1][owner]
        grid += parents.lo[p0:p1][owner]
        vals = _half_trace(lam, grid, k)
        for shift in (1.0, -1.0):
            gp = vals > shift
            flip = gp[:-1] != gp[1:]
            flip[last[:-1]] = False  # no bracket across the seam of two parents
            j = np.flatnonzero(flip)
            if j.size:
                blo.append(grid[j])
                bhi.append(grid[j + 1])
                bpos.append(gp[j])
                bshift.append(np.full(j.size, shift))
                bparent.append(owner[j] + p0)
        p0 = p1
    if blo:
        roots = _bisect_roots(lam, k, np.concatenate(blo), np.concatenate(bhi),
                              np.concatenate(bpos), np.concatenate(bshift), tol)
        rparent = np.concatenate(bparent)
        order = np.lexsort((roots, rparent))
        roots = roots[order]
        rparent = rparent[order]
    else:
        roots = np.empty(0)
        rparent = np.empty(0, dtype=int)

    # Cut every parent at its roots and test one midpoint per cell.
    counts = np.bincount(rparent, minlength=n_par)
    n_cuts = counts + 2
    offsets = np.concatenate([[0], np.cumsum(n_cuts)])
    cuts = np.empty(int(offsets[-1]))
    cuts[offsets[:-1]] = parents.lo
    cuts[offsets[1:] - 1] = parents.hi
    if roots.size:
        root_slots = np.arange(roots.size) - np.concatenate([[0], np.cumsum(counts)])[rparent]
        cuts[offsets[rparent] + 1 + root_slots] = roots
    cell_valid = np.ones(cuts.size - 1, dtype=bool)
    cell_valid[offsets[1:-1] - 1] = False  # drop inter-parent seams
    mids = (0.5 * (cuts[:-1] + cuts[1:]))[cell_valid]
    inside = np.zeros(cuts.size - 1, dtype=bool)
    x_mids = _half_trace(lam, mids, k)
    inside[cell_valid] = np.abs(x_mids) <= 1.0

    if not inside.any():
        return IntervalSet()
    # Merge consecutive member cells (a root that merely grazes +-1 inside
    # a band splits nothing; parent seams are never members).
    d = np.diff(inside.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if inside[0]:
        starts = np.concatenate([[0], starts])
    if inside[-1]:
        ends = np.concatenate([ends, [inside.size]])
    return IntervalSet.from_arrays(cuts[starts], cuts[ends])


def _level_bands(lam: float, k: int, parents: IntervalSet,
                 expect: np.ndarray, tol: float) -> IntervalSet:
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
    bands = _scan_parents(lam, k, parents, points, tol)
    while len(bands) != expected:
        owner = np.searchsorted(parents.lo, bands.lo, "right") - 1
        found = np.bincount(owner, minlength=len(parents))
        short = (found < expect) & (points < _RUNGS[-1])
        if not short.any():
            raise BandIsolationError(lam, k, len(bands), expected)
        points[short] = np.take(_RUNGS, np.searchsorted(_RUNGS, points[short], "right"))
        rescanned = _scan_parents(
            lam, k, IntervalSet._from_normalized(parents.lo[short], parents.hi[short]),
            points[short], tol)
        kept = ~short[owner]
        bands = IntervalSet.from_arrays(np.concatenate([bands.lo[kept], rescanned.lo]),
                                        np.concatenate([bands.hi[kept], rescanned.hi]))
    return bands


def band_hierarchy(lam: float, k_max: int, tol: float = 1e-12) -> BandHierarchy:
    """sigma_0 .. sigma_{k_max} computed by hierarchical refinement.

    Levels 0 and 1 are isolated from a scan of the operator-norm window
    [-2 - lam, 2 + lam] (padded so boundary roots produce sign changes);
    every later level is isolated inside the merged bands of the two
    levels before it.
    """
    if lam <= 0:
        raise ValueError("coupling must be > 0 for spectral band computation")
    if not math.isfinite(lam):
        raise ValueError("coupling must be finite")
    if k_max < 0:
        raise ValueError("level must be >= 0")
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    spacing = float(np.spacing(lam + 3.0))
    if tol < spacing:
        raise ValueError(f"tolerance {tol:.3g} is below the float spacing "
                         f"{spacing:.3g} of energies near {lam + 3.0:g}")
    window = IntervalSet([(-2.0 - lam - 1.0, 2.0 + lam + 1.0)])
    levels: list[IntervalSet] = []
    for k in range(min(k_max, 1) + 1):
        levels.append(_level_bands(lam, k, window, np.ones(1, dtype=np.int64), tol))
    for k in range(2, k_max + 1):
        parents = levels[k - 2].union(levels[k - 1])
        merged = np.concatenate([levels[k - 2].lo, levels[k - 1].lo])
        expect = np.bincount(np.searchsorted(parents.lo, merged, "right") - 1,
                             minlength=len(parents))
        levels.append(_level_bands(lam, k, parents, expect, tol))
    return BandHierarchy(lam, levels)
