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
band count of every level is certified against F_k at every coupling;
the local grids escalate 4x up to three times before the computation
fails loudly.

One kernel, ``_half_trace``, evaluates x_k for the grid scan, the root
bisection and the membership test alike.  It runs the recursion in place
in four rows of scratch, with no temporary per step.  The scan walks the parents in blocks of
about ``_BLOCK_POINTS`` grid points, so its memory does not grow with the
number of parents or the grid density; every bracket found is bisected
together afterwards.  Blocking changes no float operation, so the bands
are the same floats as those of a scan over one whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandIsolationError
from .intervals import IntervalSet

# Local scan resolution per parent band, and the escalation policy.
_BASE_POINTS = 256
_ESCALATIONS = 3
_ESCALATION_FACTOR = 4
_BLOCK_POINTS = 16384  # grid points per block of the scan


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


@dataclass(frozen=True)
class SpectrumCover:
    """Adjacent approximants whose union contains the spectrum."""

    lam: float
    k: int
    sigma_k: IntervalSet
    sigma_k1: IntervalSet
    cover: IntervalSet


# ----------------------------------------------------------------------
# The half-trace kernel and the blocked band scan
# ----------------------------------------------------------------------

def _half_trace(lam: float, E: np.ndarray, k: int) -> np.ndarray:
    """x_k (k >= 0) at every energy of the 1-d array ``E``.

    The recursion runs in place in four rows of scratch, one step being
    x_{j+1} = ((2 * x_j) * x_{j-1}) - x_{j-2}, so no temporary is
    allocated per step; the result is a view of one of those rows.
    """
    a, b, c, t = np.empty((4, E.size))
    np.divide(E, 2.0, out=b)
    if k == 0:
        return b
    a.fill(1.0)
    np.subtract(E, lam, out=c)
    c /= 2.0
    for _ in range(2, k + 1):
        np.multiply(c, 2.0, out=t)
        t *= b
        t -= a
        a, b, c, t = b, c, t, a
    return c


def _bisect_roots(lam: float, k: int, lo: np.ndarray, hi: np.ndarray,
                  glo_pos: np.ndarray, shift: np.ndarray, tol: float) -> np.ndarray:
    """Refine sign-change brackets of x_k - shift by simultaneous bisection.

    ``shift`` is per-bracket, so crossings of +1 and -1 refine together.
    """
    # Bracket widths shrink by half each pass; 1e-12 from a ~1e-1 start
    # needs < 40 passes, so 64 is comfortable for every desk-scale call.
    for _ in range(64):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        same = (_half_trace(lam, mid, k) > shift) == glo_pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _scan_parents(lam: float, k: int, parents: IntervalSet,
                  points: int, tol: float) -> IntervalSet:
    """Locate the bands of sigma_k inside each parent interval.

    Scans a uniform local grid per parent for sign changes of
    x_k -(+1) and x_k -(-1), a block of about ``_BLOCK_POINTS`` grid
    points at a time, bisects every bracket (all parents at once), then
    classifies the gaps between consecutive certified roots by a
    midpoint membership test.  Bands are clipped to their parent, which
    is harmless: the covering property puts every true band inside some
    parent.
    """
    n_par = len(parents)
    if n_par == 0:
        return IntervalSet()
    steps = np.linspace(0.0, 1.0, points)
    widths = parents.hi - parents.lo
    rows = min(n_par, max(1, _BLOCK_POINTS // points))
    grid_rows = np.empty((rows, points))

    # Collect sign-change brackets for both target levels, block by block.
    blo, bhi, bpos, bshift, bparent = [], [], [], [], []
    for p0 in range(0, n_par, rows):
        grid = grid_rows[:n_par - p0]
        block = slice(p0, p0 + len(grid))
        np.multiply(widths[block, None], steps, out=grid)
        grid += parents.lo[block, None]
        vals = _half_trace(lam, grid.reshape(-1), k).reshape(grid.shape)
        for shift in (1.0, -1.0):
            gp = vals > shift
            flip_p, flip_j = np.nonzero(gp[:, :-1] != gp[:, 1:])
            if flip_p.size:
                blo.append(grid[flip_p, flip_j])
                bhi.append(grid[flip_p, flip_j + 1])
                bpos.append(gp[flip_p, flip_j])
                bshift.append(np.full(flip_p.size, shift))
                bparent.append(flip_p + p0)
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
    cell_idx = np.arange(cuts.size - 1)
    cell_valid = ~np.isin(cell_idx, offsets[1:] - 1)  # drop inter-parent seams
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


def _level_bands(lam: float, k: int, parents: IntervalSet, tol: float) -> IntervalSet:
    """Bands of sigma_k inside ``parents``, certified to number F_k."""
    expected = fibonacci_number(k)
    points = _BASE_POINTS
    for _ in range(_ESCALATIONS + 1):
        bands = _scan_parents(lam, k, parents, points, tol)
        if len(bands) == expected:
            return bands
        points *= _ESCALATION_FACTOR
    raise BandIsolationError(lam, k, len(bands), expected)


def band_hierarchy(lam: float, k_max: int, tol: float = 1e-12) -> list[IntervalSet]:
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
    window = IntervalSet([(-2.0 - lam - 1.0, 2.0 + lam + 1.0)])
    levels: list[IntervalSet] = []
    for k in range(min(k_max, 1) + 1):
        levels.append(_level_bands(lam, k, window, tol))
    for k in range(2, k_max + 1):
        parents = levels[k - 2].union(levels[k - 1])
        levels.append(_level_bands(lam, k, parents, tol))
    return levels


def sigma_bands(lam: float, k: int, tol: float = 1e-12) -> IntervalSet:
    """Band decomposition of the k-th spectrum approximant sigma_k.

    Every endpoint is a bisection-certified root of x_k(E) = +-1 located
    to within ``tol``, and the band count is certified to equal the
    Fibonacci degree F_k.
    """
    return band_hierarchy(lam, k, tol)[k]


def spectrum_cover(lam: float, k: int, tol: float = 1e-12) -> SpectrumCover:
    """The two-level cover sigma_k | sigma_{k+1} of the spectrum.

    The union contains the true spectrum for every k, and successive
    covers are nested (up to endpoint tolerance), which makes them
    certified outer approximations.
    """
    levels = band_hierarchy(lam, k + 1, tol)
    if k < 0:  # k = -1 passes the hierarchy's checks, then indexes from the end
        raise ValueError("level must be >= 0")
    sk = levels[k]
    sk1 = levels[k + 1]
    return SpectrumCover(lam, k, sk, sk1, sk.union(sk1))
