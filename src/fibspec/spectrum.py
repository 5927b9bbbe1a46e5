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

For lam >= 5 the band count of every level is certified against the
Fibonacci degree; the local grids escalate 4x up to three times before
the computation fails loudly.  Below coupling 5 approximant bands may
merge, and merged output is accepted without a count certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BandIsolationError
from .intervals import IntervalSet
from .tracemap import OVERFLOW_GUARD

# Local scan resolution per parent band, and the escalation policy.
_BASE_POINTS = 256
_ESCALATIONS = 3
_ESCALATION_FACTOR = 4
_CERTIFY_FROM = 5.0  # couplings >= this get the Fibonacci-count certificate


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
class HalfTraceSeq:
    """Half traces x_{-1} .. x_K for one (coupling, energy) pair.

    ``values[i]`` holds x_{i-1}.  ``escaped_at`` is the smallest k with
    |x_k| > 1 and |x_{k+1}| > 1, or None if no such pair was seen.  The
    stored run may stop short of K if the overflow guard tripped.
    """

    lam: float
    E: float
    values: np.ndarray
    escaped_at: int | None

    def x(self, k: int) -> float:
        """The half trace x_k, for -1 <= k <= last stored index."""
        if k < -1 or k + 1 >= self.values.size:
            raise IndexError(f"x_{k} not stored (have -1..{self.values.size - 2})")
        return float(self.values[k + 1])

    @property
    def last_index(self) -> int:
        return int(self.values.size) - 2


class EscapeResult(NamedTuple):
    escaped: bool
    index: int | None


def half_traces(lam: float, E: float, K: int) -> HalfTraceSeq:
    """Run the half-trace recursion up to x_K.

    Truncates (without error) once a value passes the overflow guard;
    by then the escape index, if any, is long since determined.
    """
    if not (math.isfinite(lam) and math.isfinite(E)):
        raise ValueError("coupling and energy must be finite")
    if K < 1:
        raise ValueError("K must be >= 1")
    vals = [1.0, E / 2.0, (E - lam) / 2.0]
    while len(vals) < K + 2:
        nxt = 2.0 * vals[-1] * vals[-2] - vals[-3]
        vals.append(nxt)
        if abs(nxt) > OVERFLOW_GUARD:
            break
    arr = np.array(vals)
    escaped_at = None
    big = np.abs(arr[1:]) > 1.0  # big[k] corresponds to x_k
    both = big[:-1] & big[1:]
    hit = np.flatnonzero(both)
    if hit.size:
        escaped_at = int(hit[0])
    return HalfTraceSeq(lam, E, arr, escaped_at)


def escapes(lam: float, E: float, K: int = 40) -> EscapeResult:
    """Two-consecutive-half-trace escape test within K steps.

    Once |x_k| > 1 and |x_{k+1}| > 1 the sequence grows monotonically and
    E is outside every later approximant, so this is a one-sided
    certificate of non-membership in the spectrum.
    """
    seq = half_traces(lam, E, K)
    if seq.escaped_at is not None and seq.escaped_at <= K - 1:
        return EscapeResult(True, seq.escaped_at)
    return EscapeResult(False, None)


@dataclass(frozen=True)
class SpectrumCover:
    """Adjacent approximants whose union contains the spectrum."""

    lam: float
    k: int
    sigma_k: IntervalSet
    sigma_k1: IntervalSet
    cover: IntervalSet


# ----------------------------------------------------------------------
# Vectorized half-trace evaluation on energy arrays
# ----------------------------------------------------------------------

def _half_trace_on_grid(lam: float, E: np.ndarray, k: int) -> np.ndarray:
    """x_k evaluated elementwise on an energy array."""
    if k == -1:
        return np.ones_like(E)
    if k == 0:
        return E / 2.0
    a = np.ones_like(E)
    b = E / 2.0
    c = (E - lam) / 2.0
    for _ in range(2, k + 1):
        a, b, c = b, c, 2.0 * c * b - a
    return c


def _bisect_roots(lam: float, k: int, lo: np.ndarray, hi: np.ndarray,
                  glo_pos: np.ndarray, shift: np.ndarray, tol: float) -> np.ndarray:
    """Refine sign-change brackets of x_k - shift by simultaneous bisection.

    ``shift`` is per-bracket, so crossings of +1 and -1 refine together.
    """
    lo = lo.copy()
    hi = hi.copy()
    pos = glo_pos.copy()
    # Bracket widths shrink by half each pass; 1e-12 from a ~1e-1 start
    # needs < 40 passes, so 64 is comfortable for every desk-scale call.
    for _ in range(64):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        gm_pos = _half_trace_on_grid(lam, mid, k) > shift
        same = gm_pos == pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _scan_parents(lam: float, k: int, parents: IntervalSet,
                  points: int, tol: float) -> IntervalSet:
    """Locate the bands of sigma_k inside each parent interval.

    Scans a uniform local grid per parent for sign changes of
    x_k -(+1) and x_k -(-1), bisects every bracket (all parents at once),
    then classifies the gaps between consecutive certified roots by a
    midpoint membership test.  Bands are clipped to their parent, which
    is harmless: the covering property puts every true band inside some
    parent.
    """
    n_par = len(parents)
    if n_par == 0:
        return IntervalSet()
    steps = np.linspace(0.0, 1.0, points)
    grid = parents.lo[:, None] + (parents.hi - parents.lo)[:, None] * steps[None, :]
    vals = _half_trace_on_grid(lam, grid.ravel(), k).reshape(n_par, points)

    # Collect sign-change brackets for both target levels across all parents.
    blo, bhi, bpos, bshift, bparent = [], [], [], [], []
    for shift in (1.0, -1.0):
        gp = vals > shift
        flip_p, flip_j = np.nonzero(gp[:, :-1] != gp[:, 1:])
        if flip_p.size:
            blo.append(grid[flip_p, flip_j])
            bhi.append(grid[flip_p, flip_j + 1])
            bpos.append(gp[flip_p, flip_j])
            bshift.append(np.full(flip_p.size, shift))
            bparent.append(flip_p)
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
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    inside = np.zeros(cuts.size - 1, dtype=bool)
    inside[cell_valid] = np.abs(_half_trace_on_grid(lam, mids[cell_valid], k)) <= 1.0

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
    """Bands of sigma_k inside ``parents``, certified when lam >= 5."""
    expected = fibonacci_number(k)
    points = _BASE_POINTS
    for attempt in range(_ESCALATIONS + 1):
        bands = _scan_parents(lam, k, parents, points, tol)
        if lam < _CERTIFY_FROM or len(bands) == expected:
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
    to within ``tol``.  For lam >= 5 the band count is certified to equal
    the Fibonacci degree F_k; below that, bands may merge and the merged
    set is returned as-is.
    """
    return band_hierarchy(lam, k, tol)[k]


def spectrum_cover(lam: float, k: int, tol: float = 1e-12) -> SpectrumCover:
    """The two-level cover sigma_k | sigma_{k+1} of the spectrum.

    The union contains the true spectrum for every k, and successive
    covers are nested (up to endpoint tolerance), which makes them
    certified outer approximations.
    """
    levels = band_hierarchy(lam, k + 1, tol)
    sk = levels[k]
    sk1 = levels[k + 1]
    return SpectrumCover(lam, k, sk, sk1, sk.union(sk1))
