"""Independent slow-path oracles used to cross-check the library.

Everything here is deliberately naive: brute-force grids and literal
recursions, no reuse of the library's band-finding or word logic.
"""

import numpy as np

from fibspec import IntervalSet, multiplier_p_closed, multiplier_q_closed
from fibspec.errors import EigenvalueSeparationError


def dense_band_count(lam: float, k: int, refine: int = 64,
                     chunk: int = 8_000_000) -> int:
    """Count runs of {E : |x_k(E)| <= 1} on a dense uniform grid.

    The step is the narrowest plausible band width (set by the larger
    closed-form orbit multiplier per refinement level) divided by
    ``refine``, so every band holds many grid points.  Runs are counted
    chunk-by-chunk to keep memory flat.

    The step follows band widths, but at weak coupling the narrow
    features are the gaps: at the default ``refine=64`` the grid steps
    over some of them (78 runs for F_10 = 89 at lam = 0.05, 224 for
    F_12 = 233 at lam = 0.1).  Below lam ~ 0.5 pass ``refine=1024``,
    which counts F_k at lam = 0.05 .. 0.3 in well under a second.
    """
    a = lam * lam / 4.0
    m = max(multiplier_p_closed(a) ** 0.25, multiplier_q_closed(a) ** (1.0 / 6.0))
    span = 4.0 + lam
    step = span * m ** -k / refine
    lo, hi = -2.0 - lam, 2.0 + lam
    total = int(np.ceil((hi - lo) / step)) + 1

    runs = 0
    prev_inside = False
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.float64)
        E = lo + idx * step
        xm2 = np.ones_like(E)
        xm1 = E / 2.0
        xc = (E - lam) / 2.0
        if k == 0:
            xc = xm1
        else:
            for _ in range(2, k + 1):
                xm2, xm1, xc = xm1, xc, 2.0 * xc * xm1 - xm2
        inside = np.abs(xc) <= 1.0
        first = np.concatenate(([prev_inside], inside[:-1]))
        runs += int(np.sum(inside & ~first))
        prev_inside = bool(inside[-1])
    return runs


def substitution_word(n: int) -> list[int]:
    """First n letters of the fixed point of 1 -> 10, 0 -> 1, seeded at 1."""
    w = [1]
    while len(w) < n:
        w = [s for c in w for s in ((1, 0) if c == 1 else (1,))]
    return w[:n]


def plain_bisection_eigenvalues(m, tol: float = 1e-10) -> np.ndarray:
    """Sturm bisection that re-counts every index on every pass.

    The eigensolver as it stood before it shared counts between indices;
    the library's ``eigenvalues`` must return the same floats, bit for bit.
    """
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    n = m.n
    radius = float(np.max(np.abs(m.diagonal))) + 2.0 + 1.0
    lo = np.full(n, -radius)
    hi = np.full(n, radius)
    ks = np.arange(n)
    for _ in range(200):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        c = plain_count_below(m.diagonal, mid)
        # eigenvalue k >= mid exactly when at most k eigenvalues lie below
        go_up = c <= ks
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    width = hi - lo
    if np.any(width > tol):
        bad = np.flatnonzero(width > tol)
        raise EigenvalueSeparationError(bad.tolist(), float(width.max()), tol)
    return np.sort(0.5 * (lo + hi))


def plain_count_below(a: np.ndarray, t) -> np.ndarray:
    """Sturm count of eigenvalues < t for unit off-diagonals, site by site."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    d = a[0] - t_arr
    d = np.where(d == 0.0, -1e-300, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, a.size):
        d = (a[i] - t_arr) - 1.0 / d
        d = np.where(d == 0.0, -1e-300, d)
        count += d < 0
    return count


# ----------------------------------------------------------------------
# The band scan as it stood before it was cut into blocks: one grid of
# parents x points, and a fresh temporary for every recursion step.  The
# library's blocked scan must return the same bands, bit for bit.
# ----------------------------------------------------------------------

def unblocked_half_trace_on_grid(lam: float, E: np.ndarray, k: int) -> np.ndarray:
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


def unblocked_bisect_roots(lam: float, k: int, lo: np.ndarray, hi: np.ndarray,
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
        gm_pos = unblocked_half_trace_on_grid(lam, mid, k) > shift
        same = gm_pos == pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def unblocked_scan_parents(lam: float, k: int, parents: IntervalSet,
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
    vals = unblocked_half_trace_on_grid(lam, grid.ravel(), k).reshape(n_par, points)

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
        roots = unblocked_bisect_roots(lam, k, np.concatenate(blo), np.concatenate(bhi),
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
    inside[cell_valid] = np.abs(unblocked_half_trace_on_grid(lam, mids[cell_valid], k)) <= 1.0

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
