"""Independent slow-path oracles used to cross-check the library.

Everything here is deliberately naive: brute-force grids and literal
recursions, no reuse of the library's band-finding or word logic.
"""

import numpy as np

from fibspec import multiplier_p_closed, multiplier_q_closed
from fibspec.errors import EigenvalueSeparationError


def dense_band_count(lam: float, k: int, refine: int = 64,
                     chunk: int = 8_000_000) -> int:
    """Count runs of {E : |x_k(E)| <= 1} on a dense uniform grid.

    The step is the narrowest plausible band width (set by the larger
    closed-form orbit multiplier per refinement level) divided by
    ``refine``, so every band holds many grid points.  Runs are counted
    chunk-by-chunk to keep memory flat.
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
