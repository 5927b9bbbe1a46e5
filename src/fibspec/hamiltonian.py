"""Finite sections of the Fibonacci Hamiltonian and a Sturm eigensolver.

The operator acts on square-summable sequences by

    (H u)(n) = u(n+1) + u(n-1) + lam * w(n) * u(n),

with the quasiperiodic word w(n) = chi_[1-alpha, 1) (n*alpha + omega0 mod 1)
for alpha the inverse golden mean.  Finite sections use Dirichlet
truncation on sites 1..n, so the diagonal is a natural prefix of the word.

Eigenvalues come from Sturm-sequence counting plus bisection — an
implementation deliberately independent of the trace-map pipeline, so the
two can cross-validate each other.  The count walks the sites in blocks
of 32, at two NumPy calls per site, and tallies the negative pivots once
per block from the sign bits of their reciprocals, summed as uint8: a
block has at most 32 negative pivots, so the tally is exact.  At 2584
sites counted at 2584 points the block buffers take about 1.4 MB.  The
eigensolver shares counts between brackets, and refuses up front a matrix
of more than F_23 = 46368 sites and a tolerance below the float spacing
at its Gershgorin bound, which no bracket could reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeCapError

#: Inverse golden mean, the rotation number of the Fibonacci word.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0

#: Fewest points one Sturm sweep of ``eigenvalues`` may count; the most is
#: this or the matrix size, whichever is larger.
_SWEEP_POINTS_MIN = 512

#: Sites per block of ``TridiagonalMatrix.count_below``: the negative
#: pivots are tallied once per block, in the smallest unsigned integer
#: type that holds the block size (uint8 up to 255 sites).
_COUNT_BLOCK = 32

#: Largest matrix ``eigenvalues`` solves, F_23 sites.  The solve scales
#: as about n**2; at this size it takes about half a minute on one core of
#: a 2-vCPU x86-64 machine, and at the next Fibonacci size, 75025, about a
#: minute.  A larger box is refused with SizeCapError before any count.
#: ``count_below`` is not capped.
_EIGENSOLVE_SITE_CAP = 46_368


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix with unit off-diagonal entries."""

    diagonal: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.ascontiguousarray(self.diagonal, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a non-empty 1-d array")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal entries must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "diagonal", d)

    @property
    def n(self) -> int:
        return int(self.diagonal.size)

    def count_below(self, t: float | np.ndarray) -> int | np.ndarray:
        """Number of eigenvalues < t, via the Sturm pivot recursion.

        d_1 = a_1 - t,  d_{i+1} = (a_{i+1} - t) - 1/d_i; the count of
        negative pivots equals the eigenvalue count.  A zero pivot is
        replaced by -1e-300 (the conventional signed-epsilon guard) and so
        counts as negative: where t is itself an eigenvalue whose pivot
        comes out exactly zero, that eigenvalue is counted, and the count
        there is of eigenvalues <= t.  Each entry of a vector ``t`` is
        counted independently of the others.

        The sites are walked in blocks of ``_COUNT_BLOCK``.  Within a
        block each distinct diagonal value gets its row a - t once, and
        each site costs two NumPy calls, the pivot and its reciprocal.
        The negative pivots are tallied once per block from the sign bits
        of the reciprocals: 1/d has the sign of d, also for d = -inf,
        whose reciprocal is -0.0.  The bits of a block are written into
        a bool block and, viewed as uint8 so that the sum casts nothing,
        summed in the smallest unsigned type that holds the block size,
        uint8 for the 32 sites of a block, so no tally wraps; each
        block's tally is then added to the int64 count.  At 2584 sites
        and 2584 points the rows, reciprocals and sign bits of a block
        take 2 * 32 * 2584 * 8 + 32 * 2584 bytes, about 1.4 MB.  The
        floats are those of a site-by-site loop, so the counts are too.
        A NaN point is refused: its pivots are NaN, which has a sign bit
        but no sign.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        points = t_arr.ravel()
        if np.isnan(points).any():
            raise ValueError("Sturm count at a NaN point")
        block = min(_COUNT_BLOCK, self.n)
        pool = np.empty((block, points.size))  # rows a - t of this block
        recips = np.empty((block, points.size))  # 1/d_i of this block
        negs = np.empty((block, points.size), dtype=bool)  # their sign bits
        tally = np.empty(points.size, dtype=np.min_scalar_type(block))
        d = np.empty_like(points)
        prev = np.zeros_like(points)  # 1/d_0 := 0, so that d_1 = a_1 - t
        count = np.zeros(points.shape, dtype=np.int64)
        subtract, reciprocal = np.subtract, np.reciprocal
        pool_rows, recip_rows = list(pool), list(recips)
        # Diagonal value -> its row a - t in the pool.  0.0 and -0.0 share
        # a row; theirs differ only in the sign of a zero, which reaches a
        # pivot only as a zero pivot, and that is replaced either way.
        rows = {}
        row_of = rows.get
        diagonal = self.diagonal.tolist()
        with np.errstate(divide="raise"):
            for start in range(0, len(diagonal), block):
                sites = diagonal[start:start + block]
                rows.clear()
                for a, recip in zip(sites, recip_rows):
                    a_t = row_of(a)
                    if a_t is None:
                        a_t = rows[a] = subtract(a, points, pool_rows[len(rows)])
                    subtract(a_t, prev, d)
                    try:
                        reciprocal(d, recip)
                    except FloatingPointError:  # some pivot is exactly zero
                        d[d == 0.0] = -1e-300
                        reciprocal(d, recip)
                    prev = recip
                m = len(sites)
                np.signbit(recips[:m], out=negs[:m])
                np.add.reduce(negs[:m].view(np.uint8), axis=0, out=tally)
                count += tally
        if np.ndim(t) == 0:
            return int(count[0])
        return count.reshape(t_arr.shape)


def fibonacci_tridiagonal(lam: float, n: int, omega0: float = 0.0) -> TridiagonalMatrix:
    """Dirichlet truncation of the Fibonacci Hamiltonian to sites 1..n:
    the diagonal is lam * w(1), ..., lam * w(n).

    ``omega0`` shifts the sampling phase; the spectrum of the full-line
    operator does not depend on it, which finite-section experiments can
    probe but not prove.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if not (math.isfinite(lam) and math.isfinite(omega0)):
        raise ValueError("coupling and phase must be finite")
    sites = np.arange(1, n + 1, dtype=float)
    word = np.mod(sites * ALPHA + omega0, 1.0) >= 1.0 - ALPHA
    return TridiagonalMatrix(lam * word.astype(float))


def _midpoint_tree(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """Bisection points ``depth`` levels below each bracket [lo, hi].

    Row g holds the 2**depth - 1 midpoints below bracket g in heap order:
    node j splits into the lower half 2j + 1 and the upper half 2j + 2.
    Every point is formed by the same 0.5 * (lo + hi) recursion as plain
    bisection, so it equals the point that bisection would reach.
    """
    lo = lo[:, None]
    hi = hi[:, None]
    levels = []
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        levels.append(mid)
        lo = np.stack([lo, mid], axis=2).reshape(len(lo), -1)
        hi = np.stack([mid, hi], axis=2).reshape(len(hi), -1)
    return np.concatenate(levels, axis=1)


def _refuse_unsolvable(n: int, bound: float, tol: float) -> None:
    """Every up-front refusal of an eigensolve of n sites whose diagonal has
    max|d| = bound, to width ``tol``, made before any count.

    ValueError for a tolerance that is not finite and > 0; SizeCapError for
    more than ``_EIGENSOLVE_SITE_CAP`` sites; ValueError, naming the
    precision floor, for a starting window [-r, r], r = bound + 3, wider
    than the largest double, and for ``tol`` below np.spacing(bound + 2),
    the float spacing at the Gershgorin bound on every eigenvalue.  Above
    that floor every bracket wider than ``tol`` holds a float strictly
    inside, so each bisection pass moves every unfinished bracket and the
    solve ends within about log2(2r / tol) + 2 passes.  A NaN bound is
    left to the caller's own check of the diagonal.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    if n > _EIGENSOLVE_SITE_CAP:
        raise SizeCapError("eigensolve matrix sites", n, _EIGENSOLVE_SITE_CAP)
    radius = bound + 2.0 + 1.0
    if 2.0 * radius == math.inf:
        raise ValueError(f"the eigenvalue window [{-radius:.3g}, {radius:.3g}] "
                         "is wider than the largest double: the diagonal is "
                         "past the precision floor")
    floor = float(np.spacing(bound + 2.0))
    if tol < floor:
        raise ValueError(f"eigensolver tolerance {tol:.3g} is past the precision "
                         f"floor: energies near {bound + 2.0:g} are {floor:.3g} "
                         "apart")


def eigenvalues(m: TridiagonalMatrix, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues, ascending, each bracketed to width <= tol.

    Bisection on the Sturm count runs for every index simultaneously: each
    pass halves every bracket at its midpoint, until all brackets are at
    most ``tol`` wide.  A tolerance that no bracket could reach is refused
    before any count, by ``_refuse_unsolvable``, so the passes always end.

    The Sturm counts are shared, after Barth, Martin and Wilkinson (1967).
    Indices whose brackets coincide, as many do in the early passes, need
    one count per pass between them.  And while the distinct brackets are
    few, one sweep over the sites counts the midpoints of several passes
    at once: the whole bisection tree a few levels below each bracket, at
    most as many points as the matrix has sites, or 512 if that is more.
    Each index then walks down its tree one level per pass.  A count
    depends only on its own point, and the tree points are formed exactly
    as the passes would form them, so the result is bit for bit that of
    plain bisection, from far fewer sweeps and pivot updates.
    """
    n = m.n
    bound = float(np.max(np.abs(m.diagonal)))
    _refuse_unsolvable(n, bound, tol)
    radius = bound + 2.0 + 1.0
    lo = np.full(n, -radius)
    hi = np.full(n, radius)
    ks = np.arange(n)
    levels_left = 0
    while not np.all(hi - lo <= tol):
        if levels_left == 0:
            # Brackets stay sorted by index, so the distinct ones are runs.
            new = np.ones(n, dtype=bool)
            new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            bracket = np.cumsum(new) - 1
            starts = np.flatnonzero(new)
            # The deepest tree whose starts.size * (2**depth - 1) points
            # fit, no deeper than the passes left to reach tol.
            budget = max(n, _SWEEP_POINTS_MIN)
            fits = (budget // starts.size + 1).bit_length() - 1
            needed = math.log2(float(np.max(hi - lo))) - math.log2(tol)
            levels_left = max(1, min(fits, math.ceil(needed)))
            tree = _midpoint_tree(lo[starts], hi[starts], levels_left)
            counts = m.count_below(tree.ravel()).reshape(tree.shape)
            node = np.zeros(n, dtype=np.intp)
        mid = 0.5 * (lo + hi)
        # eigenvalue k >= mid exactly when at most k eigenvalues lie below
        go_up = counts[bracket, node] <= ks
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
        node = 2 * node + 1 + go_up
        levels_left -= 1
    return np.sort(0.5 * (lo + hi))
