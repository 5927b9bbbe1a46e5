"""Finite sections of the Fibonacci Hamiltonian and a Sturm eigensolver.

The operator acts on square-summable sequences by

    (H u)(n) = u(n+1) + u(n-1) + lam * w(n) * u(n),

with the quasiperiodic word w(n) = chi_[1-alpha, 1) (n*alpha + omega0 mod 1)
for alpha the inverse golden mean.  Finite sections use Dirichlet
truncation on sites 1..n, so the diagonal is a natural prefix of the word.

Eigenvalues come from Sturm-sequence counting plus bisection — an
implementation deliberately independent of the trace-map pipeline, so the
two can cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenvalueSeparationError

#: Inverse golden mean, the rotation number of the Fibonacci word.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0

#: Bisection passes before ``eigenvalues`` reports unresolved indices.
_MAX_PASSES = 200

#: Fewest points one Sturm sweep of ``eigenvalues`` may count; the most is
#: this or the matrix size, whichever is larger.
_SWEEP_POINTS_MIN = 512


@dataclass(frozen=True)
class FibonacciPotential:
    """The two-valued quasiperiodic potential at coupling ``lam``.

    ``omega0`` shifts the sampling phase; the spectrum of the full-line
    operator does not depend on it, which finite-section experiments can
    probe but not prove.
    """

    lam: float
    omega0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.omega0)):
            raise ValueError("coupling and phase must be finite")

    def word(self, n_from: int, n_to: int) -> np.ndarray:
        """0/1 word w(n) for n in [n_from, n_to], inclusive."""
        if n_from > n_to:
            raise ValueError("empty site range")
        n = np.arange(n_from, n_to + 1, dtype=float)
        frac = np.mod(n * ALPHA + self.omega0, 1.0)
        return (frac >= 1.0 - ALPHA).astype(np.int64)

    def diagonal(self, n_from: int, n_to: int) -> np.ndarray:
        return self.lam * self.word(n_from, n_to).astype(float)


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
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        d = np.empty_like(t_arr)
        recip = np.zeros_like(t_arr)  # 1/d_0 := 0, so that d_1 = a_1 - t
        negative = np.empty(t_arr.shape, dtype=bool)
        count = np.zeros(t_arr.shape, dtype=np.int64)
        with np.errstate(divide="raise"):
            for a in self.diagonal.tolist():
                np.subtract(a, t_arr, out=d)
                d -= recip
                try:
                    np.divide(1.0, d, out=recip)
                except FloatingPointError:  # some pivot is exactly zero
                    d[d == 0.0] = -1e-300
                    np.divide(1.0, d, out=recip)
                np.less(d, 0.0, out=negative)
                np.add(count, negative, out=count)
        if np.ndim(t) == 0:
            return int(count[0])
        return count


def fibonacci_tridiagonal(lam: float, n: int, omega0: float = 0.0) -> TridiagonalMatrix:
    """Dirichlet truncation of the Fibonacci Hamiltonian to sites 1..n."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    pot = FibonacciPotential(lam, omega0)
    return TridiagonalMatrix(pot.diagonal(1, n))


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


def eigenvalues(m: TridiagonalMatrix, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues, ascending, each bracketed to width <= tol.

    Bisection on the Sturm count runs for every index simultaneously: each
    pass halves every bracket at its midpoint, until all brackets are at
    most ``tol`` wide.  If 200 passes cannot reach ``tol`` (tolerance below
    the floating floor, or a pathological cluster), the unresolved indices
    are reported in an EigenvalueSeparationError.

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
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    n = m.n
    radius = float(np.max(np.abs(m.diagonal))) + 2.0 + 1.0
    lo = np.full(n, -radius)
    hi = np.full(n, radius)
    ks = np.arange(n)
    levels_left = 0
    for passes in range(_MAX_PASSES):
        if np.all(hi - lo <= tol):
            break
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
            levels_left = max(1, min(fits, math.ceil(needed),
                                     _MAX_PASSES - passes))
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
    width = hi - lo
    if np.any(width > tol):
        bad = np.flatnonzero(width > tol)
        raise EigenvalueSeparationError(bad.tolist(), float(width.max()), tol)
    return np.sort(0.5 * (lo + hi))

