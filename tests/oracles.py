"""Independent slow-path oracles used to cross-check the library.

Everything here is deliberately naive: brute-force grids and literal
recursions, no reuse of the library's band-finding or word logic.
"""

import argparse
import itertools
import json
import math

import numpy as np

from fibspec import (IntervalSet, LinearIFS, Point3, TheoremReport,
                     apply_map, band_hierarchy, box_dim_regression,
                     fibonacci_number, invariant_gradient)
from fibspec import cli, sumset
from fibspec.errors import BandIsolationError
from fibspec.spectrum import ENDPOINT_TOL, LADDER_LEVELS

# Self-similar sets of known dimension for the IFS sandbox: log 2 / log 3,
# 1/2 and 1.
MIDDLE_THIRDS = LinearIFS((1 / 3, 1 / 3), (0.0, 2 / 3))
QUARTER_CORNERS = LinearIFS((0.25, 0.25), (0.0, 0.75))
BINARY_HALVES = LinearIFS((0.5, 0.5), (0.0, 0.5))


def pairs(s: IntervalSet) -> list[list[float]]:
    """Endpoint pairs of ``s`` as plain lists of floats."""
    return [[a, b] for a, b in zip(s.lo.tolist(), s.hi.tolist())]


def covers(outer: IntervalSet, inner: IntervalSet, slack: float = 0.0) -> bool:
    """True if every component of ``inner`` fits inside one component of
    ``outer`` dilated by ``slack``."""
    if not inner:
        return True
    if not outer:
        return False
    idx = np.searchsorted(outer.lo - slack, inner.lo, side="right") - 1
    if np.any(idx < 0):
        return False
    return bool(np.all(inner.hi <= outer.hi[idx] + slack))


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
        raise RuntimeError(f"bisection stalled for eigenvalue indices "
                           f"{bad.tolist()}: bracket width {width.max():.3e}")
    return np.sort(0.5 * (lo + hi))


def plain_count_below(diagonal: np.ndarray, t) -> np.ndarray:
    """Sturm count of eigenvalues < t for unit off-diagonals, site by site.

    The library's count as it stood before it walked the sites in blocks:
    one pivot update and one tally of the negative pivots per site.  The
    blocked count must return the same counts.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    d = np.empty_like(t_arr)
    recip = np.zeros_like(t_arr)  # 1/d_0 := 0, so that d_1 = a_1 - t
    negative = np.empty(t_arr.shape, dtype=bool)
    count = np.zeros(t_arr.shape, dtype=np.int64)
    with np.errstate(divide="raise"):
        for a in diagonal.tolist():
            np.subtract(a, t_arr, out=d)
            d -= recip
            try:
                np.divide(1.0, d, out=recip)
            except FloatingPointError:  # some pivot is exactly zero
                d[d == 0.0] = -1e-300
                np.divide(1.0, d, out=recip)
            np.less(d, 0.0, out=negative)
            np.add(count, negative, out=count)
    return count


# ----------------------------------------------------------------------
# The band scan as it stood before it was cut into blocks: one grid of
# parents x points, and a fresh temporary for every recursion step.  Given
# the library's root refinement, the library's blocked scan must return
# the same bands, bit for bit.  By default the brackets are bisected as
# they were before roots were refined one by one.
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


def where_bisect_refine(lam, k, lo, hi, xlo, xhi, shift):
    """``unblocked_bisect_roots`` to the library's endpoint tolerance,
    behind the library's refinement signature."""
    return unblocked_bisect_roots(lam, k, lo, hi, xlo > shift, shift, ENDPOINT_TOL)


def unblocked_scan_parents(lam: float, k: int, parents: IntervalSet,
                           points: int, refine=where_bisect_refine) -> IntervalSet:
    """Locate the bands of sigma_k inside each parent interval.

    Scans a uniform local grid per parent for sign changes of
    x_k -(+1) and x_k -(-1), refines every bracket (all parents at once)
    with ``refine(lam, k, lo, hi, x_lo, x_hi, shift)``, then
    classifies the gaps between consecutive certified roots by a midpoint
    membership test.  Bands are clipped to their parent, which is
    harmless: the covering property puts every true band inside some
    parent.
    """
    n_par = len(parents)
    if n_par == 0:
        return IntervalSet()
    steps = np.linspace(0.0, 1.0, points)
    grid = parents.lo[:, None] + (parents.hi - parents.lo)[:, None] * steps[None, :]
    vals = unblocked_half_trace_on_grid(lam, grid.ravel(), k).reshape(n_par, points)

    # Collect sign-change brackets for both target levels across all parents.
    blo, bhi, bxlo, bxhi, bshift, bparent = [], [], [], [], [], []
    for shift in (1.0, -1.0):
        gp = vals > shift
        flip_p, flip_j = np.nonzero(gp[:, :-1] != gp[:, 1:])
        if flip_p.size:
            blo.append(grid[flip_p, flip_j])
            bhi.append(grid[flip_p, flip_j + 1])
            bxlo.append(vals[flip_p, flip_j])
            bxhi.append(vals[flip_p, flip_j + 1])
            bshift.append(np.full(flip_p.size, shift))
            bparent.append(flip_p)
    if blo:
        roots = refine(lam, k, np.concatenate(blo), np.concatenate(bhi),
                       np.concatenate(bxlo), np.concatenate(bxhi),
                       np.concatenate(bshift))
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


def uniform_band_hierarchy(lam: float, k_max: int) -> list[IntervalSet]:
    """sigma_0 .. sigma_{k_max} as found before grids were sized per parent.

    Every parent of a level is scanned at 256 points by
    ``unblocked_scan_parents``; while the level's count is short of F_k,
    every parent is rescanned at 4x the points, up to 16384.  Endpoints of
    the library's hierarchy must lie within ``ENDPOINT_TOL`` of these.
    """
    window = IntervalSet([(-2.0 - lam - 1.0, 2.0 + lam + 1.0)])
    levels: list[IntervalSet] = []
    for k in range(k_max + 1):
        parents = window if k < 2 else levels[k - 2].union(levels[k - 1])
        expected = fibonacci_number(k)
        for points in (256, 1024, 4096, 16384):
            bands = unblocked_scan_parents(lam, k, parents, points)
            if len(bands) == expected:
                break
        else:
            raise BandIsolationError(lam, k, len(bands), expected)
        levels.append(bands)
    return levels


# ----------------------------------------------------------------------
# The two-level covers and the cover ladder as they stood before the
# band hierarchy formed them itself: each strips a fresh hierarchy to its
# levels and rebuilds the unions.  BandHierarchy.cover and .ladder must
# return the same endpoints, bit for bit, and the same refusals.
# ----------------------------------------------------------------------

def spectrum_cover(lam: float, k: int) -> tuple[IntervalSet, IntervalSet, IntervalSet]:
    """sigma_k, sigma_{k+1} and their union."""
    levels = list(band_hierarchy(lam, k + 1))
    if k < 0:  # k = -1 passes the hierarchy's checks, then indexes from the end
        raise ValueError("level must be >= 0")
    sk = levels[k]
    sk1 = levels[k + 1]
    return sk, sk1, sk.union(sk1)


def cover_ladder(lam: float, k: int) -> tuple[list[int], list[IntervalSet]]:
    """Cover levels k-3 .. k and their covers, coarse to fine, refused
    for k < 3 before any hierarchy is built, and where two consecutive
    covers share their widest band."""
    if not (k >= LADDER_LEVELS - 1):
        raise ValueError(f"need k >= {LADDER_LEVELS - 1} for the level ladder")
    levels = list(range(k - LADDER_LEVELS + 1, k + 1))
    hier = list(band_hierarchy(lam, k + 1))
    covers = [hier[j].union(hier[j + 1]) for j in levels]
    for j, coarse, fine in zip(levels, covers, covers[1:]):
        if fine.max_length >= coarse.max_length:
            raise ValueError(
                f"cover levels {j} and {j + 1} at lambda={lam:g} share their "
                f"widest band (width {fine.max_length:.6g}), so the box-count "
                "scales do not shrink with depth")
    return levels, covers


# ----------------------------------------------------------------------
# The interval merge as it stood before it sorted the two endpoint arrays
# apart: one stable argsort of the left endpoints, then a sweep of the
# running maximum of the right endpoints.  And the Minkowski sum as it
# stood before it was cut into windows: every pair sum formed at once,
# then merged in one piece by that sweep.  The library must return the
# same endpoints, bit for bit, up to the sign of a zero.
# ----------------------------------------------------------------------

def argsort_normalize(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Merge [lo[i], hi[i]] by a sweep in stable argsort order of lo; the
    arguments are left unchanged, and a zero end keeps the sign of the
    endpoint the sweep picks."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    if lo.size <= 1:
        return lo, hi
    run_hi = np.maximum.accumulate(hi)
    starts = np.empty(lo.size, dtype=bool)
    starts[0] = True
    starts[1:] = lo[1:] > run_hi[:-1]
    first = np.flatnonzero(starts)
    return lo[first], np.maximum.reduceat(hi, first)


def joined(chunks) -> IntervalSet:
    """The set whose components, in order, are those of the (lo, hi)
    chunks of one sum."""
    lo, hi = zip(*chunks)
    return IntervalSet._from_normalized(np.concatenate(lo), np.concatenate(hi))


def minkowski_sum(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """a + b as the package forms it: the merge windows of
    sumset._sum_chunks, joined in order.  A harness for tests that need a
    sum as one set, not an independent reference (all_pairs_minkowski_sum
    is that)."""
    return joined(sumset._sum_chunks(a, b))


def all_pairs_minkowski_sum(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """All pairwise sums of components of a and b, merged in one piece."""
    lo, hi = argsort_normalize(np.add.outer(a.lo, b.lo).ravel(),
                               np.add.outer(a.hi, b.hi).ravel())
    return IntervalSet._from_normalized(lo, hi)


def assert_same_endpoints(got: IntervalSet, want: IntervalSet) -> None:
    """The two sets have the same endpoints, bit for bit: -0.0 and +0.0
    differ here, unlike under ==."""
    for x, y in ((got.lo, want.lo), (got.hi, want.hi)):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.int64), y.view(np.int64))


def unblocked_box_count(s: IntervalSet, eps: float) -> int:
    """Cells [j*eps, (j+1)*eps) met by s, counted over every component at once."""
    if not s:
        return 0
    j0 = np.floor(s.lo / eps).astype(np.int64)
    j1 = np.floor(s.hi / eps).astype(np.int64)
    if j0.size == 1:
        return int(j1[0] - j0[0] + 1)
    prev_max = np.concatenate([[np.iinfo(np.int64).min],
                               np.maximum.accumulate(j1)[:-1]])
    start = np.maximum(j0, prev_max + 1)
    return int(np.sum(np.maximum(0, j1 - start + 1)))


def materialized_check_theorem_rect(lambda1: float, lambda2: float, k: int, *,
                                    cover_cap: int | None = None) -> TheoremReport:
    """check_theorem_rect as it stood before the sums were streamed: all
    four ladder sums are formed by minkowski_sum and held, then box-counted
    by box_dim_regression.  The finest cover is always kept, whatever
    cover_cap says; a document lists it only where it may."""
    levels, covers1 = band_hierarchy(lambda1, k + 1).ladder(k)
    covers2 = (covers1 if lambda2 == lambda1
               else band_hierarchy(lambda2, k + 1).ladder(k)[1])
    sumset._charged_pairs(covers1[-1], covers2[-1])

    sums = [minkowski_sum(covers1[i], covers2[i]) for i in range(len(levels))]
    sum_dim = box_dim_regression(sums, [max(c1.max_length, c2.max_length)
                                        for c1, c2 in zip(covers1, covers2)])

    caveats = [sumset.EXCEPTIONAL_CAVEAT]
    hd1 = sumset._factor_report(covers1, "factor 1", caveats)
    hd2 = (hd1 if lambda2 == lambda1
           else sumset._factor_report(covers2, "factor 2", caveats))
    if lambda2 == lambda1 and len(caveats) > 1:
        caveats[1:] = [c.replace("factor 1", "both factors") for c in caveats[1:]]

    rhs = min(hd1.value + hd2.value, 1.0)
    return TheoremReport(
        lambda1=float(lambda1), lambda2=float(lambda2), k=int(k),
        hd1_est=hd1, hd2_est=hd2, sum_dim_est=sum_dim, rhs=rhs,
        gap=sum_dim.value - rhs, levels=levels, sum_count=len(sums[-1]),
        sum_hull=sums[-1].hull, sum_total_length=sums[-1].total_length,
        sum_cover=sums[-1], caveats=tuple(caveats))


# ----------------------------------------------------------------------
# The document renderer as it stood before floats were rendered in bulk:
# one format(x, ".17g") per float, arrays through Python lists.  The
# CLI's documents must be the same bytes.
# ----------------------------------------------------------------------

def per_value_format_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value in output document")
    return format(x, ".17g")


def per_value_to_json(obj) -> str:
    """Compact JSON, one value at a time."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return per_value_format_float(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + per_value_to_json(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(per_value_to_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return per_value_to_json(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def one_piece_csv_table(header: list[str], rows: list[list]) -> str:
    """CSV text as cli rendered it before it wrote row blocks: each row
    by one %-format of a template for all its lines, over a tuple of
    every value."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        fields, columns, n = [], [], 1
        for v in row:
            if isinstance(v, np.ndarray):
                if v.dtype.kind == "f":
                    if not np.isfinite(v).all():
                        raise ValueError("non-finite value in output document")
                    fields.append("%.17g")
                else:
                    fields.append("%d")
                columns.append(v.tolist())
                n = v.size
            elif isinstance(v, str):
                fields.append(v.replace("%", "%%"))
            elif v is None:
                fields.append("")
            elif isinstance(v, (int, np.integer)):
                fields.append(str(int(v)))
            else:
                fields.append(per_value_format_float(v))
        template = (",".join(fields) + "\n") * n
        lines.append(template % tuple(itertools.chain.from_iterable(zip(*columns))))
    return "".join(lines)


def per_value_csv_table(header: list[str], rows: list[list]) -> str:
    """CSV text, one cell at a time.  A row with array cells is first
    spread into one row per element, its other cells repeated."""
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return per_value_format_float(v)

    lines = [",".join(header)]
    for row in rows:
        n = next((v.size for v in row if isinstance(v, np.ndarray)), None)
        spread = [row] if n is None else [
            [v[i] if isinstance(v, np.ndarray) else v for v in row]
            for i in range(n)]
        lines.extend(",".join(cell(v) for v in r) for r in spread)
    return "\n".join(lines) + "\n"


def all_commands_parser() -> argparse.ArgumentParser:
    """The parser cli built for every argv before it built only the
    invoked command's: every command's subparser, whatever argv holds."""
    parser = cli._Parser(prog="fibspec",
                         description="Trace-map spectra, certified band covers, "
                                     "dimension estimators, and sum-set checks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=cli._Parser)
    for name, command in cli._COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for f in command.flags:
            p.add_argument(f.name, **f.options)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (csv only for interval sets and sweeps)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH atomically instead of stdout")
    return parser


# ----------------------------------------------------------------------
# The periodic orbits as they stood before each family was declared once:
# a function per family for each coordinate and closed form, one walk to
# find the period and a second walk, with its own checks, to multiply the
# differential along the orbit.  ``orbit_info`` must return the same
# floats, bit for bit.
# ----------------------------------------------------------------------

def g_p(a: float) -> float:
    """y-coordinate of the period-4 point on the surface {I = a}."""
    return (1.0 + math.sqrt(9.0 + 16.0 * float(a))) / 4.0


def g_q(a: float) -> float:
    """y-coordinate of the period-6 point on the surface {I = a}."""
    return math.sqrt(float(a) + 1.0)


def point_p(a: float) -> Point3:
    return Point3(-0.5, g_p(a), -0.5)


def point_q(a: float) -> Point3:
    return Point3(0.0, g_q(a), 0.0)


def multiplier_p_closed(a: float) -> float:
    """Unstable multiplier of the period-4 orbit: the restricted 4-step
    differential has trace T = 8g(1-2g)+1 and determinant 1."""
    g = g_p(a)
    trace = 8.0 * g * (1.0 - 2.0 * g) + 1.0
    return (abs(trace) + math.sqrt(trace * trace - 4.0)) / 2.0


def multiplier_q_closed(a: float) -> float:
    """Unstable multiplier of the period-6 orbit: S + sqrt(S^2 - 1) with
    S = 8*g_q(a)**4 + 1."""
    g = g_q(a)
    s = 8.0 * g ** 4 + 1.0
    return s + math.sqrt(s * s - 1.0)


def minimal_period(p: Point3, tol: float = 1e-10, max_steps: int = 64) -> int:
    """Smallest n <= max_steps with max|f^n(p) - p| < tol."""
    q = p
    for n in range(1, max_steps + 1):
        try:
            q = apply_map(q)
        except ValueError:  # the orbit overflowed
            break
        if max(abs(q.x - p.x), abs(q.y - p.y), abs(q.z - p.z)) < tol:
            return n
    raise ValueError(f"point {tuple(p)} is not periodic within {max_steps} steps")


def jacobian(p: Point3) -> np.ndarray:
    return np.array([
        [2.0 * p.y, 2.0 * p.x, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])


def tangent_frame(p: Point3) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt basis of the plane normal to the invariant's gradient,
    from the two coordinate axes least aligned with it."""
    grad = invariant_gradient(p)
    normal = grad / float(np.linalg.norm(grad))
    axes = np.argsort(np.abs(grad), kind="stable")
    e1 = np.zeros(3)
    e1[axes[0]] = 1.0
    u1 = e1 - np.dot(e1, normal) * normal
    u1 /= np.linalg.norm(u1)
    e2 = np.zeros(3)
    e2[axes[1]] = 1.0
    u2 = e2 - np.dot(e2, normal) * normal - np.dot(e2, u1) * u1
    u2 /= np.linalg.norm(u2)
    return u1, u2


def restricted_jacobian(p: Point3, n: int) -> np.ndarray:
    """The n-step differential along the orbit of p, in the tangent frame
    at p, walked afresh and checked to return within 1e-10."""
    u1, u2 = tangent_frame(p)
    orbit = [p]
    for _ in range(n):
        orbit.append(apply_map(orbit[-1]))
    q = orbit[-1]
    assert max(abs(q.x - p.x), abs(q.y - p.y), abs(q.z - p.z)) <= 1e-10
    m = np.eye(3)
    for q in orbit[:-1]:
        m = jacobian(q) @ m
    frame = np.column_stack([u1, u2])
    return frame.T @ m @ frame


def restricted_multiplier(p: Point3, n: int) -> float:
    """Largest eigenvalue magnitude of the restricted n-step differential."""
    eigs = np.linalg.eigvals(restricted_jacobian(p, n))
    return float(np.max(np.abs(eigs)))
