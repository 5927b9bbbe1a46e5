"""Checks of fibspec's documents against computations made apart from it.

Nothing here imports fibspec or compares with a stored copy of its
output.  The independent computations are:

* Band sets of the periodic approximants.  sigma_k = {E : |x_k(E)| <= 1}
  is the spectrum of the operator whose potential repeats the word w_k
  (w_0 = 0, w_1 = lam, w_{k+1} = w_k w_{k-1}, length F_k), so its band
  edges are the eigenvalues of that F_k x F_k matrix under periodic
  (x_k = 1) and antiperiodic (x_k = -1) boundary conditions, found by a
  dense symmetric eigensolver.  Used up to k = 16 (F_16 = 1597).
* Band edges in high precision: x_k(E) by its recursion in mpmath, and
  the edge where |x_k| crosses 1 by bisection.  Distances are measured in
  E, because near an edge x_k' is huge and the residual |x_k| - 1 says
  little.
* Finite-box eigenvalues from scipy's tridiagonal solver, on a diagonal
  rebuilt from the rotation formula.
* Unions of intervals from separately sorted left and right endpoints.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
from scipy.linalg import eigvalsh, eigvalsh_tridiagonal
from scipy.optimize import brentq

EPS = float(np.finfo(float).eps)
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
EMBED_CAP = 10_000          # documented JSON listing limit
MAX_EIGEN_LEVEL = 16        # largest k whose approximant is diagonalized
GAP_BOUND = 0.05            # |sum_dim - rhs| allowed (acceptance-suite bound)
MP_DPS = 50


def fib(k: int) -> int:
    """F_k with F_0 = F_1 = 1, the degree of x_k."""
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class CheckFailed(Exception):
    pass


def _require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ----------------------------------------------------------------------
# Interval arithmetic written apart from fibspec.intervals
# ----------------------------------------------------------------------

def merge(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components of a union of closed intervals.

    With left ends S and right ends T sorted separately, the union has a
    gap between T[i] and S[i+1] exactly when T[i] < S[i+1]: there, i+1
    intervals have started and i+1 have ended.
    """
    if lo.size == 0:
        return lo, hi
    s = np.sort(lo)
    t = np.sort(hi)
    gap = np.flatnonzero(t[:-1] < s[1:])
    return s[np.concatenate([[0], gap + 1])], t[np.concatenate([gap, [t.size - 1]])]


def inside_count(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> int:
    """Points of x in the disjoint sorted closed intervals [lo, hi]."""
    i = np.searchsorted(hi, x, side="left")
    ok = i < hi.size
    return int(np.sum(ok & (lo[np.minimum(i, hi.size - 1)] <= x)))


def _structure(lo: np.ndarray, hi: np.ndarray, what: str):
    _require(np.all(lo <= hi), f"{what}: reversed interval")
    _require(np.all(hi[:-1] < lo[1:]), f"{what}: intervals not sorted and disjoint")


# ----------------------------------------------------------------------
# Periodic approximants by dense eigensolver
# ----------------------------------------------------------------------

def _word(lam: float, k: int) -> list[float]:
    prev, cur = [0.0], [lam]
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, cur + prev
    return cur


_bands_cache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}


def approximant_bands(lam: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The F_k bands of sigma_k as sorted (lo, hi) arrays."""
    key = (lam, k)
    if key not in _bands_cache:
        _require(k <= MAX_EIGEN_LEVEL, f"level {k} too deep to diagonalize")
        d = np.array(_word(lam, k))
        n = d.size
        edges = []
        for corner in (1.0, -1.0):
            if n == 1:
                h = np.array([[d[0] + 2.0 * corner]])
            else:
                h = np.diag(d) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
                h[0, n - 1] += corner
                h[n - 1, 0] += corner
            edges.append(eigvalsh(h))
        e = np.sort(np.concatenate(edges))
        _bands_cache[key] = (e[0::2], e[1::2])
    return _bands_cache[key]


def eigen_error(lam: float) -> float:
    """Bound on the dense solver's absolute error for ||H|| <= lam + 4."""
    return 256.0 * EPS * (abs(lam) + 4.0)


def approximant_cover(lam: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma_k | sigma_{k+1} from the approximant eigenvalues."""
    a = approximant_bands(lam, k)
    b = approximant_bands(lam, k + 1)
    return merge(np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]))


# ----------------------------------------------------------------------
# High-precision band edges
# ----------------------------------------------------------------------

def half_trace_mp(lam: float, energy, k: int):
    e = mpmath.mpf(energy)
    a, b, c = mpmath.mpf(1), e / 2, (e - mpmath.mpf(lam)) / 2
    if k == 0:
        return b
    for _ in range(2, k + 1):
        a, b, c = b, c, 2 * c * b - a
    return c


def _in_band(lam: float, energy, k: int) -> bool:
    return abs(half_trace_mp(lam, energy, k)) <= 1


def edge_error(lam: float, k: int, e: float, into: int, room_out: float,
               room_in: float) -> float:
    """Distance in E from e to the true edge of sigma_k next to it.

    ``into`` is +1 when the band lies to the right of e (a left end) and
    -1 otherwise.  The edge is bracketed between e - into*room_out, which
    must lie outside sigma_k, and a point inside sigma_k within room_in,
    then bisected in high precision.
    """
    with mpmath.workdps(MP_DPS):
        outer = mpmath.mpf(e) - into * mpmath.mpf(room_out)
        _require(not _in_band(lam, outer, k),
                 f"x_{k}: no edge within {room_out:.3g} outside {e!r} (lambda {lam})")
        inner = None
        step = room_in
        while step >= room_in / 4096:
            cand = mpmath.mpf(e) + into * mpmath.mpf(step)
            if _in_band(lam, cand, k):
                inner = cand
                break
            step /= 4
        _require(inner is not None,
                 f"x_{k}: no band point within {room_in:.3g} inside {e!r} (lambda {lam})")
        for _ in range(200):
            mid = (outer + inner) / 2
            if _in_band(lam, mid, k):
                inner = mid
            else:
                outer = mid
            if abs(inner - outer) < mpmath.mpf(2) ** -120:
                break
        return float(abs(mpmath.mpf(e) - (outer + inner) / 2))


def check_edges(lam: float, k: int, lo: np.ndarray, hi: np.ndarray, tol: float,
                rng: random.Random, samples: int, what: str) -> int:
    """Sampled endpoints of a band list lie within tol of true edges, and
    sampled band midpoints lie in sigma_k.  Returns endpoints checked."""
    n = lo.size
    room = 16.0 * tol
    checked = 0
    for _ in range(samples):
        i = rng.randrange(n)
        width = hi[i] - lo[i]
        if width <= 0:
            continue
        gap_left = lo[i] - hi[i - 1] if i > 0 else room
        gap_right = lo[i + 1] - hi[i] if i + 1 < n else room
        slack = tol + 8.0 * EPS * max(1.0, abs(lo[i]), abs(hi[i]))
        if rng.random() < 0.5:
            err = edge_error(lam, k, lo[i], +1, min(room, gap_left / 2), min(room, width / 2))
            _require(err <= slack, f"{what}: left end {lo[i]!r} is {err:.3g} from the edge (tol {tol:g})")
        else:
            err = edge_error(lam, k, hi[i], -1, min(room, gap_right / 2), min(room, width / 2))
            _require(err <= slack, f"{what}: right end {hi[i]!r} is {err:.3g} from the edge (tol {tol:g})")
        with mpmath.workdps(MP_DPS):
            mid = (mpmath.mpf(lo[i]) + mpmath.mpf(hi[i])) / 2
            _require(_in_band(lam, mid, k), f"{what}: midpoint of band {i} is outside sigma_{k}")
        checked += 1
    return checked


def check_hull_edge(lam: float, levels: tuple[int, ...], e: float, into: int,
                    tol: float, what: str):
    """e is within tol of the outermost edge of one of the given levels."""
    slack = tol + 8.0 * EPS * max(1.0, abs(e))
    errors = []
    for k in levels:
        try:
            errors.append(edge_error(lam, k, e, into, 16.0 * tol, 16.0 * tol))
        except CheckFailed:
            continue
    _require(errors and min(errors) <= slack,
             f"{what}: hull end {e!r} is not within {tol:g} of an edge of levels {levels}")


# ----------------------------------------------------------------------
# Closed forms for the README examples
# ----------------------------------------------------------------------

def _multipliers(a: float) -> tuple[float, float]:
    g = (1.0 + math.sqrt(9.0 + 16.0 * a)) / 4.0
    t = 8.0 * g * (1.0 - 2.0 * g) + 1.0
    mp = (abs(t) + math.sqrt(t * t - 4.0)) / 2.0
    s = 8.0 * (a + 1.0) ** 2 + 1.0
    mq = s + math.sqrt(s * s - 1.0)
    return mp, mq


def _close(x: float, y: float, rel: float = 1e-12, abs_: float = 1e-15) -> bool:
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


# ----------------------------------------------------------------------
# Document checks
# ----------------------------------------------------------------------

def parse_argv(argv: list[str]) -> tuple[str, dict[str, list[str]]]:
    flags: dict[str, list[str]] = {}
    key = None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            flags[key] = []
        else:
            flags[key].append(tok)
    return argv[0], flags


def _flag(flags, name, cast=float, default=None):
    return cast(flags[name][0]) if name in flags else default


class Checker:
    """Checks each document as it is handed in, then the cross-document
    properties in ``finish``.  ``stats`` counts what was checked."""

    def __init__(self, seed: int):
        self.seed = seed
        self.covers: dict[tuple[float, int], tuple[np.ndarray, np.ndarray, float]] = {}
        self.stats = {"documents": 0, "endpoints": 0, "nested_pairs": 0,
                      "sum_merges": 0, "eigen_comparisons": 0}

    def check(self, index: int, argv: list[str], text: str):
        cmd, flags = parse_argv(argv)
        rng = random.Random(f"{self.seed}:{index}")
        fmt = _flag(flags, "format", str, "json")
        if fmt == "csv":
            if cmd == "spectrum":
                self._spectrum_csv(flags, text, rng)
            elif cmd == "sweep":
                self._sweep_csv(flags, text, rng)
            else:
                raise CheckFailed(f"no csv check for {cmd}")
        else:
            doc = json.loads(text)
            _require(list(doc) == ["command", "config", "result", "caveats", "runtime_ms"],
                     "document keys out of order")
            _require(doc["command"] == cmd, "command field mismatch")
            _require(doc["runtime_ms"] is None, "runtime_ms must be null")
            _require(all(isinstance(c, str) for c in doc["caveats"]), "caveats must be strings")
            getattr(self, "_" + cmd)(flags, doc, rng)
        self.stats["documents"] += 1

    # -- sum -------------------------------------------------------------

    def _sum(self, flags, doc, rng):
        l1 = _flag(flags, "lambda")
        l2 = _flag(flags, "lambda2", float, l1)
        k = _flag(flags, "k", int)
        cfg, r = doc["config"], doc["result"]
        tol = cfg["tol"]
        _require((cfg["lambda1"], cfg["lambda2"], cfg["k"]) == (l1, l2, k), "sum config echo")
        _require(r["levels"] == list(range(k - 3, k + 1)), "sum levels")
        hd1, hd2, sd = r["hd1"]["value"], r["hd2"]["value"], r["sum_dim"]["value"]
        _require(r["rhs"] == min(hd1 + hd2, 1.0), f"rhs {r['rhs']} != min(hd1 + hd2, 1)")
        _require(r["gap"] == sd - r["rhs"], f"gap {r['gap']} != sum_dim - rhs")
        _require(abs(r["gap"]) <= GAP_BOUND, f"|gap| = {abs(r['gap']):.4f} > {GAP_BOUND}")

        sc = r["sum_cover"]
        c1, c2 = approximant_cover(l1, k), approximant_cover(l2, k)
        # A band of the program lies within tol of the true band, and an
        # approximant band within eigen_error of it; sums add both.
        r1, r2 = tol + eigen_error(l1), tol + eigen_error(l2)
        scale = max(abs(c1[0][0]) + abs(c2[0][0]), abs(c1[1][-1]) + abs(c2[1][-1]))
        rad = r1 + r2 + 8.0 * EPS * scale
        hull = (c1[0][0] + c2[0][0], c1[1][-1] + c2[1][-1])
        _require(abs(sc["hull"][0] - hull[0]) <= rad and abs(sc["hull"][1] - hull[1]) <= rad,
                 f"sum hull {sc['hull']} != sum of factor hulls {list(hull)}")
        thin1 = np.maximum(0.0, (c1[1] - c1[0]) - 2 * r1).sum()
        thin2 = np.maximum(0.0, (c2[1] - c2[0]) - 2 * r2).sum()
        _require(sc["total_length"] >= thin1 + thin2,
                 f"Brunn-Minkowski: |A+B| = {sc['total_length']:.6g} < |A| + |B| = {thin1 + thin2:.6g}")
        if max(l1, l2) <= 1.0:
            _require(sc["count"] == 1, f"weak coupling sum has {sc['count']} components, not 1")

        # The top ladder level recomputed: every program interval lies in
        # the rad-fattening of its approximant twin and contains its
        # rad-thinning, which brackets the count and the length.
        lo = np.add.outer(c1[0], c2[0]).ravel()
        hi = np.add.outer(c1[1], c2[1]).ravel()
        fat = merge(lo - rad, hi + rad)
        keep = hi - lo >= 2 * rad
        thin = merge(lo[keep] + rad, hi[keep] - rad)
        n_lo, n_hi = fat[0].size, thin[0].size + int(np.sum(~keep))
        len_lo = float(np.sum(thin[1] - thin[0]))
        len_hi = float(np.sum(fat[1] - fat[0]))
        slack = 1e-9 * len_hi
        _require(n_lo <= sc["count"] <= n_hi,
                 f"sum cover count {sc['count']} outside independent bracket [{n_lo}, {n_hi}]")
        _require(len_lo - slack <= sc["total_length"] <= len_hi + slack,
                 f"sum cover length {sc['total_length']!r} outside [{len_lo!r}, {len_hi!r}]")
        self.stats["sum_merges"] += 1
        if sc["intervals"] is not None:
            self._listing(sc, "sum_cover")
        else:
            _require(sc["count"] > EMBED_CAP, "sum cover listing missing below the cap")

    # -- oracle ----------------------------------------------------------

    def _oracle(self, flags, doc, rng):
        lam = _flag(flags, "lambda")
        n = _flag(flags, "n", int)
        omega0 = _flag(flags, "omega0", float, 0.0)
        k = _flag(flags, "k", int)
        dilate = _flag(flags, "dilate", float, 1e-2)
        tol = _flag(flags, "tol", float, 1e-10)
        cfg, r = doc["config"], doc["result"]
        _require((cfg["lambda"], cfg["n"], cfg["omega0"], cfg["k"], cfg["dilate"], cfg["tol"])
                 == (lam, n, omega0, k, dilate, tol), "oracle config echo")
        ev = np.array(r["eigenvalues"], dtype=float)
        _require(r["eigenvalue_count"] == n and ev.size == n, "eigenvalue count != n")
        _require(np.all(np.diff(ev) >= 0), "eigenvalues not ascending")
        _require(r["min_eigenvalue"] == ev[0] and r["max_eigenvalue"] == ev[-1], "min/max fields")
        _require(ev[0] >= -2.0 - tol and ev[-1] <= lam + 2.0 + tol,
                 f"eigenvalues leave [-2, lambda + 2]: [{ev[0]}, {ev[-1]}]")
        sites = np.arange(1, n + 1, dtype=float)
        diag = lam * (np.mod(sites * ALPHA + omega0, 1.0) >= 1.0 - ALPHA)
        ref = eigvalsh_tridiagonal(diag, np.ones(n - 1))
        worst = float(np.max(np.abs(ev - ref)))
        _require(worst <= tol + eigen_error(lam),
                 f"eigenvalues differ from scipy by {worst:.3g} (tol {tol:g})")
        self.stats["eigen_comparisons"] += 1
        if k is not None:
            lo, hi = approximant_cover(lam, k)
            m = 1e-12 + eigen_error(lam) + 8.0 * EPS * (lam + 4.0)
            strict = inside_count(*merge(lo - dilate + m, hi + dilate - m), ev)
            loose = inside_count(*merge(lo - dilate - m, hi + dilate + m), ev)
            frac = r["cover_check"]["fraction_inside"]
            _require(r["cover_check"]["k"] == k and r["cover_check"]["dilation"] == dilate,
                     "cover_check echo")
            _require(any(frac == c / n for c in range(strict, loose + 1)),
                     f"fraction_inside {frac} not in recount [{strict}, {loose}]/{n}")

    # -- spectrum --------------------------------------------------------

    def _level_counts(self, lam, k, nk, nk1, ncover):
        if lam >= 5.0:
            _require(nk == fib(k) and nk1 == fib(k + 1),
                     f"band counts {nk}, {nk1} != F_{k}, F_{k+1} = {fib(k)}, {fib(k + 1)}")
            # Raymond's band combinatorics for lam > 4: F_{k-1} bands of
            # sigma_{k+1} lie inside bands of sigma_k, the rest are disjoint.
            if ncover is not None:
                _require(ncover == 2 * fib(k), f"cover has {ncover} bands, not 2 F_{k}")
        else:
            _require(1 <= nk <= fib(k) and 1 <= nk1 <= fib(k + 1), "band counts out of range")

    def _spectrum_sets(self, lam, k, tol, sets, rng, what):
        """sets: name -> (lo, hi) arrays, or None when not listed."""
        sk, sk1, cov = sets["sigma_k"], sets["sigma_k_plus_1"], sets["cover"]
        for name, (level, s) in {"sigma_k": (k, sk), "sigma_k_plus_1": (k + 1, sk1)}.items():
            if s is None:
                continue
            _structure(s[0], s[1], f"{what} {name}")
            self.stats["endpoints"] += check_edges(lam, level, s[0], s[1], tol, rng, 3,
                                                   f"{what} {name}")
            if lam >= 5.0 and level <= MAX_EIGEN_LEVEL:
                alo, ahi = approximant_bands(lam, level)
                dev = max(np.max(np.abs(alo - s[0])), np.max(np.abs(ahi - s[1])))
                _require(dev <= tol + eigen_error(lam),
                         f"{what} {name}: endpoints {dev:.3g} from the approximant edges")
        if sk is not None and sk1 is not None and cov is not None:
            ulo, uhi = merge(np.concatenate([sk[0], sk1[0]]), np.concatenate([sk[1], sk1[1]]))
            _require(np.array_equal(ulo, cov[0]) and np.array_equal(uhi, cov[1]),
                     f"{what}: cover is not the union of sigma_k and sigma_k_plus_1")
        if cov is not None:
            self.covers[(lam, k)] = (cov[0], cov[1], tol)

    def _listing(self, d, what):
        iv = np.array(d["intervals"], dtype=float).reshape(-1, 2)
        lo, hi = iv[:, 0], iv[:, 1]
        _require(lo.size == d["count"], f"{what}: listing length != count")
        if lo.size:
            _structure(lo, hi, what)
            _require(d["hull"] == [lo[0], hi[-1]], f"{what}: hull mismatch")
            _require(_close(d["total_length"], float(np.sum(hi - lo)), 1e-9), f"{what}: total_length")
        return lo, hi

    def _spectrum(self, flags, doc, rng):
        lam, k = _flag(flags, "lambda"), _flag(flags, "k", int)
        cfg, r = doc["config"], doc["result"]
        tol = cfg["tol"]
        _require((cfg["lambda"], cfg["k"]) == (lam, k), "spectrum config echo")
        _require(r["fibonacci_degree_k"] == fib(k) and r["fibonacci_degree_k_plus_1"] == fib(k + 1),
                 "fibonacci_degree fields")
        _require(r["band_count_k"] == r["sigma_k"]["count"]
                 and r["band_count_k_plus_1"] == r["sigma_k_plus_1"]["count"], "band_count fields")
        self._level_counts(lam, k, r["band_count_k"], r["band_count_k_plus_1"], r["cover"]["count"])
        sets = {}
        for name in ("sigma_k", "sigma_k_plus_1", "cover"):
            d = r[name]
            if d["intervals"] is None:
                _require(d["count"] > EMBED_CAP, f"{name}: listing missing below the cap")
                sets[name] = None
            else:
                sets[name] = self._listing(d, name)
        for name, level in (("sigma_k", k), ("sigma_k_plus_1", k + 1)):
            if sets[name] is None:
                hull = r[name]["hull"]
                check_hull_edge(lam, (level,), hull[0], +1, tol, f"spectrum {name}")
                check_hull_edge(lam, (level,), hull[1], -1, tol, f"spectrum {name}")
                self.stats["endpoints"] += 2
        self._spectrum_sets(lam, k, tol, sets, rng, f"spectrum lambda={lam} k={k}")

    def _spectrum_csv(self, flags, text, rng):
        lam, k = _flag(flags, "lambda"), _flag(flags, "k", int)
        tol = _flag(flags, "tol", float, 1e-12)
        lines = text.splitlines()
        _require(lines[0] == "set,index,lo,hi", "spectrum csv header")
        rows: dict[str, list[tuple[float, float]]] = {"sigma_k": [], "sigma_k_plus_1": [], "cover": []}
        for line in lines[1:]:
            name, idx, lo, hi = line.split(",")
            _require(int(idx) == len(rows[name]), "spectrum csv index out of sequence")
            rows[name].append((float(lo), float(hi)))
        sets = {}
        for name, pairs in rows.items():
            arr = np.array(pairs, dtype=float).reshape(-1, 2)
            sets[name] = (arr[:, 0], arr[:, 1])
        self._level_counts(lam, k, sets["sigma_k"][0].size, sets["sigma_k_plus_1"][0].size,
                           sets["cover"][0].size)
        self._spectrum_sets(lam, k, tol, sets, rng, f"spectrum csv lambda={lam} k={k}")

    # -- dim -------------------------------------------------------------

    def _dim_result(self, lam, k, r):
        _require(r["levels"] == list(range(k - 3, k + 1)), "dim levels")
        box, moran = r["box"], r["moran"]
        _require(box["method"] == "box" and 0.0 < box["value"] <= 1.0, f"box value {box['value']}")
        if lam >= 5.0:
            _require(r["band_count"] == 2 * fib(k), f"dim band_count {r['band_count']} != 2 F_{k}")
        else:
            _require(1 <= r["band_count"] <= fib(k) + fib(k + 1), "dim band_count out of range")
        if moran is not None:
            _require(moran["method"] == "moran" and 0.0 < moran["value"] <= 1.0, "moran value")
        if k + 1 > MAX_EIGEN_LEVEL:
            return
        # Box counts of the approximant covers, each at its widest band:
        # no band is wider than a cell, so a band meets the cells of its
        # two ends and nothing between.
        logn, loge = [], []
        for j in range(k - 3, k + 1):
            lo, hi = approximant_cover(lam, j)
            eps = float(np.max(hi - lo))
            cells = np.unique(np.concatenate([np.floor(lo / eps), np.floor(hi / eps)]))
            logn.append(math.log(cells.size))
            loge.append(math.log(1.0 / eps))
        slope = float(np.polyfit(loge, logn, 1)[0])
        _require(abs(slope - box["value"]) <= 1e-9,
                 f"box value {box['value']!r} != independent slope {slope!r}")
        if moran is not None:
            ell = hi - lo
            s = brentq(lambda x: float(np.sum(ell ** x)) - 1.0, 1e-9, 2.0, xtol=1e-14)
            _require(abs(s - moran["value"]) <= 1e-8,
                     f"moran value {moran['value']!r} != independent exponent {s!r}")

    def _dim(self, flags, doc, rng):
        lam, k = _flag(flags, "lambda"), _flag(flags, "k", int)
        _require((doc["config"]["lambda"], doc["config"]["k"]) == (lam, k), "dim config echo")
        self._dim_result(lam, k, doc["result"])

    # -- sweep -----------------------------------------------------------

    def _sweep(self, flags, doc, rng):
        cmd = flags["command"][0]
        _require(cmd == "dim", f"no json sweep check for {cmd}")
        start, stop, count = _flag(flags, "start"), _flag(flags, "stop"), _flag(flags, "count", int)
        k = _flag(flags, "k", int)
        r = doc["result"]
        values = [start + (stop - start) * i / (count - 1) for i in range(count)]
        _require(len(r["values"]) == count and all(_close(a, b) for a, b in zip(r["values"], values)),
                 "sweep grid")
        for lam, res in zip(r["values"], r["results"]):
            self._dim_result(lam, k, res)

    def _sweep_csv(self, flags, text, rng):
        _require(flags["command"][0] == "spectrum", "csv sweep check covers spectrum only")
        start, stop, count = _flag(flags, "start"), _flag(flags, "stop"), _flag(flags, "count", int)
        k = _flag(flags, "k", int)
        tol = _flag(flags, "tol", float, 1e-12)
        lines = text.splitlines()
        _require(lines[0] == "lambda,band_count_k,band_count_k_plus_1,cover_count,"
                             "cover_lo,cover_hi,cover_total_length", "sweep csv header")
        _require(len(lines) == count + 1, "sweep csv row count")
        for i, line in enumerate(lines[1:]):
            f = line.split(",")
            lam = float(f[0])
            _require(_close(lam, start + (stop - start) * i / (count - 1)), "sweep grid")
            nk, nk1, nc = int(f[1]), int(f[2]), int(f[3])
            self._level_counts(lam, k, nk, nk1, nc)
            lo, hi, length = float(f[4]), float(f[5]), float(f[6])
            _require(0.0 < length <= hi - lo, "sweep cover length")
            check_hull_edge(lam, (k, k + 1), lo, +1, tol, f"sweep lambda={lam}")
            check_hull_edge(lam, (k, k + 1), hi, -1, tol, f"sweep lambda={lam}")
            self.stats["endpoints"] += 2

    # -- README examples -------------------------------------------------

    def _periodic(self, flags, doc, rng):
        r = doc["result"]
        if "scan" in flags:
            a_min, a_max = (float(v) for v in flags["scan"])
            grid, qmax = _flag(flags, "grid", int, 101), _flag(flags, "qmax", int, 1000)
            tol = _flag(flags, "scan-tol", float, 1e-9)
            expect = []
            for a in np.linspace(a_min, a_max, grid):
                mp_, mq = _multipliers(float(a))
                ratio = math.log(mp_) / math.log(mq)
                best = Fraction(ratio).limit_denominator(qmax)
                if abs(ratio - best.numerator / best.denominator) <= tol:
                    expect.append((float(a), best.numerator, best.denominator))
            got = [(f["a"], f["numerator"], f["denominator"]) for f in r["flagged"]]
            _require(got == expect and r["flagged_count"] == len(expect),
                     f"scan flagged {got}, expected {expect}")
            _require(a_min != 0.0 or (expect and expect[0][1:] == (2, 3)),
                     "a = 0 must be flagged with ratio 2/3")
            return
        a = _flag(flags, "a")
        mp_, mq = _multipliers(a)
        _require(_close(r["lambda"], 2.0 * math.sqrt(a)), "periodic lambda")
        for key, period, closed in (("period4", 4, mp_), ("period6", 6, mq)):
            o = r[key]
            _require(o["period"] == period, f"{key}: period {o['period']}")
            _require(_close(o["multiplier_closed"], closed, 1e-12),
                     f"{key}: closed multiplier {o['multiplier_closed']} != {closed}")
            _require(_close(o["multiplier_numeric"], closed, 1e-8),
                     f"{key}: numeric multiplier {o['multiplier_numeric']} != {closed}")
        _require(_close(r["log_ratio"], math.log(mp_) / math.log(mq), 1e-12), "log_ratio")

    def _ifs(self, flags, doc, rng):
        r = doc["result"]
        if "resonance" in flags:
            r1, r2 = (float(v) for v in flags["resonance"])
            qmax = _flag(flags, "qmax", int, 10 ** 6)
            ratio = math.log(r1) / math.log(r2)
            best = Fraction(ratio).limit_denominator(qmax)
            resonant = abs(ratio - best.numerator / best.denominator) <= 1e-12
            _require((r["resonant"], r["numerator"], r["denominator"])
                     == (resonant, best.numerator, best.denominator),
                     f"resonance verdict {r['numerator']}/{r['denominator']} "
                     f"(resonant {r['resonant']}) != {best} (resonant {resonant})")
            return
        ratios = [Fraction(v) for v in flags["ratios"][0].split(",")]
        offsets = [Fraction(v) for v in flags["offsets"][0].split(",")]
        depth = _flag(flags, "depth", int, 6)
        # Equal ratios r with separated maps: dimension log n / log(1/r).
        _require(len(set(ratios)) == 1, "ifs check expects equal ratios")
        dim = math.log(len(ratios)) / math.log(1 / float(ratios[0]))
        _require(abs(r["similarity_dim"] - dim) <= 1e-9,
                 f"similarity_dim {r['similarity_dim']} != {dim}")
        cells = [(Fraction(0), Fraction(1))]
        for _ in range(depth):
            cells = [(q * lo + t, q * hi + t) for q, t in zip(ratios, offsets) for lo, hi in cells]
        cells.sort()
        cover = r["cover"]
        _require(cover["count"] == len(cells), "ifs cover count")
        _require(_close(cover["total_length"], float(sum(hi - lo for lo, hi in cells)), 1e-12),
                 "ifs cover length")
        got = np.array(cover["intervals"], dtype=float)
        want = np.array([[float(lo), float(hi)] for lo, hi in cells])
        _require(np.max(np.abs(got - want)) <= 1e-15, "ifs cover intervals")

    # -- cross-document --------------------------------------------------

    def finish(self):
        """Consecutive covers nest: cover_{k+1} inside cover_k."""
        for (lam, k), (olo, ohi, tol) in sorted(self.covers.items()):
            inner = self.covers.get((lam, k + 1))
            if inner is None:
                continue
            ilo, ihi, _ = inner
            slack = 2.0 * tol
            i = np.searchsorted(ohi + slack, ilo, side="left")
            ok = i < ohi.size
            j = np.minimum(i, ohi.size - 1)
            ok &= (olo[j] - slack <= ilo) & (ihi <= ohi[j] + slack)
            _require(bool(np.all(ok)), f"cover lambda={lam} k={k + 1} is not inside cover k={k}")
            self.stats["nested_pairs"] += 1
