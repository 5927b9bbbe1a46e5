"""Command-line front end.

Every subcommand emits exactly one JSON document (or CSV table) with a
fixed field order and fixed 17-significant-digit float formatting, so
identical configurations produce byte-identical output.  Wall time is
reported on stderr only — embedding it in the document would break that
guarantee, so the "runtime_ms" slot is always null.

Exit codes: 0 success, 1 invalid arguments or values, 2 numeric failure
(band isolation, eigenvalue separation), 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .dimension import DimensionEstimate, moran_dim
from .errors import BandIsolationError, EigenvalueSeparationError, SizeCapError
from .hamiltonian import eigenvalues, fibonacci_tridiagonal
from .ifs import LinearIFS, attractor_cover, log_ratio_resonance, similarity_dim
from .intervals import IntervalSet
from .periodic import log_ratio, orbit_info_p, orbit_info_q, scan_exceptional
from .spectrum import band_hierarchy, fibonacci_number, spectrum_cover
from .sumset import check_theorem_rect, cover_box_dimension, moran_applicable

INTERVAL_EMBED_CAP = 10_000
"""Interval lists above this size are summarized instead of embedded."""

MERGED_BAND_CAVEAT = ("couplings below 5 are outside the band-isolation "
                      "certification range; adjacent bands may be merged")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the documented contract
    reserves 2 for numeric failures, so remap argument errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


# ----------------------------------------------------------------------
# Deterministic serialization
# ----------------------------------------------------------------------

def _format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value in output document")
    return format(x, ".17g")


def to_json(obj) -> str:
    """Compact JSON with floats at 17 significant digits and dict fields
    in insertion order; round-trips through any JSON parser."""
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
        return _format_float(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + to_json(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _estimate_dict(est: DimensionEstimate | None) -> dict | None:
    if est is None:
        return None
    return {
        "value": est.value,
        "slope_stderr": est.slope_stderr,
        "levels_used": list(est.levels_used),
        "method": est.method,
        "degenerate": est.degenerate,
        "approximate": est.approximate,
    }


def _interval_dict(s: IntervalSet, caveats: list[str], label: str) -> dict:
    if not s:
        return {"count": 0, "hull": None, "total_length": 0.0, "intervals": []}
    d = {"count": len(s), "hull": [s.hull[0], s.hull[1]],
         "total_length": s.total_length}
    if len(s) <= INTERVAL_EMBED_CAP:
        d["intervals"] = s.pairs()
    else:
        d["intervals"] = None
        caveats.append(f"{label}: {len(s)} intervals exceed the embed limit "
                       f"{INTERVAL_EMBED_CAP}; listing omitted (use csv output)")
    return d


def _csv_table(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return _format_float(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _intervals_csv(named: list[tuple[str, IntervalSet]]) -> str:
    rows = []
    for name, s in named:
        for i, (lo, hi) in enumerate(s):
            rows.append([name, i, lo, hi])
    return _csv_table(["set", "index", "lo", "hi"], rows)


# ----------------------------------------------------------------------
# Command payloads: each returns (config, result, caveats, render_csv),
# where render_csv builds the CSV text on demand, or is None
# ----------------------------------------------------------------------

def _spectrum_payload(lam: float, k: int, tol: float):
    sc = spectrum_cover(lam, k, tol)
    caveats: list[str] = []
    if lam < 5:
        caveats.append(MERGED_BAND_CAVEAT)
    config = {"lambda": lam, "k": k, "tol": tol}
    result = {
        "band_count_k": len(sc.sigma_k),
        "band_count_k_plus_1": len(sc.sigma_k1),
        "fibonacci_degree_k": fibonacci_number(k),
        "fibonacci_degree_k_plus_1": fibonacci_number(k + 1),
        "sigma_k": _interval_dict(sc.sigma_k, caveats, "sigma_k"),
        "sigma_k_plus_1": _interval_dict(sc.sigma_k1, caveats, "sigma_k_plus_1"),
        "cover": _interval_dict(sc.cover, caveats, "cover"),
    }
    return config, result, caveats, lambda: _intervals_csv(
        [("sigma_k", sc.sigma_k), ("sigma_k_plus_1", sc.sigma_k1),
         ("cover", sc.cover)])


def _oracle_payload(lam: float, n: int, omega0: float, k: int | None,
                    dilate: float, tol: float):
    evs = eigenvalues(fibonacci_tridiagonal(lam, n, omega0), tol)
    config = {"lambda": lam, "n": n, "omega0": omega0, "k": k,
              "dilate": dilate, "tol": tol}
    result = {
        "eigenvalue_count": int(evs.size),
        "min_eigenvalue": float(evs[0]),
        "max_eigenvalue": float(evs[-1]),
        "eigenvalues": [float(v) for v in evs],
    }
    caveats: list[str] = []
    if k is not None:
        cover = spectrum_cover(lam, k, 1e-12).cover.dilate(dilate)
        inside = cover.contains_points(evs)
        result["cover_check"] = {
            "k": k,
            "dilation": dilate,
            "fraction_inside": float(np.mean(inside)),
        }
        caveats.append("finite-volume eigenvalues near the box edges may fall "
                       "outside the infinite-volume spectral cover")
    return config, result, caveats, None


def _dim_payload(lam: float, k: int, tol: float):
    if k < 3:
        raise ValueError("dimension estimates need k >= 3 (four cover levels)")
    hier = band_hierarchy(lam, k + 1, tol=tol)
    levels = list(range(k - 3, k + 1))
    covers = [hier[j].union(hier[j + 1]) for j in levels]
    caveats: list[str] = []
    if lam < 5:
        caveats.append(MERGED_BAND_CAVEAT)
    if moran_applicable(covers[-1]):
        moran = moran_dim(covers[-1], approximate=True)
    else:
        moran = None
        caveats.append("cover bands too coarse for a partition exponent "
                       "(fewer than 2 bands, or lengths not all within (0,1), "
                       "or total length >= 1); only the box estimate is reported")
    box = cover_box_dimension(covers)
    config = {"lambda": lam, "k": k, "tol": tol}
    result = {
        "band_count": len(covers[-1]),
        "levels": levels,
        "moran": _estimate_dict(moran),
        "box": _estimate_dict(box),
    }
    return config, result, caveats, None


def _sum_payload(lambda1: float, k: int, lambda2: float | None, tol: float):
    if lambda2 is None:
        lambda2 = lambda1
    report = check_theorem_rect(lambda1, lambda2, k, tol=tol)
    caveats = list(report.caveats)
    config = {"lambda1": lambda1, "lambda2": lambda2, "k": k, "tol": tol}
    result = {
        "levels": report.levels,
        "hd1": _estimate_dict(report.hd1_est),
        "hd2": _estimate_dict(report.hd2_est),
        "sum_dim": _estimate_dict(report.sum_dim_est),
        "rhs": report.rhs,
        "gap": report.gap,
        "sum_cover": _interval_dict(report.sum_cover, caveats, "sum_cover"),
    }
    return config, result, caveats, lambda: _intervals_csv(
        [("sum_cover", report.sum_cover)])


def _orbit_dict(info) -> dict:
    return {
        "point": [info.point.x, info.point.y, info.point.z],
        "period": info.period,
        "multiplier_closed": info.multiplier_closed,
        "multiplier_numeric": info.multiplier_numeric,
        "tangent_frame": [list(info.tangent_frame[0]), list(info.tangent_frame[1])],
    }


def _periodic_orbit_payload(a: float):
    info_p = orbit_info_p(a)
    info_q = orbit_info_q(a)
    config = {"a": a}
    result = {
        "a": a,
        "lambda": info_p.lam,
        "period4": _orbit_dict(info_p),
        "period6": _orbit_dict(info_q),
        "log_ratio": log_ratio(a),
    }
    return config, result, [], None


def _periodic_scan_payload(a_min: float, a_max: float, grid: int, qmax: int,
                           scan_tol: float):
    flagged = scan_exceptional(a_min, a_max, grid, qmax, tol=scan_tol)
    config = {"a_min": a_min, "a_max": a_max, "grid": grid, "qmax": qmax,
              "scan_tol": scan_tol}
    result = {
        "flagged_count": len(flagged),
        "flagged": [{"a": a, "numerator": f.numerator, "denominator": f.denominator}
                    for a, f in flagged],
    }
    caveats = ["proximity flags are candidates only; rationality of the "
               "log-multiplier ratio cannot be decided in floating point"]
    return config, result, caveats, None


def _ifs_cover_payload(ratios: tuple[float, ...], offsets: tuple[float, ...],
                       hull: tuple[float, float], depth: int):
    ifs = LinearIFS(ratios, offsets, hull)
    cover = attractor_cover(ifs, depth)
    caveats: list[str] = []
    try:
        sim = similarity_dim(ifs)
    except ValueError as exc:
        sim = None
        caveats.append(f"similarity dimension unavailable: {exc}")
    config = {"ratios": list(ratios), "offsets": list(offsets),
              "hull": [hull[0], hull[1]], "depth": depth}
    result = {
        "map_count": len(ifs),
        "similarity_dim": sim,
        "cover": _interval_dict(cover, caveats, "cover"),
    }
    return config, result, caveats, lambda: _intervals_csv([("cover", cover)])


def _ifs_resonance_payload(r1: float, r2: float, qmax: int):
    verdict = log_ratio_resonance(r1, r2, qmax)
    config = {"r1": r1, "r2": r2, "qmax": qmax}
    result = {
        "value": verdict.value,
        "resonant": verdict.resonant,
        "numerator": verdict.numerator,
        "denominator": verdict.denominator,
        "error": verdict.error,
        "qmax": verdict.qmax,
    }
    caveats = []
    if not verdict.resonant:
        caveats.append("non-resonance is relative to the denominator bound; "
                       "no floating-point computation can prove irrationality")
    return config, result, caveats, None


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

_SWEEP_PAYLOADS = {
    "spectrum": _spectrum_payload,
    "oracle": _oracle_payload,
    "dim": _dim_payload,
    "sum": _sum_payload,
    "periodic": _periodic_orbit_payload,
}

_SWEEP_PARAM = {
    "spectrum": ("lambda", "lam"),
    "oracle": ("lambda", "lam"),
    "dim": ("lambda", "lam"),
    "sum": ("lambda", "lambda1"),
    "periodic": ("a", "a"),
}


def _sweep_worker(task):
    cmd, kwargs = task
    _, result, caveats, _ = _SWEEP_PAYLOADS[cmd](**kwargs)
    return result, caveats


def _flat_spectrum(r):
    return [r["band_count_k"], r["band_count_k_plus_1"], r["cover"]["count"],
            r["cover"]["hull"][0], r["cover"]["hull"][1],
            r["cover"]["total_length"]]


def _flat_oracle(r):
    check = r.get("cover_check")
    return [r["eigenvalue_count"], r["min_eigenvalue"], r["max_eigenvalue"],
            None if check is None else check["fraction_inside"]]


def _flat_dim(r):
    moran = r["moran"]
    return [r["band_count"], None if moran is None else moran["value"],
            r["box"]["value"], r["box"]["slope_stderr"]]


def _flat_sum(r):
    return [r["hd1"]["value"], r["hd2"]["value"], r["sum_dim"]["value"],
            r["rhs"], r["gap"], r["sum_cover"]["count"]]


def _flat_periodic(r):
    return [r["log_ratio"], r["period4"]["multiplier_closed"],
            r["period6"]["multiplier_closed"]]


_SWEEP_CSV = {
    "spectrum": (["band_count_k", "band_count_k_plus_1", "cover_count",
                  "cover_lo", "cover_hi", "cover_total_length"], _flat_spectrum),
    "oracle": (["eigenvalue_count", "min_eigenvalue", "max_eigenvalue",
                "fraction_inside"], _flat_oracle),
    "dim": (["band_count", "moran_value", "box_value", "box_stderr"], _flat_dim),
    "sum": (["hd1", "hd2", "sum_dim", "rhs", "gap", "sum_component_count"],
            _flat_sum),
    "periodic": (["log_ratio", "multiplier_p_closed", "multiplier_q_closed"],
                 _flat_periodic),
}


def _resolve_jobs(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            raise ValueError("--jobs must be >= 1")
        return flag
    env = os.environ.get("FIBSPEC_JOBS")
    if env:
        try:
            v = int(env)
        except ValueError:
            raise ValueError(f"FIBSPEC_JOBS must be an integer, got {env!r}")
        if v < 1:
            raise ValueError("FIBSPEC_JOBS must be >= 1")
        return v
    return 1


def _sweep_payload(command: str, start: float, stop: float, count: int,
                   jobs: int | None, fixed: dict):
    if count < 1:
        raise ValueError("sweep needs at least one grid point")
    if count == 1:
        values = [float(start)]
    else:
        if not (start < stop):
            raise ValueError("sweep needs start < stop")
        values = [float(v) for v in np.linspace(start, stop, count)]
    param_label, param_key = _SWEEP_PARAM[command]
    tasks = [(command, {**fixed, param_key: v}) for v in values]
    n_jobs = _resolve_jobs(jobs)
    if n_jobs == 1:
        outputs = [_sweep_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outputs = list(pool.map(_sweep_worker, tasks))
    caveats: list[str] = []
    results = []
    for result, point_caveats in outputs:
        results.append(result)
        for c in point_caveats:
            if c not in caveats:
                caveats.append(c)
    config = {"command": command, "param": param_label, "start": start,
              "stop": stop, "count": count,
              **{k: v for k, v in sorted(fixed.items())}}
    result = {"param": param_label, "values": values, "results": results}
    header, flatten = _SWEEP_CSV[command]
    return config, result, caveats, lambda: _csv_table(
        [param_label] + header,
        [[v] + flatten(r) for v, r in zip(values, results)])


# ----------------------------------------------------------------------
# Argument parsing and dispatch
# ----------------------------------------------------------------------

def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (csv only for interval sets and sweeps)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write output to PATH atomically instead of stdout")


def _parse_floats_csv(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} must list at least one number")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fibspec",
                     description="Trace-map spectra, certified band covers, "
                                 "dimension estimators, and sum-set checks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("spectrum", help="band covers of the spectrum at one coupling")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_io_flags(p)

    p = sub.add_parser("oracle", help="tridiagonal eigenvalues of a finite box")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega0", type=float, default=0.0)
    p.add_argument("--k", type=int, default=None,
                   help="also report the fraction of eigenvalues inside the "
                        "level-k cover")
    p.add_argument("--dilate", type=float, default=1e-2)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_io_flags(p)

    p = sub.add_parser("dim", help="dimension estimates of the level-k cover")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_io_flags(p)

    p = sub.add_parser("sum", help="sum-set dimension comparison at one or two couplings")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_io_flags(p)

    p = sub.add_parser("periodic", help="periodic-orbit data or a rationality scan")
    p.add_argument("--a", type=float, default=None,
                   help="surface parameter (coupling lambda = 2*sqrt(a))")
    p.add_argument("--scan", nargs=2, type=float, default=None,
                   metavar=("A_MIN", "A_MAX"))
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--qmax", type=int, default=1000)
    p.add_argument("--scan-tol", type=float, default=1e-9)
    _add_io_flags(p)

    p = sub.add_parser("ifs", help="linear IFS covers, dimensions, resonance checks")
    p.add_argument("--ratios", default=None,
                   help="comma-separated contraction ratios")
    p.add_argument("--offsets", default=None,
                   help="comma-separated translations, one per ratio")
    p.add_argument("--hull", default="0,1", help="hull interval as LO,HI")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--resonance", nargs=2, type=float, default=None,
                   metavar=("R1", "R2"),
                   help="rationality scan of log R1 / log R2 instead of a cover")
    p.add_argument("--qmax", type=int, default=10 ** 6)
    _add_io_flags(p)

    p = sub.add_parser("sweep", help="run another command over a parameter grid")
    p.add_argument("--command", dest="swept_command", required=True,
                   choices=sorted(_SWEEP_PAYLOADS))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: FIBSPEC_JOBS or 1)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--omega0", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--dilate", type=float, default=1e-2)
    p.add_argument("--tol", type=float, default=None)
    _add_io_flags(p)

    return parser


def _sweep_fixed_args(args) -> dict:
    cmd = args.swept_command
    if cmd in ("spectrum", "dim", "sum") and args.k is None:
        raise ValueError(f"sweep --command {cmd} requires --k")
    if cmd == "oracle" and args.n is None:
        raise ValueError("sweep --command oracle requires --n")
    tol_default = 1e-10 if cmd == "oracle" else 1e-12
    tol = args.tol if args.tol is not None else tol_default
    if cmd == "spectrum" or cmd == "dim":
        return {"k": args.k, "tol": tol}
    if cmd == "sum":
        return {"k": args.k, "lambda2": args.lambda2, "tol": tol}
    if cmd == "oracle":
        return {"n": args.n, "omega0": args.omega0, "k": args.k,
                "dilate": args.dilate, "tol": tol}
    return {}


def _dispatch(args):
    cmd = args.command
    if cmd == "spectrum":
        return _spectrum_payload(args.lam, args.k, args.tol)
    if cmd == "oracle":
        return _oracle_payload(args.lam, args.n, args.omega0, args.k,
                               args.dilate, args.tol)
    if cmd == "dim":
        return _dim_payload(args.lam, args.k, args.tol)
    if cmd == "sum":
        return _sum_payload(args.lam, args.k, args.lambda2, args.tol)
    if cmd == "periodic":
        if (args.a is None) == (args.scan is None):
            raise ValueError("periodic needs exactly one of --a or --scan")
        if args.a is not None:
            return _periodic_orbit_payload(args.a)
        return _periodic_scan_payload(args.scan[0], args.scan[1], args.grid,
                                      args.qmax, args.scan_tol)
    if cmd == "ifs":
        if args.resonance is not None:
            if args.ratios is not None or args.offsets is not None:
                raise ValueError("--resonance and --ratios/--offsets are exclusive")
            return _ifs_resonance_payload(args.resonance[0], args.resonance[1],
                                          args.qmax)
        if args.ratios is None or args.offsets is None:
            raise ValueError("ifs needs --ratios and --offsets (or --resonance)")
        ratios = _parse_floats_csv(args.ratios, "--ratios")
        offsets = _parse_floats_csv(args.offsets, "--offsets")
        hull = _parse_floats_csv(args.hull, "--hull")
        if len(hull) != 2:
            raise ValueError("--hull expects exactly two numbers LO,HI")
        return _ifs_cover_payload(ratios, offsets, (hull[0], hull[1]), args.depth)
    if cmd == "sweep":
        return _sweep_payload(args.swept_command, args.start, args.stop,
                              args.count, args.jobs, _sweep_fixed_args(args))
    raise AssertionError(f"unhandled command {cmd}")


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1

    t0 = time.perf_counter()
    try:
        payload = _dispatch(args)
    except (BandIsolationError, EigenvalueSeparationError) as exc:
        print(f"fibspec: numeric failure: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"fibspec: size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fibspec: invalid arguments: {exc}", file=sys.stderr)
        return 1
    config, result, caveats, render_csv = payload

    if args.format == "csv" and render_csv is None:
        print("fibspec: csv output is only available for interval sets "
              "and sweeps", file=sys.stderr)
        return 1
    try:
        if args.format == "csv":
            text = render_csv()
        else:
            doc = {"command": args.command, "config": config,
                   "result": result, "caveats": caveats, "runtime_ms": None}
            text = to_json(doc) + "\n"
    except ValueError as exc:  # a non-finite value in the document
        print(f"fibspec: invalid arguments: {exc}", file=sys.stderr)
        return 1

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"fibspec: {args.command} finished in {elapsed_ms:.1f} ms",
          file=sys.stderr)

    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
