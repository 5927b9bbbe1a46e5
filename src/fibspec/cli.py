"""Command-line front end.

Every subcommand emits exactly one JSON document (or CSV table) with a
fixed field order and fixed 17-significant-digit float formatting, so
identical configurations produce byte-identical output.  Wall time is
reported on stderr only — embedding it in the document would break that
guarantee, so the "runtime_ms" slot is always null.

Floats are written as format(x, ".17g").  Arrays of them (interval
listings, eigenvalues, CSV columns) are written in bulk: one %-format of
a template that repeats "%.17g", which gives the same string for every
double, after one vectorized check that every value is finite.  A CSV
table is written as it is rendered, a few thousand lines at a time, so
its text is never held whole; every value in it is checked before its
first byte is written.

A call builds the argument parser of its own command only; the parser of
every command is built where argv names none (no arguments, -h, an
unknown name), and a usage line or error reads the same from either.

Exit codes: 0 success, 1 invalid arguments or values, 2 numeric failure
(band isolation, eigenvalue separation), 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import BandIsolationError, EigenvalueSeparationError, SizeCapError
from .hamiltonian import _refuse_over_cap, eigenvalues, fibonacci_tridiagonal
from .ifs import LinearIFS, attractor_cover, log_ratio_resonance, similarity_dim
from .intervals import IntervalSet
from .periodic import log_ratio, orbit_info, scan_exceptional
from .spectrum import band_hierarchy, fibonacci_number
from .sumset import check_theorem_rect, ladder_dimension

INTERVAL_EMBED_CAP = 10_000
"""Interval lists above this size are summarized instead of embedded."""


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

_NON_FINITE = "non-finite value in output document"


def _format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(_NON_FINITE)
    return format(x, ".17g")


def _float_values(a: np.ndarray) -> list[float]:
    """The elements of a float array in C order, refused if any is not
    finite."""
    if not np.isfinite(a).all():
        raise ValueError(_NON_FINITE)
    return a.ravel().tolist()


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
        template = "%.17g"
        for n in reversed(obj.shape):
            template = "[" + ",".join([template] * n) + "]"
        return template % tuple(_float_values(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _interval_dict(s: IntervalSet, caveats: list[str], label: str) -> dict:
    return _summary_dict(len(s), s.hull, s.total_length, s, caveats, label)


def _summary_dict(count: int, hull: tuple[float, float], total_length: float,
                  s: IntervalSet | None, caveats: list[str], label: str) -> dict:
    """The document of a non-empty set of count components; its listing s
    is read only when count is at most INTERVAL_EMBED_CAP."""
    d = {"count": count, "hull": [hull[0], hull[1]], "total_length": total_length}
    if count <= INTERVAL_EMBED_CAP:
        d["intervals"] = np.column_stack([s.lo, s.hi])
    else:
        d["intervals"] = None
        caveats.append(f"{label}: {count} intervals exceed the embed limit "
                       f"{INTERVAL_EMBED_CAP}; listing omitted (use csv output)")
    return d


_CSV_BLOCK_LINES = 4096  # lines rendered by one %-format
_Write = Callable[[str], object]  # a text writer, such as sys.stdout.write


def _csv_table(header: list[str], rows: list[list], write: _Write):
    """Write CSV text through write: the header line, then one line per row.

    A cell is a string, None (an empty cell), an int, a float or a 1-d
    array.  A row with array cells stands for one line per element of its
    arrays, which share one length; its other cells repeat on each line.
    A row's lines are rendered _CSV_BLOCK_LINES at a time, each block by
    one %-format of a template for its lines, so the text held is bounded
    by the block.  Every value is checked to be finite before the first
    write.
    """
    templates = []
    for row in rows:
        fields, columns, n = [], [], 1
        for v in row:
            if isinstance(v, np.ndarray):
                if v.dtype.kind == "f":
                    if not np.isfinite(v).all():
                        raise ValueError(_NON_FINITE)
                    fields.append("%.17g")
                else:
                    fields.append("%d")
                columns.append(v)
                n = v.size
            elif isinstance(v, str):
                fields.append(v.replace("%", "%%"))
            elif v is None:
                fields.append("")
            elif isinstance(v, (int, np.integer)):
                fields.append(str(int(v)))
            else:
                fields.append(_format_float(v))
        templates.append((",".join(fields) + "\n", columns, n))
    write(",".join(header) + "\n")
    for line, columns, n in templates:
        for start in range(0, n, _CSV_BLOCK_LINES):
            stop = min(start + _CSV_BLOCK_LINES, n)
            values = zip(*(c[start:stop].tolist() for c in columns))
            write((line * (stop - start)) % tuple(itertools.chain.from_iterable(values)))


def _intervals_csv(named: list[tuple[str, IntervalSet]], write: _Write):
    _csv_table(["set", "index", "lo", "hi"],
               [[name, np.arange(len(s)), s.lo, s.hi] for name, s in named], write)


# ----------------------------------------------------------------------
# Command payloads: each is called with every flag's value under its
# dest and returns (config, result, caveats, render_csv), where
# render_csv(write) writes the CSV text on demand, or is None
# ----------------------------------------------------------------------

def _spectrum_payload(lam: float, k: int, tol: float):
    hier = band_hierarchy(lam, k + 1, tol)
    sigma_k, sigma_k1, cover = hier[k], hier[k + 1], hier.cover(k)
    caveats: list[str] = []
    config = {"lambda": lam, "k": k, "tol": tol}
    result = {
        "band_count_k": len(sigma_k),
        "band_count_k_plus_1": len(sigma_k1),
        "fibonacci_degree_k": fibonacci_number(k),
        "fibonacci_degree_k_plus_1": fibonacci_number(k + 1),
        "sigma_k": _interval_dict(sigma_k, caveats, "sigma_k"),
        "sigma_k_plus_1": _interval_dict(sigma_k1, caveats, "sigma_k_plus_1"),
        "cover": _interval_dict(cover, caveats, "cover"),
    }
    return config, result, caveats, lambda write: _intervals_csv(
        [("sigma_k", sigma_k), ("sigma_k_plus_1", sigma_k1), ("cover", cover)], write)


def _oracle_payload(lam: float, n: int, omega0: float, k: int | None,
                    dilate: float, tol: float):
    # refused before the matrix, the cover or the solve
    if not 0.0 <= dilate < math.inf:
        raise ValueError("dilation must be finite and >= 0")
    _refuse_over_cap(n)
    m = fibonacci_tridiagonal(lam, n, omega0)
    # the cover refuses a bad --k at once, before the eigensolve
    cover = None if k is None else band_hierarchy(lam, k + 1).cover(k).dilate(dilate)
    evs = eigenvalues(m, tol)
    config = {"lambda": lam, "n": n, "omega0": omega0, "k": k,
              "dilate": dilate, "tol": tol}
    result = {
        "eigenvalue_count": int(evs.size),
        "min_eigenvalue": float(evs[0]),
        "max_eigenvalue": float(evs[-1]),
        "eigenvalues": evs,
    }
    caveats: list[str] = []
    if cover is not None:
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
    levels, covers = band_hierarchy(lam, k + 1, tol).ladder(k)
    box, moran = ladder_dimension(covers)
    caveats: list[str] = []
    if moran is None:
        caveats.append("cover bands too coarse for a partition exponent "
                       "(fewer than 2 bands, or lengths not all within (0,1), "
                       "or total length >= 1); only the box estimate is reported")
    config = {"lambda": lam, "k": k, "tol": tol}
    result = {
        "band_count": len(covers[-1]),
        "levels": levels,
        "moran": None if moran is None else asdict(moran),
        "box": asdict(box),
    }
    return config, result, caveats, None


def _sum_payload(lam: float, k: int, lambda2: float | None, tol: float,
                 csv: bool = False):
    if lambda2 is None:
        lambda2 = lam
    # keep the finest sum cover only where a document lists it
    report = check_theorem_rect(lam, lambda2, k, tol=tol,
                                cover_cap=None if csv else INTERVAL_EMBED_CAP)
    caveats = list(report.caveats)
    config = {"lambda1": lam, "lambda2": lambda2, "k": k, "tol": tol}
    result = {
        "levels": report.levels,
        "hd1": asdict(report.hd1_est),
        "hd2": asdict(report.hd2_est),
        "sum_dim": asdict(report.sum_dim_est),
        "rhs": report.rhs,
        "gap": report.gap,
        "sum_cover": _summary_dict(report.sum_count, report.sum_hull,
                                   report.sum_total_length, report.sum_cover,
                                   caveats, "sum_cover"),
    }
    return config, result, caveats, lambda write: _intervals_csv(
        [("sum_cover", report.sum_cover)], write)


def _orbit_dict(info) -> dict:
    return {
        "point": [info.point.x, info.point.y, info.point.z],
        "period": info.period,
        "multiplier_closed": info.multiplier_closed,
        "multiplier_numeric": info.multiplier_numeric,
        "tangent_frame": [list(info.tangent_frame[0]), list(info.tangent_frame[1])],
    }


def _periodic_payload(a: float | None, scan: list[float] | None, grid: int,
                      qmax: int, scan_tol: float):
    if (a is None) == (scan is None):
        raise ValueError("periodic needs exactly one of --a or --scan")
    if scan is not None:
        a_min, a_max = scan
        flagged = scan_exceptional(a_min, a_max, grid, qmax, tol=scan_tol)
        config = {"a_min": a_min, "a_max": a_max, "grid": grid, "qmax": qmax,
                  "scan_tol": scan_tol}
        result = {
            "flagged_count": len(flagged),
            "flagged": [{"a": value, "numerator": f.numerator,
                         "denominator": f.denominator} for value, f in flagged],
        }
        caveats = ["proximity flags are candidates only; rationality of the "
                   "log-multiplier ratio cannot be decided in floating point"]
        return config, result, caveats, None
    info_p, info_q = orbit_info(a)
    config = {"a": a}
    result = {
        "a": a,
        "lambda": info_p.lam,
        "period4": _orbit_dict(info_p),
        "period6": _orbit_dict(info_q),
        "log_ratio": log_ratio(a),
    }
    return config, result, [], None


def _parse_floats_csv(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}")


def _ifs_payload(ratios: str | None, offsets: str | None, hull: str,
                 depth: int, resonance: list[float] | None, qmax: int):
    if resonance is not None:
        if ratios is not None or offsets is not None:
            raise ValueError("--resonance and --ratios/--offsets are exclusive")
        r1, r2 = resonance
        verdict = log_ratio_resonance(r1, r2, qmax)
        config = {"r1": r1, "r2": r2, "qmax": qmax}
        result = asdict(verdict)
        caveats = []
        if not verdict.resonant:
            caveats.append("non-resonance is relative to the denominator bound; "
                           "no floating-point computation can prove irrationality")
        return config, result, caveats, None
    if ratios is None or offsets is None:
        raise ValueError("ifs needs --ratios and --offsets (or --resonance)")
    ratios = _parse_floats_csv(ratios, "--ratios")
    offsets = _parse_floats_csv(offsets, "--offsets")
    hull = _parse_floats_csv(hull, "--hull")
    if len(hull) != 2:
        raise ValueError("--hull expects exactly two numbers LO,HI")
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
    return config, result, caveats, lambda write: _intervals_csv(
        [("cover", cover)], write)


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

def _sweep_worker(task):
    name, kwargs = task
    _, result, caveats, _ = _COMMANDS[name].payload(**kwargs)
    return result, caveats


def _sweep_payload(swept_command: str, start: float, stop: float, count: int,
                   jobs: int, **passed):
    """Runs the swept command at each grid value of its swept flag.  A
    flag it passes through takes the value given to sweep, or else that
    command's own default; every other flag takes its default, and giving
    it to sweep is an error."""
    command = _COMMANDS[swept_command]
    spec = command.sweep
    for f in _COMMANDS["sweep"].flags:
        if passed.get(f.dest) is not None and f.name not in spec.passes:
            raise ValueError(
                f"sweep --command {swept_command} does not take {f.name}")
    kwargs, fixed = {}, {}
    for f in command.flags:
        kwargs[f.dest] = f.options.get("default")
        if f.name in spec.passes:
            if passed[f.dest] is not None:
                kwargs[f.dest] = passed[f.dest]
            elif f.options.get("required"):
                raise ValueError(
                    f"sweep --command {swept_command} requires {f.name}")
            fixed[f.dest] = kwargs[f.dest]
    if count < 1:
        raise ValueError("sweep needs at least one grid point")
    if count == 1:
        values = [float(start)]
    else:
        if not (start < stop):
            raise ValueError("sweep needs start < stop")
        values = [float(v) for v in np.linspace(start, stop, count)]
    swept = next(f for f in command.flags if f.name == spec.flag)
    tasks = [(swept_command, {**kwargs, swept.dest: v}) for v in values]
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    # A process pool forks all its workers at once, so never ask for
    # more than there are grid points or CPUs.
    workers = min(jobs, len(values), os.cpu_count() or 1)
    if workers == 1:
        outputs = [_sweep_worker(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_sweep_worker, tasks))
    caveats: list[str] = []
    results = []
    for result, point_caveats in outputs:
        results.append(result)
        for c in point_caveats:
            if c not in caveats:
                caveats.append(c)
    label = spec.flag[2:]
    config = {"command": swept_command, "param": label, "start": start,
              "stop": stop, "count": count, **dict(sorted(fixed.items()))}
    result = {"param": label, "values": values, "results": results}
    return config, result, caveats, lambda write: _csv_table(
        [label, *spec.columns],
        [[v, *spec.row(r)] for v, r in zip(values, results)], write)


# ----------------------------------------------------------------------
# The command table, argument parsing and dispatch
# ----------------------------------------------------------------------

class _Flag:
    """One option of a subcommand: its name and ``add_argument``'s
    keyword arguments."""

    def __init__(self, name: str, **options):
        self.name = name
        self.options = options
        self.dest = options.get("dest", name[2:].replace("-", "_"))


@dataclass(frozen=True)
class _Sweep:
    """How ``sweep`` runs a command: the flag it sweeps, the flags it
    passes through, and the CSV columns and row of one grid point."""

    flag: str
    passes: tuple[str, ...]
    columns: tuple[str, ...]
    row: Callable[[dict], list]


@dataclass(frozen=True)
class _Command:
    """A subcommand.  ``payload`` is called with every flag's value under
    its dest, and, where ``takes_csv`` is set, with ``csv``: whether the
    CSV table is rendered; ``sweep`` is set for the commands that sweep
    can run; ``csv`` is False for those that never render a CSV table."""

    help: str
    flags: tuple[_Flag, ...]
    payload: Callable
    sweep: _Sweep | None = None
    csv: bool = True
    takes_csv: bool = False


_LAMBDA = _Flag("--lambda", dest="lam", type=float, required=True)
_K = _Flag("--k", type=int, required=True)
_TOL = _Flag("--tol", type=float, default=1e-12)

_COMMANDS: dict[str, _Command] = {
    "spectrum": _Command(
        "band covers of the spectrum at one coupling",
        (_LAMBDA, _K, _TOL), _spectrum_payload,
        _Sweep("--lambda", ("--k", "--tol"),
               ("band_count_k", "band_count_k_plus_1", "cover_count",
                "cover_lo", "cover_hi", "cover_total_length"),
               lambda r: [r["band_count_k"], r["band_count_k_plus_1"],
                          r["cover"]["count"], *r["cover"]["hull"],
                          r["cover"]["total_length"]])),
    "oracle": _Command(
        "tridiagonal eigenvalues of a finite box",
        (_LAMBDA,
         _Flag("--n", type=int, required=True),
         _Flag("--omega0", type=float, default=0.0),
         _Flag("--k", type=int, default=None,
               help="also report the fraction of eigenvalues inside the "
                    "level-k cover"),
         _Flag("--dilate", type=float, default=1e-2),
         _Flag("--tol", type=float, default=1e-10)),
        _oracle_payload,
        _Sweep("--lambda", ("--n", "--omega0", "--k", "--dilate", "--tol"),
               ("eigenvalue_count", "min_eigenvalue", "max_eigenvalue",
                "fraction_inside"),
               lambda r: [r["eigenvalue_count"], r["min_eigenvalue"],
                          r["max_eigenvalue"],
                          r["cover_check"]["fraction_inside"]
                          if "cover_check" in r else None]),
        csv=False),
    "dim": _Command(
        "dimension estimates of the level-k cover",
        (_LAMBDA, _K, _TOL), _dim_payload,
        _Sweep("--lambda", ("--k", "--tol"),
               ("band_count", "moran_value", "box_value", "box_stderr"),
               lambda r: [r["band_count"],
                          None if r["moran"] is None else r["moran"]["value"],
                          r["box"]["value"], r["box"]["slope_stderr"]]),
        csv=False),
    "sum": _Command(
        "sum-set dimension comparison at one or two couplings",
        (_LAMBDA, _Flag("--lambda2", type=float, default=None), _K, _TOL),
        _sum_payload,
        _Sweep("--lambda", ("--lambda2", "--k", "--tol"),
               ("hd1", "hd2", "sum_dim", "rhs", "gap", "sum_component_count"),
               lambda r: [r["hd1"]["value"], r["hd2"]["value"],
                          r["sum_dim"]["value"], r["rhs"], r["gap"],
                          r["sum_cover"]["count"]]),
        takes_csv=True),
    "periodic": _Command(
        "periodic-orbit data or a rationality scan",
        (_Flag("--a", type=float, default=None,
               help="surface parameter (coupling lambda = 2*sqrt(a))"),
         _Flag("--scan", nargs=2, type=float, default=None,
               metavar=("A_MIN", "A_MAX")),
         _Flag("--grid", type=int, default=101),
         _Flag("--qmax", type=int, default=1000),
         _Flag("--scan-tol", type=float, default=1e-9)),
        _periodic_payload,
        _Sweep("--a", (),
               ("log_ratio", "multiplier_p_closed", "multiplier_q_closed"),
               lambda r: [r["log_ratio"], r["period4"]["multiplier_closed"],
                          r["period6"]["multiplier_closed"]]),
        csv=False),
    "ifs": _Command(
        "linear IFS covers, dimensions, resonance checks",
        (_Flag("--ratios", default=None,
               help="comma-separated contraction ratios"),
         _Flag("--offsets", default=None,
               help="comma-separated translations, one per ratio"),
         _Flag("--hull", default="0,1", help="hull interval as LO,HI"),
         _Flag("--depth", type=int, default=6),
         _Flag("--resonance", nargs=2, type=float, default=None,
               metavar=("R1", "R2"),
               help="rationality scan of log R1 / log R2 instead of a cover"),
         _Flag("--qmax", type=int, default=10 ** 6)),
        _ifs_payload),
}

# sweep takes every flag that some command passes through, with no
# default of its own: an absent flag falls back to the swept command's.
_COMMANDS["sweep"] = _Command(
    "run another command over a parameter grid",
    (_Flag("--command", dest="swept_command", required=True,
           choices=sorted(name for name, c in _COMMANDS.items() if c.sweep)),
     _Flag("--start", type=float, required=True),
     _Flag("--stop", type=float, required=True),
     _Flag("--count", type=int, required=True),
     _Flag("--jobs", type=int, default=1,
           help="worker processes (default: 1), capped at the number of "
                "grid points and of CPUs"),
     *{f.name: _Flag(f.name, type=f.options["type"])
       for c in _COMMANDS.values() if c.sweep
       for f in c.flags if f.name in c.sweep.passes}.values()),
    _sweep_payload)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv: only the subparser of the command that argv
    starts with, or every subparser where it starts with none (no
    arguments, -h, an unknown name).  A one-command parser names every
    command in its usage line, which its errors print, as the full
    parser does."""
    parser = _Parser(prog="fibspec",
                     description="Trace-map spectra, certified band covers, "
                                 "dimension estimators, and sum-set checks.")
    known = bool(argv) and argv[0] in _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar="{" + ",".join(_COMMANDS) + "}" if known else None)
    for name in argv[:1] if known else _COMMANDS:
        command = _COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        for f in command.flags:
            p.add_argument(f.name, **f.options)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (csv only for interval sets and sweeps)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH atomically instead of stdout")
    return parser


_NO_CSV = "fibspec: csv output is only available for interval sets and sweeps"


def _write_atomic(path: str, emit: Callable[[_Write], None]):
    """Write what emit passes to the writer it is given through a temp
    file and a rename; the file gets the mode a plain ``open`` would give
    it under the current umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".part")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            emit(fh.write)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except _UsageError:
        return 1

    command = _COMMANDS[args.command]
    if args.format == "csv" and not command.csv:
        print(_NO_CSV, file=sys.stderr)
        return 1
    kwargs = {f.dest: getattr(args, f.dest) for f in command.flags}
    if command.takes_csv:
        kwargs["csv"] = args.format == "csv"
    t0 = time.perf_counter()
    try:
        payload = command.payload(**kwargs)
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

    if args.format == "csv" and render_csv is None:  # ifs --resonance
        print(_NO_CSV, file=sys.stderr)
        return 1
    # A CSV table is rendered as it is written, and refused, if at all,
    # before its first byte.
    try:
        if args.format == "csv":
            emit = render_csv
        else:
            doc = {"command": args.command, "config": config,
                   "result": result, "caveats": caveats, "runtime_ms": None}
            text = to_json(doc) + "\n"
            emit = lambda write: write(text)
        if args.out:
            try:
                _write_atomic(args.out, emit)
            except OSError as exc:
                print(f"fibspec: cannot write {args.out}: {exc.strerror or exc}",
                      file=sys.stderr)
                return 1
        else:
            emit(sys.stdout.write)
    except ValueError as exc:  # a non-finite value in the document
        print(f"fibspec: invalid arguments: {exc}", file=sys.stderr)
        return 1

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"fibspec: {args.command} finished in {elapsed_ms:.1f} ms",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
