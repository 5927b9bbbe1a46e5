#!/usr/bin/env python3
"""Benchmark of the fibspec command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload square_sum --seed 1 --seconds 30 --trace 0

One run measures set-up (the median of several cold starts of a fresh
interpreter that imports ``fibspec.cli`` and generates the inputs), then
repeats whole passes over the workload's argv list in this process
through ``fibspec.cli.main`` for about ``--seconds`` seconds.  Every
cold start and every invocation is bracketed by calibrations of the
machine's speed, and every invocation is sampled during it too
(speed.py); the times reported are corrected to the reference speed and
for steal.  Then the run checks
every document of the first pass against independent computations
(checks.py) and every later pass against the first, byte for byte.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (layers.py) with ``--trace 1``.  Details of the run
go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Cold starts at the beginning of a run and after every pass: the
# machine's speed drifts on a scale of seconds, so set-up is sampled
# across the whole run, like the passes.
FIRST_PROBES = 3
PROBES_PER_PASS = 2


def _pin_threads():
    """Serial sweeps and single-threaded numpy, in this process and in
    every probe it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FIBSPEC_JOBS", None)


def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fibspec
    import fibspec.cli
    if SRC.resolve() not in Path(fibspec.__file__).resolve().parents:
        raise SystemExit(f"fibspec was imported from {fibspec.__file__}, "
                         f"not from {SRC}")
    return fibspec.cli


def _probe(workload: str, seed: int, toy: bool):
    """Cold-start body: what a user pays before the first command."""
    _import_cli()
    import workloads
    workloads.make(workload, seed, toy)


def _probe_times(workload: str, seed: int, toy: bool, count: int,
                 importtime: bool, warm_up: bool = False) -> list:
    """Wall times of ``count`` cold starts, corrected to the reference
    speed, or their ``-X importtime`` reports.  ``warm_up`` adds one
    unmeasured start first, which leaves the byte-code cache and the page
    cache warm.

    The cold starts and the calibrations around them run on one CPU, this
    process's lowest: the two CPUs of a shared host run at different
    speeds, and a calibration taken on the other one corrects nothing."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "run.py"), "--probe", "--workload", workload,
        "--seed", str(seed)] + (["--toy"] if toy else [])
    out = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        before = speed.calibrate()
        for i in range(count + warm_up):
            s0, c0, t0 = speed.steal_s(), _cpu(), time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            t1, c1, s1 = time.perf_counter(), _cpu(), speed.steal_s()
            dt = t1 - t0 - speed.stolen(t1 - t0, c1 - c0, s1 - s0)
            after = speed.calibrate()
            if proc.returncode != 0:
                raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
            if i >= warm_up:
                out.append(proc.stderr if importtime else dt / speed.mean(before + after))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def _import_metrics(reports: list[str]) -> dict[str, float]:
    """Medians of import times from ``-X importtime`` reports: the whole
    of ``fibspec.cli``, numpy's share of it, and fibspec's own modules."""
    rows = {"fibspec_cli": [], "numpy": [], "fibspec_self": []}
    for report in reports:
        cum: dict[str, int] = {}
        own = 0
        for line in report.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            cum[name] = int(cum_us)
            if name == "fibspec" or name.startswith("fibspec."):
                own += int(self_us)
        rows["fibspec_cli"].append((cum.get("fibspec", 0) + cum.get("fibspec.cli", 0)) / 1e6)
        rows["numpy"].append(cum.get("numpy", 0) / 1e6)
        rows["fibspec_self"].append(own / 1e6)
    return {f"import.{k}_s": statistics.median(v) for k, v in rows.items()}


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def _wants_csv(argv: list[str]) -> bool:
    return any(a == "--format" and b == "csv" for a, b in zip(argv, argv[1:]))


def _run_pass(cli, argvs, tracer=None):
    """One pass over the argv list: (wall, cpu, exit code, stdout, speed
    factor, steal) per invocation, with raw times less the samples' own
    time.  The speed factor comes from calibrations just before and just
    after the invocation and from samples during it (speed.Sampler); steal
    is the part of the invocation's wall time that the host held its CPU
    back (speed.stolen).  An exception escaping ``main`` counts as a
    failure."""
    rows = []
    before = speed.calibrate()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.csv_requested = _wants_csv(argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sampler = speed.Sampler()
            s0, c0, t0 = speed.steal_s(), _cpu(), time.perf_counter()
            try:
                with sampler:
                    rc = cli.main(list(argv))
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            t1, c1, s1 = time.perf_counter(), _cpu(), speed.steal_s()
        after = speed.calibrate()
        if rc != 0:
            sys.stderr.write(f"perfbench: {' '.join(argv)} exited {rc}:\n{err.getvalue()}")
        wall, cpu = t1 - t0 - sampler.wall_s, c1 - c0 - sampler.cpu_s
        rows.append((wall, cpu, rc, out.getvalue(),
                     speed.mean(before + sampler.factors + after),
                     speed.stolen(wall, cpu, s1 - s0)))
        before = after
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool,
        toy: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the details."""
    import workloads

    _pin_threads()
    probes = _probe_times(workload, seed, toy, FIRST_PROBES, trace, warm_up=True)
    cli = _import_cli()
    argvs = workloads.make(workload, seed, toy)

    tracer_cls = None
    if trace:
        from layers import Tracer
        tracer_cls = Tracer
    passes, traced, layer_runs = [], [], []
    first_out = None
    nondeterministic = []
    start = time.perf_counter()
    while True:
        tracer = None
        if tracer_cls is not None and len(passes) % 2 == 1:
            tracer = tracer_cls()
            tracer.install()
        try:
            rows = _run_pass(cli, argvs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(rows)
        if len(passes) == 1:
            # The peak of one pass: later passes repeat its work, but how
            # many of them fit in a run varies, and with it how far the
            # heap fragments.
            peak_rss_mb = _peak_rss_mb()
        traced.append(tracer is not None)
        if tracer is not None:
            layer_runs.append(tracer.metrics())
            span_calls = dict(sorted(tracer.calls.items()))
        outs = [r[3] for r in rows]
        if first_out is None:
            first_out = outs
        else:
            nondeterministic += [i for i, (a, b) in enumerate(zip(first_out, outs))
                                 if a != b and rows[i][2] == 0]
        probes += _probe_times(workload, seed, toy, PROBES_PER_PASS, trace)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) > seconds:
            break

    attempted = len(passes) * len(argvs)
    failed = sum(1 for rows in passes for r in rows if r[2] != 0)

    import checks
    checker = checks.Checker(seed)
    failures = []
    for i, argv in enumerate(argvs):
        if passes[0][i][2] != 0:
            continue
        try:
            checker.check(i, argv, first_out[i])
        except Exception as exc:  # a malformed document fails its check
            failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    try:
        checker.finish()
    except checks.CheckFailed as exc:
        failures.append(str(exc))
    for i in sorted(set(nondeterministic)):
        failures.append(f"{' '.join(argvs[i])}: output differs between passes")
    for msg in failures:
        sys.stderr.write(f"perfbench: check failed: {msg}\n")

    def wall_at_ref(r):
        return (r[0] - r[5]) / r[4]

    def cpu_at_ref(r):
        return r[1] / r[4]

    def per_invocation(at_ref, which):
        """Median over the passes of a time corrected to the reference speed."""
        return [statistics.median(at_ref(p[i]) for p, t in zip(passes, traced) if t == which)
                for i in range(len(argvs))]

    wall = per_invocation(wall_at_ref, False)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "argvs": [" ".join(a) for a in argvs],
        "passes": [{"traced": t, "raw_wall_s": [r[0] for r in p],
                    "raw_cpu_s": [r[1] for r in p], "speed_factor": [r[4] for r in p],
                    "steal_s": [r[5] for r in p],
                    "exit": [r[2] for r in p]} for p, t in zip(passes, traced)],
        "setup_probes": probes if not trace else None,
        "median_wall_s": wall,
        "check_stats": checker.stats,
        "check_failures": failures,
    }
    if trace:
        metrics = {}
        for name in layer_runs[0]:
            values = [m[name] for m in layer_runs]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    sys.stderr.write(f"perfbench: count {name} differs between passes: {values}\n")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics.update(_import_metrics(probes))
        pass_wall = [sum(wall_at_ref(r) for r in p) for p in passes]
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, t in zip(pass_wall, traced) if t)
            - statistics.median(w for w, t in zip(pass_wall, traced) if not t))
        details["layer_passes"] = layer_runs
        details["span_calls_per_pass"] = span_calls
    else:
        metrics = {
            "wall_s": sum(wall),
            "cpu_s": sum(per_invocation(cpu_at_ref, False)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(probes),
        }
    units = {"peak_rss_mb": "MB"}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name, "s" if name.endswith("_s") else "count")}
                    for name, value in metrics.items()},
    }
    return result, details


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "fibspec" / "__init__.py").is_file():
        print(f"perfbench: no fibspec sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        _probe(args.workload, args.seed, args.toy)
        return 0

    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.toy)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"result": result, **details}, indent=1) + "\n")
    for argv_text, w in zip(details["argvs"], details["median_wall_s"]):
        print(f"{w:9.4f} s  {argv_text}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
