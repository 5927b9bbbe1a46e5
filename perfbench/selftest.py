#!/usr/bin/env python3
"""Quick self-test of the benchmark at toy sizes (well under a minute).

    python3 perfbench/selftest.py

Runs every workload at toy sizes untraced and traced, and requires that
the checks pass, that the tracing wrappers cover every layer, repeat
their counts and are removed afterwards.  Then it corrupts one number in
documents of each kind and requires the checks to reject each of them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from layers import COUNTS, LAYERS  # noqa: E402


def _doc(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def _rejects(argv: list[str], text: str, mutate) -> None:
    doc = json.loads(text)
    bad = copy.deepcopy(doc)
    mutate(bad)
    checks.Checker(7).check(0, argv, text)  # the clean document passes
    try:
        checks.Checker(7).check(0, argv, json.dumps(bad))
    except checks.CheckFailed:
        return
    raise AssertionError(f"corrupted document accepted: {' '.join(argv)}")


def _shift_listing(d: dict, by: float) -> None:
    d["intervals"] = [[lo + by, hi + by] for lo, hi in d["intervals"]]
    d["hull"] = [d["hull"][0] + by, d["hull"][1] + by]


def main() -> int:
    bench._pin_threads()
    for name in workloads.WORKLOADS:
        counts = []
        for trace in (False, True, True):
            result, details = bench.run(name, 3, 0.5, trace, toy=True)
            assert result["correct"], details["check_failures"]
            assert result["failed"] == 0 and result["attempted"] > 0
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                assert all(v > 0 for v in metrics.values()), metrics
                continue
            for layer in LAYERS:
                assert metrics[f"{layer}.self_s"] > 0, (name, layer)
            counts.append({c: metrics[c] for c in COUNTS})
        assert counts[0] == counts[1], (name, counts)
        print(f"selftest: {name}: checks pass, every layer traced, counts repeat")

    cli = bench._import_cli()
    import fibspec.spectrum
    assert not hasattr(cli.main, "__wrapped__"), "tracer left main wrapped"
    assert not hasattr(fibspec.spectrum.band_hierarchy, "__wrapped__")

    def bump(path, by):
        def mutate(doc):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += by
        return mutate

    cases = [
        (["sum", "--lambda", "20", "--k", "8"], bump(["result", "gap"], 1e-3)),
        (["sum", "--lambda", "20", "--k", "8"],
         bump(["result", "sum_cover", "total_length"], 1e-6)),
        (["sum", "--lambda", "20", "--k", "8"], bump(["result", "sum_cover", "count"], 40)),
        (["sum", "--lambda", "20", "--lambda2", "30", "--k", "8"],
         lambda d: _shift_listing(d["result"]["sum_cover"], 1e-9)),
        (["oracle", "--lambda", "5", "--n", "89", "--omega0", "0.25", "--k", "8"],
         bump(["result", "eigenvalues", 17], 1e-8)),
        (["oracle", "--lambda", "5", "--n", "89", "--k", "8"],
         bump(["result", "cover_check", "fraction_inside"], -1 / 89)),
        (["spectrum", "--lambda", "5", "--k", "9"],
         lambda d: _shift_listing(d["result"]["sigma_k"], 1e-9)),
        (["spectrum", "--lambda", "2", "--k", "9"],
         lambda d: _shift_listing(d["result"]["sigma_k_plus_1"], 1e-9)),
        (["spectrum", "--lambda", "5", "--k", "9"], bump(["result", "band_count_k"], 1)),
        (["dim", "--lambda", "5", "--k", "8"], bump(["result", "box", "value"], 1e-6)),
        (["dim", "--lambda", "5", "--k", "8"], bump(["result", "moran", "value"], 1e-6)),
        (["periodic", "--a", "1"],
         bump(["result", "period4", "multiplier_numeric"], 1e-6)),
        (["periodic", "--scan", "0", "1", "--grid", "101", "--qmax", "1000"],
         bump(["result", "flagged", 0, "a"], 0.01)),
        (["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "6"],
         bump(["result", "similarity_dim"], 1e-6)),
        (["ifs", "--resonance", "0.25", "0.5"], bump(["result", "denominator"], 1)),
    ]
    for argv, mutate in cases:
        _rejects(argv, _doc(cli, argv), mutate)
    print(f"selftest: {len(cases)} corrupted documents rejected")

    outer = ["spectrum", "--lambda", "5", "--k", "9"]
    checker = checks.Checker(7)
    checker.check(0, outer, _doc(cli, outer))
    lo, hi, tol = checker.covers[(5.0, 9)]
    checker.covers[(5.0, 10)] = (lo + 1e-9, hi + 1e-9, tol)
    try:
        checker.finish()
    except checks.CheckFailed:
        print("selftest: covers that do not nest rejected")
    else:
        raise AssertionError("non-nested covers accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
