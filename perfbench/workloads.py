"""Workload definitions: the argv lists handed to ``fibspec.cli.main``.

Only the standard library is imported here, so that the cold-start probe
that measures ``setup_s`` pays for ``fibspec.cli`` and nothing else.

The seed picks the oracle phases ``omega0``.  Every other argument is
fixed, so the amount of work in a pass does not depend on the seed; the
seed also drives which endpoints the checks sample (see checks.py).
"""

from __future__ import annotations

import random

# README examples that touch the layers a workload would otherwise leave
# idle (ifs, periodic and tracemap everywhere; hamiltonian on square_sum;
# dimension and sumset on sturm_oracle).  They cost tens of milliseconds
# per pass and keep every layer's traced span from being structurally zero.
_TOUCH_IFS = ["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "6"]
_TOUCH_PERIODIC = ["periodic", "--a", "1"]
_TOUCH_ORACLE = ["oracle", "--lambda", "5", "--n", "89", "--k", "8"]
_TOUCH_DIM = ["dim", "--lambda", "5", "--k", "8"]


def _square_sum(rng: random.Random, toy: bool) -> list[list[str]]:
    if toy:
        sums = [("20", None, 8), ("0.5", None, 8), ("20", "30", 7)]
    else:
        sums = [("20", None, 14), ("5", None, 14), ("20", "30", 13),
                ("0.5", None, 14),
                # the README's two sum examples
                ("20", None, 12), ("20", "30", 12)]
    argvs = []
    for lam, lam2, k in sums:
        argv = ["sum", "--lambda", lam]
        if lam2 is not None:
            argv += ["--lambda2", lam2]
        argvs.append(argv + ["--k", str(k)])
    return argvs + [_TOUCH_ORACLE, _TOUCH_PERIODIC, _TOUCH_IFS]


def _sturm_oracle(rng: random.Random, toy: bool) -> list[list[str]]:
    if toy:
        cases = [(55, "2"), (89, "20")]
    else:
        cases = [(987, "2"), (987, "5"), (987, "20"), (1597, "20"),
                 (2584, "5")]
    argvs = []
    for n, lam in cases:
        omega0 = repr(round(rng.random(), 12))
        argvs.append(["oracle", "--lambda", lam, "--n", str(n),
                      "--omega0", omega0, "--k", "10"])
    return argvs + [_TOUCH_DIM, _TOUCH_PERIODIC, _TOUCH_IFS]


def _band_cover(rng: random.Random, toy: bool) -> list[list[str]]:
    if toy:
        deep = [("5", 9, "json"), ("5", 10, "csv"), ("2", 9, "csv"),
                ("2", 10, "json")]
        dims = [("5", 9)]
        sweep_k = "8"
    else:
        # Pairs (lambda, k) and (lambda, k+1) let the checks test nesting
        # of consecutive covers; at k >= 20 the JSON listings are omitted
        # (more than 10000 bands), so those pairs use CSV or k <= 19.
        deep = [("5", 20, "json"), ("5", 17, "csv"), ("5", 18, "csv"),
                ("2", 17, "json"), ("2", 18, "csv"),
                ("0.5", 19, "csv"), ("0.5", 20, "json")]
        dims = [("5", 19), ("2", 18), ("0.5", 17)]
        sweep_k = "16"
    argvs = []
    for lam, k, fmt in deep:
        argv = ["spectrum", "--lambda", lam, "--k", str(k)]
        argvs.append(argv + (["--format", "csv"] if fmt == "csv" else []))
    for lam, k in dims:
        argvs.append(["dim", "--lambda", lam, "--k", str(k)])
    argvs.append(["sweep", "--command", "spectrum", "--start", "2",
                  "--stop", "5", "--count", "4", "--k", sweep_k,
                  "--format", "csv"])
    # the README's remaining examples
    argvs += [
        ["spectrum", "--lambda", "5", "--k", "6"],
        _TOUCH_ORACLE,
        _TOUCH_DIM,
        _TOUCH_PERIODIC,
        ["periodic", "--scan", "0", "1", "--grid", "101", "--qmax", "1000"],
        _TOUCH_IFS,
        ["ifs", "--resonance", "0.25", "0.5"],
        ["sweep", "--command", "dim", "--start", "6", "--stop", "8",
         "--count", "5", "--k", "8"],
    ]
    return argvs


WORKLOADS = {
    "square_sum": _square_sum,
    "sturm_oracle": _sturm_oracle,
    "band_cover": _band_cover,
}


def make(name: str, seed: int, toy: bool = False) -> list[list[str]]:
    """The argv list of one pass of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return [list(argv) for argv in WORKLOADS[name](rng, toy)]
