import argparse
import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibspec import cli, hamiltonian, periodic, spectrum
from fibspec.errors import BandIsolationError
from fibspec.sumset import CROSS_CHECK_TOL

import oracles

COMMANDS = [
    ["spectrum", "--lambda", "5", "--k", "6"],
    ["oracle", "--lambda", "5", "--n", "89", "--k", "8"],
    ["dim", "--lambda", "5", "--k", "8"],
    ["sum", "--lambda", "8", "--k", "8"],
    ["periodic", "--a", "1"],
    ["periodic", "--scan", "0", "1", "--grid", "11", "--qmax", "50"],
    ["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "4"],
    ["ifs", "--resonance", "0.25", "0.5"],
    ["sweep", "--command", "dim", "--start", "6", "--stop", "8", "--count",
     "3", "--k", "7"],
]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_cover_example(capsys):
    code, out = run(["spectrum", "--lambda", "3", "--k", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    cover = doc["result"]["cover"]["intervals"]
    assert len(cover) == 1
    assert cover[0] == pytest.approx([-2.0, 5.0], abs=1e-10)


def test_periodic_log_ratio_example(capsys):
    code, out = run(["periodic", "--a", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["log_ratio"] == pytest.approx(2 / 3, abs=1e-10)


def test_sum_small_coupling_single_interval(capsys):
    code, out = run(["sum", "--lambda", "0.2", "--k", "14"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["sum_cover"]["intervals"]) == 1
    assert doc["result"]["sum_dim"]["value"] >= 0.98


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_byte_identical_reruns(argv, capsys):
    code1, out1 = run(argv, capsys)
    code2, out2 = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_json_shape_and_roundtrip(argv, capsys):
    _, out = run(argv, capsys)
    doc = json.loads(out)
    assert list(doc) == ["command", "config", "result", "caveats",
                         "runtime_ms"]
    assert doc["command"] == argv[0]
    assert doc["runtime_ms"] is None
    assert isinstance(doc["caveats"], list)
    # serialization must preserve every float exactly
    assert json.loads(json.dumps(doc)) == doc


def test_invalid_arguments_exit_one(capsys):
    assert cli.main(["bogus"]) == 1
    assert cli.main(["spectrum"]) == 1
    assert cli.main(["dim", "--lambda", "5", "--k", "1"]) == 1
    assert cli.main(["periodic", "--a", "-2"]) == 1
    capsys.readouterr()


def test_periodic_past_the_precision_floor_exits_one(capsys):
    """The period-4 point (-1/2, 1e20, -1/2) is periodic, but its float
    orbit cannot close: the refusal names the precision floor."""
    assert cli.main(["periodic", "--a", "1e40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "fibspec: invalid arguments: the orbit of the periodic point "
        "(-0.5, 1e+20, -0.5) does not close to 1e-10 in double precision: "
        "its coordinates are past the precision floor")


@pytest.mark.parametrize("argv", [
    ["periodic", "--scan", "1e70", "1e80", "--grid", "11", "--qmax", "10"],
    ["periodic", "--scan", "1e77", "1e300", "--grid", "3"],
], ids=" ".join)
def test_periodic_scan_past_the_precision_floor_exits_one(argv, capsys):
    """From a ~ 4.09e76 on the period-6 multiplier overflows a double: the
    scan once flagged such points as 0/1, or ended in a traceback."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "fibspec: invalid arguments: the closed-form multipliers at a = ")
    assert captured.err.endswith(
        "overflow a double: a is past the precision floor\n")


@pytest.mark.parametrize("a_max", ["inf", "nan"])
def test_periodic_scan_refuses_non_finite_a_max(a_max, capsys):
    # an infinite a_max once reached the grid and came out as nan
    assert cli.main(["periodic", "--scan", "0", a_max, "--grid", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: invalid arguments: surface parameter "
                            f"must be finite and >= 0, got {a_max}\n")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_periodic_scan_tol_validated_up_front(tol, monkeypatch, capsys):
    # -1 once flagged nothing and exited 0; nan and inf ran the whole scan
    def no_scan(a):
        raise AssertionError("scanned")
    monkeypatch.setattr(periodic, "log_ratio", no_scan)
    assert cli.main(["periodic", "--scan", "0", "1", "--scan-tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: invalid arguments: tolerance must be "
                            f"finite and >= 0, got {float(tol)}\n")


_NO_TOL = "fibspec: error: unrecognized arguments: --tol"


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("argv, message", [
    (["oracle", "--lambda", "5", "--n", "8"],
     "fibspec: invalid arguments: tolerance must be finite"),
    (["spectrum", "--lambda", "5", "--k", "3"], _NO_TOL),
    (["dim", "--lambda", "5", "--k", "4"], _NO_TOL),
    (["sum", "--lambda", "5", "--k", "4"], _NO_TOL),
    (["sweep", "--command", "oracle", "--n", "8", "--start", "1", "--stop",
      "2", "--count", "2"],
     "fibspec: invalid arguments: tolerance must be finite"),
], ids=["oracle", "spectrum", "dim", "sum", "sweep"])
def test_non_finite_tol_exits_one(argv, message, tol, capsys):
    """The eigensolver refuses a non-finite --tol.  The band finder's
    tolerance is the constant spectrum.ENDPOINT_TOL, so spectrum, dim and
    sum refuse --tol whatever its value."""
    assert cli.main(argv + ["--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "5", "--k", "3"],
    ["dim", "--lambda", "5", "--k", "4"],
    ["sum", "--lambda", "5", "--k", "4"],
], ids=lambda a: a[0])
def test_band_finder_tolerance_is_the_constant(argv, capsys):
    """The band-finding commands echo spectrum.ENDPOINT_TOL as their
    "tol" and take no --tol."""
    code, out = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["config"]["tol"] == spectrum.ENDPOINT_TOL
    assert cli.main(argv + ["--tol", "1e-10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _NO_TOL in captured.err


@pytest.mark.parametrize("argv", [
    ["oracle", "--lambda", "5", "--n", "8", "--tol", "1e-9"],
    ["sweep", "--command", "oracle", "--n", "8", "--start", "1", "--stop",
     "2", "--count", "2", "--tol", "1e-9"],
], ids=lambda a: a[0])
def test_eigensolver_tolerance_still_set(argv, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-9


def test_tol_below_float_spacing_exits_one(capsys):
    assert cli.main(["spectrum", "--lambda", "100000", "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("fibspec: invalid arguments: coupling 100000 is past the "
            "precision floor: energies near 100003 are 1.46e-11 apart, more "
            "than the endpoint tolerance 1e-12") in captured.err
    assert cli.main(["spectrum", "--lambda", "1000", "--k", "2"]) == 0
    capsys.readouterr()


def test_numeric_failure_exit_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise BandIsolationError(20.0, 9, 54, 55)
    monkeypatch.setattr(cli, "check_theorem_rect", boom)
    assert cli.main(["sum", "--lambda", "20", "--k", "9"]) == 2
    capsys.readouterr()


def test_size_cap_exit_three(capsys):
    code = cli.main(["ifs", "--ratios", "0.4,0.4", "--offsets", "0,0.6",
                     "--depth", "30"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("dilate", ["nan", "inf", "-1"])
def test_oracle_dilate_refused_before_any_count(dilate, monkeypatch, capsys):
    # without --k, -1 once exited 0 and nan ran the whole eigensolve
    def no_count(self, t):
        raise AssertionError("a Sturm sweep ran")
    monkeypatch.setattr(hamiltonian.TridiagonalMatrix, "count_below", no_count)
    assert cli.main(["oracle", "--lambda", "5", "--n", "8", "--dilate", dilate]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: invalid arguments: dilation must be "
                            "finite and >= 0\n")


def test_oversized_scan_grid_exits_three(monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid formed")
    monkeypatch.setattr(np, "linspace", no_grid)
    assert cli.main(["periodic", "--scan", "0", "1", "--grid", "1000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: size cap exceeded: scan grid points: "
                            "1000000000 items exceeds cap 10000000\n")


def test_oversized_sweep_grid_exits_three(monkeypatch, capsys):
    def no_point(**kwargs):
        raise AssertionError("a grid point ran")
    def no_grid(*args, **kwargs):
        raise AssertionError("grid formed")
    monkeypatch.setitem(cli._COMMANDS, "periodic", dataclasses.replace(
        cli._COMMANDS["periodic"], payload=no_point))
    monkeypatch.setattr(np, "linspace", no_grid)
    assert cli.main(["sweep", "--command", "periodic", "--start", "0",
                     "--stop", "1", "--count", "10001"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: size cap exceeded: sweep grid points: "
                            "10001 items exceeds cap 10000\n")


def test_strong_coupling_sum_at_depth_16_answered(capsys):
    """The finest self-sum at lambda = 20, k = 16 forms 5,102,415
    unordered pairs, within the cap; all 3194**2 ordered pairs are not."""
    code, out = run(["sum", "--lambda", "20", "--k", "16"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["levels"] == [13, 14, 15, 16]
    assert doc["result"]["sum_cover"]["count"] > 10_000


def test_sum_depth_bounded_by_the_pair_cap_alone(capsys):
    """No depth ceiling: at lambda = 1, k = 18 the finest self-sum forms
    6,699,630 pairs into one interval; at lambda = 5, k = 17 it would form
    13,356,696, over the cap."""
    code, out = run(["sum", "--lambda", "1", "--k", "18"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["levels"] == [15, 16, 17, 18]
    assert doc["result"]["sum_cover"]["count"] == 1
    assert cli.main(["sum", "--lambda", "5", "--k", "17"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: size cap exceeded: pairwise interval "
                            "sums: 13356696 items exceeds cap 10000000\n")


def test_too_deep_spectrum_exits_three(monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("scanned")
    monkeypatch.setattr(spectrum, "_half_trace", no_scan)
    assert cli.main(["spectrum", "--lambda", "0.5", "--k", "40"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: size cap exceeded: band hierarchy "
                            "levels: 42 items exceeds cap 31\n")


def test_csv_for_interval_commands(capsys):
    code, out = run(["spectrum", "--lambda", "5", "--k", "4",
                     "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "set,index,lo,hi"
    counts = sum(1 for ln in lines if ln.startswith("sigma_k,"))
    assert counts == 5  # F_4 bands at level 4


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "5", "--k", "4"],
    ["sum", "--lambda", "8", "--k", "6"],
    ["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "4"],
    ["sweep", "--command", "periodic", "--start", "0", "--stop", "1",
     "--count", "2"],
], ids=lambda a: a[0])
def test_json_output_renders_no_csv(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("csv rendered for json output")
    monkeypatch.setattr(cli, "_csv_table", refuse)
    assert cli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_value_exits_one(fmt, monkeypatch, capsys):
    for bad in (math.inf, np.array([0.5, math.nan]), np.array([-math.inf, 1.0])):
        def payload(**kwargs):
            return ({}, {"x": bad}, [],
                    lambda write: cli._csv_table(["x"], [[bad]], write))
        monkeypatch.setitem(cli._COMMANDS, "spectrum", dataclasses.replace(
            cli._COMMANDS["spectrum"], payload=payload))
        argv = ["spectrum", "--lambda", "5", "--k", "3", "--format", fmt]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fibspec: invalid arguments: non-finite value" in captured.err


def test_csv_refused_for_scalar_commands(capsys):
    assert cli.main(["periodic", "--a", "1", "--format", "csv"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["oracle", "--lambda", "5", "--n", "2584", "--format", "csv"],
    ["dim", "--lambda", "5", "--k", "19", "--format", "csv"],
    ["periodic", "--a", "1", "--format", "csv"],
], ids=lambda a: a[0])
def test_csv_refused_before_any_computation(argv, monkeypatch, capsys):
    def no_payload(**kwargs):
        raise AssertionError("payload computed for a refused csv request")
    monkeypatch.setitem(cli._COMMANDS, argv[0], dataclasses.replace(
        cli._COMMANDS[argv[0]], payload=no_payload))
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: csv output is only available for "
                            "interval sets and sweeps\n")


def test_csv_refused_for_ifs_resonance(capsys):
    assert cli.main(["ifs", "--resonance", "0.25", "0.5", "--format",
                     "csv"]) == 1
    assert "csv output is only available" in capsys.readouterr().err


def test_output_file_matches_stdout(tmp_path, capsys):
    _, straight = run(["dim", "--lambda", "5", "--k", "7"], capsys)
    target = tmp_path / "out.json"
    code = cli.main(["dim", "--lambda", "5", "--k", "7", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == straight


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664),
                                         (0o077, 0o600)],
                         ids=["022", "002", "077"])
def test_output_file_mode_honours_umask(umask, mode, tmp_path, capsys):
    target = tmp_path / "o.json"
    old = os.umask(umask)
    try:
        code = cli.main(["periodic", "--a", "1", "--out", str(target)])
    finally:
        os.umask(old)
    capsys.readouterr()
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_one(where, tmp_path, capsys):
    target = tmp_path / "missing" / "o.json" if where == "missing directory" \
        else tmp_path
    code = cli.main(["periodic", "--a", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"fibspec: cannot write {target}: ")
    assert "finished" not in captured.err
    assert list(tmp_path.rglob("*.part")) == []


@pytest.mark.parametrize("lam, lam2, k", [
    ("20", None, "12"),   # partition exponent agrees with box
    ("5", None, "8"),     # disagrees
    ("1", None, "8"),     # bands too coarse for one
    ("20", "1", "10"),    # two factors: disagrees, too coarse
])
def test_sum_factors_are_dim_estimates(lam, lam2, k, capsys):
    """sum's hd1/hd2 are dim's box estimates, and sum flags a factor
    exactly where dim's partition exponent is missing or is more than
    CROSS_CHECK_TOL from the box value."""
    argv = ["sum", "--lambda", lam, "--k", k]
    code, out = run(argv + ([] if lam2 is None else ["--lambda2", lam2]),
                    capsys)
    assert code == 0
    doc = json.loads(out)
    for key, factor, which in (("hd1", lam, "factor 1"),
                               ("hd2", lam2 or lam, "factor 2")):
        code, out = run(["dim", "--lambda", factor, "--k", k], capsys)
        assert code == 0
        dim = json.loads(out)["result"]
        assert doc["result"][key] == dim["box"]
        label = which if lam2 is not None else "both factors"
        flagged = [c for c in doc["caveats"] if c.startswith(label + ":")]
        if dim["moran"] is None:
            assert flagged == [f"{label}: cover bands too coarse for a "
                               "partition-exponent cross-check"]
        elif abs(dim["moran"]["value"] - dim["box"]["value"]) > CROSS_CHECK_TOL:
            assert len(flagged) == 1 and "disagrees" in flagged[0]
        else:
            assert flagged == []


def test_sweep_rows_in_grid_order(capsys):
    _, out = run(["sweep", "--command", "periodic", "--start", "0",
                  "--stop", "2", "--count", "5"], capsys)
    doc = json.loads(out)
    assert doc["result"]["param"] == "a"
    assert doc["result"]["values"] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert [r["a"] for r in doc["result"]["results"]] == doc["result"]["values"]


def test_float_formatting_is_shortest_exact():
    s = cli.to_json({"x": 0.1, "y": 1 / 3, "z": 1e300})
    parsed = json.loads(s)
    assert parsed["x"] == 0.1
    assert parsed["y"] == 1 / 3
    assert parsed["z"] == 1e300


def test_to_json_rejects_non_finite():
    with pytest.raises(ValueError):
        cli.to_json({"x": math.inf})
    with pytest.raises(ValueError):
        cli.to_json({"x": math.nan})


# Doubles whose shortest and 17-digit forms differ, or that sit at the
# ends of the range: signed zero, the least subnormal, the largest double.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1 / 3, 2.0 ** -1022, 123.0]


def csv_text(header, rows) -> str:
    parts = []
    cli._csv_table(header, rows, parts.append)
    return "".join(parts)


def _random_doubles(n: int) -> np.ndarray:
    """Finite doubles from uniformly random bit patterns (seeded)."""
    bits = np.random.default_rng(12).integers(0, 2 ** 64, n, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


@pytest.mark.parametrize("values", [np.array(EDGE_VALUES), _random_doubles(20_000)],
                         ids=["edges", "random_bits"])
def test_bulk_rendering_matches_per_value_rendering(values):
    pairs = np.column_stack([values, values[::-1]])
    for obj in (values, pairs, {"a": values, "b": [pairs, 1, None]},
                values[:0], pairs[:0]):
        assert cli.to_json(obj) == oracles.per_value_to_json(obj)
    rows = [["s", np.arange(values.size), values, values[::-1]],
            ["t", 7, None, values[0]], ["empty", np.arange(0), values[:0], values[:0]]]
    header = ["set", "index", "lo", "hi"]
    assert csv_text(header, rows) == oracles.per_value_csv_table(header, rows)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "5", "--k", "12"],
    ["spectrum", "--lambda", "5", "--k", "12", "--format", "csv"],
    ["sum", "--lambda", "20", "--k", "10"],
    ["oracle", "--lambda", "5", "--n", "89", "--k", "8"],
    ["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "6"],
    ["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "6",
     "--format", "csv"],
    ["sweep", "--command", "spectrum", "--start", "2", "--stop", "5",
     "--count", "4", "--k", "8", "--format", "csv"],
], ids=lambda a: " ".join(a))
def test_documents_match_per_value_rendering(argv, monkeypatch, capsys):
    code, bulk = run(argv, capsys)
    assert code == 0
    monkeypatch.setattr(cli, "to_json", oracles.per_value_to_json)
    monkeypatch.setattr(cli, "_csv_table", lambda header, rows, write: write(
        oracles.per_value_csv_table(header, rows)))
    code, per_value = run(argv, capsys)
    assert code == 0
    assert bulk == per_value


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "5", "--k", "-1"],
    ["oracle", "--lambda", "5", "--n", "8", "--k", "-1"],
    ["sweep", "--command", "spectrum", "--start", "2", "--stop", "5",
     "--count", "2", "--k", "-1"],
], ids=lambda a: a[0])
def test_negative_level_exits_one(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fibspec: invalid arguments: level must be >= 0" in captured.err


_SIMILARITY_OVERLAP = ("similarity dimension unavailable: first-level images "
                       "overlap; similarity dimension formula requires "
                       "separated maps")
_NON_RESONANCE = ("non-resonance is relative to the denominator bound; no "
                  "floating-point computation can prove irrationality")


REFUSALS_AND_CAVEATS = [  # (argv, exit code, stderr message or caveats)
    (["periodic"], 1, "periodic needs exactly one of --a or --scan"),
    (["periodic", "--a", "1", "--scan", "0", "1"], 1,
     "periodic needs exactly one of --a or --scan"),
    (["periodic", "--scan", "1", "0"], 1, "need a_min < a_max"),
    (["periodic", "--scan", "0", "1", "--grid", "1"], 1,
     "grid must have at least 2 points"),
    (["periodic", "--scan", "0", "1", "--qmax", "0"], 1, "qmax must be >= 1"),
    (["ifs", "--ratios", "0.5"], 1,
     "ifs needs --ratios and --offsets (or --resonance)"),
    (["ifs", "--ratios", "a,b", "--offsets", "0,0.5"], 1,
     "--ratios expects comma-separated numbers, got 'a,b'"),
    (["ifs", "--resonance", "0.2", "0.3", "--ratios", "0.5"], 1,
     "--resonance and --ratios/--offsets are exclusive"),
    (["ifs", "--ratios", "0.5", "--offsets", "0", "--hull", "0,1,2"], 1,
     "--hull expects exactly two numbers LO,HI"),
    (["ifs", "--ratios", "0.5", "--offsets", "0", "--hull", "1,0"], 1,
     "hull must be a nondegenerate finite interval"),
    (["ifs", "--ratios", "0.5", "--offsets", "0,0.5"], 1,
     "need equally many ratios and offsets, at least one map"),
    (["ifs", "--ratios", "0.5", "--offsets", "0", "--depth", "-1"], 1,
     "depth must be >= 0"),
    (["ifs", "--resonance", "2", "0.5"], 1,
     "contraction ratios must lie in (0, 1)"),
    (["ifs", "--resonance", "0.2", "0.3", "--qmax", "0"], 1,
     "qmax must be >= 1"),
    (["sweep", "--command", "dim", "--start", "6", "--stop", "8",
      "--count", "0", "--k", "7"], 1, "sweep needs at least one grid point"),
    (["sweep", "--command", "dim", "--start", "8", "--stop", "6",
      "--count", "3", "--k", "7"], 1, "sweep needs start < stop"),
    (["sweep", "--command", "dim", "--start", "6", "--stop", "6",
      "--count", "3", "--k", "7"], 1, "sweep needs start < stop"),
    (["oracle", "--lambda", "5", "--n", "0"], 1, "matrix size must be >= 1"),
    # the eigensolver's starting window once overflowed into a traceback
    (["oracle", "--lambda", "9e307", "--n", "3"], 1,
     "the eigenvalue window [-9e+307, 9e+307] is wider than the largest "
     "double: the diagonal is past the precision floor"),
    *[(["oracle", "--lambda", "5", "--n", "8", *k, "--dilate", eps], 1,
       "dilation must be finite and >= 0")
      for k in (["--k", "3"], []) for eps in ("nan", "inf", "-1")],
    (["spectrum", "--lambda", "inf", "--k", "4"], 1,
     "coupling must be finite"),
    (["spectrum", "--lambda", "nan", "--k", "4"], 1,
     "coupling must be finite"),
    (["ifs", "--ratios", "0.6,0.6", "--offsets", "0,0.3"], 0,
     [_SIMILARITY_OVERLAP]),
    (["ifs", "--ratios", "0.5", "--offsets", "0"], 0, []),
    (["ifs", "--resonance", "0.3", "0.5"], 0, [_NON_RESONANCE]),
    # log 0.55265246928962 / log 0.5 is fl(77/90), resonant at qmax 1000
    (["ifs", "--resonance", "0.55265246928962", "0.5", "--qmax", "1000"], 0, []),
]


@pytest.mark.parametrize("argv, code, expected", REFUSALS_AND_CAVEATS,
                         ids=[" ".join(row[0]) for row in REFUSALS_AND_CAVEATS])
def test_refusals_and_caveats(argv, code, expected, capsys):
    """A refused argv exits 1 with its one stderr line and no output; an
    answered one exits 0 with exactly the caveats expected."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == f"fibspec: invalid arguments: {expected}\n"
    else:
        assert json.loads(captured.out)["caveats"] == expected
        assert re.fullmatch(rf"fibspec: {argv[0]} finished in [0-9.]+ ms\n",
                            captured.err)


_LABELS = {"periodic": "a"}
_SWEEPS = {
    "spectrum": (["--k", "3"], {"k": 3},
                 ["band_count_k", "band_count_k_plus_1", "cover_count",
                  "cover_lo", "cover_hi", "cover_total_length"]),
    "oracle": (["--n", "13"],
               {"dilate": 1e-2, "k": None, "n": 13, "omega0": 0.0,
                "tol": 1e-10},
               ["eigenvalue_count", "min_eigenvalue", "max_eigenvalue",
                "fraction_inside"]),
    "dim": (["--k", "4"], {"k": 4},
            ["band_count", "moran_value", "box_value", "box_stderr"]),
    "sum": (["--k", "4"], {"k": 4, "lambda2": None},
            ["hd1", "hd2", "sum_dim", "rhs", "gap", "sum_component_count"]),
    "periodic": ([], {}, ["log_ratio", "multiplier_p_closed",
                          "multiplier_q_closed"]),
}


def sweep_argv(name, extra=()):
    return (["sweep", "--command", name, "--start", "5", "--stop", "6",
             "--count", "2"] + _SWEEPS[name][0] + list(extra))


@pytest.mark.parametrize("name", sorted(_SWEEPS))
def test_sweep_config_defaults(name, capsys):
    _, out = run(sweep_argv(name), capsys)
    label = _LABELS.get(name, "lambda")
    config = json.loads(out)["config"]
    assert list(config) == (["command", "param", "start", "stop", "count"]
                            + sorted(_SWEEPS[name][1]))
    assert config == {"command": name, "param": label, "start": 5.0,
                      "stop": 6.0, "count": 2, **_SWEEPS[name][1]}


@pytest.mark.parametrize("name", sorted(_SWEEPS))
def test_sweep_csv_rows_as_wide_as_header(name, capsys):
    _, out = run(sweep_argv(name, ["--format", "csv"]), capsys)
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header == [_LABELS.get(name, "lambda")] + _SWEEPS[name][2]
    assert len(lines) == 3
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


@pytest.mark.parametrize("name, extra", [
    ("spectrum", []),
    ("oracle", ["--k", "5", "--omega0", "0.25", "--dilate", "0.1"]),
    ("dim", []),
    ("sum", ["--lambda2", "8"]),
    ("periodic", []),
])
def test_sweep_rows_equal_direct_runs(name, extra, capsys):
    _, out = run(sweep_argv(name, extra), capsys)
    doc = json.loads(out)
    flag = "--" + _LABELS.get(name, "lambda")
    for value, row in zip(doc["result"]["values"], doc["result"]["results"]):
        _, direct = run([name, flag, repr(value)] + _SWEEPS[name][0] + extra,
                        capsys)
        assert row == json.loads(direct)["result"]


@pytest.mark.parametrize("name, flag", [
    ("spectrum", "--k"), ("dim", "--k"), ("sum", "--k"), ("oracle", "--n")])
def test_sweep_requires_flag(name, flag, capsys):
    assert cli.main(["sweep", "--command", name, "--start", "1", "--stop",
                     "2", "--count", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"fibspec: invalid arguments: sweep --command "
                            f"{name} requires {flag}\n")


@pytest.mark.parametrize("name, extra, flag", [
    ("periodic", ["--k", "4", "--n", "3"], "--k"),
    ("periodic", ["--tol", "1e-9"], "--tol"),
    ("spectrum", ["--k", "3", "--n", "5"], "--n"),
    ("dim", ["--k", "4", "--lambda2", "6"], "--lambda2"),
    ("sum", ["--k", "4", "--dilate", "0.1"], "--dilate"),
    ("spectrum", ["--k", "3", "--tol", "1e-10"], "--tol"),
])
def test_sweep_refuses_flag_the_command_does_not_take(name, extra, flag,
                                                      capsys):
    # such a flag was once dropped silently, and the sweep exited 0
    assert cli.main(["sweep", "--command", name, "--start", "0.5", "--stop",
                     "0.5", "--count", "1", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"fibspec: invalid arguments: sweep --command "
                            f"{name} does not take {flag}\n")


def test_sweep_refuses_jobs(capsys):
    # a sweep runs its grid points in order, in this process
    assert cli.main(["sweep", "--command", "periodic", "--start", "0",
                     "--stop", "1", "--count", "3", "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("fibspec: error: unrecognized arguments: --jobs 2"
            in captured.err)


def test_oracle_refuses_bad_level_before_the_eigensolve(monkeypatch, capsys):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigenvalues called before --k was checked")
    monkeypatch.setattr(cli, "eigenvalues", no_eigensolve)
    assert cli.main(["oracle", "--lambda", "5", "--n", "2584",
                     "--k", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fibspec: invalid arguments: level must be >= 0" in captured.err


def test_oracle_over_the_site_cap_exits_three(monkeypatch, capsys):
    def nothing_built(*args, **kwargs):
        raise AssertionError("built before the size cap was checked")
    for name in ("fibonacci_tridiagonal", "band_hierarchy", "eigenvalues"):
        monkeypatch.setattr(cli, name, nothing_built)
    n = hamiltonian._EIGENSOLVE_SITE_CAP + 1
    assert cli.main(["oracle", "--lambda", "5", "--n", str(n),
                     "--k", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"fibspec: size cap exceeded: eigensolve matrix sites: {n} items "
            f"exceeds cap {n - 1}") in captured.err


@pytest.mark.parametrize("argv, floor", [
    (["oracle", "--lambda", "1e6", "--n", "2584"],
     "eigensolver tolerance 1e-10 is past the precision floor: energies "
     "near 1e+06 are 1.16e-10 apart"),
    (["sweep", "--command", "oracle", "--start", "1", "--stop", "2",
      "--count", "2", "--n", "5", "--tol", "1e-20"],
     "eigensolver tolerance 1e-20 is past the precision floor: energies "
     "near 3 are 4.44e-16 apart"),
], ids=["oracle", "sweep"])
def test_eigensolver_tolerance_below_the_floor_exits_one(argv, floor,
                                                         monkeypatch, capsys):
    """Refused before any Sturm count or band hierarchy; the first once
    bisected for half a second and exited 2 on a stalled bracket."""
    def nothing_run(*args, **kwargs):
        raise AssertionError("ran before the tolerance was checked")
    monkeypatch.setattr(hamiltonian.TridiagonalMatrix, "count_below", nothing_run)
    monkeypatch.setattr(cli, "band_hierarchy", nothing_run)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fibspec: invalid arguments: {floor}\n"


def test_weak_coupling_band_isolation_exits_two(capsys):
    assert cli.main(["spectrum", "--lambda", "0.01", "--k", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level 7: found 20 bands, expected 21" in captured.err


@pytest.mark.parametrize("argv, levels, width", [
    (["dim", "--lambda", "0.2", "--k", "8"], (6, 7), "1.34555"),
    (["dim", "--lambda", "0.3", "--k", "6"], (4, 5), "1.35642"),
    (["sum", "--lambda", "5", "--k", "3"], (0, 1), "4"),
    (["sum", "--lambda", "20", "--lambda2", "0.2", "--k", "12"], (9, 10),
     "0.31904"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_shared_widest_band_refused_by_name(argv, levels, width, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lam = argv[argv.index("--lambda2") + 1] if "--lambda2" in argv else argv[2]
    assert (f"fibspec: invalid arguments: cover levels {levels[0]} and "
            f"{levels[1]} at lambda={lam} share their widest band "
            f"(width {width})") in captured.err


@pytest.mark.parametrize("argv, message", [
    (["dim", "--lambda", "5", "--k", "2"], "need k >= 3 for the level ladder"),
    (["sum", "--lambda", "5", "--k", "2"], "need k >= 3 for the level ladder"),
    # the hierarchy's own refusals come before the ladder's depth check
    (["dim", "--lambda", "5", "--k", "-5"], "level must be >= 0"),
    (["dim", "--lambda", "0", "--k", "2"],
     "coupling must be > 0 for spectral band computation"),
    (["sum", "--lambda", "0", "--k", "2"],
     "coupling must be > 0 for spectral band computation"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_ladder_refusal_precedence(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fibspec: invalid arguments: {message}\n"


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["spectrum", "--lambda", "5", "--k", "2"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "fibspec", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    code, out = run(argv, capsys)
    assert (proc.returncode, proc.stdout) == (code, out)


# ----------------------------------------------------------------------
# One parser per call: a command's argv builds only that command's
# subparser, and parses exactly as the all-commands parser did
# ----------------------------------------------------------------------

def _parse(parser, argv, capsys):
    """Exit code, stdout and stderr of parsing argv: 1 for a usage error,
    argparse's own code where it exits (-h), 0 where it parses."""
    try:
        parser.parse_args(argv)
        code = 0
    except cli._UsageError:
        code = 1
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _required_argv(name: str, leave_out: str | None = None) -> list[str]:
    """name with a valid value for every required flag but leave_out."""
    argv = [name]
    for f in cli._COMMANDS[name].flags:
        if f.options.get("required") and f.name != leave_out:
            choices = f.options.get("choices")
            argv += [f.name, choices[0] if choices else "3"]
    return argv


def _parser_argvs() -> list[list[str]]:
    argvs = [[], ["-h"], ["nope"], ["--format", "csv"]]
    for name, command in cli._COMMANDS.items():
        argvs += [[name, "--bogus"], [name, "-h"], [name, command.flags[0].name],
                  [*_required_argv(name), "extra"], [name, "--format", "xml"]]
        argvs += [_required_argv(name, f.name) for f in command.flags
                  if f.options.get("required")]
    return argvs


@pytest.mark.parametrize("argv", _parser_argvs(), ids=" ".join)
def test_parser_of_one_command_parses_as_all_commands_parser(argv, capsys):
    got = _parse(cli.build_parser(argv), argv, capsys)
    assert got == _parse(oracles.all_commands_parser(), argv, capsys)
    if got[0] == 1:
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", got[2])


def test_parser_holds_only_the_invoked_command():
    def names(argv):
        parser = cli.build_parser(argv)
        return list(next(a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)).choices)

    for name in cli._COMMANDS:
        assert names([name, "--k", "3"]) == [name]
    for argv in ([], ["-h"], ["nope", "sum"], ["--format", "sum"]):
        assert names(argv) == list(cli._COMMANDS)


# ----------------------------------------------------------------------
# CSV tables written in blocks of lines
# ----------------------------------------------------------------------

def test_csv_rows_written_in_blocks(monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK_LINES", 7)
    values = np.linspace(-1.0, 1.0, 20)
    rows = [["a", np.arange(20), values, values[::-1]], ["b", 3, None, 0.5],
            ["c", np.arange(0), values[:0], values[:0]],
            ["d", np.arange(7), values[:7], values[:7]]]
    parts = []
    cli._csv_table(["set", "index", "lo", "hi"], rows, parts.append)
    assert [p.count("\n") for p in parts] == [1, 7, 7, 6, 1, 7]
    assert "".join(parts) == oracles.one_piece_csv_table(
        ["set", "index", "lo", "hi"], rows)


def _one_piece(header, rows, write):
    write(oracles.one_piece_csv_table(header, rows))


@pytest.mark.parametrize("argv, block", [
    (["spectrum", "--lambda", "5", "--k", "9", "--format", "csv"], 7),
    (["ifs", "--ratios", "0.25,0.25", "--offsets", "0,0.75", "--depth", "6",
      "--format", "csv"], 5),
    (["sweep", "--command", "spectrum", "--start", "2", "--stop", "5",
      "--count", "4", "--k", "6", "--format", "csv"], 1),
    (["sum", "--lambda", "20", "--k", "12", "--format", "csv"], None),
], ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_csv_blocks_match_one_piece_rendering(argv, block, tmp_path,
                                              monkeypatch, capsys):
    """Through stdout and through --out, a table of several blocks is
    byte for byte the one-piece rendering."""
    if block is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_LINES", block)
    code, blocked = run(argv, capsys)
    assert code == 0
    assert blocked.count("\n") > 2 * cli._CSV_BLOCK_LINES
    target = tmp_path / "o.csv"
    assert cli.main([*argv, "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == blocked
    monkeypatch.setattr(cli, "_csv_table", _one_piece)
    assert run(argv, capsys) == (0, blocked)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_non_finite_in_last_block_refused_before_first_byte(to_file, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CSV_BLOCK_LINES", 4)
    lo = np.arange(10.0)
    hi = lo + 0.5
    hi[-1] = math.nan

    def payload(**kwargs):
        return ({}, {}, [], lambda write: cli._csv_table(
            ["set", "index", "lo", "hi"],
            [["a", np.arange(10), lo, lo + 0.5], ["b", np.arange(10), lo, hi]],
            write))

    monkeypatch.setitem(cli._COMMANDS, "spectrum", dataclasses.replace(
        cli._COMMANDS["spectrum"], payload=payload))
    argv = ["spectrum", "--lambda", "5", "--k", "3", "--format", "csv"]
    if to_file:
        argv += ["--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fibspec: invalid arguments: non-finite value in "
                            "output document\n")
    assert list(tmp_path.iterdir()) == []
