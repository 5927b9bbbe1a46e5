import dataclasses
import json
import math
import os
import stat

import pytest

from fibspec import cli
from fibspec.errors import BandIsolationError
from fibspec.sumset import CROSS_CHECK_TOL

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


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["oracle", "--lambda", "5", "--n", "8"],
    ["spectrum", "--lambda", "5", "--k", "3"],
    ["dim", "--lambda", "5", "--k", "4"],
    ["sum", "--lambda", "5", "--k", "4"],
    ["sweep", "--command", "oracle", "--n", "8", "--start", "1", "--stop",
     "2", "--count", "2"],
], ids=lambda a: a[0])
def test_non_finite_tol_exits_one(argv, tol, capsys):
    assert cli.main(argv + ["--tol", tol]) == 1
    err = capsys.readouterr().err
    assert "fibspec: invalid arguments: tolerance must be finite" in err


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
    def payload(**kwargs):
        return ({}, {"x": math.inf}, [],
                lambda: cli._csv_table(["x"], [[math.inf]]))
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


@pytest.mark.parametrize("lam, lam2, k, tol", [
    ("20", None, "12", "1e-12"),   # partition exponent agrees with box
    ("5", None, "8", "1e-10"),     # disagrees
    ("1", None, "8", "1e-12"),     # bands too coarse for one
    ("20", "1", "10", "1e-12"),    # two factors: disagrees, too coarse
])
def test_sum_factors_are_dim_estimates(lam, lam2, k, tol, capsys):
    """sum's hd1/hd2 are dim's box estimates, and sum flags a factor
    exactly where dim's partition exponent is missing or is more than
    CROSS_CHECK_TOL from the box value."""
    argv = ["sum", "--lambda", lam, "--k", k, "--tol", tol]
    code, out = run(argv + ([] if lam2 is None else ["--lambda2", lam2]),
                    capsys)
    assert code == 0
    doc = json.loads(out)
    for key, factor, which in (("hd1", lam, "factor 1"),
                               ("hd2", lam2 or lam, "factor 2")):
        code, out = run(["dim", "--lambda", factor, "--k", k, "--tol", tol],
                        capsys)
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


def test_sweep_parallel_equals_serial(capsys):
    base = ["sweep", "--command", "periodic", "--start", "0.1", "--stop",
            "1.1", "--count", "4"]
    _, serial = run(base + ["--jobs", "1"], capsys)
    _, parallel = run(base + ["--jobs", "2"], capsys)
    assert json.loads(serial)["result"] == json.loads(parallel)["result"]


def test_jobs_env_default(monkeypatch, capsys):
    monkeypatch.setenv("FIBSPEC_JOBS", "2")
    base = ["sweep", "--command", "periodic", "--start", "0.1", "--stop",
            "0.5", "--count", "3"]
    _, with_env = run(base, capsys)
    monkeypatch.delenv("FIBSPEC_JOBS")
    _, without = run(base, capsys)
    assert json.loads(with_env)["result"] == json.loads(without)["result"]


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


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    maps in this process, so no process is ever started."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, count, cpus, workers", [
    ("100000", 3, 8, 3),
    ("100000", 6, 4, 4),
    ("3", 6, 4, 3),
    ("100000", 6, None, None),
    ("100000", 1, 8, None),
])
@pytest.mark.parametrize("via_env", [False, True])
def test_sweep_workers_capped(jobs, count, cpus, workers, via_env,
                              monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "requested", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    base = ["sweep", "--command", "periodic", "--start", "0.1", "--stop",
            "1.1", "--count", str(count)]
    _, serial = run(base + ["--jobs", "1"], capsys)
    if via_env:
        monkeypatch.setenv("FIBSPEC_JOBS", jobs)
        _, out = run(base, capsys)
    else:
        _, out = run(base + ["--jobs", jobs], capsys)
    assert _SerialPool.requested == ([] if workers is None else [workers])
    assert out == serial


_LABELS = {"periodic": "a"}
_SWEEPS = {
    "spectrum": (["--k", "3"], {"k": 3, "tol": 1e-12},
                 ["band_count_k", "band_count_k_plus_1", "cover_count",
                  "cover_lo", "cover_hi", "cover_total_length"]),
    "oracle": (["--n", "13"],
               {"dilate": 1e-2, "k": None, "n": 13, "omega0": 0.0,
                "tol": 1e-10},
               ["eigenvalue_count", "min_eigenvalue", "max_eigenvalue",
                "fraction_inside"]),
    "dim": (["--k", "4"], {"k": 4, "tol": 1e-12},
            ["band_count", "moran_value", "box_value", "box_stderr"]),
    "sum": (["--k", "4"], {"k": 4, "lambda2": None, "tol": 1e-12},
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
    ("spectrum", ["--tol", "1e-10"]),
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


def test_oracle_refuses_bad_level_before_the_eigensolve(monkeypatch, capsys):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigenvalues called before --k was checked")
    monkeypatch.setattr(cli, "eigenvalues", no_eigensolve)
    assert cli.main(["oracle", "--lambda", "5", "--n", "2584",
                     "--k", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fibspec: invalid arguments: level must be >= 0" in captured.err


def test_weak_coupling_band_isolation_exits_two(capsys):
    assert cli.main(["spectrum", "--lambda", "0.01", "--k", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level 7: found 20 bands, expected 21" in captured.err
