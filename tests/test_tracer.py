"""The benchmark's per-layer tracer (perfbench/layers.py) wraps the package
from outside, by name.  It counts band hierarchies by wrapping
``spectrum.band_hierarchy`` wherever a module imported it, and reads each
result's length and levels; it takes len() of what the sums and box
counts are given and return.  These tests run that tracer, unedited, over
a few commands, so a change that moves the hierarchy out of its sight, or
hands a traced function something without a length, shows here and not
only as a silent zero or a failed operation in a benchmark run."""

import importlib.util
from pathlib import Path

from fibspec import cli, spectrum, sumset
from fibspec.spectrum import fibonacci_number

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_hierarchy_of_spectrum_and_dim(capsys):
    original = spectrum.band_hierarchy
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        assert cli.band_hierarchy is not original  # wrapped where cli calls it
        assert cli.main(["spectrum", "--lambda", "5", "--k", "8"]) == 0
        assert cli.main(["dim", "--lambda", "5", "--k", "8"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    # each command builds sigma_0 .. sigma_9 once: F_0 + .. + F_9 bands
    bands = sum(fibonacci_number(j) for j in range(10))
    assert bands == fibonacci_number(11) - 1 == 143
    assert metrics["spectrum.hierarchy_calls"] == 2
    assert metrics["spectrum.levels_built"] == 2 * 10
    assert metrics["spectrum.bands_out"] == 2 * bands
    assert tracer.calls["spectrum.band_hierarchy"] == 2
    for module in (cli, spectrum, sumset):
        assert module.band_hierarchy is original


def test_tracer_runs_sum_and_counts_only_listed_sums(capsys):
    """The tracer takes len() of box_count's first argument, so the sum
    check streams its sums through private helpers only, the listed CSV
    cover too: no sum passes through a traced function, and only the
    factor ladders are box-counted in its sight.  Traced documents equal
    untraced ones."""
    argvs = (["sum", "--lambda", "20", "--k", "12"],
             ["sum", "--lambda", "0.5", "--k", "10"],
             ["sum", "--lambda", "5", "--k", "10", "--format", "csv"])
    untraced = []
    for argv in argvs:
        assert cli.main(argv) == 0
        untraced.append(capsys.readouterr().out)
    original = sumset.check_theorem_rect
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        traced = []
        for argv in argvs:
            assert cli.main(argv) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.metrics()
    ladders = [spectrum.band_hierarchy(lam, k + 1).ladder(k)[1]
               for lam, k in ((20.0, 12), (0.5, 10), (5.0, 10))]
    assert untraced[2].count("\n") > 1  # a header and listed components
    assert metrics["sumset.pairs_formed"] == 0
    assert metrics["sumset.components_out"] == 0
    assert metrics["dimension.components_counted"] == sum(
        len(c) for covers in ladders for c in covers)
    assert tracer.calls["sumset.minkowski_sum"] == 0
    assert tracer.calls["sumset.check_theorem_rect"] == 3
    assert cli.check_theorem_rect is original
