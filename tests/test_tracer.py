"""The benchmark's per-layer tracer (perfbench/layers.py) wraps the package
from outside, by name.  It counts band hierarchies by wrapping
``spectrum.band_hierarchy`` wherever a module imported it, and reads each
result's length and levels.  These tests run that tracer, unedited, over
two commands, so a change that moves the hierarchy out of its sight shows
here and not only as a silent zero in a benchmark run."""

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
