"""perfbench's tracer binds nlintsim functions by attribute and argument name.

The traced pass wraps ``joint_spectral_intensity`` and ``schmidt_analysis``
and reads their ``grid`` and ``js`` arguments (``grid.omega_s``,
``grid.n_points``). A rename there would leave the per-layer metrics silently
empty, so this calls both under the tracer, beside one bundled scenario run
that no longer reaches them.
"""

from pathlib import Path

import pytest

from nlintsim import biphoton, cli_runner, make_frequency_grid, parse_scenario

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return tracing


def test_tracer_counts_the_joint_spectrum_layer(tracing, tmp_path):
    text = (ROOT / "scenarios" / "jsi_separable.ini").read_text()
    assert "points = 2048" in text and "kernel = gaussian" in text
    text = text.replace("points = 2048", "points = 384")
    scenario = parse_scenario(text.replace("kernel = gaussian", "kernel = exact"))
    original = biphoton.joint_spectral_intensity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert biphoton.joint_spectral_intensity is not original
        tracer.begin_item({"id": "jsi_separable"}, scenario.grid_points, scenario.tasks)
        cli_runner.run_scenario(scenario, out_dir=tmp_path)
        # the exact-kernel run streams both tasks: it builds no JSA
        assert tracer.counts["biphoton.jsa_calls"] == 0
        assert tracer.counts["biphoton.schmidt_calls"] == 0
        # the library oracles on the run grid and its coarsen grid
        for points in (384, 256):
            grid = make_frequency_grid(scenario.crystal, scenario.pump, points)
            js = biphoton.joint_spectral_intensity("exact", scenario.crystal, scenario.pump, grid)
            biphoton.schmidt_analysis(js)
        tracer.end_item()
    finally:
        tracer.remove()
    assert biphoton.joint_spectral_intensity is original
    trace = tracer.dump()
    assert trace["counts"]["biphoton.jsa_calls"] == 2
    assert trace["counts"]["biphoton.schmidt_calls"] == 2
    assert trace["distinct"]["biphoton.jsa"] == 2
