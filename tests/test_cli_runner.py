import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlintsim.cli_runner as cli
from nlintsim.cli_runner import (
    ScenarioError,
    export_series,
    main,
    parse_scenario,
    render_scenario,
    run_scenario,
)

MINIMAL = """
[crystal]
preset = mgo_linbo3
length_mm = 5.0

[pump]
t0_fs = 212.0

[tasks]
run = schmidt

[grid]
kernel = gaussian
points = 512
"""

OCT_SCENARIO = """
[crystal]
preset = mgo_linbo3
length_mm = 0.5

[pump]
t0_ps = 100.0

[sample]
type = bilayer
n_before = 1.0
n_slab = 1.5
n_after = 1.3
thickness_um = 20.0

[scan]
fringes = false
points = 1201

[tasks]
run = oct_scan, g1_scan

[grid]
points = 512
"""


# ---------------------------------------------------------------- parsing

def test_minimal_scenario_defaults():
    s = parse_scenario(MINIMAL)
    assert s.crystal.length_mm == 5.0
    assert s.pump.t0_fs == 212.0
    assert s.synchronize
    assert s.tasks == ("schmidt",)
    assert s.output_format == "csv"
    assert s.jsi_stride == 1
    assert abs(s.sample.r - 1.0) == 0.0  # default lossless mirror


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match=r"\[crystal\] lenght_mm"):
        parse_scenario(MINIMAL.replace("length_mm", "lenght_mm"))


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match=r"\[detector\]"):
        parse_scenario(MINIMAL + "\n[detector]\nmodel = apd\n")


def test_unknown_task_rejected():
    with pytest.raises(ScenarioError, match="unknown task"):
        parse_scenario(MINIMAL.replace("run = schmidt", "run = schmidt, render"))


def test_syntax_error_carries_line_number():
    bad = MINIMAL.replace("t0_fs = 212.0", "t0_fs 212.0")
    with pytest.raises(ScenarioError, match=r"line"):
        parse_scenario(bad)


def test_passivity_violation_has_field_path():
    text = MINIMAL + "\n[sample]\ntype = bilayer\nr0 = 0.8\nr1 = 0.4\nthickness_um = 20\nn_slab = 1.5\n"
    with pytest.raises(ScenarioError, match=r"\[sample\]"):
        parse_scenario(text)


def test_pump_units_exclusive():
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(MINIMAL.replace("t0_fs = 212.0", "t0_fs = 212.0\nt0_ps = 0.212"))


def test_zp2_conflicts_with_synchronize():
    text = MINIMAL + "\n[geometry]\nzp2_mm = 4.0\nsynchronize = true\n"
    with pytest.raises(ScenarioError, match="zp2_mm"):
        parse_scenario(text)


def test_round_trip_canonical():
    bundled = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.ini"))]
    assert len(bundled) == 9
    for text in (MINIMAL, OCT_SCENARIO, *bundled):
        s = parse_scenario(text)
        assert parse_scenario(render_scenario(s)) == s


def _grid_line(line):
    return MINIMAL.replace("points = 512", f"points = 512\n{line}")


INVALID_NUMBERS = [
    pytest.param(MINIMAL.replace("t0_fs = 212.0", "t0_fs = nan"), "[pump] t0_fs", id="t0-nan"),
    pytest.param(
        MINIMAL.replace("length_mm = 5.0", "length_mm = inf"), "[crystal] length_mm",
        id="length-inf",
    ),
    pytest.param(MINIMAL + "\n[geometry]\nz1_mm = -inf\n", "[geometry] z1_mm", id="z1-inf"),
    pytest.param(MINIMAL + "\n[sample]\nr_abs = nan\n", "[sample] r_abs", id="r-nan"),
    pytest.param(
        MINIMAL + "\n[scan]\ndelta_z_min_mm = nan\ndelta_z_max_mm = 0.1\n",
        "[scan] delta_z_min_mm", id="dz-min-nan",
    ),
    pytest.param(
        MINIMAL + "\n[scan]\ndelta_z_min_mm = -0.1\ndelta_z_max_mm = inf\n",
        "[scan] delta_z_max_mm", id="dz-max-inf",
    ),
    pytest.param(MINIMAL + "\n[scan]\npoints = 0\n", "[scan] points", id="scan-points-0"),
    pytest.param(MINIMAL + "\n[scan]\npoints = 1\n", "[scan] points", id="scan-points-1"),
    pytest.param(
        _grid_line("half_width_rad_fs = 0"), "[grid] half_width_rad_fs", id="half-width-0"
    ),
    pytest.param(
        _grid_line("half_width_rad_fs = -1"), "[grid] half_width_rad_fs", id="half-width-neg"
    ),
    pytest.param(
        MINIMAL + "\n[scan]\ndelta_z_min_mm =\ndelta_z_max_mm = 0.3\n",
        "[scan] delta_z_min_mm", id="dz-min-empty",
    ),
    pytest.param(
        _grid_line("half_width_rad_fs ="), "[grid] half_width_rad_fs", id="half-width-empty"
    ),
    pytest.param(MINIMAL + "\n[scan]\npoints =\n", "[scan] points", id="scan-points-empty"),
    pytest.param(
        MINIMAL + f"\n[sample]\ntype = tabulated\nfile = {Path(__file__).parent}\n",
        "[sample] file: not a file", id="sample-file-is-directory",
    ),
]


@pytest.mark.parametrize("text,field", INVALID_NUMBERS)
def test_invalid_number_rejected_before_compute(tmp_path, capsys, text, field):
    with pytest.raises(ScenarioError, match=re.escape(field)):
        parse_scenario(text)
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


R_PAIR = "\n[sample]\ntype = bilayer\nr0 = 0.2\nr1 = 0.3\nthickness_um = 20\nn_slab = 1.5\n"


@pytest.mark.parametrize("text,field", [
    pytest.param(
        MINIMAL.replace("length_mm = 5.0", "length_mm = 5.0\nd_fs_per_mm = 100.0"),
        "[crystal] d_fs_per_mm", id="preset-with-d",
    ),
    pytest.param(MINIMAL + "\n[sample]\nr0 = 0.5\n", "[sample] r0", id="uniform-with-r0"),
    pytest.param(
        MINIMAL + "\n[sample]\ntype = uniform\nthickness_um = 20\n",
        "[sample] thickness_um", id="uniform-with-thickness",
    ),
    pytest.param(MINIMAL + "\n[sample]\nfile = r.csv\n", "[sample] file", id="uniform-with-file"),
    pytest.param(MINIMAL + R_PAIR + "n_before = 1.0\n", "[sample] n_before",
                 id="r-pair-with-n-before"),
    pytest.param(MINIMAL + R_PAIR + "n_after = 1.3\n", "[sample] n_after",
                 id="r-pair-with-n-after"),
    pytest.param(
        MINIMAL + "\n[sample]\ntype = bilayer\nr1 = 0.3\nthickness_um = 20\nn_slab = 1.5\n"
        "n_after = 1.3\n",
        "[sample] r1", id="fresnel-with-r1",
    ),
])
def test_unused_key_rejected_before_compute(tmp_path, capsys, text, field):
    message = f"{field}: not used by this scenario"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(text)
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@settings(max_examples=300, deadline=None)
@given(
    r_abs=st.floats(0.0, 1.0),
    r_phase=st.floats(-np.pi, np.pi),
)
def test_lossy_uniform_round_trip(r_abs, r_phase):
    text = MINIMAL + f"\n[sample]\nr_abs = {r_abs!r}\nr_phase_rad = {r_phase!r}\n"
    s = parse_scenario(text)
    canonical = render_scenario(s)
    assert parse_scenario(canonical) == s
    assert render_scenario(parse_scenario(canonical)) == canonical


# ---------------------------------------------------------------- exports

def test_export_series_empty_is_header_only():
    assert export_series(["a", "b"], [], "csv") == "a,b\n"


def test_export_series_nine_significant_digits():
    out = export_series(["x"], [(1.0 / 3.0,)], "csv")
    assert out == "x\n0.333333333\n"


def test_export_series_json_schema():
    payload = json.loads(export_series(["x", "y"], [(1.0, 2.0)], "json"))
    assert payload == {"columns": ["x", "y"], "rows": [[1.0, 2.0]]}


def test_export_series_unknown_format():
    with pytest.raises(ValueError):
        export_series(["x"], [], "yaml")


# ---------------------------------------------------------------- running

def test_run_scenario_writes_outputs(tmp_path):
    s = parse_scenario(MINIMAL)
    manifest = run_scenario(s, out_dir=tmp_path)
    assert manifest.files["schmidt"] == ["schmidt.json"]
    payload = json.loads((tmp_path / "schmidt.json").read_text())
    assert payload["schmidt_number_K"] == pytest.approx(1.0, abs=1e-2)
    assert sum(payload["coefficients"]) == pytest.approx(1.0, abs=1e-6)
    assert (tmp_path / "run_manifest.json").exists()
    for task in s.tasks:
        assert len(manifest.files[task]) >= 1


def test_run_scenario_deterministic(tmp_path):
    s = parse_scenario(OCT_SCENARIO)
    m1 = run_scenario(s, out_dir=tmp_path / "a")
    m2 = run_scenario(s, out_dir=tmp_path / "b")
    assert m1.digest == m2.digest
    assert m1.scenario_digest == m2.scenario_digest
    for name in ("interferogram.csv", "peaks.json", "g1_scan.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_scenario_oct_outputs(tmp_path):
    s = parse_scenario(OCT_SCENARIO)
    manifest = run_scenario(s, out_dir=tmp_path)
    peaks = json.loads((tmp_path / "peaks.json").read_text())
    assert len(peaks["positions_mm"]) == 2
    assert peaks["separations_um"][0] == pytest.approx(60.0, abs=1.0)
    assert peaks["resolved"] is True
    assert manifest.convergence["oct_scan"]["method"] == "analytic"
    assert manifest.convergence_ok


def test_peaks_json_carries_nine_significant_digits(tmp_path, monkeypatch):
    report = cli.oct_scan.PeakReport(
        positions_mm=(-0.04257523722473311, -5.1857778087249784e-05),
        separations_um=(42.52337944664586,),
        fwhm_um=(float("nan"), 28.96301264881709),
        resolved=False,
    )
    monkeypatch.setattr(cli.oct_scan, "envelope_peaks", lambda ifg: report)
    run_scenario(parse_scenario(OCT_SCENARIO), out_dir=tmp_path)
    text = (tmp_path / "peaks.json").read_text()
    assert "NaN" in text
    peaks = json.loads(text)
    assert peaks["positions_mm"] == [-0.0425752372, -5.18577781e-05]
    assert peaks["separations_um"] == [42.5233794]
    assert np.isnan(peaks["fwhm_um"][0]) and peaks["fwhm_um"][1] == 28.9630126


def test_run_scenario_joint_spectrum_bundle(tmp_path):
    text = MINIMAL.replace("run = schmidt", "run = joint_spectrum, g1_scan")
    s = parse_scenario(text)
    manifest = run_scenario(s, out_dir=tmp_path)
    names = [n for task in s.tasks for n in manifest.files[task]]
    assert names == ["joint_spectrum.csv", "g1_scan.csv"]
    header = (tmp_path / "joint_spectrum.csv").read_text().splitlines()[0]
    assert header.startswith("omega_s\\omega_i,")
    g1_lines = (tmp_path / "g1_scan.csv").read_text().splitlines()
    assert g1_lines[0] == "delta_z_mm,g1_abs,g1_phase"
    mags = np.array([float(line.split(",")[1]) for line in g1_lines[1:]])
    assert np.all(mags <= 1.0 + 1e-6)


def test_run_scenario_json_format(tmp_path):
    text = OCT_SCENARIO.replace("run = oct_scan, g1_scan", "run = oct_scan")
    s = dataclasses.replace(parse_scenario(text), output_format="json")
    manifest = run_scenario(s, out_dir=tmp_path)
    assert manifest.files["oct_scan"] == ["interferogram.json", "peaks.json"]
    payload = json.loads((tmp_path / "interferogram.json").read_text())
    assert payload["columns"] == ["delta_z_mm", "flux_norm", "envelope"]


class _TwoArgError(RuntimeError):
    """Built from two arguments, like numpy's out-of-memory error."""

    def __init__(self, shape, dtype):
        super().__init__(f"cannot allocate {shape} of {dtype}")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_task_failure_keeps_exception_type(tmp_path, monkeypatch, workers):
    def fail(scenario, points):
        raise _TwoArgError((4096, 4096), "complex128")

    monkeypatch.setitem(cli._TASK_FN, "schmidt", fail)
    monkeypatch.setenv(cli.WORKERS_ENV, workers)
    with pytest.raises(_TwoArgError) as info:
        run_scenario(parse_scenario(MINIMAL), out_dir=tmp_path)
    assert type(info.value) is _TwoArgError
    assert info.value.__notes__ == ["task schmidt"]


def test_cli_names_the_failing_task(tmp_path, monkeypatch, capsys):
    def fail(scenario, points):
        raise cli.AnalysisError("no half-maximum crossing")

    monkeypatch.setitem(cli._TASK_FN, "schmidt", fail)
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
    assert "error: task schmidt: no half-maximum crossing" in capsys.readouterr().err


@pytest.mark.parametrize("method,flagged", [
    ("halved-resolution", True),
    ("unavailable", False),
])
def test_nan_delta_fails_the_gate(tmp_path, monkeypatch, capsys, method, flagged):
    def nan_delta(scenario, points):
        return {}, {"delta": float("nan"), "method": method}, {}

    monkeypatch.setitem(cli._TASK_FN, "schmidt", nan_delta)
    manifest = run_scenario(parse_scenario(MINIMAL), out_dir=tmp_path / "direct")
    assert manifest.convergence["schmidt"]["flagged"] is flagged
    assert manifest.convergence_ok is not flagged
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == (2 if flagged else 0)


UNIFORM_OCT = MINIMAL.replace("run = schmidt", "run = oct_scan") + "\n[scan]\nfringes = false\n"
TABULATED_SAMPLE = "\n[sample]\ntype = tabulated\nfile = r.csv\n"


@pytest.mark.parametrize("text,builds", [
    pytest.param(MINIMAL.replace("run = schmidt", "run = g1_scan"), 0, id="g1-scan"),
    pytest.param(UNIFORM_OCT, 0, id="oct-scan-numeric"),
    pytest.param(OCT_SCENARIO.replace("run = oct_scan, g1_scan", "run = oct_scan"), 0,
                 id="oct-scan-bilayer"),
    pytest.param(MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE, 2,
                 id="g1-scan-tabulated"),
    pytest.param(UNIFORM_OCT + TABULATED_SAMPLE, 2, id="oct-scan-tabulated"),
])
def test_scan_task_builds_one_full_resolution_correlator(tmp_path, monkeypatch, text, builds):
    # uniform and bilayer samples take the closed form; a tabulated one is the
    # numeric route: one full-resolution and one half-resolution correlator
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n8,0.5,0.1\n")
    built = []

    class CountingCorrelator(cli.coherence.PairCorrelator):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["resolution"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli.coherence, "PairCorrelator", CountingCorrelator)
    manifest = run_scenario(parse_scenario(text, base_dir=tmp_path), out_dir=tmp_path / "out")
    assert len(built) == builds
    assert sorted(built) == [0.125, 0.25][:builds]
    method = "halved-resolution" if builds else "analytic"
    assert [entry["method"] for entry in manifest.convergence.values()] == [method]


@pytest.mark.parametrize("value,code", [
    pytest.param("two", 1, id="not-an-integer"),
    pytest.param("", 0, id="empty-means-one"),
])
def test_workers_env_checked_before_output(tmp_path, monkeypatch, capsys, value, code):
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == code
    if code:
        assert f"{cli.WORKERS_ENV}: not an integer: 'two'" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ScenarioError, match=cli.WORKERS_ENV):
            run_scenario(parse_scenario(MINIMAL), out_dir=out)
        assert not out.exists()
    else:
        assert (out / "schmidt.json").exists()


# each factory takes the real function and returns a stand-in with a NaN or
# inf in one series that its task writes
def _nan_closed_form(original):
    def fake(crystal, pump, geometry, sample, delta_z_mm, **kwargs):
        return np.full(np.size(delta_z_mm), complex(np.nan, 0.0))
    return fake


def _nan_spectrum(original):
    def fake(*args, **kwargs):
        spectrum = original(*args, **kwargs)
        return dataclasses.replace(spectrum, density=np.full_like(spectrum.density, np.nan))
    return fake


def _inf_jsa(original):
    def fake(*args):
        js = original(*args)
        amplitude = js.amplitude.copy()
        amplitude[0, 0] = np.inf
        return dataclasses.replace(js, amplitude=amplitude)
    return fake


def _nan_schmidt(original):
    def fake(js):
        return cli.biphoton.SchmidtReport(
            coefficients=np.array([1.0]), schmidt_number_K=np.nan, entropy_bits=0.0
        )
    return fake


@pytest.mark.parametrize("task,owner,name,factory,series", [
    pytest.param("g1_scan", "coherence", "g1_closed_form", _nan_closed_form, "g1_abs",
                 id="g1-scan"),
    pytest.param("spectrum", "biphoton", "signal_spectrum", _nan_spectrum, "density",
                 id="spectrum"),
    pytest.param("joint_spectrum", "biphoton", "joint_spectral_intensity", _inf_jsa,
                 "intensity", id="jsi-slice"),
    pytest.param("schmidt", "biphoton", "schmidt_analysis", _nan_schmidt,
                 "schmidt_number_K", id="schmidt-json"),
])
def test_non_finite_output_fails_closed(tmp_path, monkeypatch, capsys, task, owner, name,
                                        factory, series):
    module = getattr(cli, owner)
    monkeypatch.setattr(module, name, factory(getattr(module, name)))
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL.replace(
        "run = schmidt", "run = joint_spectrum, schmidt, g1_scan, spectrum"
    ))
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: task {task}: series {series} holds a non-finite value" in err
    assert list(out.iterdir()) == []


def test_run_scenario_grid_override_changes_density(tmp_path):
    s = parse_scenario(MINIMAL)
    manifest = run_scenario(s, out_dir=tmp_path, grid_points=640)
    assert manifest.grid_points == 640


# ---------------------------------------------------------------- CLI

def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "mgo_linbo3" in out
    assert "532" in out


def test_cli_run_ok(tmp_path, capsys):
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "schmidt.json").exists()


def test_cli_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1


@pytest.mark.parametrize("name", ["nope.ini", "a_directory.ini"])
def test_cli_scenario_path_not_a_file(tmp_path, capsys, name):
    (tmp_path / "a_directory.ini").mkdir()
    assert main(["run", str(tmp_path / name), "--out", str(tmp_path / "out")]) == 1
    assert "error: no such scenario file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_validation_error(tmp_path, capsys):
    scen = tmp_path / "bad.ini"
    scen.write_text(MINIMAL.replace("[pump]\nt0_fs = 212.0", "[pump]"))
    assert main(["run", str(scen)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_convergence_gate_exit_code(tmp_path, monkeypatch, capsys):
    # an impossibly tight gate must be reported through exit code 2
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL.replace("run = schmidt", "run = spectrum"))
    monkeypatch.setattr(cli, "CONVERGENCE_GATE", 1e-30)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2


def test_cli_grid_points_too_small(tmp_path):
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    assert main(["run", str(scen), "--out", str(tmp_path / "o"), "--grid-points", "64"]) == 1


TABULATED_OCT = """
[crystal]
preset = mgo_linbo3
length_mm = 0.5

[pump]
t0_ps = 100.0

[sample]
type = tabulated
file = r.csv

[tasks]
run = oct_scan
"""


@pytest.mark.parametrize("scenario,points", [
    pytest.param("g1_quasi_cw.ini", "100", id="g1-scan-100"),
    pytest.param("oct_long_crystal_pulsed.ini", "-5", id="oct-bilayer-negative"),
    pytest.param("oct_long_crystal_pulsed.ini", "0", id="oct-bilayer-zero"),
    pytest.param(None, "255", id="oct-tabulated-255"),
])
def test_grid_points_override_rejected_before_compute(tmp_path, capsys, scenario, points):
    if scenario is None:
        (tmp_path / "r.csv").write_text("omega,re,im\n-2,0.2,0\n2,0.2,0\n")
        path = tmp_path / "s.ini"
        path.write_text(TABULATED_OCT)
    else:
        path = SCENARIO_DIR / scenario
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--grid-points", points]) == 1
    assert f"grid points must be at least 256, got {points}" in capsys.readouterr().err
    assert not out.exists()
    s = parse_scenario(path.read_text(), base_dir=path.parent)
    with pytest.raises(ScenarioError, match="grid points must be at least 256"):
        run_scenario(s, out_dir=out, grid_points=int(points))
    assert not out.exists()


def test_run_builds_each_jsa_once(tmp_path, monkeypatch):
    built = []
    build = cli.biphoton.joint_spectral_intensity

    def counting(kernel, crystal, pump, grid):
        built.append(grid.n_points)
        time.sleep(0.2)  # a concurrent task asks for the same grid meanwhile
        return build(kernel, crystal, pump, grid)

    monkeypatch.setattr(cli.biphoton, "joint_spectral_intensity", counting)
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = joint_spectrum, schmidt"))
    m_serial = run_scenario(s, out_dir=tmp_path / "serial")
    assert sorted(built) == [256, 512]
    # a second run builds its own JSAs, with two tasks at once asking for each
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    m_pool = run_scenario(s, out_dir=tmp_path / "pool")
    assert sorted(built) == [256, 256, 512, 512]
    assert m_pool.digest == m_serial.digest


# ---------------------------------------------------------------- shipped recipes

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_shipped_scenarios_parse():
    files = sorted(SCENARIO_DIR.glob("*.ini"))
    assert len(files) >= 9
    for path in files:
        s = parse_scenario(path.read_text(), base_dir=path.parent)
        assert s.tasks


def test_shipped_g1_recipe_runs(tmp_path):
    s = parse_scenario((SCENARIO_DIR / "g1_mixed_2ps.ini").read_text())
    manifest = run_scenario(s, out_dir=tmp_path)
    assert manifest.files["g1_scan"] == ["g1_scan.csv"]
    assert manifest.convergence_ok


def test_worker_count_env_preserves_results(tmp_path, monkeypatch):
    s = parse_scenario(OCT_SCENARIO)
    m_serial = run_scenario(s, out_dir=tmp_path / "serial")
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    m_pool = run_scenario(s, out_dir=tmp_path / "pool")
    assert m_pool.digest == m_serial.digest


# ---------------------------------------------------------------- packaging

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _python(*args):
    path = os.pathsep.join(p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_python_m_nlintsim_presets():
    proc = _python("-m", "nlintsim", "presets")
    assert proc.returncode == 0, proc.stderr
    assert "mgo_linbo3" in proc.stdout
    assert "Warning" not in proc.stderr


def test_import_without_scipy():
    proc = _python("-c", "import sys; sys.modules['scipy'] = None; import nlintsim")
    assert proc.returncode == 0, proc.stderr
