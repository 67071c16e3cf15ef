import configparser
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nlintsim.cli_runner as cli
from nlintsim.cli_runner import (
    ScenarioError,
    export_series,
    main,
    parse_scenario,
    render_scenario,
    run_scenario,
)
from nlintsim.optics_model import (
    C_MM_FS, SINC_GAUSS_ALPHA, FrequencyGrid, PumpPulse, TabulatedSample, _symmetric_axis,
    mgo_linbo3_crystal,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

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


def test_render_needs_a_tabulated_samples_file_name():
    # a table given as arrays has no file for its canonical text to name
    table = TabulatedSample(omega=(-1.0, 1.0), r=(0.5, 0.5))
    s = dataclasses.replace(parse_scenario(MINIMAL), sample=table)
    with pytest.raises(ScenarioError, match="tabulated sample has no source file to render"):
        render_scenario(s)


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
        MINIMAL.replace("run = schmidt", "run = joint_spectrum") + "\n[output]\njsi_stride = 512\n",
        "[output] jsi_stride = 512 leaves fewer than two points per axis of the 512-point grid",
        id="jsi-stride-one-point",
    ),
    pytest.param(
        MINIMAL + f"\n[sample]\ntype = tabulated\nfile = {Path(__file__).parent}\n",
        "[sample] file: not a file", id="sample-file-is-directory",
    ),
    pytest.param(
        MINIMAL + f"\n[sample]\ntype = tabulated\nfile = {Path(__file__).parent / 'absent.csv'}\n",
        f"[sample] file: no such file: {Path(__file__).parent / 'absent.csv'}",
        id="sample-file-absent",
    ),
    pytest.param(MINIMAL.replace("run = schmidt", "run = ,"),
                 "[tasks] run: at least one task required", id="tasks-run-no-task"),
    pytest.param(MINIMAL.replace("run = schmidt", "run = schmidt, schmidt"),
                 "[tasks] run: duplicate task names", id="tasks-run-duplicate"),
    pytest.param(MINIMAL + "\n[output]\ndirectory =\n", "[output] directory: empty value",
                 id="output-directory-empty"),
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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


# ---------------------------------------------------------------- the schema table

FIELDS = [(section, key, kind) for section, key, kind, *_ in cli._FIELDS]
SECTION_PATH = r"\[(crystal|pump|geometry|sample|grid|scan|tasks|output)\]"

# with MINIMAL, its canonical text and OCT_SCENARIO, gives every key of the table
WIDE = (
    MINIMAL.replace("points = 512", "points = 512\nhalf_width_rad_fs = 0.05") + R_PAIR
    + "\n[geometry]\nzp2_mm = 4.0\nsynchronize = false\n"
    + "\n[scan]\ndelta_z_min_mm = -0.1\ndelta_z_max_mm = 0.1\n"
)


def _ini(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    return cp


def _text(cp):
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def _with_value(section, key, value):
    """The first base scenario that gives [section] key, with that key set to value."""
    for text in (MINIMAL, render_scenario(parse_scenario(MINIMAL)), OCT_SCENARIO, WIDE):
        cp = _ini(text)
        if cp.has_option(section, key):
            cp[section][key] = value
            return _text(cp)
    raise AssertionError(f"no base scenario gives [{section}] {key}")


def _assert_rejected_before_compute(tmp_path, capsys, text, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(text)
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    pytest.param(section, key, value, id=f"{section}-{key}-{value}")
    for section, key, kind in FIELDS if kind is not str
    for value in (("not-a-number", "nan") if kind is float else ("not-a-number",))
])
def test_every_typed_key_rejects_a_value_not_of_its_kind(tmp_path, capsys, section, key, value):
    _assert_rejected_before_compute(tmp_path, capsys, _with_value(section, key, value),
                                    f"[{section}] {key}: not a")


# per check-column row: the boundary value, which parses, and the next value, which fails
CHECK_EDGES = {
    ("crystal", "preset"): ("mgo_linbo3", "mgo_linbo4"),
    ("sample", "type"): ("uniform", "mirror"),
    ("grid", "points"): ("256", "255"),
    ("grid", "kernel"): ("gaussian", "sinc"),
    ("grid", "half_width_rad_fs"): ("5e-324", "0.0"),
    ("scan", "points"): ("2", "1"),
    ("output", "format"): ("json", "yaml"),
    ("output", "jsi_stride"): ("1", "0"),
}


def test_check_edges_cover_the_check_column():
    assert set(CHECK_EDGES) == {(row[0], row[1]) for row in cli._FIELDS if row[4] is not None}


@pytest.mark.parametrize("section,key", [
    pytest.param(section, key, id=f"{section}-{key}") for section, key in CHECK_EDGES
])
def test_every_checked_key_at_its_edge(tmp_path, capsys, section, key):
    valid, invalid = CHECK_EDGES[section, key]
    s = parse_scenario(_with_value(section, key, valid))
    assert parse_scenario(render_scenario(s)) == s
    _assert_rejected_before_compute(tmp_path, capsys, _with_value(section, key, invalid),
                                    f"[{section}] {key}")


def _sigma_edges():
    """The largest sigma whose 5 mm preset crystal is within MAX_PAIRS_PER_PULSE, and the next."""
    def pairs(sigma):
        return cli.coherence.photon_number(mgo_linbo3_crystal(5.0, sigma=sigma))

    bound = cli.MAX_PAIRS_PER_PULSE
    sigma = float(np.sqrt(bound * abs(mgo_linbo3_crystal(5.0).D) / (2.0 * np.pi * 5.0)))
    while pairs(sigma) > bound:
        sigma = float(np.nextafter(sigma, 0.0))
    while pairs(float(np.nextafter(sigma, np.inf))) <= bound:
        sigma = float(np.nextafter(sigma, np.inf))
    return sigma, float(np.nextafter(sigma, np.inf))


AT_PAIR_BOUND, ABOVE_PAIR_BOUND = _sigma_edges()


@pytest.mark.parametrize("sigma,pairs", [
    pytest.param(1000.0, "119225.52765046652", id="sigma-1000"),
    pytest.param(1e200, "inf", id="sigma-1e200"),  # sigma^2 leaves the float range
    pytest.param(AT_PAIR_BOUND, None, id="at-the-bound"),
    pytest.param(ABOVE_PAIR_BOUND, "0.10000000000000003", id="just-above"),
])
def test_high_parametric_gain_rejected_before_compute(tmp_path, capsys, sigma, pairs):
    # the paper's model holds at low gain; the pair number per pulse does not
    # depend on the pump, so the bound is checked on the crystal alone
    text = MINIMAL.replace("length_mm = 5.0", f"length_mm = 5.0\nsigma = {sigma!r}")
    if pairs is None:
        s = parse_scenario(text)
        assert cli.coherence.photon_number(s.crystal) == cli.MAX_PAIRS_PER_PULSE
        return
    message = (f"[crystal] sigma: 2 pi sigma^2 L / |D| = {pairs} pairs per pulse "
               f"exceeds the low-gain bound {cli.MAX_PAIRS_PER_PULSE}")
    _assert_rejected_before_compute(tmp_path, capsys, text, message)


def _bandwidth_edge(estimate):
    """The smallest positive x with estimate(x) within the first-order dispersion bound."""
    bound = cli.MAX_BANDWIDTH_FRACTION * mgo_linbo3_crystal(5.0).omega_i0
    x = float(estimate(1.0) / bound)  # estimate(x) = estimate(1) / x
    while estimate(x) > bound:
        x = float(np.nextafter(x, np.inf))
    while estimate(float(np.nextafter(x, 0.0))) <= bound:
        x = float(np.nextafter(x, 0.0))
    return x


T0_EDGE_FS = _bandwidth_edge(lambda t0: 1.0 / t0)
LENGTH_EDGE_MM = _bandwidth_edge(lambda length: 1.0 / mgo_linbo3_crystal(length).dl)
BELOW = lambda x: float(np.nextafter(x, 0.0))  # noqa: E731
# the preset crystal given key by key, without preset
FULL_CRYSTAL = ("d_fs_per_mm = -263.5\nd_plus_fs_per_mm = 780.0\nn_i_fs_per_mm = 7300.0\n"
                "lambda_p_nm = 532.0\nlambda_s_nm = 810.0\nlambda_i_nm = 1550.0\n")


@pytest.mark.parametrize("length_mm,pump_key,pump_value,field", [
    # jsi_correlated's 10 fs pump: 0.082 of the idler carrier, the most of any bundled or
    # benchmark scenario
    pytest.param(5.0, "t0_fs", 10.0, None, id="jsi-correlated"),
    pytest.param(5.0, "t0_fs", T0_EDGE_FS, None, id="pump-at-the-bound"),
    pytest.param(5.0, "t0_fs", BELOW(T0_EDGE_FS), "[pump] t0_fs", id="pump-just-above"),
    pytest.param(5.0, "t0_ps", BELOW(T0_EDGE_FS) / 1e3, "[pump] t0_ps", id="pump-in-ps-above"),
    pytest.param(5.0, "t0_fs", 0.001, "[pump] t0_fs", id="1-as-pump"),
    pytest.param(LENGTH_EDGE_MM, "t0_fs", 212.0, None, id="crystal-at-the-bound"),
    pytest.param(BELOW(LENGTH_EDGE_MM), "t0_fs", 212.0, "[crystal] length_mm",
                 id="crystal-just-above"),
    pytest.param(1e-9, "t0_fs", 212.0, "[crystal] length_mm", id="1-pm-crystal"),
    pytest.param(1e-9, "t0_fs", 0.001, "[crystal] length_mm", id="both-above-crystal-larger"),
])
@pytest.mark.parametrize("preset", [True, False], ids=["preset", "full-crystal"])
def test_bandwidth_outside_the_first_order_model_rejected_before_compute(
    tmp_path, capsys, length_mm, pump_key, pump_value, field, preset
):
    # the estimate max(1/T0, 1/(|D|L)) must stay within MAX_BANDWIDTH_FRACTION of the
    # idler carrier; the field named is the one that sets the larger term
    crystal = mgo_linbo3_crystal(length_mm)
    text = MINIMAL.replace("length_mm = 5.0", f"length_mm = {length_mm!r}")
    text = text.replace("t0_fs = 212.0", f"{pump_key} = {pump_value!r}")
    if not preset:
        text = text.replace("preset = mgo_linbo3\n", FULL_CRYSTAL)
    bound = cli.MAX_BANDWIDTH_FRACTION * crystal.omega_i0
    pump = PumpPulse(pump_value) if pump_key == "t0_fs" else PumpPulse.from_ps(pump_value)
    estimate = max(1.0 / pump.t0_fs, 1.0 / crystal.dl)
    if field is None:
        s = parse_scenario(text)
        assert (s.crystal, s.pump) == (crystal, pump) and estimate <= bound
        return
    message = (f"{field}: bandwidth estimate max(1/T0, 1/(|D|L)) = {estimate!r} rad/fs exceeds "
               f"{cli.MAX_BANDWIDTH_FRACTION} omega_i0 = {bound!r} rad/fs")
    _assert_rejected_before_compute(tmp_path, capsys, text, message)


@pytest.mark.parametrize("n_before,n_slab,n_after", [
    pytest.param("1.0", "-1.0", "1.3", id="slab-cancels-front"),
    pytest.param("1.0", "1.5", "-1.5", id="back-cancels-slab"),
    pytest.param("0.0", "1.5", "1.3", id="zero-front"),
])
def test_fresnel_bilayer_needs_positive_indices(tmp_path, capsys, n_before, n_slab, n_after):
    # a sum of two indices is a Fresnel denominator: a zero one must not reach the division
    text = OCT_SCENARIO.replace("n_before = 1.0", f"n_before = {n_before}")
    text = text.replace("n_slab = 1.5", f"n_slab = {n_slab}").replace("n_after = 1.3", f"n_after = {n_after}")
    _assert_rejected_before_compute(tmp_path, capsys, text,
                                    "[sample] invalid parameters: refractive indices must be positive")


@pytest.mark.parametrize("text,message", [
    pytest.param(MINIMAL.replace("[crystal]\npreset = mgo_linbo3\nlength_mm = 5.0\n", ""),
                 "missing required section [crystal]", id="crystal-section"),
    pytest.param(MINIMAL.replace("[pump]\nt0_fs = 212.0\n", ""),
                 "missing required section [pump]", id="pump-section"),
    pytest.param(MINIMAL.replace("run = schmidt", ""), "missing [tasks] run = <task, ...>",
                 id="tasks-run"),
    pytest.param(MINIMAL + "\n[sample]\ntype = tabulated\n", "[sample] tabulated needs file",
                 id="tabulated-file"),
    pytest.param(MINIMAL + "\n[sample]\ntype = bilayer\nthickness_um = 20\nn_after = 1.3\n",
                 "[sample] bilayer needs thickness_um and n_slab", id="bilayer-n_slab"),
    pytest.param(MINIMAL + "\n[sample]\ntype = bilayer\nn_slab = 1.5\nn_after = 1.3\n",
                 "[sample] bilayer needs thickness_um and n_slab", id="bilayer-thickness_um"),
    pytest.param(MINIMAL + "\n[sample]\ntype = bilayer\nr0 = 0.2\nthickness_um = 20\nn_slab = 1.5\n",
                 "[sample] bilayer with r0 also needs r1", id="bilayer-r1"),
    pytest.param(MINIMAL + "\n[sample]\ntype = bilayer\nthickness_um = 20\nn_slab = 1.5\n",
                 "[sample] bilayer needs either (r0, r1) or n_after", id="bilayer-n_after"),
])
def test_required_key_absent_rejected_before_compute(tmp_path, capsys, text, message):
    _assert_rejected_before_compute(tmp_path, capsys, text, message)


@pytest.mark.parametrize("body,message", [
    pytest.param("2,0.2,0\n-2,0.2,0\n", "tabulated omega grid must be strictly ascending",
                 id="descending"),
    pytest.param("-2,1.2,0\n2,0.2,0\n", "tabulated |r| exceeds 1", id="r-above-1"),
])
def test_invalid_table_rejected_before_compute(tmp_path, capsys, body, message):
    table = tmp_path / "r.csv"
    table.write_text("omega_rad_fs,r_real,r_imag\n" + body)
    text = MINIMAL + f"\n[sample]\ntype = tabulated\nfile = {table}\n"
    _assert_rejected_before_compute(tmp_path, capsys, text, f"[sample] invalid parameters: {message}")


FLOAT_TEXT = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-3, 0.5, 1.0, 1.5, 20.0, -1.0, 263.5, 1064.0]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(repr)
INT_TEXT = st.one_of(st.sampled_from([0, 1, 2, 255, 256, 512]), st.integers(-10, 5000)).map(str)
DRAWN_TEXT = {float: FLOAT_TEXT, int: INT_TEXT, bool: st.sampled_from(sorted(cli._BOOL))}
# what a drawn string row may hold: valid values, and one that is not
STR_TEXT = {
    ("crystal", "preset"): ["mgo_linbo3", "bbo"],
    ("sample", "type"): ["uniform", "bilayer", "tabulated", "mirror"],
    ("sample", "file"): ["r.csv", "missing.csv"],
    ("grid", "kernel"): ["exact", "gaussian", "sinc"],
    ("tasks", "run"): ["schmidt", "g1_scan, oct_scan", "spectrum, joint_spectrum", "render"],
    ("output", "directory"): ["out", "results/run 2"],
    ("output", "format"): ["csv", "json", "yaml"],
}


@st.composite
def _scenario_texts(draw):
    # a base scenario, then up to three rows each made absent or given a drawn value
    cp = _ini(draw(st.sampled_from([
        MINIMAL, render_scenario(parse_scenario(MINIMAL)), OCT_SCENARIO, WIDE,
        MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE,
    ])))
    for section, key, kind in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True)):
        text = STR_TEXT.get((section, key))
        value = draw(st.none() | (st.sampled_from(text) if text else DRAWN_TEXT[kind]))
        if value is None:
            if cp.has_section(section):
                cp.remove_option(section, key)
        else:
            if not cp.has_section(section):
                cp.add_section(section)
            cp[section][key] = value
    return _text(cp)


def test_str_text_covers_the_string_rows():
    assert set(STR_TEXT) == {(section, key) for section, key, kind in FIELDS if kind is str}


def test_scenarios_drawn_from_the_table_round_trip(tmp_path_factory):
    # every drawn scenario is rejected naming its field, or renders to text
    # that parses back to it and renders to itself
    table_dir = tmp_path_factory.mktemp("table")
    (table_dir / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n0,0.2,0\n8,0.5,0.1\n")
    parsed = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_scenario_texts())
    def check(text):
        try:
            s = parse_scenario(text, base_dir=table_dir)
        except ScenarioError as exc:
            assert re.search(SECTION_PATH, str(exc)), str(exc)
            parsed.append(False)
            return
        canonical = render_scenario(s)
        assert parse_scenario(canonical, base_dir=table_dir) == s
        assert render_scenario(parse_scenario(canonical, base_dir=table_dir)) == canonical
        parsed.append(True)

    check()
    assert len(parsed) >= 200
    assert sum(parsed) >= 0.2 * len(parsed), f"{sum(parsed)} of {len(parsed)} draws parse"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_scenario_format_names_every_key_with_its_default():
    text = README.read_text().split("## Scenario format\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        match = re.fullmatch(r"`\[(\w+)\] (\w+)`", cells[0])
        if line.startswith("|") and match:
            rows[match.groups()] = cells
    assert set(rows) == {(section, key) for section, key, _ in FIELDS}
    for section, key, kind, default, *_ in cli._FIELDS:
        written = "none" if default is None else f"`{cli._WRITE[kind](default)}`"
        assert rows[section, key][2].startswith(written), (section, key)


# ---------------------------------------------------------------- tabulated samples

LOADTXT = np.loadtxt


def _loadtxt(path):
    """np.loadtxt as parse_scenario called it before _read_table: its array, or its error."""
    try:
        return LOADTXT(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return exc


def _read_as_loadtxt(path):
    """_read_table's array, or its error, and whether it called np.loadtxt."""
    with mock.patch.object(np, "loadtxt", wraps=LOADTXT) as spy:
        try:
            got = cli._read_table(path)
        except ValueError as exc:
            got = exc
    return got, spy.called


def _assert_same_reading(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# a field of the fast path's grammar; beyond 19 mantissa digits or 10**±27, float() reads it
@st.composite
def fast_decimals(draw):
    digits = draw(st.text("0123456789", min_size=1, max_size=22))
    point = draw(st.integers(0, len(digits)))
    whole, frac = digits[:point], digits[point:]
    text = draw(st.sampled_from(["", "-", "+"])) + whole
    if frac or draw(st.booleans()):
        text += "." + frac
    if draw(st.booleans()):
        exponent = draw(st.integers(len(frac) - 30, len(frac) + 30))
        sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
        text += f"e{sign}{abs(exponent):0{draw(st.integers(1, 3))}d}"
    return text


FORMATS = {"repr": repr, "%.17g": lambda x: "%.17g" % x, "%.9g": lambda x: "%.9g" % x,
           "%.18e": lambda x: "%.18e" % x}  # the last is np.savetxt's default
BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
IN_RANGE = st.floats(1e-9, 1e9) | st.floats(-1e9, -1e-9) | st.just(0.0) | st.just(-0.0)


def test_table_reader_matches_loadtxt_on_drawn_tables(tmp_path_factory):
    # every table of finite values written by any of the four formats (random
    # bit patterns, or values in [1e-9, 1e9] where the exact route reads most
    # fields), or of drawn decimal text, and closed by blank lines or not,
    # reads bit for bit as np.loadtxt reads it, and without np.loadtxt
    path = tmp_path_factory.mktemp("table") / "r.csv"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 20), st.integers(1, 3), st.sampled_from(sorted(FORMATS)), st.data())
    def check(rows, cols, fmt, data):
        values = data.draw(st.sampled_from([IN_RANGE, BITS.filter(np.isfinite)]))
        field = values.map(FORMATS[fmt]) | fast_decimals()
        fields = data.draw(st.lists(field, min_size=rows * cols, max_size=rows * cols))
        lines = [",".join(fields[r * cols:(r + 1) * cols]) for r in range(rows)]
        path.write_text("omega_rad_fs,r_real,r_imag\n" + "\n".join(lines)
                        + data.draw(st.sampled_from(["\n", "", "\n\n", "\n\n\n"])))
        got, called = _read_as_loadtxt(path)
        _assert_same_reading(got, _loadtxt(path))
        assert not called, fields

    check()


# A double-rounding trap: M * 10**j rounds, in long double, onto the midpoint
# between two doubles that the decimal value itself does not sit on, and
# rounding that midpoint to double goes the wrong way.
TRAP = "1.803225543590477514e+3"
MIDPOINT = "9007199254740993"  # 2**53 + 1, exactly between two doubles

TABLE_CORPUS = [
    # (body below the header, or the whole file as bytes; read without np.loadtxt)
    pytest.param("-,1\n", False, id="lone-sign"),  # np.fromstring(int64) reads it as [0, 1]
    pytest.param("1,\n2,\n", False, id="trailing-comma"),  # np.fromstring reads "1," as [1]
    pytest.param(".\n", False, id="dot"),
    pytest.param("1e\n", False, id="bare-e"),
    pytest.param("e5\n", False, id="no-mantissa"),
    pytest.param("1e+\n", False, id="signed-bare-e"),
    pytest.param("--1\n", False, id="two-signs"),
    pytest.param("1-2\n", False, id="inner-sign"),
    pytest.param("1e+-2\n", False, id="two-exponent-signs"),
    pytest.param("1.2.3\n", False, id="two-dots"),
    pytest.param("1e2e3\n", False, id="two-e"),
    pytest.param("12e0.5\n", False, id="dot-after-e"),
    pytest.param(" 1,2\n", False, id="leading-space"),
    pytest.param("1 ,2\n", False, id="inner-space"),
    pytest.param("1\t2\n", False, id="tab"),
    pytest.param("1,2\n# note\n3,4\n", False, id="comment-line"),
    pytest.param("1,2 # note\n", False, id="trailing-comment"),
    pytest.param("1,2\r\n3,4\r\n", False, id="crlf"),
    pytest.param("1,2\n\n3,4\n", False, id="blank-line"),
    pytest.param("\n1,2\n", False, id="leading-blank-line"),
    pytest.param("\n\n", False, id="blank-lines-alone"),
    pytest.param("nan,1\n", False, id="nan"),
    pytest.param("-inf,1\n", False, id="inf"),
    pytest.param("1E5,1\n", False, id="capital-e"),
    pytest.param("0x10,1\n", False, id="hex"),
    pytest.param("1_000,1\n", False, id="underscore"),
    pytest.param("1,2\x00\n", False, id="nul"),
    pytest.param("1,2\n3\n", False, id="ragged-short"),
    pytest.param("1\n2,3\n", False, id="ragged-long"),
    pytest.param("1,2\n3\n4,5,6\n", False, id="ragged-same-count"),
    pytest.param(b"omega\rr\n1,2\n", False, id="header-with-cr"),
    pytest.param(b"\xff\xfe,r\n1,2\n", False, id="header-not-utf8"),
    pytest.param(b"omega,r\r\n1,2\n", False, id="header-with-crlf"),
    pytest.param(b"omega,r", False, id="header-alone"),
    pytest.param("", False, id="empty-body"),
    pytest.param("1e27,-1e-27,1e+027\n", True, id="powers-at-27"),
    pytest.param("0000000000000000000000001.5,2\n", True, id="leading-zeros"),
    pytest.param("1.,.5,-.5e1\n", True, id="bare-dot-sides"),
    pytest.param("-0,-0.0e0,+0\n", True, id="signed-zeros"),
    pytest.param("1,2\n3,4", True, id="no-last-newline"),
    pytest.param("5\n", True, id="one-value"),
    pytest.param("1,2\n3,4\n\n\n", True, id="closing-blank-lines"),
    pytest.param("1,2\n3,4\n\n", True, id="closing-blank-line"),
    # float() reads the fields the exact route cannot
    pytest.param(f"{TRAP},{MIDPOINT},-{TRAP}\n", True, id="midpoints-read-by-float"),
    pytest.param("12345678901234567890,1\n", True, id="20-digit-mantissa"),
    pytest.param("-99999999999999999999,1\n", True, id="saturating-mantissa"),  # uint64 caps it
    pytest.param("1e28,-1e-28,1.2345678901234567e-12\n", True, id="powers-beyond-27"),
    pytest.param("0.0000000000000000000000000001,1\n", True, id="fraction-beyond-27"),
    pytest.param("1e400,-1e-400,5e-324\n", True, id="overflow-underflow-subnormal"),
    pytest.param("1e18446744073709551617,1e-18446744073709551617\n", True, id="saturating-exponent"),
]


def _parsed_sample(text, base_dir):
    """The parsed table's arrays, or the ScenarioError text."""
    try:
        sample = parse_scenario(text, base_dir=base_dir).sample
    except ScenarioError as exc:
        return str(exc)
    return sample.omega.tobytes() + sample.r.tobytes()


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@pytest.mark.parametrize("body,fast", TABLE_CORPUS)
def test_table_reader_corpus_reads_as_loadtxt(tmp_path, body, fast):
    path = tmp_path / "r.csv"
    path.write_bytes(body if isinstance(body, bytes) else ("omega_rad_fs,r_real,r_imag\n" + body).encode())
    got, called = _read_as_loadtxt(path)
    _assert_same_reading(got, _loadtxt(path))
    assert called is not fast
    # parse_scenario builds the same sample, or gives the same error text, as
    # when it called np.loadtxt itself
    text = MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE
    with mock.patch.object(cli, "_read_table", lambda p: LOADTXT(p, delimiter=",", skiprows=1, ndmin=2)):
        want = _parsed_sample(text, tmp_path)
    assert _parsed_sample(text, tmp_path) == want


def test_table_reader_rereads_midpoints_with_float(tmp_path):
    assert [int(p) for p in cli._POW10_LD] == [10 ** k for k in range(28)]  # exact powers
    path = tmp_path / "r.csv"
    path.write_text(f"a\n{TRAP}\n")
    assert cli._read_table(path)[0, 0] == float(TRAP)
    # the long double value alone rounds the other way
    mantissa = np.longdouble(int(TRAP.split("e")[0].replace(".", "")))
    assert float(mantissa / cli._POW10_LD[15]) != float(TRAP)


def test_table_reader_reads_a_table_in_chunks(tmp_path, monkeypatch):
    # lines that straddle chunk edges, a line longer than a chunk, and a last line without newline
    rng = np.random.default_rng(3)
    values = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-9, 9, (300, 3))
    lines = [",".join(map(repr, row)) for row in values.tolist()]
    monkeypatch.setattr(cli, "_TABLE_CHUNK", 37)
    for body in ("\n".join(lines) + "\n", "\n".join(lines), "\n".join(lines) + "\n" * 100):
        path = tmp_path / "r.csv"
        path.write_text("omega_rad_fs,r_real,r_imag\n" + body)
        got, called = _read_as_loadtxt(path)
        assert not called
        _assert_same_reading(got, _loadtxt(path))
    # rows of another width in later chunks, or one line the fast path cannot
    # read amid or after the later rows, send the whole table to np.loadtxt
    narrow = [line.rsplit(",", 1)[0] for line in lines[200:]]
    bodies = [lines[:200] + narrow]
    for late in ("# end of table", " 1.5 , -2e3 ,\t7", "1.5,-2e3"):
        bodies += [lines[:200] + [late] + lines[200:], lines + [late]]
    for body in bodies:
        path.write_text("omega_rad_fs,r_real,r_imag\n" + "\n".join(body))
        got, called = _read_as_loadtxt(path)
        assert called
        _assert_same_reading(got, _loadtxt(path))


def test_table_reader_without_x87_long_double_reads_every_table_with_loadtxt(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_EXTENDED", False)
    path = tmp_path / "r.csv"
    path.write_text("omega_rad_fs,r_real,r_imag\n-8,0.5,0.1\n8,0.5,0.1\n")
    got, called = _read_as_loadtxt(path)
    assert called
    _assert_same_reading(got, _loadtxt(path))


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("warn", [True, False])
def test_table_reader_never_passes_a_partial_fromstring_read(tmp_path, monkeypatch, warn, action):
    # an older numpy's np.fromstring warns, instead of raising, where unmatched
    # text stops it, and returns what it read so far; the warning does not
    # escape the reader, whether warnings are errors (python -W error) or shown
    fromstring = np.fromstring

    def partial(text, dtype, sep):
        if warn:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return fromstring(text, dtype, sep=sep)[:-1]

    monkeypatch.setattr(np, "fromstring", partial)
    path = tmp_path / "r.csv"
    path.write_text("omega_rad_fs,r_real,r_imag\n-8,0.5,0.1\n8,0.5,0.1\n")
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        got, called = _read_as_loadtxt(path)
    assert called and not shown
    _assert_same_reading(got, _loadtxt(path))


@pytest.mark.parametrize("body", ["-,1\n", ".,1\n", "e5,1\n", "1e,1\n", "1e+,1\n", "1,\n"])
def test_table_reader_does_not_count_on_fromstring_to_reject_an_empty_token(tmp_path, monkeypatch,
                                                                          body):
    # as np.fromstring(dtype=int64) reads "-,1" as [0, 1], read every empty token as 0
    def zero_for_empty(text, dtype, sep):
        return np.array([int(t or 0) for t in text.decode().split(sep)[:-1]], dtype)

    monkeypatch.setattr(np, "fromstring", zero_for_empty)
    path = tmp_path / "r.csv"
    path.write_text("omega_rad_fs,r_real,r_imag\n" + body)
    got, called = _read_as_loadtxt(path)
    assert called
    _assert_same_reading(got, _loadtxt(path))


# ---------------------------------------------------------------- exports

def test_export_series_empty_is_header_only():
    assert export_series(["a", "b"], [], "csv") == "a,b\n"


def test_export_series_without_columns_writes_an_empty_line_a_row():
    # the header of no columns is an empty line, and so is each row
    assert export_series([], [], "csv") == "\n"
    assert export_series([], [[], []], "csv") == "\n\n\n"
    assert export_series([], [], "json") == '{\n  "columns": [],\n  "rows": []\n}\n'


def test_export_series_nine_significant_digits():
    out = export_series(["x"], [(1.0 / 3.0,)], "csv")
    assert out == "x\n0.333333333\n"


def _fmt9_csv(rows):
    # per-value reference writer: one _fmt9 call for every value
    return [",".join(map(cli._fmt9, row)) for row in np.asarray(rows, dtype=float).tolist()]


EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.5e-310, 1e300, -1e300, 3.0, -7.0, 1e16, 123456789.0,
               1.0 / 3.0, -2.0 / 3.0, 6.02214076e23, 1e-5,
               # exact ties at the ninth digit, and values that round up a decade
               100000000.5, 100000001.5, 1234567885.0, 1234567895.0, 999999999.5,
               9.999999995e-5, 99999.99995, 1e23,
               np.finfo(float).max, -np.finfo(float).max, -5e-324]


def test_csv_writers_match_per_value_reference():
    rows = [tuple(EDGE_VALUES[k:k + 3]) for k in range(0, len(EDGE_VALUES) - 2)]
    rows.append(tuple(np.float64(v) for v in EDGE_VALUES[:3]))
    expected = "\n".join(["a,b,c", *_fmt9_csv(rows)]) + "\n"
    assert export_series(["a", "b", "c"], rows, "csv") == expected
    # a grid axis is _symmetric_axis's; the edge values sit in the amplitude
    edges = np.array(EDGE_VALUES)
    axis = _symmetric_axis(4.0, edges.size)
    grid = FrequencyGrid(omega_s=axis)
    cycle = (np.arange(edges.size)[:, None] + np.arange(edges.size)[None, :]) % edges.size
    amplitude = np.sqrt(np.abs(edges))[cycle] * np.where(cycle % 2, 1.0, -1.0)
    js = cli.biphoton.JointSpectrum(grid=grid, amplitude=amplitude)
    for stride in (1, 3):
        ws = axis[::stride]
        inten = js.intensity[::stride, ::stride]
        lines = ["omega_s\\omega_i," + _fmt9_csv([ws])[0]]
        lines += [cli._fmt9(w) + "," + line for w, line in zip(ws, _fmt9_csv(inten))]
        assert cli._jsi_csv(ws, inten) == "\n".join(lines) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
SIDES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=64)
BLOCKS = st.sampled_from([cli._CSV_BLOCK, 1, 5, 64, 500])
KINDS = st.sampled_from(["plain"] * 4 + ["band", "wide"])


@st.composite
def zero_margined_tables(draw):
    # a block size for _CSV_BLOCK, mostly small so that a table spans many
    # blocks, and a finite table whose rows lead and trail with runs of +0.0
    # and -0.0 (some rows all zero), one column as often as not; now and then,
    # with a small block, +0.0 fills more than one block: a band of rows ahead
    # of the table, or rows wider than a block
    block = draw(BLOCKS)
    kind = "plain" if block == cli._CSV_BLOCK else draw(KINDS)
    if kind == "wide":
        rows, cols = draw(st.integers(1, 3)), block + draw(st.integers(1, 3))
    else:
        rows, cols = draw(SIDES)
        cols = draw(st.sampled_from([1, cols]))
    table = draw(hnp.arrays(np.float64, (rows, cols), elements=FINITE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead, trail = rng.integers(0, cols + 1, (2, rows, 1))
    margin = (np.arange(cols) < lead) | (np.arange(cols) >= cols - trail)
    negative = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    table[margin] = np.where(negative, -0.0, 0.0)[margin]
    if kind == "band":  # the first block and a row of the next
        band = np.zeros((block // cols + 1 + draw(st.integers(0, 2)), cols))
        table = np.concatenate((band, table))
    return block, table


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(zero_margined_tables())
def test_csv_writer_matches_per_value_writer(case):
    block, table = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CSV_BLOCK", block)
        text = "".join(cli._csv_blocks(table))
    assert text == "".join(line + "\n" for line in _fmt9_csv(table))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(zero_margined_tables(), st.data())
def test_csv_writer_with_a_first_column_matches_per_value_writer(case, data):
    # through _csv_blocks with a first column, and through _jsi_csv, whose
    # axis heads both the columns and the rows of the table's leading square
    block, table = case
    first = data.draw(hnp.arrays(np.float64, len(table), elements=FINITE))
    n = min(table.shape)
    axis, square = first[:n], table[:n, :n]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CSV_BLOCK", block)
        text = "".join(cli._csv_blocks(table, first=first))
        jsi = cli._jsi_csv(axis, square)
    assert text == "".join(line + "\n" for line in _fmt9_csv(np.column_stack((first, table))))
    lines = ["omega_s\\omega_i," + _fmt9_csv([axis])[0]]
    lines += [cli._fmt9(w) + "," + line for w, line in zip(axis, _fmt9_csv(square))]
    assert jsi == "\n".join(lines) + "\n"


def test_csv_writer_leaves_unproven_roundings_to_format(monkeypatch):
    # exact ties, values within TIE_TOL of a tie, a value rounding up to the
    # next decade and the non-finite values are written by _fmt9 itself;
    # ordinary values and zeros are not
    written = []

    def recording_fmt9(x):
        written.append(float(x))
        return format(float(x), ".9g")

    monkeypatch.setattr(cli, "_fmt9", recording_fmt9)
    unproven = [100000000.5, 1234567885.0, 100000000.50001, -1.23456788499999e-3,
                -999999999.5, np.inf, -np.inf]
    proven = [0.0, -0.0, 1.0 / 3.0, 5e-324, 123456789.0, 1e300]
    table = np.array([unproven + proven])
    text = "".join(cli._csv_blocks(table))
    assert sorted(written) == sorted(unproven)
    assert text == ",".join(format(v, ".9g") for v in unproven + proven) + "\n"
    nan_text = "".join(cli._csv_blocks(np.array([[np.nan, 1.0]])))
    assert nan_text == "nan,1\n" and np.isnan(written[-1])


def _bundled_jsi(name):
    """The axis and the 512-point intensity slice a bundled scenario writes."""
    s = parse_scenario((SCENARIO_DIR / f"{name}.ini").read_text())
    grid = cli.make_frequency_grid(s.crystal, s.pump, s.grid_points)
    inten, _ = cli.biphoton.joint_spectrum_rows(s.kernel, s.crystal, s.pump, grid, s.jsi_stride)
    return grid.omega_s[::s.jsi_stride], inten


@pytest.mark.parametrize("name", ["jsi_anticorrelated", "jsi_correlated", "jsi_separable"])
def test_jsi_csv_of_bundled_scenarios_matches_per_value_writer(name):
    ws, inten = _bundled_jsi(name)
    assert inten.shape == (512, 512)
    lines = ["omega_s\\omega_i," + _fmt9_csv([ws])[0]]
    lines += [cli._fmt9(w) + "," + line for w, line in zip(ws, _fmt9_csv(inten))]
    assert cli._jsi_csv(ws, inten) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,share", [("jsi_anticorrelated", 0.10), ("jsi_correlated", 0.30)])
def test_jsi_csv_formats_little_more_than_the_ridge(monkeypatch, name, share):
    # a narrow ridge: the +0.0 columns around it are written as constant runs
    ws, inten = _bundled_jsi(name)
    formatted = []
    block = cli._csv_block

    def spy(x):
        formatted.append(x.size - len(x))  # all but the omega_s column
        return block(x)

    monkeypatch.setattr(cli, "_csv_block", spy)
    cli._csv_blocks(inten, first=ws)
    assert sum(formatted) < share * inten.size


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
    assert "null" in text
    peaks = json.loads(text)
    assert peaks["positions_mm"] == [-0.0425752372, -5.18577781e-05]
    assert peaks["separations_um"] == [42.5233794]
    assert peaks["fwhm_um"][0] is None and peaks["fwhm_um"][1] == 28.9630126


def _strict_json(path):
    # RFC 8259 has no NaN or Infinity: parse as jq and JSON.parse do, rejecting both
    def reject(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


EXACT_SCHMIDT = MINIMAL.replace("kernel = gaussian", "kernel = exact")
SMALLEST_EXACT_SCHMIDT = EXACT_SCHMIDT.replace("points = 512", "points = 256")
# at this half width 300 points resolve the spectrum, and the coarsen check's 256 do not
COARSE_UNRESOLVABLE = EXACT_SCHMIDT.replace("points = 512", "points = 300\nhalf_width_rad_fs = 0.22")
NO_COARSEN_GRID = {
    "smallest-grid": (SMALLEST_EXACT_SCHMIDT,
                      "[grid] points = 256 leaves the exact-kernel schmidt task's coarsen check"
                      " no smaller grid of at least 256 points"),
    "coarse-grid-unresolvable": (COARSE_UNRESOLVABLE,
                                 "[grid] points = 300 (or half_width_rad_fs): the exact-kernel"
                                 " schmidt task's coarsen check runs on 256 points, whose grid"
                                 " step"),
}


@pytest.mark.parametrize("text,message", [
    pytest.param((SCENARIO_DIR / "oct_long_crystal_pulsed.ini").read_text(), None,
                 id="oct_long_crystal_pulsed"),
    pytest.param(*NO_COARSEN_GRID["smallest-grid"], id="exact-schmidt-256"),
    pytest.param(*NO_COARSEN_GRID["coarse-grid-unresolvable"],
                 id="exact-schmidt-coarse-unresolvable"),
])
def test_every_json_file_of_a_run_is_strict_json(tmp_path, capsys, text, message):
    # the exact schmidt runs without a coarsen grid exit 1 before any directory
    # is made, so no run writes a delta it could not compute
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    out = tmp_path / "out"
    code = main(["run", str(scen), "--out", str(out)])
    if message is not None:
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()
        return
    assert code == 0
    names = [path.name for path in sorted(out.glob("*.json"))]
    assert "run_manifest.json" in names
    for name in names:
        _strict_json(out / name)


@pytest.mark.parametrize("case", NO_COARSEN_GRID)
def test_exact_schmidt_without_a_coarsen_grid_fails_before_any_task(tmp_path, monkeypatch, case):
    text, message = NO_COARSEN_GRID[case]

    def forbidden(scenario, points):
        raise AssertionError("a task ran")

    monkeypatch.setitem(cli._TASK_FN, "schmidt", forbidden)
    out = tmp_path / "out"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(parse_scenario(text), out_dir=out)
    assert not out.exists()
    # the Gaussian kernel's schmidt task is analytic: it needs no coarsen grid
    monkeypatch.undo()
    gaussian = parse_scenario(text.replace("kernel = exact", "kernel = gaussian"))
    assert run_scenario(gaussian, out_dir=out).convergence["schmidt"]["method"] == "analytic"


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


def test_task_failure_keeps_exception_type(tmp_path, monkeypatch):
    def fail(scenario, points):
        raise _TwoArgError((4096, 4096), "complex128")

    monkeypatch.setitem(cli._TASK_FN, "schmidt", fail)
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


def _tree(root):
    # every path under root, relative, with a file's bytes or None for a directory
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("route", ["run_scenario", "cli"])
@pytest.mark.parametrize("out,before", [
    pytest.param("failout/nested", {}, id="fresh-nested-path"),
    pytest.param("out", {"out": None}, id="existing-empty-directory"),
    pytest.param("out", {"out": None, "out/keep.txt": b"kept"},
                 id="existing-directory-with-a-file"),
])
def test_failed_run_removes_only_the_directories_it_made(tmp_path, monkeypatch, capsys, route,
                                                         out, before):
    def fail(scenario, points):
        raise cli.AnalysisError("no half-maximum crossing")

    monkeypatch.setitem(cli._TASK_FN, "g1_scan", fail)
    root = tmp_path / "root"
    root.mkdir()
    for name, content in before.items():
        if content is None:
            (root / name).mkdir()
        else:
            (root / name).write_bytes(content)
    text = MINIMAL.replace("run = schmidt", "run = g1_scan")
    if route == "run_scenario":
        with pytest.raises(cli.AnalysisError) as info:
            run_scenario(parse_scenario(text), out_dir=root / out)
        assert info.value.__notes__ == ["task g1_scan"]
    else:
        scen = tmp_path / "s.ini"
        scen.write_text(text)
        assert main(["run", str(scen), "--out", str(root / out)]) == 1
        assert "error: task g1_scan: no half-maximum crossing" in capsys.readouterr().err
    assert _tree(root) == before


def test_failed_run_stops_removing_at_a_directory_that_holds_a_file(tmp_path, monkeypatch):
    # the run makes a, a/b and a/b/c; a file put in a/b while it runs keeps a/b, and
    # the removal stops there, so a stays too, though it is empty
    root = tmp_path / "root"
    root.mkdir()

    def fail(scenario, points):
        (root / "a" / "b" / "other.txt").write_bytes(b"other")
        raise cli.AnalysisError("no half-maximum crossing")

    monkeypatch.setitem(cli._TASK_FN, "g1_scan", fail)
    text = MINIMAL.replace("run = schmidt", "run = g1_scan")
    with pytest.raises(cli.AnalysisError):
        run_scenario(parse_scenario(text), out_dir=root / "a" / "b" / "c")
    assert _tree(root) == {"a": None, "a/b": None, "a/b/other.txt": b"other"}


class _DiskFull(OSError):
    """A write that found no room on its device."""


PULSED_OCT_FILES = ["interferogram.csv", "peaks.json", "spectrum.csv", "run_manifest.json"]


def _fail_staging(monkeypatch, name):
    # a run writes each file by Path.write_bytes: the one staged for ``name`` stops
    # after a few bytes, as a full disk would stop it, with an error that, as
    # the one write() raises, names no file
    write_bytes = Path.write_bytes

    def write(path, data):
        if path.name != name + ".tmp":
            return write_bytes(path, data)
        write_bytes(path, data[:16])
        raise _DiskFull(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write)


@pytest.mark.parametrize("name", PULSED_OCT_FILES)
@pytest.mark.parametrize("out,before", [
    pytest.param("fresh/nested", {}, id="fresh-nested-path"),
    pytest.param("out", {"out": None, **{f"out/{n}": f"earlier {n}\n".encode()
                                         for n in PULSED_OCT_FILES}}, id="earlier-run"),
])
def test_failed_write_replaces_no_file(tmp_path, monkeypatch, out, before, name):
    root = tmp_path / "root"
    root.mkdir()
    for path, content in before.items():
        if content is None:
            (root / path).mkdir()
        else:
            (root / path).write_bytes(content)
    scenario = parse_scenario((SCENARIO_DIR / "oct_long_crystal_pulsed.ini").read_text())
    _fail_staging(monkeypatch, name)
    with pytest.raises(_DiskFull) as info:
        run_scenario(scenario, out_dir=root / out)
    assert type(info.value) is _DiskFull
    assert _tree(root) == before


def test_cli_reports_a_failed_write(tmp_path, monkeypatch, capsys):
    _fail_staging(monkeypatch, "spectrum.csv")
    out = tmp_path / "out"
    assert main(["run", str(SCENARIO_DIR / "oct_long_crystal_pulsed.ini"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: writing spectrum.csv: [Errno 28] No space left on device\n"
    assert not out.exists()


@pytest.mark.parametrize("route", ["run_scenario", "cli"])
def test_unwritable_output_directory_rejected_before_compute(tmp_path, monkeypatch, capsys, route):
    def forbidden(scenario, points):
        raise AssertionError("a task ran")

    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    # root writes where file modes forbid it, so the probe's write fails by a patch
    write_text = Path.write_text

    def read_only(path, *args, **kwargs):
        if path.name == ".write_probe":
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", read_only)
    monkeypatch.setitem(cli._TASK_FN, "schmidt", forbidden)
    out = tmp_path / "out" / "nested"
    message = f"output directory not writable: {out}: [Errno 13] Permission denied"
    if route == "run_scenario":
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(parse_scenario(MINIMAL), out_dir=out)
    else:
        assert main(["run", str(scen), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method,flagged", [
    ("halved-resolution", True),
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


@pytest.mark.parametrize("points,built,methods", [
    pytest.param(256, [], None, id="smallest-grid"),
    pytest.param(384, [256, 384, 384], ("reference", "coarsen"), id="coarsens-to-256"),
])
def test_coarsen_check_never_compares_a_grid_with_itself(tmp_path, monkeypatch, points,
                                                         built, methods):
    sizes = []
    original = cli.make_frequency_grid

    def spy(crystal, pump, n_points, **kwargs):
        sizes.append(n_points)
        return original(crystal, pump, n_points, **kwargs)

    monkeypatch.setattr(cli, "make_frequency_grid", spy)
    # joint_spectrum streams on the run grid; the exact-kernel schmidt task
    # builds the run grid and its coarsen grid
    text = MINIMAL.replace("run = schmidt", "run = joint_spectrum, schmidt")
    text = text.replace("points = 512", f"points = {points}")
    text = text.replace("kernel = gaussian", "kernel = exact")
    if methods is None:  # no grid smaller than 256 points: rejected before any is built
        with pytest.raises(ScenarioError, match=re.escape("[grid] points = 256 leaves")):
            run_scenario(parse_scenario(text), out_dir=tmp_path)
        assert sizes == built
        return
    manifest = run_scenario(parse_scenario(text), out_dir=tmp_path)
    assert sorted(sizes) == built
    conv = manifest.convergence
    assert (conv["joint_spectrum"]["method"], conv["schmidt"]["method"]) == methods


def test_gaussian_schmidt_modes_are_bounded_by_the_grid(tmp_path, capsys):
    # a half width far inside the spectrum lets 512 points resolve a 1 ns pump,
    # whose closed-form spectrum keeps about 24k modes above 1e-12
    text = MINIMAL.replace("t0_fs = 212.0", "t0_ps = 1000.0")
    scen = tmp_path / "s.ini"
    scen.write_text(text.replace("points = 512", "points = 512\nhalf_width_rad_fs = 2e-4"))
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"task schmidt: gamma = .* Schmidt modes above 1e-12, more than 512", err)
    assert not out.exists()


UNIFORM_OCT = MINIMAL.replace("run = schmidt", "run = oct_scan") + "\n[scan]\nfringes = false\n"
TABULATED_SAMPLE = "\n[sample]\ntype = tabulated\nfile = r.csv\n"


@pytest.mark.parametrize("text,builds", [
    pytest.param(MINIMAL.replace("run = schmidt", "run = g1_scan"), 0, id="g1-scan"),
    pytest.param(UNIFORM_OCT, 0, id="oct-scan-numeric"),
    pytest.param(OCT_SCENARIO.replace("run = oct_scan, g1_scan", "run = oct_scan"), 0,
                 id="oct-scan-bilayer"),
    pytest.param(MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE, 1,
                 id="g1-scan-tabulated"),
    pytest.param(UNIFORM_OCT + TABULATED_SAMPLE, 1, id="oct-scan-tabulated"),
])
def test_scan_task_builds_one_full_resolution_correlator(tmp_path, monkeypatch, text, builds):
    # uniform and bilayer samples take the closed form; a tabulated one is the
    # numeric route: one full-resolution correlator, whose embedded coarse
    # rule is the halved-resolution check
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n8,0.5,0.1\n")
    built = []

    class CountingCorrelator(cli.coherence.PairCorrelator):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["resolution"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli.coherence, "PairCorrelator", CountingCorrelator)
    manifest = run_scenario(parse_scenario(text, base_dir=tmp_path), out_dir=tmp_path / "out")
    assert len(built) == builds
    assert built == [0.25][:builds]
    method = "halved-resolution" if builds else "analytic"
    assert [entry["method"] for entry in manifest.convergence.values()] == [method]


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


def _inf_jsi(original):
    def fake(*args):
        intensity, marginal = original(*args)
        intensity[0, 0] = np.inf
        return intensity, marginal
    return fake


def _nan_schmidt(original):
    def fake(*args, **kwargs):
        return cli.biphoton.SchmidtReport(
            coefficients=np.array([1.0]), schmidt_number_K=np.nan, entropy_bits=0.0
        )
    return fake


@pytest.mark.parametrize("task,owner,name,factory,series", [
    pytest.param("g1_scan", "coherence", "g1_closed_form", _nan_closed_form, "g1_abs",
                 id="g1-scan"),
    pytest.param("spectrum", "biphoton", "signal_spectrum", _nan_spectrum, "density",
                 id="spectrum"),
    pytest.param("joint_spectrum", "biphoton", "joint_spectrum_rows", _inf_jsi,
                 "intensity", id="jsi-slice"),
    pytest.param("schmidt", "biphoton", "schmidt_gaussian", _nan_schmidt,
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
    assert not out.exists()


def test_run_scenario_grid_override_changes_density(tmp_path):
    s = parse_scenario(MINIMAL)
    manifest = run_scenario(dataclasses.replace(s, grid_points=640), out_dir=tmp_path)
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


def test_cli_grid_points_override_is_in_the_scenario_digest(tmp_path):
    # --grid-points N runs the scenario whose [grid] points is N, digests included
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL)
    edited = tmp_path / "edited.ini"
    edited.write_text(MINIMAL.replace("points = 512", "points = 384"))
    runs = {
        "256": [str(scen), "--grid-points", "256"],
        "384": [str(scen), "--grid-points", "384"],
        "file-384": [str(edited)],
    }
    manifests = {}
    for name, args in runs.items():
        out = tmp_path / name
        assert main(["run", *args, "--out", str(out)]) == 0
        manifests[name] = json.loads((out / "run_manifest.json").read_text())
    assert manifests["256"]["grid_points"] == 256
    assert manifests["256"]["scenario_digest"] != manifests["384"]["scenario_digest"]
    for key in ("grid_points", "scenario_digest", "digest"):
        assert manifests["384"][key] == manifests["file-384"][key]


def test_cli_format_override_is_in_the_scenario_digest(tmp_path):
    # --format json runs the scenario whose [output] format is json, digests included
    text = OCT_SCENARIO.replace("run = oct_scan, g1_scan", "run = g1_scan")
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    edited = tmp_path / "edited.ini"
    edited.write_text(text + "\n[output]\nformat = json\n")
    manifests = {}
    for name, args in {"override": [str(scen), "--format", "json"], "file": [str(edited)]}.items():
        out = tmp_path / name
        assert main(["run", *args, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["g1_scan.json", "run_manifest.json"]
        manifests[name] = json.loads((out / "run_manifest.json").read_text())
    for key in ("files", "scenario_digest", "digest"):
        assert manifests["override"][key] == manifests["file"][key]


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
        run_scenario(dataclasses.replace(s, grid_points=int(points)), out_dir=out)
    assert not out.exists()


G1_SCAN = MINIMAL.replace("run = schmidt", "run = g1_scan")
# 8 samples per fringe over +-1 m of delay: about 2e7 delays
WIDE_FRINGES = (MINIMAL.replace("run = schmidt", "run = oct_scan")
                + "\n[scan]\ndelta_z_min_mm = -1000.0\ndelta_z_max_mm = 1000.0\n")
WIDE_TABULATED = (TABULATED_OCT
                  + "\n[scan]\ndelta_z_min_mm = -1000.0\ndelta_z_max_mm = 1000.0\n")


@pytest.mark.parametrize("text,task,field,delays", [
    pytest.param(G1_SCAN + "\n[scan]\npoints = 100000000\n", "g1_scan", "points", "100000000",
                 id="g1-scan-1e8-points"),
    pytest.param(G1_SCAN + f"\n[scan]\npoints = {cli.MAX_SCAN_POINTS + 1}\n", "g1_scan",
                 "points", str(cli.MAX_SCAN_POINTS + 1), id="g1-scan-just-above"),
    pytest.param(WIDE_FRINGES, "oct_scan", "fringes", None, id="oct-scan-fringes"),
    pytest.param(WIDE_FRINGES.replace("1000.0", "1e308"), "oct_scan", "fringes", "inf",
                 id="oct-scan-fringes-inf"),  # a window wider than the float range
    # on the numeric route, whose correlator the window would size: gigabytes of signal
    # nodes at +-1 m, and a step of 0 from an infinite delay at +-1e308 mm
    pytest.param(WIDE_TABULATED, "oct_scan", "fringes", None, id="tabulated-oct-scan-fringes"),
    pytest.param(WIDE_TABULATED.replace("1000.0", "1e308"), "oct_scan", "fringes", "inf",
                 id="tabulated-oct-scan-fringes-inf"),
])
def test_scan_over_the_delay_budget_rejected_before_compute(tmp_path, monkeypatch, capsys, text,
                                                           task, field, delays):
    # the plan counts a scan's delays without building its axis or sizing its correlator,
    # so a scan that would otherwise run until killed exits 1 at once
    def forbidden(*args, **kwargs):
        raise AssertionError("a scan axis was built or a correlator sized")

    (tmp_path / "r.csv").write_text("omega,re,im\n-80,0.5,0.1\n0,0.2,0\n80,0.5,0.1\n")
    monkeypatch.setattr(cli.oct_scan, "scan_axis", forbidden)
    monkeypatch.setattr(cli.np, "linspace", forbidden)
    monkeypatch.setattr(cli.coherence, "_scan_arguments", forbidden)
    monkeypatch.setattr(cli.coherence, "correlator_sizes", forbidden)
    s = parse_scenario(text, base_dir=tmp_path)
    if delays is None:
        window = (s.scan.delta_z_min_mm, s.scan.delta_z_max_mm)
        delays = f"{cli.oct_scan.scan_points(s.crystal, window, True):.15g}"
    message = (f"[scan] {field}: {task} takes {delays} delays, more than the "
               f"{cli.MAX_SCAN_POINTS} allowed")
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(s, out_dir=out)
    assert not out.exists()


def test_scan_at_the_delay_budget_is_planned():
    s = parse_scenario(G1_SCAN + f"\n[scan]\npoints = {cli.MAX_SCAN_POINTS}\n")
    assert cli._plan(s)["g1_scan"]["delays"] == cli.MAX_SCAN_POINTS


def test_numeric_scan_whose_delay_overflows_fails_in_the_plan(tmp_path, monkeypatch, capsys):
    # 11 points over +-1e308 mm are within the delay budget, but the window's delay
    # overflows to inf, which would size the correlator's signal step at 0
    (tmp_path / "r.csv").write_text("omega,re,im\n-80,0.5,0.1\n0,0.2,0\n80,0.5,0.1\n")
    text = WIDE_TABULATED.replace("1000.0", "1e308") + "points = 11\n"
    scen = tmp_path / "s.ini"
    scen.write_text(text)

    def forbidden(*args):
        raise AssertionError("a task ran")

    for task in cli._TASK_FN:
        monkeypatch.setitem(cli._TASK_FN, task, forbidden)
    message = ("[scan] invalid parameters: delays must be finite, got t1_max_fs = inf, t2_fs ="
               " 0.0 and extra_idler_delay_fs = 0.0")
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["run", str(scen), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ScenarioError, match=re.escape(message)), pytest.warns(RuntimeWarning):
        run_scenario(parse_scenario(text, base_dir=tmp_path), out_dir=out)
    assert not out.exists()


# a 0.5 mm crystal, a 100 fs pump and a three-row table, 11 points over +-1 m: within the
# delay budget, but 226,835,445 signal nodes by 339,781 pump points for the correlator, and
# a thousand times each over +-1 km, where building the pump lattice alone takes gigabytes
BUDGET_PROBE = ("[crystal]\npreset = mgo_linbo3\nlength_mm = 0.5\n\n[pump]\nt0_fs = 100.0\n"
                + TABULATED_SAMPLE
                + "\n[scan]\ndelta_z_min_mm = -1000.0\ndelta_z_max_mm = 1000.0\npoints = 11\n"
                + "\n[tasks]\nrun = g1_scan\n")
# the scan's half width [mm], the bound set to the scan's own estimate less an amount, and
# whether the plan passes; the probes meet the default bounds with the elements given
CORRELATOR_BUDGET = {
    "probe": ("1000.0", None, 113_417_723 * 339_781, False),
    "probe-1e6-mm": ("1000000.0", None, 38_533_909_805_646_366_991, False),
    "elements-at-the-bound": ("0.05", "MAX_REDUCTION_ELEMENTS", 0, True),
    "one-element-over": ("0.05", "MAX_REDUCTION_ELEMENTS", 1, False),
    "bytes-at-the-bound": ("0.05", "MAX_SIGNAL_AXIS_BYTES", 0, True),
    "one-byte-over": ("0.05", "MAX_SIGNAL_AXIS_BYTES", 1, False),
}


@pytest.mark.parametrize("case", CORRELATOR_BUDGET)
def test_numeric_correlator_over_its_budget_rejected_before_compute(tmp_path, monkeypatch, capsys,
                                                                    case):
    # the plan estimates the correlator's idler reduction elements and signal-axis bytes
    # from its sizes and rejects either over its bound, before any directory or task
    half_mm, bound, less, passes = CORRELATOR_BUDGET[case]
    (tmp_path / "r.csv").write_text("omega,re,im\n-80,0.5,0.1\n0,0.2,0\n80,0.5,0.1\n")
    text = BUDGET_PROBE.replace("1000.0", half_mm)
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    s = parse_scenario(text, base_dir=tmp_path)
    if bound is None:
        message = (f"[scan] window [-{half_mm}, {half_mm}] mm: the numeric correlator takes"
                   f" {less} idler reduction elements, more than the {cli.MAX_REDUCTION_ELEMENTS}"
                   " allowed")
    else:
        # the estimate from the sizes alone is that of the lattice and axis the plan builds
        plan = cli._plan(s)["g1_scan"]
        transform = 1 << 15  # the power of two above n_s + 11 - 1
        estimates = {"MAX_REDUCTION_ELEMENTS": (plan["n_s"] + 1) // 2 * plan["n_u"],
                     "MAX_SIGNAL_AXIS_BYTES": 16 * (2 * plan["n_s"] + 5 * transform)}
        assert plan["n_s"] + 10 <= transform < 2 * (plan["n_s"] + 10)
        monkeypatch.setattr(cli, bound, estimates[bound] - less)
        if passes:
            assert cli._plan(s)["g1_scan"] == plan
            return
        what = ("idler reduction elements" if bound == "MAX_REDUCTION_ELEMENTS"
                else "bytes of signal-axis arrays")
        message = (f"[scan] window [-0.05, 0.05] mm: the numeric correlator takes"
                   f" {estimates[bound]} {what}, more than the {estimates[bound] - less} allowed")

    def forbidden(*args):
        raise AssertionError("a task ran")

    for task in cli._TASK_FN:
        monkeypatch.setitem(cli._TASK_FN, task, forbidden)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(s, out_dir=out)
    assert not out.exists()


# a table's ends, as a share of the band at which the idler reduction reads r, and whether
# its low and its high end then move one ulp inward; and whether the run goes ahead
TABLE_COVERAGE = {
    "at-the-band": (1.0, False, False, True),
    "low-end-an-ulp-inside": (1.0, True, False, False),
    "high-end-an-ulp-inside": (1.0, False, True, False),
    "0.98-of-the-band": (0.98, False, False, False),
}


@pytest.mark.parametrize("case", TABLE_COVERAGE)
def test_table_short_of_the_reduction_band_fails_in_the_plan(tmp_path, monkeypatch, capsys,
                                                             case):
    # the plan rejects a table that does not reach the largest |wi| at which the idler
    # reduction reads r, before the spectrum task ahead of the scan runs and before any
    # directory is made; a table that reaches it bit for bit runs, and one an ulp short
    # fails the unplanned build itself. For a 0.5 mm crystal and a 100 fs pump on 512
    # points, half_s + u[-1] lies an ulp below that band
    share, low, high, runs = TABLE_COVERAGE[case]
    text = (MINIMAL.replace("run = schmidt", "run = spectrum, g1_scan")
            .replace("length_mm = 5.0", "length_mm = 0.5").replace("t0_fs = 212.0", "t0_fs = 100.0")
            + TABULATED_SAMPLE)
    scen = tmp_path / "s.ini"
    scen.write_text(text)

    def with_table(lo, hi):
        (tmp_path / "r.csv").write_text(f"omega,re,im\n{lo!r},0.5,0.1\n0,0.2,0\n{hi!r},0.5,0.1\n")
        return parse_scenario(text, base_dir=tmp_path)

    reads, idler_factor = [], cli.coherence._idler_factor

    def read_spy(sample, t2_fs, wi, f):
        reads.append(float(np.max(np.abs(wi))))
        idler_factor(sample, t2_fs, wi, f)

    s = with_table(-80.0, 80.0)
    plan = cli._plan(s)["g1_scan"]
    dz = np.linspace(*plan["window_mm"], plan["delays"])
    with monkeypatch.context() as patch:
        patch.setattr(cli.coherence, "_idler_factor", read_spy)
        cli._numeric_g1(s, plan, dz)
    band = max(reads)
    lo = float(np.nextafter(-share * band, 0.0)) if low else -share * band
    hi = float(np.nextafter(share * band, 0.0)) if high else share * band
    s = with_table(lo, hi)
    out = tmp_path / "out"
    if runs:
        assert cli._plan(s)["g1_scan"] == plan
        assert main(["run", str(scen), "--out", str(out)]) == 0
        return
    with pytest.raises(ValueError, match="reflectivity query outside tabulated range"):
        cli._numeric_g1(s, plan, dz)

    def forbidden(*args):
        raise AssertionError("a task ran")

    for task in cli._TASK_FN:
        monkeypatch.setitem(cli._TASK_FN, task, forbidden)
    message = (f"[sample] file: the table spans [{lo!r}, {hi!r}] rad/fs, short of the band"
               f" +-{band!r} rad/fs at which the numeric scan's idler reduction reads r")
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(s, out_dir=out)
    assert not out.exists()


def test_unresolved_grid_fails_before_any_task(tmp_path, monkeypatch, capsys):
    # a 10 fs pump on 512 points: the joint spectrum's grid cannot resolve it, and
    # the g1 scan before it, on the numeric route, must not build its correlator first
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n8,0.5,0.1\n")
    text = (MINIMAL.replace("run = schmidt", "run = g1_scan, joint_spectrum")
            .replace("t0_fs = 212.0", "t0_fs = 10.0") + TABULATED_SAMPLE)
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    # a 1 as pump, which no grid of 512 points resolves either, is outside the
    # model: parsing rejects it
    with pytest.raises(ScenarioError, match=re.escape("[pump] t0_fs: bandwidth estimate")):
        parse_scenario(text.replace("t0_fs = 10.0", "t0_fs = 0.001"), base_dir=tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("a correlator was built before the grid check")

    monkeypatch.setattr(cli.coherence, "PairCorrelator", forbidden)
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert re.search(r"error: task joint_spectrum: grid step .* cannot resolve", capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(cli.GridResolutionError) as info:
        run_scenario(parse_scenario(text, base_dir=tmp_path), out_dir=out)
    assert info.value.__notes__ == ["task joint_spectrum"]
    assert not out.exists()


SPECTRUM_OCT = (MINIMAL.replace("run = schmidt", "run = spectrum, oct_scan")
                + "\n[scan]\nfringes = false\n")
# zp1 + c N_i L + z2 of MINIMAL's 5 mm crystal: the pump and idler pulses meet, T2 = 0
SYNCHRONIZED_ZP2_MM = C_MM_FS * mgo_linbo3_crystal(5.0).N_i * 5.0


@pytest.mark.parametrize("geometry,synchronized", [
    pytest.param("zp2_mm = 4.0", False, id="zp2-4mm"),
    pytest.param("synchronize = false", False, id="synchronize-false"),
    pytest.param(f"zp2_mm = {SYNCHRONIZED_ZP2_MM!r}", True, id="zp2-synchronized"),
])
def test_oct_scan_pump_sync_checked_before_any_task(tmp_path, monkeypatch, capsys, geometry,
                                                     synchronized):
    # the spectrum task runs first: an unsynchronized oct_scan must stop the run before it
    spectra = []
    original = cli.biphoton.signal_spectrum

    def spy(*args, **kwargs):
        spectra.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.biphoton, "signal_spectrum", spy)
    text = SPECTRUM_OCT + f"\n[geometry]\n{geometry}\n"
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    out = tmp_path / "out"
    code = main(["run", str(scen), "--out", str(out)])
    err = capsys.readouterr().err
    if synchronized:
        assert code == 0, err
        # the spectrum task's two calls: at full and at half resolution
        assert len(spectra) == 2 and (out / "interferogram.csv").is_file()
        return
    assert code == 1
    assert re.match(r"error: \[geometry\] .*T2 = ", err), err
    assert spectra == [] and not out.exists()
    with pytest.raises(ScenarioError, match=r"^\[geometry\] .*T2 = "):
        run_scenario(parse_scenario(text), out_dir=out)
    assert spectra == [] and not out.exists()


def test_hand_built_unsynchronized_oct_scan_rejected_before_compute(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a task computed before the pump-sync check")

    monkeypatch.setattr(cli.biphoton, "signal_spectrum", forbidden)
    monkeypatch.setattr(cli.oct_scan, "interferogram_closed_form", forbidden)
    s = parse_scenario(SPECTRUM_OCT)
    s = dataclasses.replace(
        s, synchronize=False, geometry=dataclasses.replace(s.geometry, zp2_mm=4.0))
    out = tmp_path / "out"
    with pytest.raises(ScenarioError, match=r"^\[geometry\] .*T2 = ") as info:
        run_scenario(s, out_dir=out)
    assert isinstance(info.value, ValueError)
    assert not out.exists()


def test_numeric_convergence_reports_the_tail_bound(tmp_path, monkeypatch):
    # max|r| / (pi TAIL_SINC_ARG) bounds the sinc^2 tail cut, and h^2/8 max|r''| the
    # table's linear interpolation, which the check cannot see; both are reported beside
    # the delta and take no part in the gate
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n0,0.2,0\n8,0.5,0.1\n")
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE,
                       base_dir=tmp_path)
    bound = abs(0.5 + 0.1j) / (np.pi * cli.coherence.TAIL_SINC_ARG)
    entry = run_scenario(s, out_dir=tmp_path / "a").convergence["g1_scan"]
    assert entry["tail_bound"] == pytest.approx(bound, rel=1e-15)
    assert entry["delta"] < bound
    # the second difference (0.5 + 0.1j) - 2 (0.2) + (0.5 + 0.1j)
    assert entry["interpolation_bound"] == pytest.approx(abs(0.6 + 0.2j) / 8.0, rel=1e-15)
    assert entry["interpolation_bound"] > entry["gate"] and not entry["flagged"]
    monkeypatch.setattr(cli, "CONVERGENCE_GATE", 0.5 * (entry["delta"] + bound))
    again = run_scenario(s, out_dir=tmp_path / "b").convergence["g1_scan"]
    assert again["tail_bound"] > again["gate"] and not again["flagged"]


@pytest.mark.parametrize("points", [256, 512])
@pytest.mark.parametrize("table", ["three-row", "ci-slab"])
def test_numeric_check_below_1024_points_reads_its_change(tmp_path, table, points):
    # at 1024 points the embedded coarse rule meets its alias limit, so fewer points build
    # as 1024 do, the pump lattice with the signal step: the smooth three-row table's
    # 256-point check read 0.08 while its pump lattice alone kept coarsening, and CI's
    # slab table's read 1.6e-7 against a change of 1.0e-5. Now the check reads under
    # the tail bound and no less than the change against a 2048-point build.
    if table == "three-row":
        (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n0,0.2,0\n8,0.5,0.1\n")
        text = MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE
    else:
        text = _ci_tabulated_slab(tmp_path).replace("run = oct_scan, g1_scan", "run = g1_scan")
        text += "\n[grid]\npoints = 512\n"
    scans = {}
    for n in (2048, 1024, points):
        s = parse_scenario(text.replace("points = 512", f"points = {n}"), base_dir=tmp_path)
        plan = cli._plan(s)["g1_scan"]
        scans[n] = cli._numeric_g1(s, plan, np.linspace(*plan["window_mm"], plan["delays"]))
    (g, entry), fine = scans[points], np.abs(scans[2048][0])
    assert g.tobytes() == scans[1024][0].tobytes() and entry == scans[1024][1]
    assert entry["tail_bound"] > entry["delta"] >= np.max(np.abs(np.abs(g) - fine)) > 0


def test_jsi_stride_checked_against_grid_points_override(tmp_path, capsys):
    text = MINIMAL.replace("run = schmidt", "run = joint_spectrum") + "\n[output]\njsi_stride = 300\n"
    s = parse_scenario(text)  # two points per axis on the scenario's 512-point grid
    scen = tmp_path / "s.ini"
    scen.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out), "--grid-points", "256"]) == 1
    message = "[output] jsi_stride = 300 leaves fewer than two points per axis of the 256-point grid"
    assert message in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(dataclasses.replace(s, grid_points=256), out_dir=out)
    assert not out.exists()
    # without a joint spectrum the stride writes nothing and is not checked
    parse_scenario(MINIMAL + "\n[output]\njsi_stride = 100000\n")


def test_manifest_digest_hashes_the_written_bytes(tmp_path):
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = joint_spectrum, schmidt, spectrum"))
    manifest = run_scenario(s, out_dir=tmp_path)
    h = hashlib.sha256(render_scenario(s).encode())
    names = sorted(name for files in manifest.files.values() for name in files)
    for name in names:
        h.update(f"{name}:{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}".encode())
    assert manifest.digest == h.hexdigest()
    # a tabulated sample's parsed arrays follow the canonical text, which names only the file
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n8,0.5,0.1\n")
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE,
                       base_dir=tmp_path)
    out = tmp_path / "tabulated"
    manifest = run_scenario(s, out_dir=out)
    h = hashlib.sha256(render_scenario(s).encode())
    h.update(s.sample.omega.tobytes())
    h.update(s.sample.r.tobytes())
    assert manifest.scenario_digest == h.hexdigest()
    for name in manifest.files["g1_scan"]:
        h.update(f"{name}:{hashlib.sha256((out / name).read_bytes()).hexdigest()}".encode())
    assert manifest.digest == h.hexdigest()


def test_scenario_digest_names_the_table_not_only_its_file(tmp_path):
    text = MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE
    digests, canonical = [], set()
    for r_front in ("0.5", "0.4", "0.5"):  # a second table under the same name, then the first again
        (tmp_path / "r.csv").write_text(f"omega,re,im\n-8,{r_front},0.1\n8,0.5,0.1\n")
        s = parse_scenario(text, base_dir=tmp_path)
        canonical.add(render_scenario(s))
        digests.append(run_scenario(s, out_dir=tmp_path / f"run{len(digests)}").scenario_digest)
    assert len(canonical) == 1
    assert digests[0] != digests[1]
    assert digests[0] == digests[2]


def test_run_builds_each_jsa_once(tmp_path, monkeypatch):
    built = []
    build = cli.biphoton.joint_spectral_intensity

    def counting(kernel, crystal, pump, grid):
        built.append(grid.n_points)
        return build(kernel, crystal, pump, grid)

    monkeypatch.setattr(cli.biphoton, "joint_spectral_intensity", counting)
    text = MINIMAL.replace("run = schmidt", "run = joint_spectrum, schmidt")
    # joint_spectrum streams, the Gaussian schmidt task is closed form and the
    # exact one streams on the run grid and its coarsen grid: no JSA either way
    for kernel in ("gaussian", "exact"):
        s = parse_scenario(text.replace("kernel = gaussian", f"kernel = {kernel}"))
        first = run_scenario(s, out_dir=tmp_path / kernel / "first")
        second = run_scenario(s, out_dir=tmp_path / kernel / "second")
        assert built == []
        assert second.digest == first.digest


def test_joint_spectrum_task_holds_no_full_grid_array():
    # numpy reports its buffers to tracemalloc; one 4096^2 float64 array is 128 MiB
    s = parse_scenario((SCENARIO_DIR / "jsi_anticorrelated.ini").read_text())
    assert (s.grid_points, s.kernel, s.jsi_stride) == (4096, "gaussian", 8)
    tracemalloc.start()
    try:
        files, conv, _ = cli._task_joint_spectrum(s, cli._plan(s)["joint_spectrum"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert files["joint_spectrum.csv"].count("\n") == 513
    assert conv["method"] == "reference"
    assert peak < 4096 ** 2 * 8 // 4


@pytest.mark.parametrize("kernel,spectra", [("gaussian", 0), ("exact", 1)])
def test_joint_spectrum_task_takes_the_gaussian_reference_in_closed_form(
    monkeypatch, kernel, spectra
):
    calls = []
    original = cli.biphoton.signal_spectrum

    def counted(*args, **kwargs):
        calls.append(kwargs.get("resolution", 1.0))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.biphoton, "signal_spectrum", counted)
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = joint_spectrum")
                       .replace("kernel = gaussian", f"kernel = {kernel}"))
    _, conv, extras = cli._task_joint_spectrum(s, cli._plan(s)["joint_spectrum"])
    assert calls == [1.0] * spectra
    assert conv["method"] == "reference"
    if kernel == "gaussian":
        width = cli.biphoton.gaussian_marginal_fwhm(s.crystal, s.pump)
        ref_nm = cli.biphoton.bandwidth_nm(width, s.crystal.lambda_s_nm)
    else:
        ref_nm = original(s.crystal, s.pump, "exact").fwhm_nm
    assert conv["delta"] == abs(extras["marginal_fwhm_nm"] - ref_nm) / ref_nm


def test_spectrum_task_takes_its_check_from_one_quadrature(monkeypatch):
    # both kernels take the check from signal_spectrum at half the resolution:
    # on omega_s[::2], at half the nodes for the exact kernel
    calls = []
    original = cli.biphoton.signal_spectrum

    def counted(*args, **kwargs):
        calls.append(kwargs.get("resolution", 1.0))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.biphoton, "signal_spectrum", counted)
    for kernel in ("exact", "gaussian"):
        calls.clear()
        s = parse_scenario(MINIMAL.replace("run = schmidt", "run = spectrum")
                           .replace("kernel = gaussian", f"kernel = {kernel}"))
        files, conv, extras = cli._task_spectrum(s, cli._plan(s)["spectrum"])
        assert calls == [1.0, 0.5]
        assert files["spectrum.csv"].count("\n") == 4098
        full = original(s.crystal, s.pump, kernel)
        half = original(s.crystal, s.pump, kernel, resolution=0.5)
        assert half.omega_s.size == 2049 and half.omega_s.tobytes() == full.omega_s[::2].tobytes()
        assert extras["fwhm_nm"] == full.fwhm_nm
        assert conv["method"] == "halved-resolution"
        assert conv["delta"] == abs(full.fwhm_nm - half.fwhm_nm) / full.fwhm_nm
        assert 0 < conv["delta"] <= cli.CONVERGENCE_GATE


def test_exact_schmidt_task_holds_no_full_grid_array():
    # the schmidt_sweep item at gamma = 2 with the exact kernel: two passes on
    # 2048 points and the coarsen check on 1024; one 2048^2 float64 array is 32 MiB
    crystal = mgo_linbo3_crystal(5.0)
    t0 = float(SINC_GAUSS_ALPHA * crystal.dl / (2.0 * np.sqrt(2.0) * 2.0))
    text = MINIMAL.replace("t0_fs = 212.0", f"t0_fs = {t0!r}")
    text = text.replace("points = 512", "points = 2048").replace("kernel = gaussian", "kernel = exact")
    s = parse_scenario(text)
    tracemalloc.start()
    try:
        files, conv, _ = cli._task_schmidt(s, cli._plan(s)["schmidt"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conv["method"] == "coarsen" and conv["delta"] <= cli.CONVERGENCE_GATE
    assert len(json.loads(files["schmidt.json"])["coefficients"]) > 1
    assert peak < 2048 ** 2 * 8 // 2


def test_quasi_cw_tabulated_oct_scan_task_stays_in_its_blocks():
    # the benchmark's quasi-CW slab: 51,277 signal rows by 35 pump points, so
    # 1 chunk of 1e6 elements (71 MiB traced) or 4 of coherence.BLOCK_ELEMENTS, or on
    # two threads 8 of half that; two threads of full-size chunks fail the bound
    s = parse_scenario(OCT_SCENARIO.replace("run = oct_scan, g1_scan", "run = oct_scan"))
    crystal, slab = s.crystal, s.sample
    deepest = dataclasses.replace(slab, d0_um=25.0)
    lo, hi = cli.oct_scan.default_scan_range(crystal, deepest)
    # the correlator's idler band with a 5% margin, 16 points per period of r
    ridge = cli.coherence._ridge(crystal, "exact")
    half_s = 2.0 * cli.coherence.TAIL_SINC_ARG / crystal.dl + ridge * 8.0 / s.pump.t0_fs
    band = 1.05 * (half_s + 8.0 / s.pump.t0_fs)
    w = np.linspace(-band, band, int(2.0 * band * deepest.tau_fs * 16 / (2.0 * np.pi)) + 1)
    s = dataclasses.replace(
        s,
        sample=TabulatedSample(omega=w, r=slab.reflectivity(w)),
        sample_file="slab.csv",
        grid_points=2048,
        scan=dataclasses.replace(s.scan, delta_z_min_mm=lo, delta_z_max_mm=hi, points=401),
    )
    tracemalloc.start()
    try:
        files, conv, _ = cli._task_oct_scan(s, cli._plan(s)["oct_scan"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert files["interferogram.csv"].count("\n") == 402
    assert conv["method"] == "halved-resolution" and conv["delta"] <= cli.CONVERGENCE_GATE
    assert peak < 32 * 2 ** 20


def _ci_tabulated_slab(tmp_path):
    """CI's tabulated slab: a 20 um slab, 64 points per period of r over the correlator's band."""
    crystal, pump = mgo_linbo3_crystal(0.5), PumpPulse(100.0)
    slab = cli.BilayerSample.from_fresnel(1.0, 1.5, 1.3, 20.0, crystal.omega_i0)
    ridge = cli.coherence._ridge(crystal, "exact")
    band = 1.05 * (2.0 * cli.coherence.TAIL_SINC_ARG / crystal.dl
                   + (ridge + 1.0) * 8.0 / pump.t0_fs)
    w = np.linspace(-band, band, int(2.0 * band * slab.tau_fs * 64 / (2.0 * np.pi)) + 1)
    r = slab.reflectivity(w)
    np.savetxt(tmp_path / "slab.csv", np.column_stack([w, r.real, r.imag]), fmt="%.17g",
               delimiter=",", header="omega_rad_fs,r_real,r_imag", comments="")
    lo, hi = cli.oct_scan.default_scan_range(crystal, slab)
    return ("[crystal]\npreset = mgo_linbo3\nlength_mm = 0.5\n\n[pump]\nt0_fs = 100.0\n\n"
            "[sample]\ntype = tabulated\nfile = slab.csv\n\n"
            f"[scan]\ndelta_z_min_mm = {lo!r}\ndelta_z_max_mm = {hi!r}\n\n"
            "[tasks]\nrun = oct_scan, g1_scan\n")


PLANNED = [pytest.param(path.name, id=path.stem) for path in sorted(SCENARIO_DIR.glob("*.ini"))]


@pytest.mark.parametrize("name", [*PLANNED, pytest.param("exact", id="jsi_separable-exact"),
                                  pytest.param("slab", id="ci-tabulated-slab"),
                                  pytest.param("slab-1024", id="ci-tabulated-slab-1024")])
def test_every_build_uses_the_planned_sizes(tmp_path, monkeypatch, name):
    if name.startswith("slab"):
        points = "\n[grid]\npoints = 1024\n" if name == "slab-1024" else ""
        s = parse_scenario(_ci_tabulated_slab(tmp_path) + points, base_dir=tmp_path)
    else:
        text = (SCENARIO_DIR / ("jsi_separable.ini" if name == "exact" else name)).read_text()
        s = parse_scenario(text.replace("kernel = gaussian", f"kernel = {name}")
                           if name == "exact" else text)
    planned = []

    def count_spy(original):
        def spy(*args, **kwargs):
            planned.append(original.__name__)
            return original(*args, **kwargs)
        return spy

    for attr in ("_table_delay", "correlator_sizes"):
        monkeypatch.setattr(cli.coherence, attr, count_spy(getattr(cli.coherence, attr)))
    plans = cli._plan(s)
    numeric = [task for task, plan in plans.items() if plan["route"] == "numeric"]
    # the plan reads a table's delay and sizes its correlator once for every scan
    assert planned == (["_table_delay", "correlator_sizes"] if numeric else [])
    planned.clear()
    built = []
    make_grid = cli.make_frequency_grid

    def grid_spy(crystal, pump, n_points, half_width=None):
        grid = make_grid(crystal, pump, n_points, half_width=half_width)
        built.append(("grid", n_points, half_width))
        assert grid.omega_s[-1] == half_width
        return grid

    def modes_spy(original):
        def spy(gamma, max_modes=None):
            built.append(("modes", max_modes))
            return original(gamma, max_modes=max_modes)
        return spy

    lattices = []
    quadrature = cli.coherence._pump_quadrature

    def lattice_spy(crystal, pump, omega_s, lattice, **kwargs):
        lattices.append((omega_s.size, lattice[0].size, lattice[1]))
        return quadrature(crystal, pump, omega_s, lattice, **kwargs)

    def delays_spy(original, at=4):
        def spy(*args, **kwargs):
            dz = args[at]
            built.append(("delays", dz.size, dz[0], dz[-1]))
            return original(*args, **kwargs)
        return spy

    correlator = cli.coherence.PairCorrelator

    def correlator_spy(crystal, pump, sample, *args, **kwargs):
        built.append(("build", args, kwargs))
        lattices.clear()
        corr = correlator(crystal, pump, sample, *args, **kwargs)
        # the signal axis and the pump lattice the idler reduction ran on
        built.append(("sizes", *lattices[0]))
        return corr

    monkeypatch.setattr(cli, "make_frequency_grid", grid_spy)
    monkeypatch.setattr(cli.biphoton, "schmidt_gaussian", modes_spy(cli.biphoton.schmidt_gaussian))
    for owner, attr in [(cli.coherence, "g1_closed_form"),
                        (cli.oct_scan, "interferogram_closed_form")]:
        monkeypatch.setattr(owner, attr, delays_spy(getattr(owner, attr)))
    monkeypatch.setattr(cli, "_numeric_g1", delays_spy(cli._numeric_g1, at=2))
    monkeypatch.setattr(cli.coherence, "PairCorrelator", correlator_spy)
    monkeypatch.setattr(cli.coherence, "_pump_quadrature", lattice_spy)
    for task in s.tasks:
        plan, before = plans[task], len(built)
        cli._TASK_FN[task](s, plan)
        if task == "joint_spectrum":
            expected = [("grid", *plan["grid"].values())]
        elif task == "schmidt":
            expected = ([("modes", plan["grid"]["n_points"])] if plan["route"] == "analytic" else
                        [("grid", *plan["coarse"].values()), ("grid", *plan["grid"].values())])
        elif task == "spectrum":
            expected = []
        else:
            expected = [("delays", plan["delays"], *plan["window_mm"])]
            if plan["route"] == "numeric":
                expected += [("build", (), {"resolution": plan["resolution"],
                                            **plan["correlator"]}),
                             ("sizes", plan["n_s"], plan["n_u"], plan["m"])]
        assert built[before:] == expected, task
    # each build sizes itself once, from the plan's arguments, and reads no table delay
    assert planned == ["correlator_sizes"] * len(numeric)
    # the plan's sizes are the scenario's, resolved by the library's own rules
    for task, plan in plans.items():
        if "grid" in plan:
            default = make_grid(s.crystal, s.pump, s.grid_points, half_width=s.grid_half_width)
            assert plan["grid"] == {"n_points": s.grid_points, "half_width": default.omega_s[-1]}
        if "coarse" in plan:
            assert plan["coarse"] == plan["grid"] | {
                "n_points": max(cli.MIN_GRID_POINTS, s.grid_points // 2)}
        if "delays" in plan:
            window = (s.scan.delta_z_min_mm, s.scan.delta_z_max_mm)
            axis = cli.oct_scan.scan_axis(s.crystal, s.sample, s.scan.fringes,
                                          s.scan.points or (401 if task == "g1_scan" else None),
                                          None if window[0] is None else window)
            assert (axis.size, axis[0], axis[-1]) == (plan["delays"], *plan["window_mm"])
        assert plan.get("resolution") == (s.grid_points / 2048.0 if plan["route"] == "numeric"
                                          else None)
        sized = {"correlator", "n_s", "n_u", "m"}
        assert sized & set(plan) == (sized if plan["route"] == "numeric" else set())
    # one correlator for every scan, with the arguments g1_scan's own build takes
    for task in numeric:
        dz = np.linspace(*plans[task]["window_mm"], plans[task]["delays"])
        assert plans[task]["correlator"] == cli.coherence._scan_arguments(
            s.crystal, s.effective_geometry(), s.sample, dz)


# ---------------------------------------------------------------- shipped recipes

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


def test_schmidt_run_does_not_load_numpy_random(tmp_path):
    scen = tmp_path / "s.ini"
    scen.write_text(MINIMAL.replace("points = 512", "points = 1024"))
    script = (
        "import sys, nlintsim\n"
        "from nlintsim.cli_runner import main\n"
        "assert 'numpy.random' not in sys.modules, 'import'\n"
        f"assert main(['run', {str(scen)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'schmidt run'\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "schmidt.json").exists()


def test_import_without_scipy():
    proc = _python("-c", "import sys; sys.modules['scipy'] = None; import nlintsim")
    assert proc.returncode == 0, proc.stderr
