import configparser
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    C_MM_FS, SINC_GAUSS_ALPHA, FrequencyGrid, TabulatedSample, _symmetric_axis,
    mgo_linbo3_crystal,
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
        MINIMAL.replace("run = schmidt", "run = joint_spectrum") + "\n[output]\njsi_stride = 512\n",
        "[output] jsi_stride = 512 leaves fewer than two points per axis of the 512-point grid",
        id="jsi-stride-one-point",
    ),
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


# ---------------------------------------------------------------- exports

def test_export_series_empty_is_header_only():
    assert export_series(["a", "b"], [], "csv") == "a,b\n"


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


@settings(max_examples=500, deadline=None)
@given(zero_margined_tables())
def test_csv_writer_matches_per_value_writer(case):
    block, table = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CSV_BLOCK", block)
        text = "".join(cli._csv_blocks(table))
    assert text == "".join(line + "\n" for line in _fmt9_csv(table))


@settings(max_examples=500, deadline=None)
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
    grid = cli._grid(s, s.grid_points)
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


@pytest.mark.parametrize("points,built,methods", [
    pytest.param(256, [256, 256], ("reference", "unavailable"), id="smallest-grid"),
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
    manifest = run_scenario(parse_scenario(text), out_dir=tmp_path)
    assert sorted(sizes) == built
    conv = manifest.convergence
    assert (conv["joint_spectrum"]["method"], conv["schmidt"]["method"]) == methods
    if points == 256:
        assert np.isfinite(conv["joint_spectrum"]["delta"])
        assert np.isnan(conv["schmidt"]["delta"])
        assert not conv["schmidt"]["flagged"]


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


def test_unresolved_grid_fails_before_any_task(tmp_path, monkeypatch, capsys):
    # a 1 as pump: the joint spectrum's grid cannot resolve it, and the g1 scan
    # before it, on the numeric route, must not build its correlator first
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n8,0.5,0.1\n")
    text = (MINIMAL.replace("run = schmidt", "run = g1_scan, joint_spectrum")
            .replace("t0_fs = 212.0", "t0_fs = 0.001") + TABULATED_SAMPLE)
    scen = tmp_path / "s.ini"
    scen.write_text(text)

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
        assert len(spectra) == 1 and (out / "interferogram.csv").is_file()
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
    # max|r| / (pi TAIL_SINC_ARG) bounds the sinc^2 tail cut that the check cannot
    # see; it is reported beside the delta and takes no part in the gate
    (tmp_path / "r.csv").write_text("omega,re,im\n-8,0.5,0.1\n0,0.2,0\n8,0.5,0.1\n")
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = g1_scan") + TABULATED_SAMPLE,
                       base_dir=tmp_path)
    bound = abs(0.5 + 0.1j) / (np.pi * cli.coherence.TAIL_SINC_ARG)
    entry = run_scenario(s, out_dir=tmp_path / "a").convergence["g1_scan"]
    assert entry["tail_bound"] == pytest.approx(bound, rel=1e-15)
    assert entry["delta"] < bound
    monkeypatch.setattr(cli, "CONVERGENCE_GATE", 0.5 * (entry["delta"] + bound))
    again = run_scenario(s, out_dir=tmp_path / "b").convergence["g1_scan"]
    assert again["tail_bound"] > again["gate"] and not again["flagged"]


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
        files, conv, _ = cli._task_joint_spectrum(s, s.grid_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert files["joint_spectrum.csv"].count("\n") == 513
    assert conv["method"] == "reference"
    assert peak < 4096 ** 2 * 8 // 4


@pytest.mark.parametrize("kernel,quadratures", [("gaussian", 0), ("exact", 1)])
def test_joint_spectrum_task_takes_the_gaussian_reference_in_closed_form(
    monkeypatch, kernel, quadratures
):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli.biphoton, "signal_spectrum", counted(cli.biphoton.signal_spectrum))
    monkeypatch.setattr(cli.biphoton, "_pump_quadrature", counted(cli.biphoton._pump_quadrature))
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = joint_spectrum")
                       .replace("kernel = gaussian", f"kernel = {kernel}"))
    _, conv, extras = cli._task_joint_spectrum(s, s.grid_points)
    assert calls == ["signal_spectrum", "_pump_quadrature"] * quadratures
    assert conv["method"] == "reference"
    if kernel == "gaussian":
        width = cli.biphoton.gaussian_marginal_fwhm(s.crystal, s.pump)
        ref_nm = cli.biphoton.bandwidth_nm(width, s.crystal.lambda_s_nm)
        assert conv["delta"] == abs(extras["marginal_fwhm_nm"] - ref_nm) / ref_nm


def test_spectrum_task_takes_its_check_from_one_quadrature(monkeypatch):
    calls = []
    quadrature = cli.biphoton._pump_quadrature

    def counted(*args, **kwargs):
        calls.append(kwargs.get("resolution", 1.0))
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(cli.biphoton, "_pump_quadrature", counted)
    s = parse_scenario(MINIMAL.replace("run = schmidt", "run = spectrum"))
    files, conv, extras = cli._task_spectrum(s, s.grid_points)
    assert calls == [1.0]
    assert files["spectrum.csv"].count("\n") == 4098
    # the embedded coarse rule's width against a second quadrature at half the resolution
    half = cli.biphoton.signal_spectrum(s.crystal, s.pump, s.kernel, resolution=0.5).fwhm_nm
    standalone = abs(extras["fwhm_nm"] - half) / extras["fwhm_nm"]
    assert conv["method"] == "halved-resolution" and 0 < conv["delta"] <= cli.CONVERGENCE_GATE
    assert 0.5 <= conv["delta"] / standalone <= 2.0


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
        files, conv, _ = cli._task_schmidt(s, s.grid_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conv["method"] == "coarsen" and conv["delta"] <= cli.CONVERGENCE_GATE
    assert len(json.loads(files["schmidt.json"])["coefficients"]) > 1
    assert peak < 2048 ** 2 * 8 // 2


def test_quasi_cw_tabulated_oct_scan_task_stays_in_its_blocks():
    # the benchmark's quasi-CW slab: 109,843 signal rows by 35 pump points, so
    # 4 chunks of 1e6 elements (83 MiB traced) or 16 of coherence.BLOCK_ELEMENTS
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
        files, conv, _ = cli._task_oct_scan(s, s.grid_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert files["interferogram.csv"].count("\n") == 402
    assert conv["method"] == "halved-resolution" and conv["delta"] <= cli.CONVERGENCE_GATE
    assert peak < 32 * 2 ** 20


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
