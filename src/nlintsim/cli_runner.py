"""Declarative scenario execution and the ``nlint-sim`` command line tool.

A scenario is a flat INI-style text file with sections crystal / pump /
geometry / sample / grid / scan / tasks / output. ``_FIELDS`` is its one
schema: each key's section, kind, default, single-key check and canonical
value, which parsing, rendering and validation all read. Parsing validates
every key, unit conversions happen once at the boundary, and a run writes one
or more data files per task plus a run manifest with convergence diagnostics.
Identical scenario text always produces bit-identical data files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import biphoton, coherence, oct_scan
from .optics_model import (
    AnalysisError,
    BilayerSample,
    C_MM_FS,
    C_NM_FS,
    CrystalParams,
    GridResolutionError,
    InterferometerGeometry,
    MIN_GRID_POINTS,
    NumericalConsistencyError,
    PumpPulse,
    SampleModel,
    TabulatedSample,
    UniformSample,
    _resolved_half_width,
    gamma_param,
    make_frequency_grid,
    mgo_linbo3_crystal,
)

TASK_NAMES = ("joint_spectrum", "schmidt", "g1_scan", "oct_scan", "spectrum")
CONVERGENCE_GATE = 1e-4
# the paper's low-gain model: coherence.photon_number of a crystal above this is rejected
MAX_PAIRS_PER_PULSE = 0.1
# its first-order dispersion: a bandwidth estimate max(1/T0, 1/(|D|L)) above this fraction
# of the idler carrier is rejected (the bundled and benchmark scenarios reach 0.082)
MAX_BANDWIDTH_FRACTION = 0.25
# a scan of more delays is rejected before compute (the bundled and benchmark scans take
# at most 17,494)
MAX_SCAN_POINTS = 200_000
# a numeric scan whose correlator's idler reduction takes more (ws, u) elements (about 6 s
# on two CPUs), or whose signal-axis arrays take more bytes (coherence._correlator_cost), is
# rejected before compute (the benchmark, CI and test scans take at most 6,139,985 elements
# and 7.0 MB; no bundled scenario takes the numeric route)
MAX_REDUCTION_ELEMENTS = 1_000_000_000
MAX_SIGNAL_AXIS_BYTES = 1 << 30

CRYSTAL_PRESETS = {
    "mgo_linbo3": mgo_linbo3_crystal,
}


class ScenarioError(ValueError):
    """Scenario text is syntactically or semantically invalid."""


@dataclass(frozen=True)
class ScanSpec:
    delta_z_min_mm: float | None = None
    delta_z_max_mm: float | None = None
    points: int | None = None
    fringes: bool = True


@dataclass(frozen=True)
class Scenario:
    crystal: CrystalParams
    pump: PumpPulse
    geometry: InterferometerGeometry
    synchronize: bool
    sample: SampleModel
    sample_file: str | None
    r_polar: tuple[float, float] | None  # a uniform sample's (r_abs, r_phase_rad) as given
    grid_points: int
    grid_half_width: float | None
    kernel: str
    scan: ScanSpec
    tasks: tuple
    output_dir: str
    output_format: str
    jsi_stride: int

    def effective_geometry(self) -> InterferometerGeometry:
        if self.synchronize:
            return coherence.synchronize_pump_path(self.geometry, self.crystal)
        return self.geometry


@dataclass(frozen=True)
class RunManifest:
    scenario_digest: str
    digest: str
    grid_points: int
    files: dict
    seconds: dict
    convergence: dict
    extras: dict

    @property
    def convergence_ok(self) -> bool:
        return not any(entry["flagged"] for entry in self.convergence.values())


# ---------------------------------------------------------------------------
# the scenario schema

def _sample_type(scenario: Scenario) -> str:
    """The ``[sample] type`` of the scenario's sample."""
    if isinstance(scenario.sample, UniformSample):
        return "uniform"
    return "bilayer" if isinstance(scenario.sample, BilayerSample) else "tabulated"


def _of_sample(stype: str, value):
    """Render column: ``value(scenario)`` when the sample has type ``stype``, else None."""
    return lambda scenario: value(scenario) if _sample_type(scenario) == stype else None


def _sample_file(scenario: Scenario) -> str:
    if scenario.sample_file is None:
        raise ScenarioError("tabulated sample has no source file to render")
    return scenario.sample_file


# The one scenario schema, in canonical order. A row is (section, key, kind,
# default, check, render). ``default`` is the value of an absent key. ``check``
# maps a given value to a false value when it is valid, else to the text that
# follows ``[section] key`` in its error. ``render`` maps a Scenario to the
# value its canonical text writes, or to None to leave the key out. Rules that
# join two or more keys are in parse_scenario.
_FIELDS = (
    ("crystal", "preset", str, None, lambda name: name not in CRYSTAL_PRESETS
        and f": unknown preset {name!r}; available: {', '.join(sorted(CRYSTAL_PRESETS))}", None),
    ("crystal", "length_mm", float, 5.0, None, lambda s: s.crystal.length_mm),
    ("crystal", "d_fs_per_mm", float, None, None, lambda s: s.crystal.D),
    ("crystal", "d_plus_fs_per_mm", float, None, None, lambda s: s.crystal.D_plus),
    ("crystal", "n_i_fs_per_mm", float, None, None, lambda s: s.crystal.N_i),
    ("crystal", "lambda_p_nm", float, None, None, lambda s: s.crystal.lambda_p_nm),
    ("crystal", "lambda_s_nm", float, None, None, lambda s: s.crystal.lambda_s_nm),
    ("crystal", "lambda_i_nm", float, None, None, lambda s: s.crystal.lambda_i_nm),
    ("crystal", "sigma", float, 0.01, None, lambda s: s.crystal.sigma),
    ("pump", "t0_fs", float, None, None, lambda s: s.pump.t0_fs),
    ("pump", "t0_ps", float, None, None, None),
    ("geometry", "z1_mm", float, 0.0, None, lambda s: s.geometry.z1_mm),
    ("geometry", "z2_mm", float, 0.0, None, lambda s: s.geometry.z2_mm),
    ("geometry", "z3_mm", float, 0.0, None, lambda s: s.geometry.z3_mm),
    ("geometry", "zp1_mm", float, 0.0, None, lambda s: s.geometry.zp1_mm),
    ("geometry", "zp2_mm", float, 0.0, None,
        lambda s: None if s.synchronize else s.geometry.zp2_mm),
    # absent: true unless zp2_mm is given
    ("geometry", "synchronize", bool, None, None, lambda s: s.synchronize),
    ("sample", "type", str, "uniform", lambda name: name not in ("uniform", "bilayer", "tabulated")
        and f": unknown type {name!r} (expected uniform, bilayer or tabulated)", _sample_type),
    ("sample", "r_abs", float, 1.0, None, _of_sample("uniform", lambda s: s.r_polar[0])),
    ("sample", "r_phase_rad", float, 0.0, None, _of_sample("uniform", lambda s: s.r_polar[1])),
    ("sample", "r0", float, None, None, _of_sample("bilayer", lambda s: s.sample.r0)),
    ("sample", "r1", float, None, None, _of_sample("bilayer", lambda s: s.sample.r1)),
    ("sample", "thickness_um", float, None, None, _of_sample("bilayer", lambda s: s.sample.d0_um)),
    ("sample", "n_slab", float, None, None, _of_sample("bilayer", lambda s: s.sample.n0)),
    ("sample", "n_before", float, 1.0, None, None),
    ("sample", "n_after", float, None, None, None),
    ("sample", "file", str, None, None, _of_sample("tabulated", _sample_file)),
    ("grid", "points", int, 2048, lambda n: n < MIN_GRID_POINTS
        and f" must be at least {MIN_GRID_POINTS}", lambda s: s.grid_points),
    ("grid", "kernel", str, "exact", lambda name: name not in ("exact", "gaussian")
        and f": expected exact or gaussian, got {name!r}", lambda s: s.kernel),
    ("grid", "half_width_rad_fs", float, None, lambda w: w <= 0 and " must be positive",
        lambda s: s.grid_half_width),
    ("scan", "delta_z_min_mm", float, None, None, lambda s: s.scan.delta_z_min_mm),
    ("scan", "delta_z_max_mm", float, None, None, lambda s: s.scan.delta_z_max_mm),
    ("scan", "points", int, None, lambda n: n < 2 and " must be at least 2",
        lambda s: s.scan.points),
    ("scan", "fringes", bool, True, None, lambda s: s.scan.fringes),
    ("tasks", "run", str, None, None, lambda s: ", ".join(s.tasks)),
    ("output", "directory", str, "out", None, lambda s: s.output_dir),
    ("output", "format", str, "csv", lambda name: name not in ("csv", "json")
        and f": expected csv or json, got {name!r}", lambda s: s.output_format),
    ("output", "jsi_stride", int, 1, lambda n: n < 1 and " must be >= 1", lambda s: s.jsi_stride),
)
_FIELD = {(section, key): row for section, key, *row in _FIELDS}

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}
_WRITE = {float: repr, int: str, str: str, bool: lambda value: "true" if value else "false"}


def _build(section: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)`` with its ValueError reported under ``[section]``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] invalid parameters: {exc}") from exc


# Tabulated samples. A table whose body holds only [sign]digits[.digits][e[sign]digits]
# fields is read in chunks of whole lines: each field as an integer mantissa M,
# which np.fromstring reads from the chunk with its "." and signs removed, times
# 10**j, with j and the signs from byte positions. M < 10**19 and 10**j, |j| <= 27,
# are exact in x87's 64-bit significand, so M * 10**j is one correctly rounded long
# double q, and q's rounding to double is the correctly rounded value unless q lies
# on a midpoint between two doubles (its 11 low significand bits read 0x400):
# Clinger's exact fast path (PLDI 1990) widened to 64 bits. float() reads the
# midpoints and the fields outside those bounds.

_TABLE_CHUNK = 1 << 18  # bytes per pass: its temporaries stay cache-sized
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_POW10_LD = np.array([10 ** k for k in range(28)], np.longdouble)  # exact
_TO_COMMA = bytes.maketrans(b"e\n", b",,")


def _read_table(path: Path) -> np.ndarray:
    """``np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)``, bit for bit, or its error.

    Below an ASCII header line without CR, a body of ``[sign]digits[.digits]``
    ``[e[sign]digits]`` fields, every row as wide as the first, and blank lines
    only at its end, is read ``_TABLE_CHUNK`` bytes at a time. np.loadtxt reads
    any other table whole: one with whitespace, ``#``, CRLF, other blank lines,
    ``nan``, ``inf`` or ``E``, ragged rows or an empty body, and every table
    where long double is not x87's.
    """
    blocks = []
    with open(path, "rb") as f:
        header = f.readline()
        if _EXTENDED and header.isascii() and b"\r" not in header:
            for chunk in _whole_lines(f):
                blocks.append(_table_chunk(chunk, blocks[0].shape[1] if blocks else 0))
                if blocks[-1] is None:
                    blocks = []
                    break
    if blocks:
        return np.concatenate(blocks)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _whole_lines(f):
    """The rest of binary file ``f`` without its closing blank lines, about
    _TABLE_CHUNK bytes at a time, each piece ending in a newline."""
    tail = b""
    while data := f.read(_TABLE_CHUNK):
        cut = data.rfind(b"\n", 0, len(data.rstrip(b"\n"))) + 1  # blank lines stay in tail
        if cut:
            yield tail + data[:cut]
            tail = data[cut:]
        else:
            tail += data
    if tail := tail.rstrip(b"\n"):
        yield tail + b"\n"


def _table_chunk(buf: bytes, cols: int) -> np.ndarray | None:
    """The rows of whole table lines, or None when np.loadtxt must read the table.

    ``cols`` is the width of the rows before, 0 for the first chunk.
    """
    b = np.frombuffer(buf, np.uint8)
    p = np.flatnonzero((b - 48) > 9)  # the marks: every byte but a digit
    k = b[p]
    end = (k == 44) | (k == 10)  # "," or newline
    i_sep, i_dot, i_e = np.flatnonzero(end), np.flatnonzero(k == 46), np.flatnonzero(k == 101)
    p_sign = p[np.flatnonzero((k == 43) | (k == 45))]
    rows, n = k[i_sep] == 10, i_sep.size
    cols = cols or int(rows.argmax()) + 1
    if (n % cols or not rows[cols - 1::cols].all() or np.count_nonzero(rows) != n // cols
            or n + i_dot.size + i_e.size + p_sign.size != p.size):  # ragged, or another byte
        return None
    sep, p_dot, p_e = p[i_sep], p[i_dot], p[i_e]
    field = np.cumsum(end, dtype=np.int32)  # the field of each mark but a separator
    f_dot, f_e = field[i_dot].astype(np.intp), field[i_e].astype(np.intp)
    start = np.concatenate(([0], sep[:-1] + 1))
    mend = sep.copy()  # where each mantissa ends
    mend[f_e] = p_e
    # b[-1], read for a sign at byte 0, is the chunk's closing newline
    head, after_e, before_sign = b[start], b[p_e + 1], b[p_sign - 1]
    digits = mend - start - ((head == 43) | (head == 45))
    np.subtract.at(digits, f_dot, 1)
    # one "." and one "e" a field, the "." first; a sign leads the field or
    # follows the "e"; the mantissa and the exponent each hold a digit
    if (np.any(f_dot[1:] <= f_dot[:-1]) or np.any(f_e[1:] <= f_e[:-1])
            or np.any(p_dot > mend[f_dot]) or digits.min() < 1
            or not np.all((before_sign == 44) | (before_sign == 10) | (before_sign == 101))
            or np.any(sep[f_e] - p_e - ((after_e == 43) | (after_e == 45)) < 2)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an older numpy warns where it stops early
            tokens = np.fromstring(buf.translate(_TO_COMMA, b".+-"), np.uint64, sep=",")
    except (ValueError, Warning):
        return None
    t_e = f_e + np.arange(f_e.size) + 1  # the exponents' tokens
    if tokens.size != n + t_e.size:
        return None
    exponent = np.minimum(tokens[t_e], 999).astype(np.int64)
    j = np.zeros(n, np.int64)
    j[f_dot] = p_dot + 1 - mend[f_dot]
    j[f_e] += np.where(after_e == 45, -exponent, exponent)
    mantissa = np.delete(tokens, t_e)
    # one of the two factors is 1, so q is rounded once
    q = mantissa.astype(np.longdouble)
    q *= np.take(_POW10_LD, np.clip(j, 0, 27))
    q /= np.take(_POW10_LD, np.clip(-j, 0, 27))
    x = q.astype(np.float64)
    np.negative(x, out=x, where=head == 45)
    # uint64 saturates at 2**64 - 1, so more than 19 digits reads as at least 10**19
    slow = np.flatnonzero((q.view(np.uint16)[::q.itemsize // 2] & 0x7FF == 0x400)
                          | (np.abs(j) > 27) | (mantissa >= 10 ** 19))
    x[slow] = [float(buf[s:e]) for s, e in zip(start[slow].tolist(), sep[slow].tolist())]
    return x.reshape(-1, cols)


def parse_scenario(text: str, base_dir: str | Path | None = None) -> Scenario:
    """Parse and validate scenario text into a Scenario.

    Unknown sections or keys are rejected, and so are known keys this
    scenario does not use (say ``n_after`` on a bilayer given by r0 and r1);
    invariant violations are reported with their field path. A key given with
    an empty value is an error, not a request for its default. A crystal
    whose mean pair number per pulse exceeds MAX_PAIRS_PER_PULSE is outside
    the low-gain model and is rejected, and so is a crystal and pump whose
    bandwidth estimate max(1/T0, 1/(|D|L)) exceeds MAX_BANDWIDTH_FRACTION of
    the idler carrier, outside first-order dispersion. ``base_dir`` anchors
    relative tabulated-sample paths. A tabulated sample's table is read by
    ``_read_table``, into the arrays np.loadtxt reads, and a table np.loadtxt
    rejects is reported under ``[sample] invalid parameters`` with its text.
    """
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario syntax error: {exc}") from exc

    for section in cp.sections():
        if not any(row[0] == section for row in _FIELDS):
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in _FIELD:
                raise ScenarioError(f"unknown key [{section}] {key}")

    def given(section, key):
        return cp.has_section(section) and key in cp[section]

    used = set()

    def get(section, key):
        """``key`` read as its row's kind and past its check, or its default when absent."""
        kind, default, check, _ = _FIELD[section, key]
        used.add((section, key))
        if not given(section, key):
            return default
        raw = cp[section][key].strip()
        if kind is str:
            if not raw:
                raise ScenarioError(f"[{section}] {key}: empty value")
            value = raw
        else:
            try:
                value = _BOOL[raw.lower()] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                name = _KIND_NAMES[kind]
                raise ScenarioError(f"[{section}] {key}: not {name}: {raw!r}") from None
            if kind is float and not np.isfinite(value):
                raise ScenarioError(f"[{section}] {key}: not a finite number: {raw!r}")
        problem = check and check(value)
        if problem:
            raise ScenarioError(f"[{section}] {key}{problem}")
        return value

    def need(section, key, message):
        """``get(section, key)``, or ScenarioError(message) when the key is absent."""
        if not given(section, key):
            raise ScenarioError(message)
        return get(section, key)

    # crystal
    if not cp.has_section("crystal"):
        raise ScenarioError("missing required section [crystal]")
    preset = get("crystal", "preset")
    if preset is not None:
        crystal = _build(
            "crystal", CRYSTAL_PRESETS[preset],
            length_mm=get("crystal", "length_mm"),
            sigma=get("crystal", "sigma"),
        )
    else:
        # in CrystalParams' field order, before sigma
        required = (
            "length_mm", "d_fs_per_mm", "d_plus_fs_per_mm", "n_i_fs_per_mm",
            "lambda_p_nm", "lambda_s_nm", "lambda_i_nm",
        )
        missing = [k for k in required if not given("crystal", k)]
        if missing:
            raise ScenarioError(
                f"[crystal] missing keys without preset: {', '.join(missing)}"
            )
        crystal = _build(
            "crystal", CrystalParams, *(get("crystal", key) for key in (*required, "sigma"))
        )
    pairs = coherence.photon_number(crystal)
    if pairs > MAX_PAIRS_PER_PULSE:
        raise ScenarioError(
            f"[crystal] sigma: 2 pi sigma^2 L / |D| = {float(pairs)!r} pairs per pulse "
            f"exceeds the low-gain bound {MAX_PAIRS_PER_PULSE}"
        )

    # pump
    if not cp.has_section("pump"):
        raise ScenarioError("missing required section [pump]")
    if given("pump", "t0_fs") == given("pump", "t0_ps"):
        raise ScenarioError("[pump] give exactly one of t0_fs or t0_ps")
    if given("pump", "t0_fs"):
        pump = _build("pump", PumpPulse, get("pump", "t0_fs"))
    else:
        pump = _build("pump", PumpPulse.from_ps, get("pump", "t0_ps"))
    bandwidth = {f"[pump] {'t0_fs' if given('pump', 't0_fs') else 't0_ps'}": 1.0 / pump.t0_fs,
                 "[crystal] length_mm": 1.0 / crystal.dl}
    field = max(bandwidth, key=bandwidth.get)
    bound = MAX_BANDWIDTH_FRACTION * crystal.omega_i0
    if bandwidth[field] > bound:
        raise ScenarioError(
            f"{field}: bandwidth estimate max(1/T0, 1/(|D|L)) = {float(bandwidth[field])!r} rad/fs"
            f" exceeds {MAX_BANDWIDTH_FRACTION} omega_i0 = {float(bound)!r} rad/fs, the first-order"
            " dispersion model's bound")

    # geometry
    synchronize = get("geometry", "synchronize")
    if synchronize is None:
        synchronize = not given("geometry", "zp2_mm")
    if synchronize and given("geometry", "zp2_mm"):
        raise ScenarioError("[geometry] zp2_mm conflicts with synchronize = true")
    geometry = _build("geometry", InterferometerGeometry, **{
        key: get("geometry", key) for key in ("z1_mm", "z2_mm", "z3_mm", "zp1_mm", "zp2_mm")
    })

    # sample
    sample_file = r_polar = None
    stype = get("sample", "type")
    if stype == "uniform":
        r_polar = (get("sample", "r_abs"), get("sample", "r_phase_rad"))
        sample: SampleModel = _build("sample", UniformSample, r_polar[0] * np.exp(1j * r_polar[1]))
    elif stype == "bilayer":
        missing = "[sample] bilayer needs thickness_um and n_slab"
        d0 = need("sample", "thickness_um", missing)
        n0 = need("sample", "n_slab", missing)
        if given("sample", "r0"):
            sample = _build(
                "sample", BilayerSample,
                r0=get("sample", "r0"),
                r1=need("sample", "r1", "[sample] bilayer with r0 also needs r1"),
                d0_um=d0,
                n0=n0,
                omega_carrier=crystal.omega_i0,
            )
        else:
            sample = _build(
                "sample", BilayerSample.from_fresnel,
                n_before=get("sample", "n_before"),
                n_slab=n0,
                n_after=need(
                    "sample", "n_after", "[sample] bilayer needs either (r0, r1) or n_after"),
                d0_um=d0,
                omega_carrier=crystal.omega_i0,
            )
    else:  # tabulated
        sample_file = need("sample", "file", "[sample] tabulated needs file")
        path = Path(base_dir or ".") / sample_file
        if not path.exists():
            raise ScenarioError(f"[sample] file: no such file: {path}")
        if not path.is_file():
            raise ScenarioError(f"[sample] file: not a file: {path}")
        table = _build("sample", _read_table, path)
        if table.shape[1] < 3:
            raise ScenarioError(
                "[sample] file must have columns omega_rad_fs, r_real, r_imag"
            )
        sample = _build(
            "sample", TabulatedSample,
            omega=table[:, 0],
            r=table[:, 1] + 1j * table[:, 2],
        )

    # grid
    grid_points = get("grid", "points")
    grid_half_width = get("grid", "half_width_rad_fs")
    kernel = get("grid", "kernel")

    # scan
    if given("scan", "delta_z_min_mm") != given("scan", "delta_z_max_mm"):
        raise ScenarioError("[scan] give both delta_z_min_mm and delta_z_max_mm or neither")
    lo = get("scan", "delta_z_min_mm")
    hi = get("scan", "delta_z_max_mm")
    if lo is not None and lo >= hi:
        raise ScenarioError("[scan] delta_z_min_mm must be below delta_z_max_mm")
    scan = ScanSpec(
        delta_z_min_mm=lo,
        delta_z_max_mm=hi,
        points=get("scan", "points"),
        fringes=get("scan", "fringes"),
    )

    # tasks
    run_raw = need("tasks", "run", "missing [tasks] run = <task, ...>")
    tasks = tuple(t.strip() for t in run_raw.split(",") if t.strip())
    if not tasks:
        raise ScenarioError("[tasks] run: at least one task required")
    for t in tasks:
        if t not in TASK_NAMES:
            raise ScenarioError(
                f"[tasks] run: unknown task {t!r} (expected one of {', '.join(TASK_NAMES)})"
            )
    if len(set(tasks)) != len(tasks):
        raise ScenarioError("[tasks] run: duplicate task names")

    # output
    fmt = get("output", "format")
    stride = get("output", "jsi_stride")
    _check_jsi_stride(tasks, stride, grid_points)
    output_dir = get("output", "directory")

    for section in cp.sections():
        for key in cp[section]:
            if (section, key) not in used:
                raise ScenarioError(f"[{section}] {key}: not used by this scenario")

    return Scenario(
        crystal=crystal,
        pump=pump,
        geometry=geometry,
        synchronize=synchronize,
        sample=sample,
        sample_file=sample_file,
        r_polar=r_polar,
        grid_points=grid_points,
        grid_half_width=grid_half_width,
        kernel=kernel,
        scan=scan,
        tasks=tasks,
        output_dir=output_dir,
        output_format=fmt,
        jsi_stride=stride,
    )


def _check_jsi_stride(tasks: tuple, stride: int, points: int) -> None:
    """A joint spectrum needs at least two points per axis after the stride."""
    if "joint_spectrum" in tasks and stride >= points:
        raise ScenarioError(
            f"[output] jsi_stride = {stride} leaves fewer than two points per axis "
            f"of the {points}-point grid"
        )


def render_scenario(scenario: Scenario) -> str:
    """Canonical scenario text; parse(render(s)) == s.

    Every field whose render value is not None, in table order: a float as its
    repr, so that it reads back to the same value.
    """
    lines, section = [], None
    for row_section, key, kind, _, _, render in _FIELDS:
        value = None if render is None else render(scenario)
        if value is None:
            continue
        if row_section != section:
            section = row_section
            lines += ["", f"[{section}]"]
        lines.append(f"{key} = {_WRITE[kind](value)}")
    return "\n".join(lines[1:]) + "\n"


# ---------------------------------------------------------------------------
# exports

def _fmt9(x) -> str:
    return format(float(x), ".9g")


def _round9(values) -> list[float]:
    """Values rounded to the 9 significant digits every written float carries."""
    return [float(_fmt9(v)) for v in values]


def _json(payload) -> str:
    """``payload`` as indented JSON (RFC 8259): a NaN or infinity raises ValueError."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _or_null(x):
    """None, written as JSON ``null``, for a NaN: a value that could not be computed."""
    return None if np.isnan(x) else x


def _require_finite(series: str, values) -> None:
    """Fail closed: a series about to be written must hold only finite numbers."""
    if not np.all(np.isfinite(values)):
        raise NumericalConsistencyError(f"series {series} holds a non-finite value")


def export_series(columns: list[str], rows, fmt: str) -> str:
    """Serialize a column-oriented series; CSV header row or a JSON object.

    ``rows`` is a 2-D table, one column per name. Every float is written as
    ``format(x, ".9g")`` writes it; an empty series yields just the header.
    In CSV, the columns of +0.0 that lead or trail a block of rows are written
    as constant ``0`` runs without being formatted: ``format`` writes ``0``
    for +0.0 and for no other value, so the bytes are the same. A NaN or
    infinite value raises NumericalConsistencyError naming its column.
    """
    table = np.asarray(rows, dtype=float)
    table = table.reshape(len(table), len(columns))
    for name, column in zip(columns, table.T):
        _require_finite(name, column)
    if fmt == "csv":
        return "".join([",".join(columns) + "\n", *_csv_blocks(table)])
    if fmt == "json":
        return _json({"columns": list(columns), "rows": [_round9(row) for row in table]})
    raise ValueError(f"unknown export format {fmt!r}")


def _jsi_csv(axis: np.ndarray, inten: np.ndarray) -> str:
    """Joint spectrum CSV: the axis as header row, then each intensity row after its omega_s.

    Every value is written as ``format(x, ".9g")`` writes it. The axis values
    are always formatted; of the intensities, the +0.0 columns outside a row
    block's ridge are written as constant ``0`` runs, the same bytes.
    """
    for name, values in (("omega_s", axis), ("intensity", inten)):
        _require_finite(name, values)
    header = "omega_s\\omega_i," + "".join(_csv_blocks(axis[None, :]))
    return "".join([header, *_csv_blocks(inten, first=axis)])


# CSV text. A finite x != 0 is scaled to y = |x| * 10**(8 - e) in [1e8, 1e9),
# e its decimal exponent, and rint(y) holds its 9 digits. y is within 3 ulp
# (under 3.4e-7) of the exact scaled value, so rint(y) is the correctly
# rounded digit string unless y lies within TIE_TOL of a half unit. Such a
# value, one with y < 1e8 or rint(y) = 1e9, and a non-finite one are written
# by _fmt9 itself. Each value fills a 24-byte field of three little-endian
# words, NUL where ``format`` writes nothing; the NULs are dropped at the end.
# A field holds, in order: the sign, the ``0.000`` prefix of -4 <= e < 0, the
# first digit, the other 8 with the ``.`` after the integer ones, the exponent
# of e < -4 or e > 8, and the separator. ``format`` writes ``0`` for +0.0 and
# for no other value (-0.0 is ``-0``), so a block's leading and trailing
# columns of +0.0 get no fields: each row writes them as the constant runs
# ``0,`` and ``,0``, which are the bytes their fields would hold.

TIE_TOL = 1e-4
_CSV_BLOCK = 1 << 14  # values per pass: its temporaries stay cache-sized
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
_EXPONENT = np.array(
    [int.from_bytes(f"e{k:+03d}".encode(), "little") for k in range(-324, 309)], np.uint64
)
_MINUS = np.uint64(ord("-"))
_ASCII_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "little"))


def _layout(e: int) -> tuple:
    """Field words of exponent e: prefix, mask of the integer digits among the 8, ``.``, exponent.

    The ``.`` sits after the integer digits, and none goes among the 8 when
    every one is an integer digit (e = 8) or a fraction digit behind the
    ``0.000`` prefix (-4 <= e < 0).
    """
    if e < -4 or e > 8:
        return 0, 0, ord("."), int(_EXPONENT[e + 324])
    if e < 0:
        return int.from_bytes(("0." + "0" * (-1 - e)).encode(), "little"), 0, 0, 0
    return 0, (1 << 8 * e) - 1, ord(".") << 8 * e if e < 8 else 0, 0


_LAYOUT = np.array([_layout(e) for e in range(-324, 309)], np.uint64).T


def _scaled(ax: np.ndarray, e: np.ndarray) -> np.ndarray:
    """ax * 10**(8 - e) from the correctly rounded powers, via 1e300 first below 1e-292."""
    k = 8 - e
    tiny = k > 300
    return ax * np.where(tiny, 1e300, 1.0) * _POW10[k + 300 - 300 * tiny]


def _digit_word(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 1e8, one per byte, most significant first.

    D. Lemire, "Converting integers to fixed-digit representations quickly"
    (2021): 4-digit halves in 32-bit lanes, then 2- and 1-digit ones, each
    quotient by a multiply and a shift.
    """
    hi = v // 10000
    v = hi | (v - hi * 10000) << 32
    q = v * 10486 >> 20 & 0x0000007F0000007F
    v = q | (v - q * 100) << 16
    q = v * 103 >> 10 & 0x000F000F000F000F
    return q | (v - q * 10) << 8


def _csv_block(x: np.ndarray) -> bytes:
    """CSV lines of a 2-D float block: ``,`` between values, a newline after each row."""
    rows, cols = x.shape
    x = x.ravel()
    ax = np.abs(x)
    zero = ax == 0
    fast = np.isfinite(ax) & ~zero
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    y = _scaled(ax, e)
    if np.any((y < 1e8) | (y >= 1e9)):  # log10 missed the decade
        e += y >= 1e9
        e -= y < 1e8
        y = _scaled(ax, e)
    d = np.rint(y)
    fast &= (y >= 1e8) & (d < 1e9) & (np.abs(np.abs(y - d) - 0.5) > TIE_TOL)
    d = np.where(fast, d, 0.0).astype(np.uint64)  # a zero's field reads "0"
    top = d // 100000000
    digits = _digit_word(d - top * 100000000)
    # the bytes up to the last nonzero digit: first their top bits, then all 8 bits
    kept = (digits + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    for shift in (8, 16, 32):
        kept |= kept >> shift
    kept = (kept >> 7) * 255
    prefix, ints, dot, exponent = np.take(_LAYOUT, e + 324, axis=1)
    digits += _ASCII_ZEROS
    fraction = digits & kept & ~ints  # trailing zeros as NUL
    head = digits & ints | dot * (fraction != 0)  # integer digits and the "."
    words = np.empty((x.size, 3), np.uint64)
    words[:, 0] = np.signbit(x) * _MINUS | prefix << 8 | (top + ord("0")) << 48 | head << 56
    words[:, 1] = head >> 8 | fraction
    words[:, 2] = exponent
    separators = np.full(cols, ord(","), np.uint64)
    separators[-1] = ord("\n")
    words.reshape(rows, cols, 3)[:, :, 2] |= separators << 56
    fields = words.view(np.uint8)
    for i in np.flatnonzero(~(fast | zero)):
        fields[i, :23] = np.frombuffer(_fmt9(x[i]).encode().ljust(23, b"\0"), np.uint8)
    return fields.tobytes().translate(None, b"\0")


def _csv_blocks(table, first=None) -> list[str]:
    """CSV lines of a 2-D float table, each ending in a newline, in blocks of rows.

    Every value is written exactly as ``_fmt9`` writes it, separated by ``,``.
    ``first``, one value per row, is written before each row; only a block's
    rows are copied to put it there. Of each block, only ``first`` and the
    columns from the first to the last one holding a value other than +0.0
    are formatted; the +0.0 columns around them are written as ``0`` runs.
    A block of +0.0 alone formats its first column. A caller joins the blocks
    once the table is no longer needed.
    """
    table = np.asarray(table, dtype=float)
    cols = table.shape[1]
    if not cols:  # no value to write: each row is an empty line
        return ["\n" * len(table)]
    step = max(1, _CSV_BLOCK // (cols + (first is not None)))
    blocks = []
    for r in range(0, len(table), step):
        rows = table[r:r + step]
        live = np.flatnonzero(np.any((rows != 0) | np.signbit(rows), axis=0))
        lo, hi = (live[0], live[-1] + 1) if live.size else (0, 1)
        span = rows[:, lo:hi]
        if first is not None:
            span = np.column_stack((first[r:r + step], span))
        text = _csv_block(span).decode()
        if lo or hi < cols:
            lead, trail = "0," * lo, ",0" * (cols - hi) + "\n"
            lines = text.split("\n")[:-1]
            if first is None:
                text = "".join([lead + line + trail for line in lines])
            else:  # the lead goes after the row's first value
                text = "".join([line.replace(",", "," + lead, 1) + trail for line in lines])
        blocks.append(text)
    return blocks


# ---------------------------------------------------------------------------
# task execution

def _plan(scenario: Scenario) -> dict:
    """Each task's ``route`` and the sizes it builds with, from the scenario alone, by task in
    run order: make_frequency_grid's arguments of its ``grid`` and ``coarse`` grid, a scan's
    ``window_mm`` and ``delays``, and the numeric correlator's ``resolution``, ``correlator``
    arguments (a table's delay among them, read here once per run) and their
    ``coherence.correlator_sizes`` ``n_s``, ``n_u`` and ``m``. Nothing is built or written;
    the checks raise in the order run_scenario lists them."""
    n, tasks, crystal, pump = scenario.grid_points, scenario.tasks, scenario.crystal, scenario.pump
    if n < MIN_GRID_POINTS:
        raise ScenarioError(f"grid points must be at least {MIN_GRID_POINTS}, got {n}")
    _check_jsi_stride(tasks, scenario.jsi_stride, n)
    first = next((task for task in tasks if task in ("joint_spectrum", "schmidt")), None)
    grid = first and {"n_points": n, "half_width": _noted(  # checked without building it
        f"task {first}", _resolved_half_width, crystal, pump, n, scenario.grid_half_width)}
    reference = "closed-form" if scenario.kernel == "gaussian" else "envelope-transform"
    plans = {"joint_spectrum": {"route": reference, "grid": grid}, "spectrum": {"route": reference},
             "schmidt": {"route": "analytic", "grid": grid}}
    if "schmidt" in tasks and scenario.kernel == "exact":
        coarse = max(MIN_GRID_POINTS, n // 2)
        if coarse >= n:
            raise ScenarioError(f"[grid] points = {n} leaves the exact-kernel schmidt task's"
                                f" coarsen check no smaller grid of at least {coarse} points")
        try:
            _resolved_half_width(crystal, pump, coarse, scenario.grid_half_width)
        except GridResolutionError as exc:
            raise ScenarioError(f"[grid] points = {n} (or half_width_rad_fs): the exact-kernel"
                                f" schmidt task's coarsen check runs on {coarse} points, whose"
                                f" {exc}") from exc
        plans["schmidt"] = {"route": "coarsen", "grid": grid, "coarse": grid | {"n_points": coarse}}
    if "oct_scan" in tasks:  # a depth scan needs the pump and idler pulses to meet
        _build("geometry", oct_scan._require_synchronized, scenario.effective_geometry(), crystal)
    # a scan's delays: the [scan] window, else oct_scan's, at [scan] points, else 401 for
    # g1_scan and as many as scan_axis takes for oct_scan
    scan, scans = scenario.scan, [task for task in tasks if task in ("g1_scan", "oct_scan")]
    sample, numeric = scenario.sample, {}
    window = ((scan.delta_z_min_mm, scan.delta_z_max_mm) if scan.delta_z_min_mm is not None
              else oct_scan.default_scan_range(crystal, sample))
    delays = {}
    for task in scans:  # counted before anything is sized from the window
        delays[task] = oct_scan.scan_points(crystal, window, scan.fringes,
                                            scan.points or (401 if task == "g1_scan" else None))
        if delays[task] > MAX_SCAN_POINTS:
            raise ScenarioError(f"[scan] {'points' if scan.points else 'fringes'}: {task} takes"
                                f" {delays[task]:.15g} delays, more than the {MAX_SCAN_POINTS}"
                                " allowed")
    if scans and isinstance(sample, TabulatedSample):
        # one correlator for every scan: max|dz| of np.linspace(*window, k) is a window end
        correlator = coherence._scan_arguments(
            crystal, scenario.effective_geometry(), sample, np.asarray(window))
        # its cost before its sizes: the pump lattice alone is gigabytes at +-1e6 mm
        elements, nbytes = _build("scan", coherence._correlator_cost, crystal, pump,
                                  int(max(delays.values())), resolution=n / 2048.0, **correlator)
        for cost, bound, what in (
            (elements, MAX_REDUCTION_ELEMENTS, "idler reduction elements"),
            (nbytes, MAX_SIGNAL_AXIS_BYTES, "bytes of signal-axis arrays"),
        ):
            if cost > bound:
                lo, hi = map(float, window)
                raise ScenarioError(f"[scan] window [{lo!r}, {hi!r}] mm: the numeric correlator"
                                    f" takes {cost} {what}, more than the {bound} allowed")
        _, n_s, u, m, _ = coherence.correlator_sizes(crystal, pump, resolution=n / 2048.0,
                                                     **correlator)
        band = coherence._reduction_band(n_s, u, m)
        if sample.omega[0] > -band or sample.omega[-1] < band:
            raise ScenarioError(
                f"[sample] file: the table spans [{float(sample.omega[0])!r},"
                f" {float(sample.omega[-1])!r}] rad/fs, short of the band +-{band!r} rad/fs"
                " at which the numeric scan's idler reduction reads r")
        numeric = {"resolution": n / 2048.0, "correlator": correlator,
                   "n_s": n_s, "n_u": u.size, "m": m}
    for task in scans:
        plans[task] = {"route": "numeric" if numeric else "closed-form", "window_mm": window,
                       "delays": int(delays[task]), **numeric}
    return {task: plans[task] for task in tasks}


def _numeric_g1(scenario: Scenario, plan: dict, dz: np.ndarray):
    """g1 with its carrier on ``dz`` from the plan's correlator, and its convergence entry.

    The entry holds the largest change of |g1| against the correlator's embedded
    coarse rule, and two bounds that are not gated: the sinc^2 tail cut's
    max|r| / (pi TAIL_SINC_ARG), and the table's linear interpolation error
    h^2/8 max|r''| (``coherence._interpolation_bound``).
    """
    crystal, geometry, sample = scenario.crystal, scenario.effective_geometry(), scenario.sample
    corr = coherence.PairCorrelator(crystal, scenario.pump, sample,
                                    resolution=plan["resolution"], **plan["correlator"])
    t1 = dz / C_MM_FS
    g = corr.correlation(t1) * np.exp(1j * coherence.carrier_phase(crystal, geometry, dz))
    delta = float(np.max(np.abs(np.abs(g) - np.abs(corr.coarse_correlation(t1)))))
    return g, {"delta": delta, "method": "halved-resolution",
               "tail_bound": float(np.max(np.abs(sample.r))) / (np.pi * coherence.TAIL_SINC_ARG),
               "interpolation_bound": coherence._interpolation_bound(sample)}


def _series(scenario: Scenario, stem: str, columns: list[str], rows) -> dict:
    """The file ``<stem>.<format>`` that ``export_series`` writes in the scenario's format."""
    fmt = scenario.output_format
    return {f"{stem}.{fmt}": export_series(columns, rows, fmt)}


def _task_joint_spectrum(scenario: Scenario, plan: dict):
    crystal, pump, stride = scenario.crystal, scenario.pump, scenario.jsi_stride
    grid = make_frequency_grid(crystal, pump, **plan["grid"])
    inten, marginal = biphoton.joint_spectrum_rows(scenario.kernel, crystal, pump, grid, stride)
    files = {"joint_spectrum.csv": _jsi_csv(grid.omega_s[::stride], inten)}
    # convergence: the grid marginal's bandwidth against the planned reference's
    if plan["route"] == "closed-form":
        width = biphoton.gaussian_marginal_fwhm(crystal, pump)
        ref_nm = biphoton.bandwidth_nm(width, crystal.lambda_s_nm)
    else:
        ref_nm = biphoton.signal_spectrum(crystal, pump, scenario.kernel).fwhm_nm
    delta = abs(marginal.fwhm_nm - ref_nm) / ref_nm
    extras = {"marginal_fwhm_nm": float(marginal.fwhm_nm)}
    return files, {"delta": float(delta), "method": "reference"}, extras


def _task_schmidt(scenario: Scenario, plan: dict):
    if plan["route"] == "analytic":
        # the plan has checked the grid; its points bound the mode count
        gamma = gamma_param(scenario.crystal, scenario.pump)
        report = biphoton.schmidt_gaussian(gamma, max_modes=plan["grid"]["n_points"])
        conv = {"delta": 0.0, "method": "analytic"}
    else:
        # the mode count is the state's, so the run grid starts at the Ritz block
        # the coarse grid accepted, and mostly streams its rows once
        state = (scenario.kernel, scenario.crystal, scenario.pump)
        rough = biphoton.schmidt_rows(*state, make_frequency_grid(*state[1:], **plan["coarse"]))
        first = rough.ritz_block or biphoton.SCHMIDT_BLOCK
        report = biphoton.schmidt_rows(*state, make_frequency_grid(*state[1:], **plan["grid"]),
                                       first_block=first)
        k, k_coarse = report.schmidt_number_K, rough.schmidt_number_K
        conv = {"delta": float(abs(k - k_coarse) / k), "method": "coarsen"}
    floor = biphoton.SCHMIDT_COEFF_FLOOR
    payload = {
        "coefficients": [float(v) for v in report.coefficients if v > floor],
        "schmidt_number_K": float(report.schmidt_number_K),
        "entropy_bits": float(report.entropy_bits),
    }
    for key, value in payload.items():
        _require_finite(key, value)
    files = {"schmidt.json": _json(payload)}
    return files, conv, {"schmidt_number_K": float(report.schmidt_number_K)}


def _task_g1_scan(scenario: Scenario, plan: dict):
    dz = np.linspace(*plan["window_mm"], plan["delays"])
    if plan["route"] == "numeric":
        g, conv = _numeric_g1(scenario, plan, dz)
    else:
        g = coherence.g1_closed_form(
            scenario.crystal, scenario.pump, scenario.effective_geometry(), scenario.sample, dz)
        conv = {"delta": 0.0, "method": "analytic"}
    rows = np.column_stack((dz, np.abs(g), np.angle(g)))
    return _series(scenario, "g1_scan", ["delta_z_mm", "g1_abs", "g1_phase"], rows), conv, {}


def _task_oct_scan(scenario: Scenario, plan: dict):
    dz = np.linspace(*plan["window_mm"], plan["delays"])
    fringes = scenario.scan.fringes
    if plan["route"] == "numeric":
        # what interferogram_numeric does, from the correlator that also gives the check
        g, conv = _numeric_g1(scenario, plan, dz)
        ifg = oct_scan._interferogram(scenario.crystal, dz, g, np.abs(g), fringes)
    else:
        ifg = oct_scan.interferogram_closed_form(
            scenario.crystal, scenario.pump, scenario.effective_geometry(), scenario.sample, dz,
            fringes)
        conv = {"delta": 0.0, "method": "analytic"}
    rows = np.column_stack((ifg.delta_z_mm, ifg.flux / ifg.n_signal, ifg.envelope))
    files = _series(scenario, "interferogram", ["delta_z_mm", "flux_norm", "envelope"], rows)
    report = oct_scan.envelope_peaks(ifg)
    files["peaks.json"] = _json({
        "positions_mm": _round9(report.positions_mm),
        "separations_um": _round9(report.separations_um),
        "fwhm_um": [_or_null(v) for v in _round9(report.fwhm_um)],
        "resolved": report.resolved,
    })
    return files, conv, {"n_peaks": len(report.positions_mm), "resolved": report.resolved}


def _task_spectrum(scenario: Scenario, plan: dict):
    crystal = scenario.crystal
    # the spectrum, and the same rule on omega_s[::2] at half the nodes: the halved-resolution check
    spectrum, half = (biphoton.signal_spectrum(crystal, scenario.pump, kernel=scenario.kernel,
                                               resolution=r) for r in (1.0, 0.5))
    lam_nm = 2.0 * np.pi * C_NM_FS / (crystal.omega_s0 + spectrum.omega_s)
    rows = np.column_stack((spectrum.omega_s, lam_nm, spectrum.density))
    files = _series(scenario, "spectrum", ["omega_s_rad_fs", "wavelength_nm", "density"], rows)
    delta = abs(spectrum.fwhm_nm - half.fwhm_nm) / spectrum.fwhm_nm
    conv = {"delta": float(delta), "method": "halved-resolution"}
    return files, conv, {"fwhm_nm": float(spectrum.fwhm_nm)}


_TASK_FN = {
    "joint_spectrum": _task_joint_spectrum,
    "schmidt": _task_schmidt,
    "g1_scan": _task_g1_scan,
    "oct_scan": _task_oct_scan,
    "spectrum": _task_spectrum,
}


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> RunManifest:
    """Execute every task of a scenario and write its outputs plus manifest.

    Deterministic: identical scenario text yields bit-identical data files and
    an identical manifest digest. ``_plan`` first fixes each task's route and
    sizes, and rejects, before anything is computed or written:
    - grid points below MIN_GRID_POINTS (ScenarioError);
    - a jsi_stride that leaves a joint spectrum fewer than two points per axis;
    - a grid too coarse for the spectrum of a joint_spectrum or schmidt task
      (GridResolutionError, noted with the first such task);
    - an exact-kernel schmidt task whose coarsen grid, half the points but at
      least MIN_GRID_POINTS, is not smaller or cannot resolve;
    - an oct_scan whose pump path is not synchronized (T2 != 0);
    - a scan of more than MAX_SCAN_POINTS delays;
    - a scan on the numeric route whose correlator's idler reduction takes more than
      MAX_REDUCTION_ELEMENTS (ws, u) elements, or whose signal-axis arrays take more
      than MAX_SIGNAL_AXIS_BYTES (``coherence._correlator_cost``; ``[scan]``);
    - a scan on the numeric route whose table does not cover the band
      +-((n_s - 1) // 2 m + n_u // 2) h at which its correlator's idler
      reduction reads r, h the pump lattice step (``[sample] file``).
    Tasks then run one after another, each on its plan. A task whose
    written series holds a non-finite value fails with NumericalConsistencyError.
    A failed task's exception propagates with its type and a note naming the
    task. No file is written before every task has run; how the files are
    staged is ``_write_run``'s rule. A run that fails after making its output
    directory removes each directory it made, deepest first, while that one is
    empty.
    """
    plans = _plan(scenario)
    target = Path(out_dir) if out_dir is not None else Path(scenario.output_dir)
    made = list(itertools.takewhile(lambda path: not path.exists(), (target, *target.parents)))
    try:
        return _write_run(scenario, plans, target)
    except BaseException:
        for path in made:
            try:
                path.rmdir()
            except OSError:  # not empty: it and the directories above it stay
                break
        raise


def _write_run(scenario: Scenario, plans: dict, target: Path) -> RunManifest:
    """run_scenario's tasks, written into target with their manifest.

    Every file, the manifest last, is first written as ``<name>.tmp``, and only
    then is each renamed onto its name. A failure while staging gets the note
    ``writing <name>`` and removes every temporary, so no file in target is
    replaced. Each rename is atomic within target, but a failure among them
    leaves the files renamed so far beside the older ones.
    """
    try:
        target.mkdir(parents=True, exist_ok=True)
        probe = target / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ScenarioError(f"output directory not writable: {target}: {exc}") from exc

    data, names, seconds, convergence, extras = {}, {}, {}, {}, {}
    for task in scenario.tasks:
        t0 = time.perf_counter()
        files, conv, extras[task] = _noted(f"task {task}", _TASK_FN[task], scenario, plans[task])
        seconds[task] = round(time.perf_counter() - t0, 6)
        names[task] = sorted(files)
        for name in names[task]:  # the bytes hashed are the bytes written
            data[name] = files.pop(name).encode()  # no text outlives its bytes
        conv["flagged"] = not conv["delta"] <= CONVERGENCE_GATE  # NaN fails the gate
        conv["gate"] = CONVERGENCE_GATE
        convergence[task] = conv

    scen = hashlib.sha256(render_scenario(scenario).encode())
    if isinstance(scenario.sample, TabulatedSample):
        # the canonical text names a table by its file name alone
        scen.update(scenario.sample.omega)
        scen.update(scenario.sample.r)
    h = scen.copy()
    for name in sorted(data):
        h.update(f"{name}:{hashlib.sha256(data[name]).hexdigest()}".encode())
    manifest = RunManifest(scenario_digest=scen.hexdigest(), digest=h.hexdigest(),
                           grid_points=scenario.grid_points, files=names, seconds=seconds,
                           convergence=convergence, extras=extras)
    record = dataclasses.asdict(manifest)  # a copy: the manifest keeps its NaN
    for conv in record["convergence"].values():
        conv["delta"] = _or_null(conv["delta"])
    data["run_manifest.json"] = _json(record).encode()
    staged = []
    try:
        for name, content in data.items():
            staged.append(target / (name + ".tmp"))  # before the write: a partial one goes too
            _noted(f"writing {name}", staged[-1].write_bytes, content)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, name in zip(staged, data):
        os.replace(tmp, target / name)
    return manifest


def _noted(note: str, fn, *args):
    """fn(*args); what it raises keeps its type and gets ``note`` (add_note)."""
    try:
        return fn(*args)
    except Exception as exc:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
        raise


# ---------------------------------------------------------------------------
# command line

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlint-sim",
        description="Induced-coherence nonlinear interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to scenario text file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--grid-points", type=int, default=None, help="grid size override")
    p_run.add_argument("--format", choices=("csv", "json"), default=None,
                       help="series format override")
    sub.add_parser("presets", help="list built-in crystal presets")
    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in sorted(CRYSTAL_PRESETS):
            c = CRYSTAL_PRESETS[name](length_mm=1.0)
            print(
                f"{name}: pump {c.lambda_p_nm:g} nm -> {c.lambda_s_nm:g} + "
                f"{c.lambda_i_nm:g} nm, D = {c.D:g} fs/mm, D+ = {c.D_plus:g} fs/mm"
            )
        return 0

    path = Path(args.scenario)
    if not path.is_file():
        print(f"error: no such scenario file: {path}", file=sys.stderr)
        return 1
    try:
        scenario = parse_scenario(path.read_text(), base_dir=path.parent)
        if args.format:
            scenario = dataclasses.replace(scenario, output_format=args.format)
        if args.grid_points is not None:
            scenario = dataclasses.replace(scenario, grid_points=args.grid_points)
        manifest = run_scenario(scenario, out_dir=args.out)
    except (ScenarioError, GridResolutionError, AnalysisError, ValueError, OSError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1
    except NumericalConsistencyError as exc:
        print(f"numerical failure: {_describe(exc)}", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else Path(scenario.output_dir)
    for task in scenario.tasks:
        entry = manifest.convergence[task]
        state = "FLAGGED" if entry["flagged"] else "ok"
        print(
            f"{task}: {', '.join(manifest.files[task])} "
            f"(convergence {entry['delta']:.3g}, {entry['method']}, {state})"
        )
    print(f"manifest: {out / 'run_manifest.json'} digest {manifest.digest[:16]}")
    if not manifest.convergence_ok:
        print("error: grid convergence gate exceeded", file=sys.stderr)
        return 2
    return 0


def _describe(exc: Exception) -> str:
    """Exception text prefixed by its notes, e.g. "task g1_scan: <message>"."""
    return ": ".join([*getattr(exc, "__notes__", ()), str(exc)])


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
