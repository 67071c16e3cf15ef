"""Declarative scenario execution and the ``nlint-sim`` command line tool.

A scenario is a flat INI-style text file with sections crystal / pump /
geometry / sample / grid / scan / tasks / output. Parsing validates every
key, unit conversions happen once at the boundary, and a run writes one or
more data files per task plus a run manifest with convergence diagnostics.
Identical scenario text always produces bit-identical data files.
"""

from __future__ import annotations

import argparse
import configparser
import contextvars
import dataclasses
import hashlib
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import biphoton, coherence, oct_scan
from .optics_model import (
    AnalysisError,
    BilayerSample,
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
    make_frequency_grid,
    mgo_linbo3_crystal,
)

TASK_NAMES = ("joint_spectrum", "schmidt", "g1_scan", "oct_scan", "spectrum")
CONVERGENCE_GATE = 1e-4
WORKERS_ENV = "NLINT_SIM_WORKERS"

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
# parsing

_SECTION_KEYS = {
    "crystal": {
        "preset", "length_mm", "sigma",
        "d_fs_per_mm", "d_plus_fs_per_mm", "n_i_fs_per_mm",
        "lambda_p_nm", "lambda_s_nm", "lambda_i_nm",
    },
    "pump": {"t0_fs", "t0_ps"},
    "geometry": {"z1_mm", "z2_mm", "z3_mm", "zp1_mm", "zp2_mm", "synchronize"},
    "sample": {
        "type", "r_abs", "r_phase_rad",
        "r0", "r1", "thickness_um", "n_slab", "n_before", "n_after",
        "file",
    },
    "grid": {"points", "half_width_rad_fs", "kernel"},
    "scan": {"delta_z_min_mm", "delta_z_max_mm", "points", "fringes"},
    "tasks": {"run"},
    "output": {"directory", "format", "jsi_stride"},
}

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _build(section: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)`` with its ValueError reported under ``[section]``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] invalid parameters: {exc}") from exc


def parse_scenario(text: str, base_dir: str | Path | None = None) -> Scenario:
    """Parse and validate scenario text into a Scenario.

    Unknown sections or keys are rejected, and so are known keys this
    scenario does not use (say ``n_after`` on a bilayer given by r0 and r1);
    invariant violations are reported with their field path. A key given with
    an empty value is an error, not a request for its default. ``base_dir``
    anchors relative tabulated-sample paths.
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
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"unknown key [{section}] {key}")

    def given(section, key):
        return cp.has_section(section) and key in cp[section]

    used = set()

    def get(section, key, kind=str, default=None):
        """The value of ``key`` as ``kind``, or ``default`` when the key is absent."""
        used.add((section, key))
        if not given(section, key):
            return default
        raw = cp[section][key].strip()
        if kind is str:
            if not raw:
                raise ScenarioError(f"[{section}] {key}: empty value")
            return raw
        try:
            value = _BOOL[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ScenarioError(f"[{section}] {key}: not {_KIND_NAMES[kind]}: {raw!r}") from None
        if kind is float and not np.isfinite(value):
            raise ScenarioError(f"[{section}] {key}: not a finite number: {raw!r}")
        return value

    # crystal
    if not cp.has_section("crystal"):
        raise ScenarioError("missing required section [crystal]")
    preset = get("crystal", "preset")
    if preset is not None:
        if preset not in CRYSTAL_PRESETS:
            raise ScenarioError(
                f"[crystal] preset: unknown preset {preset!r}; "
                f"available: {', '.join(sorted(CRYSTAL_PRESETS))}"
            )
        crystal = _build(
            "crystal", CRYSTAL_PRESETS[preset],
            length_mm=get("crystal", "length_mm", float, 5.0),
            sigma=get("crystal", "sigma", float, 0.01),
        )
    else:
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
            "crystal", CrystalParams,
            length_mm=get("crystal", "length_mm", float),
            D=get("crystal", "d_fs_per_mm", float),
            D_plus=get("crystal", "d_plus_fs_per_mm", float),
            N_i=get("crystal", "n_i_fs_per_mm", float),
            lambda_p_nm=get("crystal", "lambda_p_nm", float),
            lambda_s_nm=get("crystal", "lambda_s_nm", float),
            lambda_i_nm=get("crystal", "lambda_i_nm", float),
            sigma=get("crystal", "sigma", float, 0.01),
        )

    # pump
    if not cp.has_section("pump"):
        raise ScenarioError("missing required section [pump]")
    if given("pump", "t0_fs") == given("pump", "t0_ps"):
        raise ScenarioError("[pump] give exactly one of t0_fs or t0_ps")
    if given("pump", "t0_fs"):
        pump = _build("pump", PumpPulse, get("pump", "t0_fs", float))
    else:
        pump = _build("pump", PumpPulse.from_ps, get("pump", "t0_ps", float))

    # geometry
    synchronize = get("geometry", "synchronize", bool, not given("geometry", "zp2_mm"))
    if synchronize and given("geometry", "zp2_mm"):
        raise ScenarioError("[geometry] zp2_mm conflicts with synchronize = true")
    geometry = _build("geometry", InterferometerGeometry, **{
        key: get("geometry", key, float, 0.0)
        for key in ("z1_mm", "z2_mm", "z3_mm", "zp1_mm", "zp2_mm")
    })

    # sample
    sample_file = r_polar = None
    stype = get("sample", "type", str, "uniform")
    if stype == "uniform":
        r_abs = get("sample", "r_abs", float, 1.0)
        r_phase = get("sample", "r_phase_rad", float, 0.0)
        r_polar = (r_abs, r_phase)
        sample: SampleModel = _build("sample", UniformSample, r_abs * np.exp(1j * r_phase))
    elif stype == "bilayer":
        if not (given("sample", "thickness_um") and given("sample", "n_slab")):
            raise ScenarioError("[sample] bilayer needs thickness_um and n_slab")
        d0 = get("sample", "thickness_um", float)
        n0 = get("sample", "n_slab", float)
        if given("sample", "r0"):
            if not given("sample", "r1"):
                raise ScenarioError("[sample] bilayer with r0 also needs r1")
            sample = _build(
                "sample", BilayerSample,
                r0=get("sample", "r0", float),
                r1=get("sample", "r1", float),
                d0_um=d0,
                n0=n0,
                omega_carrier=crystal.omega_i0,
            )
        else:
            n_before = get("sample", "n_before", float, 1.0)
            if not given("sample", "n_after"):
                raise ScenarioError("[sample] bilayer needs either (r0, r1) or n_after")
            sample = _build(
                "sample", BilayerSample.from_fresnel,
                n_before=n_before,
                n_slab=n0,
                n_after=get("sample", "n_after", float),
                d0_um=d0,
                omega_carrier=crystal.omega_i0,
            )
    elif stype == "tabulated":
        sample_file = get("sample", "file")
        if sample_file is None:
            raise ScenarioError("[sample] tabulated needs file")
        path = Path(base_dir or ".") / sample_file
        if not path.exists():
            raise ScenarioError(f"[sample] file: no such file: {path}")
        if not path.is_file():
            raise ScenarioError(f"[sample] file: not a file: {path}")
        table = _build("sample", np.loadtxt, path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[1] < 3:
            raise ScenarioError(
                "[sample] file must have columns omega_rad_fs, r_real, r_imag"
            )
        sample = _build(
            "sample", TabulatedSample,
            omega=table[:, 0],
            r=table[:, 1] + 1j * table[:, 2],
        )
    else:
        raise ScenarioError(
            f"[sample] type: unknown type {stype!r} "
            "(expected uniform, bilayer or tabulated)"
        )

    # grid
    grid_points = get("grid", "points", int, 2048)
    if grid_points < MIN_GRID_POINTS:
        raise ScenarioError(f"[grid] points must be at least {MIN_GRID_POINTS}")
    grid_half_width = get("grid", "half_width_rad_fs", float)
    if grid_half_width is not None and grid_half_width <= 0:
        raise ScenarioError("[grid] half_width_rad_fs must be positive")
    kernel = get("grid", "kernel", str, "exact")
    if kernel not in ("exact", "gaussian"):
        raise ScenarioError(f"[grid] kernel: expected exact or gaussian, got {kernel!r}")

    # scan
    if given("scan", "delta_z_min_mm") != given("scan", "delta_z_max_mm"):
        raise ScenarioError("[scan] give both delta_z_min_mm and delta_z_max_mm or neither")
    lo = get("scan", "delta_z_min_mm", float)
    hi = get("scan", "delta_z_max_mm", float)
    if lo is not None and lo >= hi:
        raise ScenarioError("[scan] delta_z_min_mm must be below delta_z_max_mm")
    scan_points = get("scan", "points", int)
    if scan_points is not None and scan_points < 2:
        raise ScenarioError("[scan] points must be at least 2")
    scan = ScanSpec(
        delta_z_min_mm=lo,
        delta_z_max_mm=hi,
        points=scan_points,
        fringes=get("scan", "fringes", bool, True),
    )

    # tasks
    run_raw = get("tasks", "run")
    if run_raw is None:
        raise ScenarioError("missing [tasks] run = <task, ...>")
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
    fmt = get("output", "format", str, "csv")
    if fmt not in ("csv", "json"):
        raise ScenarioError(f"[output] format: expected csv or json, got {fmt!r}")
    stride = get("output", "jsi_stride", int, 1)
    if stride < 1:
        raise ScenarioError("[output] jsi_stride must be >= 1")
    output_dir = get("output", "directory", str, "out")

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


def render_scenario(scenario: Scenario) -> str:
    """Canonical scenario text; parse(render(s)) == s."""
    c = scenario.crystal
    lines = [
        "[crystal]",
        f"length_mm = {c.length_mm!r}",
        f"d_fs_per_mm = {c.D!r}",
        f"d_plus_fs_per_mm = {c.D_plus!r}",
        f"n_i_fs_per_mm = {c.N_i!r}",
        f"lambda_p_nm = {c.lambda_p_nm!r}",
        f"lambda_s_nm = {c.lambda_s_nm!r}",
        f"lambda_i_nm = {c.lambda_i_nm!r}",
        f"sigma = {c.sigma!r}",
        "",
        "[pump]",
        f"t0_fs = {scenario.pump.t0_fs!r}",
        "",
        "[geometry]",
        f"z1_mm = {scenario.geometry.z1_mm!r}",
        f"z2_mm = {scenario.geometry.z2_mm!r}",
        f"z3_mm = {scenario.geometry.z3_mm!r}",
        f"zp1_mm = {scenario.geometry.zp1_mm!r}",
    ]
    if scenario.synchronize:
        lines.append("synchronize = true")
    else:
        lines.append(f"zp2_mm = {scenario.geometry.zp2_mm!r}")
        lines.append("synchronize = false")
    lines.append("")
    lines.append("[sample]")
    s = scenario.sample
    if isinstance(s, UniformSample):
        r_abs, r_phase = scenario.r_polar
        lines += ["type = uniform", f"r_abs = {r_abs!r}", f"r_phase_rad = {r_phase!r}"]
    elif isinstance(s, BilayerSample):
        lines += [
            "type = bilayer",
            f"r0 = {s.r0!r}",
            f"r1 = {s.r1!r}",
            f"thickness_um = {s.d0_um!r}",
            f"n_slab = {s.n0!r}",
        ]
    else:
        if scenario.sample_file is None:
            raise ScenarioError("tabulated sample has no source file to render")
        lines += ["type = tabulated", f"file = {scenario.sample_file}"]
    lines += [
        "",
        "[grid]",
        f"points = {scenario.grid_points}",
        f"kernel = {scenario.kernel}",
    ]
    if scenario.grid_half_width is not None:
        lines.append(f"half_width_rad_fs = {scenario.grid_half_width!r}")
    lines += ["", "[scan]"]
    if scenario.scan.delta_z_min_mm is not None:
        lines.append(f"delta_z_min_mm = {scenario.scan.delta_z_min_mm!r}")
        lines.append(f"delta_z_max_mm = {scenario.scan.delta_z_max_mm!r}")
    if scenario.scan.points is not None:
        lines.append(f"points = {scenario.scan.points}")
    lines.append(f"fringes = {'true' if scenario.scan.fringes else 'false'}")
    lines += [
        "",
        "[tasks]",
        f"run = {', '.join(scenario.tasks)}",
        "",
        "[output]",
        f"directory = {scenario.output_dir}",
        f"format = {scenario.output_format}",
        f"jsi_stride = {scenario.jsi_stride}",
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# exports

def _fmt9(x) -> str:
    return format(float(x), ".9g")


def _round9(values) -> list[float]:
    """Values rounded to the 9 significant digits every written float carries."""
    return [float(_fmt9(v)) for v in values]


def _require_finite(series: str, values) -> None:
    """Fail closed: a series about to be written must hold only finite numbers."""
    if not np.all(np.isfinite(values)):
        raise NumericalConsistencyError(f"series {series} holds a non-finite value")


def export_series(columns: list[str], rows, fmt: str) -> str:
    """Serialize a column-oriented series; CSV header row or a JSON object.

    Floats carry 9 significant digits; an empty series yields just the header.
    A NaN or infinite value raises NumericalConsistencyError naming its column.
    """
    rows = list(rows)
    for name, column in zip(columns, zip(*rows)):
        _require_finite(name, column)
    if fmt == "csv":
        out = [",".join(columns)]
        for row in rows:
            out.append(",".join(_fmt9(v) for v in row))
        return "\n".join(out) + "\n"
    if fmt == "json":
        payload = {
            "columns": list(columns),
            "rows": [_round9(row) for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def _jsi_csv(js: biphoton.JointSpectrum, stride: int) -> str:
    ws = js.grid.omega_s[::stride]
    wi = js.grid.omega_i[::stride]
    inten = js.intensity[::stride, ::stride]
    for name, values in (("omega_s", ws), ("omega_i", wi), ("intensity", inten)):
        _require_finite(name, values)
    lines = ["omega_s\\omega_i," + ",".join(_fmt9(v) for v in wi)]
    for k, row in enumerate(inten):
        lines.append(_fmt9(ws[k]) + "," + ",".join(_fmt9(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# task execution

def _scan_window(scenario: Scenario) -> tuple[float, float] | None:
    if scenario.scan.delta_z_min_mm is None:
        return None
    return (scenario.scan.delta_z_min_mm, scenario.scan.delta_z_max_mm)


class _JsaMemo:
    """The JSAs of one ``run_scenario`` call, each grid size built once.

    A task asking for a size another task is building waits for that build.
    A failed build stores nothing, so the next caller builds and raises anew.
    """

    def __init__(self, scenario: Scenario):
        self._scenario = scenario
        self._lock = threading.Lock()
        self._size_locks: dict[int, threading.Lock] = {}
        self._built: dict[int, biphoton.JointSpectrum] = {}

    def __call__(self, points: int) -> biphoton.JointSpectrum:
        with self._lock:
            size_lock = self._size_locks.setdefault(points, threading.Lock())
        with size_lock:
            if points not in self._built:
                s = self._scenario
                grid = make_frequency_grid(
                    s.crystal, s.pump, points, half_width=s.grid_half_width
                )
                self._built[points] = biphoton.joint_spectral_intensity(
                    s.kernel, s.crystal, s.pump, grid
                )
            return self._built[points]


# the memo of the run_scenario call executing the current task; a context
# variable, so the task functions keep their (scenario, points) signature
_run_jsa: contextvars.ContextVar[_JsaMemo] = contextvars.ContextVar("run_jsa")


def _jsa(points: int) -> biphoton.JointSpectrum:
    return _run_jsa.get()(points)


def _halved_resolution(
    scenario: Scenario, points: int, dz: np.ndarray, g1_abs: np.ndarray
) -> dict:
    """Convergence entry of a numeric-route scan task from the |g1| it computed on ``dz``.

    Only the half-resolution correlator (points / 4096) is built; the delta is
    the largest change of |g1| over every delay of the scan.
    """
    half = coherence.g1_scan(
        scenario.crystal, scenario.pump, scenario.effective_geometry(), scenario.sample,
        dz, resolution=points / 4096.0, include_carrier=False,
    )
    delta = float(np.max(np.abs(g1_abs - np.abs(half))))
    return {"delta": delta, "method": "halved-resolution"}


def _task_joint_spectrum(scenario: Scenario, points: int):
    js = _jsa(points)
    files = {"joint_spectrum.csv": _jsi_csv(js, scenario.jsi_stride)}
    # convergence: coarsen the grid when still resolvable, otherwise compare the
    # grid marginal bandwidth against the pump-adaptive reference quadrature
    m_fine = biphoton.marginal_spectrum(js, scenario.crystal).fwhm_nm
    try:
        coarse = _jsa(max(MIN_GRID_POINTS, points // 2))
        m_coarse = biphoton.marginal_spectrum(coarse, scenario.crystal).fwhm_nm
        delta = abs(m_fine - m_coarse) / m_fine
        method = "coarsen"
    except GridResolutionError:
        ref = biphoton.signal_spectrum(scenario.crystal, scenario.pump, scenario.kernel)
        delta = abs(m_fine - ref.fwhm_nm) / ref.fwhm_nm
        method = "reference"
    extras = {"marginal_fwhm_nm": float(m_fine)}
    return files, {"delta": float(delta), "method": method}, extras


def _task_schmidt(scenario: Scenario, points: int):
    report = biphoton.schmidt_analysis(_jsa(points))
    coeffs = [float(v) for v in report.coefficients if v > 1e-12]
    payload = {
        "coefficients": coeffs,
        "schmidt_number_K": float(report.schmidt_number_K),
        "entropy_bits": float(report.entropy_bits),
    }
    for key, value in payload.items():
        _require_finite(key, value)
    files = {"schmidt.json": json.dumps(payload, indent=2) + "\n"}
    try:
        coarse = biphoton.schmidt_analysis(_jsa(max(MIN_GRID_POINTS, points // 2)))
        delta = abs(report.schmidt_number_K - coarse.schmidt_number_K) / report.schmidt_number_K
        method = "coarsen"
    except GridResolutionError:
        delta = float("nan")
        method = "unavailable"
    flagged_extra = {"schmidt_number_K": float(report.schmidt_number_K)}
    return files, {"delta": float(delta), "method": method}, flagged_extra


def _task_g1_scan(scenario: Scenario, points: int):
    crystal, pump, sample = scenario.crystal, scenario.pump, scenario.sample
    geometry = scenario.effective_geometry()
    window = _scan_window(scenario)
    dz = oct_scan.scan_axis(
        crystal, sample, fringes=False,
        n_points=401 if scenario.scan.points is None else scenario.scan.points,
        window_mm=window,
    )
    if isinstance(sample, TabulatedSample):
        g = coherence.g1_scan(
            crystal, pump, geometry, sample, dz,
            resolution=points / 2048.0, include_carrier=True,
        )
        conv = _halved_resolution(scenario, points, dz, np.abs(g))
    else:
        g = coherence.g1_closed_form(crystal, pump, geometry, sample, dz)
        conv = {"delta": 0.0, "method": "analytic"}
    rows = list(zip(dz, np.abs(g), np.angle(g)))
    name = f"g1_scan.{scenario.output_format}"
    files = {name: export_series(["delta_z_mm", "g1_abs", "g1_phase"], rows, scenario.output_format)}
    return files, conv, {}


def _task_oct_scan(scenario: Scenario, points: int):
    crystal, pump, sample = scenario.crystal, scenario.pump, scenario.sample
    geometry = scenario.effective_geometry()
    window = _scan_window(scenario)
    dz = oct_scan.scan_axis(
        crystal, sample, fringes=scenario.scan.fringes,
        n_points=scenario.scan.points, window_mm=window,
    )
    if isinstance(sample, TabulatedSample):
        ifg = oct_scan.interferogram_numeric(
            crystal, pump, geometry, sample, dz,
            fringes=scenario.scan.fringes, resolution=points / 2048.0,
        )
        conv = _halved_resolution(scenario, points, dz, ifg.envelope)
    else:
        ifg = oct_scan.interferogram_closed_form(
            crystal, pump, geometry, sample, dz, fringes=scenario.scan.fringes
        )
        conv = {"delta": 0.0, "method": "analytic"}
    flux_norm = ifg.flux / ifg.n_signal
    rows = list(zip(ifg.delta_z_mm, flux_norm, ifg.envelope))
    name = f"interferogram.{scenario.output_format}"
    files = {
        name: export_series(
            ["delta_z_mm", "flux_norm", "envelope"], rows, scenario.output_format
        )
    }
    report = oct_scan.envelope_peaks(ifg)
    files["peaks.json"] = json.dumps(
        {
            "positions_mm": _round9(report.positions_mm),
            "separations_um": _round9(report.separations_um),
            "fwhm_um": _round9(report.fwhm_um),
            "resolved": report.resolved,
        },
        indent=2,
    ) + "\n"
    extras = {
        "n_peaks": len(report.positions_mm),
        "resolved": report.resolved,
    }
    return files, conv, extras


def _task_spectrum(scenario: Scenario, points: int):
    crystal = scenario.crystal
    spectrum = biphoton.signal_spectrum(crystal, scenario.pump, kernel=scenario.kernel)
    omega_s0 = crystal.omega_s0
    lam_nm = 2.0 * np.pi * C_NM_FS / (omega_s0 + spectrum.omega_s)
    rows = list(zip(spectrum.omega_s, lam_nm, spectrum.density))
    name = f"spectrum.{scenario.output_format}"
    files = {
        name: export_series(
            ["omega_s_rad_fs", "wavelength_nm", "density"], rows, scenario.output_format
        )
    }
    half = biphoton.signal_spectrum(
        crystal, scenario.pump, kernel=scenario.kernel, resolution=0.5
    )
    delta = abs(spectrum.fwhm_nm - half.fwhm_nm) / spectrum.fwhm_nm
    return (
        files,
        {"delta": float(delta), "method": "halved-resolution"},
        {"fwhm_nm": float(spectrum.fwhm_nm)},
    )


_TASK_FN = {
    "joint_spectrum": _task_joint_spectrum,
    "schmidt": _task_schmidt,
    "g1_scan": _task_g1_scan,
    "oct_scan": _task_oct_scan,
    "spectrum": _task_spectrum,
}


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path | None = None,
    grid_points: int | None = None,
) -> RunManifest:
    """Execute every task of a scenario and write its outputs plus manifest.

    Deterministic: identical scenario text yields bit-identical data files and
    an identical manifest digest. Tasks run concurrently when the
    NLINT_SIM_WORKERS environment variable is above 1; ``joint_spectrum`` and
    ``schmidt`` share each JSA, built once per call. A grid size below
    MIN_GRID_POINTS or a NLINT_SIM_WORKERS that is not an integer is rejected
    before anything is computed or written. A task whose written series holds
    a non-finite value fails with NumericalConsistencyError, and no file of
    the run is written. On
    task failure its partial outputs are removed and the original exception
    propagates with a note naming the task.
    """
    points = grid_points if grid_points is not None else scenario.grid_points
    if points < MIN_GRID_POINTS:
        raise ScenarioError(f"grid points must be at least {MIN_GRID_POINTS}, got {points}")
    workers_raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        workers = int(workers_raw) if workers_raw else 1
    except ValueError:
        raise ScenarioError(f"{WORKERS_ENV}: not an integer: {workers_raw!r}") from None
    target = Path(out_dir) if out_dir is not None else Path(scenario.output_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        probe = target / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ScenarioError(f"output directory not writable: {target}: {exc}") from exc

    jsa = _JsaMemo(scenario)

    def run_one(task: str):
        t0 = time.perf_counter()
        token = _run_jsa.set(jsa)
        try:
            files, conv, extras = _TASK_FN[task](scenario, points)
        except Exception as exc:
            # what BaseException.add_note does (Python 3.11+): the exception
            # keeps its type and constructor arguments
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"task {task}"]
            raise
        finally:
            _run_jsa.reset(token)
        return task, files, conv, extras, time.perf_counter() - t0

    results = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for task, files, conv, extras, secs in pool.map(run_one, scenario.tasks):
                results[task] = (files, conv, extras, secs)
    else:
        for task in scenario.tasks:
            task, files, conv, extras, secs = run_one(task)
            results[task] = (files, conv, extras, secs)

    manifest_files: dict = {}
    seconds: dict = {}
    convergence: dict = {}
    extras_all: dict = {}
    hashes = []
    for task in scenario.tasks:
        files, conv, extras, secs = results[task]
        written = []
        tmp = None
        try:
            for name, content in sorted(files.items()):
                tmp = target / (name + ".tmp")
                tmp.write_text(content)
                os.replace(tmp, target / name)
                tmp = None
                written.append(name)
                hashes.append((name, hashlib.sha256(content.encode()).hexdigest()))
        except OSError:
            if tmp is not None:
                tmp.unlink(missing_ok=True)
            for name in written:
                (target / name).unlink(missing_ok=True)
            raise
        manifest_files[task] = written
        seconds[task] = round(secs, 6)
        # NaN fails the gate; only a check that could not run may report none
        conv["flagged"] = conv["method"] != "unavailable" and not (
            conv["delta"] <= CONVERGENCE_GATE
        )
        conv["gate"] = CONVERGENCE_GATE
        convergence[task] = conv
        extras_all[task] = extras

    canonical = render_scenario(scenario)
    scen_digest = hashlib.sha256(canonical.encode()).hexdigest()
    h = hashlib.sha256(canonical.encode())
    for name, digest in sorted(hashes):
        h.update(f"{name}:{digest}".encode())
    manifest = RunManifest(
        scenario_digest=scen_digest,
        digest=h.hexdigest(),
        grid_points=points,
        files=manifest_files,
        seconds=seconds,
        convergence=convergence,
        extras=extras_all,
    )
    payload = dataclasses.asdict(manifest)
    (target / "run_manifest.json").write_text(json.dumps(payload, indent=2) + "\n")
    return manifest


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
        manifest = run_scenario(
            scenario, out_dir=args.out, grid_points=args.grid_points
        )
    except (ScenarioError, GridResolutionError, AnalysisError, ValueError) as exc:
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
