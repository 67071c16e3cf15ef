"""Output checks for one benchmark item.

An item passes only when run_scenario returned, every convergence entry is
unflagged with a finite delta (a non-finite delta only with method
"unavailable"), every written series is finite, and the item's oracle holds
at the tolerance its existing test uses. ``check`` returns the list of
failures; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# bundled oct recipes: (signal FWHM nm, tolerance), expected peaks
OCT_EXPECTED = {
    "oct_thin_crystal_quasi_cw": {"fwhm_nm": (14.8, 0.5), "separation_um": (60.0, 1.0),
                                  "resolved": True},
    "oct_long_crystal_quasi_cw": {"fwhm_nm": (0.8, 0.1), "resolved": False},
    "oct_long_crystal_pulsed": {"fwhm_nm": (20.0, 1.0), "separation_um": (42.0, 2.0)},
}
SEPARABLE_K_MAX = 1.01
G1_TOL = 1e-3
FLUX_TOL = 1e-3          # of n_signal
SCHMIDT_K_REL_TOL = 0.01
SCHMIDT_SUM_TOL = 1e-6


def check(item: dict, scenario, out_dir: Path, manifest: dict) -> list[str]:
    failures = _convergence(manifest) + _series_finite(out_dir)
    kind = item["kind"]
    if kind == "bundled":
        failures += _bundled(item, scenario, out_dir, manifest)
    elif kind == "numeric_slab":
        failures += _numeric_slab(item, scenario, out_dir)
    elif kind == "schmidt_sweep":
        failures += _schmidt_sweep(item, scenario, out_dir)
    else:
        failures.append(f"no oracle for item kind {kind!r}")
    return failures


def _convergence(manifest: dict) -> list[str]:
    failures = []
    for task, entry in manifest["convergence"].items():
        delta = entry["delta"]
        if entry["flagged"]:
            failures.append(f"{task}: convergence flagged (delta {delta})")
        elif not math.isfinite(delta) and entry["method"] != "unavailable":
            failures.append(f"{task}: non-finite delta {delta} with method {entry['method']}")
    return failures


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, np.array([line.split(",") for line in lines[1:]], dtype=float)


def _series_finite(out_dir: Path) -> list[str]:
    failures = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            header, table = _csv(path)
            if path.name == "joint_spectrum.csv":
                values = [np.array(header[1:], dtype=float), table]
            else:
                values = [table]
        elif path.name == "peaks.json":
            # per-peak FWHM is nan by contract when a neighbor swallows a crossing
            peaks = json.loads(path.read_text())
            values = [np.array(peaks["positions_mm"] + peaks["separations_um"], dtype=float)]
        elif path.suffix == ".json" and path.name != "run_manifest.json":
            values = [np.array(_numbers(json.loads(path.read_text())), dtype=float)]
        else:
            continue
        if not all(np.all(np.isfinite(v)) for v in values):
            failures.append(f"{path.name}: non-finite values")
    return failures


def _numbers(obj) -> list[float]:
    if isinstance(obj, bool):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return []


def _bundled(item, scenario, out_dir: Path, manifest: dict) -> list[str]:
    name = item["name"]
    failures = []
    if name == "jsi_separable":
        k = json.loads((out_dir / "schmidt.json").read_text())["schmidt_number_K"]
        if not k <= SEPARABLE_K_MAX:
            failures.append(f"separable K = {k} above {SEPARABLE_K_MAX}")
    if name in OCT_EXPECTED:
        want = OCT_EXPECTED[name]
        fwhm = manifest["extras"]["spectrum"]["fwhm_nm"]
        center, tol = want["fwhm_nm"]
        if not abs(fwhm - center) <= tol:
            failures.append(f"signal FWHM {fwhm} nm outside {center} +- {tol}")
        peaks = json.loads((out_dir / "peaks.json").read_text())
        if "separation_um" in want:
            center, tol = want["separation_um"]
            seps = peaks["separations_um"]
            if len(peaks["positions_mm"]) != 2 or not abs(seps[0] - center) <= tol:
                failures.append(f"peaks {peaks['positions_mm']} not two at {center} +- {tol} um")
        if "resolved" in want and peaks["resolved"] is not want["resolved"]:
            failures.append(f"resolved = {peaks['resolved']}, expected {want['resolved']}")
    if (out_dir / "g1_scan.csv").exists():
        failures += _g1_matches_envelope(scenario, out_dir / "g1_scan.csv")
    return failures


def _g1_matches_envelope(scenario, path: Path) -> list[str]:
    from nlintsim.coherence import g1_envelope, timing_from_geometry
    from nlintsim.optics_model import C_MM_FS

    header, table = _csv(path)
    dz = table[:, header.index("delta_z_mm")]
    g1_abs = table[:, header.index("g1_abs")]
    t2 = timing_from_geometry(scenario.effective_geometry(), scenario.crystal).t2_fs
    closed = g1_envelope(dz / C_MM_FS, t2, scenario.crystal, scenario.pump)
    err = float(np.max(np.abs(g1_abs - closed)))
    return [] if err <= G1_TOL else [f"|g1| off the closed-form envelope by {err:.3g}"]


def _numeric_slab(item, scenario, out_dir: Path) -> list[str]:
    from nlintsim import BilayerSample
    from nlintsim.oct_scan import interferogram_bilayer

    crystal = scenario.crystal
    slab = BilayerSample.from_fresnel(1.0, 1.5, 1.3, item["thickness_um"], crystal.omega_i0)
    header, table = _csv(out_dir / "interferogram.csv")
    dz = table[:, header.index("delta_z_mm")]
    closed = interferogram_bilayer(
        crystal, scenario.pump, scenario.effective_geometry(), slab, dz, fringes=True
    )
    err = float(np.max(np.abs(table[:, header.index("flux_norm")]
                              - closed.flux / closed.n_signal)))
    if err <= FLUX_TOL:
        return []
    return [f"flux off the closed-form bilayer scan by {err:.3g} n_signal"]


def _schmidt_sweep(item, scenario, out_dir: Path) -> list[str]:
    from nlintsim import gamma_param

    report = json.loads((out_dir / "schmidt.json").read_text())
    failures = []
    total = math.fsum(report["coefficients"])
    if not abs(total - 1.0) <= SCHMIDT_SUM_TOL:
        failures.append(f"Schmidt coefficients sum to {total!r}")
    if item["kernel"] == "gaussian":
        gamma = gamma_param(scenario.crystal, scenario.pump)
        want = (gamma + 1.0 / gamma) / 2.0
        k = report["schmidt_number_K"]
        if not abs(k - want) <= SCHMIDT_K_REL_TOL * want:
            failures.append(f"K = {k} vs analytic {want} (gamma {gamma:.4g})")
    return failures
