"""Self-test of the output checks: each check passes a good result and rejects a corrupted one.

Usage (from the repository root): python3 perfbench/selftest.py

Results are synthesized from the program's closed forms (no simulation
runs), then corrupted one way at a time: a flagged or NaN convergence delta,
a NaN in a series, and each oracle pushed just past its tolerance.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from nlintsim import (  # noqa: E402
    BilayerSample,
    C_MM_FS,
    g1_envelope,
    gamma_param,
    interferogram_bilayer,
    parse_scenario,
)

SCENARIOS = HERE.parent / "scenarios"


def _csv(columns, rows) -> str:
    lines = [",".join(columns)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _manifest(delta=0.0, method="analytic", flagged=False, extras=None) -> dict:
    return {
        "convergence": {"task": {"delta": delta, "method": method, "flagged": flagged}},
        "extras": extras or {},
    }


def g1_case(shift=0.0, nan=False):
    scenario = parse_scenario((SCENARIOS / "g1_pulsed_100fs.ini").read_text())
    dz = np.linspace(-0.5, 0.5, 401)
    g1 = g1_envelope(dz / C_MM_FS, 0.0, scenario.crystal, scenario.pump) + shift
    if nan:
        g1[200] = np.nan
    files = {"g1_scan.csv": _csv(["delta_z_mm", "g1_abs", "g1_phase"],
                                 zip(dz, g1, np.zeros_like(dz)))}
    item = {"id": "g1", "kind": "bundled", "name": "g1_pulsed_100fs"}
    return item, scenario, files


def oct_case(fwhm=14.8, separation=60.0, resolved=True):
    scenario = parse_scenario((SCENARIOS / "oct_thin_crystal_quasi_cw.ini").read_text())
    peaks = {"positions_mm": [-0.06, -separation * 1e-3 - 0.06],
             "separations_um": [separation], "fwhm_um": [float("nan")] * 2,
             "resolved": resolved}
    files = {"peaks.json": json.dumps(peaks)}
    item = {"id": "oct", "kind": "bundled", "name": "oct_thin_crystal_quasi_cw"}
    return item, scenario, files, {"spectrum": {"fwhm_nm": fwhm}}


def slab_case(shift=0.0):
    scenario = parse_scenario(
        "[crystal]\npreset = mgo_linbo3\nlength_mm = 0.5\n[pump]\nt0_ps = 100\n"
        "[tasks]\nrun = oct_scan\n"
    )
    crystal = scenario.crystal
    slab = BilayerSample.from_fresnel(1.0, 1.5, 1.3, 20.0, crystal.omega_i0)
    dz = np.linspace(-0.12, 0.05, 1001)
    ifg = interferogram_bilayer(crystal, scenario.pump, scenario.effective_geometry(), slab, dz)
    flux = ifg.flux / ifg.n_signal + shift
    files = {"interferogram.csv": _csv(["delta_z_mm", "flux_norm", "envelope"],
                                       zip(dz, flux, ifg.envelope))}
    item = {"id": "slab", "kind": "numeric_slab", "thickness_um": 20.0}
    return item, scenario, files


def schmidt_case(kernel="gaussian", k_scale=1.0, total_shift=0.0, separable_k=None):
    scenario = parse_scenario(
        "[crystal]\npreset = mgo_linbo3\nlength_mm = 5\n[pump]\nt0_fs = 150\n"
        "[grid]\nkernel = gaussian\n[tasks]\nrun = schmidt\n"
    )
    gamma = gamma_param(scenario.crystal, scenario.pump)
    mu = (gamma - 1.0) / (gamma + 1.0)
    lam = (1.0 - mu ** 2) * mu ** (2 * np.arange(200))
    lam[0] += total_shift
    k = (gamma + 1.0 / gamma) / 2.0 * k_scale
    if separable_k is not None:
        k = separable_k
    files = {"schmidt.json": json.dumps({"coefficients": lam.tolist(),
                                         "schmidt_number_K": k, "entropy_bits": 0.0})}
    if separable_k is not None:
        item = {"id": "sep", "kind": "bundled", "name": "jsi_separable"}
    else:
        item = {"id": "sweep", "kind": "schmidt_sweep", "kernel": kernel}
    return item, scenario, files


def cases():
    """(name, expect_pass, item, scenario, files, manifest)."""
    out = []

    def add(name, expect, built, manifest=None):
        item, scenario, files = built[:3]
        extras = built[3] if len(built) > 3 else None
        out.append((name, expect, item, scenario, files,
                    manifest or _manifest(extras=extras)))

    add("g1 matches envelope", True, g1_case())
    add("g1 off by 2e-3", False, g1_case(shift=2e-3))
    add("NaN in a series", False, g1_case(nan=True))
    add("convergence flagged", False, g1_case(), _manifest(delta=2e-4, flagged=True))
    add("NaN delta, halved-resolution", False, g1_case(),
        _manifest(delta=float("nan"), method="halved-resolution"))
    add("NaN delta, unavailable", True, g1_case(),
        _manifest(delta=float("nan"), method="unavailable"))
    add("oct thin crystal as expected", True, oct_case())
    add("oct FWHM off by 0.6 nm", False, oct_case(fwhm=15.4))
    add("oct separation off by 1.5 um", False, oct_case(separation=61.5))
    add("oct peaks not resolved", False, oct_case(resolved=False))
    add("slab flux matches closed form", True, slab_case())
    add("slab flux shifted by 2e-3", False, slab_case(shift=2e-3))
    add("Gaussian K analytic", True, schmidt_case())
    add("Gaussian K off by 2%", False, schmidt_case(k_scale=1.02))
    add("exact kernel ignores K", True, schmidt_case(kernel="exact", k_scale=1.02))
    add("Schmidt sum off by 2e-6", False, schmidt_case(total_shift=2e-6))
    add("separable K = 1.005", True, schmidt_case(separable_k=1.005))
    add("separable K = 1.02", False, schmidt_case(separable_k=1.02))
    return out


def main() -> int:
    bad = 0
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for n, (name, expect, item, scenario, files, manifest) in enumerate(cases()):
            out_dir = Path(tmp) / f"case{n:02d}"
            out_dir.mkdir()
            for fname, content in files.items():
                (out_dir / fname).write_text(content)
            failures = oracles.check(item, scenario, out_dir, manifest)
            ok = (not failures) == expect
            bad += not ok
            verdict = "passes" if not failures else "rejected: " + "; ".join(failures)
            print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}")
    try:
        scratch.rmdir()
    except OSError:
        pass
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
