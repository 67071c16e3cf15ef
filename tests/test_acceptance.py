"""Acceptance gate: every quantitative contract of the simulator in one place.

Each test covers one numbered criterion at its stated tolerance and prints a
one-line verdict (run with -s to see them). Expected values come from three
kinds of oracle: closed-form expressions evaluated here independently of the
library path they check, brute-force quadrature written in this file, and
frozen reference numbers for the target crystal (MgO:LiNbO3, 532 nm pump,
810/1550 nm pair, D = -263.50 fs/mm, D+ = 780 fs/mm).

  1  separable point: gamma(212 fs, 5 mm) = 1.00 +- 0.01, Schmidt K <= 1.01
  2  Schmidt number vs (gamma + 1/gamma)/2 within 1% on 2048^2 grids
  3  signal bandwidths 14.8 / 0.8 / 20 nm for the three reference configs
  4  depth scans: 60 um split, unresolved, 42 um split (via scenario files)
  5  peak-shift factor -0.71 +- 0.005; +1 exactly without pump walk-off
  6  quadrature |g1| vs closed form < 1e-3 on 201-point scans, all regimes
  7  numeric pair flux = 2 pi sigma^2 L / |D| within 1%, pulse-shape free
  8  fringe period under a z3 scan = 810 nm +- 1%
  9  property suite: normalization, |g1| bound, loss linearity, determinism,
     grid-refinement convergence
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from nlintsim.biphoton import (
    fwhm_interpolated,
    joint_spectral_intensity,
    schmidt_rows,
    signal_spectrum,
)
from nlintsim.coherence import (
    g1_envelope,
    g1_scan,
    synchronize_pump_path,
    tri,
)
from nlintsim.cli_runner import parse_scenario, run_scenario
from nlintsim.oct_scan import interferogram_bilayer, predicted_peak_shift
from nlintsim.optics_model import (
    BilayerSample,
    C_MM_FS,
    CrystalParams,
    InterferometerGeometry,
    PumpPulse,
    SINC_GAUSS_ALPHA,
    UniformSample,
    gamma_param,
    make_frequency_grid,
    mgo_linbo3_crystal,
    pump_amplitude,
    sinc,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def synced(crystal):
    return synchronize_pump_path(InterferometerGeometry(), crystal)


def test_criterion_1_separable_point():
    crystal = mgo_linbo3_crystal(5.0)
    pump = PumpPulse(212.0)
    gamma = gamma_param(crystal, pump)
    assert abs(gamma - 1.0) <= 0.01
    grid = make_frequency_grid(crystal, pump, 2048)
    report = schmidt_rows("gaussian", crystal, pump, grid)
    assert report.schmidt_number_K <= 1.01
    assert report.entropy_bits <= 0.02
    print(
        f"\n[criterion 1] PASS: gamma = {gamma:.4f}, K = {report.schmidt_number_K:.6f}, "
        f"E = {report.entropy_bits:.2e} bits"
    )


def test_criterion_2_schmidt_number_oracle():
    crystal = mgo_linbo3_crystal(5.0)
    results = []
    for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
        t0 = SINC_GAUSS_ALPHA * crystal.dl / (2.0 * np.sqrt(2.0) * gamma)
        pump = PumpPulse(t0)
        grid = make_frequency_grid(crystal, pump, 2048)
        k_grid = schmidt_rows("gaussian", crystal, pump, grid).schmidt_number_K
        k_analytic = (gamma + 1.0 / gamma) / 2.0
        assert abs(k_grid - k_analytic) <= 0.01 * k_analytic, (gamma, k_grid, k_analytic)
        results.append(f"gamma={gamma:g}: K={k_grid:.4f} vs {k_analytic:.4f}")
    print("\n[criterion 2] PASS: " + "; ".join(results))


@pytest.mark.parametrize(
    "length_mm,t0_fs,expected_nm,tol_nm",
    [(0.5, 1e5, 14.8, 0.5), (10.0, 1e5, 0.8, 0.1), (10.0, 100.0, 20.0, 1.0)],
)
def test_criterion_3_signal_bandwidths(length_mm, t0_fs, expected_nm, tol_nm):
    crystal = mgo_linbo3_crystal(length_mm)
    spectrum = signal_spectrum(crystal, PumpPulse(t0_fs), kernel="exact")
    assert abs(spectrum.fwhm_nm - expected_nm) <= tol_nm
    print(
        f"\n[criterion 3] PASS: L={length_mm} mm, T0={t0_fs:g} fs -> "
        f"FWHM {spectrum.fwhm_nm:.3f} nm (expected {expected_nm} +- {tol_nm})"
    )


def test_criterion_4_depth_scans(tmp_path):
    cases = [
        ("oct_thin_crystal_quasi_cw.ini", 2, 60.0, 1.0, True),
        ("oct_long_crystal_quasi_cw.ini", None, None, None, False),
        ("oct_long_crystal_pulsed.ini", 2, 42.0, 2.0, None),
    ]
    lines = []
    for fname, n_peaks, sep, tol, resolved in cases:
        scenario = parse_scenario((SCENARIO_DIR / fname).read_text())
        out = tmp_path / fname.replace(".ini", "")
        run_scenario(scenario, out_dir=out)
        peaks = json.loads((out / "peaks.json").read_text())
        if n_peaks is not None:
            assert len(peaks["positions_mm"]) == n_peaks
            assert abs(peaks["separations_um"][0] - sep) <= tol
        if resolved is not None:
            assert peaks["resolved"] is resolved
        got = (
            f"{fname}: {len(peaks['positions_mm'])} peak(s)"
            + (f", sep {peaks['separations_um'][0]:.2f} um" if peaks["separations_um"] else "")
            + f", resolved={peaks['resolved']}"
        )
        lines.append(got)
    print("\n[criterion 4] PASS: " + " | ".join(lines))


def test_criterion_5_peak_shift_factor():
    factor = predicted_peak_shift(mgo_linbo3_crystal(10.0))
    assert abs(factor - (-0.71)) <= 0.005
    no_walkoff = CrystalParams(
        length_mm=10.0, D=-263.5, D_plus=0.0, N_i=7300.0,
        lambda_p_nm=532.0, lambda_s_nm=810.0, lambda_i_nm=1550.0,
    )
    assert predicted_peak_shift(no_walkoff) == 1.0
    print(f"\n[criterion 5] PASS: shift factor = {factor:.4f}; 1.0 at zero walk-off")


def test_criterion_6_quadrature_matches_closed_form():
    crystal = mgo_linbo3_crystal(5.0)
    geom = synced(crystal)
    mirror = UniformSample(1.0)
    dz = np.linspace(-1.2, 1.2, 201) * crystal.dl * C_MM_FS
    t1 = dz / C_MM_FS
    devs = []
    envs = {}
    for t0_fs in (1e5, 2000.0, 100.0):
        pump = PumpPulse(t0_fs)
        g = np.abs(g1_scan(crystal, pump, geom, mirror, dz))
        expected = g1_envelope(t1, 0.0, crystal, pump)
        dev = float(np.max(np.abs(g - expected)))
        assert dev < 1e-3, (t0_fs, dev)
        devs.append(f"T0={t0_fs:g}: {dev:.2e}")
        envs[t0_fs] = g

    # envelope regimes: triangular, mixed, Gaussian-dominated
    assert np.max(np.abs(envs[1e5] - tri(t1 / crystal.dl))) < 2e-3
    walk = 1.0 - 2.0 * crystal.D_plus / crystal.D
    fwhm_gauss = 8.0 * 100.0 * np.sqrt(np.log(2.0)) / abs(walk)
    width_fs = fwhm_interpolated(t1, envs[100.0])
    assert abs(width_fs - fwhm_gauss) <= 0.05 * fwhm_gauss
    width_mixed = fwhm_interpolated(t1, envs[2000.0])
    assert fwhm_gauss < width_mixed < crystal.dl
    print(
        "\n[criterion 6] PASS: max deviations " + "; ".join(devs)
        + f"; regimes triangular/mixed({width_mixed:.0f} fs)/Gaussian({width_fs:.0f} fs)"
    )


def _pair_flux_quadrature(crystal, pump, tail_arg=300.0, n_u=801, n_m=20001):
    # brute-force double integral of the squared pair kernel, rotated axes
    half_u = 6.0 / pump.t0_fs
    u = np.linspace(-half_u, half_u, n_u)
    w_u = np.full(n_u, u[1] - u[0]); w_u[0] *= 0.5; w_u[-1] *= 0.5
    half_m = 4.0 * tail_arg / crystal.dl
    m = np.linspace(-half_m, half_m, n_m)
    w_m = np.full(n_m, m[1] - m[0]); w_m[0] *= 0.5; w_m[-1] *= 0.5
    pump_sq = np.abs(pump_amplitude(pump, u)) ** 2
    arg = (crystal.D_plus * u[:, None] + crystal.D * m[None, :] / 2.0) * (
        crystal.length_mm / 2.0
    )
    inner = (sinc(arg) ** 2) @ w_m
    return 0.5 * (crystal.sigma * crystal.length_mm) ** 2 * float(
        np.sum(pump_sq * w_u * inner)
    )


def test_criterion_7_pair_flux_law():
    crystal = mgo_linbo3_crystal(5.0)
    analytic = 2.0 * np.pi * crystal.sigma ** 2 * crystal.length_mm / abs(crystal.D)
    ratios = []
    for t0_fs in (100.0, 2000.0, 1e5):
        numeric = _pair_flux_quadrature(crystal, PumpPulse(t0_fs))
        assert abs(numeric - analytic) <= 0.01 * analytic, (t0_fs, numeric, analytic)
        ratios.append(f"T0={t0_fs:g}: {numeric / analytic:.4f}")
    doubled = _pair_flux_quadrature(mgo_linbo3_crystal(10.0), PumpPulse(2000.0))
    assert abs(doubled - 2.0 * analytic) <= 0.01 * 2.0 * analytic
    print(
        "\n[criterion 7] PASS: numeric/analytic " + "; ".join(ratios)
        + f"; doubling L -> ratio {doubled / (2 * analytic):.4f}"
    )


def test_criterion_8_fringe_carrier_period():
    crystal = mgo_linbo3_crystal(0.5)
    pump = PumpPulse.from_ps(100.0)
    sample = BilayerSample(
        r0=0.5, r1=0.0, d0_um=1.0, n0=1.5, omega_carrier=crystal.omega_i0
    )
    step = crystal.lambda_s_nm * 1e-6 / 8.0
    dz = np.arange(-0.01, 0.01, step)
    ifg = interferogram_bilayer(crystal, pump, synced(crystal), sample, dz)
    y = ifg.flux / ifg.n_signal - 1.0
    flips = np.where(np.diff(np.signbit(y)))[0]
    crossings = dz[flips] - y[flips] * step / (y[flips + 1] - y[flips])
    period_nm = 2.0 * float(np.mean(np.diff(crossings))) * 1e6
    assert abs(period_nm - crystal.lambda_s_nm) <= 0.01 * crystal.lambda_s_nm
    print(
        f"\n[criterion 8] PASS: fringe period {period_nm:.2f} nm over "
        f"{crossings.size} zero crossings (expected 810 +- 8.1)"
    )


def test_criterion_9_property_suite(tmp_path):
    crystal = mgo_linbo3_crystal(5.0)
    pump = PumpPulse(500.0)
    geom = synced(crystal)

    # normalization of the discretized pair intensity
    grid = make_frequency_grid(crystal, pump, 1024)
    js = joint_spectral_intensity("exact", crystal, pump, grid)
    norm_err = abs(js.quadrature_norm() - 1.0)
    assert norm_err < 1e-6

    # |g1| bound over a full scan
    dz = np.linspace(-1.3, 1.3, 201) * crystal.dl * C_MM_FS
    g_full = g1_scan(crystal, pump, geom, UniformSample(1.0), dz)
    bound_excess = float(np.max(np.abs(g_full)) - 1.0)
    assert bound_excess <= 1e-6

    # uniform-loss linearity
    rho = 0.37
    g_lossy = g1_scan(crystal, pump, geom, UniformSample(rho), dz)
    lin_err = float(np.max(np.abs(np.abs(g_lossy) - rho * np.abs(g_full))))
    assert lin_err <= 1e-6

    # scenario determinism
    text = (SCENARIO_DIR / "jsi_separable.ini").read_text()
    scenario = dataclasses.replace(parse_scenario(text), grid_points=512)
    m1 = run_scenario(scenario, out_dir=tmp_path / "r1")
    m2 = run_scenario(scenario, out_dir=tmp_path / "r2")
    assert m1.digest == m2.digest
    for task, names in m1.files.items():
        for name in names:
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    # grid refinement: doubled quadrature density moves |g1| by < 1e-4
    sub = dz[::4]
    g_r1 = np.abs(g1_scan(crystal, pump, geom, UniformSample(1.0), sub, resolution=1.0))
    g_r2 = np.abs(g1_scan(crystal, pump, geom, UniformSample(1.0), sub, resolution=2.0))
    refine_delta = float(np.max(np.abs(g_r2 - g_r1)))
    assert refine_delta < 1e-4

    print(
        f"\n[criterion 9] PASS: norm err {norm_err:.1e}; |g1|-1 <= {bound_excess:.1e}; "
        f"linearity err {lin_err:.1e}; digests equal; refinement delta {refine_delta:.1e}"
    )
