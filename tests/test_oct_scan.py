import numpy as np
import pytest

from nlintsim.coherence import synchronize_pump_path
from nlintsim.oct_scan import (
    Interferogram,
    _local_maxima,
    axial_resolution,
    default_scan_range,
    envelope_peaks,
    interferogram_bilayer,
    interferogram_closed_form,
    interferogram_numeric,
    predicted_peak_shift,
    scan_axis,
)
from nlintsim.optics_model import (
    AnalysisError,
    BilayerSample,
    C_MM_FS,
    CrystalParams,
    InterferometerGeometry,
    PumpPulse,
    UniformSample,
    mgo_linbo3_crystal,
)


def glass_slab(crystal):
    return BilayerSample.from_fresnel(1.0, 1.5, 1.3, 20.0, crystal.omega_i0)


def synced(crystal):
    return synchronize_pump_path(InterferometerGeometry(), crystal)


def single_layer(crystal, r0=0.9):
    return BilayerSample(r0=r0, r1=0.0, d0_um=1.0, n0=1.5, omega_carrier=crystal.omega_i0)


QUASI_CW = PumpPulse.from_ps(100.0)


# ------------------------------------------------------------- closed form

def test_requires_synchronized_pump_path():
    crystal = mgo_linbo3_crystal(0.5)
    geom = InterferometerGeometry(zp2_mm=5.0)
    dz = np.linspace(-0.1, 0.05, 64)
    with pytest.raises(ValueError, match="synchronized"):
        interferogram_bilayer(crystal, QUASI_CW, geom, glass_slab(crystal), dz)


@pytest.mark.parametrize("window,fringes,n_points", [
    pytest.param((-1e308, 1e308), True, None, id="float-range-window"),
    pytest.param((-1e308, 1e308), False, 801, id="float-range-window-counted"),
    pytest.param((float("nan"), 1.0), True, None, id="nan-window"),
    pytest.param((float("nan"), 1.0), False, None, id="nan-window-no-fringes"),
    pytest.param((0.0, float("inf")), True, None, id="inf-window"),
    pytest.param((-float("inf"), 0.0), False, 11, id="inf-window-counted"),
    pytest.param((-0.1, 0.1), False, float("inf"), id="inf-count"),
    pytest.param((-0.1, 0.1), False, float("nan"), id="nan-count"),
])
def test_scan_axis_rejects_a_nonfinite_window_or_count(monkeypatch, window, fringes, n_points):
    # a ValueError naming the window and the count, before np.linspace runs
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linspace ran")

    crystal = mgo_linbo3_crystal(0.5)
    monkeypatch.setattr(np, "linspace", forbidden)
    with pytest.raises(ValueError, match=r"^scan window \(.+, .+\) mm with .+ delays"):
        scan_axis(crystal, glass_slab(crystal), fringes=fringes, n_points=n_points,
                  window_mm=window)


def test_thin_crystal_quasi_cw_resolves_slab():
    crystal = mgo_linbo3_crystal(0.5)
    sample = glass_slab(crystal)
    dz = scan_axis(crystal, sample, fringes=True)
    ifg = interferogram_bilayer(crystal, QUASI_CW, synced(crystal), sample, dz)
    report = envelope_peaks(ifg)
    assert len(report.positions_mm) == 2
    assert report.separations_um[0] == pytest.approx(60.0, abs=1.0)
    assert report.resolved


def test_long_crystal_quasi_cw_cannot_resolve():
    crystal = mgo_linbo3_crystal(10.0)
    sample = glass_slab(crystal)
    dz = scan_axis(crystal, sample, fringes=False, n_points=4001)
    ifg = interferogram_bilayer(crystal, QUASI_CW, synced(crystal), sample, dz)
    report = envelope_peaks(ifg)
    assert not report.resolved


def test_long_crystal_pulsed_recovers_shifted_peaks():
    crystal = mgo_linbo3_crystal(10.0)
    sample = glass_slab(crystal)
    dz = scan_axis(crystal, sample, fringes=False, n_points=8001)
    ifg = interferogram_bilayer(crystal, PumpPulse(100.0), synced(crystal), sample, dz)
    report = envelope_peaks(ifg)
    assert len(report.positions_mm) == 2
    assert report.separations_um[0] == pytest.approx(42.0, abs=2.0)
    # walk-off compresses the apparent optical thickness
    assert report.separations_um[0] < sample.tau_fs * C_MM_FS * 1e3


def test_flux_bounds():
    crystal = mgo_linbo3_crystal(0.5)
    sample = glass_slab(crystal)
    dz = scan_axis(crystal, sample, fringes=True)
    ifg = interferogram_bilayer(crystal, QUASI_CW, synced(crystal), sample, dz)
    budget = abs(sample.r0) + abs(sample.r1)
    assert np.all(ifg.flux >= 0.0)
    assert ifg.flux.max() <= ifg.n_signal * (1.0 + budget) * (1.0 + 1e-12)
    assert ifg.flux.min() >= ifg.n_signal * (1.0 - budget) * (1.0 - 1e-12)


def test_envelope_only_mode_is_upper_fringe_envelope():
    crystal = mgo_linbo3_crystal(0.5)
    sample = glass_slab(crystal)
    dz = scan_axis(crystal, sample, fringes=False, n_points=501)
    ifg = interferogram_bilayer(
        crystal, QUASI_CW, synced(crystal), sample, dz, fringes=False
    )
    assert not ifg.fringes_rendered
    assert np.allclose(ifg.flux, ifg.n_signal * (1.0 + ifg.envelope))


def test_fringe_period_equals_signal_wavelength():
    crystal = mgo_linbo3_crystal(0.5)
    sample = single_layer(crystal, r0=0.5)
    step = crystal.lambda_s_nm * 1e-6 / 8.0
    dz = np.arange(-0.008, 0.008, step)
    ifg = interferogram_bilayer(crystal, QUASI_CW, synced(crystal), sample, dz)
    y = ifg.flux / ifg.n_signal - 1.0
    sign_flips = np.where(np.diff(np.signbit(y)))[0]
    crossings = dz[sign_flips] - y[sign_flips] * step / (y[sign_flips + 1] - y[sign_flips])
    period_mm = 2.0 * np.mean(np.diff(crossings))
    assert period_mm * 1e6 == pytest.approx(crystal.lambda_s_nm, rel=1e-2)


def test_demodulation_cross_check_at_peaks():
    # fringe peak-to-peak swing over one period matches the per-layer envelope
    crystal = mgo_linbo3_crystal(0.5)
    sample = glass_slab(crystal)
    geom = synced(crystal)
    lam_mm = crystal.lambda_s_nm * 1e-6
    for center in (0.0, -sample.tau_fs * C_MM_FS):
        dz = np.linspace(center - lam_mm, center + lam_mm, 257)
        ifg = interferogram_bilayer(crystal, QUASI_CW, geom, sample, dz)
        swing = 0.5 * (ifg.flux.max() - ifg.flux.min()) / ifg.n_signal
        env_mid = ifg.envelope[128]
        assert swing == pytest.approx(env_mid, rel=0.02)


# ------------------------------------------------------------- numeric route

@pytest.mark.parametrize(
    "length_mm,t0_fs",
    [(0.5, 1e5), (10.0, 1e5), (10.0, 100.0)],
)
def test_numeric_matches_bilayer(length_mm, t0_fs):
    crystal = mgo_linbo3_crystal(length_mm)
    pump = PumpPulse(t0_fs)
    sample = glass_slab(crystal)
    geom = synced(crystal)
    lo, hi = default_scan_range(crystal, sample)
    dz = np.linspace(lo, hi, 301)
    closed = interferogram_bilayer(crystal, pump, geom, sample, dz)
    numeric = interferogram_numeric(crystal, pump, geom, sample, dz)
    assert np.max(np.abs(numeric.flux - closed.flux)) < 1e-3 * closed.n_signal


def test_numeric_matches_uniform_closed_form():
    crystal = mgo_linbo3_crystal(0.5)
    pump = PumpPulse(100.0)
    sample = UniformSample(0.7 * np.exp(0.4j))
    geom = synced(crystal)
    dz = np.linspace(*default_scan_range(crystal, sample), 301)
    closed = interferogram_closed_form(crystal, pump, geom, sample, dz)
    numeric = interferogram_numeric(crystal, pump, geom, sample, dz)
    assert np.max(np.abs(numeric.flux - closed.flux)) < 1e-3 * closed.n_signal
    assert np.max(np.abs(numeric.envelope - closed.envelope)) < 1e-3
    assert closed.envelope.max() == pytest.approx(0.7, rel=1e-12)


def test_numeric_mirror_single_peak_at_zero():
    crystal = mgo_linbo3_crystal(0.5)
    dz = scan_axis(crystal, UniformSample(1.0), fringes=False, n_points=801)
    ifg = interferogram_numeric(
        crystal, QUASI_CW, synced(crystal), UniformSample(1.0), dz, fringes=False
    )
    report = envelope_peaks(ifg)
    assert len(report.positions_mm) == 1
    assert abs(report.positions_mm[0]) < 2e-3  # within two scan steps of zero


def test_bilayer_scan_needs_a_bilayer():
    crystal = mgo_linbo3_crystal(0.5)
    dz = np.linspace(-0.1, 0.05, 64)
    with pytest.raises(TypeError, match="needs a BilayerSample"):
        interferogram_bilayer(crystal, QUASI_CW, synced(crystal), UniformSample(0.9), dz)


# ------------------------------------------------------------- analytics

def test_envelope_peaks_rejects_clipped_scan():
    crystal = mgo_linbo3_crystal(10.0)
    sample = glass_slab(crystal)
    dz = np.linspace(-0.05, 0.05, 301)  # far inside the 0.79 mm envelope
    ifg = interferogram_bilayer(crystal, QUASI_CW, synced(crystal), sample, dz)
    with pytest.raises(AnalysisError, match="clipped"):
        envelope_peaks(ifg)


def test_envelope_peaks_rejects_a_zero_envelope():
    dz = np.linspace(-1.0, 1.0, 201)
    ifg = Interferogram(dz, np.ones(dz.size), np.zeros(dz.size), 1.0, False)
    with pytest.raises(AnalysisError, match="envelope is identically zero"):
        envelope_peaks(ifg)


def _double_hump(dip):
    """Two unit peaks whose valley between them sits at ``dip``."""
    dz = np.linspace(-1.0, 1.0, 201)
    env = np.zeros(dz.size)
    env[40:161] = np.interp(dz[40:161], [-0.6, -0.2, 0.0, 0.2, 0.6], [0.0, 1.0, dip, 1.0, 0.0])
    return Interferogram(dz, 1.0 + env, env, 1.0, False)


def test_peak_width_stops_at_neighbor_but_fwhm_spans_shoulder():
    # a valley above half height swallows each peak's inner crossing: the
    # per-peak width is undefined, while the global FWHM runs between the
    # outer half-height crossings at -0.4 and +0.4 mm
    ifg = _double_hump(dip=0.7)
    report = envelope_peaks(ifg)
    assert report.positions_mm == pytest.approx((-0.2, 0.2))
    assert all(np.isnan(w) for w in report.fwhm_um)
    assert axial_resolution(ifg) == pytest.approx(800.0, rel=1e-9)
    deep = envelope_peaks(_double_hump(dip=0.2))
    assert deep.fwhm_um == pytest.approx((325.0, 325.0), rel=1e-9)
    assert deep.resolved


def _flat_tops():
    y = np.zeros(40)
    y[5:7] = 1.0        # even flat top: scipy takes the left middle sample
    y[12:15] = 0.8      # odd flat top
    y[20:23] = 0.5
    y[23] = 0.9         # flat step that rises again: not a maximum
    y[30:] = 0.7        # flat run to the last sample: not a maximum
    return y


PEAK_CASES = {
    "flat_tops": (_flat_tops(), 0.1),
    "height_is_inclusive": (np.array([0.0, 0.5, 0.0, 0.4, 0.0, 0.6, 0.0]), 0.5),
    "noisy_gaussians": (
        np.exp(-np.linspace(-4, 4, 500) ** 2)
        + 0.6 * np.exp(-(np.linspace(-4, 4, 500) - 2.5) ** 2 * 9)
        + 0.02 * np.random.default_rng(7).standard_normal(500),
        0.1,
    ),
    "quantized": (np.round(np.sin(np.linspace(0, 12, 300)) ** 2, 1), 0.0),
    "monotone": (np.linspace(0.0, 1.0, 50), 0.0),
    "constant": (np.ones(10), 0.0),
    "edge_maxima_only": (np.array([1.0, 0.0, 0.0, 1.0]), 0.0),
    "three_points": (np.array([0.0, 1.0, 0.0]), 0.5),
    "two_points": (np.array([0.0, 1.0]), 0.0),
    "empty": (np.array([]), 0.0),
}


@pytest.mark.parametrize("case", sorted(PEAK_CASES))
def test_local_maxima_match_scipy_find_peaks(case):
    signal = pytest.importorskip("scipy.signal")
    y, height = PEAK_CASES[case]
    expected, _ = signal.find_peaks(y, height=height)
    assert _local_maxima(y, height).tolist() == expected.tolist()


def test_predicted_peak_shift_reference_values():
    crystal = mgo_linbo3_crystal(10.0)
    factor = predicted_peak_shift(crystal)
    assert factor == pytest.approx(-0.711, abs=5e-4)
    no_walkoff = CrystalParams(
        length_mm=10.0, D=-263.5, D_plus=0.0, N_i=7300.0,
        lambda_p_nm=532.0, lambda_s_nm=810.0, lambda_i_nm=1550.0,
    )
    assert predicted_peak_shift(no_walkoff) == 1.0
    degenerate = CrystalParams(
        length_mm=10.0, D=-263.5, D_plus=-131.75, N_i=7300.0,
        lambda_p_nm=532.0, lambda_s_nm=810.0, lambda_i_nm=1550.0,
    )
    with pytest.raises(ValueError):
        predicted_peak_shift(degenerate)


def test_peak_shift_consistent_with_measured_separation():
    crystal = mgo_linbo3_crystal(10.0)
    sample = glass_slab(crystal)
    dz = scan_axis(crystal, sample, fringes=False, n_points=8001)
    ifg = interferogram_bilayer(crystal, PumpPulse(100.0), synced(crystal), sample, dz)
    sep = envelope_peaks(ifg).separations_um[0]
    predicted = abs(predicted_peak_shift(crystal)) * sample.tau_fs * C_MM_FS * 1e3
    assert sep == pytest.approx(predicted, rel=0.05)


@pytest.mark.parametrize(
    "length_mm,t0_fs,expected_um,rel",
    [
        (0.5, 1e5, 39.4977, 0.05),   # triangular envelope: c |D| L
        (10.0, 1e5, 789.953, 0.05),  # same law, twenty times wider
        (10.0, 100.0, 28.85, 0.10),  # Gaussian-limited: 2 c T0 sqrt(16 ln2) / |1-2D+/D|
    ],
)
def test_axial_resolution(length_mm, t0_fs, expected_um, rel):
    crystal = mgo_linbo3_crystal(length_mm)
    sample = single_layer(crystal)
    dz = scan_axis(crystal, sample, fringes=False, n_points=4001)
    ifg = interferogram_bilayer(crystal, PumpPulse(t0_fs), synced(crystal), sample, dz)
    assert axial_resolution(ifg) == pytest.approx(expected_um, rel=rel)


def test_bandwidth_resolution_reciprocity():
    # wider signal spectrum means finer axial resolution, across all three
    # reference configurations
    from nlintsim.biphoton import signal_spectrum

    axial, spectral = [], []
    for length_mm, t0_fs in ((0.5, 1e5), (10.0, 1e5), (10.0, 100.0)):
        crystal = mgo_linbo3_crystal(length_mm)
        sample = single_layer(crystal)
        dz = scan_axis(crystal, sample, fringes=False, n_points=4001)
        ifg = interferogram_bilayer(
            crystal, PumpPulse(t0_fs), synced(crystal), sample, dz
        )
        axial.append(axial_resolution(ifg))
        spectral.append(signal_spectrum(crystal, PumpPulse(t0_fs)).fwhm_nm)
    assert np.argsort(axial).tolist() == np.argsort(spectral)[::-1].tolist()
