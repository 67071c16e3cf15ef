import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlintsim.biphoton import (
    JointSpectrum,
    biphoton_exact,
    biphoton_gaussian,
    bandwidth_nm,
    fwhm_interpolated,
    gaussian_marginal_fwhm,
    joint_spectral_intensity,
    joint_spectrum_rows,
    marginal_spectrum,
    schmidt_analysis,
    schmidt_gaussian,
    schmidt_rows,
    signal_spectrum,
)
from nlintsim import biphoton, cli_runner, coherence
from nlintsim.optics_model import (
    AnalysisError,
    CrystalParams,
    NumericalConsistencyError,
    PumpPulse,
    SINC_GAUSS_ALPHA,
    gamma_param,
    make_frequency_grid,
    mgo_linbo3_crystal,
)

CRYSTAL = mgo_linbo3_crystal(5.0)


def no_walkoff_crystal(length_mm):
    return CrystalParams(
        length_mm=length_mm, D=-263.5, D_plus=0.0, N_i=7300.0,
        lambda_p_nm=532.0, lambda_s_nm=810.0, lambda_i_nm=1550.0,
    )


def gamma_pump(crystal, gamma):
    return PumpPulse(SINC_GAUSS_ALPHA * crystal.dl / (2.0 * np.sqrt(2.0) * gamma))


def separable_pump(crystal):
    # pump duration at which the Gaussian kernel factorizes exactly
    return gamma_pump(crystal, 1.0)


def weighted_correlation(js):
    w = js.grid.weights_s
    p = js.intensity * w[:, None] * w
    p /= p.sum()
    ws = js.grid.omega_s[:, None]
    wi = js.grid.omega_s[None, :]
    ms, mi = (p * ws).sum(), (p * wi).sum()
    cov = (p * (ws - ms) * (wi - mi)).sum()
    vs = (p * (ws - ms) ** 2).sum()
    vi = (p * (wi - mi) ** 2).sum()
    return cov / np.sqrt(vs * vi)


# ---------------------------------------------------------------- kernels

def test_exact_kernel_peak():
    pump = PumpPulse(212.0)
    amp = biphoton_exact(CRYSTAL, pump, 0.0, 0.0)
    expected = CRYSTAL.sigma * CRYSTAL.length_mm * np.sqrt(212.0) / np.pi ** 0.25
    assert abs(amp) == pytest.approx(expected, rel=1e-12)
    assert amp.real == pytest.approx(0.0, abs=1e-15)  # leading factor is i


def test_exact_kernel_first_zero():
    pump = PumpPulse(212.0)
    w0 = 2.0 * np.pi / CRYSTAL.dl  # anti-diagonal first zero
    peak = abs(biphoton_exact(CRYSTAL, pump, 0.0, 0.0))
    assert abs(biphoton_exact(CRYSTAL, pump, w0, -w0)) < 1e-12 * peak


def test_exact_kernel_correlation_regimes():
    # pump walk-off set to zero: long pulses anti-correlate the pair,
    # ultrashort pulses correlate it
    crystal = no_walkoff_crystal(5.0)
    grid_cw = make_frequency_grid(crystal, PumpPulse(2119.0), 1024)
    corr_cw = weighted_correlation(
        joint_spectral_intensity("exact", crystal, PumpPulse(2119.0), grid_cw)
    )
    grid_fs = make_frequency_grid(crystal, PumpPulse(10.0), 1024)
    corr_fs = weighted_correlation(
        joint_spectral_intensity("exact", crystal, PumpPulse(10.0), grid_fs)
    )
    assert corr_cw < -0.8
    # sinc^2 side lobes dilute the coefficient relative to the Gaussian kernel
    assert corr_fs > 0.5


def test_gaussian_kernel_normalized_on_grid():
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, 1024)
    amp = biphoton_gaussian(CRYSTAL, pump, grid.omega_s[:, None], grid.omega_s[None, :])
    total = grid.weights_s @ amp ** 2 @ grid.weights_s
    assert abs(total - 1.0) < 1e-4


def test_gaussian_kernel_factorizes_at_unit_gamma():
    pump = separable_pump(CRYSTAL)
    ws = np.linspace(-0.02, 0.02, 9)[:, None]
    wi = np.linspace(-0.02, 0.02, 9)[None, :]
    lhs = biphoton_gaussian(CRYSTAL, pump, ws, wi) * biphoton_gaussian(CRYSTAL, pump, 0.0, 0.0)
    rhs = biphoton_gaussian(CRYSTAL, pump, ws, 0.0) * biphoton_gaussian(CRYSTAL, pump, 0.0, wi)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_kernel_ratio_at_unit_mismatch():
    # peak-normalized Gaussian/exact ratio where dk L/2 = 1: exp(-alpha^2)/sinc(1)
    pump = PumpPulse(212.0)
    w = 2.0 / CRYSTAL.dl  # ws = -wi = w puts dk L/2 at exactly 1
    exact = abs(biphoton_exact(CRYSTAL, pump, w, -w)) / abs(
        biphoton_exact(CRYSTAL, pump, 0.0, 0.0)
    )
    gauss = biphoton_gaussian(CRYSTAL, pump, w, -w) / biphoton_gaussian(
        CRYSTAL, pump, 0.0, 0.0
    )
    ratio = gauss / exact
    expected = np.exp(-SINC_GAUSS_ALPHA ** 2) / (np.sin(1.0) / 1.0)
    assert ratio == pytest.approx(expected, rel=1e-9)
    assert ratio == pytest.approx(0.9662, abs=2e-3)


# ---------------------------------------------------------------- joint spectrum

def test_jsi_unit_quadrature_sum():
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, 512)
    for kernel in ("exact", "gaussian"):
        js = joint_spectral_intensity(kernel, CRYSTAL, pump, grid)
        assert abs(js.quadrature_norm() - 1.0) < 1e-6


def test_jsi_swap_symmetry_gaussian():
    pump = PumpPulse(500.0)
    grid = make_frequency_grid(CRYSTAL, pump, 512)
    js = joint_spectral_intensity("gaussian", CRYSTAL, pump, grid)
    assert np.array_equal(js.intensity, js.intensity.T)


def _normalized_oracle(kernel, crystal, pump, grid):
    # the N^2 pair amplitude, without the exact kernel's factor i, at unit quadrature norm
    ax = grid.omega_s
    if kernel == "exact":
        amp = biphoton_exact(crystal, pump, ax[:, None], ax).imag
    else:
        amp = biphoton_gaussian(crystal, pump, ax[:, None], ax)
    w = grid.weights_s
    return amp / np.sqrt(w @ amp ** 2 @ w)


JSA_ORACLE_CASES = [
    pytest.param(kernel, gamma_pump(CRYSTAL, 2.0 ** (k / 4)), 384, id=f"{kernel}-gamma=2^({k}/4)")
    for kernel in ("exact", "gaussian") for k in range(-4, 5)
] + [
    pytest.param("gaussian", PumpPulse.from_ps(100.0), 4096, id="jsi_anticorrelated"),
    pytest.param("exact", PumpPulse(212.0), 257, id="exact-odd-zero-centre"),
]


@pytest.mark.parametrize("kernel,pump,n", JSA_ORACLE_CASES)
def test_jsi_matches_pointwise_oracle(kernel, pump, n):
    grid = make_frequency_grid(CRYSTAL, pump, n)
    js = joint_spectral_intensity(kernel, CRYSTAL, pump, grid)
    expected = _normalized_oracle(kernel, CRYSTAL, pump, grid)
    assert np.all(np.isfinite(js.amplitude))
    assert np.max(np.abs(js.amplitude - expected)) <= 1e-12 * np.max(np.abs(expected))
    if n % 2:
        # dk L / 2 is exactly 0 at the centre, where sinc takes its 0/0 guard
        c = n // 2
        assert grid.omega_s[c] == 0.0
        assert js.amplitude[c, c] == pytest.approx(np.max(js.amplitude), rel=1e-12)


def test_jsi_orientation_regimes():
    # anti-diagonal ridge for quasi-CW, isotropic at the separable point,
    # diagonal ridge for ultrashort pumping
    crystal = CRYSTAL
    cases = [
        (PumpPulse.from_ps(100.0), 4096, lambda c: c < -0.9),
        (PumpPulse(212.0), 1024, lambda c: abs(c) < 0.05),
        (PumpPulse(10.0), 1024, lambda c: c > 0.9),
    ]
    for pump, n, check in cases:
        grid = make_frequency_grid(crystal, pump, n)
        corr = weighted_correlation(joint_spectral_intensity("gaussian", crystal, pump, grid))
        assert check(corr), f"T0={pump.t0_fs}: correlation {corr}"


def test_jsi_rejects_unknown_kernel():
    grid = make_frequency_grid(CRYSTAL, PumpPulse(212.0), 512)
    with pytest.raises(ValueError):
        joint_spectral_intensity("sinc2", CRYSTAL, PumpPulse(212.0), grid)


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
@pytest.mark.parametrize("n,stride,block", [
    pytest.param(512, 1, None, id="one-block"),
    pytest.param(1001, 3, 50_000, id="ragged-blocks"),  # 48-row blocks, 41 rows left over
    pytest.param(960, 8, 50_000, id="whole-blocks"),  # 20 blocks of 48 rows
])
def test_streamed_rows_match_the_full_build(monkeypatch, kernel, n, stride, block):
    if block is not None:
        monkeypatch.setattr(biphoton, "BLOCK_ELEMENTS", block)
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, n)
    inten, marginal = joint_spectrum_rows(kernel, CRYSTAL, pump, grid, stride)
    js = joint_spectral_intensity(kernel, CRYSTAL, pump, grid)
    full = js.intensity[::stride, ::stride]
    assert inten.shape == full.shape
    assert np.max(np.abs(inten - full)) <= 1e-12 * np.max(full)
    expected = marginal_spectrum(js, CRYSTAL)
    assert np.array_equal(marginal.omega_s, grid.omega_s)
    assert np.max(np.abs(marginal.density - expected.density)) <= 1e-12 * np.max(expected.density)
    # the two marginals differ in their rounding only, so the widths agree to a few ulp
    assert marginal.fwhm_rad_fs == pytest.approx(expected.fwhm_rad_fs, rel=1e-14, abs=0.0)
    assert marginal.fwhm_nm == pytest.approx(expected.fwhm_nm, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("t0_fs,n,stride,block", [
    pytest.param(212.0, 512, 1, None, id="no-zeros-one-block"),
    pytest.param(212.0, 1001, 3, 50_000, id="no-zeros-ragged-blocks"),
    pytest.param(10.0, 1001, 3, 50_000, id="phase-matching-zeros"),  # 215 of 2001 differences
    pytest.param(2000.0, 257, 2, 5_000, id="pump-zeros"),  # the pump underflows on the sums
    pytest.param(10000.0, 512, 4, None, id="pump-zeros-one-block"),  # 77 of 1023 sums
])
def test_gaussian_rows_evaluate_only_the_slice(monkeypatch, t0_fs, n, stride, block):
    # the Gaussian route evaluates the kernel on the strided slice alone, and
    # its slice numerator is the streamed amplitude's, bit for bit
    if block is not None:
        monkeypatch.setattr(biphoton, "BLOCK_ELEMENTS", block)
    elements = []

    def counted(kernel, b, columns, work):
        elements.append(b.size * columns.shape[-1])
        return kernel_block(kernel, b, columns, work)

    kernel_block = biphoton._kernel_block
    monkeypatch.setattr(biphoton, "_kernel_block", counted)
    monkeypatch.setattr(coherence, "_kernel_block", counted)
    pump = PumpPulse(t0_fs)
    grid = make_frequency_grid(CRYSTAL, pump, n)
    inten, marginal = joint_spectrum_rows("gaussian", CRYSTAL, pump, grid, stride)
    assert sum(elements) <= (-(-n // stride)) ** 2
    assert max(elements) <= max(biphoton.BLOCK_ELEMENTS, -(-n // stride))

    numerator, _ = biphoton._gaussian_rows(CRYSTAL, pump, grid.omega_s, grid.weights_s, stride)
    work = (np.empty((n, n)), np.empty((n, n)))
    ((_, streamed),) = biphoton._amplitude_rows("gaussian", CRYSTAL, pump, grid.omega_s, work)
    assert np.array_equal(numerator, streamed[::stride, ::stride])

    # the marginal from the two 1-D factors, with only exact zeros left out
    js = joint_spectral_intensity("gaussian", CRYSTAL, pump, grid)
    full = js.intensity[::stride, ::stride]
    assert np.max(np.abs(inten - full)) <= 1e-12 * np.max(full)
    expected = marginal_spectrum(js, CRYSTAL)
    assert np.max(np.abs(marginal.density - expected.density)) <= 1e-12 * np.max(expected.density)
    assert marginal.fwhm_rad_fs == pytest.approx(expected.fwhm_rad_fs, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
@pytest.mark.parametrize("n", [1024, 1025, 2048])
def test_amplitude_is_centrosymmetric_on_grid_axes(kernel, n):
    # the pump and the phase matching are even, and make_frequency_grid's axis is
    # antisymmetric bit for bit, so amp[N-1-i, N-1-j] = amp[i, j] bit for bit
    for gamma in (0.5, 1.0, 2.0):
        pump = gamma_pump(CRYSTAL, gamma)
        axis = make_frequency_grid(CRYSTAL, pump, n).omega_s
        assert np.array_equal(axis, -axis[::-1])
        assert np.max(np.abs(axis - np.linspace(axis[0], axis[-1], n))) <= 2 * np.spacing(axis[-1])
        work = (np.empty((n, n)), np.empty((n, n)))
        ((_, amp),) = biphoton._amplitude_rows(kernel, CRYSTAL, pump, axis, work)
        assert np.array_equal(amp, amp[::-1, ::-1])


@pytest.mark.parametrize("n,stride,block", [
    pytest.param(512, 1, None, id="even-one-block"),
    pytest.param(513, 4, None, id="odd-one-block"),
    pytest.param(1001, 3, 50_000, id="odd-ragged-blocks"),  # 48-row blocks, 21 top rows left over
    pytest.param(960, 8, 50_000, id="even-whole-blocks"),  # 959 = 7 mod 8: no mirror is a slice row
    pytest.param(1024, 7, 30_000, id="even-ragged-blocks"),
])
def test_exact_rows_mirror_the_top_half(monkeypatch, n, stride, block):
    # only the top ceil(N / 2) rows are evaluated; the lower slice rows are top rows
    # reversed, bit for bit the evaluated ones, and the marginal is even
    if block is not None:
        monkeypatch.setattr(biphoton, "BLOCK_ELEMENTS", block)
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, n)
    w = grid.weights_s
    work = (np.empty((n, n)), np.empty((n, n)))
    ((_, full),) = biphoton._amplitude_rows("exact", CRYSTAL, pump, grid.omega_s, work)
    numerator, dens = biphoton._streamed_rows("exact", CRYSTAL, pump, grid.omega_s, w, stride)
    assert np.array_equal(numerator, full[::stride, ::stride])
    # the full build's BLAS row sums are themselves up to 1.1e-15 off exactly
    # rounded ones, so the two marginals agree to their rounding, not to 1e-15
    expected = (full * full) @ w
    assert np.max(np.abs(dens - expected)) <= 2e-15 * np.max(expected)
    assert np.array_equal(dens, dens[::-1])


@pytest.mark.parametrize("n", [1024, 1025])
def test_streams_evaluate_the_top_rows_of_a_symmetric_axis(monkeypatch, n):
    monkeypatch.setattr(biphoton, "BLOCK_ELEMENTS", 50_000)
    calls = []

    def counted(kernel, b, columns, work):
        calls.append((b.size, columns.shape[-1]))
        return kernel_block(kernel, b, columns, work)

    kernel_block = biphoton._kernel_block
    monkeypatch.setattr(biphoton, "_kernel_block", counted)
    # gamma = 2 misses mass at 64 columns, so both Schmidt streams take a second pass
    pump = gamma_pump(CRYSTAL, 2.0)
    grid = make_frequency_grid(CRYSTAL, pump, n)
    joint_spectrum_rows("exact", CRYSTAL, pump, grid, 3)
    assert sum(b for b, width in calls if width == n) == -(-n // 2)
    calls.clear()
    schmidt_rows("exact", CRYSTAL, pump, grid)
    amplitude_rows = [b for b, width in calls if width == n]  # the Ritz columns are fewer
    assert sum(amplitude_rows) == 2 * -(-n // 2)
    assert max(amplitude_rows) <= 50_000 // n


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _sweep_and_bundled_gaussian_setups():
    setups = [
        pytest.param(CRYSTAL, gamma_pump(CRYSTAL, 2.0 ** (k / 4.0)), id=f"gamma=2^({k}/4)")
        for k in range(-4, 5)
    ]
    for name in ("jsi_anticorrelated", "jsi_correlated", "jsi_separable"):
        s = cli_runner.parse_scenario((SCENARIO_DIR / f"{name}.ini").read_text())
        assert s.kernel == "gaussian"
        setups.append(pytest.param(s.crystal, s.pump, id=name))
    return setups


@pytest.mark.parametrize("crystal,pump", _sweep_and_bundled_gaussian_setups())
def test_gaussian_marginal_width_in_closed_form(crystal, pump):
    # the quadrature's interpolated FWHM is 2e-7 to 6.1e-6 off the closed form
    # on these twelve setups
    quadrature = signal_spectrum(crystal, pump, kernel="gaussian")
    closed = gaussian_marginal_fwhm(crystal, pump)
    assert closed == pytest.approx(quadrature.fwhm_rad_fs, rel=1e-5, abs=0.0)


# ---------------------------------------------------------------- marginals

def test_marginal_matches_direct_quadrature():
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, 2048)
    js = joint_spectral_intensity("exact", CRYSTAL, pump, grid)
    from_grid = marginal_spectrum(js, CRYSTAL)
    direct = signal_spectrum(CRYSTAL, pump, kernel="exact")
    assert from_grid.fwhm_nm == pytest.approx(direct.fwhm_nm, rel=2e-3)


@pytest.mark.parametrize("analysis,nan_error", [
    pytest.param(lambda js: marginal_spectrum(js, CRYSTAL), ValueError, id="marginal_spectrum"),
    pytest.param(schmidt_analysis, NumericalConsistencyError, id="schmidt_analysis"),
])
def test_marginal_requires_normalized(analysis, nan_error):
    # the quadrature norm is checked, not trusted: (1 + 1e-5)^2 is off by more
    # than NORMALIZATION_TOL, (1 + 1e-8)^2 is not
    pump = PumpPulse(212.0)
    js = joint_spectral_intensity("exact", CRYSTAL, pump, make_frequency_grid(CRYSTAL, pump, 512))
    with pytest.raises(ValueError, match="unit-norm JointSpectrum"):
        analysis(JointSpectrum(grid=js.grid, amplitude=js.amplitude * (1.0 + 1e-5)))
    analysis(JointSpectrum(grid=js.grid, amplitude=js.amplitude * (1.0 + 1e-8)))
    amplitude = js.amplitude.copy()
    amplitude[200, 300] = np.nan
    with pytest.raises(nan_error):
        analysis(JointSpectrum(grid=js.grid, amplitude=amplitude))


def test_fwhm_requires_interior_peak():
    x = np.linspace(0.0, 1.0, 64)
    with pytest.raises(AnalysisError):
        fwhm_interpolated(x, x)  # monotone, peak at edge


def _half_max_crossing_loop(x, y, i, step, stop_at_neighbor):
    # the sample-by-sample walk that biphoton._half_max_crossing replaces
    side = "left" if step < 0 else "right"
    half = y[i] / 2.0
    k = i
    while 0 < k < y.size - 1 and y[k] > half:
        k += step
        if stop_at_neighbor and y[k] > half and y[k] > y[k - step]:
            raise AnalysisError(f"{side} flank climbs into a neighboring peak")
    if y[k] > half:
        raise AnalysisError(f"{side} half-maximum crossing outside grid")
    a = min(k, k - step)
    return x[a] + (x[a + 1] - x[a]) * (half - y[a]) / (y[a + 1] - y[a])


def _crossing_or_error(crossing, x, y, i, step, stop_at_neighbor):
    try:
        with np.errstate(all="ignore"):  # a flat flank divides by zero in both
            return np.float64(crossing(x, y, i, step, stop_at_neighbor)).view(np.uint64)
    except (AnalysisError, IndexError) as exc:  # a one-sample grid has no interval
        return type(exc).__name__, str(exc)


# samples from a few levels, so that flanks hold plateaus, ties, NaNs and neighbouring peaks
LEVELS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, np.nan, -1.0])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(LEVELS | st.floats(-1.0, 5.0), min_size=1, max_size=40), st.data())
def test_half_max_crossing_matches_the_sample_walk(levels, data):
    y = np.array(levels)
    x = np.cumsum(data.draw(st.lists(st.floats(0.01, 2.0), min_size=y.size, max_size=y.size)))
    i = data.draw(st.integers(0, y.size - 1))
    for step in (-1, 1):
        for stop_at_neighbor in (False, True):
            args = (x, y, i, step, stop_at_neighbor)
            assert (_crossing_or_error(biphoton._half_max_crossing, *args)
                    == _crossing_or_error(_half_max_crossing_loop, *args))


def test_bandwidth_conversion():
    # 1 rad/fs about 810 nm
    assert bandwidth_nm(1.0, 810.0) == pytest.approx(
        810.0 ** 2 / (2 * np.pi * 299.792458), rel=1e-12
    )


def test_kernel_agreement_on_marginals():
    # Gaussian stand-in tracks the sinc marginal width to within 12 percent
    crystal = no_walkoff_crystal(5.0)
    pump = PumpPulse(100.0)
    f_exact = signal_spectrum(crystal, pump, kernel="exact").fwhm_nm
    f_gauss = signal_spectrum(crystal, pump, kernel="gaussian").fwhm_nm
    assert abs(f_gauss / f_exact - 1.0) <= 0.12


# ---------------------------------------------------------------- Schmidt

def test_schmidt_rank_one_input():
    grid = make_frequency_grid(CRYSTAL, PumpPulse(212.0), 512)
    f = np.exp(-((grid.omega_s / 0.01) ** 2))
    amp = np.outer(f, f).astype(complex)
    w = grid.weights_s
    amp /= np.sqrt(w @ np.abs(amp) ** 2 @ w)
    report = schmidt_analysis(JointSpectrum(grid=grid, amplitude=amp))
    assert report.schmidt_number_K == pytest.approx(1.0, abs=1e-9)
    assert report.entropy_bits == pytest.approx(0.0, abs=1e-9)


def test_schmidt_coefficients_sum_to_one():
    pump = PumpPulse(400.0)
    grid = make_frequency_grid(CRYSTAL, pump, 1024)
    report = schmidt_analysis(joint_spectral_intensity("gaussian", CRYSTAL, pump, grid))
    assert report.total == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(report.coefficients) <= 0)
    assert report.schmidt_number_K >= 1.0


def test_schmidt_number_tracks_analytic_form():
    # two-Gaussian mode count: K = (gamma + 1/gamma)/2
    for gamma in (0.5, 2.0):
        t0 = SINC_GAUSS_ALPHA * CRYSTAL.dl / (2.0 * np.sqrt(2.0) * gamma)
        pump = PumpPulse(t0)
        grid = make_frequency_grid(CRYSTAL, pump, 512)
        report = schmidt_analysis(joint_spectral_intensity("gaussian", CRYSTAL, pump, grid))
        expected = (gamma + 1.0 / gamma) / 2.0
        assert report.schmidt_number_K == pytest.approx(expected, rel=1e-2)


def test_schmidt_scale_invariance():
    # (T0, L) -> (3 T0, 3 L) leaves gamma and hence K unchanged
    r1 = schmidt_analysis(
        joint_spectral_intensity(
            "gaussian", CRYSTAL, PumpPulse(400.0),
            make_frequency_grid(CRYSTAL, PumpPulse(400.0), 512),
        )
    )
    crystal3 = mgo_linbo3_crystal(15.0)
    r3 = schmidt_analysis(
        joint_spectral_intensity(
            "gaussian", crystal3, PumpPulse(1200.0),
            make_frequency_grid(crystal3, PumpPulse(1200.0), 512),
        )
    )
    assert r3.schmidt_number_K == pytest.approx(r1.schmidt_number_K, rel=1e-9)


def test_schmidt_near_unity_iff_numerically_rank_one():
    pump = separable_pump(CRYSTAL)
    grid = make_frequency_grid(CRYSTAL, pump, 512)
    report = schmidt_analysis(joint_spectral_intensity("gaussian", CRYSTAL, pump, grid))
    assert abs(report.schmidt_number_K - 1.0) < 1e-3
    lam = report.coefficients
    assert lam[1] / lam[0] < 1e-3 if lam.size > 1 else True
    assert report.entropy_bits < 0.02
    # converse: an entangled configuration has weighty higher modes
    t0 = SINC_GAUSS_ALPHA * CRYSTAL.dl / (2.0 * np.sqrt(2.0) * 2.0)  # gamma = 2
    pump2 = PumpPulse(t0)
    grid2 = make_frequency_grid(CRYSTAL, pump2, 512)
    rep2 = schmidt_analysis(joint_spectral_intensity("gaussian", CRYSTAL, pump2, grid2))
    assert abs(rep2.schmidt_number_K - 1.0) > 1e-3
    assert rep2.coefficients[1] / rep2.coefficients[0] > 1e-3


@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("gamma", [0.5, 2.0 ** -0.25, 2.0, 10.0])
def test_schmidt_spectrum_matches_double_gaussian(gamma, n):
    # Law, Walmsley & Eberly (2000): lambda_n = (1 - mu^2) mu^(2n), mu = (gamma-1)/(gamma+1)
    pump = PumpPulse(SINC_GAUSS_ALPHA * CRYSTAL.dl / (2.0 * np.sqrt(2.0) * gamma))
    grid = make_frequency_grid(CRYSTAL, pump, n)
    lam = schmidt_rows("gaussian", CRYSTAL, pump, grid).coefficients
    mu = (gamma - 1.0) / (gamma + 1.0)
    expected = (1.0 - mu ** 2) * mu ** (2 * np.arange(400))
    expected = expected[expected >= 1e-12]
    lam = lam[lam >= 1e-12]
    assert lam.size == expected.size
    assert np.max(np.abs(lam - expected)) <= 1e-12


@pytest.mark.parametrize("pump", [
    *(pytest.param(gamma_pump(CRYSTAL, 2.0 ** (k / 4)), id=f"gamma=2^({k}/4)")
      for k in range(-4, 5)),
    pytest.param(PumpPulse(10.0), id="jsi_correlated"),
])
def test_gaussian_schmidt_closed_form_matches_the_grid(pump):
    gamma = gamma_param(CRYSTAL, pump)
    grid = make_frequency_grid(CRYSTAL, pump, 2048)
    numeric = schmidt_rows("gaussian", CRYSTAL, pump, grid)
    report = schmidt_gaussian(gamma)
    lam = numeric.coefficients[numeric.coefficients > 1e-12]
    assert report.coefficients.size == lam.size
    assert np.all(report.coefficients > 1e-12)
    assert np.max(np.abs(report.coefficients - lam)) <= 1e-13
    assert report.schmidt_number_K == pytest.approx(numeric.schmidt_number_K, rel=1e-12)


def test_gaussian_schmidt_closed_form_at_and_off_the_separable_point():
    one = schmidt_gaussian(1.0)
    assert one.coefficients.tolist() == [1.0]
    assert (one.schmidt_number_K, one.entropy_bits) == (1.0, 0.0)
    # gamma and 1 / gamma give the same mu, hence the same spectrum
    lam, swapped = schmidt_gaussian(4.0), schmidt_gaussian(0.25)
    assert lam.coefficients.tolist() == swapped.coefficients.tolist()
    mu2 = 0.36  # mu = 3 / 5
    series = (1.0 - mu2) * mu2 ** np.arange(200)
    assert lam.schmidt_number_K == pytest.approx(1.0 / np.sum(series ** 2), rel=1e-14)
    assert lam.entropy_bits == pytest.approx(-np.sum(series * np.log2(series)), rel=1e-14)
    # 0.64 * 0.36^26 = 1.9e-12 is the last coefficient above 1e-12
    np.testing.assert_allclose(lam.coefficients, series[:27], rtol=1e-14, atol=0.0)
    assert schmidt_gaussian(4.0, max_modes=27).coefficients.size == 27
    with pytest.raises(ValueError, match="27 Schmidt modes above 1e-12, more than 26"):
        schmidt_gaussian(4.0, max_modes=26)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            schmidt_gaussian(bad)


@pytest.mark.parametrize("kernel", ["gaussian", "exact"])
def test_schmidt_coefficients_stop_at_rounding_floor(kernel):
    # eigenvalues below N eps lambda_1 are rounding noise of the Gram matrix
    pump = PumpPulse(SINC_GAUSS_ALPHA * CRYSTAL.dl / (2.0 * np.sqrt(2.0) * 2.0))
    grid = make_frequency_grid(CRYSTAL, pump, 2048)
    lam = schmidt_rows(kernel, CRYSTAL, pump, grid).coefficients
    assert lam.size <= 2 * np.count_nonzero(lam > 1e-12)


@pytest.mark.parametrize("kernel,chirp", [
    pytest.param("gaussian", False, id="gaussian-real"),
    pytest.param("exact", False, id="exact-real"),
    pytest.param("exact", True, id="exact-complex"),
])
def test_schmidt_matches_svd_oracle(kernel, chirp):
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, 512)
    js = joint_spectral_intensity(kernel, CRYSTAL, pump, grid)
    assert js.amplitude.dtype == np.float64
    if chirp:
        # exp(i beta ws wi) does not factorize; beta = 1e5 fs^2 is about 9 rad
        # at one rms width on both axes
        phase = np.exp(1e5j * grid.omega_s[:, None] * grid.omega_s[None, :])
        js = JointSpectrum(grid=grid, amplitude=js.amplitude * phase)
    m = js.amplitude * np.sqrt(np.outer(grid.weights_s, grid.weights_s))
    if chirp:
        gram = m @ m.conj().T
        assert np.max(np.abs(gram.imag)) > 0.1 * np.max(np.abs(gram))
    oracle = np.linalg.svd(m, compute_uv=False) ** 2
    report = schmidt_analysis(js)
    lam = report.coefficients
    assert np.max(np.abs(lam - oracle[: lam.size])) <= 1e-12
    assert np.max(oracle[lam.size:], initial=0.0) <= 1e-12
    k_oracle = 1.0 / np.sum(oracle[oracle > 1e-18] ** 2)
    assert report.schmidt_number_K == pytest.approx(k_oracle, rel=1e-12, abs=0.0)


def gamma_spectrum(kernel, gamma, n):
    pump = gamma_pump(CRYSTAL, gamma)
    return joint_spectral_intensity(kernel, CRYSTAL, pump, make_frequency_grid(CRYSTAL, pump, n))


@functools.lru_cache(maxsize=None)
def gram_oracle(kernel, gamma, n):
    # the dense reference, the N x N Gram matrix's eigenvalues above its N eps lambda_1
    # rounding floor, computed once for every test that compares with it
    return schmidt_analysis(gamma_spectrum(kernel, gamma, n))


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """Orders of the matrices the Schmidt steps hand to eigvalsh."""
    sizes = []
    original = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(biphoton.np.linalg, "eigvalsh", spy)
    return sizes


@pytest.fixture
def streamed_amplitude(monkeypatch):
    """schmidt_rows on ``grid`` with a given N x N centrosymmetric P as its streamed amplitude."""

    def run(grid, p):
        # the Gaussian kernel block at zero arguments is exactly 1, so the amplitude is P
        n = grid.n_points
        factors = (np.zeros(n), coherence._kernel_columns("gaussian", np.zeros(n)), p)
        monkeypatch.setattr(biphoton, "_amplitude_factors", lambda *args: factors)
        return schmidt_rows("gaussian", CRYSTAL, PumpPulse(212.0), grid)

    return run


def test_schmidt_subspace_rank_one_input(streamed_amplitude, eigvalsh_sizes, row_passes):
    grid = make_frequency_grid(CRYSTAL, PumpPulse(212.0), 2048)
    f = np.exp(-((grid.omega_s / 0.01) ** 2))
    report = streamed_amplitude(grid, np.outer(f, f))
    # f is even, so the odd sector is 0 and closes without eigvalsh
    assert eigvalsh_sizes == [32]
    assert len(row_passes) == 1
    assert report.coefficients.size == 1
    assert report.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert report.schmidt_number_K == pytest.approx(1.0, abs=1e-12)
    assert report.entropy_bits == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kernel,gamma,n,blocks", [
    # each sector (even, then odd) starts at 32 of the 64 columns and hands its
    # own k x k block to eigvalsh
    pytest.param("gaussian", 0.5, 2048, [32, 32], id="gaussian-0.5"),
    pytest.param("exact", 1.0, 2048, [32, 32], id="exact-1"),
    # the schmidt_sweep item at gamma = 2 with the exact kernel
    pytest.param("exact", 2.0, 2048, [32, 32, 64, 64], id="exact-2-doubles"),
    pytest.param("exact", 2.0, 1001, [32, 32, 64, 64], id="exact-2-ragged"),  # 2 x 249 + 3 top rows
    # at 128 columns 2 k reaches each 256-row sector, which takes Q = I
    pytest.param("exact", 10.0, 512, [32, 32, 64, 64, 256, 256], id="exact-10-takes-q-eq-i"),
    # odd N: the 501-row even sector holds the middle row and column, and takes Q = I
    pytest.param("exact", 10.0, 1001, [32, 32, 64, 64, 128, 128, 501, 500], id="exact-10-odd-1001"),
    pytest.param("exact", 10.0, 2049, [32, 32, 64, 64, 128, 128, 256, 256], id="exact-10-odd-2049"),
])
def test_streamed_schmidt_matches_the_full_build(eigvalsh_sizes, kernel, gamma, n, blocks):
    pump = gamma_pump(CRYSTAL, gamma)
    grid = make_frequency_grid(CRYSTAL, pump, n)
    report = schmidt_rows(kernel, CRYSTAL, pump, grid)
    assert eigvalsh_sizes == blocks
    oracle = gram_oracle(kernel, gamma, n)
    lam = report.coefficients
    assert lam.size == oracle.coefficients.size
    assert np.max(np.abs(lam - oracle.coefficients)) <= 1e-13
    assert report.schmidt_number_K == pytest.approx(oracle.schmidt_number_K, rel=1e-12, abs=0.0)


def normalized_gram_spectrum(grid, p):
    # squared singular values of m = P sqrt(w) sqrt(w), descending, divided by ||m||_F^2:
    # the eigenvalues of the Gram matrix m m^T, as the dense reference takes them
    sw = np.sqrt(grid.weights_s)
    m = p * sw[:, None] * sw
    return np.linalg.eigvalsh(m @ m.T)[::-1] / np.sum(m * m)


@pytest.mark.parametrize("n", [1024, 1025])
def test_sector_of_zero_mass_closes_at_once(streamed_amplitude, eigvalsh_sizes, row_passes, n):
    # an even input: P[i, N-1-j] = P[i, j] bit for bit, so the odd sector is 0
    pump = gamma_pump(CRYSTAL, 2.0)
    js = joint_spectral_intensity("exact", CRYSTAL, pump, make_frequency_grid(CRYSTAL, pump, n))
    p = (js.amplitude + js.amplitude[:, ::-1]) / 2.0
    assert np.array_equal(p, p[:, ::-1]) and np.array_equal(p, p[::-1, ::-1])
    row_passes.clear()  # joint_spectral_intensity's own pass
    report = streamed_amplitude(js.grid, p)
    # the odd sector closes in the first pass and never reaches eigvalsh, while
    # the even one doubles to 64 columns
    assert eigvalsh_sizes == [32, 64]
    assert len(row_passes) == 2
    assert report.ritz_block == 128  # it adds no block
    oracle = normalized_gram_spectrum(js.grid, p)
    lam = report.coefficients
    assert np.max(np.abs(lam[:40] - oracle[:40])) <= 1e-13 * oracle[0]


def test_sectors_double_apart(streamed_amplitude, eigvalsh_sizes, row_passes):
    # a rank-one even sector closes at 32 columns while the odd one doubles alone
    pump = gamma_pump(CRYSTAL, 10.0)
    js = joint_spectral_intensity("exact", CRYSTAL, pump, make_frequency_grid(CRYSTAL, pump, 2048))
    axis = js.grid.omega_s
    f = np.exp(-((3.0 * axis / axis[-1]) ** 2))
    # the odd part of the gamma = 10 amplitude, plus an even rank-one part
    p = (js.amplitude - js.amplitude[:, ::-1]) / 2.0 + np.outer(f, f)
    assert np.array_equal(p, p[::-1, ::-1])
    row_passes.clear()  # joint_spectral_intensity's own pass
    report = streamed_amplitude(js.grid, p)
    assert eigvalsh_sizes == [32, 32, 64, 128, 256]
    assert len(row_passes) == 4
    assert report.ritz_block == 2 * 256
    oracle = normalized_gram_spectrum(js.grid, p)
    lam = report.coefficients
    kept = lam[lam > 1e-12 * lam[0]]
    assert np.max(np.abs(kept - oracle[: kept.size])) <= 1e-13


@pytest.fixture
def row_passes(monkeypatch):
    """Grid sizes of the passes the Schmidt streams make over the amplitude's rows."""
    sizes = []
    original = biphoton._amplitude_rows

    def spy(kernel, crystal, pump, axis, work, stop=None):
        sizes.append(axis.size)
        return original(kernel, crystal, pump, axis, work, stop)

    monkeypatch.setattr(biphoton, "_amplitude_rows", spy)
    return sizes


@pytest.mark.parametrize("points,passes", [
    # the 512-point coarse grid's sectors double to 64 columns, and the run grid starts there
    pytest.param(1024, [512, 512, 1024], id="coarse-block"),
    # at 64 columns the 256-point coarse grid's 128-row sectors take Q = I, so the run grid doubles
    pytest.param(512, [256, 256, 512, 512], id="coarse-gram-falls-back"),
    # no grid below MIN_GRID_POINTS = 256 to coarsen to
    pytest.param(256, [256, 256], id="no-coarse-falls-back"),
])
def test_schmidt_task_starts_the_run_grid_at_the_coarse_block(row_passes, points, passes):
    # the exact schmidt_sweep item at gamma = 2^(1/4), whose 32-column sector blocks miss mass
    pump = gamma_pump(CRYSTAL, 2.0 ** 0.25)
    scenario = cli_runner.parse_scenario(
        "[crystal]\npreset = mgo_linbo3\nlength_mm = 5.0\n\n"
        f"[pump]\nt0_fs = {float(pump.t0_fs)!r}\n\n"
        f"[grid]\npoints = {points}\nkernel = exact\n\n"
        "[tasks]\nrun = schmidt\n"
    )
    files, _, _ = cli_runner._task_schmidt(scenario, points)
    assert row_passes == passes
    # the same lambda, bit for bit, as doubling from SCHMIDT_BLOCK on the run grid
    doubled = schmidt_rows("exact", CRYSTAL, pump, make_frequency_grid(CRYSTAL, pump, points))
    assert row_passes[len(passes):] == [points] * 2
    payload = json.loads(files["schmidt.json"])
    kept = doubled.coefficients[doubled.coefficients > biphoton.SCHMIDT_COEFF_FLOOR]
    assert np.array(payload["coefficients"]).tobytes() == kept.tobytes()
    assert payload["schmidt_number_K"] == doubled.schmidt_number_K
    assert payload["entropy_bits"] == doubled.entropy_bits


@pytest.mark.parametrize("bad,reason", [
    pytest.param(np.nan, "non-finite amplitude", id="nan"),
    pytest.param(0.0, "zero amplitude", id="zero"),
])
def test_streamed_schmidt_fails_on_a_bad_amplitude(monkeypatch, bad, reason):
    pump = gamma_pump(CRYSTAL, 1.0)
    grid = make_frequency_grid(CRYSTAL, pump, 1024)
    original = biphoton.pump_amplitude

    def bad_pump(p, omega):
        f = original(p, omega)
        if bad == 0.0:
            return np.zeros_like(f)
        f[f.size // 2] = bad  # the pump peak, which every row and column block reads
        return f

    monkeypatch.setattr(biphoton, "pump_amplitude", bad_pump)
    with pytest.raises(NumericalConsistencyError, match=f"1024x1024 grid.*{reason}"):
        schmidt_rows("exact", CRYSTAL, pump, grid)


@pytest.mark.parametrize("bad,reason", [
    pytest.param(np.nan, "non-finite amplitude", id="odd-sectors-nan"),
    pytest.param(0.0, "zero amplitude", id="odd-sectors-zero"),
])
def test_sector_schmidt_fails_on_a_bad_amplitude(monkeypatch, bad, reason):
    pump = gamma_pump(CRYSTAL, 1.0)
    grid = make_frequency_grid(CRYSTAL, pump, 1025)
    original = biphoton.pump_amplitude

    def bad_pump(p, omega):
        f = original(p, omega)
        if bad == 0.0:
            return np.zeros_like(f)
        f[f.size // 2] = bad  # the anti-diagonal, which the top rows and every Ritz block read
        return f

    monkeypatch.setattr(biphoton, "pump_amplitude", bad_pump)
    with pytest.raises(NumericalConsistencyError, match=f"1025x1025 grid.*{reason}"):
        schmidt_rows("exact", CRYSTAL, pump, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schmidt_non_finite_amplitude_fails(bad):
    js = gamma_spectrum("gaussian", 1.0, 1024)
    amplitude = js.amplitude.copy()
    amplitude[300, 700] = bad
    with pytest.raises(NumericalConsistencyError, match="1024x1024 grid.*non-finite amplitude"):
        schmidt_analysis(JointSpectrum(grid=js.grid, amplitude=amplitude))


@pytest.mark.parametrize("name", ["qr", "eigvalsh"])
def test_schmidt_factorization_failure_keeps_grid_message(monkeypatch, name):
    # the stream factors both; the dense reference has only eigvalsh to fail
    js = gamma_spectrum("gaussian", 1.0, 1024)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(biphoton.np.linalg, name, fail)
    with pytest.raises(NumericalConsistencyError, match="1024x1024 grid.*did not converge"):
        schmidt_rows("gaussian", CRYSTAL, gamma_pump(CRYSTAL, 1.0), js.grid)
    if name == "eigvalsh":
        with pytest.raises(NumericalConsistencyError, match="1024x1024 grid.*did not converge"):
            schmidt_analysis(js)


def test_schmidt_is_reproducible():
    pump = gamma_pump(CRYSTAL, 2.0)
    grid = make_frequency_grid(CRYSTAL, pump, 2048)
    first, second = (schmidt_rows("exact", CRYSTAL, pump, grid) for _ in range(2))
    assert first.coefficients.tobytes() == second.coefficients.tobytes()
    assert first.schmidt_number_K == second.schmidt_number_K
    assert first.entropy_bits == second.entropy_bits
