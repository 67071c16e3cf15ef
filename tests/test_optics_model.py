import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from nlintsim.optics_model import (
    BilayerSample,
    C_MM_FS,
    CrystalParams,
    FrequencyGrid,
    GridResolutionError,
    InterferometerGeometry,
    PumpPulse,
    TabulatedSample,
    UniformSample,
    gamma_param,
    make_frequency_grid,
    mgo_linbo3_crystal,
    nonlinear_sigma,
    pump_amplitude,
    wavelength_to_omega,
)

CRYSTAL = mgo_linbo3_crystal(5.0)


# ---------------------------------------------------------------- sigma

SIGMA_ARGS = dict(
    chi2_pm_V=50.0,
    n0_photons_per_pulse=1e9,
    area_um2=100.0,
    n_p=2.2,
    n_s=2.2,
    n_i=2.1,
    omega_p0=wavelength_to_omega(532.0),
    omega_s0=wavelength_to_omega(810.0),
    omega_i0=wavelength_to_omega(1550.0),
)


def test_sigma_zero_pump_photons():
    args = dict(SIGMA_ARGS, n0_photons_per_pulse=0.0)
    assert nonlinear_sigma(**args) == 0.0


def test_sigma_linear_in_chi2():
    base = nonlinear_sigma(**SIGMA_ARGS)
    doubled = nonlinear_sigma(**dict(SIGMA_ARGS, chi2_pm_V=2 * SIGMA_ARGS["chi2_pm_V"]))
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_sigma_sqrt_in_photon_number():
    base = nonlinear_sigma(**SIGMA_ARGS)
    quad = nonlinear_sigma(
        **dict(SIGMA_ARGS, n0_photons_per_pulse=4 * SIGMA_ARGS["n0_photons_per_pulse"])
    )
    assert quad == pytest.approx(2 * base, rel=1e-12)


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        nonlinear_sigma(**dict(SIGMA_ARGS, area_um2=0.0))
    with pytest.raises(ValueError):
        nonlinear_sigma(**dict(SIGMA_ARGS, n_p=-1.0))


def test_sigma_rejects_a_negative_photon_number():
    with pytest.raises(ValueError, match="photon number must be nonnegative"):
        nonlinear_sigma(**dict(SIGMA_ARGS, n0_photons_per_pulse=-1.0))


@pytest.mark.parametrize("name,value,message", [
    pytest.param("chi2_pm_V", np.nan, "positive and finite: chi2_pm_V = nan", id="nan-chi2"),
    pytest.param("area_um2", np.nan, "positive and finite: area_um2 = nan", id="nan-area"),
    pytest.param("n0_photons_per_pulse", np.nan, "nonnegative and finite, got nan",
                 id="nan-photon-number"),
    pytest.param("n0_photons_per_pulse", np.inf, "nonnegative and finite, got inf",
                 id="inf-photon-number"),
])
def test_sigma_rejects_a_non_finite_input_by_name(name, value, message):
    # NaN compares false both ways, so it fails "positive" rather than passing "not negative"
    with pytest.raises(ValueError, match=re.escape(message)):
        nonlinear_sigma(**dict(SIGMA_ARGS, **{name: value}))


# ---------------------------------------------------------------- pump

def test_pump_peak_magnitude():
    pump = PumpPulse(212.0)
    assert pump_amplitude(pump, 0.0) == pytest.approx(
        np.sqrt(212.0) / np.pi ** 0.25, rel=1e-12
    )


def test_pump_one_sigma_point():
    pump = PumpPulse(212.0)
    expected = np.exp(-0.5) * np.sqrt(212.0) / np.pi ** 0.25
    assert pump_amplitude(pump, 1.0 / 212.0) == pytest.approx(expected, rel=1e-12)


def test_pump_real_positive_even():
    pump = PumpPulse(350.0)
    w = np.linspace(0.0, 0.05, 51)
    assert np.all(pump_amplitude(pump, w) > 0)
    assert np.array_equal(pump_amplitude(pump, w), pump_amplitude(pump, -w))


def test_pump_grid_normalization():
    pump = PumpPulse(212.0)
    grid = make_frequency_grid(CRYSTAL, pump, 1024)
    total = np.sum(np.abs(pump_amplitude(pump, grid.omega_s)) ** 2 * grid.weights_s)
    assert abs(total - 1.0) < 1e-6


def test_pump_grid_normalization_quasi_cw():
    crystal = mgo_linbo3_crystal(10.0)
    pump = PumpPulse.from_ps(100.0)
    grid = make_frequency_grid(crystal, pump, 4096)
    total = np.sum(np.abs(pump_amplitude(pump, grid.omega_s)) ** 2 * grid.weights_s)
    assert abs(total - 1.0) < 1e-6


def test_pump_requires_positive_duration():
    with pytest.raises(ValueError):
        PumpPulse(0.0)


# ---------------------------------------------------------------- samples

GLASS_SLAB = BilayerSample.from_fresnel(
    n_before=1.0, n_slab=1.5, n_after=1.3, d0_um=20.0, omega_carrier=CRYSTAL.omega_i0
)


def test_bilayer_single_interface_degenerate():
    s = BilayerSample(r0=-0.2, r1=0.0, d0_um=35.0, n0=1.5, omega_carrier=1.2)
    w = np.linspace(-0.1, 0.1, 7)
    assert np.allclose(s.reflectivity(w), -0.2)


def test_glass_slab_delay():
    # 20 um slab at n = 1.5: round trip 0.2 ps, optical path 60 um
    assert GLASS_SLAB.tau_fs == pytest.approx(200.1384571, rel=1e-9)
    assert GLASS_SLAB.tau_fs * C_MM_FS * 1e3 == pytest.approx(60.0, rel=1e-12)


def test_glass_slab_fresnel_coefficients():
    # independent normal-incidence Fresnel products for the air/glass/water stack
    r_front = (1.0 - 1.5) / (1.0 + 1.5)
    t_in = 2.0 * 1.0 / (1.0 + 1.5)
    t_back = 2.0 * 1.5 / (1.5 + 1.0)
    r_buried = (1.5 - 1.3) / (1.5 + 1.3)
    assert GLASS_SLAB.r0 == pytest.approx(r_front, rel=1e-12)
    assert GLASS_SLAB.r0 == pytest.approx(-0.2, rel=1e-12)
    assert GLASS_SLAB.r1 == pytest.approx(t_in * r_buried * t_back, rel=1e-12)


def test_sample_passivity_on_grid():
    w = np.linspace(-0.5, 0.5, 2001)
    assert np.all(np.abs(GLASS_SLAB.reflectivity(w)) <= 1.0 + 1e-12)


def test_sample_passivity_enforced():
    with pytest.raises(ValueError):
        UniformSample(r=1.2)
    with pytest.raises(ValueError):
        BilayerSample(r0=0.8, r1=0.3, d0_um=10.0, n0=1.5, omega_carrier=1.2)


def test_tabulated_interpolation_and_range():
    s = TabulatedSample(omega=(-1.0, 0.0, 1.0), r=(0.2, 0.5 + 0.1j, 0.4))
    assert s.reflectivity(0.5) == pytest.approx(0.45 + 0.05j)
    with pytest.raises(ValueError):
        s.reflectivity(1.5)


def test_tabulated_sample_from_arrays():
    w = np.linspace(-1.0, 1.0, 101)
    r = 0.5 * np.exp(1j * w ** 2)
    s = TabulatedSample(omega=w, r=r)
    from_tuples = TabulatedSample(omega=tuple(float(x) for x in w), r=tuple(complex(x) for x in r))
    assert s == from_tuples and hash(s) == hash(from_tuples)
    assert np.array_equal(s.omega, from_tuples.omega) and s.r.dtype == complex
    assert "_omega" not in repr(s)
    q = np.linspace(-1.0, 1.0, 997)
    split = np.interp(q, w, r.real) + 1j * np.interp(q, w, r.imag)
    np.testing.assert_allclose(s.reflectivity(q), split, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError, match="outside tabulated range"):
        s.reflectivity(np.array([0.0, np.nextafter(1.0, 2.0)]))


def test_tabulated_sample_equals_only_a_tabulated_sample():
    s = TabulatedSample(omega=(-1.0, 0.0, 1.0), r=(0.2, 0.5, 0.4))
    assert (s == 3) is False and (s != 3) is True


def test_tabulated_sample_holds_its_table_once():
    w = np.linspace(-1.0, 1.0, 100_001)
    s = TabulatedSample(omega=w, r=0.5 * np.exp(1j * w))
    assert not s.omega.flags.writeable and not s.r.flags.writeable
    w[0] = -2.0  # the sample holds its own copy
    assert s.omega[0] == -1.0
    q = np.linspace(-0.5, 0.5, 800)
    tracemalloc.start()
    try:
        s.reflectivity(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # np.interp copies a read-only table on every call: 2.4 MB here
    assert peak < (s.omega.nbytes + s.r.nbytes) // 20


# ---------------------------------------------------------------- gamma

def test_gamma_separable_point():
    g = gamma_param(CRYSTAL, PumpPulse(212.0))
    assert abs(g - 1.0) <= 0.01
    assert g == pytest.approx(0.9997264, rel=1e-6)


def test_gamma_quasi_cw():
    g = gamma_param(CRYSTAL, PumpPulse.from_ps(100.0))
    assert g == pytest.approx(2.11943e-3, rel=1e-4)


def test_gamma_scaling():
    g1 = gamma_param(CRYSTAL, PumpPulse(300.0))
    g2 = gamma_param(CRYSTAL, PumpPulse(600.0))
    assert g2 == pytest.approx(g1 / 2, rel=1e-12)
    # simultaneous rescale of L and T0 leaves gamma unchanged
    g3 = gamma_param(mgo_linbo3_crystal(10.0), PumpPulse(600.0))
    assert g3 == pytest.approx(g1, rel=1e-12)


# ---------------------------------------------------------------- crystal

def test_energy_conservation_holds_for_preset():
    lhs = 1.0 / CRYSTAL.lambda_p_nm
    rhs = 1.0 / CRYSTAL.lambda_s_nm + 1.0 / CRYSTAL.lambda_i_nm
    assert abs(lhs - rhs) < 1e-3 * lhs
    assert CRYSTAL.omega_p0 == pytest.approx(CRYSTAL.omega_s0 + CRYSTAL.omega_i0, rel=1e-4)


def test_energy_conservation_enforced():
    with pytest.raises(ValueError):
        CrystalParams(
            length_mm=5.0, D=-263.5, D_plus=780.0, N_i=7300.0,
            lambda_p_nm=532.0, lambda_s_nm=800.0, lambda_i_nm=1550.0,
        )


def test_crystal_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        mgo_linbo3_crystal(0.0)
    with pytest.raises(ValueError):
        CrystalParams(
            length_mm=5.0, D=0.0, D_plus=780.0, N_i=7300.0,
            lambda_p_nm=532.0, lambda_s_nm=810.0, lambda_i_nm=1550.0,
        )


def test_geometry_rejects_nonfinite():
    with pytest.raises(ValueError):
        InterferometerGeometry(z1_mm=np.inf)


def _crystal(**changes):
    return lambda: dataclasses.replace(CRYSTAL, **changes)


def _bilayer(**changes):
    fields = dict(r0=-0.2, r1=0.1, d0_um=20.0, n0=1.5, omega_carrier=1.2)
    return lambda: BilayerSample(**{**fields, **changes})


NONFINITE_PARAMETERS = [
    pytest.param(_crystal(length_mm=np.inf), id="crystal-length-inf"),
    pytest.param(_crystal(D=np.nan), id="crystal-D-nan"),
    pytest.param(_crystal(D_plus=np.nan), id="crystal-D-plus-nan"),
    pytest.param(_crystal(lambda_p_nm=np.nan), id="crystal-lambda-p-nan"),
    pytest.param(_crystal(N_i=np.inf), id="crystal-N-i-inf"),
    pytest.param(_crystal(sigma=np.nan), id="crystal-sigma-nan"),
    pytest.param(_crystal(sigma=-1.0), id="crystal-sigma-negative"),
    pytest.param(_crystal(lambda_s_nm=0.0), id="crystal-lambda-s-zero"),
    pytest.param(lambda: PumpPulse(np.inf), id="pump-inf"),
    pytest.param(lambda: UniformSample(np.nan), id="uniform-nan"),
    pytest.param(_bilayer(r0=np.nan), id="bilayer-r0-nan"),
    pytest.param(_bilayer(d0_um=np.nan), id="bilayer-d0-nan"),
    pytest.param(_bilayer(d0_um=-1.0), id="bilayer-d0-negative"),
    pytest.param(
        lambda: TabulatedSample(omega=(-1.0, np.nan, 1.0), r=(0.2, 0.3, 0.4)),
        id="tabulated-omega-nan",
    ),
    pytest.param(
        lambda: TabulatedSample(omega=(-1.0, 0.0, 1.0), r=(0.2, np.nan, 0.4)),
        id="tabulated-r-nan",
    ),
]


@pytest.mark.parametrize("build", NONFINITE_PARAMETERS)
def test_model_rejects_nonfinite_parameters(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------- grid

def test_grid_span_quasi_cw():
    crystal = CRYSTAL
    pump = PumpPulse.from_ps(100.0)
    grid = make_frequency_grid(crystal, pump, 4096)
    assert grid.omega_s[-1] >= 24.0 / crystal.dl
    assert grid.omega_s[0] == -grid.omega_s[-1]
    assert np.allclose(np.diff(grid.omega_s), grid.step_s)
    # trapezoid weights sum to the span
    assert np.sum(grid.weights_s) == pytest.approx(
        grid.omega_s[-1] - grid.omega_s[0], rel=1e-12
    )


def test_grid_span_short_pulse():
    grid = make_frequency_grid(mgo_linbo3_crystal(10.0), PumpPulse(100.0), 1024)
    assert grid.omega_s[-1] >= 6.0 / 100.0


def test_grid_too_few_points():
    with pytest.raises(GridResolutionError):
        make_frequency_grid(CRYSTAL, PumpPulse.from_ps(100.0), 16)


def test_grid_unresolvable_pump():
    # 2048 points cannot put 8 steps across a 100 ps pump on the default span
    with pytest.raises(GridResolutionError):
        make_frequency_grid(CRYSTAL, PumpPulse.from_ps(100.0), 2048)


def test_grid_resolution_error_reports_requirement():
    with pytest.raises(GridResolutionError, match="points"):
        make_frequency_grid(mgo_linbo3_crystal(0.5), PumpPulse.from_ps(100.0), 2048)


def shifted_grid_axis():
    # a built grid's axis moved by 0.3 of its step
    grid = make_frequency_grid(CRYSTAL, PumpPulse(212.0), 1024)
    return grid.omega_s + 0.3 * grid.step_s


@pytest.mark.parametrize("axis", [
    pytest.param([0.0, 1.0, 5.0], id="uneven"),
    pytest.param([1.0, 0.0, -1.0], id="reversed"),
    pytest.param([0.0, 0.0, 0.0], id="flat"),
    pytest.param([0.0, np.nan, 2.0], id="nan"),
    # the values of _symmetric_axis(1.0, 3), but not its float64 bits: integer
    # trapezoid weights would truncate the end weights to 0
    pytest.param(np.array([-1, 0, 1]), id="integer"),
    # uniform, but not antisymmetric bit for bit
    pytest.param(np.linspace(-3.0, 3.0, 3001), id="linspace"),
    pytest.param(shifted_grid_axis(), id="shifted-0.3-step"),
])
def test_grid_rejects_nonuniform_axis(axis):
    with pytest.raises(ValueError, match="grid axis"):
        FrequencyGrid(omega_s=np.array(axis))


def test_grid_accepts_every_built_size():
    pump = PumpPulse(212.0)
    for half_width in (None, 0.05, 0.07):
        for n in range(256, 4097):
            make_frequency_grid(CRYSTAL, pump, n, half_width=half_width)
