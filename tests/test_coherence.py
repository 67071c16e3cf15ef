import dataclasses

import numpy as np
import pytest

from nlintsim import coherence
from nlintsim.coherence import (
    CHIRP_Z_PHASE_TOL,
    PairCorrelator,
    _kernel_args,
    _pump_quadrature,
    _u_axis,
    _walkoff,
    carrier_phase,
    g1_closed_form,
    g1_envelope,
    g1_scan,
    geometry_for_delta_z,
    photon_number,
    synchronize_pump_path,
    timing_from_geometry,
    tri,
)
from nlintsim.oct_scan import default_scan_range
from nlintsim.optics_model import (
    BilayerSample,
    C_MM_FS,
    InterferometerGeometry,
    NumericalConsistencyError,
    PumpPulse,
    SINC_GAUSS_ALPHA,
    TabulatedSample,
    UniformSample,
    _trapezoid_weights,
    make_frequency_grid,
    mgo_linbo3_crystal,
    pump_amplitude,
    sinc,
)

CRYSTAL = mgo_linbo3_crystal(5.0)
MIRROR = UniformSample(1.0)


def synced_geometry(crystal):
    return synchronize_pump_path(InterferometerGeometry(), crystal)


# ---------------------------------------------------------------- timing

def test_t1_zero_when_paths_compensate():
    nil_mm = C_MM_FS * CRYSTAL.N_i * CRYSTAL.length_mm
    geom = InterferometerGeometry(z1_mm=1.0, z2_mm=2.0, z3_mm=1.0 - 2.0 - nil_mm)
    t = timing_from_geometry(geom, CRYSTAL)
    assert t.t1_fs == pytest.approx(0.0, abs=1e-9)
    assert t.delta_z_mm == pytest.approx(0.0, abs=1e-12)


def test_t2_zero_for_matched_pump_path():
    nil_mm = C_MM_FS * CRYSTAL.N_i * CRYSTAL.length_mm
    geom = InterferometerGeometry(z2_mm=3.0, zp1_mm=1.0, zp2_mm=1.0 + nil_mm + 3.0)
    assert timing_from_geometry(geom, CRYSTAL).t2_fs == pytest.approx(0.0, abs=1e-9)


def test_t1_linear_in_z3():
    geom = synced_geometry(CRYSTAL)
    t0 = timing_from_geometry(geom, CRYSTAL)
    shifted = timing_from_geometry(
        InterferometerGeometry(
            z1_mm=geom.z1_mm, z2_mm=geom.z2_mm, z3_mm=geom.z3_mm + 0.25,
            zp1_mm=geom.zp1_mm, zp2_mm=geom.zp2_mm,
        ),
        CRYSTAL,
    )
    assert shifted.t1_fs - t0.t1_fs == pytest.approx(0.25 / C_MM_FS, rel=1e-12)
    assert shifted.t2_fs == t0.t2_fs


def test_synchronize_pump_path():
    geom = InterferometerGeometry(z2_mm=0.0, zp1_mm=2.0)
    out = synchronize_pump_path(geom, CRYSTAL)
    assert out.zp2_mm - out.zp1_mm == pytest.approx(
        C_MM_FS * CRYSTAL.N_i * CRYSTAL.length_mm, rel=1e-12
    )
    assert timing_from_geometry(out, CRYSTAL).t2_fs == pytest.approx(0.0, abs=1e-9)
    # doubling the crystal adds c N_i L to the required pump path
    double = synchronize_pump_path(geom, mgo_linbo3_crystal(10.0))
    assert double.zp2_mm - out.zp2_mm == pytest.approx(
        C_MM_FS * CRYSTAL.N_i * CRYSTAL.length_mm, rel=1e-12
    )


def test_geometry_for_delta_z_round_trip():
    geom = synced_geometry(CRYSTAL)
    moved = geometry_for_delta_z(geom, CRYSTAL, 0.123)
    assert timing_from_geometry(moved, CRYSTAL).delta_z_mm == pytest.approx(
        0.123, rel=1e-12
    )


# ---------------------------------------------------------------- tri

def test_tri_values():
    assert tri(0.0) == 1.0
    assert tri(1.0) == 0.0
    assert tri(-1.0) == 0.0
    assert tri(0.5) == 0.5
    assert tri(2.3) == 0.0


def test_tri_is_fourier_pair_of_sinc_squared():
    # tri(xi/2) = (1/pi) integral sinc^2(x) exp(i xi x) dx
    x = np.linspace(-500.0, 500.0, 200001)
    sq = sinc(x) ** 2
    for half_xi in (0.0, 0.25, 0.5, 0.9, 1.1):
        val = np.trapezoid(sq * np.cos(2.0 * half_xi * x), x) / np.pi
        assert val == pytest.approx(tri(half_xi), abs=2e-3)


# ---------------------------------------------------------------- closed form

def test_g1_analytic_peak_and_support():
    geom = geometry_for_delta_z(synced_geometry(CRYSTAL), CRYSTAL, 0.0)
    pump = PumpPulse.from_ps(100.0)

    def at(geometry):
        t = timing_from_geometry(geometry, CRYSTAL)
        return g1_envelope(t.t1_fs, t.t2_fs, CRYSTAL, pump)

    assert at(geom) == pytest.approx(1.0, abs=1e-9)
    at_edge = geometry_for_delta_z(geom, CRYSTAL, CRYSTAL.dl * C_MM_FS)
    assert at(at_edge) == pytest.approx(0.0, abs=1e-12)
    beyond = geometry_for_delta_z(geom, CRYSTAL, 1.5 * CRYSTAL.dl * C_MM_FS)
    assert at(beyond) == 0.0


def test_envelope_regimes():
    t1 = np.linspace(-1.0, 1.0, 801) * CRYSTAL.dl
    # quasi-CW: pure triangle, full base 2 c |D| L = 0.790 mm
    env_cw = g1_envelope(t1, 0.0, CRYSTAL, PumpPulse.from_ps(100.0))
    assert np.max(np.abs(env_cw - tri(t1 / CRYSTAL.dl))) < 1e-3
    assert 2.0 * CRYSTAL.dl * C_MM_FS == pytest.approx(0.78995, rel=1e-3)

    # ultrashort: Gaussian-dominated, closed-form width 4 T0 sqrt(ln 2)/(1-2D+/D)
    pump_fs = PumpPulse(100.0)
    env_fs = g1_envelope(t1, 0.0, CRYSTAL, pump_fs)
    walk = 1.0 - 2.0 * CRYSTAL.D_plus / CRYSTAL.D
    fwhm_gauss = 8.0 * pump_fs.t0_fs * np.sqrt(np.log(2.0)) / abs(walk)
    half = np.where(env_fs >= 0.5)[0]
    measured = t1[half[-1]] - t1[half[0]]
    assert measured == pytest.approx(fwhm_gauss, rel=0.05)

    # intermediate: between the two limiting widths
    env_ps = g1_envelope(t1, 0.0, CRYSTAL, PumpPulse.from_ps(2.0))
    half = np.where(env_ps >= 0.5)[0]
    width_ps = t1[half[-1]] - t1[half[0]]
    assert fwhm_gauss < width_ps < CRYSTAL.dl


def test_g1_analytic_t2_offset_suppresses_peak():
    pump = PumpPulse(100.0)
    on = g1_envelope(0.0, 0.0, CRYSTAL, pump)
    off = g1_envelope(0.0, 400.0, CRYSTAL, pump)
    assert off == pytest.approx(np.exp(-4.0), rel=1e-9)
    assert off < 0.05 * on


# ---------------------------------------------------------------- numeric oracle

@pytest.mark.parametrize("t0_fs", [1e5, 2000.0, 100.0])
def test_numeric_matches_closed_form(t0_fs):
    pump = PumpPulse(t0_fs)
    geom = synced_geometry(CRYSTAL)
    dz = np.linspace(-1.1, 1.1, 61) * CRYSTAL.dl * C_MM_FS
    g = g1_scan(CRYSTAL, pump, geom, MIRROR, dz, include_carrier=False)
    expected = g1_envelope(dz / C_MM_FS, 0.0, CRYSTAL, pump)
    assert np.max(np.abs(np.abs(g) - expected)) < 1e-3


def test_numeric_single_point_with_carrier():
    pump = PumpPulse(500.0)
    geom = geometry_for_delta_z(synced_geometry(CRYSTAL), CRYSTAL, 0.02)
    t = timing_from_geometry(geom, CRYSTAL)
    g = g1_scan(CRYSTAL, pump, geom, MIRROR, [t.delta_z_mm])[0]
    assert abs(g) == pytest.approx(g1_envelope(t.t1_fs, t.t2_fs, CRYSTAL, pump), abs=1e-3)


def test_numeric_accepts_grid_as_density_hint():
    pump = PumpPulse(500.0)
    geom = geometry_for_delta_z(synced_geometry(CRYSTAL), CRYSTAL, 0.0)
    grid = make_frequency_grid(CRYSTAL, pump, 1024)
    g = g1_scan(
        CRYSTAL, pump, geom, MIRROR, [timing_from_geometry(geom, CRYSTAL).delta_z_mm],
        resolution=grid.n_points / 2048, include_carrier=False,
    )[0]
    assert abs(g) == pytest.approx(1.0, abs=1e-3)


def test_absorbing_sample_kills_coherence():
    # at dz = 0, inside the |T1| <= |D|L support, where a mirror is coherent
    pump = PumpPulse(500.0)
    geom = synced_geometry(CRYSTAL)
    mirror = g1_scan(CRYSTAL, pump, geom, MIRROR, [0.0], include_carrier=False)[0]
    absorber = g1_scan(CRYSTAL, pump, geom, UniformSample(0.0), [0.0], include_carrier=False)[0]
    assert abs(mirror) > 0.99
    assert absorber == 0


def test_uniform_loss_linearity():
    pump = PumpPulse(500.0)
    geom = geometry_for_delta_z(synced_geometry(CRYSTAL), CRYSTAL, 0.01)
    dz = np.array([0.0, 0.01, 0.03])
    g_full = g1_scan(CRYSTAL, pump, geom, MIRROR, dz, include_carrier=False)
    rho, phase = 0.5, 0.7
    g_lossy = g1_scan(
        CRYSTAL, pump, geom, UniformSample(rho * np.exp(1j * phase)), dz,
        include_carrier=False,
    )
    assert np.max(np.abs(np.abs(g_lossy) - rho * np.abs(g_full))) < 1e-6
    dphi = np.angle(g_lossy / g_full)
    assert np.max(np.abs(dphi + phase)) < 1e-9


def test_g1_bounded_by_one():
    pump = PumpPulse(2000.0)
    geom = synced_geometry(CRYSTAL)
    dz = np.linspace(-1.2, 1.2, 101) * CRYSTAL.dl * C_MM_FS
    g = g1_scan(CRYSTAL, pump, geom, MIRROR, dz)
    assert np.all(np.abs(g) <= 1.0 + 1e-6)


def test_tabulated_sample_must_cover_quadrature_band():
    pump = PumpPulse(500.0)
    geom = synced_geometry(CRYSTAL)
    narrow = TabulatedSample(omega=(-0.1, 0.1), r=(0.5, 0.5))
    with pytest.raises(ValueError, match="outside tabulated range"):
        g1_scan(CRYSTAL, pump, geom, narrow, [0.0])


# ---------------------------------------------------------------- closed form vs numeric

THIN = mgo_linbo3_crystal(0.5)
LOSSY = UniformSample(0.7 * np.exp(0.4j))
THIN_SLAB = BilayerSample.from_fresnel(1.0, 1.5, 1.3, d0_um=5.0, omega_carrier=THIN.omega_i0)
# complex interface amplitudes pin the r* convention of both terms
PHASED_SLAB = BilayerSample(
    r0=0.4 * np.exp(0.9j), r1=0.3 * np.exp(-0.6j), d0_um=5.0, n0=1.5,
    omega_carrier=THIN.omega_i0,
)


@pytest.mark.parametrize("sample,t0_fs,t2_fs", [
    pytest.param(LOSSY, 1e5, -267.0, id="uniform-quasi-cw-t2"),
    pytest.param(LOSSY, 100.0, -100.0, id="uniform-100fs-t2"),
    pytest.param(THIN_SLAB, 1e5, 0.0, id="bilayer-quasi-cw"),
    pytest.param(THIN_SLAB, 100.0, 0.0, id="bilayer-100fs"),
    pytest.param(PHASED_SLAB, 100.0, 0.0, id="bilayer-complex-r"),
])
def test_closed_form_matches_numeric_scan(sample, t0_fs, t2_fs):
    # the numeric route differs only by its sinc^2 tail cut, ~|r| / (pi TAIL_SINC_ARG)
    pump = PumpPulse(t0_fs)
    synced = synced_geometry(THIN)
    geom = dataclasses.replace(synced, zp2_mm=synced.zp2_mm + t2_fs * C_MM_FS)
    assert timing_from_geometry(geom, THIN).t2_fs == pytest.approx(t2_fs, abs=1e-6)
    dz = np.linspace(*default_scan_range(THIN, sample), 121)
    closed = g1_closed_form(THIN, pump, geom, sample, dz)
    numeric = g1_scan(THIN, pump, geom, sample, dz)
    assert np.max(np.abs(closed - numeric)) < 1e-4
    assert np.max(np.abs(closed)) > 0.2  # the comparison is not between zeros


def test_closed_form_phase_is_carrier_minus_arg_r():
    pump = PumpPulse(2000.0)
    geom = synced_geometry(CRYSTAL)
    dz = np.linspace(*default_scan_range(CRYSTAL, LOSSY), 401)
    env = g1_envelope(dz / C_MM_FS, 0.0, CRYSTAL, pump)
    g = g1_closed_form(CRYSTAL, pump, geom, LOSSY, dz)
    np.testing.assert_allclose(np.abs(g), 0.7 * env, rtol=1e-15, atol=0.0)
    inside = env > 0
    assert 0 < np.count_nonzero(inside) < dz.size
    expected = carrier_phase(CRYSTAL, geom, dz[inside]) - 0.4
    assert np.max(np.abs(np.angle(g[inside] * np.exp(-1j * expected)))) < 1e-9
    assert np.all(np.angle(g[~inside]) == 0.0)  # never the -pi of a signed zero
    mirror = g1_closed_form(CRYSTAL, pump, geom, MIRROR, dz)
    np.testing.assert_allclose(np.abs(mirror), env, rtol=1e-15, atol=0.0)
    with pytest.raises(TypeError, match="TabulatedSample"):
        g1_closed_form(CRYSTAL, pump, geom, TABULATED, dz)


# ---------------------------------------------------------------- delay transform

SLAB = BilayerSample.from_fresnel(1.0, 1.5, 1.3, d0_um=20.0, omega_carrier=CRYSTAL.omega_i0)
_TAB_W = np.linspace(-8.0, 8.0, 4001)
TABULATED = TabulatedSample(
    omega=tuple(_TAB_W), r=tuple(0.6 * np.exp(-(_TAB_W ** 2) + 5j * _TAB_W))
)
SCAN_T1 = np.linspace(-300.0, 400.0, 257)


def transform_case(
    sample=MIRROR, t1=SCAN_T1, t2_fs=0.0, resolution=1.0, extra=0.0,
    crystal=CRYSTAL, pump=PumpPulse(500.0),
):
    corr = PairCorrelator(
        crystal, pump, sample, t2_fs=t2_fs, t1_max_fs=400.0,
        resolution=resolution, extra_idler_delay_fs=extra,
    )
    return corr, np.asarray(t1, dtype=float)


CHIRP_Z_CASES = [
    pytest.param({}, id="mirror"),
    pytest.param({"sample": UniformSample(0.5 * np.exp(0.7j))}, id="lossy"),
    pytest.param({"sample": SLAB, "extra": SLAB.tau_fs}, id="bilayer"),
    pytest.param({"sample": TABULATED}, id="tabulated"),
    pytest.param({"t2_fs": 35.0}, id="unsynchronized"),
    pytest.param({"resolution": 0.5}, id="half-resolution"),
    pytest.param({"t1": SCAN_T1[::-1]}, id="descending"),
    pytest.param({"t1": []}, id="no-delays"),
    pytest.param({"t1": [123.0]}, id="one-delay"),
    pytest.param({"t1": [-50.0, 80.0]}, id="two-delays"),
    # chirp phases reach a N^2 / 2 ~ 2e9 rad over N ~ 1e5 signal frequencies
    pytest.param(
        {"t1": [-400.0, 0.0, 400.0], "crystal": mgo_linbo3_crystal(0.5), "pump": PumpPulse(1e5)},
        id="three-delays-wide-band",
    ),
]


@pytest.mark.parametrize("case", CHIRP_Z_CASES)
def test_chirp_z_matches_direct_sum(case):
    corr, t1 = transform_case(**case)
    fast = corr.correlation(t1)
    assert fast.shape == t1.shape
    np.testing.assert_array_equal(fast, corr._chirp_z(t1))
    direct = corr._direct_sum(t1)
    assert np.max(np.abs(fast - direct), initial=0.0) <= 1e-9
    if t1.size > 1:
        assert np.max(np.abs(direct)) > 1e-3  # the comparison is not between zeros


def test_uneven_delays_take_the_direct_sum():
    corr, t1 = transform_case(t1=np.array([0.0, 0.01, 0.03]) / C_MM_FS)
    assert abs(t1[1] - (t1[0] + t1[2]) / 2) * np.max(np.abs(corr.omega_s)) > CHIRP_Z_PHASE_TOL
    np.testing.assert_array_equal(corr.correlation(t1), corr._direct_sum(t1))


def test_chirp_z_path_keeps_the_bound_check(monkeypatch):
    corr, t1 = transform_case()
    corr._reduced = 2.0 * corr._reduced

    def forbidden(t1):
        raise AssertionError("a uniform axis must not take the direct sum")

    monkeypatch.setattr(corr, "_direct_sum", forbidden)
    with pytest.raises(NumericalConsistencyError, match="exceeds 1"):
        corr.correlation(t1)


# ---------------------------------------------------------------- idler reduction

def reference_quadrature(crystal, pump, omega_s, u, *, kernel="exact", sample=None, t2_fs=0.0):
    """The idler reduction term by term: np.sinc over the (ws, u) block and r* interpolated on it."""
    t0 = pump.t0_fs
    d_plus = _walkoff(crystal, kernel)
    pump_row = (t0 / np.sqrt(np.pi)) * np.exp(-((u * t0) ** 2)) * _trapezoid_weights(u)
    rows = []
    chunk = max(1, int(4e6 / u.size))
    for a in range(0, omega_s.size, chunk):
        ws = omega_s[a : a + chunk, None]
        arg = (d_plus * u + crystal.D * (2.0 * ws - u) / 2.0) * (crystal.length_mm / 2.0)
        if kernel == "exact":
            block = sinc(arg) ** 2
        else:
            block = np.exp(-2.0 * (SINC_GAUSS_ALPHA * arg) ** 2)
        wi = u - ws
        if sample is not None:
            block = block * np.conj(sample.reflectivity(wi))
        if t2_fs != 0.0:
            block = block * np.exp(1j * wi * t2_fs)
        rows.append(block @ pump_row)
    return np.concatenate(rows)


def reference_on_build_axes(crystal, pump, omega_s, *, kernel="exact", sample=None,
                            t2_fs=0.0, extra_delay_fs=0.0, resolution=1.0):
    """``reference_quadrature`` on the u axis ``_pump_quadrature`` builds for the same call."""
    h_s = (omega_s[-1] - omega_s[0]) / (omega_s.size - 1)
    u, _ = _u_axis(
        crystal, pump, kernel=kernel, t2_fs=t2_fs, extra_delay_fs=extra_delay_fs,
        resolution=resolution, lattice_step=None if sample is None else h_s,
    )
    return reference_quadrature(crystal, pump, omega_s, u, kernel=kernel, sample=sample, t2_fs=t2_fs)


def assert_matches_reference(omega_s, *, crystal=CRYSTAL, pump=PumpPulse(500.0), **kw):
    fast = _pump_quadrature(crystal, pump, omega_s, **kw)
    ref = reference_on_build_axes(crystal, pump, omega_s, **kw)
    assert fast.dtype == ref.dtype
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(ref)) > 0  # the comparison is not between zeros


SIGNAL_AXIS = np.linspace(-3.0, 3.0, 3001)

REDUCTION_CASES = [
    pytest.param({"sample": MIRROR}, id="mirror"),
    pytest.param({"sample": UniformSample(0.5 * np.exp(0.7j))}, id="lossy"),
    pytest.param({"sample": SLAB, "extra_delay_fs": SLAB.tau_fs}, id="bilayer"),
    pytest.param({"sample": TABULATED}, id="tabulated"),
    pytest.param({"sample": TABULATED, "t2_fs": 35.0}, id="t2-35fs"),
    pytest.param({"sample": SLAB, "resolution": 0.5}, id="half-resolution"),
    # m > n_u: the rows read disjoint runs of lattice points
    pytest.param({"sample": SLAB, "pump": PumpPulse(1e5)}, id="quasi-cw"),
    pytest.param({}, id="no-sample-exact"),
    pytest.param({"kernel": "gaussian"}, id="no-sample-gaussian"),
]


@pytest.mark.parametrize("block", [20_000, coherence.QUADRATURE_BLOCK])
@pytest.mark.parametrize("case", REDUCTION_CASES)
def test_reduction_matches_reference(case, block, monkeypatch):
    # the small block splits the axis into chunks that share lattice points
    monkeypatch.setattr(coherence, "QUADRATURE_BLOCK", block)
    assert_matches_reference(SIGNAL_AXIS, **case)


@pytest.mark.parametrize("sample", [None, SLAB], ids=["no-sample", "bilayer"])
def test_reduction_near_zero_argument(sample):
    pump = PumpPulse(500.0)
    lattice = None if sample is None else 1e-3
    u, _ = _u_axis(CRYSTAL, pump, lattice_step=lattice)
    j0 = u.size // 2 + 3  # near the pump peak, where a_j is not 0
    _, a = _kernel_args(CRYSTAL, "exact", np.zeros(1), u)
    ws0 = -(a[j0] + 3e-10) / (CRYSTAL.D * CRYSTAL.length_mm / 2.0)
    omega_s = ws0 + np.arange(-20, 21) * 1e-3
    h_s = (omega_s[-1] - omega_s[0]) / (omega_s.size - 1)
    u, _ = _u_axis(CRYSTAL, pump, lattice_step=None if sample is None else h_s)
    b, a = _kernel_args(CRYSTAL, "exact", omega_s, u)
    assert 0 < abs(b[20] + a[j0]) < 1e-9
    assert_matches_reference(omega_s, sample=sample, pump=pump)


@pytest.mark.parametrize("t0_fs", [500.0, 1e5], ids=["m-below-n_u", "m-above-n_u"])
def test_reduction_reads_each_lattice_point_once(t0_fs, monkeypatch):
    pump = PumpPulse(t0_fs)
    monkeypatch.setattr(coherence, "QUADRATURE_BLOCK", 20_000)
    seen = []
    reflectivity = TabulatedSample.reflectivity

    def counting(self, omega_i):
        seen.append(np.size(omega_i))
        return reflectivity(self, omega_i)

    monkeypatch.setattr(TabulatedSample, "reflectivity", counting)
    _pump_quadrature(CRYSTAL, pump, SIGNAL_AXIS, sample=TABULATED)
    h_s = SIGNAL_AXIS[1] - SIGNAL_AXIS[0]
    u, m = _u_axis(CRYSTAL, pump, lattice_step=h_s)
    assert len(seen) > 1
    assert sum(seen) <= SIGNAL_AXIS.size * min(m, u.size) + u.size


def test_tabulated_slab_moves_less_than_halved_resolution(monkeypatch):
    # a tabulated glass slab over the whole correlator band, like the benchmark's
    crystal, pump = mgo_linbo3_crystal(1.0), PumpPulse(100.0)
    slab = BilayerSample.from_fresnel(1.0, 1.5, 1.3, 20.0, crystal.omega_i0)
    ridge = coherence._ridge(crystal, "exact")
    band = 1.05 * (2.0 * coherence.TAIL_SINC_ARG / crystal.dl + (ridge + 1.0) * 8.0 / pump.t0_fs)
    w = np.linspace(-band, band, int(2.0 * band * slab.tau_fs * 64 / (2.0 * np.pi)) + 1)
    table = TabulatedSample(omega=w, r=slab.reflectivity(w))
    geom = synced_geometry(crystal)
    dz = np.linspace(*default_scan_range(crystal, slab), 161)

    def scan(resolution):
        return np.abs(g1_scan(crystal, pump, geom, table, dz, resolution=resolution))

    new = scan(1.0)
    monkeypatch.setattr(coherence, "_pump_quadrature", reference_on_build_axes)
    old, old_half = scan(1.0), scan(0.5)
    assert np.max(old) > 0.1
    assert np.max(np.abs(new - old)) <= np.max(np.abs(old - old_half))


# ---------------------------------------------------------------- photon number

def test_photon_number_scaling():
    n5 = photon_number(CRYSTAL)
    assert n5 == pytest.approx(
        2.0 * np.pi * CRYSTAL.sigma ** 2 * 5.0 / 263.5, rel=1e-12
    )
    assert photon_number(mgo_linbo3_crystal(10.0)) == pytest.approx(2 * n5, rel=1e-12)
    assert photon_number(mgo_linbo3_crystal(5.0, sigma=0.0)) == 0.0


def numeric_pair_flux(crystal, pump, tail_arg=300.0, n_u=801, n_m=20001):
    """Brute-force double integral of |V1|^2 in rotated coordinates."""
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
    sig_l = crystal.sigma * crystal.length_mm
    return 0.5 * sig_l ** 2 * np.sum(pump_sq * w_u * inner)  # jacobian 1/2


def test_photon_number_numeric_oracle():
    pump = PumpPulse(2000.0)
    numeric = numeric_pair_flux(CRYSTAL, pump)
    assert numeric == pytest.approx(photon_number(CRYSTAL), rel=1e-2)


def test_envelope_peaks_at_zero_delay():
    # with T2 = 0 and a lossless path both factors peak at T1 = 0
    t1 = np.linspace(-1.0, 1.0, 2001) * CRYSTAL.dl
    for t0_fs in (100.0, 2000.0, 1e5):
        env = g1_envelope(t1, 0.0, CRYSTAL, PumpPulse(t0_fs))
        assert t1[np.argmax(env)] == pytest.approx(0.0, abs=t1[1] - t1[0])
