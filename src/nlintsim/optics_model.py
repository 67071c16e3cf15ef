"""Physical parameters, unit conventions and sample reflectivity models.

Internal unit system
--------------------
time                fs
length              mm   (sample thickness is accepted in um at the boundary)
angular frequency   rad/fs (detunings from the carrier frequencies)
inverse group velocity  fs/mm

Frequencies named ``omega_s``/``omega_i``/``omega_p`` throughout the package
are detunings from the respective carriers unless suffixed ``0``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

C_MM_FS = 2.99792458e-4   # speed of light [mm/fs]
C_NM_FS = 299.792458      # speed of light [nm/fs]
TWO_PI = 2.0 * np.pi

# Gaussian stand-in for sinc: sinc(x) ~ exp(-(SINC_GAUSS_ALPHA * x)^2)
SINC_GAUSS_ALPHA = 0.455

# SI constants used only by nonlinear_sigma
_HBAR_SI = 1.054571817e-34     # J s
_EPS0_SI = 8.8541878128e-12    # F/m
_C_SI = 2.99792458e8           # m/s


class GridResolutionError(ValueError):
    """Requested frequency grid cannot resolve the narrowest spectral feature."""


class AnalysisError(RuntimeError):
    """A derived quantity (FWHM, peak list) is undefined on the given data."""


class NumericalConsistencyError(RuntimeError):
    """A computed quantity violates a bound it must satisfy exactly."""


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x) / np.pi)


def wavelength_to_omega(lambda_nm: float) -> float:
    """Vacuum wavelength [nm] to angular frequency [rad/fs]."""
    return TWO_PI * C_NM_FS / lambda_nm


@dataclass(frozen=True)
class CrystalParams:
    """Nonlinear crystal description, shared by the two identical sources.

    Fields (units):
        length_mm   crystal length L [mm]
        D           group velocity mismatch N_i - N_s [fs/mm], signed
        D_plus      pump walk-off N_p - (N_s + N_i)/2 [fs/mm]
        N_i         idler inverse group velocity [fs/mm]
        lambda_p_nm / lambda_s_nm / lambda_i_nm  carrier vacuum wavelengths
        sigma       parametric gain coefficient [fs^(1/2)/mm]; the emitted
                    signal flux per pulse is 2*pi*sigma^2*L/|D|

    ``D`` keeps its sign (negative for the reference crystal); envelope
    widths always use |D|, the interferogram peak-shift factor needs the sign.
    """

    length_mm: float
    D: float
    D_plus: float
    N_i: float
    lambda_p_nm: float
    lambda_s_nm: float
    lambda_i_nm: float
    sigma: float = 0.01

    def __post_init__(self):
        _require_finite("crystal", self)
        if self.sigma < 0:
            raise ValueError(f"gain coefficient sigma must be >= 0, got {self.sigma}")
        if not self.length_mm > 0:
            raise ValueError(f"crystal length must be positive, got {self.length_mm}")
        if self.D == 0:
            raise ValueError("group velocity mismatch D must be nonzero")
        if min(self.lambda_p_nm, self.lambda_s_nm, self.lambda_i_nm) <= 0:
            raise ValueError("carrier wavelengths must be positive")
        lhs = 1.0 / self.lambda_p_nm
        rhs = 1.0 / self.lambda_s_nm + 1.0 / self.lambda_i_nm
        if abs(lhs - rhs) > 1e-3 * lhs:
            raise ValueError(
                "carrier wavelengths violate energy conservation: "
                f"1/{self.lambda_p_nm} != 1/{self.lambda_s_nm} + 1/{self.lambda_i_nm}"
            )

    @property
    def omega_p0(self) -> float:
        return wavelength_to_omega(self.lambda_p_nm)

    @property
    def omega_s0(self) -> float:
        return wavelength_to_omega(self.lambda_s_nm)

    @property
    def omega_i0(self) -> float:
        return wavelength_to_omega(self.lambda_i_nm)

    @property
    def dl(self) -> float:
        """Unsigned group-delay spread |D| * L [fs]."""
        return abs(self.D) * self.length_mm

    def phase_mismatch(self, omega_s, omega_i):
        """First-order wave vector mismatch Delta k [rad/mm].

        Delta k = D_plus*(omega_s + omega_i) + D*(omega_s - omega_i)/2 under a
        first-order Taylor expansion with perfect matching at the carriers.
        """
        return self.D_plus * (omega_s + omega_i) + self.D * (omega_s - omega_i) / 2.0


def _require_finite(kind: str, params) -> None:
    for name, v in dataclasses.asdict(params).items():
        if not np.isfinite(v):
            raise ValueError(f"{kind} field {name} must be finite, got {v}")


def mgo_linbo3_crystal(length_mm: float, sigma: float = 0.01) -> CrystalParams:
    """Reference MgO-doped LiNbO3 crystal, type-0, 532 nm -> 810 + 1550 nm.

    N_i corresponds to a group index of ~2.19 at 1550 nm; it enters only the
    path length bookkeeping (synchronization, z3 <-> delay mapping) and no
    reported observable.
    """
    return CrystalParams(
        length_mm=length_mm,
        D=-263.50,
        D_plus=780.0,
        N_i=7300.0,
        lambda_p_nm=532.0,
        lambda_s_nm=810.0,
        lambda_i_nm=1550.0,
        sigma=sigma,
    )


@dataclass(frozen=True)
class PumpPulse:
    """Transform-limited Gaussian pump pulse of duration ``t0_fs`` [fs]."""

    t0_fs: float

    def __post_init__(self):
        _require_finite("pump", self)
        if not self.t0_fs > 0:
            raise ValueError(f"pump duration must be positive, got {self.t0_fs}")

    @classmethod
    def from_ps(cls, t0_ps: float) -> "PumpPulse":
        return cls(t0_fs=t0_ps * 1e3)


def pump_amplitude(pump: PumpPulse, omega_p):
    """Pump spectral amplitude at detuning ``omega_p`` [rad/fs].

    F(w) = T0^(1/2)/pi^(1/4) * exp(-w^2 T0^2 / 2), real and even, with
    integral |F|^2 dw = 1. Propagation phases are applied by the coherence
    kernels, not here.
    """
    t0 = pump.t0_fs
    return (np.sqrt(t0) / np.pi ** 0.25) * np.exp(-0.5 * (np.asarray(omega_p) * t0) ** 2)


def gamma_param(crystal: CrystalParams, pump: PumpPulse) -> float:
    """Pump-bandwidth to down-conversion-bandwidth ratio.

    gamma = alpha |D| L / (2 sqrt(2) T0). gamma = 1 marks the separable point
    of the Gaussian-approximated biphoton function; gamma << 1 or >> 1 means
    strong frequency (anti)correlation.
    """
    return SINC_GAUSS_ALPHA * crystal.dl / (2.0 * np.sqrt(2.0) * pump.t0_fs)


def nonlinear_sigma(
    chi2_pm_V: float,
    n0_photons_per_pulse: float,
    area_um2: float,
    n_p: float,
    n_s: float,
    n_i: float,
    omega_p0: float,
    omega_s0: float,
    omega_i0: float,
) -> float:
    """Parametric gain coefficient sigma [fs^(1/2)/mm].

    sigma = sqrt(hbar w_p0 w_s0 w_i0 chi2^2 N0 / (16 pi eps0 c^3 n_p n_s n_i A))

    Inputs: chi2 in pm/V, interaction area in um^2, carrier frequencies in
    rad/fs. Scales linearly in chi2 and as sqrt(N0).
    """
    vals = (chi2_pm_V, area_um2, n_p, n_s, n_i, omega_p0, omega_s0, omega_i0)
    if any(v <= 0 for v in vals):
        raise ValueError("all nonlinear_sigma inputs except N0 must be positive")
    if n0_photons_per_pulse < 0:
        raise ValueError("photon number must be nonnegative")
    chi2_si = chi2_pm_V * 1e-12          # m/V
    area_si = area_um2 * 1e-12           # m^2
    w_p = omega_p0 * 1e15                # rad/s
    w_s = omega_s0 * 1e15
    w_i = omega_i0 * 1e15
    sigma2_si = (
        _HBAR_SI * w_p * w_s * w_i * chi2_si ** 2 * n0_photons_per_pulse
        / (16.0 * np.pi * _EPS0_SI * _C_SI ** 3 * n_p * n_s * n_i * area_si)
    )  # [s/m^2]
    return float(np.sqrt(sigma2_si * 1e15 / 1e6))  # -> fs^(1/2)/mm


@dataclass(frozen=True)
class InterferometerGeometry:
    """Free-space path lengths [mm] of the two-source interferometer.

    z1: first signal, source exit to beam splitter
    z2: idler, first source exit to sample
    z3: second signal, source exit to beam splitter (scanned in depth scans)
    zp1 / zp2: pump, splitter to first / second source
    """

    z1_mm: float = 0.0
    z2_mm: float = 0.0
    z3_mm: float = 0.0
    zp1_mm: float = 0.0
    zp2_mm: float = 0.0

    def __post_init__(self):
        _require_finite("geometry", self)


@dataclass(frozen=True)
class UniformSample:
    """Frequency-independent complex reflectivity, |r| <= 1."""

    r: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "r", complex(self.r))
        _require_finite("sample", self)
        if abs(self.r) > 1.0 + 1e-12:
            raise ValueError(f"|r| = {abs(self.r)} exceeds 1 (sample must be passive)")

    def reflectivity(self, omega_i):
        return np.full_like(np.asarray(omega_i, dtype=float), self.r, dtype=complex)


@dataclass(frozen=True)
class BilayerSample:
    """Two-interface sample: r(w) = r0 + r1 exp[i (w0 + w) tau], tau = 2 d0 n0 / c.

    r0 is the front-face amplitude reflection, r1 the effective back-face one
    (propagation through the slab folded in). ``omega_carrier`` is the probing
    beam's carrier frequency w0 [rad/fs].
    """

    r0: float
    r1: float
    d0_um: float
    n0: float
    omega_carrier: float

    def __post_init__(self):
        _require_finite("sample", self)
        if abs(self.r0) + abs(self.r1) > 1.0 + 1e-12:
            raise ValueError(
                f"|r0| + |r1| = {abs(self.r0) + abs(self.r1)} exceeds 1 "
                "(sample must be passive)"
            )
        if self.d0_um < 0 or self.n0 <= 0:
            raise ValueError("slab thickness must be >= 0 and index > 0")

    @classmethod
    def from_fresnel(
        cls,
        n_before: float,
        n_slab: float,
        n_after: float,
        d0_um: float,
        omega_carrier: float,
    ) -> "BilayerSample":
        """Normal-incidence Fresnel coefficients of an (n1, n0, n2) stack.

        Single pass only: multiple internal reflections and slab index
        dispersion are neglected.
        """
        r0 = (n_before - n_slab) / (n_before + n_slab)
        r_back = (n_slab - n_after) / (n_slab + n_after)
        t_in = 2.0 * n_before / (n_before + n_slab)
        t_out = 2.0 * n_slab / (n_slab + n_before)
        return cls(
            r0=r0,
            r1=t_in * r_back * t_out,
            d0_um=d0_um,
            n0=n_slab,
            omega_carrier=omega_carrier,
        )

    @property
    def tau_fs(self) -> float:
        """Round-trip group delay of the slab: 2 d0 n0 / c [fs]."""
        return 2.0 * self.d0_um * 1e-3 * self.n0 / C_MM_FS

    def reflectivity(self, omega_i):
        w = np.asarray(omega_i, dtype=float)
        return self.r0 + self.r1 * np.exp(1j * (self.omega_carrier + w) * self.tau_fs)


@dataclass(frozen=True)
class TabulatedSample:
    """Complex reflectivity sampled on an ascending detuning grid [rad/fs].

    Queries are linearly interpolated; anything outside the tabulated range
    raises. Tables must cover the full quadrature band of the kernel that
    consumes them. ``omega`` and ``r`` may be given as any 1-d sequences and
    are kept as tuples; queries read array copies made once.
    """

    omega: tuple
    r: tuple
    _omega: np.ndarray = field(init=False, repr=False, compare=False)
    _r: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.omega, dtype=float)
        r = np.array(self.r, dtype=complex)
        if w.ndim != 1 or w.size < 2 or w.shape != r.shape:
            raise ValueError("tabulated sample needs matching 1-d omega and r arrays")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(r))):
            raise ValueError("tabulated omega and r must be finite")
        if np.any(np.diff(w) <= 0):
            raise ValueError("tabulated omega grid must be strictly ascending")
        if np.any(np.abs(r) > 1.0 + 1e-12):
            raise ValueError("tabulated |r| exceeds 1 (sample must be passive)")
        w.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "omega", tuple(w.tolist()))
        object.__setattr__(self, "r", tuple(r.tolist()))
        object.__setattr__(self, "_omega", w)
        object.__setattr__(self, "_r", r)

    def reflectivity(self, omega_i):
        w = np.asarray(omega_i, dtype=float)
        grid = self._omega
        if w.size and (w.min() < grid[0] or w.max() > grid[-1]):
            raise ValueError(
                f"reflectivity query outside tabulated range "
                f"[{grid[0]:.6g}, {grid[-1]:.6g}] rad/fs"
            )
        return np.interp(w, grid, self._r)


SampleModel = UniformSample | BilayerSample | TabulatedSample


def echoes(sample: SampleModel) -> tuple:
    """Interface terms (r_k, w0 tau_k, tau_k) with r(w) = sum_k r_k e^{i (w0 + w) tau_k}.

    One for a uniform sample, two for a bilayer, none for a table.
    """
    if isinstance(sample, UniformSample):
        return ((sample.r, 0.0, 0.0),)
    if isinstance(sample, BilayerSample):
        tau = sample.tau_fs
        return ((sample.r0, 0.0, 0.0), (sample.r1, sample.omega_carrier * tau, tau))
    return ()


# Grid sizing: spectral features are the pump band (~8/T0 wide in the pump
# detuning) and the phase-matching band (~16/(|D|L) per axis); the grid must
# put at least MIN_POINTS_PER_FEATURE steps across the narrower one.
PUMP_FEATURE_WIDTH = 8.0
PHASEMATCH_FEATURE_WIDTH = 16.0
MIN_POINTS_PER_FEATURE = 8
MIN_GRID_POINTS = 256


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform, symmetric signal/idler detuning grid with trapezoid weights."""

    omega_s: np.ndarray
    omega_i: np.ndarray

    def __post_init__(self):
        for ax in (self.omega_s, self.omega_i):
            ax.setflags(write=False)
            if ax.size < 2:
                raise ValueError("grid axes need at least 2 points")

    @property
    def step_s(self) -> float:
        return float(self.omega_s[1] - self.omega_s[0])

    @property
    def step_i(self) -> float:
        return float(self.omega_i[1] - self.omega_i[0])

    @property
    def weights_s(self) -> np.ndarray:
        return _trapezoid_weights(self.omega_s)

    @property
    def weights_i(self) -> np.ndarray:
        return _trapezoid_weights(self.omega_i)

    @property
    def n_points(self) -> int:
        return int(self.omega_s.size)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_half_width(crystal: CrystalParams, pump: PumpPulse) -> float:
    """Default half-span: max(6/T0, 24/(|D|L)) [rad/fs].

    Both the pump Gaussian and the central phase-matching lobe are negligible
    beyond this span.
    """
    return max(6.0 / pump.t0_fs, 24.0 / crystal.dl)


def make_frequency_grid(
    crystal: CrystalParams,
    pump: PumpPulse,
    n_points: int,
    half_width: float | None = None,
) -> FrequencyGrid:
    """Symmetric uniform grid for joint-spectrum work.

    Raises GridResolutionError when fewer than MIN_POINTS_PER_FEATURE steps
    fall across the narrower of the pump and phase-matching widths.
    """
    if n_points < MIN_GRID_POINTS:
        raise GridResolutionError(
            f"n_points must be at least {MIN_GRID_POINTS}, got {n_points}"
        )
    if half_width is None:
        half_width = grid_half_width(crystal, pump)
    step = 2.0 * half_width / (n_points - 1)
    narrow = min(
        PUMP_FEATURE_WIDTH / pump.t0_fs,
        PHASEMATCH_FEATURE_WIDTH / crystal.dl,
    )
    if step > narrow / MIN_POINTS_PER_FEATURE:
        raise GridResolutionError(
            f"grid step {step:.3e} rad/fs cannot resolve the narrowest spectral "
            f"feature ({narrow:.3e} rad/fs); need >= "
            f"{int(np.ceil(2 * half_width * MIN_POINTS_PER_FEATURE / narrow)) + 1} points"
        )
    axis = np.linspace(-half_width, half_width, n_points)
    return FrequencyGrid(omega_s=axis, omega_i=axis.copy())
