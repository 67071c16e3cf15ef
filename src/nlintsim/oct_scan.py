"""Depth-scan interferograms for layered samples and envelope analytics.

The detected flux at one beam splitter port against the path delay dz is

    N(dz) = N_s1 [ 1 + sum_k r_k |g1|(T1 + tau_k, T2 - tau_k) sin(phi_k(dz)) ]

with one term per sample interface (tau_0 = 0) and carriers phi_k that
advance by ws0/c per unit of scanned path: the echo sum of ``coherence``.
The closed form covers every sample with echoes (uniform and two-layer); the
numeric route accepts any spectral reflectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biphoton import _half_max_width, fwhm_interpolated
from .coherence import (
    _max_sample_delay,
    g1_closed_form,
    g1_envelope,
    g1_scan,
    photon_number,
    timing_from_geometry,
)
from .optics_model import (
    AnalysisError,
    BilayerSample,
    C_MM_FS,
    CrystalParams,
    InterferometerGeometry,
    PumpPulse,
    SampleModel,
    echoes,
)

SYNC_TOL_FS = 1e-6
SCAN_PAD = 0.08            # default_scan_range scales each end of the support by 1 + this
PEAK_FLOOR = 0.10          # peaks below this fraction of the global max are noise
RESOLVED_VALLEY_FRACTION = 0.5


@dataclass(frozen=True)
class Interferogram:
    """Sampled depth scan: path delay [mm], detected flux and fringe envelope.

    ``flux`` is in photons/pulse; when fringes are not rendered it holds the
    upper fringe envelope n_signal*(1 + envelope). ``envelope`` is unitless
    (flux modulation depth).
    """

    delta_z_mm: np.ndarray
    flux: np.ndarray
    envelope: np.ndarray
    n_signal: float
    fringes_rendered: bool

    def __post_init__(self):
        self.delta_z_mm.setflags(write=False)
        self.flux.setflags(write=False)
        self.envelope.setflags(write=False)


@dataclass(frozen=True)
class PeakReport:
    """Envelope maxima of a depth scan, ascending in position."""

    positions_mm: tuple
    separations_um: tuple
    fwhm_um: tuple
    resolved: bool


def _require_synchronized(geometry, crystal) -> float:
    t2 = timing_from_geometry(geometry, crystal).t2_fs
    if abs(t2) > SYNC_TOL_FS:
        raise ValueError(
            f"pump path not synchronized: T2 = {t2:.6g} fs; "
            "apply synchronize_pump_path first"
        )
    return t2


def default_scan_range(crystal: CrystalParams, sample: SampleModel) -> tuple[float, float]:
    """Path-delay window [mm] covering the full envelope support, each end scaled by 1 + SCAN_PAD.

    The triangular factor bounds the support to |T1| <= |D|L, shifted left by
    the sample round-trip delay for buried interfaces.
    """
    dl_mm = crystal.dl * C_MM_FS
    tau_mm = _max_sample_delay(sample) * C_MM_FS
    return -(dl_mm + tau_mm) * (1.0 + SCAN_PAD), dl_mm * (1.0 + SCAN_PAD)


def scan_axis(
    crystal: CrystalParams,
    sample: SampleModel,
    fringes: bool = True,
    n_points: int | None = None,
    window_mm: tuple[float, float] | None = None,
) -> np.ndarray:
    """Delay axis for a depth scan; >= 8 samples per fringe when rendered."""
    lo, hi = window_mm if window_mm is not None else default_scan_range(crystal, sample)
    if n_points is None:
        if fringes:
            step = crystal.lambda_s_nm * 1e-6 / 8.0
            n_points = int(np.ceil((hi - lo) / step)) + 1
        else:
            n_points = 801
    return np.linspace(lo, hi, n_points)


def interferogram_bilayer(
    crystal: CrystalParams,
    pump: PumpPulse,
    geometry: InterferometerGeometry,
    sample: BilayerSample,
    delta_z_mm: np.ndarray,
    fringes: bool = True,
) -> Interferogram:
    """Closed-form depth scan for a two-interface sample.

    Requires a synchronized pump path (T2 = 0). The front interface peaks at
    T1 = 0; the buried one at T1 = tau (D+2D+)/(D-2D+) when the Gaussian
    factor dominates, T1 = -tau in the quasi-CW limit.
    """
    if not isinstance(sample, BilayerSample):
        raise TypeError("interferogram_bilayer needs a BilayerSample")
    return interferogram_closed_form(crystal, pump, geometry, sample, delta_z_mm, fringes)


def interferogram_closed_form(
    crystal: CrystalParams,
    pump: PumpPulse,
    geometry: InterferometerGeometry,
    sample: SampleModel,
    delta_z_mm: np.ndarray,
    fringes: bool = True,
) -> Interferogram:
    """Closed-form depth scan for a uniform or two-interface sample.

    Requires a synchronized pump path (T2 = 0). The flux follows from
    ``g1_closed_form``; the envelope is the per-echo sum
    sum_k |r_k| |g1|(T1 + tau_k, -tau_k).
    """
    t2 = _require_synchronized(geometry, crystal)
    dz = np.asarray(delta_z_mm, dtype=float)
    g = g1_closed_form(crystal, pump, geometry, sample, dz)
    t1 = dz / C_MM_FS
    envelope = sum(
        abs(r) * g1_envelope(t1 + tau, t2 - tau, crystal, pump)
        for r, _, tau in echoes(sample)
    )
    return _interferogram(crystal, dz, g, envelope, fringes)


def interferogram_numeric(
    crystal: CrystalParams,
    pump: PumpPulse,
    geometry: InterferometerGeometry,
    sample: SampleModel,
    delta_z_mm: np.ndarray,
    fringes: bool = True,
    resolution: float = 1.0,
) -> Interferogram:
    """Depth scan by quadrature with the full r(w) inside the pair kernel.

    The envelope is the modulus of the complex correlation (what fringe
    demodulation measures); for overlapping interface responses it includes
    their mutual interference, unlike the per-interface envelope sum of the
    closed form. Fluxes of the two routes agree pointwise.
    """
    _require_synchronized(geometry, crystal)
    dz = np.asarray(delta_z_mm, dtype=float)
    g = g1_scan(crystal, pump, geometry, sample, dz, resolution=resolution)
    return _interferogram(crystal, dz, g, np.abs(g), fringes)


def _interferogram(
    crystal: CrystalParams,
    delta_z_mm: np.ndarray,
    g: np.ndarray,
    envelope: np.ndarray,
    fringes: bool,
) -> Interferogram:
    """Depth scan from the complex g1 with its carrier on the delay axis."""
    n_s = photon_number(crystal)
    flux = n_s * (1.0 + (g.imag if fringes else envelope))
    return Interferogram(
        delta_z_mm=delta_z_mm.copy(),
        flux=flux,
        envelope=envelope,
        n_signal=n_s,
        fringes_rendered=fringes,
    )


def envelope_peaks(ifg: Interferogram) -> PeakReport:
    """Envelope maxima above PEAK_FLOOR of the global max, with widths.

    ``resolved`` is True when at least two peaks exist and the envelope
    between the two tallest dips to RESOLVED_VALLEY_FRACTION of the lower
    one. Per-peak FWHM is nan when a half-height crossing is swallowed by a
    neighboring peak.
    """
    env = ifg.envelope
    dz = ifg.delta_z_mm
    top = float(env.max())
    if top <= 0:
        raise AnalysisError("envelope is identically zero")
    if env[0] >= PEAK_FLOOR * top or env[-1] >= PEAK_FLOOR * top:
        raise AnalysisError(
            "envelope clipped at scan edge; widen the delay window"
        )
    idx = _local_maxima(env, PEAK_FLOOR * top)
    if idx.size == 0:
        raise AnalysisError("no envelope peaks above threshold")
    positions = dz[idx]
    separations = np.diff(positions) * 1e3

    widths = []
    for i in idx:
        try:
            widths.append(_half_max_width(dz, env, int(i), stop_at_neighbor=True) * 1e3)
        except AnalysisError:
            widths.append(float("nan"))

    resolved = False
    if idx.size >= 2:
        two = idx[np.argsort(env[idx])[-2:]]
        lo, hi = int(min(two)), int(max(two))
        valley = float(env[lo : hi + 1].min())
        lower_peak = float(min(env[lo], env[hi]))
        resolved = valley <= RESOLVED_VALLEY_FRACTION * lower_peak
    return PeakReport(
        positions_mm=tuple(float(p) for p in positions),
        separations_um=tuple(float(s) for s in separations),
        fwhm_um=tuple(widths),
        resolved=resolved,
    )


def _local_maxima(y: np.ndarray, height: float) -> np.ndarray:
    """Indices of the local maxima of ``y`` that reach ``height``.

    A flat top counts once, at its middle sample (the left one of an even
    run), and the end samples are never maxima; the result equals that of
    scipy.signal.find_peaks(y, height=height).
    """
    rise = y[1:] > y[:-1]
    fall = y[1:] < y[:-1]
    steps = np.flatnonzero(y[1:] != y[:-1])  # a NaN ends a flat run, as in find_peaks
    # a rising step followed by a falling one brackets a maximum or flat top
    top = rise[steps[:-1]] & fall[steps[1:]]
    peaks = (steps[:-1][top] + 1 + steps[1:][top]) // 2
    return peaks[y[peaks] >= height]


def predicted_peak_shift(crystal: CrystalParams) -> float:
    """Buried-interface delay scaling (D + 2 D_plus) / (D - 2 D_plus).

    Equals +1 without pump walk-off (quasi-CW behavior at any D_plus comes
    from the triangular factor instead).
    """
    denom = crystal.D - 2.0 * crystal.D_plus
    if denom == 0:
        raise ValueError("peak shift undefined: D - 2 D_plus vanishes")
    return (crystal.D + 2.0 * crystal.D_plus) / denom


def axial_resolution(ifg: Interferogram) -> float:
    """Envelope FWHM [um] of a single-interface depth scan."""
    return fwhm_interpolated(ifg.delta_z_mm, ifg.envelope) * 1e3
