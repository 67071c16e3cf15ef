"""Timing algebra and first-order coherence between the two signal beams.

The closed form for a lossless idler path is the product of a triangular
envelope of width |D|L and a Gaussian of width set by the pump duration:

    |g1(T1, T2)| = tri(T1 / (D L)) * exp(-[(1 - 2 D_plus/D) T1 + 2 T2]^2 / (16 T0^2))

with T1 = (z3 - z1 + z2)/c + N_i L and T2 = (zp2 - zp1 - z2)/c - N_i L.

The closed form is exact with first-order dispersion, for factorable and
frequency-entangled pairs alike. A layered sample reflects through its echoes
(``optics_model.echoes``), one term (r_k, w0 tau_k, tau_k) per interface with
r(w) = sum_k r_k e^{i (w0 + w) tau_k}: one for a uniform sample, two for a
bilayer. Each echo shifts the envelope by its delay, so ``g1_closed_form`` is
the echo sum

    g1 = sum_k r_k* e^{-i w0 tau_k} g1_envelope(T1 + tau_k, T2 - tau_k)

times the carrier. The scenario runner takes it for every layered sample,
reports its scan convergence as ``analytic``, and sends only tabulated
samples, which have no echoes, down the numeric route. The envelope at
T2 = 0 is the Fourier transform of the signal marginal (``tri``), so
``biphoton.signal_spectrum`` takes that spectrum as its cosine transform.

The numeric route integrates the pair kernels of the two sources over the
signal/idler detunings with the sample reflectivity folded in, and supports
arbitrary r(w). It reproduces the closed form to within its sinc^2 tail cut
and stays the closed form's test oracle. The idler integral is reduced once
per correlator (``_pump_quadrature``) as the square of the signed sinc block
``_kernel_block``, built by BLAS products of 1-D trig values, against
r*(wi) e^{i wi T2} on one 1-D idler lattice, evaluated by each chunk of rows
on the lattice points they read (the joint spectrum takes the block
unsquared). The pump and the phase matching are even, and the signal and
pump axes are exactly antisymmetric (``_symmetric_axis``), so the block row
at -ws is the row at ws reversed: only the rows ws <= 0 are built, each
reduced against f(wi) for ws and against f(-wi) for -ws. The signal-frequency sum over a uniform delay axis
is then a chirp-z transform (Bluestein's algorithm), so a scan of K delays over N signal
frequencies costs O((N + K) log(N + K)) rather than O(N K). The route's convergence
check is a coarse rule embedded in the same nodes. The signal step h is sized by
that sum alone: it repeats in the delay with period 2 pi / h, so at resolution 1
h = 2 pi / (4 (P + |D|L)), P the largest delay it is taken at plus the sample's
(``correlator_sizes``), keeps the sum and the coarse rule at 2h clear of aliasing.
A table has no echoes; its delay is where its r(w) holds content (``_table_delay``).
Every streamed kernel evaluation,
here the idler reduction and the direct delay sum and in ``biphoton`` the
joint-spectrum and Schmidt row blocks, works in blocks of about BLOCK_ELEMENTS
elements, so its work arrays stay a few MB whatever the grid or the scan. The
idler reduction splits its chunks over up to two CPUs (``_reduction_threads``),
each thread with BLOCK_ELEMENTS / T elements of its own scratch: the scratch
summed over the threads is unchanged, and R does not depend on T, bit for bit.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass

import numpy as np

from .optics_model import (
    C_MM_FS,
    CrystalParams,
    InterferometerGeometry,
    NumericalConsistencyError,
    PumpPulse,
    SINC_GAUSS_ALPHA,
    SampleModel,
    TWO_PI,
    TabulatedSample,
    _symmetric_axis,
    _trapezoid_weights,
    echoes,
    sinc,
)

# sinc^2 is truncated where its argument reaches TAIL_SINC_ARG; the relative
# mass left outside is ~1/(pi * TAIL_SINC_ARG), so 3500 keeps truncation an
# order of magnitude under the 1e-3 accuracy contract on |g1|.
TAIL_SINC_ARG = 3500.0

G1_BOUND_TOL = 1e-6

# Largest phase error [rad] the chirp-z transform may make by treating the
# delay axis as exactly uniform; a less uniform axis takes the direct sum.
CHIRP_Z_PHASE_TOL = 1e-9

# Below this |argument| sinc takes sin of the summed argument itself; above it,
# the sine comes from 1-D trig values, whose few-ulp error divided by the
# argument stays under about 1e-13 relative.
DIRECT_SINC_ARG = 1e-2

# Elements of one block of every streamed kernel evaluation: the idler
# reduction's (ws, u) chunks, summed over its threads, the direct delay sum's
# (t1, ws) chunks and the row blocks of biphoton's joint-spectrum and Schmidt
# streams. About 2 MB per float64 work array, which stays in cache; 1e6-element
# blocks ran slower and held four times the memory.
BLOCK_ELEMENTS = 250_000


@dataclass(frozen=True)
class Timing:
    """Interferometer delays [fs] and the equivalent path delay [mm]."""

    t1_fs: float
    t2_fs: float
    delta_z_mm: float


def timing_from_geometry(
    geometry: InterferometerGeometry, crystal: CrystalParams
) -> Timing:
    """Delays T1, T2 and the path delay c*T1 from the path lengths."""
    nil = crystal.N_i * crystal.length_mm
    t1 = (geometry.z3_mm - geometry.z1_mm + geometry.z2_mm) / C_MM_FS + nil
    t2 = (geometry.zp2_mm - geometry.zp1_mm - geometry.z2_mm) / C_MM_FS - nil
    return Timing(t1_fs=t1, t2_fs=t2, delta_z_mm=t1 * C_MM_FS)


def synchronize_pump_path(
    geometry: InterferometerGeometry, crystal: CrystalParams
) -> InterferometerGeometry:
    """Set zp2 so the pump and idler pulses arrive together (T2 = 0)."""
    zp2 = geometry.zp1_mm + C_MM_FS * crystal.N_i * crystal.length_mm + geometry.z2_mm
    return dataclasses.replace(geometry, zp2_mm=zp2)


def geometry_for_delta_z(
    geometry: InterferometerGeometry, crystal: CrystalParams, delta_z_mm: float
) -> InterferometerGeometry:
    """Move z3 so that the path delay equals ``delta_z_mm``."""
    z3 = (
        delta_z_mm
        + geometry.z1_mm
        - geometry.z2_mm
        - C_MM_FS * crystal.N_i * crystal.length_mm
    )
    return dataclasses.replace(geometry, z3_mm=z3)


def tri(x):
    """Triangular function: 1 - |x| on [-1, 1], zero outside.

    Fourier pair of sinc^2: tri(xi/2) = (1/pi) integral sinc^2(x) e^(i xi x) dx.
    At x = D L ws / 2, xi = 2 T / |D|L, it makes ``g1_envelope(T, 0)`` the
    transform of the signal marginal, which ``biphoton.signal_spectrum`` inverts.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    return np.where(ax < 1.0, 1.0 - ax, 0.0)


def g1_envelope(t1_fs, t2_fs, crystal: CrystalParams, pump: PumpPulse):
    """|g1| for a lossless idler path, vectorized over delays.

    The triangular argument uses |T1/(D L)| so the envelope is symmetric for
    either sign of D.
    """
    t1 = np.asarray(t1_fs, dtype=float)
    walk = 1.0 - 2.0 * crystal.D_plus / crystal.D
    gauss = np.exp(-((walk * t1 + 2.0 * t2_fs) ** 2) / (16.0 * pump.t0_fs ** 2))
    return tri(t1 / crystal.dl) * gauss


def g1_closed_form(
    crystal: CrystalParams,
    pump: PumpPulse,
    geometry: InterferometerGeometry,
    sample: SampleModel,
    delta_z_mm: np.ndarray,
) -> np.ndarray:
    """Complex correlation with its carrier over a path-delay scan.

    The echo sum of the module docstring, exact for uniform and bilayer
    samples. The scan and conjugation conventions are those of ``g1_scan``,
    which reproduces this to within its sinc^2 tail cut of about
    |r| / (pi TAIL_SINC_ARG). Where the correlation vanishes it is +0, so its
    phase reads 0 there.
    """
    terms = echoes(sample)
    if not terms:
        raise TypeError(
            f"no closed form for a {type(sample).__name__}; use g1_scan"
        )
    dz = np.asarray(delta_z_mm, dtype=float)
    t1 = dz / C_MM_FS
    t2 = timing_from_geometry(geometry, crystal).t2_fs
    g = sum(
        np.conj(r) * np.exp(-1j * phase) * g1_envelope(t1 + tau, t2 - tau, crystal, pump)
        for r, phase, tau in terms
    )
    g = g * np.exp(1j * carrier_phase(crystal, geometry, dz))
    # products with zero leave signed zeros, whose angle can read +-pi
    return np.where(g == 0, 0j, g)


def photon_number(crystal: CrystalParams) -> float:
    """Signal photons generated per pump pulse: 2 pi sigma^2 L / |D|.

    Independent of the pump pulse shape; equal for both sources in the low
    gain regime. A sigma whose square leaves the float range gives inf.
    """
    return TWO_PI * (crystal.sigma * crystal.sigma) * crystal.length_mm / abs(crystal.D)


def carrier_phase(
    crystal: CrystalParams, geometry: InterferometerGeometry, delta_z_mm
):
    """Carrier phase of the cross term at the detector [rad].

    (wp0/c)(zp2 - zp1) - (wi0/c)(z2 + c N_i L) + (ws0/c)(z3 - z1), evaluated
    with z3 - z1 = delta_z - z2 - c N_i L. The crystal exit term uses the
    group index c*N_i as the phase-index proxy; it shifts the global fringe
    offset only.
    """
    dz = np.asarray(delta_z_mm, dtype=float)
    nil_mm = C_MM_FS * crystal.N_i * crystal.length_mm
    return (
        crystal.omega_p0 / C_MM_FS * (geometry.zp2_mm - geometry.zp1_mm)
        - crystal.omega_i0 / C_MM_FS * (geometry.z2_mm + nil_mm)
        + crystal.omega_s0 / C_MM_FS * (dz - geometry.z2_mm - nil_mm)
    )


class PairCorrelator:
    """Quadrature engine for the normalized signal-signal correlation.

    Precomputes the idler-side integral R(ws) once per (sample, T2); the
    correlation at delay T1 is then the signal-frequency sum
    sum_n R_n e^{i (T1 + T2) ws_n}. On a uniform delay axis that sum is a
    chirp-z transform costing a few FFTs of length >= N + K - 1 for K delays
    over N signal frequencies; any other axis takes the direct O(N K) sum,
    which also serves as the transform's test oracle. Integration runs on an
    internal pump-adaptive grid:
    the pump axis u = ws + wi stays resolved for any pulse duration, and the
    signal axis extends far enough that the truncated sinc^2 tail mass is
    below the accuracy contract (a shared square signal/idler grid cannot
    reach that while staying resolvable).

    ``resolution`` scales step densities down to 0.5, and a lower one builds as
    0.5 does (``correlator_sizes``); spans are fixed by the physics so a
    refinement ladder measures pure discretization error. ``omega_s`` is
    exactly antisymmetric, so the idler reduction builds the block rows of
    one half and reduces each for ws and for its mirror -ws. Its point count
    is odd, so ``coarse_correlation`` takes ``omega_s[::2]`` by the embedded
    coarse rule of ``_pump_quadrature``: the halved-resolution check. Instances
    are read-only after construction.
    """

    def __init__(
        self,
        crystal: CrystalParams,
        pump: PumpPulse,
        sample: SampleModel,
        t2_fs: float,
        t1_max_fs: float,
        resolution: float = 1.0,
        extra_idler_delay_fs: float = 0.0,
    ):
        self.t2_fs = float(t2_fs)
        half_s, n_s, *lattice = correlator_sizes(
            crystal, pump, t1_max_fs=t1_max_fs, t2_fs=t2_fs,
            extra_idler_delay_fs=extra_idler_delay_fs, resolution=resolution)
        self.omega_s = _symmetric_axis(half_s, n_s)
        r_inner, r_coarse = _pump_quadrature(
            crystal, pump, self.omega_s, lattice, sample=sample, t2_fs=t2_fs)
        # sigma cancels against the analytic flux normalization 2 pi sigma^2 L/|D|
        norm = crystal.length_mm * abs(crystal.D) / TWO_PI
        self._reduced = r_inner * _trapezoid_weights(self.omega_s) * norm
        self._coarse = r_coarse * _trapezoid_weights(self.omega_s[::2]) * norm

    def correlation(self, t1_fs) -> np.ndarray:
        """Normalized complex correlation (carrier phase excluded) at delays T1.

        The chirp-z transform evaluates the delays when treating them as the
        uniform axis through their end points shifts no phase by more than
        CHIRP_Z_PHASE_TOL; otherwise the direct sum does.
        """
        return self._transform(self.omega_s, self._reduced, t1_fs)

    def coarse_correlation(self, t1_fs) -> np.ndarray:
        """``correlation`` by the embedded coarse rule, on ``omega_s[::2]``."""
        return self._transform(self.omega_s[::2], self._coarse, t1_fs)

    def _transform(self, ws: np.ndarray, reduced: np.ndarray, t1_fs) -> np.ndarray:
        """sum_n R_n e^{i (t_k + T2) ws_n}, checked against |g1| <= 1 + G1_BOUND_TOL."""
        t1 = np.atleast_1d(np.asarray(t1_fs, dtype=float))
        if _axis_deviation(t1) * np.max(np.abs(ws)) <= CHIRP_Z_PHASE_TOL:
            out = self._chirp_z(ws, reduced, t1)
        else:
            out = self._direct_sum(ws, reduced, t1)
        mags = np.abs(out)
        if np.any(mags > 1.0 + G1_BOUND_TOL):
            raise NumericalConsistencyError(
                f"|g1| = {mags.max():.8f} exceeds 1 beyond tolerance; "
                "quadrature inconsistent"
            )
        return out

    def _direct_sum(self, ws: np.ndarray, reduced: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """sum_n R_n e^{i (t_k + T2) ws_n} term by term, in chunks of about BLOCK_ELEMENTS."""
        out = np.empty(t1.size, dtype=complex)
        chunk = max(1, BLOCK_ELEMENTS // ws.size)
        for a in range(0, t1.size, chunk):
            b = min(a + chunk, t1.size)
            phases = np.exp(1j * np.outer(t1[a:b] + self.t2_fs, ws))
            out[a:b] = phases @ reduced
        return out

    def _chirp_z(self, ws: np.ndarray, reduced: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """The direct sum on the uniform axis t_k = t_0 + k dt, by Bluestein's algorithm.

        With ws_n = ws_0 + n h the phase is (t_k + T2) ws_0 + (t_0 + T2) h n
        + a k n, a = dt h, and k n = (k^2 + n^2 - (k - n)^2) / 2 turns the sum
        over n into one convolution with the chirp e^{-i a m^2 / 2},
        m = -(N - 1) .. K - 1, done by FFT. That chirp is the conjugate of
        the two e^{i a m^2 / 2} already formed, bit for bit, since ``_chirp``
        is odd in c.
        """
        n_w, n_t = ws.size, t1.size
        if n_t == 0:
            return np.empty(0, dtype=complex)
        h = (ws[-1] - ws[0]) / (n_w - 1)
        c = 0.5 * h * (t1[-1] - t1[0]) / (n_t - 1) if n_t > 1 else 0.0
        chirp_n = _chirp(c, np.arange(n_w, dtype=float))
        chirp_k = _chirp(c, np.arange(n_t, dtype=float))
        y = reduced * np.exp(1j * (t1[0] + self.t2_fs) * h * np.arange(n_w)) * chirp_n
        size = _transform_length(n_w, n_t)
        kernel = np.zeros(size, dtype=complex)
        np.conjugate(chirp_k, out=kernel[:n_t])
        np.conjugate(chirp_n[:0:-1], out=kernel[size - n_w + 1 :])
        conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(kernel))[:n_t]
        return conv * chirp_k * np.exp(1j * (t1 + self.t2_fs) * ws[0])


def _transform_length(n_w: int, n_t: int) -> int:
    """The chirp-z transform's FFT length: a power of two above its n_w + n_t - 1 points."""
    return 1 << (n_w + n_t - 2).bit_length()


def g1_scan(
    crystal: CrystalParams,
    pump: PumpPulse,
    geometry: InterferometerGeometry,
    sample: SampleModel,
    delta_z_mm: np.ndarray,
    *,
    resolution: float = 1.0,
) -> np.ndarray:
    """Complex correlation over a path-delay scan (z3 varies, all else fixed), with its carrier."""
    corr, t1 = _scan_correlator(crystal, pump, geometry, sample, delta_z_mm, resolution)
    return corr.correlation(t1) * np.exp(1j * carrier_phase(crystal, geometry, delta_z_mm))


def _scan_correlator(crystal, pump, geometry, sample, delta_z_mm, resolution):
    """The correlator ``g1_scan`` builds for a path-delay scan, and the scan's delays T1."""
    corr = PairCorrelator(crystal, pump, sample, resolution=resolution,
                          **_scan_arguments(crystal, geometry, sample, delta_z_mm))
    return corr, np.asarray(delta_z_mm, dtype=float) / C_MM_FS


def _scan_arguments(crystal, geometry, sample, delta_z_mm) -> dict:
    """The correlator's delay arguments for a path-delay scan over ``delta_z_mm``."""
    t1 = np.asarray(delta_z_mm, dtype=float) / C_MM_FS
    return {
        "t2_fs": timing_from_geometry(geometry, crystal).t2_fs,
        "t1_max_fs": float(np.max(np.abs(t1))) if t1.size else 0.0,
        "extra_idler_delay_fs": (_table_delay(sample, crystal.dl)
                                 if isinstance(sample, TabulatedSample)
                                 else _max_sample_delay(sample)),
    }


def _axis_deviation(x: np.ndarray) -> float:
    """Largest distance of ``x`` from the uniform axis through its end points."""
    if x.size < 3:
        return 0.0
    step = (x[-1] - x[0]) / (x.size - 1)
    return float(np.max(np.abs(x - (x[0] + step * np.arange(x.size)))))


def _chirp(c: float, m: np.ndarray) -> np.ndarray:
    """e^{i c m^2} for whole numbers m, accurate however large c m^2 grows.

    c splits into a head short enough that head * m^2 is exact (numpy's exp
    reduces an exact phase without loss) and a tail 2^bits times smaller,
    which carries the only rounding error. ``_chirp(-c, m)`` is the
    conjugate of ``_chirp(c, m)`` bit for bit: np.round is odd, and so is
    the sine in exp(i x).
    """
    m2 = m * m
    bits = max(0, 53 - int(m2.max(initial=0.0)).bit_length())
    mant, exp = np.frexp(c)
    head = np.ldexp(np.round(mant * 2.0 ** bits), exp - bits)
    return np.exp(1j * head * m2) * np.exp(1j * (c - head) * m2)


def _max_sample_delay(sample: SampleModel) -> float:
    """The largest echo delay tau_k [fs]; 0 for a sample without echoes."""
    return max((tau for _, _, tau in echoes(sample)), default=0.0)


def _table_delay(table: TabulatedSample, dl: float) -> float:
    """The largest delay [fs] at which a table's r(w) holds content, the echo delay of a table.

    The transform G(T) = (dl / 2 pi) integral sinc^2(dl w / 2) r(w) e^{-i w T} dw takes
    an echo r_k e^{i w tau_k} to r_k tri((T - tau_k) / dl): the correlation at T2 = 0
    with a CW pump, which a pulsed pump narrows. It is summed over the table's samples,
    or over its linear interpolant on a uniform grid of its smallest step, at most 16
    times finer than its mean step, and taken by FFT at delays at most dl/8 apart over
    the period 2 pi/step; the interpolant's images beyond it are not counted. The delay
    is the largest |T| where |G| exceeds the tail cut's max|r| / (pi TAIL_SINC_ARG),
    plus that spacing, less dl: so an echo reads its own tau_k. A table narrower than
    the signal band +-2 TAIL_SINC_ARG / dl, which the reduction rejects, reads 0.
    """
    w = table.omega
    span = w[-1] - w[0]
    if span < 4.0 * TAIL_SINC_ARG / dl:
        return 0.0
    n = min(int(round(span / np.min(np.diff(w)))), 16 * (w.size - 1)) + 1
    step = span / (n - 1)
    bins = int(np.ceil(16.0 * np.pi / (step * dl)))
    uniform = n == w.size and np.array_equal(w, np.linspace(w[0], w[-1], n))
    # sample j = q bins + k sits in row q, column k, and the sum over rows is the
    # DFT at the bins' delays; sin(dl w / 2) comes from the row and column phases,
    # in about a sixth of the time np.sin takes on a whole table
    half_dl = 0.5 * dl
    cols = half_dl * step * np.arange(bins)
    col_phase = np.exp(1j * cols)
    n_rows, block = -(-n // bins), max(1, BLOCK_ELEMENTS // bins)
    folded = np.zeros(bins, dtype=complex)
    for q in range(0, n_rows, block):
        rows = half_dl * (w[0] + step * bins * np.arange(q, min(q + block, n_rows)))
        arg = np.add.outer(rows, cols)
        lo, hi = q * bins, min(q * bins + arg.size, n)
        r = np.zeros(arg.size, dtype=complex)
        if uniform:
            r[: hi - lo] = table.r[lo:hi]
        else:  # rounding can put the end samples an ulp outside the table
            r[: hi - lo] = table.reflectivity(np.clip(arg.ravel()[: hi - lo] / half_dl, w[0], w[-1]))
        sin = (np.exp(1j * rows)[:, None] * col_phase).imag
        # sinc^2, and 1 to 1e-12 where the argument is below 1e-6
        weight = np.divide(sin, arg, out=np.ones_like(arg), where=np.abs(arg) > 1e-6) ** 2
        folded += np.sum(r.reshape(arg.shape) * weight, axis=0)
    g = np.abs(np.fft.fft(folded)) * (step * dl / TWO_PI)
    t = np.abs(TWO_PI * np.fft.fftfreq(bins, step))
    floor = np.max(np.abs(table.r)) / (np.pi * TAIL_SINC_ARG)
    return max(0.0, float(t[g > floor].max(initial=-np.inf)) + TWO_PI / (bins * step) - dl)


def _interpolation_bound(table: TabulatedSample) -> float:
    """h^2/8 max|r''|, the error bound of a table's linear interpolation, estimated from
    second divided differences at each inner node's larger step: on a uniform table
    hypot(max|Re D2 r|, max|Im D2 r|) / 8 with D2 r the second difference. 0 below three
    rows."""
    w, r = table.omega, table.r
    if w.size < 3:
        return 0.0
    h = np.diff(w)
    wide = np.maximum(h[:-1], h[1:])
    second = np.diff(np.diff(r) / h) * (2.0 * wide * wide / (h[:-1] + h[1:]))
    return float(np.hypot(np.max(np.abs(second.real)), np.max(np.abs(second.imag)))) / 8.0


def _walkoff(crystal: CrystalParams, kernel: str) -> float:
    """Pump walk-off D_plus kept by ``kernel``; the Gaussian stand-in drops it."""
    if kernel == "exact":
        return crystal.D_plus
    if kernel == "gaussian":
        return 0.0
    raise ValueError(f"unknown kernel {kernel!r}, expected 'exact' or 'gaussian'")


def _ridge(crystal: CrystalParams, kernel: str) -> float:
    """Signal detuning per unit pump detuning along the phase-matching ridge dk = 0."""
    return abs(1.0 - 2.0 * _walkoff(crystal, kernel) / crystal.D) / 2.0


def correlator_sizes(
    crystal: CrystalParams,
    pump: PumpPulse,
    *,
    t1_max_fs: float,
    t2_fs: float,
    extra_idler_delay_fs: float = 0.0,
    resolution: float = 1.0,
) -> tuple[float, int, np.ndarray, int, int]:
    """``PairCorrelator``'s sizes for these arguments, (half_s, n_s, u, m, stride): its
    signal axis +-half_s [rad/fs] on n_s nodes, and the pump lattice (u, m, stride) of
    ``_lattice`` that ``_pump_quadrature`` reduces on.

    The signal axis reaches the sinc^2 tail cut at TAIL_SINC_ARG, plus the pump
    band +-8/T0 along the phase-matching ridge. Its step is

        h_s = pi / (2 max(resolution, 1/2) (P + |D|L)),  P = |T1|max + |T2| + tau + 1 fs

    with tau the sample's delay: its largest echo delay, or a table's ``_table_delay``.
    The sum sum_n R_n e^{i T ws_n} repeats in T with period 2 pi / h_s, and the
    integral it approximates lies within |D|L of the sample's delays (``g1_envelope``'s
    triangle), so by Poisson summation it is free of aliasing while 2 pi / h_s > P + |D|L:
    with 4x margin at resolution >= 1, and 2x for the embedded coarse rule at 2 h_s. At
    resolution 0.5 the coarse rule meets the limit, so a lower resolution builds as 0.5
    does: the signal step and the pump lattice alike.
    """
    half_s, n_s, (step, delay_fs, resolution) = _signal_sizes(
        crystal, pump, t1_max_fs=t1_max_fs, t2_fs=t2_fs,
        extra_idler_delay_fs=extra_idler_delay_fs, resolution=resolution)
    return half_s, n_s, *_lattice(crystal, pump, step, delay_fs=delay_fs, resolution=resolution)


def _signal_sizes(crystal, pump, *, t1_max_fs, t2_fs, extra_idler_delay_fs=0.0, resolution=1.0):
    """``correlator_sizes``'s signal axis (half_s, n_s), and the signal step, idler delay
    and resolution of its pump lattice, which is not built."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    resolution = max(resolution, 0.5)
    dl = crystal.dl
    phase_rate = abs(t1_max_fs) + abs(t2_fs) + abs(extra_idler_delay_fs) + 1.0
    if not np.isfinite(phase_rate):
        raise ValueError(f"delays must be finite, got t1_max_fs = {t1_max_fs!r}, t2_fs ="
                         f" {t2_fs!r} and extra_idler_delay_fs = {extra_idler_delay_fs!r}")
    half_s = 2.0 * TAIL_SINC_ARG / dl + _ridge(crystal, "exact") * 8.0 / pump.t0_fs
    h_s = np.pi / (2.0 * resolution * (phase_rate + dl))
    n_s = int(np.ceil(2.0 * half_s / h_s)) | 1
    # the step of _symmetric_axis(half_s, n_s), which ends at +-half_s exactly
    step = 2.0 * half_s / (n_s - 1)
    return half_s, n_s, (step, abs(t2_fs) + abs(extra_idler_delay_fs), resolution)


def _lattice(
    crystal: CrystalParams, pump: PumpPulse, signal_step: float, *, delay_fs: float,
    resolution: float,
) -> tuple[np.ndarray, int, int]:
    """The idler reduction's pump lattice for a signal step: ``_u_axis``'s (u, m), and
    the stride of the embedded coarse rule over u. That is 2, or 1 where ``_u_axis`` at
    half the resolution and twice the step keeps its 33-point floor, so that halving u
    would not halve its resolution."""
    u, m = _u_axis(crystal, pump, lattice_step=signal_step, delay_fs=delay_fs,
                   resolution=resolution)
    half = 2 * _u_lattice(crystal, pump, lattice_step=2.0 * signal_step, delay_fs=delay_fs,
                          resolution=resolution / 2.0)[0] + 1
    return u, m, 2 if abs(half - (u.size + 1) // 2) < abs(half - u.size) else 1


def _u_axis(crystal: CrystalParams, pump: PumpPulse, **lattice) -> tuple[np.ndarray, int]:
    """``_u_lattice``'s pump-detuning lattice u_j = j h, |j| <= half_j, built, and m."""
    half_j, h, m = _u_lattice(crystal, pump, **lattice)
    return np.arange(-half_j, half_j + 1) * h, m


def _u_lattice(
    crystal: CrystalParams,
    pump: PumpPulse,
    *,
    lattice_step: float,
    delay_fs: float = 0.0,
    resolution: float = 1.0,
) -> tuple[int, float, int]:
    """Pump-detuning lattice u_j = j h, |j| <= half_j, of the idler reduction, as
    (half_j, h, m) with m = h_s / h.

    The lattice spans the pump band +-8/T0 with at least 33 points, at a step,
    divided by ``resolution``, that resolves the pump Gaussian, the phase
    matching along u and the idler phase over ``delay_fs`` (|T2| plus the
    sample delay). h = h_s / m for the signal step h_s (``lattice_step``) and
    the smallest whole m that is no coarser, so every wi = u_j - ws_n is on it.
    """
    t0 = pump.t0_fs
    b_u = abs(crystal.D_plus - crystal.D / 2.0) * crystal.length_mm / 2.0
    h_u = min(
        0.5 / t0,
        np.pi / (8.0 * b_u) if b_u > 0 else np.inf,
        0.4 / (delay_fs + 1.0),
    ) / resolution
    half_u = 8.0 / t0
    n_u = max(33, int(np.ceil(2.0 * half_u / h_u)) | 1)
    m = int(np.ceil(lattice_step / (2.0 * half_u / (n_u - 1))))
    h = lattice_step / m
    return int(np.ceil(half_u / h)), h, m


def _kernel_args(
    crystal: CrystalParams, kernel: str, omega_s: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D parts b_n, a_j of the phase-matching argument dk L / 2 = a_j + b_n.

    a = (D_plus - D/2) u L/2 and b = D ws L/2.
    """
    half_l = crystal.length_mm / 2.0
    a = (_walkoff(crystal, kernel) - crystal.D / 2.0) * half_l * u
    b = crystal.D * half_l * omega_s
    return b, a


def _kernel_columns(kernel: str, a: np.ndarray) -> np.ndarray:
    """Right factors of ``_kernel_block``'s products for the column arguments a.

    A (p, 2, n) stack, built once per stream and shared by its row blocks:
    [1; a] last, for the argument, and before it, for the exact kernel only,
    [cos a; 0] and [0; sin a] for the two terms of the sine.
    """
    a = np.asarray(a, dtype=float)
    columns = np.zeros((3 if kernel == "exact" else 1, 2, a.size))
    columns[-1, 0] = 1.0
    columns[-1, 1] = a
    if kernel == "exact":
        np.cos(a, out=columns[0, 0])
        np.sin(a, out=columns[1, 1])
    return columns


def _kernel_block(kernel: str, b: np.ndarray, columns: np.ndarray, work) -> np.ndarray:
    """Signed PM(b_n + a_j) over the (n, j) block: sinc, or exp(-(alpha x)^2).

    ``columns`` is ``_kernel_columns(kernel, a)``. Built in ``work[0]``, with
    ``work[1]`` (same shape, untouched by the Gaussian) as scratch.
    sin(a + b) = sin b cos a + cos b sin a is two products of 1-D trig
    values, and the argument is the sum b + a. Each is one matrix product
    of an (m, 2) by a (2, n) factor whose other term is an exact 0 or 1:
    [sin b, cos b] by [cos a; 0] and by [0; sin a], and [b, 1] by [1; a].
    BLAS writes such a block in a half to two thirds of the time
    ``np.ufunc.outer`` takes, and each element is still one product or one
    sum rounded once, with or without FMA and for any BLAS or thread count;
    so the two products are rounded apart and added, as two outer products
    would be, and the block is bit for bit the outer-product one. The
    identity's error of a few ulp is divided by the argument, so below
    DIRECT_SINC_ARG the sine is taken of the summed argument itself.
    """
    block, arg = work
    terms = np.ones((b.size, 2))
    terms[:, 0] = b
    if kernel == "gaussian":
        np.matmul(terms, columns[-1], out=block)
        block *= SINC_GAUSS_ALPHA
        block *= block
        np.negative(block, out=block)
        return np.exp(block, out=block)
    trig = np.stack((np.sin(b), np.cos(b)), axis=1)
    np.matmul(trig, columns[0], out=block)
    block += np.matmul(trig, columns[1], out=arg)
    np.matmul(terms, columns[-1], out=arg)
    with np.errstate(divide="ignore", invalid="ignore"):
        block /= arg
    # only rows whose argument range reaches zero can hold a small argument,
    # and in them only columns within 2 DIRECT_SINC_ARG of -b, a superset
    a = columns[-1, 1]
    rows = _span((b > -a.max() - DIRECT_SINC_ARG) & (b < -a.min() + DIRECT_SINC_ARG))
    near_b = b[rows]
    cols = _span(
        (a > -near_b.max(initial=-np.inf) - 2.0 * DIRECT_SINC_ARG)
        & (a < -near_b.min(initial=np.inf) + 2.0 * DIRECT_SINC_ARG)
    )
    near_arg, part = arg[rows, cols], block[rows, cols]
    near = (near_arg > -DIRECT_SINC_ARG) & (near_arg < DIRECT_SINC_ARG)
    part[near] = sinc(near_arg[near])
    return block


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True of a 1-D mask; empty when none is."""
    hits = np.flatnonzero(mask)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


def _reduction_band(n_s: int, u: np.ndarray, m: int) -> float:
    """The largest |wi| [rad/fs] at which ``_pump_quadrature`` reads r for n_s signal
    nodes on the lattice (u, m): row 0's last index, (n_s - 1) // 2 m + n_u // 2, times
    the lattice step h, in the reduction's own float arithmetic."""
    return float(((n_s - 1) // 2 * m + u.size // 2) * (u[-1] / (u.size // 2)))


def _correlator_cost(crystal: CrystalParams, pump: PumpPulse, delays: int,
                     **sizing) -> tuple[int, int]:
    """What ``PairCorrelator(crystal, pump, sample, **sizing)`` costs for ``delays`` delays,
    from its sizes alone, nothing built: the (ws, u) elements its idler reduction builds,
    (n_s + 1) // 2 n_u, and the bytes its signal-axis arrays reach, in the chirp-z
    transform: R and its coarse rule, 32 bytes a node, and five complex arrays of the
    transform's length. tracemalloc read 0.96 of this at 0.46 and 1.8 million nodes, a
    scan's peak there."""
    _, n_s, (step, delay_fs, resolution) = _signal_sizes(crystal, pump, **sizing)
    half_j = _u_lattice(crystal, pump, lattice_step=step, delay_fs=delay_fs,
                        resolution=resolution)[0]
    return (n_s + 1) // 2 * (2 * half_j + 1), 16 * (2 * n_s + 5 * _transform_length(n_s, delays))


def _reduction_threads() -> int:
    """Threads of the idler reduction: the CPUs this process may run on, at most two, the
    count at which the split was measured to gain."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _pump_quadrature(
    crystal: CrystalParams,
    pump: PumpPulse,
    omega_s: np.ndarray,
    lattice: tuple[np.ndarray, int, int],
    *,
    sample: SampleModel,
    t2_fs: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Idler-side integral of the pair kernel over the pump detuning u = ws + wi.

        R(ws) = sum_u w_u |F(u)|^2 sinc^2(dk L / 2) f(wi),  f(wi) = r*(wi) e^{i wi T2},  wi = u - ws

    sinc^2 is the square of ``_kernel_block`` over the lattice (u, m, stride) that
    ``_lattice`` sizes for ``omega_s``'s step (``correlator_sizes``), in chunks of rows
    of about BLOCK_ELEMENTS / T block elements on T threads: ``_reduction_threads``, at
    most the number of chunks. Thread t takes chunks t, t + T, ... on its own scratch,
    the caller's thread the chunks from 0, so the scratch summed over the threads is
    the serial one's. Each row's sums depend on its row alone, not on its chunk, and
    the chunks write disjoint rows of R, so R is the same bit for bit for every T. The
    caller joins the other threads, and raises again what one of them raised.

    ``omega_s`` must be ``_symmetric_axis``'s, ws_{N-1-n} = -ws_n bit for bit,
    as PairCorrelator's is. Both the pump and sinc^2 are even, and the u axis
    is antisymmetric in the same way, so row N-1-n of the block is row n
    reversed. Only the rows n <= (N-1)/2 are built, and each reduces twice:
    R(ws_n) against f(wi) and R(ws_{N-1-n}) against f(-wi). The middle row
    of an odd axis reduces once.

    Row n reads the lattice indices kappa = ((N-1)/2 - n) m - n_u // 2 + j, so r is
    read on +-``_reduction_band`` and nowhere beyond.
    Each chunk of c rows evaluates f(wi) and f(-wi) on the (c - 1) p + n_u
    points its rows read, p = min(m, n_u), into one buffer pair allocated for
    the largest chunk, and sees them as the (ws, u) block through a
    sliding-window view with row stride -p. The real weighted block is
    reduced against that view's (re, im) pairs, so no complex block and no
    2-D interpolation is formed.

    Returns R, and R on ``omega_s[::2]`` by the embedded coarse rule of Romberg
    integration: the trapezoid rule at twice the step on nodes of this one, at
    u[::2] with twice the weights from the values each chunk holds, or, at
    stride 1, R[::2].
    """
    n_s, (u, m, stride) = omega_s.size, lattice
    thin = stride == 2
    t0 = pump.t0_fs
    n_u = u.size
    pump_row = (t0 / np.sqrt(np.pi)) * np.exp(-((u * t0) ** 2)) * _trapezoid_weights(u)
    b, a = _kernel_args(crystal, "exact", omega_s, u)
    columns = _kernel_columns("exact", a)
    # rows n < paired also give row N-1-n; rows from top on are not built
    paired = n_s // 2
    top = n_s - paired
    threads = _reduction_threads()
    chunk = min(top, max(1, BLOCK_ELEMENTS // threads // n_u))
    threads = min(threads, -(-top // chunk))
    p = min(m, n_u)
    h = u[-1] / (n_u // 2)
    out = np.empty(n_s, dtype=complex)
    coarse = np.empty(n_s, dtype=complex) if thin else out

    def share(first: int) -> None:
        """Chunks first, first + threads, ..., on this thread's own scratch."""
        work = np.empty((2, chunk, n_u))
        buffers = np.empty((2, (chunk - 1) * p + n_u), dtype=complex)
        # window w of each buffer reads its (re, im) pairs from w p to w p + n_u - 1
        windows = np.lib.stride_tricks.sliding_window_view(
            buffers.view(np.float64).reshape(2, -1, 2), (n_u, 2), axis=(1, 2))[:, ::p, 0]
        for lo in range(first * chunk, top, threads * chunk):
            hi = min(lo + chunk, top)
            rows = hi - lo
            size = (rows - 1) * p + n_u
            # position q holds column q % p of row hi - 1 - q // p, so row lo + r
            # reads window rows - 1 - r
            start = ((n_s - 1) / 2.0 - (hi - 1)) * m - n_u // 2  # row hi - 1's first kappa
            kappa = np.add.outer(np.arange(-(-size // p)) * float(m) + start,
                                 np.arange(p, dtype=float))
            wi = kappa.ravel()[:size]
            wi *= h
            fs = buffers[:, :size]
            _idler_factor(sample, t2_fs, wi, fs[0])
            _idler_factor(sample, t2_fs, -wi, fs[1])
            block = _kernel_block("exact", b[lo:hi], columns, work[:, :rows])
            block *= block
            block *= pump_row
            views = windows[:, rows - 1 :: -1]
            out[lo:hi] = (block[:, None, :] @ views[0]).view(complex).ravel()
            k = min(hi, paired) - lo
            mirror = (block[:k, None, :] @ views[1][:k]).view(complex).ravel()
            out[n_s - lo - k : n_s - lo] = mirror[::-1]
            if thin:  # the rows of even index, and the rows whose mirrors have one
                for view, ev, target in (
                    (views[0], slice(lo % 2, None, 2), coarse[lo:hi]),
                    (views[1], slice((n_s - 1 - lo) % 2, k, 2),
                     coarse[n_s - hi : n_s - lo][::-1]),
                ):
                    target[ev] = 2.0 * (block[ev, None, ::2] @ view[ev, ::2]).view(
                        complex).ravel()

    errors = [None] * threads

    def worker(first: int) -> None:
        """``share(first)`` on a thread of its own, keeping what it raises."""
        try:
            share(first)
        except BaseException as exc:  # raised again by the caller once joined
            errors[first] = exc

    started = []
    try:
        for first in range(1, threads):
            thread = threading.Thread(target=worker, args=(first,), name=f"reduction-{first}")
            thread.start()
            started.append(thread)
        share(0)
    finally:
        for thread in started:
            thread.join()
    for exc in filter(None, errors):
        raise exc
    return out, coarse[::2]


def _idler_factor(sample: SampleModel, t2_fs: float, wi: np.ndarray, f) -> None:
    """Write f(wi) = r*(wi) e^{i wi T2} to ``f``."""
    np.conjugate(sample.reflectivity(wi), out=f)
    if t2_fs != 0.0:
        f *= np.exp(1j * t2_fs * wi)
