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
samples, which have no echoes, down the numeric route.

The numeric route integrates the pair kernels of the two sources over the
signal/idler detunings with the sample reflectivity folded in, and supports
arbitrary r(w). It reproduces the closed form to within its sinc^2 tail cut
and stays the closed form's test oracle. The idler integral is reduced once
per correlator (``_pump_quadrature``) as the square of the signed sinc block
``_kernel_block``, built by BLAS products of 1-D trig values, against
r*(wi) e^{i wi T2} read once per point of one 1-D idler lattice (the joint
spectrum takes the block unsquared). The pump and the phase matching are
even, and the signal and pump axes are exactly antisymmetric
(``_symmetric_axis``), so the block row at -ws is the row at ws reversed:
only the rows ws <= 0 are built, each reduced against f(wi) for ws and
against f(-wi) for -ws. The signal-frequency sum over a uniform delay axis
is then a chirp-z transform (Bluestein's algorithm), so a scan of K delays over N signal
frequencies costs O((N + K) log(N + K)) rather than O(N K). The route's convergence
check is a coarse rule embedded in the same nodes. Every streamed kernel evaluation,
here the idler reduction and the direct delay sum and in ``biphoton`` the
joint-spectrum and Schmidt row blocks, works in blocks of about BLOCK_ELEMENTS
elements, so its work arrays stay a few MB whatever the grid or the scan.
"""

from __future__ import annotations

import dataclasses
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
# reduction's (ws, u) chunks, the direct delay sum's (t1, ws) chunks and the
# row blocks of biphoton's joint-spectrum and Schmidt streams. About 2 MB per
# float64 work array, which stays in cache; 1e6-element blocks ran slower and
# held four times the memory.
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

    ``resolution`` scales step densities; spans are fixed by the physics so a
    refinement ladder measures pure discretization error. ``omega_s`` is
    exactly antisymmetric, so the idler reduction builds the block rows of
    one half and reduces each for ws and for its mirror -ws. Its point count
    is odd, so ``coarse_correlation`` takes ``omega_s[::2]`` by the embedded
    coarse rule of ``_pump_quadrature``: the halved-resolution check. Instances
    are read-only after construction; distinct delay batches may be evaluated
    concurrently against one instance.
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
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.crystal = crystal
        self.pump = pump
        self.t2_fs = float(t2_fs)
        t0 = pump.t0_fs
        dl = crystal.dl
        length = crystal.length_mm
        phase_rate = abs(t1_max_fs) + abs(t2_fs) + abs(extra_idler_delay_fs) + 1.0

        half_s = 2.0 * TAIL_SINC_ARG / dl + _ridge(crystal, "exact") * 8.0 / t0
        h_s = min(TWO_PI / dl / 8.0, 0.4 / phase_rate) / resolution
        n_s = int(np.ceil(2.0 * half_s / h_s)) | 1
        self.omega_s = _symmetric_axis(half_s, n_s)
        r_inner, r_coarse = _pump_quadrature(
            crystal, pump, self.omega_s,
            sample=sample,
            t2_fs=t2_fs,
            extra_delay_fs=extra_idler_delay_fs,
            resolution=resolution,
        )
        # sigma cancels against the analytic flux normalization 2 pi sigma^2 L/|D|
        norm = length * abs(crystal.D) / TWO_PI
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
        size = 1 << (n_w + n_t - 2).bit_length()
        kernel = np.zeros(size, dtype=complex)
        np.conjugate(chirp_k, out=kernel[:n_t])
        np.conjugate(chirp_n[:0:-1], out=kernel[size - n_w + 1 :])
        conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(kernel))[:n_t]
        return conv * chirp_k * np.exp(1j * (t1 + self.t2_fs) * ws[0])


def g1_scan(
    crystal: CrystalParams,
    pump: PumpPulse,
    geometry: InterferometerGeometry,
    sample: SampleModel,
    delta_z_mm: np.ndarray,
    *,
    resolution: float = 1.0,
    include_carrier: bool = True,
) -> np.ndarray:
    """Complex correlation over a path-delay scan (z3 varies, all else fixed)."""
    corr, t1 = _scan_correlator(crystal, pump, geometry, sample, delta_z_mm, resolution)
    g = corr.correlation(t1)
    if include_carrier:
        g = g * np.exp(1j * carrier_phase(crystal, geometry, delta_z_mm))
    return g


def _scan_correlator(crystal, pump, geometry, sample, delta_z_mm, resolution):
    """The correlator ``g1_scan`` builds for a path-delay scan, and the scan's delays T1."""
    t1 = np.asarray(delta_z_mm, dtype=float) / C_MM_FS
    corr = PairCorrelator(
        crystal,
        pump,
        sample,
        t2_fs=timing_from_geometry(geometry, crystal).t2_fs,
        t1_max_fs=float(np.max(np.abs(t1))) if t1.size else 0.0,
        resolution=resolution,
        extra_idler_delay_fs=_max_sample_delay(sample),
    )
    return corr, t1


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


def _u_axis(
    crystal: CrystalParams,
    pump: PumpPulse,
    *,
    kernel: str = "exact",
    t2_fs: float = 0.0,
    extra_delay_fs: float = 0.0,
    resolution: float = 1.0,
    lattice_step: float | None = None,
) -> tuple[np.ndarray, int]:
    """Pump-detuning axis u = ws + wi of the idler reduction, and its lattice ratio m.

    The axis spans the pump band +-8/T0 with a step that resolves the pump
    Gaussian, the phase-matching variation along u and the idler phase over
    T2 plus the sample delay, so it stays resolved for any pulse duration;
    ``resolution`` divides the step. Without ``lattice_step`` the axis is that
    uniform span and m is 0. Given the signal step h_s, the step is refined
    to h = h_s / m for the smallest whole m that is no coarser, and the axis
    becomes u_j = j h, so that every wi = u_j - ws_n lies on one lattice of
    step h.
    """
    t0 = pump.t0_fs
    b_u = abs(_walkoff(crystal, kernel) - crystal.D / 2.0) * crystal.length_mm / 2.0
    h_u = min(
        0.5 / t0,
        np.pi / (8.0 * b_u) if b_u > 0 else np.inf,
        0.4 / (abs(t2_fs) + abs(extra_delay_fs) + 1.0),
    ) / resolution
    half_u = 8.0 / t0
    n_u = max(33, int(np.ceil(2.0 * half_u / h_u)) | 1)
    if lattice_step is None:
        return _symmetric_axis(half_u, n_u), 0
    m = int(np.ceil(lattice_step / (2.0 * half_u / (n_u - 1))))
    h = lattice_step / m
    half_j = int(np.ceil(half_u / h))
    return np.arange(-half_j, half_j + 1) * h, m


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


def _pump_quadrature(
    crystal: CrystalParams,
    pump: PumpPulse,
    omega_s: np.ndarray,
    *,
    kernel: str = "exact",
    sample: SampleModel | None = None,
    t2_fs: float = 0.0,
    extra_delay_fs: float = 0.0,
    resolution: float = 1.0,
) -> np.ndarray:
    """Idler-side integral of the pair kernel over the pump detuning u = ws + wi.

        R(ws) = sum_u w_u |F(u)|^2 PM(dk L / 2) f(wi),  f(wi) = r*(wi) e^{i wi T2},  wi = u - ws

    PM is sinc^2 for the exact kernel and exp(-2 (alpha x)^2) for the Gaussian
    one, the square of ``_kernel_block`` over the u axis of ``_u_axis``.
    Rows are taken in chunks of about BLOCK_ELEMENTS block elements.

    ``omega_s`` must be ``_symmetric_axis``'s, ws_{N-1-n} = -ws_n bit for bit,
    as both callers' are. Both the pump and PM are even, and the u axis is
    antisymmetric in the same way, so row N-1-n of the block is row n
    reversed. Only the rows n <= (N-1)/2 are built, and each reduces twice:
    R(ws_n) against f(wi) and R(ws_{N-1-n}) against f(-wi). The middle row
    of an odd axis reduces once.

    With ``sample=None`` (r = 1) the block is reduced against the weighted
    pump row by a real matvec, and R is even: the upper rows are the lower
    ones reversed.

    With a sample, u is the lattice axis: wi = kappa h, and row n reads the
    lattice indices kappa = ((N-1)/2 - n) m - n_u // 2 + j. Chunks run from
    the last row built down to row 0, so outward from the middle. Each
    evaluates f once on the points it reads, min(m, n_u) per row plus the
    first row's tail (which the next chunk reuses), and sees them as the
    (ws, u) block through a strided view with row stride -min(m, n_u); the
    mirror rows read f(-wi) through the same view. Near the middle, f(-wi) at kappa is f at -kappa, which the chunk
    holds already; copied from there, it leaves r evaluated at as many
    points as the whole axis reads, with two f buffers per chunk. The real
    weighted block is reduced against that view's (re, im) pairs, so no
    complex block and no 2-D interpolation is formed.

    Returns R, and R on ``omega_s[::2]`` by the embedded coarse rule of Romberg
    integration: the trapezoid rule at twice the step on nodes of this one, at
    u[::2] with twice the weights from the values each chunk holds, or, where
    ``_u_axis`` at half the resolution keeps its 33-point floor, R[::2].
    """
    n_s = omega_s.size
    sizing = {"kernel": kernel, "t2_fs": t2_fs, "extra_delay_fs": extra_delay_fs}
    step = None if sample is None else (omega_s[-1] - omega_s[0]) / (n_s - 1)
    u, m = _u_axis(crystal, pump, **sizing, resolution=resolution, lattice_step=step)
    half = _u_axis(crystal, pump, **sizing, resolution=resolution / 2.0,
                   lattice_step=None if step is None else 2.0 * step)[0].size
    thin = abs(half - (u.size + 1) // 2) < abs(half - u.size)
    t0 = pump.t0_fs
    n_u = u.size
    pump_row = (t0 / np.sqrt(np.pi)) * np.exp(-((u * t0) ** 2)) * _trapezoid_weights(u)
    b, a = _kernel_args(crystal, kernel, omega_s, u)
    columns = _kernel_columns(kernel, a)
    # rows n < paired also give row N-1-n; rows from top on are not built
    paired = n_s // 2
    top = n_s - paired
    chunk = min(top, max(1, BLOCK_ELEMENTS // n_u))
    work = np.empty((2, chunk, n_u))
    if sample is None:
        out = np.empty(n_s)
        coarse, coarse_row = np.empty(n_s) if thin else out, np.zeros(n_u)
        coarse_row[::2] = 2.0 * pump_row[::2]  # a contiguous matvec beats a strided one
        for lo in range(0, top, chunk):
            hi = min(lo + chunk, top)
            block = _kernel_block(kernel, b[lo:hi], columns, work[:, : hi - lo])
            out[lo:hi] = np.square(block, out=block) @ pump_row
            if thin:
                coarse[lo:hi] = block @ coarse_row
        out[top:] = out[:paired][::-1]
        coarse[top:] = coarse[:paired][::-1]
        return out, coarse[::2]

    p = min(m, n_u)
    h = u[-1] / (n_u // 2)
    out = np.empty(n_s, dtype=complex)
    coarse = np.empty(n_s, dtype=complex) if thin else out
    buffers = np.empty((2, (chunk - 1) * p + n_u), dtype=complex)
    for hi in range(top, 0, -chunk):
        lo = max(0, hi - chunk)
        rows = hi - lo
        size = (rows - 1) * p + n_u
        fs = buffers[:, :size]
        if hi == top:
            kept = 0
        else:  # the previous (full) chunk's first row's tail, which this chunk's last row reads
            kept = n_u - p
            fs[:, :kept] = buffers[:, chunk * p : chunk * p + kept]
        # position q holds column q % p of row hi - 1 - q // p; each kappa is
        # a sum of whole or half numbers, exact, so wi(-kappa) = -wi(kappa)
        first = kept // p
        start = ((n_s - 1) / 2.0 - (hi - 1)) * m - n_u // 2  # row hi - 1's first kappa
        rows_kappa = np.arange(first, -(-size // p)) * float(m) + start
        kappa = np.add.outer(rows_kappa, np.arange(p, dtype=float))
        wi = kappa.ravel()[kept - first * p : size - first * p]
        wi *= h
        if hi == top:
            # the mirrors of the first size - skip points are points of this
            # chunk, reversed; only the rest of f(-wi) is new
            skip = (n_s - lo - hi) * p
            _idler_factor(sample, t2_fs, wi, fs[0])
            fs[1, : size - skip] = fs[0, : size - skip][::-1]
            _idler_factor(sample, t2_fs, -wi[size - skip :], fs[1, size - skip :])
        else:
            _idler_factor(sample, t2_fs, wi, fs[0, kept:], fs[1, kept:])
        block = _kernel_block(kernel, b[lo:hi], columns, work[:, :rows])
        block *= block
        block *= pump_row
        views = [_lattice_view(f, rows, n_u, p) for f in fs]
        out[lo:hi] = (block[:, None, :] @ views[0]).view(complex).ravel()
        k = min(hi, paired) - lo
        mirror = (block[:k, None, :] @ views[1][:k]).view(complex).ravel()
        out[n_s - lo - k : n_s - lo] = mirror[::-1]
        if thin:  # the rows of even index, and the rows whose mirrors have one
            for view, ev, target in (
                (views[0], slice(lo % 2, None, 2), coarse[lo:hi]),
                (views[1], slice((n_s - 1 - lo) % 2, k, 2), coarse[n_s - hi : n_s - lo][::-1]),
            ):
                target[ev] = 2.0 * (block[ev, None, ::2] @ view[ev, ::2]).view(complex).ravel()
    return out, coarse[::2]


def _idler_factor(sample: SampleModel, t2_fs: float, wi: np.ndarray, f, f_mirror=None) -> None:
    """Write f(wi) = r*(wi) e^{i wi T2} to ``f`` and, if given, f(-wi) to ``f_mirror``.

    f(-wi) takes the conjugate of the phase e^{i wi T2}, which is e^{-i wi T2}.
    """
    np.conjugate(sample.reflectivity(wi), out=f)
    if f_mirror is not None:
        np.conjugate(sample.reflectivity(-wi), out=f_mirror)
    if t2_fs != 0.0:
        phase = np.exp(1j * t2_fs * wi)
        f *= phase
        if f_mirror is not None:
            f_mirror *= np.conjugate(phase, out=phase)


def _lattice_view(f: np.ndarray, rows: int, n_u: int, p: int) -> np.ndarray:
    """(rows, n_u, 2) view of f's (re, im) pairs: row r reads f[(rows - 1 - r) p + j]."""
    pairs = f.view(np.float64)
    step = pairs.itemsize
    return np.lib.stride_tricks.as_strided(
        pairs[2 * (rows - 1) * p :],
        shape=(rows, n_u, 2),
        strides=(-2 * p * step, 2 * step, step),
        writeable=False,
    )
