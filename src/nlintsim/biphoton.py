"""Biphoton wavefunction on a frequency grid, marginals and Schmidt analysis.

Two kernels are provided. The exact kernel keeps the sinc phase matching and
the pump walk-off D_plus; the Gaussian kernel replaces sinc(x) by
exp(-(alpha x)^2) and sets D_plus = 0, which makes the two-mode structure
analytically Gaussian. On a grid, phase matching is the signed block that
the idler reduction of ``coherence`` squares. Unit-modulus phase factors that
separate, the exact kernel's factor i among them, drop out of every intensity
and Schmidt observable, so the grid amplitude is real. Signal and idler share
the grid's one uniform axis; quadratures weigh by its weights w on each side,
w^T |amp|^2 w, and the marginal and Schmidt analysis check this norm is 1.
``joint_spectrum_rows`` and ``schmidt_rows`` build the amplitude in blocks of
about ``coherence.BLOCK_ELEMENTS`` elements of signal rows, the one block
budget of every streamed kernel evaluation, so neither holds an N x N array;
``joint_spectral_intensity`` holds the whole amplitude and, with
``marginal_spectrum`` and ``schmidt_analysis``, is the oracle of those
streams. The pump and the phase matching are even and the grid's axis is
antisymmetric bit for bit, so the amplitude is centrosymmetric bit for bit,
amp[N-1-n, N-1-j] = amp[n, j]. Both streams evaluate only its top
ceil(N / 2) signal rows: the exact marginal and slice read the lower rows as
top rows reversed, and ``schmidt_rows`` splits the weighted amplitude into
its even and odd parity sectors of about N / 2.
The Gaussian kernel's amplitude is a pump factor of ws + wi times a phase
matching factor of ws - wi, so ``joint_spectrum_rows`` evaluates only its
strided slice and takes the marginal from the two factors on the grid's
2N - 1 sums and differences. Its signal marginal's width has a closed form,
``gaussian_marginal_fwhm``, and so has its Schmidt spectrum, in gamma,
``schmidt_gaussian``. For any amplitude, ``schmidt_rows`` takes the Schmidt
coefficients in one loop over the two parity sectors of the weighted
amplitude m, as the Ritz values of each sector on the range of a block of
its own columns (a Rayleigh-Ritz step, cf. Halko, Martinsson & Tropp,
SIAM Rev. 53, 217, 2011), so that no N x N Gram matrix m m^T is formed.
Each sector's block doubles until the mass it leaves unresolved is below
SCHMIDT_MASS_TOL, which bounds the error of every Ritz value by that mass
whatever the block (Weyl's inequality); once a block would span half its
sector, Q = I and its coefficients are the eigenvalues of that sector's
own Gram matrix. The first block has SCHMIDT_BLOCK columns, except in the
scenario runner's ``schmidt`` task: the number of Schmidt modes is a
property of the state, not of the grid (Law, Walmsley & Eberly), so the run
grid starts at the block that the coarsen check's grid of N/2 points
accepted, and mostly takes one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coherence import (
    BLOCK_ELEMENTS,
    _kernel_args,
    _kernel_block,
    _kernel_columns,
    _pump_quadrature,
    _ridge,
    _span,
)
from .optics_model import (
    AnalysisError,
    C_NM_FS,
    CrystalParams,
    FrequencyGrid,
    NumericalConsistencyError,
    PumpPulse,
    SINC_GAUSS_ALPHA,
    TWO_PI,
    _symmetric_axis,
    _trapezoid_weights,
    pump_amplitude,
    sinc,
)

NORMALIZATION_TOL = 1e-6

# Schmidt Rayleigh-Ritz: first block size, and the unresolved share of
# ||m||_F^2 below which a block is accepted.
SCHMIDT_BLOCK = 64
SCHMIDT_MASS_TOL = 1e-13

# Smallest Schmidt coefficient that schmidt.json writes and schmidt_gaussian keeps.
SCHMIDT_COEFF_FLOOR = 1e-12


def biphoton_exact(crystal: CrystalParams, pump: PumpPulse, omega_s, omega_i):
    """Sinc-kernel pair amplitude i sigma L F(ws + wi) sinc(dk L / 2)."""
    ws = np.asarray(omega_s, dtype=float)
    wi = np.asarray(omega_i, dtype=float)
    return (
        1j * crystal.sigma * crystal.length_mm
        * pump_amplitude(pump, ws + wi)
        * sinc(crystal.phase_mismatch(ws, wi) * crystal.length_mm / 2.0)
    )


def biphoton_gaussian(crystal: CrystalParams, pump: PumpPulse, omega_s, omega_i):
    """Gaussian-approximated pair amplitude, analytically unit-normalized.

    (alpha T0 |D| L / (sqrt(2) pi))^(1/2)
        * exp[-(ws+wi)^2 T0^2 / 2] * exp[-alpha^2 (D L)^2 (ws-wi)^2 / 16]

    D_plus is ignored by construction.
    """
    ws = np.asarray(omega_s, dtype=float)
    wi = np.asarray(omega_i, dtype=float)
    t0 = pump.t0_fs
    dl = crystal.dl
    pref = np.sqrt(SINC_GAUSS_ALPHA * t0 * dl / (np.sqrt(2.0) * np.pi))
    return pref * np.exp(
        -0.5 * ((ws + wi) * t0) ** 2
        - (SINC_GAUSS_ALPHA * dl / 4.0) ** 2 * (ws - wi) ** 2
    )


@dataclass(frozen=True)
class JointSpectrum:
    """Pair amplitude on a FrequencyGrid: signal rows, idler columns, one axis.

    ``joint_spectral_intensity`` stores a real amplitude of unit quadrature
    norm; a caller may pass a complex one, which every method here accepts.
    """

    grid: FrequencyGrid
    amplitude: np.ndarray

    def __post_init__(self):
        self.amplitude.setflags(write=False)

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2

    def quadrature_norm(self) -> float:
        """Sum |amplitude|^2 dws dwi over the grid, w^T |amplitude|^2 w."""
        w = self.grid.weights_s
        return float(w @ self.intensity @ w)


def joint_spectral_intensity(
    kernel: str,
    crystal: CrystalParams,
    pump: PumpPulse,
    grid: FrequencyGrid,
) -> JointSpectrum:
    """Real pair amplitude F(ws + wi) PM(dk L / 2) on ``grid``, of unit quadrature sum.

    ``kernel`` is "exact" (``biphoton_exact`` less its factor i) or "gaussian".
    The amplitude is ``_amplitude_rows`` in one block of all N rows.
    """
    n = grid.n_points
    work = (np.empty((n, n)), np.empty((n, n)))
    ((_, amp),) = _amplitude_rows(kernel, crystal, pump, grid.omega_s, work)
    del work  # the scratch half is freed before the norm's N x N temporary
    w = grid.weights_s
    norm = w @ (amp * amp) @ w
    if norm <= 0:
        raise NumericalConsistencyError("joint spectrum has zero quadrature norm")
    amp /= np.sqrt(norm)
    return JointSpectrum(grid=grid, amplitude=amp)


def joint_spectrum_rows(
    kernel: str,
    crystal: CrystalParams,
    pump: PumpPulse,
    grid: FrequencyGrid,
    stride: int,
) -> tuple[np.ndarray, SignalSpectrum]:
    """Strided intensity slice and signal marginal of the unit-norm pair amplitude.

    The same amplitude as ``joint_spectral_intensity``, without an N x N
    array: the exact kernel's is streamed (``_streamed_rows``), and the
    Gaussian kernel's comes from its two 1-D factors (``_gaussian_rows``).
    The norm is the marginal's quadrature sum; the strided amplitude is
    divided by sqrt(norm) before it is squared, so the slice is
    ``intensity[::stride, ::stride]`` of the unit-norm amplitude. A norm
    that is not positive raises NumericalConsistencyError.
    """
    axis, w = grid.omega_s, grid.weights_s
    if kernel == "gaussian":
        amp, dens = _gaussian_rows(crystal, pump, axis, w, stride)
    else:
        amp, dens = _streamed_rows(kernel, crystal, pump, axis, w, stride)
    norm = float(dens @ w)
    if not norm > 0:
        raise NumericalConsistencyError("joint spectrum has no positive quadrature norm")
    amp /= np.sqrt(norm)
    amp *= amp
    dens /= norm
    return amp, _signal_marginal(axis.copy(), dens, crystal)


def _streamed_rows(kernel: str, crystal: CrystalParams, pump: PumpPulse, axis, w, stride: int):
    """Unnormalized strided amplitude and signal marginal on ``axis``, streamed by rows.

    The amplitude is built in blocks of about BLOCK_ELEMENTS elements, a
    whole number of strides of signal rows each, over the top ceil(N / 2)
    rows only; each block copies its strided rows, and the reversed strided
    columns of the rows that mirror a strided row below the top, then
    squares itself in place and gives its weighted row sums to the marginal.
    The amplitude is centrosymmetric (module docstring), so the marginal is
    even, dens[N-1-n] = dens[n], and the slice is the evaluated one bit for bit.
    """
    n = axis.size
    top = n - n // 2
    height = min(top, max(1, BLOCK_ELEMENTS // (n * stride)) * stride)
    amp = np.empty((axis[::stride].size,) * 2)
    dens = np.empty(n)
    for lo, block in _amplitude_rows(kernel, crystal, pump, axis, np.empty((2, height, n)), top):
        rows = block[::stride, ::stride]
        amp[lo // stride : lo // stride + len(rows)] = rows
        # slice row (N - 1 - t) / stride is row t reversed, for the rows t below n - top
        first = lo + (n - 1 - lo) % stride
        mirrored = block[first - lo : max(0, n - top - lo) : stride, ::-1][:, ::stride]
        last = (n - 1 - first) // stride
        amp[last - len(mirrored) + 1 : last + 1] = mirrored[::-1]
        block *= block
        dens[lo : lo + len(block)] = block @ w
    dens[top:] = dens[: n - top][::-1]
    return amp, dens


def _amplitude_rows(kernel: str, crystal: CrystalParams, pump: PumpPulse, axis, work, stop=None):
    """Unnormalized amplitude F(ws + wi) PM(dk L / 2) on ``axis``, by blocks of signal rows.

    Yields (lo, the block of rows lo, lo + 1, ...) for the rows below
    ``stop`` (all N rows by default), each block built in ``work[0]`` with
    ``work[1]`` as scratch; the block height is that of ``work[0]``.
    """
    stop = axis.size if stop is None else stop
    row_args, columns, pump_rows = _amplitude_factors(kernel, crystal, pump, axis)
    for lo in range(0, stop, len(work[0])):
        rows = slice(lo, min(lo + len(work[0]), stop))
        block = _kernel_block(kernel, row_args[rows], columns, [part[: rows.stop - lo] for part in work])
        block *= pump_rows[rows]
        yield lo, block


def _amplitude_factors(kernel: str, crystal: CrystalParams, pump: PumpPulse, axis):
    """Row arguments and column factors of PM, and the pump factor, of the amplitude on ``axis``.

    PM is ``coherence._kernel_block`` at dk L / 2 = (b_n + a_n) + a_j, so the
    row arguments are b + a and the column factors those of the column
    arguments a, ``coherence._kernel_columns(kernel, a)``. The pump factor
    F(ws_n + wi_j) is an N x N Hankel view of F on the 2N - 1 sums
    ws_0 + wi_j, ws_N-1 + wi_j.
    """
    b, a = _kernel_args(crystal, kernel, axis, axis)
    lattice = np.concatenate((axis[0] + axis, axis[-1] + axis[1:]))
    pump_rows = sliding_window_view(pump_amplitude(pump, lattice), axis.size)
    return b + a, _kernel_columns(kernel, a), pump_rows


def _gaussian_rows(crystal: CrystalParams, pump: PumpPulse, axis, w, stride: int):
    """Unnormalized strided amplitude and signal marginal of the Gaussian kernel on ``axis``.

    The amplitude is F(ws_n + wi_j) G(ws_n - wi_j). The slice is
    ``_kernel_block`` times the pump factor on the strided rows and columns
    alone, in row blocks of about BLOCK_ELEMENTS elements, so each element
    is the streamed one bit for bit. The marginal
    dens_n = sum_j w_j F^2[n + j] G^2[n - j + N - 1] reads F^2 on the 2N - 1
    sums and G^2 on the 2N - 1 differences as a Hankel and a Toeplitz view,
    multiplied into one buffer per block of rows, over the columns where
    neither is exactly 0, and reduced by one matrix-vector product.
    """
    n = axis.size
    row_args, columns, pump_rows = _amplitude_factors("gaussian", crystal, pump, axis)
    args, pump_cut = row_args[::stride], pump_rows[::stride, ::stride]
    amp = np.empty((args.size,) * 2)
    height = max(1, BLOCK_ELEMENTS // args.size)
    for lo in range(0, args.size, height):
        block = amp[lo : lo + height]  # the Gaussian block needs no scratch
        _kernel_block("gaussian", args[lo : lo + height], columns[..., ::stride], (block, None))
        block *= pump_cut[lo : lo + height]

    a = columns[-1, 1]
    f2 = np.concatenate((pump_rows[0], pump_rows[-1, 1:])) ** 2
    diffs = np.concatenate((row_args[0] + a[::-1], row_args[1:] + a[0]))
    g2 = np.exp(-((SINC_GAUSS_ALPHA * diffs) ** 2)) ** 2
    hankel = sliding_window_view(f2, n)
    toeplitz = sliding_window_view(g2[::-1], n)[::-1]
    # row r reads nonzero F^2 for j in [p0 - r, p1 - r), nonzero G^2 for j in [r + N - q1, r + N - q0)
    p, q, r = _span(f2 > 0.0), _span(g2 > 0.0), np.arange(n)
    start = np.maximum(np.maximum(p.start - r, r + n - q.stop), 0)
    stop = np.minimum(np.minimum(p.stop - r, r + n - q.start), n)
    dens = np.zeros(n)
    height = max(1, BLOCK_ELEMENTS // n)
    buf = np.empty(height * n)
    for lo in range(0, n, height):
        live = lo + np.flatnonzero(start[lo : lo + height] < stop[lo : lo + height])
        if live.size:
            rows, cols = slice(live[0], live[-1] + 1), slice(start[live].min(), stop[live].max())
            part = buf[: live.size * (cols.stop - cols.start)].reshape(live.size, -1)
            np.multiply(hankel[rows, cols], toeplitz[rows, cols], out=part)
            dens[rows] = part @ w[cols]
    return amp, dens


def _require_unit_norm(norm: float, caller: str) -> None:
    """ValueError unless a quadrature norm is within NORMALIZATION_TOL of 1 (NaN is not)."""
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"{caller} requires a unit-norm JointSpectrum, norm {norm!r}")


@dataclass(frozen=True)
class SignalSpectrum:
    """Normalized signal marginal S(ws) with its measured bandwidth, and ``signal_spectrum``'s
    unnormalized density on ``omega_s[::2]`` by its embedded coarse rule (``coarse_density``;
    None for a grid marginal)."""

    omega_s: np.ndarray
    density: np.ndarray
    fwhm_rad_fs: float
    fwhm_nm: float
    coarse_density: np.ndarray | None = None

    def __post_init__(self):
        for values in (self.omega_s, self.density, self.coarse_density):
            if values is not None:
                values.setflags(write=False)


def fwhm_interpolated(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings.

    Raises AnalysisError when the peak sits at a grid edge or a half-maximum
    crossing is missing.
    """
    i = int(np.argmax(y))
    if i == 0 or i == y.size - 1:
        raise AnalysisError("peak at grid edge, FWHM undefined")
    return _half_max_width(x, y, i)


def _half_max_width(
    x: np.ndarray, y: np.ndarray, i: int, stop_at_neighbor: bool = False
) -> float:
    """Width between the half-height crossings on both flanks of the peak at ``i``.

    Each flank is walked outward to its first sample at or below half height
    and the crossing is interpolated linearly. Raises AnalysisError when a
    crossing lies outside the grid or, with ``stop_at_neighbor``, when a flank
    climbs into a neighboring peak before reaching half height.
    """
    xl = _half_max_crossing(x, y, i, -1, stop_at_neighbor)
    xr = _half_max_crossing(x, y, i, 1, stop_at_neighbor)
    return float(xr - xl)


def _half_max_crossing(x, y, i: int, step: int, stop_at_neighbor: bool):
    """Interpolated x where y first falls to y[i] / 2, walking from ``i`` by ``step``."""
    side = "left" if step < 0 else "right"
    half = y[i] / 2.0
    k = i
    while 0 < k < y.size - 1 and y[k] > half:
        k += step
        if stop_at_neighbor and y[k] > half and y[k] > y[k - step]:
            raise AnalysisError(f"{side} flank climbs into a neighboring peak")
    if y[k] > half:
        raise AnalysisError(f"{side} half-maximum crossing outside grid")
    a = min(k, k - step)  # same anchor on both flanks: it sets the last bit of a width
    return x[a] + (x[a + 1] - x[a]) * (half - y[a]) / (y[a + 1] - y[a])


def bandwidth_nm(fwhm_rad_fs: float, lambda0_nm: float) -> float:
    """Angular frequency FWHM [rad/fs] to wavelength FWHM [nm] about lambda0."""
    return lambda0_nm ** 2 * fwhm_rad_fs / (TWO_PI * C_NM_FS)


def marginal_spectrum(js: JointSpectrum, crystal: CrystalParams) -> SignalSpectrum:
    """Signal marginal S(ws) = sum_i |amp|^2 dwi; ValueError unless its quadrature sum is 1."""
    w = js.grid.weights_s
    dens = js.intensity @ w
    _require_unit_norm(float(dens @ w), "marginal_spectrum")
    return _signal_marginal(js.grid.omega_s.copy(), dens, crystal)


def _signal_marginal(omega_s, density, crystal, coarse_density=None) -> SignalSpectrum:
    """The SignalSpectrum of a unit-norm marginal, with its interpolated FWHM."""
    width = fwhm_interpolated(omega_s, density)
    return SignalSpectrum(
        omega_s=omega_s,
        density=density,
        fwhm_rad_fs=width,
        fwhm_nm=bandwidth_nm(width, crystal.lambda_s_nm),
        coarse_density=coarse_density,
    )


def signal_spectrum(
    crystal: CrystalParams,
    pump: PumpPulse,
    kernel: str = "exact",
    resolution: float = 1.0,
) -> SignalSpectrum:
    """Signal marginal by direct quadrature in pump-centered variables.

    Integrates |amp(ws, wi)|^2 over wi after substituting u = ws + wi, which
    keeps the pump Gaussian resolved for arbitrarily narrowband pumps; it is
    PairCorrelator's pump quadrature at r = 1 and T2 = 0. This is the
    production marginal; ``marginal_spectrum`` on a square grid matches it
    wherever that grid is resolvable. ``resolution`` scales both axis
    densities at fixed spans. The signal axis is exactly antisymmetric, so
    the even density is built on one half and mirrored. The axis is odd, and
    ``coarse_density`` is the density on ``omega_s[::2]`` by the embedded coarse
    rule, unnormalized: a width read from it does not depend on scale.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    t0 = pump.t0_fs
    half_s = max(24.0 / crystal.dl, 6.0 / t0) + _ridge(crystal, kernel) * 8.0 / t0
    ws = _symmetric_axis(half_s, max(257, int(4097 * resolution) | 1))
    dens, coarse = _pump_quadrature(crystal, pump, ws, kernel=kernel, resolution=resolution)
    dens = dens / np.sum(dens * _trapezoid_weights(ws))
    return _signal_marginal(ws, dens, crystal, coarse)


def gaussian_marginal_fwhm(crystal: CrystalParams, pump: PumpPulse) -> float:
    """FWHM [rad/fs] of the Gaussian kernel's signal marginal, in closed form.

    |amp|^2 = exp[-T0^2 (ws + wi)^2 - (c / 4) (ws - wi)^2] with
    c = 2 alpha^2 (D L / 2)^2; integrated over wi it leaves exp(-kappa ws^2),
    kappa = T0^2 c / (T0^2 + c / 4), of width 2 sqrt(ln 2 / kappa). It is the
    width ``signal_spectrum(kernel="gaussian")`` takes by quadrature.
    """
    t2 = pump.t0_fs ** 2
    c = 2.0 * (SINC_GAUSS_ALPHA * crystal.dl / 2.0) ** 2
    kappa = t2 * c / (t2 + c / 4.0)
    return 2.0 * float(np.sqrt(np.log(2.0) / kappa))


@dataclass(frozen=True)
class SchmidtReport:
    """Squared Schmidt coefficients (descending), mode count K and entropy.

    ``ritz_block`` is the column count k of ``schmidt_rows``' accepted
    Rayleigh-Ritz blocks, counted over its even and odd parity sectors:
    twice the larger block of the two where both closed with a proper block,
    twice the one block where only one did. None where both took Q = I or
    had no mass, and for the dense ``schmidt_analysis`` and the closed form.
    """

    coefficients: np.ndarray
    schmidt_number_K: float
    entropy_bits: float
    ritz_block: int | None = None

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    @property
    def total(self) -> float:
        return float(np.sum(self.coefficients))


def schmidt_analysis(js: JointSpectrum) -> SchmidtReport:
    """Schmidt decomposition of the quadrature-weighted amplitude matrix, by dense linear algebra.

    The amplitude is scaled by sqrt(w_j w_n) so the coefficients converge with
    grid refinement. lambda_n are the squared singular values, in descending
    order, of that weighted N x N matrix m (real for the amplitude of
    ``joint_spectral_intensity``, complex when a caller passes one): the
    eigenvalues of its Gram matrix m m^H. Only lambda above the rounding
    floor N eps lambda_1 (N grid points, eps the float64 machine epsilon) are
    kept; those below it are noise. K = 1 / sum lambda^2, E = -sum lambda
    log2 lambda over the kept modes. A non-finite amplitude or a failed
    factorization raises NumericalConsistencyError; ||m||_F^2 (the
    quadrature norm) off 1 by more than NORMALIZATION_TOL raises ValueError.
    This is the reference of ``schmidt_rows``, which forms no N x N array.
    """
    sw = np.sqrt(js.grid.weights_s)
    m = js.amplitude * sw[:, None]
    m *= sw
    mass = float(np.vdot(m, m).real)
    if not np.isfinite(mass):
        raise _schmidt_error(js.grid, "non-finite amplitude")
    _require_unit_norm(mass, "schmidt_analysis")
    try:
        lam = np.linalg.eigvalsh(m @ m.conj().T)[::-1]
    except np.linalg.LinAlgError as exc:
        raise _schmidt_error(js.grid, exc) from exc
    return _schmidt_report(lam, js.grid.n_points, None)


def schmidt_rows(
    kernel: str,
    crystal: CrystalParams,
    pump: PumpPulse,
    grid: FrequencyGrid,
    *,
    first_block: int = SCHMIDT_BLOCK,
) -> SchmidtReport:
    """``schmidt_analysis(joint_spectral_intensity(...))``, without an N x N array.

    m, the weighted, unnormalized amplitude, is centrosymmetric (module
    docstring), and the orthonormal even and odd vectors
    (e_j +- e_{N-1-j}) / sqrt 2 split it into two parity sectors over its top
    rows i: the even sector E[i, j] = m[i, j] + m[i, N-1-j] of order
    ceil(N / 2) and the odd sector O[i, j] = m[i, j] - m[i, N-1-j] of order
    floor(N / 2). For odd N, E's middle row and column are those of m times
    sqrt 2, and its corner is m[p, p]. The singular values of m are those of
    E and O together (Cantoni & Butler, Linear Algebra Appl. 13, 275, 1976),
    and ||m||_F^2, the quadrature norm, is the sum of their masses ||s||_F^2.

    A sector s takes the Ritz values of s s^T on an orthonormal block Q, the
    QR of evenly spaced columns c of s, evaluated directly as the top rows of
    m at c and N - 1 - c: the eigenvalues of B B^T with B = Q^T s, without
    forming s s^T. Each pass over the amplitude's top ceil(N / 2) rows (as in
    ``joint_spectrum_rows``, in blocks of about BLOCK_ELEMENTS elements)
    folds them into each open sector and sums its B and ||s||_F^2. With
    R = (I - Q Q^T) s, the mass the block misses, ||s||_F^2 - sum lambda, is
    tr R^T R, and s^T s = B^T B + R^T R, so by Weyl's inequality every
    lambda is within that mass of its exact value. Once twice a sector's
    block reaches its order, Q = I: B is s itself, copied together from the
    row blocks, and its lambda are the eigenvalues of s s^T.

    Both sectors close when the mass they miss together (0 at Q = I) is
    below SCHMIDT_MASS_TOL ||m||_F^2. Otherwise a sector closes when its own
    missed mass is below SCHMIDT_MASS_TOL ||s||_F^2, or at Q = I, or when its
    mass is 0 (it adds no coefficient), and a sector that stays open doubles
    its block, at the cost of one more pass. lambda are the Ritz values of
    both divided by ||m||_F^2. k, the Ritz columns of both sectors together,
    starts at ``first_block``, split evenly between them: each holds about
    half the modes. The scenario runner sets it to the ``ritz_block`` of its
    coarse grid (module docstring); the mass check still accepts every
    block. A non-finite mass, or a total that is not positive, checked
    before any B reaches eigvalsh, or a failed factorization raises
    NumericalConsistencyError.
    """
    axis = grid.omega_s
    n = axis.size
    sw = np.sqrt(grid.weights_s)
    row_args, col_factors, pump_rows = _amplitude_factors(kernel, crystal, pump, axis)
    half = n // 2  # the odd sector's order
    top = n - half
    sizes = (top, half)
    if top > half:
        # E's middle row and column, those of m times sqrt 2, and its corner m[p, p]
        # are the fold of two copies of the middle of m weighted by sqrt(1/2) more
        sw[half] *= np.sqrt(0.5)
    # BLAS sums a ragged last panel in another order where it meets a thread
    # boundary, so sector blocks carry zero rows or columns up to a multiple of
    # 64: their QR and B = Q^T s are then the same for any thread count
    padded = [-(-size // 64) * 64 for size in sizes]
    height = min(top, max(1, BLOCK_ELEMENTS // n))

    def fold(left, right, sector, lo, out):
        # rows lo, lo + 1, ... of sector 0 (even) or 1 (odd), from top rows at columns j
        # and N - 1 - j, into ``out``; returns the rows of ``out`` that the sector has
        out = out[: max(0, sizes[sector] - lo)]
        fold_op = np.add if sector == 0 else np.subtract
        fold_op(left[: len(out)], right[: len(out)], out=out[:, : left.shape[1]])
        return out

    widths = [max(1, first_block // 2)] * 2
    mass = [0.0, 0.0]
    closed = [None, None]  # per sector: (lambda, missed mass, its block's columns or None at Q = I)
    try:
        while None in closed:
            live = [i for i in (0, 1) if closed[i] is None]
            picks = [
                (np.arange(width) * size) // width if i in live and 2 * width < size else None
                for i, (width, size) in enumerate(zip(widths, sizes))
            ]
            qs = [None, None]
            if any(c is not None for c in picks):
                # the top rows of m at every pick c and at its mirror N - 1 - c, in one
                # evaluation, up to the column weights, which do not change a span
                idx = np.concatenate([np.concatenate((c, n - 1 - c)) for c in picks if c is not None])
                work = [np.empty((top, idx.size)), np.empty((top, idx.size))]
                block = _kernel_block(kernel, row_args[:top], col_factors[..., idx], work)
                del work  # the scratch half is freed before the QR
                block *= pump_rows[:top, idx]
                block *= sw[:top, None]
                at = 0
                for i, c in enumerate(picks):
                    if c is not None:
                        qs[i] = np.zeros((padded[i], c.size))
                        fold(block[:, at : at + c.size], block[:, at + c.size : at + 2 * c.size], i, 0, qs[i])
                        at += 2 * c.size
                del block
                qs = [None if c is None else np.linalg.qr(c)[0] for c in qs]
            b = [None, None]
            for i in live:
                mass[i] = 0.0
            folds = [np.zeros((height, width)) for width in padded]
            for lo, block in _amplitude_rows(kernel, crystal, pump, axis, np.empty((2, height, n)), top):
                block *= sw[lo : lo + len(block), None]
                block *= sw
                for i in live:
                    part = fold(block[:, : sizes[i]], block[:, ::-1][:, : sizes[i]], i, lo, folds[i][: len(block)])
                    # einsum's own loop, not a BLAS dot: the sum is the same for any thread count
                    mass[i] += float(np.einsum("ij,ij->", part, part))
                    if qs[i] is None:  # B = s, copied together from its row blocks
                        if lo == 0:
                            b[i] = np.empty((sizes[i], part.shape[1]))
                        b[i][lo : lo + len(part)] = part
                    elif lo == 0:
                        b[i] = qs[i][: len(part)].T @ part
                    else:
                        b[i] += qs[i][lo : lo + len(part)].T @ part
            total = sum(mass)
            if not np.isfinite(total):
                raise _schmidt_error(grid, "non-finite amplitude")
            if not total > 0.0:
                raise _schmidt_error(grid, "zero amplitude")
            found = list(closed)
            for i in live:
                if mass[i] == 0.0:  # no coefficient, and no block
                    found[i] = (np.empty(0), 0.0, None)
                    continue
                lam = np.linalg.eigvalsh(b[i] @ b[i].T)[::-1]
                found[i] = (lam, 0.0, None) if qs[i] is None else (lam, mass[i] - float(np.sum(lam)), widths[i])
            missed = sum(r[1] for r in found)
            for i in live:
                _, left, width = found[i]
                if missed < SCHMIDT_MASS_TOL * total or width is None or left < SCHMIDT_MASS_TOL * mass[i]:
                    closed[i] = found[i]
                else:
                    widths[i] *= 2
    except np.linalg.LinAlgError as exc:
        raise _schmidt_error(grid, exc) from exc
    lam = np.sort(np.concatenate([r[0] for r in closed]))[::-1]
    accepted = [r[2] for r in closed if r[2] is not None]
    return _schmidt_report(lam / total, n, 2 * max(accepted) if accepted else None)


def _schmidt_error(grid: FrequencyGrid, reason) -> NumericalConsistencyError:
    """The error of a Schmidt step that failed on ``grid`` for ``reason``."""
    n = grid.n_points
    return NumericalConsistencyError(
        f"Schmidt decomposition failed on a {n}x{n} grid (step={grid.step_s:.3e}): {reason}"
    )


def _schmidt_report(lam: np.ndarray, n: int, block: int | None) -> SchmidtReport:
    """The SchmidtReport of unit-sum Ritz values: those above N eps lambda_1, K and entropy."""
    lam = lam[lam > n * np.finfo(float).eps * lam[0]]
    k = 1.0 / float(np.sum(lam ** 2))
    entropy = -float(np.sum(lam * np.log2(lam)))
    return SchmidtReport(
        coefficients=lam,
        schmidt_number_K=k,
        entropy_bits=max(entropy, 0.0),
        ritz_block=block,
    )


def schmidt_gaussian(gamma: float, max_modes: int | None = None) -> SchmidtReport:
    """Schmidt spectrum of the Gaussian kernel's amplitude, in closed form.

    That amplitude is a 2-D Gaussian, whose Schmidt decomposition is exact
    (Mehler's formula; Law, Walmsley & Eberly, PRL 84, 5304, 2000):
    lambda_n = (1 - mu^2) mu^(2n) with mu = |gamma - 1| / (gamma + 1) and
    gamma = ``optics_model.gamma_param``. K = (gamma + 1/gamma) / 2 and
    E = -log2(1 - mu^2) - mu^2 / (1 - mu^2) log2 mu^2 are those of the whole
    series, E = 0 at the one mode of gamma = 1; the coefficients kept are
    those above SCHMIDT_COEFF_FLOOR, counted from mu before any is formed.
    ValueError unless gamma is positive and finite, or when more than
    ``max_modes`` coefficients would be kept.
    """
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    mu2 = ((gamma - 1.0) / (gamma + 1.0)) ** 2
    top = 4.0 * gamma / (gamma + 1.0) ** 2  # 1 - mu^2 without its cancellation
    k = (gamma + 1.0 / gamma) / 2.0
    if mu2 == 0.0:
        return SchmidtReport(coefficients=np.ones(1), schmidt_number_K=k, entropy_bits=0.0)
    # lambda_n > floor for n < log(floor / lambda_0) / log mu^2
    count = max(0, int(np.ceil(np.log(SCHMIDT_COEFF_FLOOR / top) / np.log(mu2))))
    if max_modes is not None and count > max_modes:
        raise ValueError(
            f"gamma = {gamma:.4g} has {count} Schmidt modes above {SCHMIDT_COEFF_FLOOR:g},"
            f" more than {max_modes}"
        )
    lam = top * mu2 ** np.arange(count + 1)  # one more absorbs the count's rounding
    entropy = -(np.log1p(-mu2) + mu2 / top * np.log(mu2)) / np.log(2.0)
    return SchmidtReport(
        coefficients=lam[lam > SCHMIDT_COEFF_FLOOR],
        schmidt_number_K=k,
        entropy_bits=float(entropy),
    )
