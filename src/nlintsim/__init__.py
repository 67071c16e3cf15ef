"""Induced-coherence nonlinear interferometer simulator.

Low-gain model of two pulsed parametric down-conversion sources sharing an
idler path: biphoton joint spectra and Schmidt analysis, first-order
coherence between the signal beams, and depth-scan interferograms of layered
samples probed by the idler.
"""

from .optics_model import (
    AnalysisError,
    BilayerSample,
    C_MM_FS,
    C_NM_FS,
    CrystalParams,
    FrequencyGrid,
    GridResolutionError,
    InterferometerGeometry,
    NumericalConsistencyError,
    PumpPulse,
    SINC_GAUSS_ALPHA,
    TabulatedSample,
    UniformSample,
    gamma_param,
    grid_half_width,
    make_frequency_grid,
    mgo_linbo3_crystal,
    nonlinear_sigma,
    pump_amplitude,
    wavelength_to_omega,
)
from .biphoton import (
    JointSpectrum,
    SchmidtReport,
    SignalSpectrum,
    gaussian_marginal_fwhm,
    joint_spectral_intensity,
    joint_spectrum_rows,
    marginal_spectrum,
    schmidt_analysis,
    schmidt_gaussian,
    schmidt_rows,
    signal_spectrum,
)
from .coherence import (
    PairCorrelator,
    Timing,
    g1_closed_form,
    g1_envelope,
    g1_scan,
    geometry_for_delta_z,
    photon_number,
    synchronize_pump_path,
    timing_from_geometry,
    tri,
)
from .oct_scan import (
    Interferogram,
    PeakReport,
    axial_resolution,
    envelope_peaks,
    interferogram_bilayer,
    interferogram_closed_form,
    interferogram_numeric,
    predicted_peak_shift,
    scan_axis,
)
from .cli_runner import (
    RunManifest,
    Scenario,
    ScenarioError,
    parse_scenario,
    render_scenario,
    run_scenario,
)

__version__ = "0.1.0"
