"""Pointwise pair amplitudes: the reference the streamed row blocks are checked against.

The package builds the amplitude F(ws + wi) PM(dk L / 2) only in blocks of
signal rows (``biphoton._amplitude_rows``). These are the same model written
out point by point, with the exact kernel's leading factor i sigma L, for the
tests to compare those blocks with.
"""

import numpy as np

from nlintsim.optics_model import SINC_GAUSS_ALPHA, CrystalParams, PumpPulse, pump_amplitude, sinc


def phase_mismatch(crystal: CrystalParams, omega_s, omega_i):
    """First-order wave vector mismatch Delta k [rad/mm].

    Delta k = D_plus*(omega_s + omega_i) + D*(omega_s - omega_i)/2 under a
    first-order Taylor expansion with perfect matching at the carriers.
    """
    return crystal.D_plus * (omega_s + omega_i) + crystal.D * (omega_s - omega_i) / 2.0


def biphoton_exact(crystal: CrystalParams, pump: PumpPulse, omega_s, omega_i):
    """Sinc-kernel pair amplitude i sigma L F(ws + wi) sinc(dk L / 2)."""
    ws = np.asarray(omega_s, dtype=float)
    wi = np.asarray(omega_i, dtype=float)
    return (
        1j * crystal.sigma * crystal.length_mm
        * pump_amplitude(pump, ws + wi)
        * sinc(phase_mismatch(crystal, ws, wi) * crystal.length_mm / 2.0)
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
