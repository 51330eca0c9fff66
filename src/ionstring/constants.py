"""Physical constants and unit helpers shared across the package.

All internal frequencies are angular (rad/s). Interfaces that accept
plain Hz say so explicitly (``*_hz`` arguments / config keys).
"""

import numpy as np
from scipy import constants as _const

HBAR = _const.hbar
KB = _const.k
ELEMENTARY_CHARGE = _const.e
EPSILON_0 = _const.epsilon_0
ATOMIC_MASS = _const.atomic_mass

COULOMB_CONSTANT = 1.0 / (4.0 * np.pi * EPSILON_0)

# Sensitivity of the S1/2(m=+1/2) <-> D5/2(m=+5/2) stretch transition to
# magnetic field, in Hz per microgauss (Lande factors of the two levels).
FIELD_SENSITIVITY_HZ_PER_UG = 2.80


def omega_from_hz(f_hz: float) -> float:
    """Convert a plain frequency in Hz to angular frequency in rad/s."""
    return 2.0 * np.pi * f_hz


def mass_from_amu(amu: float) -> float:
    """Ion mass in kg from atomic mass units."""
    return amu * ATOMIC_MASS


def wavevector(wavelength: float) -> float:
    """Magnitude of the optical wavevector 2*pi/lambda in rad/m."""
    return 2.0 * np.pi / wavelength
