"""Physical constants and SI <-> natural-unit conversion.

Everything outside this module works in natural units (hbar = c = 1) where
the magnetic coupling enters only through beB = B|e|, an energy squared.
The CLI is the single place where Tesla and keV appear.
"""

import math

# CODATA-2018 values.
HBAR_J_S = 1.054571817e-34          # reduced Planck constant, J s
ELEMENTARY_CHARGE_C = 1.602176634e-19   # |e|, C (exact since 2019 SI)
SPEED_OF_LIGHT_M_S = 299792458.0    # c, m/s (exact)

KEV_TO_J = 1e3 * ELEMENTARY_CHARGE_C


def beb_over_m2(b_tesla: float, m_kev: float) -> float:
    """Magnetic coupling B|e| in units of the squared mass energy.

    In SI the energy-squared combination is hbar * c^2 * |e| * B, and the
    returned ratio is hbar |e| B / (m^2 c^2).  For B = 1 T and the electron
    this is about 2.27e-10: laboratory fields are a tiny perturbation on the
    rest energy, which is why the exact treatment stays numerically benign.
    """
    if b_tesla < 0.0:
        raise ValueError("magnetic field must be >= 0")
    if not math.isfinite(m_kev):
        raise ValueError("mass energy must be finite")
    if m_kev <= 0.0:
        raise ValueError("mass energy must be > 0")
    beb_j2 = HBAR_J_S * SPEED_OF_LIGHT_M_S**2 * ELEMENTARY_CHARGE_C * b_tesla
    m_j = m_kev * KEV_TO_J
    m_j2 = m_j * m_j
    if m_j2 == 0.0:
        raise ValueError("mass energy squared underflows to 0")
    ratio = beb_j2 / m_j2
    if not math.isfinite(ratio):
        raise ValueError("beB / m^2 is not finite")
    return ratio


def magnetic_length_m(b_tesla: float) -> float:
    """Physical radius (in meters) at which the rescaled radius equals 1.

    This is sqrt(2 hbar / (|e| B)); about 36 nm at one Tesla.  B = 0 maps to
    an infinite length; a field so small that |e| B underflows is rejected.
    """
    if not math.isfinite(b_tesla):
        raise ValueError("magnetic field must be finite")
    if b_tesla < 0.0:
        raise ValueError("magnetic field must be >= 0")
    if b_tesla == 0.0:
        return math.inf
    charge_field = ELEMENTARY_CHARGE_C * b_tesla
    if charge_field == 0.0:
        raise ValueError("|e| B underflows to 0")
    return math.sqrt(2.0 * HBAR_J_S / charge_field)
