"""Quantum numbers, energies and the four exact spinor families.

A state is labelled by the sign of its spin, the sign of its orbital angular
momentum, the magnitude l >= 0 of the latter, and the radial index p >= 0.
States with l = 0 belong to the (spin>0, OAM>=0) and (spin<0, OAM<=0)
families; the two mixed-sign families start at l = 1.

All spinors are evaluated unnormalised, exactly as the closed forms read;
``normalization_constant`` supplies the separate multiplier that makes the
transverse integral of the probability density equal one per unit length.
"""

from dataclasses import dataclass
import math
import operator

import numpy as np

from .laguerre import eval_laguerre, factorial_ratio

#: family keys in the canonical order used throughout
FAMILIES = ((1, 1), (-1, 1), (1, -1), (-1, -1))


@dataclass(frozen=True)
class QuantumNumbers:
    spin_sign: int
    oam_sign: int
    l: int
    p: int

    def __post_init__(self):
        if self.spin_sign not in (-1, 1) or self.oam_sign not in (-1, 1):
            raise ValueError("spin_sign and oam_sign must be +1 or -1")
        try:
            operator.index(self.l), operator.index(self.p)
        except TypeError:
            raise TypeError(f"l and p must be integers, got l={self.l!r}, p={self.p!r}") from None
        if self.l < 0 or self.p < 0:
            raise ValueError("l and p must be >= 0")
        if self.l == 0 and self.spin_sign != self.oam_sign:
            raise ValueError(
                "l = 0 states belong to the (spin>0, OAM>=0) and (spin<0, OAM<=0) "
                "families; use oam_sign = spin_sign"
            )

    @property
    def family(self):
        return (self.spin_sign, self.oam_sign)

    @property
    def canonical_jz(self) -> float:
        """Eigenvalue of -i d/dphi + Sigma_z/2: oam_sign*l + spin_sign/2."""
        return self.oam_sign * self.l + 0.5 * self.spin_sign

    @property
    def interaction_index(self) -> int:
        """Landau plus Zeeman energy squared in units of 2 B|e| (an integer)."""
        return (2 * self.p + self.l * (1 + self.oam_sign) + 1 + self.spin_sign) // 2

    @property
    def spin_orbit_mixing(self):
        """(amplitude, l', p') of the opposite-spin mixing column (``spinor_columns``).

        (l', p') labels the partner's scalar mode.  The protected ground family
        (spin<0, OAM<=0, p=0) is the one with p' = -1: no partner and no mixing.
        """
        return _SPIN_ORBIT_MIXING[self.family](self.l, self.p)

    def spin_orbit_partner(self):
        """The opposite-spin state sharing squared energy and canonical J_z.

        Returns None for the protected ground family (spin<0, OAM<=0, p=0),
        which has no degenerate opposite-spin companion.
        """
        _, l2, p2 = self.spin_orbit_mixing
        if p2 < 0:
            return None
        return QuantumNumbers(-self.spin_sign, self.oam_sign, l2, p2)


#: family -> (l, p) -> (mixing amplitude, l', p'); (l', p') labels the partner
_SPIN_ORBIT_MIXING = {
    (1, 1): lambda l, p: (1.0, l + 1, p),
    (-1, 1): lambda l, p: (-float(p + l), l - 1, p),
    (1, -1): lambda l, p: (-float(p + 1), l - 1, p + 1),
    (-1, -1): lambda l, p: (1.0, l + 1, p - 1),
}


def iter_states(lmax: int, pmax: int):
    """Every state with l <= lmax and p <= pmax, family by family, then l, then p."""
    for spin, oam in FAMILIES:
        lmin = 0 if spin == oam else 1
        for l in range(lmin, lmax + 1):
            for p in range(pmax + 1):
                yield QuantumNumbers(spin, oam, l, p)


@dataclass(frozen=True)
class BeamParameters:
    """Magnetic coupling beB = B|e| (energy^2), mass m and momentum k along the field."""
    beB: float
    m: float = 1.0
    k: float = 0.0

    def __post_init__(self):
        for name, value in (("beB", self.beB), ("mass", self.m), ("k", self.k)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for name, value in (("mass", self.m), ("k", self.k)):
            if not math.isfinite(value * value):
                raise ValueError(f"{name} squared overflows double precision")
        if self.beB < 0.0:
            raise ValueError("beB must be >= 0")
        if self.m <= 0.0:
            raise ValueError("mass must be > 0")

    @property
    def coordinate_scale(self) -> float:
        """sqrt(beB/2): the rescaled radius per unit physical radius."""
        return math.sqrt(self.beB / 2.0)


@dataclass(frozen=True)
class EnergyDecomposition:
    landau_sq: float
    zeeman_sq: float
    total: float

    @property
    def interaction_sq(self) -> float:
        """Landau plus Zeeman squared energy; exactly zero for the ground family."""
        return self.landau_sq + self.zeeman_sq


def energy(qn: QuantumNumbers, bp: BeamParameters) -> EnergyDecomposition:
    """Landau, Zeeman and total energy of the state.

    landau_sq = beB (2p + l(1 + oam_sign) + 1) is independent of l for
    negative orbital angular momentum (kinetic and magnetic parts cancel);
    zeeman_sq = spin_sign * beB.  The total is
    sqrt(m^2 + k^2 + landau_sq + zeeman_sq) and never drops below
    sqrt(m^2 + k^2), reached exactly by the p = 0 ground family where the
    Zeeman shift cancels the lowest Landau level.
    """
    landau_sq = bp.beB * (2 * qn.interaction_index - qn.spin_sign)
    zeeman_sq = float(qn.spin_sign) * bp.beB
    total = math.sqrt(bp.m**2 + bp.k**2 + landau_sq + zeeman_sq)
    return EnergyDecomposition(landau_sq, zeeman_sq, total)


def scalar_mode(qn: QuantumNumbers, bp: BeamParameters, point) -> complex:
    """Scalar vortex profile r^l e^{-r^2/2} L_p^l(r^2) e^{i(kz - Et +- l phi)}.

    Kept apart from ``evaluate_spinor`` on purpose: the tests' independent
    oracle for both spinor columns, which a shared helper would not be.
    """
    r, phi, z, t = point
    if r < 0.0:
        raise ValueError("radius must be >= 0")
    en = energy(qn, bp).total
    radial = r**qn.l * math.exp(-0.5 * r * r) * eval_laguerre(qn.p, qn.l, r * r)
    phase = np.exp(1j * (bp.k * z - en * t + qn.oam_sign * qn.l * phi))
    return complex(radial * phase)


def spinor_columns(qn: QuantumNumbers, bp: BeamParameters, en: float):
    """The bispinor at energy ``en`` as two {component: entry} maps (main, mixing).

    A state is the main column (m + E, +-k) times its scalar mode plus the
    mixing column (i sqrt(2 beB) times the family amplitude, opposite spin)
    times the partner's mode of ``spin_orbit_mixing``, twisted by e^{+-i phi}.
    The mixing column is empty for the ground family (p' = -1).
    """
    amplitude, _, p2 = qn.spin_orbit_mixing
    spin_up = qn.spin_sign > 0
    main = {0: bp.m + en, 2: bp.k} if spin_up else {1: bp.m + en, 3: -bp.k}
    mixing = {3 if spin_up else 2: math.sqrt(2.0 * bp.beB) * 1j * amplitude} if p2 >= 0 else {}
    return main, mixing


def evaluate_spinor(qn: QuantumNumbers, bp: BeamParameters, point) -> np.ndarray:
    """The exact four-component solution at spacetime points, unnormalised.

    Each entry of ``point = (r, phi, z, t)`` may be a scalar or an array; the
    entries broadcast, and the returned complex component array carries the
    broadcast shape with the spinor index last: (4,) for a single point,
    (..., 4) for arrays.  The components are the two ``spinor_columns``
    times the state's and the partner's scalar modes.
    """
    r, phi, z, t = (np.asarray(c, dtype=float) for c in point)
    if np.any(r < 0.0):
        raise ValueError("radius must be >= 0")
    en = energy(qn, bp).total
    envelope = np.exp(-0.5 * r * r)
    carrier = np.exp(1j * (bp.k * z - en * t))
    vortex = np.exp(1j * qn.oam_sign * qn.l * phi)

    def mode(lead, l, p):
        return lead * r**l * eval_laguerre(p, l, r * r) * envelope * carrier * vortex

    main = mode(1.0, qn.l, qn.p)
    comp = np.zeros(np.shape(main) + (4,), dtype=complex)
    main_column, mixing_column = spinor_columns(qn, bp, en)
    for c, entry in main_column.items():
        comp[..., c] = entry * main
    _, l2, p2 = qn.spin_orbit_mixing
    for c, entry in mixing_column.items():
        # e^{+i phi} for spin up, e^{-i phi} for spin down
        comp[..., c] = mode(entry, l2, p2) * np.exp(1j * qn.spin_sign * phi)
    return comp


def integrated_density(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Transverse integral of j0 for the unnormalised state: 2 pi E (E+m) (l+p)!/p!."""
    en = energy(qn, bp).total
    return 2.0 * math.pi * en * (en + bp.m) * factorial_ratio(qn.l, qn.p)


def normalization_constant(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Multiplier making the transverse integral of the density equal one."""
    return 1.0 / math.sqrt(integrated_density(qn, bp))


def spectrum_table(max_levels: int):
    """The low-lying states, sorted by (canonical J_z, squared energy).

    Includes every state whose Landau plus Zeeman squared energy is below
    2 beB max_levels, i.e. interaction index <= max_levels - 1.  Because that
    energy is l-independent for negative orbital angular momentum, l is
    additionally capped at max_levels to keep the table finite (a window in
    total angular momentum, matching a level scheme truncated symmetrically).
    With max_levels = 1 only the protected p = 0 ground family survives.

    Order and membership depend on the quantum numbers only, not on the
    field: callers take energies from ``energy`` and the degenerate
    opposite-spin partner from ``QuantumNumbers.spin_orbit_partner``.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    return sorted((qn for qn in iter_states(max_levels, max_levels - 1)
                   if qn.interaction_index <= max_levels - 1),
                  key=lambda qn: (round(2 * qn.canonical_jz), qn.interaction_index,
                                  FAMILIES.index(qn.family), qn.l, qn.p))
