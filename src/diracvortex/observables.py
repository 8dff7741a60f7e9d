"""Derived quantities of the exact states: currents, spin, angular momenta.

Closed forms are implemented directly from the family algebra; every one of
them has an independent companion here or in the tests (pointwise spinor
contraction, Gauss-Laguerre quadrature of sampled spinors, dense sign scans)
so that no formula is ever checked against itself.

Radial arguments are the rescaled radius; azimuthal currents are reported
per surface element dz x dr_rescaled.  ``physical_dr=True`` rescales to the
physical element dz x dr, which multiplies by sqrt(beB/2).
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import clifford
from .laguerre import eval_laguerre, factorial_ratio, gauss_laguerre_nodes, positive_roots
from .states import (BeamParameters, QuantumNumbers, energy, evaluate_spinor,
                     integrated_density, normalization_constant)


@dataclass(frozen=True)
class CurrentSample:
    j0: float
    jr: float
    jphi: float
    jz: float


@dataclass(frozen=True)
class SpinTextureSample:
    s_r: float
    s_phi: float
    s_z: float


@dataclass(frozen=True)
class ReducedSpinState:
    prob_up: float
    prob_down: float

    @property
    def purity(self) -> float:
        return self.prob_up**2 + self.prob_down**2


@dataclass(frozen=True)
class RadialProfile:
    j0: np.ndarray
    jz: np.ndarray
    jphi: np.ndarray
    s_phi: np.ndarray


def current_profile(qn: QuantumNumbers, bp: BeamParameters, r):
    """Closed-form (j0, jr, jphi, jz) sampled over an array of radii.

    jphi is the cross term of the main column with the mixing column
    (``spin_orbit_mixing``): a Gaussian times L_p^l(r^2) L_{p'}^{l'}(r^2),
    identically zero when p' = -1 (ground family).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radii must be >= 0")
    en = energy(qn, bp).total
    m, k = bp.m, bp.k
    amplitude, l2, p2 = qn.spin_orbit_mixing
    x = r * r
    gauss = np.exp(-x)
    lag, lag2 = eval_laguerre(qn.p, qn.l, x), eval_laguerre(p2, l2, x)
    main_sq = r**(2 * qn.l) * np.square(lag) * gauss
    so_sq = 2.0 * bp.beB * amplitude**2 * r**(2 * l2) * np.square(lag2) * gauss
    j0 = ((m + en)**2 + k**2) * main_sq + so_sq
    jz = 2.0 * k * (m + en) * main_sq
    jphi = (2.0 * math.sqrt(2.0) * qn.spin_sign * amplitude * r**(qn.l + l2) * gauss * lag
            * lag2 * (en + m) * math.sqrt(bp.beB))
    return j0, np.zeros_like(j0), jphi, jz


def current_density(qn: QuantumNumbers, bp: BeamParameters, r: float) -> CurrentSample:
    """Closed-form current components at a single radius."""
    return CurrentSample(*map(float, current_profile(qn, bp, r)))


def current_from_spinor(qn: QuantumNumbers, bp: BeamParameters, point):
    """(j0, jr, jphi, jz) by contracting the pointwise spinor with the matrices.

    Independent route for cross-checking the closed forms.  The entries of
    ``point`` broadcast as in ``evaluate_spinor``; each current has their
    broadcast shape.
    """
    psi = evaluate_spinor(qn, bp, point)
    g0 = clifford.GAMMA0
    gr, gphi = clifford.gamma_cylindrical(point[1])
    return tuple(_bilinear(psi, mat)
                 for mat in (clifford.IDENTITY4, g0 @ gr, g0 @ gphi, g0 @ clifford.GAMMA3))


def integrated_density_longform(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Same integral written family by family.

    pi (l+p)!/p! (m^2 + E^2 + 2mE + k^2 + 2 beB X) with X the interaction
    index (l+p+1, l+p, p+1 or p).  Agrees with ``integrated_density``
    identically; kept as a separate code path for the identity test.
    """
    en = energy(qn, bp).total
    m, k = bp.m, bp.k
    x_idx = qn.interaction_index
    return (math.pi * factorial_ratio(qn.l, qn.p)
            * (m * m + en * en + 2.0 * m * en + k * k + 2.0 * bp.beB * x_idx))


def integrated_jz(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Total current through the transverse plane: integrated j0 times k/E."""
    return integrated_density(qn, bp) * bp.k / energy(qn, bp).total


def _azimuthal_spin(qn: QuantumNumbers, bp: BeamParameters, jphi):
    """S_phi = spin_sign * k/(2(E+m)) * jphi, nonzero only where spin-orbit mixing is."""
    return qn.spin_sign * 0.5 * bp.k / (energy(qn, bp).total + bp.m) * jphi


def spin_texture(qn: QuantumNumbers, bp: BeamParameters, r: float) -> SpinTextureSample:
    """Spin density (S_r, S_phi, S_z) at radius r, from S = Psi^dag Sigma Psi / 2.

    The radial component vanishes; the azimuthal one follows the azimuthal
    current (``_azimuthal_spin``).
    """
    s_phi = _azimuthal_spin(qn, bp, current_density(qn, bp, r).jphi)
    psi = evaluate_spinor(qn, bp, (r, 0.0, 0.0, 0.0))
    s_z = 0.5 * float(np.real(np.vdot(psi, clifford.SIGMA_Z @ psi)))
    return SpinTextureSample(0.0, float(s_phi), s_z)


def _delta(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Spin-orbit weight (landau_sq + zeeman_sq) / (2E(E+m))."""
    dec = energy(qn, bp)
    return dec.interaction_sq / (2.0 * dec.total * (dec.total + bp.m))


def reduced_spin_state(qn: QuantumNumbers, bp: BeamParameters) -> ReducedSpinState:
    """Spin density matrix after tracing out the spatial profile (z-basis diagonal).

    The majority weight is ((m+E)^2 + k^2) / (2E(E+m)); the minority weight
    is the spin-orbit admixture (landau_sq + zeeman_sq) / (2E(E+m)).  The
    two add to one exactly, and the state is pure only when the interaction
    energy vanishes (ground family at p = 0).
    """
    minority = _delta(qn, bp)
    majority = 1.0 - minority
    if qn.spin_sign > 0:
        return ReducedSpinState(prob_up=majority, prob_down=minority)
    return ReducedSpinState(prob_up=minority, prob_down=majority)


def gauge_covariant_jz(qn: QuantumNumbers, bp: BeamParameters,
                       drop_spin_orbit: bool = False) -> float:
    """Expectation of the gauge-covariant angular momentum along the field.

    Equals the canonical eigenvalue plus the mean squared rescaled radius:
    canonical + (2p + l + 1) + spin_sign * delta, with
    delta = (landau_sq + zeeman_sq)/(2E(E+m)).  Dropping the spin-orbit
    component removes delta and leaves a half integer.
    """
    base = qn.canonical_jz + (2 * qn.p + qn.l + 1)
    if drop_spin_orbit:
        return base
    return base + qn.spin_sign * _delta(qn, bp)


def r2_moment(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Transverse integral of r^2 Psi^dag Psi (rescaled radius, unnormalised).

    pi (l+p)!/p! (2E(E+m)(2p+l+1) + spin_sign (landau_sq + zeeman_sq)).
    """
    dec = energy(qn, bp)
    en = dec.total
    return (math.pi * factorial_ratio(qn.l, qn.p)
            * (2.0 * en * (en + bp.m) * (2 * qn.p + qn.l + 1)
               + qn.spin_sign * dec.interaction_sq))


def magnetic_moment(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Magnetic moment along the field, in units of |e|.

    M_z/|e| = -(integrated j0 / E) (landau_sq + zeeman_sq) / (2 beB); zero
    exactly for the ground family.  Requires beB > 0.
    """
    if bp.beB <= 0.0:
        raise ValueError("magnetic moment requires beB > 0")
    dec = energy(qn, bp)
    return -(integrated_density(qn, bp) / dec.total) * dec.interaction_sq / (2.0 * bp.beB)


def magnetic_moment_from_angular(qn: QuantumNumbers, bp: BeamParameters) -> float:
    """Same moment via the half-integer combination L_z + 2 S_z.

    M_z/|e| = -(integrated j0 / 2E) (2p + l(1+oam_sign) + 1 + spin_sign), whose
    last factor is twice the interaction index; the electron charge supplies
    the minus sign.
    """
    if bp.beB <= 0.0:
        raise ValueError("magnetic moment requires beB > 0")
    gyro = 2 * qn.interaction_index
    return -integrated_density(qn, bp) / (2.0 * energy(qn, bp).total) * gyro


def sign_change_radii(qn: QuantumNumbers):
    """Radii where jphi changes sign: square roots of the factor-pair roots.

    The azimuthal current is a positive envelope times two Laguerre factors,
    so its zero crossings are exactly the roots of those factors (they never
    coincide).  Counts per family: 2p, 2p, 2p+1 and, for the fourth family,
    p + (p-1) when p >= 1 and none at p = 0 where jphi vanishes identically.
    """
    _, l2, p2 = qn.spin_orbit_mixing
    if p2 < 0:
        return []
    roots = positive_roots(qn.p, qn.l) + positive_roots(p2, l2)
    return sorted(math.sqrt(x) for x in roots)


def counterflow_rings(qn: QuantumNumbers, bp: BeamParameters):
    """Bounded radial intervals where jphi runs against the dominant rotation.

    The dominant sign is the one jphi keeps on the unbounded outer interval.
    jphi flips sign at every radius of ``sign_change_radii``, so the rings
    are every other bounded interval (r_lo, r_hi), counting inward from the
    outermost one, which always is a ring.  Empty when jphi vanishes
    identically (ground family p = 0, or beB = 0).
    """
    if bp.beB == 0.0:
        return []
    radii = sign_change_radii(qn)
    intervals = list(zip([0.0] + radii[:-1], radii))
    return intervals[(len(intervals) - 1) % 2::2]


def gordon_residual(qn: QuantumNumbers, bp: BeamParameters, r_grid) -> float:
    """Pointwise defect of splitting j_z into convective and spin-curl parts.

    j_z = (k/m) PsiBar Psi + curl_z of the magnetisation PsiBar Sigma Psi/(2m);
    for these eigenstates the transverse magnetisation equals -(1/m) times
    the spin texture Psi^dag Sigma Psi / 2.  All three pieces are evaluated
    from the pointwise spinor; the curl uses second-order central differences
    on the uniform grid (the angular derivative vanishes by symmetry), so the
    returned maximum interior residual falls off as the grid step squared.
    The ground family gives zero with no curl at all.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 5:
        raise ValueError("grid must be one-dimensional with at least 5 points")
    h = np.diff(r)
    if np.any(r <= 0.0) or np.any(h <= 0.0) or not np.allclose(h, h[0], rtol=1e-9):
        raise ValueError("grid must be uniform, increasing and strictly positive")
    m = bp.m
    psi = evaluate_spinor(qn, bp, (r, 0.0, 0.0, 0.0))
    g0 = clifford.GAMMA0
    jz = _bilinear(psi, g0 @ clifford.GAMMA3)
    orbital = bp.k / m * _bilinear(psi, g0)
    # PsiBar Sigma_phi Psi at phi = 0 is the Sigma_y bilinear
    mag_phi = _bilinear(psi, g0 @ clifford.SIGMA_Y) / (2.0 * m)
    a = r * mag_phi
    da = (a[2:] - a[:-2]) / (r[2:] - r[:-2])
    curl = bp.coordinate_scale * da / r[1:-1]
    residual = jz[1:-1] - orbital[1:-1] - curl
    return float(np.max(np.abs(residual)))


# Quadrature companions: everything below samples the pointwise spinor at
# Gauss-Laguerre nodes in x = r^2, never touching the closed forms above.

def _node_samples(qn: QuantumNumbers, bp: BeamParameters, extra_degree: int = 0):
    """Gauss nodes, weights and spinor in x = r^2; exact for x^extra_degree times the density.

    A state's companions use two rules, the base one and the one of degree
    +2, so the last two samplings are cached and each rule is sampled once
    per state.  The signs of beB and k join the key, because
    BeamParameters(k=-0.0) == BeamParameters(k=0.0) although their spinors
    hold zeros of opposite sign.  The cached arrays are read-only.
    """
    return _sampled(qn, bp, extra_degree, math.copysign(1.0, bp.beB), math.copysign(1.0, bp.k))


@functools.lru_cache(maxsize=2)
def _sampled(qn, bp, extra_degree, beb_sign, k_sign):
    """``_node_samples`` for the last two keys; the signs only tell twin beams apart."""
    nodes, weights = gauss_laguerre_nodes(2 * (qn.l + 2 * qn.p) + 10 + extra_degree)
    psi = evaluate_spinor(qn, bp, (np.sqrt(nodes), 0.0, 0.0, 0.0))
    psi.flags.writeable = False
    return nodes, weights, psi


def _bilinear(psi, mat) -> np.ndarray:
    """Psi^dag mat Psi over the last axis of ``psi``; ``mat`` is a ``clifford`` matrix."""
    return np.real(np.einsum("...i,...ij,...j->...", psi.conj(), mat, psi))


def _weighted_sum(weights, nodes, values) -> float:
    """Gauss sum of ``values`` with the rule's e^{-x} weight undone."""
    return float(np.sum(weights * (values * np.exp(nodes))))


def integrated_density_quadrature(qn, bp) -> float:
    """Transverse integral of j0 by quadrature of the sampled spinor."""
    nodes, weights, psi = _node_samples(qn, bp)
    return math.pi * _weighted_sum(weights, nodes, _bilinear(psi, clifford.IDENTITY4))


def integrated_jz_quadrature(qn, bp) -> float:
    """Transverse integral of j_z by quadrature of the sampled spinor."""
    nodes, weights, psi = _node_samples(qn, bp)
    jz = _bilinear(psi, clifford.GAMMA0 @ clifford.GAMMA3)
    return math.pi * _weighted_sum(weights, nodes, jz)


def r2_moment_quadrature(qn, bp) -> float:
    """Transverse integral of r^2 Psi^dag Psi by quadrature."""
    nodes, weights, psi = _node_samples(qn, bp, 2)
    return math.pi * _weighted_sum(weights, nodes, _bilinear(psi, clifford.IDENTITY4) * nodes)


def gauge_covariant_jz_quadrature(qn, bp) -> float:
    """Canonical eigenvalue plus the quadrature mean of r^2."""
    return qn.canonical_jz + r2_moment_quadrature(qn, bp) / integrated_density_quadrature(qn, bp)


def magnetic_moment_quadrature(qn, bp) -> float:
    """M_z/|e| from the azimuthal current profile itself.

    Integrates (-1/2) r_phys jphi over the plane, with jphi obtained by
    contracting sampled spinors with the azimuthal matrix.
    """
    if bp.beB <= 0.0:
        raise ValueError("magnetic moment requires beB > 0")
    nodes, weights, psi = _node_samples(qn, bp, 2)
    jphi = _bilinear(psi, clifford.GAMMA0 @ clifford.gamma_cylindrical(0.0)[1])
    # r_phys = sqrt(2/beB) sqrt(x): the sqrt(x) joins the weights
    integral = 0.5 * _weighted_sum(weights * np.sqrt(nodes), nodes, jphi)
    return -math.pi * math.sqrt(2.0 / bp.beB) * integral


def reduced_spin_quadrature(qn, bp) -> ReducedSpinState:
    """Diagonal of the reduced spin state from quadrature of the projectors (1 +- Sigma_z)/2."""
    nodes, weights, psi = _node_samples(qn, bp)
    up = _bilinear(psi, (clifford.IDENTITY4 + clifford.SIGMA_Z) / 2)
    down = _bilinear(psi, (clifford.IDENTITY4 - clifford.SIGMA_Z) / 2)
    total_up = _weighted_sum(weights, nodes, up)
    total_down = _weighted_sum(weights, nodes, down)
    norm = total_up + total_down
    return ReducedSpinState(prob_up=total_up / norm, prob_down=total_down / norm)


def closed_and_quadrature(qn: QuantumNumbers, bp: BeamParameters):
    """(name, closed form, quadrature companion) for every cross-checked observable.

    The integrated density comes first.  The magnetic moment needs beB > 0
    and is left out at beB = 0.  The companions share ``_node_samples``, so
    each of the two Gauss rules is sampled once.
    """
    pairs = [("int_j0", integrated_density, integrated_density_quadrature),
             ("int_jz", integrated_jz, integrated_jz_quadrature),
             ("r2_moment", r2_moment, r2_moment_quadrature),
             ("jz_gauge", gauge_covariant_jz, gauge_covariant_jz_quadrature)]
    if bp.beB > 0:
        pairs.append(("mz", magnetic_moment, magnetic_moment_quadrature))
    return [(name, closed(qn, bp), quad(qn, bp)) for name, closed, quad in pairs]


def radial_profile(qn: QuantumNumbers, bp: BeamParameters, r,
                   normalized: bool = False, physical_dr: bool = False) -> RadialProfile:
    """Sampled (j0, jz, jphi, S_phi) over a radial grid, ready for serialisation."""
    j0, _, jphi, jz = current_profile(qn, bp, r)
    s_phi = _azimuthal_spin(qn, bp, jphi)
    scale = 1.0
    if normalized:
        scale *= normalization_constant(qn, bp)**2
    if physical_dr:
        jphi = jphi * bp.coordinate_scale
        s_phi = s_phi * bp.coordinate_scale
    return RadialProfile(j0 * scale, jz * scale, jphi * scale, s_phi * scale)
