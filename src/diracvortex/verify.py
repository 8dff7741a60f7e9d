"""One-shot verification suite: every identity the package rests on.

Each check produces a residual and a tolerance; the CLI serialises the
result list and exits nonzero if anything fails.  The acceptance tests
check the same identities by their own routes; only the last of them runs
this suite, through the ``verify`` command.  ``sabotage="energy"`` feeds a
displaced energy into the Dirac sweep as a negative control; the suite must
then fail.
"""

from dataclasses import dataclass, asdict
import math

import numpy as np

from . import clifford, laguerre, observables as obs, polyspinor as ps
from .constants import magnetic_length_m
from .states import (FAMILIES, BeamParameters, QuantumNumbers, energy, evaluate_spinor,
                     iter_states, normalization_constant, spectrum_table)

#: beams with m = 1 used by the sweeps, weak to strong coupling
PARAMETER_SETS = tuple(BeamParameters(beB=beb, m=1.0, k=k)
                       for beb, k in ((1e-10, 1.0), (0.1, 1.0), (1.0, 3.0)))
#: the beam of the single-setting checks
BEAM = BeamParameters(beB=0.37, m=1.0, k=0.8)


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self):
        d = asdict(self)
        if not math.isfinite(self.residual):
            d["residual"] = None  # null in JSON, an empty cell in CSV
        d["pass"] = self.passed
        return d


def _worst(residuals):
    """The largest residual over a check's cases: 0.0 with no case, and NaN as soon as
    a case is NaN (``max`` would keep its first argument)."""
    return float(np.max([0.0, *residuals]))


def clifford_checks():
    rng = np.random.default_rng(2024)
    eye = np.eye(4)
    squares = []
    for phi in rng.uniform(-10.0, 10.0, size=100):
        gr, gphi = clifford.gamma_cylindrical(phi)
        sr, sphi = clifford.sigma_cylindrical(phi)
        squares += [np.max(np.abs(gr @ gr + eye)), np.max(np.abs(gphi @ gphi + eye)),
                    np.max(np.abs(sr @ sr - eye)), np.max(np.abs(sphi @ sphi - eye))]
    worst_comm = _worst(clifford.check_sigma_commutator(m, n, r, s)
                        for m in range(4) for n in range(4)
                        for r in range(4) for s in range(4))
    return [Check("clifford_anticommutators", clifford.clifford_residual(), 1e-15),
            Check("cylindrical_matrix_squares", _worst(squares), 1e-15),
            Check("sigma_commutator_identity", worst_comm, 1e-14)]


def laguerre_checks():
    orth, moments = [], []
    for l in range(11):
        for p1 in range(11):
            ref = laguerre.factorial_ratio(l, p1)
            for p2 in range(11):
                val = laguerre.weighted_inner_product(p1, p2, l, l)
                expect = ref if p1 == p2 else 0.0
                orth.append(abs(val - expect) / ref)
            moment = laguerre.weighted_inner_product(p1, p1, l, l + 1)
            expect = ref * (2 * p1 + l + 1)
            moments.append(abs(moment - expect) / expect)
    rng = np.random.default_rng(99)
    worst_rec = _worst(laguerre.check_recurrences(int(rng.integers(0, 13)),
                                                  int(rng.integers(0, 11)),
                                                  float(rng.uniform(0.0, 40.0)))
                       for _ in range(100))
    newton = []
    for l in (0, 2, 5):
        for p in range(1, 11):
            r = np.array(laguerre.positive_roots(p, l))
            # position error of the bisected roots, one Newton correction
            newton.append(np.max(np.abs(laguerre.eval_laguerre(p, l, r)
                                        / laguerre.eval_derivative(p, l, r))))
    return [Check("laguerre_orthogonality", _worst(orth), 1e-11),
            Check("laguerre_second_moment", _worst(moments), 1e-11),
            Check("laguerre_recurrences", worst_rec, 1e-12),
            Check("laguerre_roots", _worst(newton), 1e-11)]


def dirac_sweep_check(sabotage=None):
    shift = 0.1 if sabotage == "energy" else 0.0
    # beams inside, so that each state's two mode polynomials are built once
    worst = _worst(ps.dirac_residual(qn, bp, energy_shift=shift)
                   for qn in iter_states(8, 8) for bp in PARAMETER_SETS)
    return [Check("dirac_equation_sweep", worst, 1e-10)]


def eigenvalue_checks():
    bp = BEAM
    jz, landau = [], []
    for qn in iter_states(4, 4):
        f = ps.state_to_polyspinor(qn, bp)
        jz.append(ps.relative_residual(ps.apply_canonical_jz(f), qn.canonical_jz * f, f))
        landau.append(ps.landau_eigen_residual(f, bp, energy(qn, bp).interaction_sq))
    # scalar seeds of the squared equation, both spin orientations
    for qn, comp in ((QuantumNumbers(1, 1, 2, 3), 0), (QuantumNumbers(-1, -1, 2, 3), 1)):
        f = ps.scalar_state_to_polyspinor(qn, bp, comp)
        landau.append(ps.landau_eigen_residual(f, bp, energy(qn, bp).interaction_sq))
    return [Check("canonical_jz_eigenvalues", _worst(jz), 1e-12),
            Check("transverse_squared_eigenvalues", _worst(landau), 1e-12)]


def quadrature_checks():
    errors, longform, norms = [], [], []
    for bp in PARAMETER_SETS:
        for qn in iter_states(6, 6):
            pairs = obs.closed_and_quadrature(qn, bp)
            errors += [abs(closed - quad) / max(1.0, abs(closed)) for _, closed, quad in pairs]
            _, density, density_quad = pairs[0]
            longform.append(abs(density - obs.integrated_density_longform(qn, bp)) / density)
            norms.append(abs(normalization_constant(qn, bp)**2 * density_quad - 1.0))
    return [Check("quadrature_vs_closed_forms", _worst(errors), 1e-9),
            Check("integrated_density_two_forms", _worst(longform), 1e-12),
            Check("normalization_unit_integral", _worst(norms), 1e-10)]


def commutator_checks():
    rng = np.random.default_rng(11)
    fields = [ps.FieldConfig(B=tuple(rng.uniform(-1, 1, 3)),
                             E=tuple(rng.uniform(-1, 1, 3))) for _ in range(5)]
    spinors = [ps.random_polyspinor(rng, degree=int(rng.integers(2, 7)), zt_degree=1)
               for _ in range(20)]
    worst_jj = _worst(r for fld in fields for f in spinors
                      for r in ps.commutator_jj_residuals(fld, f))
    worst_b0 = _worst(ps.commutator_jj_residual("x", "y", ps.FieldConfig(E=(0.4, -0.2, 0.7)), f)
                      for f in spinors[:5])
    worst_dj = _worst(r for fld in fields for f in spinors[:8]
                      for r in ps.commutator_dirac_j_residuals(fld, f))
    # component form of the z generator, and the pure-E_z null case
    def dirac_j12_commutator(f, fld):
        """[Pslash - m, J_12] f."""
        return ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld), fld) \
            - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld), fld)

    f = spinors[0]
    worst_explicit = _worst(ps.relative_residual(dirac_j12_commutator(f, fld),
                                                 ps.dirac_j12_rhs_explicit(fld, f), f)
                            for fld in fields)
    fld_ez = ps.FieldConfig(E=(0.0, 0.0, 0.8))
    f = spinors[1]
    worst_ez = _worst([ps.relative_residual(dirac_j12_commutator(f, fld_ez), ps.zero_like(f), f),
                       ps.dirac_j12_rhs_explicit(fld_ez, f).max_abs()])
    return [Check("gauge_covariant_commutators", worst_jj, 1e-12),
            Check("field_free_closure", worst_b0, 1e-12),
            Check("dirac_generator_commutators", worst_dj, 1e-12),
            Check("z_generator_component_form", worst_explicit, 1e-12),
            Check("pure_ez_obstruction_vanishes", worst_ez, 1e-12)]


def current_structure_checks():
    rng = np.random.default_rng(5)
    bp = BEAM
    match, radial = [], []
    for qn in iter_states(6, 6):
        points = rng.uniform([0.05, -math.pi, -2.0, -2.0], [4.0, math.pi, 2.0, 2.0],
                             size=(8, 4))
        j0, jr, jphi, jz = obs.current_from_spinor(qn, bp, points.T)
        closed_j0, _, closed_jphi, closed_jz = obs.current_profile(qn, bp, points[:, 0])
        scale = np.max(j0)
        match.append(np.max(np.abs([j0 - closed_j0, jphi - closed_jphi, jz - closed_jz])) / scale)
        radial.append(np.max(np.abs(jr)) / scale)
    # stationarity: vary phi, z, t at fixed radius
    qn = QuantumNumbers(1, 1, 2, 3)
    phi, z, t = rng.uniform(-3, 3, size=(20, 3)).T
    vals = np.transpose(obs.current_from_spinor(qn, bp, (1.3, phi, z, t)))
    station = float(np.max(np.var(vals, axis=0)) / np.max(vals**2))
    return [Check("closed_vs_pointwise_currents", _worst(match), 1e-12),
            Check("radial_current_vanishes", _worst(radial), 1e-14),
            Check("observables_stationary", station, 1e-24)]


def ring_checks():
    bp = BEAM
    roots, counts = [], []
    for qn in (QuantumNumbers(spin, oam, 2, 3) for spin, oam in FAMILIES):
        _, l2, p2 = qn.spin_orbit_mixing
        radii = obs.sign_change_radii(qn)
        # dense scan oracle; every case has rings, so radii is never empty
        grid = np.linspace(1e-4, radii[-1] + 2.0, 40001)
        _, _, jphi, _ = obs.current_profile(qn, bp, grid)
        signs = np.sign(jphi)
        nz = signs != 0
        flips = int(np.count_nonzero(np.diff(signs[nz]) != 0))
        counts.append(abs(flips - len(radii)))
        # each predicted radius must be a true zero of the factor pair
        x = np.square(radii)
        roots.append(np.max(np.minimum(np.abs(laguerre.eval_laguerre(qn.p, qn.l, x)),
                                       np.abs(laguerre.eval_laguerre(p2, l2, x)))))
    # near-axis sign pattern for negative orbital angular momentum
    neg = obs.current_density(QuantumNumbers(1, -1, 2, 3), bp, 0.05).jphi
    far = obs.current_density(QuantumNumbers(1, -1, 2, 3), bp, 4.0).jphi
    pattern_ok = neg < 0.0 < far
    ground = np.max(np.abs(obs.current_profile(
        QuantumNumbers(-1, -1, 2, 0), bp, np.linspace(0, 6, 512))[2]))
    return [Check("ring_radii_are_factor_roots", _worst(roots), 1e-9),
            Check("ring_count_matches_dense_scan", _worst(counts), 0.0),
            Check("negative_oam_sign_pattern", 0.0 if pattern_ok else 1.0, 0.0),
            Check("ground_family_current_zero", float(ground), 1e-14)]


def ground_protection_checks():
    amplitudes, exact = [], []
    r = np.random.default_rng(3).uniform(0.0, 4.0, 16)
    for bp in PARAMETER_SETS:
        for l in range(0, 5):
            qn = QuantumNumbers(-1, -1, l, 0)
            amplitudes.append(np.max(np.abs(evaluate_spinor(qn, bp, (r, 0.3, 0.1, -0.2))[:, 2])))
            exact += [abs(obs.reduced_spin_state(qn, bp).purity - 1.0),
                      abs(obs.magnetic_moment(qn, bp)),
                      abs(obs.gauge_covariant_jz(qn, bp) - (2 * qn.p + 0.5))]
    return [Check("ground_spin_orbit_amplitude", _worst(amplitudes), 0.0),
            Check("ground_exact_observables", _worst(exact), 0.0)]


def half_integer_checks():
    vals = np.array([obs.gauge_covariant_jz(qn, bp, drop_spin_orbit=True)
                     for bp in PARAMETER_SETS for qn in iter_states(6, 6)])
    # np.round, not round: NaN stays NaN, and both round half to even
    return [Check("half_integer_dropped_jz",
                  _worst(np.abs(vals - np.round(2 * vals) / 2.0)), 1e-12)]


def gordon_checks():
    bp = BEAM
    grid = np.linspace(0.05, 6.0, 200)
    # 1.9 - order rounds monotonically, so its worst is 1.9 - the lowest order
    shortfall = []
    for qn in (QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 1, 1),
               QuantumNumbers(1, -1, 1, 2)):
        coarse = obs.gordon_residual(qn, bp, grid)
        fine = obs.gordon_residual(qn, bp, np.linspace(0.05, 6.0, 400))
        shortfall.append(1.9 - math.log2(coarse / fine))
    ground_qn = QuantumNumbers(-1, -1, 2, 0)
    scale = float(np.max(np.abs(obs.current_profile(ground_qn, bp, grid)[3])))
    ground = obs.gordon_residual(ground_qn, bp, grid) / scale
    return [Check("gordon_convergence_order", _worst(shortfall), 0.0),
            Check("gordon_ground_family_exact", ground, 5e-14)]


def spectrum_checks():
    cases = []
    for qn in spectrum_table(6):
        pq = qn.spin_orbit_partner()
        if pq is None:
            cases.append(0.0 if qn.family == (-1, -1) and qn.p == 0 else 1.0)
            continue
        cases += [abs(energy(pq, BEAM).interaction_sq - energy(qn, BEAM).interaction_sq),
                  abs(pq.canonical_jz - qn.canonical_jz),
                  0.0 if pq.spin_sign == -qn.spin_sign else 1.0]
    return [Check("spectrum_partner_degeneracy", _worst(cases), 1e-12)]


def unit_checks():
    length_nm = magnetic_length_m(1.0) * 1e9
    return [Check("magnetic_length_one_tesla", abs(length_nm / 36.0 - 1.0), 0.02)]


def run_all(sabotage=None):
    checks = []
    checks += clifford_checks()
    checks += laguerre_checks()
    checks += dirac_sweep_check(sabotage)
    checks += eigenvalue_checks()
    checks += quadrature_checks()
    checks += commutator_checks()
    checks += current_structure_checks()
    checks += ring_checks()
    checks += ground_protection_checks()
    checks += half_integer_checks()
    checks += gordon_checks()
    checks += spectrum_checks()
    checks += unit_checks()
    return checks
