"""One-shot verification suite: every identity the package rests on.

Each check produces a residual and a tolerance; the CLI serialises the
result list and exits nonzero if anything fails.  The same functions back
the acceptance tests, so the command line and the test suite cannot drift
apart.  ``sabotage="energy"`` feeds a displaced energy into the Dirac sweep
as a negative control; the suite must then fail.
"""

from dataclasses import dataclass, asdict
import math

import numpy as np

from . import clifford, laguerre, observables as obs, polyspinor as ps
from .constants import magnetic_length_m
from .states import (BeamParameters, QuantumNumbers, energy, evaluate_spinor,
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
        d["pass"] = self.passed
        return d


def clifford_checks():
    worst_cyl = 0.0
    rng = np.random.default_rng(2024)
    eye = np.eye(4)
    for phi in rng.uniform(-10.0, 10.0, size=100):
        gr, gphi = clifford.gamma_cylindrical(phi)
        sr, sphi = clifford.sigma_cylindrical(phi)
        worst_cyl = max(worst_cyl,
                        float(np.max(np.abs(gr @ gr + eye))),
                        float(np.max(np.abs(gphi @ gphi + eye))),
                        float(np.max(np.abs(sr @ sr - eye))),
                        float(np.max(np.abs(sphi @ sphi - eye))))
    worst_comm = max(clifford.check_sigma_commutator(m, n, r, s)
                     for m in range(4) for n in range(4)
                     for r in range(4) for s in range(4))
    return [Check("clifford_anticommutators", clifford.clifford_residual(), 1e-15),
            Check("cylindrical_matrix_squares", worst_cyl, 1e-15),
            Check("sigma_commutator_identity", worst_comm, 1e-14)]


def laguerre_checks():
    worst_orth = 0.0
    worst_moment = 0.0
    for l in range(11):
        for p1 in range(11):
            ref = laguerre.factorial_ratio(l, p1)
            for p2 in range(11):
                val = laguerre.weighted_inner_product(p1, p2, l, l)
                expect = ref if p1 == p2 else 0.0
                worst_orth = max(worst_orth, abs(val - expect) / ref)
            moment = laguerre.weighted_inner_product(p1, p1, l, l + 1)
            expect = ref * (2 * p1 + l + 1)
            worst_moment = max(worst_moment, abs(moment - expect) / expect)
    rng = np.random.default_rng(99)
    worst_rec = max(laguerre.check_recurrences(int(rng.integers(0, 13)),
                                               int(rng.integers(0, 11)),
                                               float(rng.uniform(0.0, 40.0)))
                    for _ in range(100))
    worst_root = 0.0
    for l in (0, 2, 5):
        for p in range(1, 11):
            for r in laguerre.positive_roots(p, l):
                # position error of the bisected root, one Newton correction
                slope = laguerre.eval_derivative(p, l, r)
                worst_root = max(worst_root,
                                 abs(laguerre.eval_laguerre(p, l, r) / slope))
    return [Check("laguerre_orthogonality", worst_orth, 1e-11),
            Check("laguerre_second_moment", worst_moment, 1e-11),
            Check("laguerre_recurrences", worst_rec, 1e-12),
            Check("laguerre_roots", worst_root, 1e-11)]


def dirac_sweep_check(sabotage=None):
    shift = 0.1 if sabotage == "energy" else 0.0
    worst = 0.0
    for bp in PARAMETER_SETS:
        for qn in iter_states(8, 8):
            worst = max(worst, ps.dirac_residual(qn, bp, energy_shift=shift))
    return [Check("dirac_equation_sweep", worst, 1e-10)]


def eigenvalue_checks():
    bp = BEAM
    worst_jz = 0.0
    worst_landau = 0.0
    for qn in iter_states(4, 4):
        f = ps.state_to_polyspinor(qn, bp)
        jzf = ps.apply_canonical_jz(f)
        worst_jz = max(worst_jz, ps.relative_residual(jzf, qn.canonical_jz * f, f))
        dec = energy(qn, bp)
        worst_landau = max(worst_landau,
                           ps.landau_eigen_residual(f, bp, dec.interaction_sq))
    # scalar seeds of the squared equation, both spin orientations
    for qn, comp in ((QuantumNumbers(1, 1, 2, 3), 0), (QuantumNumbers(-1, -1, 2, 3), 1)):
        f = ps.scalar_state_to_polyspinor(qn, bp, comp)
        worst_landau = max(worst_landau,
                           ps.landau_eigen_residual(f, bp, energy(qn, bp).interaction_sq))
    return [Check("canonical_jz_eigenvalues", worst_jz, 1e-12),
            Check("transverse_squared_eigenvalues", worst_landau, 1e-12)]


def quadrature_checks():
    worst = 0.0
    worst_long = 0.0
    worst_norm = 0.0
    for bp in PARAMETER_SETS:
        for qn in iter_states(6, 6):
            pairs = obs.closed_and_quadrature(qn, bp)
            for _, closed, quad in pairs:
                worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
            _, density, density_quad = pairs[0]
            worst_long = max(worst_long,
                             abs(density - obs.integrated_density_longform(qn, bp)) / density)
            norm = normalization_constant(qn, bp)
            worst_norm = max(worst_norm, abs(norm**2 * density_quad - 1.0))
    return [Check("quadrature_vs_closed_forms", worst, 1e-9),
            Check("integrated_density_two_forms", worst_long, 1e-12),
            Check("normalization_unit_integral", worst_norm, 1e-10)]


def commutator_checks():
    rng = np.random.default_rng(11)
    fields = [ps.FieldConfig(B=tuple(rng.uniform(-1, 1, 3)),
                             E=tuple(rng.uniform(-1, 1, 3))) for _ in range(5)]
    worst_jj = 0.0
    spinors = [ps.random_polyspinor(rng, degree=int(rng.integers(2, 7)), zt_degree=1)
               for _ in range(20)]
    for fld in fields:
        for f in spinors:
            for j, k in (("x", "y"), ("y", "z"), ("z", "x")):
                worst_jj = max(worst_jj, ps.commutator_jj_residual(j, k, fld, f))
    worst_b0 = max(ps.commutator_jj_residual("x", "y", ps.FieldConfig(E=(0.4, -0.2, 0.7)), f)
                   for f in spinors[:5])
    worst_dj = 0.0
    for fld in fields:
        for f in spinors[:8]:
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    worst_dj = max(worst_dj,
                                   ps.commutator_dirac_j_residual(mu, nu, fld, f))
    # component form of the z generator, and the pure-E_z null case
    worst_explicit = 0.0
    for fld in fields:
        f = spinors[0]
        lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld), fld) \
            - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld), fld)
        worst_explicit = max(worst_explicit,
                             ps.relative_residual(lhs, ps.dirac_j12_rhs_explicit(fld, f), f))
    fld_ez = ps.FieldConfig(E=(0.0, 0.0, 0.8))
    f = spinors[1]
    lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld_ez), fld_ez) \
        - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld_ez), fld_ez)
    worst_ez = max(ps.relative_residual(lhs, ps.zero_like(f), f),
                   ps.dirac_j12_rhs_explicit(fld_ez, f).max_abs())
    return [Check("gauge_covariant_commutators", worst_jj, 1e-12),
            Check("field_free_closure", worst_b0, 1e-12),
            Check("dirac_generator_commutators", worst_dj, 1e-12),
            Check("z_generator_component_form", worst_explicit, 1e-12),
            Check("pure_ez_obstruction_vanishes", worst_ez, 1e-12)]


def current_structure_checks():
    rng = np.random.default_rng(5)
    bp = BEAM
    worst_match = 0.0
    worst_jr = 0.0
    worst_station = 0.0
    for qn in iter_states(6, 6):
        points = rng.uniform([0.05, -math.pi, -2.0, -2.0], [4.0, math.pi, 2.0, 2.0],
                             size=(8, 4))
        j0, jr, jphi, jz = obs.current_from_spinor(qn, bp, points.T)
        closed_j0, _, closed_jphi, closed_jz = obs.current_profile(qn, bp, points[:, 0])
        scale = np.max(j0)
        diff = np.abs([j0 - closed_j0, jphi - closed_jphi, jz - closed_jz])
        worst_match = max(worst_match, float(np.max(diff) / scale))
        worst_jr = max(worst_jr, float(np.max(np.abs(jr)) / scale))
    # stationarity: vary phi, z, t at fixed radius
    qn = QuantumNumbers(1, 1, 2, 3)
    phi, z, t = rng.uniform(-3, 3, size=(20, 3)).T
    vals = np.transpose(obs.current_from_spinor(qn, bp, (1.3, phi, z, t)))
    worst_station = float(np.max(np.var(vals, axis=0)) / np.max(vals**2))
    return [Check("closed_vs_pointwise_currents", worst_match, 1e-12),
            Check("radial_current_vanishes", worst_jr, 1e-14),
            Check("observables_stationary", worst_station, 1e-24)]


def ring_checks():
    bp = BEAM
    worst_root = 0.0
    worst_count = 0.0
    cases = [QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 2, 3),
             QuantumNumbers(1, -1, 2, 3), QuantumNumbers(-1, -1, 2, 3)]
    for qn in cases:
        _, l2, p2 = qn.spin_orbit_mixing
        radii = obs.sign_change_radii(qn)
        # dense scan oracle
        if radii:
            grid = np.linspace(1e-4, radii[-1] + 2.0, 40001)
        else:
            grid = np.linspace(1e-4, 6.0, 40001)
        _, _, jphi, _ = obs.current_profile(qn, bp, grid)
        signs = np.sign(jphi)
        nz = signs != 0
        flips = int(np.count_nonzero(np.diff(signs[nz]) != 0))
        worst_count = max(worst_count, float(abs(flips - len(radii))))
        for r in radii:
            # each predicted radius must be a true zero of the factor pair
            v1 = abs(laguerre.eval_laguerre(qn.p, qn.l, r * r))
            v2 = abs(laguerre.eval_laguerre(p2, l2, r * r))
            worst_root = max(worst_root, min(v1, v2))
    # near-axis sign pattern for negative orbital angular momentum
    neg = obs.current_density(QuantumNumbers(1, -1, 2, 3), bp, 0.05).jphi
    far = obs.current_density(QuantumNumbers(1, -1, 2, 3), bp, 4.0).jphi
    pattern_ok = neg < 0.0 < far
    ground = np.max(np.abs(obs.current_profile(
        QuantumNumbers(-1, -1, 2, 0), bp, np.linspace(0, 6, 512))[2]))
    return [Check("ring_radii_are_factor_roots", worst_root, 1e-9),
            Check("ring_count_matches_dense_scan", worst_count, 0.0),
            Check("negative_oam_sign_pattern", 0.0 if pattern_ok else 1.0, 0.0),
            Check("ground_family_current_zero", float(ground), 1e-14)]


def ground_protection_checks():
    worst_amp = 0.0
    worst_exact = 0.0
    for bp in PARAMETER_SETS:
        for l in range(0, 5):
            qn = QuantumNumbers(-1, -1, l, 0)
            r = np.random.default_rng(3).uniform(0.0, 4.0, 16)
            comp = evaluate_spinor(qn, bp, (r, 0.3, 0.1, -0.2)).components
            worst_amp = max(worst_amp, float(np.max(np.abs(comp[:, 2]))))
            rho = obs.reduced_spin_state(qn, bp)
            worst_exact = max(worst_exact,
                              abs(rho.purity - 1.0),
                              abs(obs.magnetic_moment(qn, bp)) if bp.beB > 0 else 0.0,
                              abs(obs.gauge_covariant_jz(qn, bp) - (2 * qn.p + 0.5)))
    return [Check("ground_spin_orbit_amplitude", worst_amp, 0.0),
            Check("ground_exact_observables", worst_exact, 0.0)]


def half_integer_checks():
    worst = 0.0
    for bp in PARAMETER_SETS:
        for qn in iter_states(6, 6):
            val = obs.gauge_covariant_jz(qn, bp, drop_spin_orbit=True)
            worst = max(worst, abs(val - round(2 * val) / 2.0))
    return [Check("half_integer_dropped_jz", worst, 1e-12)]


def gordon_checks():
    bp = BEAM
    min_order = math.inf
    for qn in (QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 1, 1),
               QuantumNumbers(1, -1, 1, 2)):
        coarse = obs.gordon_residual(qn, bp, np.linspace(0.05, 6.0, 200))
        fine = obs.gordon_residual(qn, bp, np.linspace(0.05, 6.0, 400))
        min_order = min(min_order, math.log2(coarse / fine))
    ground_qn = QuantumNumbers(-1, -1, 2, 0)
    grid = np.linspace(0.05, 6.0, 200)
    scale = float(np.max(np.abs(obs.current_profile(ground_qn, bp, grid)[3])))
    ground = obs.gordon_residual(ground_qn, bp, grid) / scale
    return [Check("gordon_convergence_order", max(0.0, 1.9 - min_order), 0.0),
            Check("gordon_ground_family_exact", ground, 5e-14)]


def spectrum_checks():
    bp = BEAM
    table = spectrum_table(bp, 6)
    worst = 0.0
    for entry in table:
        if entry.partner is None:
            ok = entry.qn.family == (-1, -1) and entry.qn.p == 0
            worst = max(worst, 0.0 if ok else 1.0)
            continue
        pq = entry.partner
        worst = max(worst,
                    abs(energy(pq, bp).interaction_sq - entry.energy.interaction_sq),
                    abs(pq.canonical_jz - entry.canonical_jz),
                    0.0 if pq.spin_sign == -entry.qn.spin_sign else 1.0)
    return [Check("spectrum_partner_degeneracy", worst, 1e-12)]


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
