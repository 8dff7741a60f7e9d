"""Acceptance gate: ten criteria, each at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every expected value is produced by an independent route
(exact operator algebra, quadrature, dense scans, bisection), never by
the formula under test.
"""

import json
import math
import time

import numpy as np
import pytest

from diracvortex import cli, clifford, laguerre, observables as obs, polyspinor as ps
from diracvortex.constants import magnetic_length_m
from diracvortex.states import (FAMILIES, BeamParameters, QuantumNumbers, energy,
                                evaluate_spinor)

PARAMETER_SETS = [BeamParameters(beB=1e-10, m=1.0, k=1.0),
                  BeamParameters(beB=0.1, m=1.0, k=1.0),
                  BeamParameters(beB=1.0, m=1.0, k=3.0)]


def states(lmax, pmax):
    for spin, oam in FAMILIES:
        lmin = 0 if spin == oam else 1
        for l in range(lmin, lmax + 1):
            for p in range(pmax + 1):
                yield QuantumNumbers(spin, oam, l, p)


def report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_exact_solutions():
    start = time.perf_counter()
    worst = 0.0
    for bp in PARAMETER_SETS:
        for qn in states(8, 8):
            worst = max(worst, ps.dirac_residual(qn, bp))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed <= 10.0
    report(1, f"Dirac residual {worst:.2e} <= 1e-10 over 4 families, l,p <= 8, "
              f"3 parameter sets, in {elapsed:.1f} s")


def test_criterion_02_magnetic_length():
    length_nm = magnetic_length_m(1.0) * 1e9
    assert abs(length_nm / 36.0 - 1.0) <= 0.02
    report(2, f"unit rescaled radius at 1 T is {length_nm:.2f} nm (36 nm +- 2%)")


def test_criterion_03_ground_state_protection():
    grid = np.linspace(0.0, 6.0, 512)
    for bp in PARAMETER_SETS:
        for l in range(0, 4):
            qn = QuantumNumbers(-1, -1, l, 0)
            # spin-orbit amplitude identically zero
            for r in np.linspace(0.0, 4.0, 9):
                assert evaluate_spinor(qn, bp, (float(r), 0.4, 0.1, 0.2)).components[2] == 0.0
            j0, _, jphi, _ = obs.current_profile(qn, bp, grid)
            assert np.max(np.abs(jphi)) <= 1e-14 * np.max(j0)
            rho = obs.reduced_spin_state(qn, bp)
            assert rho.purity == 1.0
            if bp.beB > 0:
                assert obs.magnetic_moment(qn, bp) == 0.0
            assert obs.gauge_covariant_jz(qn, bp) == 0.5
    report(3, "protected family: zero mixing amplitude, zero azimuthal current, "
              "pure spin state, zero moment, gauge J_z exactly 1/2")


def test_criterion_04_quadrature_vs_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for bp in PARAMETER_SETS:
        for qn in states(6, 6):
            pairs = [
                (obs.integrated_density(qn, bp), obs.integrated_density_quadrature(qn, bp)),
                (obs.integrated_jz(qn, bp), obs.integrated_jz_quadrature(qn, bp)),
                (obs.r2_moment(qn, bp), obs.r2_moment_quadrature(qn, bp)),
                (obs.gauge_covariant_jz(qn, bp), obs.gauge_covariant_jz_quadrature(qn, bp)),
                (obs.magnetic_moment(qn, bp), obs.magnetic_moment_quadrature(qn, bp)),
            ]
            for closed, quad in pairs:
                worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed <= 30.0
    report(4, f"five integral identities agree to {worst:.2e} <= 1e-9 "
              f"over l,p <= 6, in {elapsed:.1f} s")


def test_criterion_05_laguerre_identity_suite():
    worst_int = 0.0
    for l in range(11):
        for p1 in range(11):
            ref = laguerre.factorial_ratio(l, p1)
            for p2 in range(11):
                val = laguerre.weighted_inner_product(p1, p2, l, l)
                expect = ref if p1 == p2 else 0.0
                worst_int = max(worst_int, abs(val - expect) / ref)
            moment = laguerre.weighted_inner_product(p1, p1, l, l + 1)
            worst_int = max(worst_int,
                            abs(moment - ref * (2 * p1 + l + 1)) / (ref * (2 * p1 + l + 1)))
    assert worst_int <= 1e-11
    rng = np.random.default_rng(314)
    worst_rec = max(laguerre.check_recurrences(int(rng.integers(0, 13)),
                                               int(rng.integers(0, 11)),
                                               float(rng.uniform(0, 40)))
                    for _ in range(100))
    assert worst_rec <= 1e-12
    report(5, f"orthogonality/second-moment to {worst_int:.2e} <= 1e-11 (p,l <= 10); "
              f"recurrences to {worst_rec:.2e} <= 1e-12 at 100 random points")


def test_criterion_06_commutator_suites():
    worst_sigma = max(clifford.check_sigma_commutator(m, n, r, s)
                      for m in range(4) for n in range(4)
                      for r in range(4) for s in range(4))
    assert worst_sigma <= 1e-14
    rng = np.random.default_rng(1234)
    fields = [ps.FieldConfig(B=tuple(rng.uniform(-1, 1, 3)),
                             E=tuple(rng.uniform(-1, 1, 3))) for _ in range(5)]
    spinors = [ps.random_polyspinor(rng, degree=int(rng.integers(2, 7)), zt_degree=1)
               for _ in range(20)]
    worst_jj = max(ps.commutator_jj_residual(j, k, fld, f)
                   for fld in fields for f in spinors
                   for j, k in (("x", "y"), ("y", "z"), ("z", "x")))
    assert worst_jj <= 1e-12
    worst_dj = 0.0
    for fld in fields:
        for f in spinors[:4]:
            lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld), fld) \
                - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld), fld)
            worst_dj = max(worst_dj,
                           ps.relative_residual(lhs, ps.dirac_j12_rhs_explicit(fld, f), f))
    assert worst_dj <= 1e-12
    fld_ez = ps.FieldConfig(E=(0.0, 0.0, 0.7))
    f = spinors[0]
    lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld_ez), fld_ez) \
        - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld_ez), fld_ez)
    assert lhs.max_abs() <= 1e-12 * f.max_abs()
    assert ps.dirac_j12_rhs_explicit(fld_ez, f).max_abs() == 0.0
    report(6, f"sigma commutators {worst_sigma:.1e} <= 1e-14 (256 quadruples); "
              f"rotation generators {worst_jj:.2e} <= 1e-12 (20 spinors x 5 fields); "
              f"z-generator obstruction {worst_dj:.2e} <= 1e-12, vanishing for pure E_z")


def _bisect_jphi_zero(qn, bp, lo, hi):
    flo = obs.current_density(qn, bp, lo).jphi
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        fmid = obs.current_density(qn, bp, mid).jphi
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_criterion_07_current_structure():
    bp = BeamParameters(beB=0.37, m=1.0, k=0.8)
    expected_changes = {(1, 1): 6, (-1, 1): 6, (1, -1): 7, (-1, -1): 5}
    expected_rings = {(1, 1): 3, (-1, 1): 3, (1, -1): 4, (-1, -1): 3}
    for fam in FAMILIES:
        qn = QuantumNumbers(*fam, l=2, p=3)
        radii = obs.sign_change_radii(qn)
        # root-count prediction from the two polynomial factors
        _, l2, p2 = qn.spin_orbit_mixing
        assert len(radii) == qn.p + p2 == expected_changes[fam]
        # every sign change of the emitted profile sits at sqrt of a root
        grid = np.linspace(1e-4, radii[-1] + 1.5, 20001)
        jphi = obs.current_profile(qn, bp, grid)[2]
        signs = np.sign(jphi)
        flips = np.nonzero(np.diff(signs) != 0)[0]
        assert len(flips) == len(radii)
        for idx, predicted in zip(flips, radii):
            located = _bisect_jphi_zero(qn, bp, grid[idx], grid[idx + 1])
            assert abs(located - predicted) <= 1e-10
        rings = obs.counterflow_rings(qn, bp)
        assert len(rings) == expected_rings[fam]
    # negative orbital angular momentum: inflow near axis, outflow outside
    for spin in (1, -1):
        qn = QuantumNumbers(spin, -1, 2, 3)
        assert obs.current_density(qn, bp, 0.02).jphi < 0.0
        assert obs.current_density(qn, bp, 5.0).jphi > 0.0
    report(7, "sign-change radii equal the factor roots to 1e-10; ring counts "
              "match the root-count prediction; negative-l profiles flow "
              "against the field near the axis and with it outside")


def test_criterion_08_half_integer_check():
    worst = 0.0
    for bp in PARAMETER_SETS:
        for qn in states(6, 6):
            val = obs.gauge_covariant_jz(qn, bp, drop_spin_orbit=True)
            worst = max(worst, abs(val - round(2 * val) / 2))
    assert worst <= 1e-12
    report(8, f"spin-orbit-dropped gauge J_z half-integer to {worst:.2e} <= 1e-12 "
              f"for all families, l,p <= 6")


def test_criterion_09_gordon_residual():
    bp = BeamParameters(beB=0.37, m=1.0, k=0.8)
    orders = []
    for qn in (QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 1, 1),
               QuantumNumbers(1, -1, 1, 2)):
        coarse = obs.gordon_residual(qn, bp, np.linspace(0.05, 6.0, 200))
        fine = obs.gordon_residual(qn, bp, np.linspace(0.05, 6.0, 400))
        orders.append(math.log2(coarse / fine))
    assert min(orders) >= 1.9
    ground = QuantumNumbers(-1, -1, 2, 0)
    for n in (200, 400):
        grid = np.linspace(0.05, 6.0, n)
        scale = float(np.max(np.abs(obs.current_profile(ground, bp, grid)[3])))
        assert obs.gordon_residual(ground, bp, grid) <= 5e-14 * scale
    report(9, f"spin-curl decomposition converges at order {min(orders):.2f} >= 1.9; "
              f"ground family residual at machine zero independent of the grid")


def test_criterion_10_verify_suite(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = cli.main(["verify", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed <= 60.0
    payload = json.loads(out.read_text())
    assert all(c["pass"] for c in payload["checks"])
    report(10, f"full verify suite: {len(payload['checks'])} checks pass "
               f"in {elapsed:.1f} s (exit 0)")
