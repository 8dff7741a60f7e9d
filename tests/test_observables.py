"""Currents, spin textures and integrated observables, each against an
independent route: pointwise matrix contraction, quadrature of sampled
spinors, dense sign scans and finite-difference curls."""

import math

import numpy as np
import pytest

from diracvortex import clifford, laguerre, observables as obs, polyspinor as ps
from diracvortex.laguerre import eval_laguerre
from diracvortex.states import (FAMILIES, BeamParameters, QuantumNumbers, energy,
                                evaluate_spinor, integrated_density, iter_states,
                                normalization_constant)

BP = BeamParameters(beB=0.37, m=1.0, k=0.8)
SETTINGS = [BeamParameters(beB=1e-10, m=1.0, k=1.0),
            BeamParameters(beB=0.1, m=1.0, k=1.0),
            BeamParameters(beB=1.0, m=1.0, k=3.0)]


def sample_states(lmax=4, pmax=4):
    for spin, oam in FAMILIES:
        lmin = 0 if spin == oam else 1
        for l in range(lmin, lmax + 1):
            for p in range(pmax + 1):
                yield QuantumNumbers(spin, oam, l, p)


class TestCurrents:
    def test_closed_form_equals_contraction(self):
        rng = np.random.default_rng(17)
        for qn in sample_states():
            rows = []
            for r, phi, z, t in rng.uniform([0.05, -3, -2, -2], [4, 3, 2, 2], (10, 4)):
                j0, jr, jphi, jz = obs.current_from_spinor(qn, BP, (r, phi, z, t))
                sample = obs.current_density(qn, BP, r)
                rows.append((j0, jr, jphi, jz, sample))
            scale = max(row[0] for row in rows)
            for j0, jr, jphi, jz, sample in rows:
                assert abs(j0 - sample.j0) <= 1e-12 * scale
                assert abs(jphi - sample.jphi) <= 1e-12 * scale
                assert abs(jz - sample.jz) <= 1e-12 * scale
                assert abs(jr) <= 1e-14 * scale

    def test_array_contraction_matches_pointwise(self):
        rng = np.random.default_rng(31)
        for qn in sample_states(3, 3):
            points = rng.uniform([0.05, -3, -2, -2], [4, 3, 2, 2], (9, 4))
            batch = np.array(obs.current_from_spinor(qn, BP, points.T))
            single = np.array([obs.current_from_spinor(qn, BP, tuple(pt))
                               for pt in points]).T
            assert batch.shape == single.shape == (4, 9)
            assert np.max(np.abs(batch - single)) <= 1e-14 * np.max(single[0])

    def test_single_radius_matches_array_path(self):
        # a 0-d radius must give the bits of the same radius inside an array
        r = np.linspace(0.01, 5.0, 200)
        for qn in sample_states(6, 6):
            batch = obs.current_profile(qn, BP, r)
            for i, x in enumerate(r):
                single = obs.current_profile(qn, BP, x)
                assert all(got == want[i] for got, want in zip(single, batch)), (qn, x)

    def test_density_nonnegative(self):
        grid = np.linspace(0.0, 5.0, 257)
        for qn in sample_states(3, 3):
            j0 = obs.current_profile(qn, BP, grid)[0]
            assert np.all(j0 >= 0.0)

    def test_ground_family_azimuthal_current_identically_zero(self):
        grid = np.linspace(0.0, 6.0, 512)
        for l in (0, 2):
            jphi = obs.current_profile(QuantumNumbers(-1, -1, l, 0), BP, grid)[2]
            assert np.all(jphi == 0.0)

    def test_negative_oam_current_negative_inside_positive_outside(self):
        qn = QuantumNumbers(1, -1, 2, 3)
        assert obs.current_density(qn, BP, 0.05).jphi < 0.0
        assert obs.current_density(qn, BP, 4.0).jphi > 0.0

    def test_observables_independent_of_phi_z_t(self):
        rng = np.random.default_rng(3)
        qn = QuantumNumbers(-1, 1, 2, 2)
        vals = np.array([obs.current_from_spinor(qn, BP, (1.1, phi, z, t))
                         for phi, z, t in rng.uniform(-4, 4, (30, 3))])
        assert np.max(np.var(vals, axis=0)) <= 1e-24 * np.max(vals**2)

    def test_physical_element_rescaling(self):
        qn = QuantumNumbers(1, 1, 1, 1)
        grid = np.linspace(0.0, 3.0, 64)
        raw = obs.radial_profile(qn, BP, grid)
        phys = obs.radial_profile(qn, BP, grid, physical_dr=True)
        assert np.allclose(phys.jphi, raw.jphi * math.sqrt(BP.beB / 2.0), rtol=1e-15)


class TestIntegrated:
    def test_two_closed_forms_agree(self):
        for bp in SETTINGS:
            for qn in sample_states(10, 10):
                a = obs.integrated_density(qn, bp)
                b = obs.integrated_density_longform(qn, bp)
                assert a == pytest.approx(b, rel=1e-12)

    def test_density_quadrature(self):
        for qn in sample_states(3, 3):
            assert obs.integrated_density(qn, BP) == pytest.approx(
                obs.integrated_density_quadrature(qn, BP), rel=1e-10)

    def test_ground_value(self):
        bp = BeamParameters(beB=0.25, m=1.0, k=0.6)
        en = math.sqrt(1.0 + 0.36)
        assert obs.integrated_density(QuantumNumbers(-1, -1, 0, 0), bp) == pytest.approx(
            2 * math.pi * en * (en + 1.0), rel=1e-14)

    def test_jz_zero_at_rest(self):
        bp = BeamParameters(beB=0.37, m=1.0, k=0.0)
        assert obs.integrated_jz(QuantumNumbers(1, 1, 2, 1), bp) == 0.0

    def test_jz_sign_follows_momentum(self):
        for k in (-1.2, 0.7):
            bp = BeamParameters(beB=0.37, m=1.0, k=k)
            assert math.copysign(1, obs.integrated_jz(QuantumNumbers(1, 1, 1, 1), bp)) \
                == math.copysign(1, k)

    def test_effective_mass_ratio(self):
        for qn in sample_states(3, 3):
            dec = energy(qn, BP)
            heavy = math.sqrt(BP.m**2 + BP.k**2 + dec.interaction_sq)
            ratio = obs.integrated_jz(qn, BP) / obs.integrated_density(qn, BP)
            assert ratio == pytest.approx(BP.k / heavy, rel=1e-14)

    def test_jz_quadrature(self):
        for qn in sample_states(3, 3):
            assert obs.integrated_jz(qn, BP) == pytest.approx(
                obs.integrated_jz_quadrature(qn, BP), rel=1e-10)


COMPANIONS = (obs.integrated_density_quadrature, obs.integrated_jz_quadrature,
              obs.r2_moment_quadrature, obs.gauge_covariant_jz_quadrature,
              obs.magnetic_moment_quadrature)


class TestSamplingCache:
    """Each Gauss rule is sampled once per state, and the cache never mixes beams."""

    @pytest.fixture
    def spinor_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_spinor(*args)

        obs._sampled.cache_clear()
        monkeypatch.setattr(obs, "evaluate_spinor", counted)
        return calls

    def test_companions_sample_twice(self, spinor_calls):
        qn = QuantumNumbers(1, -1, 3, 2)
        for companion in COMPANIONS:
            companion(qn, BP)
        assert len(spinor_calls) == 2

    def test_closed_and_quadrature_samples_twice(self, spinor_calls):
        pairs = obs.closed_and_quadrature(QuantumNumbers(-1, 1, 2, 1), BP)
        assert [name for name, _, _ in pairs] == ["int_j0", "int_jz", "r2_moment",
                                                  "jz_gauge", "mz"]
        assert len(spinor_calls) == 2

    @pytest.mark.parametrize("twin, signed", [
        (BeamParameters(beB=0.37, k=0.0), BeamParameters(beB=0.37, k=-0.0)),
        (BeamParameters(beB=0.0, k=0.8), BeamParameters(beB=-0.0, k=0.8)),
    ])
    def test_signed_zero_beam_is_not_its_twin(self, twin, signed):
        assert twin == signed
        qn = QuantumNumbers(1, 1, 2, 1)
        obs._sampled.cache_clear()
        nodes, _, twin_psi = obs._node_samples(qn, twin)
        psi = obs._node_samples(qn, signed)[2]
        uncached = evaluate_spinor(qn, signed, (np.sqrt(nodes), 0.0, 0.0, 0.0))
        # the twin's spinor has zeros of the other sign
        assert twin_psi.tobytes() != uncached.tobytes()
        assert psi.tobytes() == uncached.tobytes()

    def test_cached_spinor_is_read_only(self):
        nodes, weights, psi = obs._node_samples(QuantumNumbers(1, 1, 1, 1), BP, 2)
        for array in (nodes, weights, psi):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            psi[0, 0] = 1.0

    def test_cache_stays_bounded(self):
        for bp in SETTINGS:
            for qn in sample_states(3, 3):
                obs.closed_and_quadrature(qn, bp)
                obs.reduced_spin_quadrature(qn, bp)
        info = obs._sampled.cache_info()
        assert info.maxsize == 2 and info.currsize == 2


class TestSpinTexture:
    def test_radial_spin_zero_pointwise(self):
        rng = np.random.default_rng(8)
        for qn in sample_states(2, 2):
            for r, phi in rng.uniform([0.05, -3], [4, 3], (10, 2)):
                psi = evaluate_spinor(qn, BP, (r, phi, 0.2, -0.4))
                sr, _ = clifford.sigma_cylindrical(phi)
                val = np.real(np.vdot(psi, sr @ psi))
                assert abs(val) <= 1e-13 * max(1.0, np.vdot(psi, psi).real)

    def test_azimuthal_spin_matches_contraction(self):
        rng = np.random.default_rng(9)
        for qn in sample_states(2, 2):
            for r, phi in rng.uniform([0.05, -3], [4, 3], (6, 2)):
                psi = evaluate_spinor(qn, BP, (r, phi, 0.0, 0.0))
                _, sphi = clifford.sigma_cylindrical(phi)
                pointwise = 0.5 * np.real(np.vdot(psi, sphi @ psi))
                closed = obs.spin_texture(qn, BP, r).s_phi
                assert pointwise == pytest.approx(closed, abs=1e-13 * max(1, abs(closed)))

    def test_zero_when_at_rest(self):
        bp = BeamParameters(beB=0.37, m=1.0, k=0.0)
        for r in (0.3, 1.7):
            assert obs.spin_texture(QuantumNumbers(1, 1, 2, 2), bp, r).s_phi == 0.0

    def test_ground_family_uniform_polarization(self):
        qn = QuantumNumbers(-1, -1, 1, 0)
        for r in np.linspace(0.1, 4.0, 16):
            assert obs.spin_texture(qn, BP, r).s_phi == 0.0


class TestReducedSpin:
    def test_trace_exactly_one(self):
        for bp in SETTINGS:
            for qn in sample_states(4, 4):
                rho = obs.reduced_spin_state(qn, bp)
                assert rho.prob_up + rho.prob_down == 1.0

    def test_ground_family_pure(self):
        rho = obs.reduced_spin_state(QuantumNumbers(-1, -1, 3, 0), BP)
        assert rho.prob_down == 1.0 and rho.prob_up == 0.0 and rho.purity == 1.0

    def test_purity_below_one_iff_mixing(self):
        for qn in sample_states(3, 3):
            rho = obs.reduced_spin_state(qn, BP)
            if energy(qn, BP).interaction_sq == 0.0:
                assert rho.purity == 1.0
            else:
                assert rho.purity < 1.0

    def test_majority_weight_formula(self):
        for qn in sample_states(3, 3):
            dec = energy(qn, BP)
            en = dec.total
            expect = ((BP.m + en)**2 + BP.k**2) / (2 * en * (en + BP.m))
            rho = obs.reduced_spin_state(qn, BP)
            majority = rho.prob_up if qn.spin_sign > 0 else rho.prob_down
            assert majority == pytest.approx(expect, rel=1e-13)

    def test_quadrature_oracle(self):
        for qn in sample_states(2, 2):
            rho = obs.reduced_spin_state(qn, BP)
            quad = obs.reduced_spin_quadrature(qn, BP)
            assert rho.prob_up == pytest.approx(quad.prob_up, abs=1e-9)
            assert rho.prob_down == pytest.approx(quad.prob_down, abs=1e-9)

    def test_off_diagonal_killed_by_angular_integration(self):
        # trapezoid in phi of the up-down overlap at fixed radius
        qn = QuantumNumbers(1, 1, 2, 2)
        phis = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        overlap = 0.0
        for r in (0.5, 1.5, 2.5):
            vals = np.array([evaluate_spinor(qn, BP, (r, phi, 0, 0))
                             for phi in phis])
            overlap += np.sum(vals[:, 0] * np.conj(vals[:, 1])
                              + vals[:, 2] * np.conj(vals[:, 3])) / len(phis)
        assert abs(overlap) <= 1e-14


class TestAngularMomentum:
    def test_canonical_values(self):
        assert QuantumNumbers(1, 1, 2, 0).canonical_jz == 2.5
        assert QuantumNumbers(-1, -1, 0, 3).canonical_jz == -0.5
        assert QuantumNumbers(1, -1, 1, 0).canonical_jz == -0.5

    def test_protected_ground_state_exactly_half(self):
        for l in range(3):
            assert obs.gauge_covariant_jz(QuantumNumbers(-1, -1, l, 0), BP) == 0.5

    def test_negative_spin_family_formula(self):
        for p in range(1, 4):
            qn = QuantumNumbers(-1, -1, 2, p)
            dec = energy(qn, BP)
            delta = dec.interaction_sq / (2 * dec.total * (dec.total + BP.m))
            assert obs.gauge_covariant_jz(qn, BP) == pytest.approx(
                2 * p + 0.5 - delta, rel=1e-14)

    def test_quadrature_oracle(self):
        for qn in sample_states(3, 3):
            closed = obs.gauge_covariant_jz(qn, BP)
            quad = obs.gauge_covariant_jz_quadrature(qn, BP)
            assert closed == pytest.approx(quad, abs=1e-9 * max(1, abs(closed)))

    def test_r2_moment_closed_vs_quadrature(self):
        for qn in sample_states(3, 3):
            assert obs.r2_moment(qn, BP) == pytest.approx(
                obs.r2_moment_quadrature(qn, BP), rel=1e-10)

    def test_dropped_variant_is_half_integer(self):
        for bp in SETTINGS:
            for qn in sample_states(6, 6):
                val = obs.gauge_covariant_jz(qn, bp, drop_spin_orbit=True)
                assert abs(val - round(2 * val) / 2) <= 1e-12

    def test_dropped_variant_matches_quadrature(self):
        # zero the mixing column (component 3 for spin up, 2 for spin down) of
        # spinors sampled at Gauss-Laguerre nodes in x = r^2, then take the
        # canonical eigenvalue plus the mean of r^2 over the remaining density
        for qn in sample_states(2, 2):
            nodes, weights = np.polynomial.laguerre.laggauss(2 * (qn.l + 2 * qn.p) + 12)
            psi = evaluate_spinor(qn, BP, (np.sqrt(nodes), 0.0, 0.0, 0.0))
            psi[:, 3 if qn.spin_sign > 0 else 2] = 0.0
            density = weights * np.exp(nodes) * np.sum(np.abs(psi)**2, axis=1)
            quad = qn.canonical_jz + np.sum(density * nodes) / np.sum(density)
            assert obs.gauge_covariant_jz(qn, BP, drop_spin_orbit=True) == pytest.approx(
                quad, abs=1e-9)

    def test_orbital_step_of_two_in_radial_index(self):
        for qn in sample_states(3, 3):
            up = QuantumNumbers(qn.spin_sign, qn.oam_sign, qn.l, qn.p + 1)
            dropped_step = (obs.gauge_covariant_jz(up, BP, drop_spin_orbit=True)
                            - obs.gauge_covariant_jz(qn, BP, drop_spin_orbit=True))
            assert dropped_step == pytest.approx(2.0, abs=1e-14)
            full_step = obs.gauge_covariant_jz(up, BP) - obs.gauge_covariant_jz(qn, BP)
            delta_shift = qn.spin_sign * (
                energy(up, BP).interaction_sq / (2 * energy(up, BP).total * (energy(up, BP).total + BP.m))
                - energy(qn, BP).interaction_sq / (2 * energy(qn, BP).total * (energy(qn, BP).total + BP.m)))
            assert full_step == pytest.approx(2.0 + delta_shift, abs=1e-13)


class TestMagneticMoment:
    def test_ground_family_zero(self):
        assert obs.magnetic_moment(QuantumNumbers(-1, -1, 1, 0), BP) == 0.0

    def test_two_closed_forms_identical(self):
        for bp in SETTINGS:
            for qn in sample_states(4, 4):
                assert obs.magnetic_moment(qn, bp) == pytest.approx(
                    obs.magnetic_moment_from_angular(qn, bp), rel=1e-12)

    def test_quadrature_oracle(self):
        for qn in sample_states(3, 3):
            closed = obs.magnetic_moment(qn, BP)
            quad = obs.magnetic_moment_quadrature(qn, BP)
            assert abs(closed - quad) <= 1e-10 * max(1.0, abs(closed))

    def test_zero_field_rejected(self):
        bp = BeamParameters(beB=0.0, m=1.0, k=0.5)
        with pytest.raises(ValueError):
            obs.magnetic_moment(QuantumNumbers(1, 1, 1, 1), bp)


class TestCounterflow:
    def test_no_rings_without_radial_nodes(self):
        assert obs.counterflow_rings(QuantumNumbers(1, 1, 2, 0), BP) == []
        assert obs.counterflow_rings(QuantumNumbers(-1, 1, 2, 0), BP) == []

    def test_ground_family_empty(self):
        assert obs.counterflow_rings(QuantumNumbers(-1, -1, 2, 0), BP) == []

    def test_radii_are_roots_of_factor_pair(self):
        qn = QuantumNumbers(1, 1, 2, 3)
        radii = obs.sign_change_radii(qn)
        assert len(radii) == 6
        for r in radii:
            v1 = abs(eval_laguerre(3, 2, r * r))
            v2 = abs(eval_laguerre(3, 3, r * r))
            assert min(v1, v2) <= 1e-9

    def test_sign_changes_match_dense_scan(self):
        cases = {(1, 1): 6, (-1, 1): 6, (1, -1): 7, (-1, -1): 5}
        for fam, expected in cases.items():
            qn = QuantumNumbers(*fam, l=2, p=3)
            radii = obs.sign_change_radii(qn)
            assert len(radii) == expected
            grid = np.linspace(1e-4, radii[-1] + 2.0, 30001)
            jphi = obs.current_profile(qn, BP, grid)[2]
            signs = np.sign(jphi)
            flips = np.nonzero(np.diff(signs[signs != 0]) != 0)[0]
            assert len(flips) == expected

    def test_rings_carry_minority_sign(self):
        for qn in sample_states(6, 6):
            rings = obs.counterflow_rings(qn, BP)
            radii = obs.sign_change_radii(qn)
            if qn.p == 3 and qn.l == 2:
                assert rings
            if not radii:
                assert rings == []
                continue
            # sampling oracle: every bounded interval whose midpoint runs against the outside
            outer = obs.current_density(qn, BP, radii[-1] + 1.0).jphi
            expected = [(lo, hi) for lo, hi in zip([0.0] + radii[:-1], radii)
                        if obs.current_density(qn, BP, 0.5 * (lo + hi)).jphi * outer < 0.0]
            assert rings == expected

    def test_ring_interval_count(self):
        # p = 3: six sign changes for aligned OAM produce three bounded rings
        assert len(obs.counterflow_rings(QuantumNumbers(1, 1, 2, 3), BP)) == 3

    def test_roots_do_not_depend_on_call_order(self):
        # a factor cached for one family is the partner factor of another
        cases = [(qn, bp) for qn in sample_states(6, 6)
                 for bp in (BP, BeamParameters(beB=2.0, m=1.0, k=0.0))]

        def hexes(order):
            laguerre._bisected_roots.cache_clear()
            out = {}
            for qn, bp in order:
                rings = obs.counterflow_rings(qn, bp)
                out[qn, bp] = ([r.hex() for r in obs.sign_change_radii(qn)],
                               [(lo.hex(), hi.hex()) for lo, hi in rings])
            return out

        assert hexes(cases) == hexes(cases[::-1])


class TestGordon:
    def test_ground_family_exactly_zero(self):
        qn = QuantumNumbers(-1, -1, 2, 0)
        for n in (200, 400):
            grid = np.linspace(0.05, 6.0, n)
            scale = np.max(np.abs(obs.current_profile(qn, BP, grid)[3]))
            assert obs.gordon_residual(qn, BP, grid) <= 5e-14 * scale

    def test_zero_momentum_trivial(self):
        bp = BeamParameters(beB=0.37, m=1.0, k=0.0)
        grid = np.linspace(0.05, 6.0, 200)
        assert obs.gordon_residual(QuantumNumbers(1, 1, 2, 2), bp, grid) <= 1e-15

    def test_second_order_convergence(self):
        for qn in (QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 1, 1),
                   QuantumNumbers(1, -1, 1, 2)):
            coarse = obs.gordon_residual(qn, BP, np.linspace(0.05, 6.0, 200))
            fine = obs.gordon_residual(qn, BP, np.linspace(0.05, 6.0, 400))
            assert math.log2(coarse / fine) >= 1.9

    def test_bad_grid_rejected(self):
        qn = QuantumNumbers(1, 1, 1, 1)
        with pytest.raises(ValueError):
            obs.gordon_residual(qn, BP, np.array([0.1, 0.2, 0.15, 0.3, 0.4]))
        with pytest.raises(ValueError):
            obs.gordon_residual(qn, BP, np.array([0.0, 0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(ValueError):
            obs.gordon_residual(qn, BP, np.array([0.1, 0.2]))


class TestMassOtherThanOne:
    """The physics at m = 1.7: at m = 1 a factor m and a factor 1/m look alike."""

    BEAM = BeamParameters(beB=0.37, m=1.7, k=0.8)

    def test_closed_forms_quadrature_and_dirac_equation(self):
        for qn in iter_states(4, 4):
            pairs = obs.closed_and_quadrature(qn, self.BEAM)
            for name, closed, quad in pairs:
                assert abs(closed - quad) <= 1e-9 * max(1.0, abs(closed)), (qn, name)
            density = integrated_density(qn, self.BEAM)
            assert abs(obs.integrated_density_longform(qn, self.BEAM) - density) \
                <= 1e-12 * density, qn
            assert abs(normalization_constant(qn, self.BEAM)**2 * pairs[0][2] - 1.0) <= 1e-10
            assert ps.dirac_residual(qn, self.BEAM) <= 1e-10, qn

    def test_gordon_second_order_convergence(self):
        for qn in (QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 1, 1),
                   QuantumNumbers(1, -1, 1, 2)):
            coarse = obs.gordon_residual(qn, self.BEAM, np.linspace(0.05, 6.0, 200))
            fine = obs.gordon_residual(qn, self.BEAM, np.linspace(0.05, 6.0, 400))
            assert math.log2(coarse / fine) >= 1.9, qn


HAND_WRITTEN_BEAMS = [BeamParameters(beB=0.37, m=1.0, k=0.8),
                      BeamParameters(beB=1e-10, m=1.0, k=1.0),
                      BeamParameters(beB=1.0, m=1.0, k=3.0),
                      BeamParameters(beB=1e3, m=1.0, k=10.0),
                      BeamParameters(beB=0.37, m=1.0, k=-0.0)]


class TestHandWrittenIntegrands:
    """Every contraction in ``observables`` goes through one matrix helper; the
    integrands written out component by component in the standard representation
    give the same sums, float for float."""

    @staticmethod
    def sampled(qn, bp, extra_degree=0):
        nodes, weights, psi = obs._node_samples(qn, bp, extra_degree)
        return nodes, weights, psi, np.sum(np.abs(psi)**2, axis=1)

    @staticmethod
    def gordon_by_components(qn, bp, r):
        m = bp.m
        psi = evaluate_spinor(qn, bp, (r, 0.0, 0.0, 0.0))
        c0, c1, c2, c3 = psi[:, 0], psi[:, 1], psi[:, 2], psi[:, 3]
        jz = 2.0 * np.real(np.conj(c0) * c2) - 2.0 * np.real(np.conj(c1) * c3)
        bar_density = np.abs(c0)**2 + np.abs(c1)**2 - np.abs(c2)**2 - np.abs(c3)**2
        mag_phi = (2.0 * np.imag(np.conj(c0) * c1) - 2.0 * np.imag(np.conj(c2) * c3)) / (2.0 * m)
        a = r * mag_phi
        curl = bp.coordinate_scale * ((a[2:] - a[:-2]) / (r[2:] - r[:-2])) / r[1:-1]
        return float(np.max(np.abs(jz[1:-1] - bp.k / m * bar_density[1:-1] - curl)))

    @pytest.mark.parametrize("bp", HAND_WRITTEN_BEAMS)
    def test_companions_equal_component_sums(self, bp):
        grid = np.linspace(0.05, 6.0, 200)
        for qn in iter_states(6, 6):
            nodes, weights, psi, density = self.sampled(qn, bp)
            c0, c1, c2, c3 = psi[:, 0], psi[:, 1], psi[:, 2], psi[:, 3]
            int_j0 = math.pi * obs._weighted_sum(weights, nodes, density)
            jz = 2.0 * np.real(np.conj(c0) * c2) - 2.0 * np.real(np.conj(c1) * c3)
            up = obs._weighted_sum(weights, nodes, np.abs(c0)**2 + np.abs(c2)**2)
            down = obs._weighted_sum(weights, nodes, np.abs(c1)**2 + np.abs(c3)**2)
            nodes2, weights2, psi2, density2 = self.sampled(qn, bp, 2)
            r2 = math.pi * obs._weighted_sum(weights2, nodes2, density2 * nodes2)
            mat = clifford.GAMMA0 @ clifford.gamma_cylindrical(0.0)[1]
            jphi = np.real(np.einsum("ni,ij,nj->n", np.conj(psi2), mat, psi2))
            mz = (-math.pi * math.sqrt(2.0 / bp.beB)
                  * (0.5 * obs._weighted_sum(weights2 * np.sqrt(nodes2), nodes2, jphi)))
            spin = obs.reduced_spin_quadrature(qn, bp)
            assert obs.integrated_density_quadrature(qn, bp) == int_j0
            assert obs.integrated_jz_quadrature(qn, bp) == math.pi * obs._weighted_sum(
                weights, nodes, jz)
            assert obs.r2_moment_quadrature(qn, bp) == r2
            assert obs.gauge_covariant_jz_quadrature(qn, bp) == qn.canonical_jz + r2 / int_j0
            assert obs.magnetic_moment_quadrature(qn, bp) == mz
            assert (spin.prob_up, spin.prob_down) == (up / (up + down), down / (up + down))
            assert obs.gordon_residual(qn, bp, grid) == self.gordon_by_components(qn, bp, grid)
