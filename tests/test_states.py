"""Energies, spinor values and the level table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracvortex import polyspinor as ps
from diracvortex.observables import integrated_density_quadrature
from diracvortex.states import (FAMILIES, BeamParameters, QuantumNumbers, energy,
                                evaluate_spinor, normalization_constant,
                                scalar_mode, spectrum_table)

BP = BeamParameters(beB=0.37, m=1.0, k=0.8)


def all_states(lmax, pmax):
    for spin, oam in FAMILIES:
        lmin = 0 if spin == oam else 1
        for l in range(lmin, lmax + 1):
            for p in range(pmax + 1):
                yield QuantumNumbers(spin, oam, l, p)


class TestQuantumNumbers:
    def test_l_zero_ownership(self):
        QuantumNumbers(1, 1, 0, 0)
        QuantumNumbers(-1, -1, 0, 2)
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 1, 0, 0)
        with pytest.raises(ValueError):
            QuantumNumbers(1, -1, 0, 1)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            QuantumNumbers(1, 1, -1, 0)
        with pytest.raises(ValueError):
            QuantumNumbers(1, 1, 0, -1)

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            QuantumNumbers(0, 1, 1, 0)

    def test_canonical_jz(self):
        assert QuantumNumbers(1, 1, 2, 0).canonical_jz == 2.5
        assert QuantumNumbers(-1, 1, 2, 0).canonical_jz == 1.5
        assert QuantumNumbers(1, -1, 2, 0).canonical_jz == -1.5
        assert QuantumNumbers(-1, -1, 2, 0).canonical_jz == -2.5


class TestEnergy:
    def test_ground_family_interaction_cancels(self):
        for l in range(4):
            dec = energy(QuantumNumbers(-1, -1, l, 0), BP)
            assert dec.interaction_sq == 0.0
            assert dec.total == math.sqrt(BP.m**2 + BP.k**2)

    def test_lowest_positive_spin_level(self):
        dec = energy(QuantumNumbers(1, 1, 0, 0), BP)
        assert dec.interaction_sq == pytest.approx(2 * BP.beB, rel=1e-15)

    def test_ladder_spacing(self):
        for qn in all_states(3, 3):
            up = QuantumNumbers(qn.spin_sign, qn.oam_sign, qn.l, qn.p + 1)
            diff = energy(up, BP).landau_sq - energy(qn, BP).landau_sq
            assert diff == pytest.approx(2 * BP.beB, rel=1e-14)

    def test_negative_oam_landau_energy_independent_of_l(self):
        ref = energy(QuantumNumbers(1, -1, 1, 2), BP).landau_sq
        for l in range(2, 6):
            assert energy(QuantumNumbers(1, -1, l, 2), BP).landau_sq == ref

    def test_radicand_never_below_mass_shell(self):
        for qn in all_states(5, 5):
            assert energy(qn, BP).total >= math.sqrt(BP.m**2 + BP.k**2) - 1e-15


class TestScalarMode:
    def test_vortex_core_zero(self):
        for l in (1, 3):
            qn = QuantumNumbers(1, 1, l, 2)
            assert scalar_mode(qn, BP, (0.0, 0.7, 0.1, 0.2)) == 0.0

    def test_origin_value_without_vortex(self):
        qn = QuantumNumbers(1, 1, 0, 0)
        assert scalar_mode(qn, BP, (0.0, 0.0, 0.0, 0.0)) == 1.0

    @given(st.floats(0.0, 4.0, allow_nan=False), st.floats(-6.0, 6.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_modulus_independent_of_phi(self, r, phi):
        qn = QuantumNumbers(1, 1, 2, 1)
        a = abs(scalar_mode(qn, BP, (r, phi, 0.0, 0.0)))
        b = abs(scalar_mode(qn, BP, (r, 0.0, 0.0, 0.0)))
        assert a == pytest.approx(b, abs=1e-15)


class TestSpinor:
    def test_frozen_components_simplest_state(self):
        qn = QuantumNumbers(1, 1, 0, 0)
        en = energy(qn, BP).total
        val = evaluate_spinor(qn, BP, (1.0, 0.0, 0.0, 0.0))
        env = math.exp(-0.5)
        assert val[0] == pytest.approx((BP.m + en) * env, rel=1e-15)
        assert val[1] == 0.0
        assert val[2] == pytest.approx(BP.k * env, rel=1e-15)
        assert val[3] == pytest.approx(1j * math.sqrt(2 * BP.beB) * env, rel=1e-15)

    def test_ground_family_spin_orbit_vanishes_everywhere(self):
        qn = QuantumNumbers(-1, -1, 2, 0)
        rng = np.random.default_rng(0)
        for r, phi in rng.uniform([0, -3], [4, 3], size=(20, 2)):
            comp = evaluate_spinor(qn, BP, (r, phi, 0.5, -0.5))
            assert comp[2] == 0.0

    def test_mixing_column_is_partner_scalar_mode(self):
        rng = np.random.default_rng(17)
        amplitudes = {(1, 1): lambda l, p: 1, (-1, 1): lambda l, p: -(p + l),
                      (1, -1): lambda l, p: -(p + 1), (-1, -1): lambda l, p: 1}
        for qn in all_states(6, 6):
            points = [tuple(x) for x in rng.uniform([0, -3, -2, -2], [4, 3, 2, 2], size=(12, 4))]
            mixed = 3 if qn.spin_sign > 0 else 2
            got = np.array([evaluate_spinor(qn, BP, pt)[mixed] for pt in points])
            partner = qn.spin_orbit_partner()
            if partner is None:
                assert qn.family == (-1, -1) and qn.p == 0
                assert np.all(got == 0.0)
                continue
            a = amplitudes[qn.family](qn.l, qn.p)
            expect = np.array([1j * math.sqrt(2 * BP.beB) * a * scalar_mode(partner, BP, pt)
                               for pt in points])
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_all_components_vanish_on_axis_for_vortex_at_rest(self):
        bp = BeamParameters(beB=0.37, m=1.0, k=0.0)
        for fam in FAMILIES:
            qn = QuantumNumbers(*fam, l=2, p=1)
            comp = evaluate_spinor(qn, bp, (0.0, 1.0, 0.0, 0.0))
            assert np.all(comp == 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            evaluate_spinor(QuantumNumbers(1, 1, 0, 0), BP, (-0.1, 0, 0, 0))

    def test_array_point_matches_pointwise_calls(self):
        rng = np.random.default_rng(23)
        for qn in all_states(6, 6):
            points = rng.uniform([0, -3, -2, -2], [4, 3, 2, 2], size=(17, 4))
            batch = evaluate_spinor(qn, BP, points.T)
            single = np.array([evaluate_spinor(qn, BP, tuple(pt)) for pt in points])
            assert batch.shape == (17, 4)
            assert np.max(np.abs(batch - single)) <= 1e-15 * np.max(np.abs(single))

    def test_array_point_exact_without_phases(self):
        r = np.random.default_rng(29).uniform(0, 4, size=17)
        for qn in all_states(6, 6):
            batch = evaluate_spinor(qn, BP, (r, 0.0, 0.0, 0.0))
            single = np.array([evaluate_spinor(qn, BP, (x, 0.0, 0.0, 0.0))
                               for x in r])
            assert np.array_equal(batch, single)

    def test_component_shapes(self):
        qn = QuantumNumbers(-1, 1, 2, 1)
        assert isinstance(evaluate_spinor(qn, BP, (1.0, 0.5, 0.0, 0.0)), np.ndarray)
        assert evaluate_spinor(qn, BP, (1.0, 0.5, 0.0, 0.0)).shape == (4,)
        r = np.linspace(0.0, 3.0, 7)
        assert evaluate_spinor(qn, BP, (r, 0.5, 0.1, 0.2)).shape == (7, 4)

    def test_negative_radius_in_array_rejected(self):
        r = np.array([0.5, 1.0, -1e-12, 2.0])
        with pytest.raises(ValueError):
            evaluate_spinor(QuantumNumbers(1, 1, 0, 0), BP, (r, 0.0, 0.0, 0.0))

    def test_dirac_equation_sample(self):
        for fam, l in (((1, 1), 0), ((-1, 1), 1), ((1, -1), 2), ((-1, -1), 0)):
            qn = QuantumNumbers(*fam, l=l, p=2)
            assert ps.dirac_residual(qn, BP) <= 1e-12

    def test_canonical_jz_eigenvalues_by_operator(self):
        for fam, expect in (((1, 1), 2.5), ((-1, 1), 1.5),
                            ((1, -1), -1.5), ((-1, -1), -2.5)):
            qn = QuantumNumbers(*fam, l=2, p=1)
            f = ps.state_to_polyspinor(qn, BP)
            ok, lam = ps.is_scalar_multiple(ps.apply_canonical_jz(f), f)
            assert ok and lam == pytest.approx(expect, abs=1e-12)

    def test_transverse_squared_operator_eigenvalue(self):
        for qn in all_states(3, 3):
            f = ps.state_to_polyspinor(qn, BP)
            res = ps.landau_eigen_residual(f, BP, energy(qn, BP).interaction_sq)
            assert res <= 1e-12


class TestNormalization:
    def test_simplest_limit(self):
        bp = BeamParameters(beB=1e-12, m=1.0, k=0.8)
        qn = QuantumNumbers(-1, -1, 0, 0)
        en = math.sqrt(bp.m**2 + bp.k**2)
        expect = 1.0 / math.sqrt(2 * math.pi * en * (en + bp.m))
        assert normalization_constant(qn, bp) == pytest.approx(expect, rel=1e-10)

    def test_quadrature_gives_unit_density(self):
        for qn in (QuantumNumbers(1, 1, 2, 3), QuantumNumbers(-1, 1, 1, 2),
                   QuantumNumbers(1, -1, 3, 1), QuantumNumbers(-1, -1, 0, 4)):
            total = integrated_density_quadrature(qn, BP)
            assert normalization_constant(qn, BP)**2 * total == pytest.approx(1.0, abs=1e-10)

    def test_continuous_in_field(self):
        qn = QuantumNumbers(1, 1, 1, 1)
        values = [normalization_constant(qn, BeamParameters(beB=b, m=1.0, k=0.8))
                  for b in np.linspace(1e-6, 0.5, 40)]
        steps = np.abs(np.diff(values))
        assert np.all(steps < 0.1 * abs(values[0]))


class TestSpectrum:
    def test_max_levels_one_is_ground_family_only(self):
        entries = spectrum_table(BP, 1)
        assert entries
        base = math.sqrt(BP.m**2 + BP.k**2)
        for e in entries:
            assert e.qn.family == (-1, -1) and e.qn.p == 0
            assert e.energy.total == base
            assert e.partner is None

    def test_partner_none_only_for_protected_ground_states(self):
        for e in spectrum_table(BP, 5):
            if e.partner is None:
                assert e.qn.family == (-1, -1) and e.qn.p == 0

    def test_partners_share_energy_and_jz(self):
        for e in spectrum_table(BP, 6):
            if e.partner is None:
                continue
            pq = e.partner
            assert pq.spin_sign == -e.qn.spin_sign
            assert energy(pq, BP).interaction_sq == pytest.approx(
                e.energy.interaction_sq, rel=1e-14)
            assert pq.canonical_jz == e.canonical_jz

    def test_partner_is_involutive(self):
        for e in spectrum_table(BP, 5):
            if e.partner is not None:
                assert e.partner.spin_orbit_partner() == e.qn

    def test_every_positive_spin_level_has_a_partner(self):
        for e in spectrum_table(BP, 6):
            if e.qn.spin_sign > 0:
                assert e.partner is not None

    def test_sorted_by_jz_then_energy(self):
        entries = spectrum_table(BP, 5)
        keys = [(round(2 * e.canonical_jz), e.qn.interaction_index) for e in entries]
        assert keys == sorted(keys)

    def test_no_duplicate_states(self):
        entries = spectrum_table(BP, 6)
        labels = [e.qn for e in entries]
        assert len(labels) == len(set(labels))

    def test_squared_energy_column_spacing(self):
        steps = sorted({2 * e.qn.interaction_index for e in spectrum_table(BP, 5)})
        assert steps == list(range(0, 2 * 5 - 1, 2))
