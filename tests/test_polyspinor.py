"""The exact operator algebra: closure, linearity, momenta, generators and
the commutator identities, all on machine-precision residuals."""

from fractions import Fraction
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracvortex import clifford, observables as obs, polyspinor as ps
from diracvortex.states import (FAMILIES, BeamParameters, QuantumNumbers, energy,
                                evaluate_spinor, iter_states)
from polyspinor_helpers import degrees, is_scalar_multiple, trimmed

BP = BeamParameters(beB=0.37, m=1.0, k=0.8)
RNG = np.random.default_rng(2718)


def random_f(degree=4, zt=1, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    return ps.random_polyspinor(rng, degree=degree, zt_degree=zt)


class TestPrimitives:
    def test_momentum_along_field_is_plane_wave(self):
        f = random_f(seed=1)
        pz = ps.apply_gauge_momentum(3, f, ps.FieldConfig())
        # lower-index P_3 on exp(ikz) gives -k when the polynomial is z-free
        g = random_f(degree=3, zt=0, seed=2)
        pz_pure = ps.apply_gauge_momentum(3, g, ps.FieldConfig())
        ok, lam = is_scalar_multiple(pz_pure, g)
        assert ok and lam == pytest.approx(-g.kz, abs=1e-14)
        assert pz.max_abs() > 0  # polynomial z-dependence adds derivative terms

    def test_energy_operator_is_scalar(self):
        g = random_f(degree=3, zt=0, seed=3)
        p0 = ps.apply_gauge_momentum(0, g, ps.FieldConfig())
        ok, lam = is_scalar_multiple(p0, g)
        assert ok and lam == pytest.approx(g.energy, abs=1e-14)

    def test_transverse_kinetic_energy_of_gaussian_ground_mode(self):
        # (P_x^2 + P_y^2) on the bare Gaussian equals beB times the mode
        qn = QuantumNumbers(1, 1, 0, 0)
        f = ps.scalar_state_to_polyspinor(qn, BP, 0)
        fld = ps.landau_field(BP)
        kin = ps.apply_gauge_momentum(1, ps.apply_gauge_momentum(1, f, fld), fld) \
            + ps.apply_gauge_momentum(2, ps.apply_gauge_momentum(2, f, fld), fld)
        ok, lam = is_scalar_multiple(kin, f)
        assert ok and lam == pytest.approx(BP.beB, rel=1e-14)

    def test_linearity_of_operators(self):
        f = random_f(seed=4)
        g = random_f(seed=5)
        a, b = 0.37 - 1.1j, -2.2 + 0.05j
        fld = ps.FieldConfig(B=(0.1, 0.2, -0.3), E=(0.4, -0.5, 0.6))
        for op in (lambda h: ps.apply_gauge_momentum(1, h, fld),
                   lambda h: ps.apply_canonical_jz(h),
                   lambda h: ps.apply_gauge_covariant_j("y", h, fld),
                   lambda h: ps.apply_dirac(h, fld)):
            lhs = op(a * f + b * g)
            rhs = a * op(f) + b * op(g)
            assert ps.relative_residual(lhs, rhs, f, g) <= 1e-13

    def test_closure_under_randomized_applications(self):
        # primitive actions stay in the class; degree grows by at most 2.
        # Short chains keep the polynomial degree bounded so ten thousand
        # applications stay cheap.
        rng = np.random.default_rng(12)
        fld = ps.FieldConfig(B=(0.3, -0.7, 0.5), E=(0.2, 0.1, -0.4))
        ops = [lambda h: ps.apply_gauge_momentum(int(rng.integers(0, 4)), h, fld),
               ps.apply_canonical_jz,
               lambda h: ps.apply_gauge_covariant_j(("x", "y", "z")[int(rng.integers(0, 3))], h, fld),
               lambda h: h.apply_matrix(clifford.gamma(int(rng.integers(0, 4))))]
        applications = 0
        for chain in range(1250):
            g = random_f(degree=2, zt=0, seed=1000 + chain)
            for _ in range(8):
                op = ops[int(rng.integers(0, len(ops)))]
                before = degrees(g)
                g = trimmed(op(g))
                after = degrees(g)
                applications += 1
                assert all(a <= b + 2 for a, b in zip(after, before))
                assert np.all(np.isfinite(g.coeffs))
                if g.max_abs() > 1e12:   # renormalise to keep coefficients sane
                    g = (1.0 / g.max_abs()) * g
        assert applications == 10000

    def test_coordinate_lower_follows_the_metric(self):
        # x_0 = t and x_i = -x^i: the time coordinate keeps its sign
        f = random_f(seed=7)
        assert np.array_equal(ps._coordinate_lower(0, f).coeffs, f.mul(0).coeffs)
        for mu in (1, 2, 3):
            assert np.array_equal(ps._coordinate_lower(mu, f).coeffs, (-1.0 * f.mul(mu)).coeffs)
        for mu in (-1, 4):
            with pytest.raises(ValueError, match="index must be 0..3"):
                ps._coordinate_lower(mu, f)

    def test_incompatible_operands_rejected(self):
        f = random_f(seed=6)
        base = {"energy": f.energy, "kz": f.kz, "mass": f.mass, "scale": f.scale}
        for name in base:
            other = ps.PolyGaussSpinor(f.coeffs, **{**base, name: base[name] + 1.0})
            with pytest.raises(ValueError, match=f"different {name}"):
                _ = f + other
            with pytest.raises(ValueError, match=f"different {name}"):
                _ = other + f


def _pad_to(coeffs, shape):
    out = np.zeros(shape, dtype=complex)
    out[:coeffs.shape[0], :coeffs.shape[1], :coeffs.shape[2],
        :coeffs.shape[3], :coeffs.shape[4]] = coeffs
    return out


class TestFastPathOracles:
    """The cheap primitives against their plain numpy definitions, bit for bit."""

    def test_shift_is_pad_on_every_axis(self):
        f = random_f(degree=3, zt=2, seed=50)
        for axis, shifted in ((1, f.mul(1)), (2, f.mul(2)), (3, f.mul(3)), (4, f.mul(0))):
            pad = [(0, 0)] * 5
            pad[axis] = (1, 0)
            assert shifted.coeffs.shape == np.pad(f.coeffs, pad).shape
            assert np.array_equal(shifted.coeffs, np.pad(f.coeffs, pad))

    def test_mul_and_d_are_explicit_numpy(self):
        # mu = 0..3 acts on coefficient axes 4, 1, 2, 3; x and y carry the scale
        f = ps.state_to_polyspinor(QuantumNumbers(-1, 1, 2, 1), BP)
        g = ps.PolyGaussSpinor(random_f(degree=3, zt=2, seed=56).coeffs,
                               f.energy, f.kz, f.mass, f.scale)
        s = f.scale
        assert s == math.sqrt(BP.beB / 2.0) != 1.0
        for h in (f, g):
            c = h.coeffs
            for mu, axis in enumerate((4, 1, 2, 3)):
                n = c.shape[axis]
                before, after = [(0, 0)] * 5, [(0, 0)] * 5
                before[axis], after[axis] = (1, 0), (0, 1)
                shifted = np.pad(c, before)
                powers = np.arange(1, n).reshape([n - 1 if a == axis else 1 for a in range(5)])
                deriv = np.pad(np.take(c, range(1, n), axis=axis) * powers, after)
                if axis in (1, 2):
                    mul, d = shifted * (1.0 / s), (np.pad(deriv, after) - shifted) * s
                else:
                    phase = 1j * h.kz if axis == 3 else -1j * h.energy
                    mul, d = shifted, deriv + c * phase
                assert np.array_equal(h.mul(mu).coeffs, mul)
                assert np.array_equal(h.d(mu).coeffs, d)

    def test_add_equal_shapes(self):
        f, g = random_f(seed=51), random_f(seed=52)
        assert np.array_equal((f + g).coeffs, f.coeffs + g.coeffs)

    def test_add_mismatched_shapes(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            shapes = [(4,) + tuple(int(n) for n in rng.integers(1, 5, size=4)) for _ in range(2)]
            a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
            f = ps.PolyGaussSpinor(a, 1.3, 0.7, 1.0)
            g = ps.PolyGaussSpinor(b, 1.3, 0.7, 1.0)
            shape = tuple(np.maximum(a.shape, b.shape))
            expect = _pad_to(a, shape) + _pad_to(b, shape)
            assert (f + g).coeffs.shape == shape
            assert np.array_equal((f + g).coeffs, expect)
            assert np.array_equal((f - g).coeffs,
                                  _pad_to(a, shape) + _pad_to(-1.0 * b, shape))

    @staticmethod
    def _full_potential(mu, f, fld):
        """Every term of A_mu f, zero field components included."""
        (ex, ey, ez), (bx, by, bz) = fld.E, fld.B
        return {0: (-ex) * f.mul(1) + (-ey) * f.mul(2) + (-ez) * f.mul(3),
                1: (-0.5 * by) * f.mul(3) + (0.5 * bz) * f.mul(2),
                2: (-0.5 * bz) * f.mul(1) + (0.5 * bx) * f.mul(3),
                3: (-0.5 * bx) * f.mul(2) + (0.5 * by) * f.mul(1)}[mu]

    def test_potential_skips_only_zero_terms(self):
        f = random_f(degree=3, zt=1, seed=54)
        fields = [ps.FieldConfig(B=(0.0, 0.0, 1.3)),
                  ps.FieldConfig(E=(0.0, 0.0, 0.8)),
                  ps.FieldConfig(B=(0.3, 0.0, -0.2), E=(0.0, 0.5, 0.0)),
                  ps.FieldConfig(B=(0.3, -0.2, 0.8), E=(0.1, 0.5, -0.4)),
                  ps.FieldConfig(),
                  ps.FieldConfig(B=(-0.0, 0.5, 0.0), E=(0.2, -0.0, 0.0)),
                  # np.float64 components, as verify builds its fields
                  ps.FieldConfig(B=tuple(np.random.default_rng(11).uniform(-1, 1, 3)),
                                 E=tuple(np.random.default_rng(11).uniform(-1, 1, 3)))]
        for fld in fields:
            for mu in range(4):
                fast = trimmed(ps._potential_action(mu, f, fld)).coeffs
                full = trimmed(self._full_potential(mu, f, fld)).coeffs
                assert fast.shape == full.shape
                assert np.array_equal(fast, full)

    @pytest.mark.parametrize("mu", [-1, 4])
    def test_index_out_of_range_rejected(self, mu):
        # a tuple lookup alone would take -1 as the last index
        f = random_f(degree=2, zt=1, seed=55)
        fld = ps.FieldConfig(B=(0.3, -0.2, 0.8), E=(0.1, 0.5, -0.4))
        with pytest.raises(ValueError, match="index must be 0..3"):
            ps.apply_gauge_momentum(mu, f, fld)
        with pytest.raises(ValueError, match="index must be 0..3"):
            ps.apply_gauge_covariant_j((mu, 1), f, fld)
        with pytest.raises(ValueError, match="index must be 0..3"):
            ps._potential_action(mu, f, fld)

    def test_landau_potential_keeps_z_degree(self):
        # the zero components of the Landau field add no z power
        qn = QuantumNumbers(1, 1, 2, 1)
        f = ps.state_to_polyspinor(qn, BP)
        assert f.coeffs.shape[3] == 1
        assert ps.apply_dirac(f, ps.landau_field(BP)).coeffs.shape[3] == 1


class TestDiracResidual:
    def test_sample_families(self):
        for fam, l in (((1, 1), 0), ((-1, 1), 2), ((1, -1), 1), ((-1, -1), 3)):
            qn = QuantumNumbers(*fam, l=l, p=4)
            assert ps.dirac_residual(qn, BP) <= 1e-12

    def test_weak_field_regime(self):
        bp = BeamParameters(beB=1e-10, m=1.0, k=1.0)
        assert ps.dirac_residual(QuantumNumbers(1, 1, 3, 3), bp) <= 1e-12

    def test_wrong_energy_fails_loudly(self):
        qn = QuantumNumbers(1, 1, 2, 3)
        assert ps.dirac_residual(qn, BP, energy_shift=0.1) > 1e-3

    def test_high_quantum_numbers(self):
        # p + 2 radial coefficients per component: (20, 150) would be a 322^2 box per
        # component in Cartesian form.  A fixed shift of 0.1 is only ~2e-4 of E at
        # beB = 1e3, so the control shifts E by a tenth of itself.
        beams = [BeamParameters(beB=beb, m=1.0, k=k) for beb, k in ((0.37, 0.8), (1e-3, 3.0),
                                                                   (1e3, 10.0))]
        for bp in beams:  # a RuntimeWarning fails the test (pyproject's filterwarnings)
            for l, p in ((50, 50), (100, 60), (60, 100), (120, 50), (20, 150)):
                for family in FAMILIES:
                    qn = QuantumNumbers(*family, l, p)
                    assert ps.dirac_residual(qn, bp) <= 1e-15, (qn, bp)
                    shift = 0.1 * energy(qn, bp).total
                    assert ps.dirac_residual(qn, bp, energy_shift=shift) >= 1e-3, (qn, bp)

    def test_spin_orbit_term_is_required(self):
        # dropping the mixing column (component 3 for spin up, 2 for spin
        # down) breaks the equation except for the protected ground family,
        # where it vanishes anyway
        def dropped_residual(qn):
            g = ps.state_to_polyspinor(qn, BP)
            g.coeffs[3 if qn.spin_sign > 0 else 2] = 0.0
            return ps.relative_residual(ps.apply_dirac(g, ps.landau_field(BP)),
                                        ps.zero_like(g), g)

        assert dropped_residual(QuantumNumbers(1, 1, 1, 1)) > 1e-3
        assert dropped_residual(QuantumNumbers(-1, -1, 2, 0)) <= 1e-12

    def test_scalar_squared_equation(self):
        for qn, comp in ((QuantumNumbers(1, 1, 2, 3), 0),
                         (QuantumNumbers(-1, -1, 1, 2), 1)):
            f = ps.scalar_state_to_polyspinor(qn, BP, comp)
            res = ps.landau_eigen_residual(f, BP, energy(qn, BP).interaction_sq)
            assert res <= 1e-12

    def test_zero_field_conversion_rejected(self):
        bp = BeamParameters(beB=0.0, m=1.0, k=0.5)
        with pytest.raises(ValueError):
            ps.state_to_polyspinor(QuantumNumbers(1, 1, 1, 1), bp)


class TestStateConversion:
    def test_polynomial_form_is_pointwise_spinor(self):
        # polynomial in u = r cos phi, v = r sin phi times the envelope
        # e^{-r^2/2} e^{i(kz - Et)}, against the closed form at random points
        rng = np.random.default_rng(31)
        r, phi, z, t = rng.uniform([0.0, -np.pi, -2.0, -2.0], [3.0, np.pi, 2.0, 2.0],
                                   (12, 4)).T
        u, v = r * np.cos(phi), r * np.sin(phi)
        for bp in (BP, BeamParameters(beB=2.0, m=1.0, k=0.0),
                   BeamParameters(beB=1e-3, m=1.0, k=3.0)):
            for qn in iter_states(6, 6):
                f = ps.state_to_polyspinor(qn, bp)
                envelope = np.exp(-0.5 * r * r + 1j * (f.kz * z - f.energy * t))
                poly = np.stack([np.polynomial.polynomial.polyval2d(u, v, c[:, :, 0, 0])
                                 for c in f.coeffs], axis=-1) * envelope[:, None]
                exact = evaluate_spinor(qn, bp, (r, phi, z, t))
                assert np.max(np.abs(poly - exact)) <= 1e-11 * np.max(np.abs(exact)), qn


def exact_scalar_poly2(l, oam_sign, p):
    """Coefficients of (u + oam_sign i v)^l L_p^l(u^2+v^2) in integer arithmetic.

    Returns {(i, j): [re, im, re_abs_sum, im_abs_sum]}, each a numerator over
    p!: the exact real and imaginary parts of the u^i v^j coefficient and the
    sums of the absolute values of the terms that make up each part.
    Coefficients with no terms are absent.
    """
    unit = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k
    out = {}
    for j in range(p + 1):
        laguerre = (-1)**j * math.comb(p + l, p - j) * math.factorial(p) // math.factorial(j)
        for b in range(j + 1):
            radial = laguerre * math.comb(j, b)
            for a in range(l + 1):
                k = l - a
                re, im = unit[k % 4]
                term = math.comb(l, a) * oam_sign**k * radial
                cell = out.setdefault((a + 2 * b, k + 2 * (j - b)), [0, 0, 0, 0])
                cell[0] += re * term
                cell[1] += im * term
                cell[2] += abs(re * term)
                cell[3] += abs(im * term)
    return out


class TestScalarPolynomial:
    TOLERANCE = Fraction(1e-15)

    @pytest.mark.parametrize("oam_sign", [1, -1])
    def test_matches_integer_arithmetic(self, oam_sign):
        # a part with no terms is exactly zero and a part with a nonzero exact
        # value is nonzero; terms that cancel exactly leave only rounding
        cases = [(l, p) for l in range(11) for p in range(9)] + [(31, 24)]
        for l, p in cases:
            poly = ps._scalar_poly2(oam_sign * l, ps._laguerre_coefficients(l, p))
            assert poly.shape == (l + 2 * p + 1,) * 2
            exact = exact_scalar_poly2(l, oam_sign, p)
            denom = math.factorial(p)
            absent = np.ones(poly.shape, dtype=bool)
            for (i, j), (re, im, re_abs, im_abs) in exact.items():
                absent[i, j] = False
                value = poly[i, j]
                for part, num, abs_sum in ((value.real, re, re_abs), (value.imag, im, im_abs)):
                    if abs_sum == 0 or num != 0:
                        assert (part == 0) == (num == 0), (l, p, i, j)
                    error = abs(Fraction(part) - Fraction(num, denom))
                    assert error <= self.TOLERANCE * Fraction(abs_sum, denom), (l, p, i, j)
            assert not poly[absent].any(), (l, p)


class TestAngularMomentumOperators:
    def test_canonical_eigenvalues(self):
        for fam, l, expect in (((1, 1), 2, 2.5), ((-1, -1), 3, -3.5)):
            qn = QuantumNumbers(*fam, l=l, p=1)
            f = ps.state_to_polyspinor(qn, BP)
            ok, lam = is_scalar_multiple(ps.apply_canonical_jz(f), f)
            assert ok and lam == pytest.approx(expect, abs=1e-13)

    def test_superposition_is_not_an_eigenstate(self):
        # (l, p) = (2, 1) and (3, 0) are degenerate, so they share an
        # envelope; their angular eigenvalues 2.5 and 3.5 differ
        f = ps.state_to_polyspinor(QuantumNumbers(1, 1, 2, 1), BP)
        g = ps.state_to_polyspinor(QuantumNumbers(1, 1, 3, 0), BP)
        assert energy(QuantumNumbers(1, 1, 2, 1), BP).total \
            == energy(QuantumNumbers(1, 1, 3, 0), BP).total
        ok, _ = is_scalar_multiple(ps.apply_canonical_jz(f + g), f + g)
        assert not ok

    def test_gauge_covariant_never_stationary_eigenstate(self):
        fld = ps.landau_field(BP)
        for fam, l in (((1, 1), 0), ((-1, 1), 1), ((1, -1), 2), ((-1, -1), 0)):
            qn = QuantumNumbers(*fam, l=l, p=1)
            f = ps.state_to_polyspinor(qn, BP)
            ok, _ = is_scalar_multiple(ps.apply_gauge_covariant_j("z", f, fld), f)
            assert not ok

    def test_field_free_limit_reduces_to_canonical(self):
        f = random_f(seed=7)
        diff = ps.apply_gauge_covariant_j("z", f, ps.FieldConfig()) \
            - ps.apply_canonical_jz(f)
        assert diff.max_abs() <= 1e-14 * f.max_abs()

    def test_z_generator_adds_squared_radius(self):
        # with the Landau field the z generator gains exactly the rescaled r^2
        f = ps.state_to_polyspinor(QuantumNumbers(1, 1, 1, 1), BP)
        withfield = ps.apply_gauge_covariant_j("z", f, ps.landau_field(BP))
        canonical = ps.apply_canonical_jz(f)
        r2f = f._shift(1)._shift(1) + f._shift(2)._shift(2)
        assert ps.relative_residual(withfield, canonical + r2f, f) <= 1e-14

    def test_expectation_matches_observables_route(self):
        for fam, l in (((1, 1), 2), ((-1, -1), 1)):
            qn = QuantumNumbers(*fam, l=l, p=2)
            quad = obs.gauge_covariant_jz_quadrature(qn, BP)
            closed = obs.gauge_covariant_jz(qn, BP)
            assert quad == pytest.approx(closed, abs=1e-9)


class TestCommutators:
    FIELDS = [ps.FieldConfig(B=(0.3, -0.2, 0.8), E=(0.1, 0.5, -0.4)),
              ps.FieldConfig(B=(0.0, 0.0, 1.3), E=(0.0, 0.0, 0.0)),
              ps.FieldConfig(B=(0.0, 0.0, 0.0), E=(0.7, -0.1, 0.2))]

    def test_rotation_generators_close_without_field(self):
        f = random_f(seed=8)
        fld = ps.FieldConfig(E=(0.4, -0.2, 0.9))
        for pair in (("x", "y"), ("y", "z"), ("z", "x")):
            assert ps.commutator_jj_residual(*pair, fld, f) <= 1e-12

    def test_rotation_generators_with_field(self):
        for i, fld in enumerate(self.FIELDS):
            f = random_f(degree=5, seed=20 + i)
            for pair in (("x", "y"), ("y", "z"), ("z", "x")):
                assert ps.commutator_jj_residual(*pair, fld, f) <= 1e-12

    def test_anomaly_term_is_necessary(self):
        # without the x_l (x.B) correction the closure identity must fail
        fld = ps.FieldConfig(B=(0.0, 0.0, 1.0))
        f = random_f(seed=9)
        jx = ps.apply_gauge_covariant_j("x", f, fld)
        jy = ps.apply_gauge_covariant_j("y", f, fld)
        lhs = ps.apply_gauge_covariant_j("x", jy, fld) \
            - ps.apply_gauge_covariant_j("y", jx, fld)
        naked = 1j * ps.apply_gauge_covariant_j("z", f, fld)
        assert ps.relative_residual(lhs, naked, f) > 1e-6

    def test_dirac_generator_commutator_all_pairs(self):
        for i, fld in enumerate(self.FIELDS):
            f = random_f(degree=4, seed=30 + i)
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    assert ps.commutator_dirac_j_residual(mu, nu, fld, f) <= 1e-12

    def test_zero_field_commutator_vanishes(self):
        f = random_f(seed=10)
        fld = ps.FieldConfig()
        lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld), fld) \
            - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld), fld)
        assert lhs.max_abs() <= 1e-12 * f.max_abs()

    def test_pure_axial_electric_field_preserves_z_generator(self):
        fld = ps.FieldConfig(E=(0.0, 0.0, 0.9))
        f = random_f(seed=11)
        assert ps.dirac_j12_rhs_explicit(fld, f).max_abs() == 0.0
        lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld), fld) \
            - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld), fld)
        assert lhs.max_abs() <= 1e-12 * f.max_abs()

    def test_component_form_of_z_generator_obstruction(self):
        for i, fld in enumerate(self.FIELDS):
            f = random_f(seed=40 + i)
            lhs = ps.apply_dirac(ps.apply_gauge_covariant_j((1, 2), f, fld), fld) \
                - ps.apply_gauge_covariant_j((1, 2), ps.apply_dirac(f, fld), fld)
            rhs = ps.dirac_j12_rhs_explicit(fld, f)
            assert ps.relative_residual(lhs, rhs, f) <= 1e-12

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_commutator_identity_random_axis_fields(self, bx, by, bz):
        fld = ps.FieldConfig(B=(bx, by, bz))
        f = random_f(degree=3, seed=99)
        assert ps.commutator_jj_residual("x", "y", fld, f) <= 1e-12


def _jj_recomputed(j, k, fld, f):
    """The jj identity with every image recomputed from the public operators."""
    J = ps.apply_gauge_covariant_j
    axis, eps = ps._EPSILON[(j, k)]
    jk, kj = J(k, f, fld), J(j, f, fld)
    lhs = J(j, jk, fld) - J(k, kj, fld)
    bx, by, bz = fld.B
    xdotb = bx * f.mul(1) + by * f.mul(2) + bz * f.mul(3)
    rhs = (1j * eps) * (J(axis, f, fld) + ps.ELECTRON_CHARGE * xdotb.mul("txyz".index(axis)))
    return ps.relative_residual(lhs, rhs, f, jk, kj)


def _dirac_j_recomputed(mu, nu, fld, f):
    """The Dirac-J identity with every image recomputed from the public operators."""
    J, D = ps.apply_gauge_covariant_j, ps.apply_dirac
    jf, df = J((mu, nu), f, fld), D(f, fld)
    lhs = D(jf, fld) - J((mu, nu), df, fld)
    fs = fld.field_strength()
    terms = []
    for lam in range(4):
        gf = f.apply_matrix(clifford.gamma(lam))
        if fs[nu, lam]:
            terms.append(fs[nu, lam] * ps._coordinate_lower(mu, gf))
        if fs[mu, lam]:
            terms.append(-1.0 * (fs[mu, lam] * ps._coordinate_lower(nu, gf)))
    rhs = (1j * ps.ELECTRON_CHARGE) * (sum(terms[1:], terms[0]) if terms else ps.zero_like(f))
    return ps.relative_residual(lhs, rhs, f, jf, df)


class TestSharedImages:
    """Images shared across pairs, rules and beams change no bit of any result."""

    FIELDS = [ps.FieldConfig(B=(0.3, -0.7, 0.5), E=(0.2, 0.9, -0.4)),
              ps.FieldConfig(B=(0.0, 0.0, 0.8)),
              ps.FieldConfig(B=(0.4, 0.0, 0.0), E=(0.0, -0.3, 0.6)),
              ps.FieldConfig(E=(0.0, 0.0, 0.6)),
              ps.FieldConfig()]
    JJ_PAIRS = (("x", "y"), ("y", "z"), ("z", "x"), ("y", "x"), ("x", "z"), ("z", "y"))
    DJ_PAIRS = tuple((mu, nu) for mu in range(4) for nu in range(4) if mu != nu)

    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_batched_commutators_are_the_single_pairs(self, field):
        fld = self.FIELDS[field]
        for seed in (60, 61):
            f = random_f(degree=2 + seed % 3, zt=seed % 2, seed=seed + 10 * field)
            batched = ps.commutator_jj_residuals(fld, f, self.JJ_PAIRS)
            for (j, k), r in zip(self.JJ_PAIRS, batched, strict=True):
                assert r.hex() == ps.commutator_jj_residual(j, k, fld, f).hex() \
                    == _jj_recomputed(j, k, fld, f).hex(), (j, k)
            assert ps.commutator_jj_residuals(fld, f) == batched[:3]
            batched = ps.commutator_dirac_j_residuals(fld, f, self.DJ_PAIRS)
            for (mu, nu), r in zip(self.DJ_PAIRS, batched, strict=True):
                assert r.hex() == ps.commutator_dirac_j_residual(mu, nu, fld, f).hex() \
                    == _dirac_j_recomputed(mu, nu, fld, f).hex(), (mu, nu)
            upper = [r for (mu, nu), r in zip(self.DJ_PAIRS, batched) if mu < nu]
            assert ps.commutator_dirac_j_residuals(fld, f) == upper

    def test_mode_polynomial_is_fresh(self):
        # no mode is kept between calls: each call builds its own array
        for l, oam_sign, p in ((3, 1, 2), (3, -1, 2), (0, 1, 4), (3, 1, 2), (7, -1, 0)):
            radial = ps._laguerre_coefficients(l, p)
            poly = ps._scalar_poly2(oam_sign * l, radial)
            expect = poly.tobytes()
            again = ps._scalar_poly2(oam_sign * l, radial)
            assert not np.shares_memory(poly, again)
            poly[0, 0] += 1.0
            assert again.tobytes() == ps._scalar_poly2(oam_sign * l, radial).tobytes() == expect

    def test_closed_and_quadrature_is_the_separate_companions(self):
        for bp in (BP, BeamParameters(beB=2.5, m=1.0, k=0.3)):
            for qn in iter_states(6, 6):
                pairs = obs.closed_and_quadrature(qn, bp)
                separate = [obs.integrated_density_quadrature(qn, bp),
                            obs.integrated_jz_quadrature(qn, bp),
                            obs.r2_moment_quadrature(qn, bp),
                            obs.gauge_covariant_jz_quadrature(qn, bp),
                            obs.magnetic_moment_quadrature(qn, bp)]
                assert [name for name, _, _ in pairs] == ["int_j0", "int_jz", "r2_moment",
                                                          "jz_gauge", "mz"]
                assert [quad.hex() for _, _, quad in pairs] \
                    == [value.hex() for value in separate], qn


def _j12_rhs_written_out(field, f):
    """``dirac_j12_rhs_explicit`` with each gamma image formed where it is used."""
    ex, ey, _ = field.E
    bx, by, bz = field.B
    g = [clifford.gamma(m) for m in range(4)]
    out = ey * f.apply_matrix(g[0]).mul(1) - ex * f.apply_matrix(g[0]).mul(2)
    out = out - bz * (f.apply_matrix(g[1]).mul(1) + f.apply_matrix(g[2]).mul(2)
                      + f.apply_matrix(g[3]).mul(3))
    out = out + bx * f.apply_matrix(g[3]).mul(1) + by * f.apply_matrix(g[3]).mul(2) \
        + bz * f.apply_matrix(g[3]).mul(3)
    return (1j * ps.ELECTRON_CHARGE) * out


class TestStatedOnce:
    """Tables derived from one statement, and shared images, keep their written-out values."""

    def test_axis_tables(self):
        assert ps._CYCLIC == (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
        assert list(ps.AXIS_PAIRS.items()) == [("x", (2, 3)), ("y", (3, 1)), ("z", (1, 2))]
        assert list(ps._EPSILON.items()) == [
            (("x", "y"), ("z", 1.0)), (("y", "x"), ("z", -1.0)),
            (("y", "z"), ("x", 1.0)), (("z", "y"), ("x", -1.0)),
            (("z", "x"), ("y", 1.0)), (("x", "z"), ("y", -1.0))]
        assert ps._CYCLIC_PAIRS == (("x", "y"), ("y", "z"), ("z", "x"))

    @pytest.mark.parametrize("field", range(len(TestSharedImages.FIELDS)))
    def test_j12_rhs_is_the_written_out_sum(self, field):
        fld = TestSharedImages.FIELDS[field]
        for seed in (60, 61):
            f = random_f(degree=2 + seed % 3, zt=seed % 2, seed=seed + 10 * field)
            shared = ps.dirac_j12_rhs_explicit(fld, f).coeffs
            written = _j12_rhs_written_out(fld, f).coeffs
            assert shared.shape == written.shape
            assert shared.tobytes() == written.tobytes()

    @staticmethod
    def _written_out_tensor(field):
        """F_{mu nu} with every entry placed by hand."""
        f = np.zeros((4, 4))
        for i in range(3):
            f[i + 1, 0] = -field.E[i]
            f[0, i + 1] = +field.E[i]
        bx, by, bz = field.B
        f[1, 2], f[2, 1] = -bz, bz
        f[2, 3], f[3, 2] = -bx, bx
        f[3, 1], f[1, 3] = -by, by
        return f

    def test_field_tensor_is_the_written_out_tensor(self):
        # signed zeros included: every entry keeps its bits
        values = (0.0, -0.0, 0.7, -1.3)
        for comps in itertools.product(values, repeat=6):
            fld = ps.FieldConfig(B=comps[:3], E=comps[3:])
            assert fld.field_strength().tobytes() == self._written_out_tensor(fld).tobytes(), comps

    @pytest.mark.parametrize("field", [ps.FieldConfig(B=(0.3, -0.2)),
                                       ps.FieldConfig(B=(0.3, -0.2, 0.8, 0.1)),
                                       ps.FieldConfig(E=(0.1, 0.5)),
                                       ps.FieldConfig(E=(0.1, 0.5, -0.4, 0.2))])
    def test_malformed_field_rejected_by_every_reader(self, field):
        f = random_f(degree=2, zt=1, seed=62)
        with pytest.raises(ValueError):
            field.field_strength()
        for mu in range(4):
            with pytest.raises(ValueError):
                ps.apply_gauge_momentum(mu, f, field)
        with pytest.raises(ValueError):
            ps.apply_dirac(f, field)
