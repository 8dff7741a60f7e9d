"""The polynomial operators against a written-out copy of their composed arithmetic.

The library builds each result in one buffer and works in place on arrays it has
just allocated.  The oracle below composes the same operators the long way, on
plain arrays: a mismatched sum pads both operands, a difference adds -1.0 times
the subtrahend, a derivative along a degree-0 axis starts from a full box of
zeros, every scalar factor (1j, -e, the metric signs) is a multiplication, and a
sum starts from its first term.  Both must give the same shapes and values; only
the signs of zero coefficients may differ, which ``np.array_equal`` ignores.
"""

import functools
import math

import numpy as np

from diracvortex import clifford, polyspinor as ps
from diracvortex.states import FAMILIES, BeamParameters, QuantumNumbers

BP = BeamParameters(beB=0.37, m=1.0, k=0.8)
INDEX_PAIRS = tuple((mu, nu) for mu in range(4) for nu in range(mu + 1, 4))


def _pad(c, shape):
    out = np.zeros(shape, dtype=complex)
    out[tuple(map(slice, c.shape))] = c
    return out


def _add(a, b):
    if a.shape == b.shape:
        return a + b
    shape = tuple(map(max, a.shape, b.shape))
    out = _pad(a, shape)
    out += _pad(b, shape)
    return out


def _sub(a, b):
    return _add(a, b * (-1.0))


def _tensor(field):
    """F_{mu nu} with every entry placed by hand."""
    f = np.zeros((4, 4))
    (ex, ey, ez), (bx, by, bz) = field.E, field.B
    f[0, 1:], f[1:, 0] = (ex, ey, ez), (-ex, -ey, -ez)
    f[1, 2], f[2, 1], f[2, 3], f[3, 2], f[3, 1], f[1, 3] = -bz, bz, -bx, bx, -by, by
    return f


class Oracle:
    """The operators on the coefficients of spinors that share ``f``'s attributes."""

    def __init__(self, f):
        self.energy, self.kz, self.mass, self.scale = f.energy, f.kz, f.mass, f.scale

    @staticmethod
    def shift(c, axis):
        out = np.zeros(c.shape[:axis] + (c.shape[axis] + 1,) + c.shape[axis + 1:], dtype=complex)
        out[(slice(None),) * axis + (slice(1, None),)] = c
        return out

    @staticmethod
    def poly_derivative(c, axis):
        n = c.shape[axis]
        if n == 1:
            return np.zeros_like(c)
        powers = np.arange(1, n).reshape([n - 1 if a == axis else 1 for a in range(5)])
        return c[(slice(None),) * axis + (slice(1, None),)] * powers

    def envelope_derivative(self, c, axis):
        return _sub(self.poly_derivative(c, axis), self.shift(c, axis))

    def mul(self, c, mu):
        axis = (4, 1, 2, 3)[mu]
        return self.shift(c, axis) * (1.0 / self.scale) if axis in (1, 2) else self.shift(c, axis)

    def d(self, c, mu):
        axis = (4, 1, 2, 3)[mu]
        if axis in (1, 2):
            return self.envelope_derivative(c, axis) * self.scale
        phase = (1j * self.kz) if axis == 3 else (-1j * self.energy)
        return _add(self.poly_derivative(c, axis), c * phase)

    @staticmethod
    def matrix(c, mat):
        return np.dot(np.asarray(mat, dtype=complex), c.reshape(4, -1)).reshape(c.shape)

    @staticmethod
    def sum(terms):
        return functools.reduce(_add, terms) if terms else np.zeros((4, 1, 1, 1, 1), complex)

    def potential(self, c, mu, field):
        weight, row = (1.0, 0.5, 0.5, 0.5)[mu], _tensor(field)[mu].tolist()
        return self.sum([self.mul(c, nu) * (-weight * row[nu]) for nu in (1, 2, 3) if row[nu]])

    def gauge_momentum(self, c, mu, field):
        return _add(self.d(c, mu) * 1j, self.potential(c, mu, field) * (-ps.ELECTRON_CHARGE))

    def coordinate_lower(self, c, mu):
        return self.mul(c, mu) * clifford.METRIC_SIGNS[mu]

    def dirac_terms(self, c, field):
        return ([self.matrix(self.gauge_momentum(c, mu, field), clifford.gamma(mu))
                 for mu in range(4)] + [c * (-self.mass)])

    def dirac(self, c, field):
        return self.sum(self.dirac_terms(c, field))

    def canonical_jz(self, c):
        angular = _sub(self.shift(self.envelope_derivative(c, 2), 1),
                       self.shift(self.envelope_derivative(c, 1), 2))
        return _add(angular * (-1j), self.matrix(c, 0.5 * clifford.SIGMA_Z))

    def generators(self, c, field, pairs):
        pf = {mu: self.gauge_momentum(c, mu, field)
              for mu in dict.fromkeys(i for pair in pairs for i in pair)}
        return {(mu, nu): _add(_sub(self.coordinate_lower(pf[nu], mu),
                                    self.coordinate_lower(pf[mu], nu)),
                               self.matrix(c, 0.5j * clifford.sigma_tensor(mu, nu)))
                for mu, nu in pairs}


def oracle_dirac_residual(qn, bp, energy_shift):
    f = ps.state_to_polyspinor(qn, bp, energy_shift)
    terms = Oracle(f).dirac_terms(f.coeffs, ps.landau_field(bp))

    def max_abs(c):
        return float(np.abs(c).max()) if c.size else 0.0
    total, denom = max_abs(Oracle.sum(terms)), max(max_abs(t) for t in terms)
    return total / denom if denom else total


def assert_same(got, expect, label):
    assert got.shape == expect.shape, label
    assert np.array_equal(got, expect), label


def assert_operators_match(f, field):
    oracle, c = Oracle(f), f.coeffs
    for mu in range(4):
        assert_same(ps.apply_gauge_momentum(mu, f, field).coeffs,
                    oracle.gauge_momentum(c, mu, field), ("P", mu))
    assert_same(ps.apply_dirac(f, field).coeffs, oracle.dirac(c, field), "Dirac")
    assert_same(ps.apply_canonical_jz(f).coeffs, oracle.canonical_jz(c), "canonical jz")
    expect = oracle.generators(c, field, INDEX_PAIRS)
    for pair, image in ps._generators(f, field, INDEX_PAIRS).items():
        assert_same(image.coeffs, expect[pair], ("J", pair))


def random_field(rng):
    """Components drawn from 0.0, -0.0, an np.float64 and a Python float."""
    def component():
        return (0.0, -0.0, np.float64(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)))[rng.integers(4)]
    return ps.FieldConfig(B=tuple(component() for _ in range(3)),
                          E=tuple(component() for _ in range(3)))


def landau_states():
    """Every family at low, middle and the largest benchmarked (l, p)."""
    for spin, oam in FAMILIES:
        for l in (0, 7, 31):
            for p in (0, 5, 24):
                yield QuantumNumbers(spin, oam, max(l, 0 if spin == oam else 1), p)


class TestLeanArithmeticOracle:
    def test_random_spinors_in_signed_zero_fields(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            degree, zt = int(rng.integers(0, 7)), int(rng.integers(0, 3))
            shape = (4, degree + 1, degree + 1, zt + 1, zt + 1)
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            f = ps.PolyGaussSpinor(coeffs, rng.uniform(0.5, 2.0), rng.uniform(-1, 1), 1.0,
                                   scale=(1.0, 0.43)[rng.integers(2)])
            assert_operators_match(f, random_field(rng))

    def test_landau_states(self):
        for bp in (BP, BeamParameters(beB=2.0, m=1.0, k=0.0)):
            for qn in landau_states():
                assert_operators_match(ps.state_to_polyspinor(qn, bp), ps.landau_field(bp))

    def test_dirac_residual_routes(self):
        # the residual is taken over radial coefficients, the oracle folds the Cartesian
        # terms: both are rounding noise on the states and both fail a shifted energy
        # (on BP: at beB = 2, k = 0 the Cartesian fold reads 9.5e-4 at (1, -1, 31, 0))
        for bp in (BP, BeamParameters(beB=2.0, m=1.0, k=0.0)):
            for qn in landau_states():
                assert ps.dirac_residual(qn, bp) <= 1e-15, (qn, bp)
                assert oracle_dirac_residual(qn, bp, 0.0) <= 1e-15, (qn, bp)
        for qn in landau_states():
            assert ps.dirac_residual(qn, BP, energy_shift=0.1) > 1e-3, qn
            assert oracle_dirac_residual(qn, BP, 0.1) > 1e-3, qn


class TestNoAliasing:
    """No operator writes into its operands, and no result shares their memory."""

    @staticmethod
    def check(label, call, inputs, result=None):
        before = [a.tobytes() for a in inputs]
        out = call()
        assert [a.tobytes() for a in inputs] == before, label
        for arr in [out.coeffs] if result is None else result(out):
            for a in inputs:
                assert not np.shares_memory(arr, a), label

    def operators(self, f, g, field):
        yield "+", lambda: f + g
        yield "-", lambda: f - g
        yield "+ self", lambda: f + f
        yield "- self", lambda: f - f
        yield "scalar *", lambda: 2.5 * f
        yield "apply_matrix", lambda: f.apply_matrix(clifford.gamma(2))
        for mu in range(4):
            yield ("mul", mu), lambda mu=mu: f.mul(mu)
            yield ("d", mu), lambda mu=mu: f.d(mu)
            yield ("P", mu), lambda mu=mu: ps.apply_gauge_momentum(mu, f, field)
        yield "Dirac", lambda: ps.apply_dirac(f, field)
        yield "canonical jz", lambda: ps.apply_canonical_jz(f)
        for key in ("x", "y", "z", (0, 3)):
            yield ("J", key), lambda key=key: ps.apply_gauge_covariant_j(key, f, field)
        yield "j12 rhs", lambda: ps.dirac_j12_rhs_explicit(field, f)

    def test_random_spinors(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            f, g = (ps.PolyGaussSpinor(
                rng.standard_normal((4, n, n, 2, 2)) + 1j * rng.standard_normal((4, n, n, 2, 2)),
                1.3, 0.7, 1.0, 0.6) for n in rng.integers(1, 6, size=2))
            field = random_field(rng)
            for label, call in self.operators(f, g, field):
                self.check(label, call, [f.coeffs, g.coeffs])
            for label, call in (("jj", lambda: ps.commutator_jj_residuals(field, f)),
                                ("Dirac J", lambda: ps.commutator_dirac_j_residuals(field, f))):
                self.check(label, call, [f.coeffs], result=lambda out: [])

    def test_landau_states(self):
        field = ps.landau_field(BP)
        for qn in (QuantumNumbers(1, 1, 15, 12), QuantumNumbers(-1, 1, 3, 2)):
            f = ps.state_to_polyspinor(qn, BP)
            for label, call in self.operators(f, f, field):
                self.check(label, call, [f.coeffs])
            self.check("eigen", lambda: ps.landau_eigen_residual(f, BP, 1.0), [f.coeffs],
                       result=lambda out: [])


def _scalar_poly2_double_loop(l, oam_sign, p):
    """The mode polynomial with its radial block written entry by entry."""
    n = 2 * p + 1
    radial = np.zeros((n, n), dtype=complex)
    for j in range(p + 1):
        c = (-1.0)**j * math.comb(p + l, p - j) / math.factorial(j)
        for a in range(j + 1):
            radial[2 * a, 2 * (j - a)] += c * math.comb(j, a)
    out = np.zeros((l + n, l + n), dtype=complex)
    for a in range(l + 1):
        out[a:a + n, l - a:l - a + n] += math.comb(l, a) * (oam_sign * 1j)**(l - a) * radial
    return out


class TestCachedInputs:
    def test_mode_polynomial_is_the_double_loop(self):
        for l in range(41):
            for p in range(31):
                for oam_sign in (1, -1):
                    poly = ps._scalar_poly2(oam_sign * l, ps._laguerre_coefficients(l, p))
                    assert poly.tobytes() == _scalar_poly2_double_loop(l, oam_sign, p).tobytes(), \
                        (l, oam_sign, p)

    def test_field_tensor_is_formed_once_per_instance(self):
        plus, minus = ps.FieldConfig(B=(0.0, 0.0, 1.0)), ps.FieldConfig(B=(-0.0, 0.0, 1.0))
        assert plus == minus
        tensor = plus.field_strength()
        assert plus.field_strength() is tensor and not tensor.flags.writeable
        # equal fields, different zeros: a cache keyed by value would hand out the wrong bytes
        assert minus.field_strength().tobytes() != tensor.tobytes()
        assert minus.field_strength().tobytes() == _tensor(minus).tobytes()
        assert ps.FieldConfig(B=(0.0, 0.0, 1.0)).field_strength() is not tensor
