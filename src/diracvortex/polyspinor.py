"""Exact operator algebra on polynomial-times-Gaussian spinor wavefunctions.

The function class is four complex polynomials in (u, v, z, t) multiplying a
fixed envelope exp(-(u^2+v^2)/2) exp(i(k z - E t)), where u = s x and
v = s y are transverse coordinates rescaled by s (s^2 = beB/2 for the
magnetic eigenstates, s = 1 for generic test spinors).  Momenta, gauge
potentials of constant fields, angular-momentum operators and constant
matrices all map the class to itself, with polynomial coefficients
transformed exactly.  Residuals of operator identities are therefore pure
rounding noise, with no discretisation error to argue about.

Charge convention: the particle carries charge e = -1 (an electron with
|e| = 1 in natural units) and couples through P_mu = i d_mu - e A_mu with
A^0 = -E.x and the symmetric gauge A = (1/2) B cross x for the magnetic
part.  Under this convention the four closed-form states solve
(Pslash - m)Psi = 0 with B = (0, 0, beB).
"""

from dataclasses import dataclass
import math

import numpy as np

from . import clifford
from .states import BeamParameters, QuantumNumbers, energy, spinor_columns

ELECTRON_CHARGE = -1.0

#: coefficient axis of x^mu for mu = 0..3 = (t, x, y, z)
_AXIS = (4, 1, 2, 3)

#: spatial rotation generators as tensor index pairs
AXIS_PAIRS = {"x": (2, 3), "y": (3, 1), "z": (1, 2)}
_EPSILON = {("x", "y"): ("z", 1.0), ("y", "x"): ("z", -1.0),
            ("y", "z"): ("x", 1.0), ("z", "y"): ("x", -1.0),
            ("z", "x"): ("y", 1.0), ("x", "z"): ("y", -1.0)}


@dataclass(frozen=True)
class FieldConfig:
    """Constant electromagnetic field; components in natural units."""
    B: tuple = (0.0, 0.0, 0.0)
    E: tuple = (0.0, 0.0, 0.0)

    def field_strength(self) -> np.ndarray:
        """Lower-index tensor F_{mu nu} for the potential used here."""
        f = np.zeros((4, 4))
        for i in range(3):
            f[i + 1, 0] = -self.E[i]
            f[0, i + 1] = +self.E[i]
        bx, by, bz = self.B
        f[1, 2], f[2, 1] = -bz, bz
        f[2, 3], f[3, 2] = -bx, bx
        f[3, 1], f[1, 3] = -by, by
        return f


class PolyGaussSpinor:
    """Four polynomial coefficient blocks over the fixed envelope.

    ``coeffs[c, i, j, a, b]`` multiplies u^i v^j z^a t^b in component c.
    Instances are treated as immutable; operations return new objects.
    The public constructor validates its input; results of the operations
    below are built by ``_like``, which skips that validation because their
    coefficients are already complex arrays of the right shape.
    """

    __slots__ = ("coeffs", "energy", "kz", "mass", "scale")

    def __init__(self, coeffs, energy, kz, mass, scale=1.0):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 5 or coeffs.shape[0] != 4:
            raise ValueError("coefficients must have shape (4, nu, nv, nz, nt)")
        if scale <= 0.0:
            raise ValueError("coordinate scale must be > 0")
        self.coeffs = coeffs
        self.energy = float(energy)
        self.kz = float(kz)
        self.mass = float(mass)
        self.scale = float(scale)

    def _like(self, coeffs):
        out = object.__new__(PolyGaussSpinor)
        out.coeffs = coeffs
        out.energy, out.kz, out.mass, out.scale = (self.energy, self.kz,
                                                   self.mass, self.scale)
        return out

    def _check_compatible(self, other):
        if (self.energy, self.kz, self.mass, self.scale) \
                != (other.energy, other.kz, other.mass, other.scale):
            for name in ("energy", "kz", "mass", "scale"):
                if getattr(self, name) != getattr(other, name):
                    raise ValueError(f"operands carry different {name}")

    def __add__(self, other):
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        if a.shape == b.shape:
            return self._like(a + b)
        shape = tuple(map(max, a.shape, b.shape))
        out = _padded(a, shape)
        out += _padded(b, shape)
        return self._like(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return self._like(self.coeffs * scalar)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max()) if self.coeffs.size else 0.0

    # primitive coordinate actions (rescaled transverse coordinates)

    def _shift(self, axis):
        c = self.coeffs
        out = np.zeros(c.shape[:axis] + (c.shape[axis] + 1,) + c.shape[axis + 1:],
                       dtype=complex)
        out[(slice(None),) * axis + (slice(1, None),)] = c
        return self._like(out)

    def _poly_derivative(self, axis):
        n = self.coeffs.shape[axis]
        if n == 1:
            return self._like(np.zeros_like(self.coeffs))
        sl = [slice(None)] * 5
        sl[axis] = slice(1, None)
        shape = [1] * 5
        shape[axis] = n - 1
        powers = np.arange(1, n).reshape(shape)
        return self._like(self.coeffs[tuple(sl)] * powers)

    def _envelope_derivative(self, axis):
        """d/du (axis 1) or d/dv (axis 2) in rescaled coordinates; the envelope brings down -u."""
        return self._poly_derivative(axis) - self._shift(axis)

    # physical coordinates x^mu, mu = 0..3 = (t, x, y, z); x = u / scale, y = v / scale

    def mul(self, mu):
        """x^mu f."""
        axis = _index(mu, _AXIS)
        if axis in (1, 2):
            return (1.0 / self.scale) * self._shift(axis)
        return self._shift(axis)

    def d(self, mu):
        """d f / dx^mu, envelope included: the plane wave brings down +ik (z) or -iE (t)."""
        axis = _index(mu, _AXIS)
        if axis in (1, 2):
            return self.scale * self._envelope_derivative(axis)
        phase = (1j * self.kz) if axis == 3 else (-1j * self.energy)
        return self._poly_derivative(axis) + phase * self

    def apply_matrix(self, mat):
        # the same (4, 4) x (4, N) BLAS product np.tensordot forms, minus its Python overhead
        c = self.coeffs
        return self._like(np.dot(np.asarray(mat, dtype=complex),
                                 c.reshape(4, -1)).reshape(c.shape))


def zero_like(f: PolyGaussSpinor) -> PolyGaussSpinor:
    return f._like(np.zeros((4, 1, 1, 1, 1), dtype=complex))


def _sum(terms, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """Sum of ``terms`` in order, starting from the first; zero_like(f) if there are none."""
    return sum(terms[1:], terms[0]) if terms else zero_like(f)


def _padded(coeffs: np.ndarray, shape) -> np.ndarray:
    """``coeffs`` in a zero array of the larger ``shape``, each exponent in its slot."""
    out = np.zeros(shape, dtype=complex)
    out[tuple(map(slice, coeffs.shape))] = coeffs
    return out


def relative_residual(lhs: PolyGaussSpinor, rhs: PolyGaussSpinor, *refs) -> float:
    """Max coefficient of lhs - rhs over the largest participating scale."""
    scale = max([lhs.max_abs(), rhs.max_abs()] + [r.max_abs() for r in refs])
    if scale == 0.0:
        return (lhs - rhs).max_abs()
    return (lhs - rhs).max_abs() / scale


# gauge potential and momenta

def _index(mu: int, per_index):
    """``per_index[mu]`` for a spacetime index mu, which must be 0..3."""
    if mu not in range(4):
        raise ValueError(f"index must be 0..3, got {mu}")
    return per_index[mu]


def _potential_action(mu: int, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """A_mu f with lower index: A_0 = -E.x, A_i = -((1/2) B x r)_i."""
    ex, ey, ez = field.E
    bx, by, bz = field.B
    terms = _index(mu, (((-ex, 1), (-ey, 2), (-ez, 3)),
                        ((-0.5 * by, 3), (0.5 * bz, 2)),
                        ((-0.5 * bz, 1), (0.5 * bx, 3)),
                        ((-0.5 * bx, 2), (0.5 * by, 1))))
    # a term with a zero coefficient adds only zeros (and a wider box), so it is left out
    return _sum([coef * f.mul(nu) for coef, nu in terms if coef], f)


def apply_gauge_momentum(mu: int, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """P_mu f = (i d_mu - e A_mu) f, lower index, charge e = -1."""
    grad = 1j * f.d(mu)
    return grad + (-ELECTRON_CHARGE) * _potential_action(mu, f, field)


def _coordinate_lower(mu: int, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """x_mu f with the index down: (t, -x, -y, -z)."""
    x_mu = f.mul(mu)
    return x_mu if mu == 0 else -1.0 * x_mu


def _dirac_terms(f: PolyGaussSpinor, field: FieldConfig):
    """The five terms gamma^mu P_mu f (mu = 0..3) and -m f, summed in this order."""
    return ([apply_gauge_momentum(mu, f, field).apply_matrix(clifford.gamma(mu))
             for mu in range(4)] + [(-f.mass) * f])


def apply_dirac(f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """(gamma^mu P_mu - m) f."""
    return _sum(_dirac_terms(f, field), f)


def apply_canonical_jz(f: PolyGaussSpinor) -> PolyGaussSpinor:
    """(-i d/dphi + Sigma_z/2) f; the angular derivative is scale-free."""
    angular = f._envelope_derivative(2)._shift(1) - f._envelope_derivative(1)._shift(2)
    return (-1j) * angular + f.apply_matrix(0.5 * clifford.SIGMA_Z)


def apply_gauge_covariant_j(key, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """Gauge-covariant angular momentum J_{mu nu} = x_[mu P_nu] + (i/2) sigma_{mu nu}.

    ``key`` is an axis name ("x", "y", "z") or an explicit (mu, nu) pair.
    For a field B = (0, 0, beB) and e = -1 the z generator reduces to
    -i d/dphi + r^2 (rescaled) + Sigma_z/2, which matches the expectation
    values produced by the quadrature route.
    """
    mu, nu = AXIS_PAIRS[key] if isinstance(key, str) else key
    orbital = (_coordinate_lower(mu, apply_gauge_momentum(nu, f, field))
               - _coordinate_lower(nu, apply_gauge_momentum(mu, f, field)))
    return orbital + f.apply_matrix(0.5j * clifford.sigma_tensor(mu, nu))


def commutator_jj_residual(j: str, k: str, field: FieldConfig,
                           f: PolyGaussSpinor) -> float:
    """Residual of [J_j, J_k] = i eps_{jkl} (J_l + e x_l (x.B)) applied to f.

    With e = -1 the anomaly is -x_l (x.B): the rotation generators close
    only when the magnetic field vanishes.
    """
    axis, eps = _EPSILON[(j, k)]
    jk = apply_gauge_covariant_j(k, f, field)
    kj = apply_gauge_covariant_j(j, f, field)
    lhs = apply_gauge_covariant_j(j, jk, field) - apply_gauge_covariant_j(k, kj, field)
    bx, by, bz = field.B
    xdotb = bx * f.mul(1) + by * f.mul(2) + bz * f.mul(3)
    rhs = (1j * eps) * (apply_gauge_covariant_j(axis, f, field)
                        + ELECTRON_CHARGE * xdotb.mul("txyz".index(axis)))
    return relative_residual(lhs, rhs, f, jk, kj)


def commutator_dirac_j_residual(mu: int, nu: int, field: FieldConfig,
                                f: PolyGaussSpinor) -> float:
    """Residual of [Pslash - m, J_{mu nu}] = i e x_[mu F_nu]lambda gamma^lambda on f."""
    jf = apply_gauge_covariant_j((mu, nu), f, field)
    df = apply_dirac(f, field)
    lhs = apply_dirac(jf, field) - apply_gauge_covariant_j((mu, nu), df, field)
    fs = field.field_strength()
    terms = []
    for lam in range(4):
        gf = f.apply_matrix(clifford.gamma(lam))
        if fs[nu, lam]:
            terms.append(fs[nu, lam] * _coordinate_lower(mu, gf))
        if fs[mu, lam]:
            terms.append(-1.0 * (fs[mu, lam] * _coordinate_lower(nu, gf)))
    rhs = (1j * ELECTRON_CHARGE) * _sum(terms, f)
    return relative_residual(lhs, rhs, f, jf, df)


def dirac_j12_rhs_explicit(field: FieldConfig, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """Component form of the z-generator obstruction.

    i e ((x E_y - y E_x) gamma^0 - B_z (x.gamma) + (x.B) gamma^3) f;
    identically zero exactly when the only field is E along z.
    """
    ex, ey, _ = field.E
    bx, by, bz = field.B
    g = [clifford.gamma(m) for m in range(4)]
    out = ey * f.apply_matrix(g[0]).mul(1) - ex * f.apply_matrix(g[0]).mul(2)
    out = out - bz * (f.apply_matrix(g[1]).mul(1) + f.apply_matrix(g[2]).mul(2)
                      + f.apply_matrix(g[3]).mul(3))
    out = out + bx * f.apply_matrix(g[3]).mul(1) + by * f.apply_matrix(g[3]).mul(2) \
        + bz * f.apply_matrix(g[3]).mul(3)
    return (1j * ELECTRON_CHARGE) * out


# conversion of the closed-form states into the polynomial class

def _scalar_poly2(l: int, oam_sign: int, p: int) -> np.ndarray:
    """2-D coefficients (in u, v) of the scalar mode (u + oam_sign i v)^l L_p^l(u^2+v^2).

    The radial block holds c_j binom(j, a) at (2a, 2(j-a)), with the Laguerre
    coefficients c_j = (-1)^j binom(p+l, p-j)/j!.  Each vortex term
    binom(l, a) (oam_sign i)^(l-a) u^a v^(l-a) adds a scaled copy of it, for
    a = 0..l in ascending order; the rounded bits depend on that order.
    """
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


def _columns_to_polyspinor(bp: BeamParameters, en: float, oam_sign: int,
                           columns) -> PolyGaussSpinor:
    """Sum over (column, l, p) of each {component: entry} times the mode's polynomial.

    Requires beB > 0.  The box is sized by the non-empty columns.
    """
    if bp.beB <= 0.0:
        raise ValueError("polynomial conversion needs beB > 0")
    modes = [(column, _scalar_poly2(l, oam_sign, p)) for column, l, p in columns if column]
    n = max(poly.shape[0] for _, poly in modes)
    coeffs = np.zeros((4, n, n, 1, 1), dtype=complex)
    for column, poly in modes:
        for c, entry in column.items():
            coeffs[c, :poly.shape[0], :poly.shape[1], 0, 0] = entry * poly
    return PolyGaussSpinor(coeffs, en, bp.k, bp.m, bp.coordinate_scale)


def state_to_polyspinor(qn: QuantumNumbers, bp: BeamParameters,
                        energy_shift: float = 0.0) -> PolyGaussSpinor:
    """Exact polynomial form of a closed-form state (requires beB > 0).

    The two ``spinor_columns`` hold the state's and the partner's scalar
    modes.  ``energy_shift`` displaces the energy entering both the phase
    and the bispinor entries, used as a sensitivity control: a shifted
    state must fail the Dirac equation loudly.
    """
    en = energy(qn, bp).total + energy_shift
    main, mixing = spinor_columns(qn, bp, en)
    _, l2, p2 = qn.spin_orbit_mixing
    return _columns_to_polyspinor(bp, en, qn.oam_sign,
                                  ((main, qn.l, qn.p), (mixing, l2, p2)))


def scalar_state_to_polyspinor(qn: QuantumNumbers, bp: BeamParameters,
                               component: int) -> PolyGaussSpinor:
    """Scalar vortex profile times one basis bispinor, in polynomial form."""
    return _columns_to_polyspinor(bp, energy(qn, bp).total, qn.oam_sign,
                                  (({component: 1.0}, qn.l, qn.p),))


def landau_field(bp: BeamParameters) -> FieldConfig:
    return FieldConfig(B=(0.0, 0.0, bp.beB))


def dirac_residual(qn: QuantumNumbers, bp: BeamParameters,
                   energy_shift: float = 0.0) -> float:
    """Relative coefficient residual of (Pslash - m) on a closed-form state.

    The denominator is the largest coefficient among the five operator terms,
    so the number is meaningful across twelve orders of magnitude in beB.
    """
    f = state_to_polyspinor(qn, bp, energy_shift)
    terms = _dirac_terms(f, landau_field(bp))
    total = _sum(terms, f)
    denom = max(t.max_abs() for t in terms)
    return total.max_abs() / denom if denom else total.max_abs()


def landau_eigen_residual(f: PolyGaussSpinor, bp: BeamParameters,
                          eigenvalue: float) -> float:
    """Residual of (P_1^2 + P_2^2 + beB Sigma_z) f = eigenvalue * f.

    This is the transverse part of the squared Dirac operator; on each of
    the closed-form states (and on the scalar modes that seed them) the
    eigenvalue is landau_sq + zeeman_sq.
    """
    fld = landau_field(bp)
    lhs = (apply_gauge_momentum(1, apply_gauge_momentum(1, f, fld), fld)
           + apply_gauge_momentum(2, apply_gauge_momentum(2, f, fld), fld)
           + bp.beB * f.apply_matrix(clifford.SIGMA_Z))
    rhs = eigenvalue * f
    return relative_residual(lhs, rhs, f)


def random_polyspinor(rng: np.random.Generator, degree: int = 4,
                      zt_degree: int = 1) -> PolyGaussSpinor:
    """Random dense test spinor of bounded degree, coefficients O(1)."""
    shape = (4, degree + 1, degree + 1, zt_degree + 1, zt_degree + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PolyGaussSpinor(coeffs, 1.3, 0.7, 1.0)
