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
from .states import BeamParameters, QuantumNumbers, energy

ELECTRON_CHARGE = -1.0

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
        return PolyGaussSpinor(coeffs, self.energy, self.kz, self.mass, self.scale)

    def _check_compatible(self, other):
        for name in ("energy", "kz", "mass", "scale"):
            if getattr(self, name) != getattr(other, name):
                raise ValueError(f"operands carry different {name}")

    def __add__(self, other):
        self._check_compatible(other)
        shape = np.maximum(self.coeffs.shape, other.coeffs.shape)
        out = np.zeros(shape, dtype=complex)
        a, b = self.coeffs, other.coeffs
        out[:, :a.shape[1], :a.shape[2], :a.shape[3], :a.shape[4]] += a
        out[:, :b.shape[1], :b.shape[2], :b.shape[3], :b.shape[4]] += b
        return self._like(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return self._like(self.coeffs * scalar)

    def __neg__(self):
        return self._like(-self.coeffs)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def degrees(self):
        """Maximal retained exponent per coordinate (after trimming zeros)."""
        out = []
        for axis in range(1, 5):
            other = tuple(a for a in range(5) if a != axis)
            mask = np.any(self.coeffs != 0, axis=other)
            nz = np.nonzero(mask)[0]
            out.append(int(nz[-1]) if nz.size else 0)
        return tuple(out)

    def trimmed(self):
        du, dv, dz, dt = self.degrees()
        return self._like(self.coeffs[:, :du + 1, :dv + 1, :dz + 1, :dt + 1])

    # primitive coordinate actions (rescaled transverse coordinates)

    def _shift(self, axis):
        pad = [(0, 0)] * 5
        pad[axis] = (1, 0)
        return self._like(np.pad(self.coeffs, pad))

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

    def mul_u(self):
        return self._shift(1)

    def mul_v(self):
        return self._shift(2)

    def mul_z(self):
        return self._shift(3)

    def mul_t(self):
        return self._shift(4)

    def d_u(self):
        """Full d/du including the Gaussian envelope (brings down -u)."""
        return self._poly_derivative(1) - self.mul_u()

    def d_v(self):
        return self._poly_derivative(2) - self.mul_v()

    def d_z(self):
        """Full d/dz including the plane-wave factor (brings down +ik)."""
        return self._poly_derivative(3) + (1j * self.kz) * self

    def d_t(self):
        return self._poly_derivative(4) + (-1j * self.energy) * self

    # physical coordinates

    def mul_x(self):
        return (1.0 / self.scale) * self.mul_u()

    def mul_y(self):
        return (1.0 / self.scale) * self.mul_v()

    def d_x(self):
        return self.scale * self.d_u()

    def d_y(self):
        return self.scale * self.d_v()

    def apply_matrix(self, mat):
        return self._like(np.tensordot(np.asarray(mat, dtype=complex),
                                       self.coeffs, axes=([1], [0])))


def zero_like(f: PolyGaussSpinor) -> PolyGaussSpinor:
    return PolyGaussSpinor(np.zeros((4, 1, 1, 1, 1), dtype=complex),
                           f.energy, f.kz, f.mass, f.scale)


def relative_residual(lhs: PolyGaussSpinor, rhs: PolyGaussSpinor, *refs) -> float:
    """Max coefficient of lhs - rhs over the largest participating scale."""
    scale = max([lhs.max_abs(), rhs.max_abs()] + [r.max_abs() for r in refs])
    if scale == 0.0:
        return (lhs - rhs).max_abs()
    return (lhs - rhs).max_abs() / scale


def is_scalar_multiple(g: PolyGaussSpinor, f: PolyGaussSpinor, tol: float = 1e-10):
    """Least-squares test whether g = lambda f; returns (verdict, lambda)."""
    shape = np.maximum(f.coeffs.shape, g.coeffs.shape)
    a = np.zeros(shape, dtype=complex)
    b = np.zeros(shape, dtype=complex)
    a[:, :f.coeffs.shape[1], :f.coeffs.shape[2], :f.coeffs.shape[3], :f.coeffs.shape[4]] = f.coeffs
    b[:, :g.coeffs.shape[1], :g.coeffs.shape[2], :g.coeffs.shape[3], :g.coeffs.shape[4]] = g.coeffs
    denom = np.vdot(a, a)
    if denom == 0:
        return False, 0.0j
    lam = np.vdot(a, b) / denom
    resid = np.max(np.abs(b - lam * a))
    ref = max(np.max(np.abs(b)), abs(lam) * np.max(np.abs(a)))
    return bool(ref == 0.0 or resid <= tol * ref), complex(lam)


# gauge potential and momenta

def _potential_action(mu: int, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """A_mu f with lower index: A_0 = -E.x, A_i = -((1/2) B x r)_i."""
    ex, ey, ez = field.E
    bx, by, bz = field.B
    if mu == 0:
        out = zero_like(f)
        if ex:
            out = out + (-ex) * f.mul_x()
        if ey:
            out = out + (-ey) * f.mul_y()
        if ez:
            out = out + (-ez) * f.mul_z()
        return out
    if mu == 1:
        return (-0.5 * by) * f.mul_z() + (0.5 * bz) * f.mul_y()
    if mu == 2:
        return (-0.5 * bz) * f.mul_x() + (0.5 * bx) * f.mul_z()
    if mu == 3:
        return (-0.5 * bx) * f.mul_y() + (0.5 * by) * f.mul_x()
    raise ValueError(f"index must be 0..3, got {mu}")


def apply_gauge_momentum(mu: int, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """P_mu f = (i d_mu - e A_mu) f, lower index, charge e = -1."""
    if mu == 0:
        grad = 1j * f.d_t()
    elif mu == 1:
        grad = 1j * f.d_x()
    elif mu == 2:
        grad = 1j * f.d_y()
    elif mu == 3:
        grad = 1j * f.d_z()
    else:
        raise ValueError(f"index must be 0..3, got {mu}")
    return grad + (-ELECTRON_CHARGE) * _potential_action(mu, f, field)


def _coordinate_lower(mu: int, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """x_mu f with the index down: (t, -x, -y, -z)."""
    if mu == 0:
        return f.mul_t()
    if mu == 1:
        return -1.0 * f.mul_x()
    if mu == 2:
        return -1.0 * f.mul_y()
    if mu == 3:
        return -1.0 * f.mul_z()
    raise ValueError(f"index must be 0..3, got {mu}")


def _dirac_terms(f: PolyGaussSpinor, field: FieldConfig):
    """The five terms gamma^mu P_mu f (mu = 0..3) and -m f, summed in this order."""
    return ([apply_gauge_momentum(mu, f, field).apply_matrix(clifford.gamma(mu))
             for mu in range(4)] + [(-f.mass) * f])


def apply_dirac(f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """(gamma^mu P_mu - m) f."""
    terms = _dirac_terms(f, field)
    return sum(terms[1:], terms[0])


def apply_canonical_jz(f: PolyGaussSpinor) -> PolyGaussSpinor:
    """(-i d/dphi + Sigma_z/2) f; the angular derivative is scale-free."""
    angular = f.d_v().mul_u() - f.d_u().mul_v()
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
    if j == k:
        lhs = apply_gauge_covariant_j(j, apply_gauge_covariant_j(k, f, field), field) \
            - apply_gauge_covariant_j(k, apply_gauge_covariant_j(j, f, field), field)
        return relative_residual(lhs, zero_like(f), f)
    axis, eps = _EPSILON[(j, k)]
    jk = apply_gauge_covariant_j(k, f, field)
    kj = apply_gauge_covariant_j(j, f, field)
    lhs = apply_gauge_covariant_j(j, jk, field) - apply_gauge_covariant_j(k, kj, field)
    bx, by, bz = field.B
    xdotb = bx * f.mul_x() + by * f.mul_y() + bz * f.mul_z()
    coord = {"x": PolyGaussSpinor.mul_x, "y": PolyGaussSpinor.mul_y,
             "z": PolyGaussSpinor.mul_z}[axis]
    rhs = (1j * eps) * (apply_gauge_covariant_j(axis, f, field)
                        + ELECTRON_CHARGE * coord(xdotb))
    return relative_residual(lhs, rhs, f, jk, kj)


def commutator_dirac_j_residual(mu: int, nu: int, field: FieldConfig,
                                f: PolyGaussSpinor) -> float:
    """Residual of [Pslash - m, J_{mu nu}] = i e x_[mu F_nu]lambda gamma^lambda on f."""
    jf = apply_gauge_covariant_j((mu, nu), f, field)
    df = apply_dirac(f, field)
    lhs = apply_dirac(jf, field) - apply_gauge_covariant_j((mu, nu), df, field)
    fs = field.field_strength()
    rhs = zero_like(f)
    for lam in range(4):
        gf = f.apply_matrix(clifford.gamma(lam))
        if fs[nu, lam]:
            rhs = rhs + fs[nu, lam] * _coordinate_lower(mu, gf)
        if fs[mu, lam]:
            rhs = rhs - fs[mu, lam] * _coordinate_lower(nu, gf)
    rhs = (1j * ELECTRON_CHARGE) * rhs
    return relative_residual(lhs, rhs, f, jf, df)


def dirac_j12_rhs_explicit(field: FieldConfig, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """Component form of the z-generator obstruction.

    i e ((x E_y - y E_x) gamma^0 - B_z (x.gamma) + (x.B) gamma^3) f;
    identically zero exactly when the only field is E along z.
    """
    ex, ey, _ = field.E
    bx, by, bz = field.B
    g = [clifford.gamma(m) for m in range(4)]
    out = ey * f.apply_matrix(g[0]).mul_x() - ex * f.apply_matrix(g[0]).mul_y()
    out = out - bz * (f.apply_matrix(g[1]).mul_x() + f.apply_matrix(g[2]).mul_y()
                      + f.apply_matrix(g[3]).mul_z())
    out = out + bx * f.apply_matrix(g[3]).mul_x() + by * f.apply_matrix(g[3]).mul_y() \
        + bz * f.apply_matrix(g[3]).mul_z()
    return (1j * ELECTRON_CHARGE) * out


# conversion of the closed-form states into the polynomial class

def _laguerre_series(p: int, l: int) -> np.ndarray:
    """Exact coefficients of L_p^l: c_j = (-1)^j binom(p+l, p-j)/j!."""
    if p < 0:
        return np.zeros(1)
    return np.array([(-1.0)**j * math.comb(p + l, p - j) / math.factorial(j)
                     for j in range(p + 1)])


def _radial_poly2(series: np.ndarray) -> np.ndarray:
    """2-D coefficients (in u, v) of sum_j series[j] (u^2+v^2)^j."""
    n = len(series)
    out = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    for j, c in enumerate(series):
        if c == 0.0:
            continue
        for a in range(j + 1):
            out[2 * a, 2 * (j - a)] += c * math.comb(j, a)
    return out


def _vortex_poly2(n: int, sign: int) -> np.ndarray:
    """2-D coefficients of (u + sign i v)^n."""
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for a in range(n + 1):
        out[a, n - a] = math.comb(n, a) * (sign * 1j)**(n - a)
    return out


def _poly2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=complex)
    for i, j in zip(*np.nonzero(a)):
        out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out


def _scalar_poly2(l: int, oam_sign: int, p: int) -> np.ndarray:
    """2-D coefficients (in u, v) of the scalar mode (u + oam_sign i v)^l L_p^l(u^2+v^2)."""
    return _poly2_mul(_vortex_poly2(l, oam_sign), _radial_poly2(_laguerre_series(p, l)))


def state_to_polyspinor(qn: QuantumNumbers, bp: BeamParameters,
                        include_spin_orbit: bool = True,
                        energy_shift: float = 0.0) -> PolyGaussSpinor:
    """Exact polynomial form of a closed-form state (requires beB > 0).

    The main column holds the state's scalar mode and the mixing column the
    partner's.  ``energy_shift`` displaces the energy entering both the
    phase and the bispinor entries, used as a sensitivity control: a
    shifted state must fail the Dirac equation loudly.
    """
    if bp.beB <= 0.0:
        raise ValueError("polynomial conversion needs beB > 0")
    en = energy(qn, bp).total + energy_shift
    m, k = bp.m, bp.k
    scale = math.sqrt(bp.beB / 2.0)
    main2 = _scalar_poly2(qn.l, qn.oam_sign, qn.p)
    spin_up = qn.spin_sign > 0
    so_factor, so_l, so_p = qn.spin_orbit_mixing
    so2 = _scalar_poly2(so_l, qn.oam_sign, so_p)
    amp = 1j * math.sqrt(2.0 * bp.beB) * so_factor

    nuv = max(main2.shape + so2.shape)
    coeffs = np.zeros((4, nuv, nuv, 1, 1), dtype=complex)
    if spin_up:
        coeffs[0, :main2.shape[0], :main2.shape[1], 0, 0] = (m + en) * main2
        coeffs[2, :main2.shape[0], :main2.shape[1], 0, 0] = k * main2
        so_component = 3
    else:
        coeffs[1, :main2.shape[0], :main2.shape[1], 0, 0] = (m + en) * main2
        coeffs[3, :main2.shape[0], :main2.shape[1], 0, 0] = -k * main2
        so_component = 2
    if include_spin_orbit:
        coeffs[so_component, :so2.shape[0], :so2.shape[1], 0, 0] = amp * so2
    return PolyGaussSpinor(coeffs, en, k, m, scale).trimmed()


def scalar_state_to_polyspinor(qn: QuantumNumbers, bp: BeamParameters,
                               component: int) -> PolyGaussSpinor:
    """Scalar vortex profile times one basis bispinor, in polynomial form."""
    if bp.beB <= 0.0:
        raise ValueError("polynomial conversion needs beB > 0")
    pol = _scalar_poly2(qn.l, qn.oam_sign, qn.p)
    coeffs = np.zeros((4, pol.shape[0], pol.shape[1], 1, 1), dtype=complex)
    coeffs[component, :, :, 0, 0] = pol
    return PolyGaussSpinor(coeffs, energy(qn, bp).total, bp.k, bp.m,
                           math.sqrt(bp.beB / 2.0))


def landau_field(bp: BeamParameters) -> FieldConfig:
    return FieldConfig(B=(0.0, 0.0, bp.beB))


def dirac_residual(qn: QuantumNumbers, bp: BeamParameters,
                   energy_shift: float = 0.0,
                   include_spin_orbit: bool = True) -> float:
    """Relative coefficient residual of (Pslash - m) on a closed-form state.

    The denominator is the largest coefficient among the five operator terms,
    so the number is meaningful across twelve orders of magnitude in beB.
    """
    f = state_to_polyspinor(qn, bp, include_spin_orbit, energy_shift)
    terms = _dirac_terms(f, landau_field(bp))
    total = sum(terms[1:], terms[0])
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
                      zt_degree: int = 1, energy: float = 1.3, kz: float = 0.7,
                      mass: float = 1.0, scale: float = 1.0) -> PolyGaussSpinor:
    """Random dense test spinor of bounded degree, coefficients O(1)."""
    shape = (4, degree + 1, degree + 1, zt_degree + 1, zt_degree + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PolyGaussSpinor(coeffs, energy, kz, mass, scale)
