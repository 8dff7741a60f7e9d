"""Exact operator algebra on polynomial-times-Gaussian spinor wavefunctions.

The function class is four complex polynomials in (u, v, z, t) multiplying a
fixed envelope exp(-(u^2+v^2)/2) exp(i(k z - E t)), where u = s x and
v = s y are transverse coordinates rescaled by s (s^2 = beB/2 for the
magnetic eigenstates, s = 1 for generic test spinors).  Momenta, gauge
potentials of constant fields, angular-momentum operators and constant
matrices all map the class to itself, with polynomial coefficients
transformed exactly.  Residuals of operator identities are therefore pure
rounding noise, with no discretisation error to argue about.  Each component
of a closed-form state also has a single winding, so ``dirac_residual`` works
on a radial form of the state: one polynomial in u^2 + v^2 per component.

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
from .constants import ELECTRON_CHARGE
from .states import BeamParameters, QuantumNumbers, energy, spinor_columns

#: coefficient axis of x^mu for mu = 0..3 = (t, x, y, z)
_AXIS = (4, 1, 2, 3)

#: the cyclic order of the spatial axes, the one statement of eps_{jkl} = +1
_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
#: spatial rotation generators as tensor index pairs: J_j = J_{kl} for cyclic (j, k, l)
AXIS_PAIRS = {j: ("txyz".index(k), "txyz".index(l)) for j, k, l in _CYCLIC}
#: (j, k) -> (l, eps_{jkl}) for the six ordered pairs of distinct axes
_EPSILON = {pair: entry for j, k, l in _CYCLIC
            for pair, entry in (((j, k), (l, 1.0)), ((k, j), (l, -1.0)))}
#: the cyclic pairs of rotation generators, and the index pairs mu < nu of J_{mu nu}
_CYCLIC_PAIRS = tuple((j, k) for j, k, _ in _CYCLIC)
_INDEX_PAIRS = tuple((mu, nu) for mu in range(4) for nu in range(mu + 1, 4))


@dataclass(frozen=True)
class FieldConfig:
    """Constant electromagnetic field; components in natural units."""
    B: tuple = (0.0, 0.0, 0.0)
    E: tuple = (0.0, 0.0, 0.0)

    def field_strength(self) -> np.ndarray:
        """Lower-index tensor F_{mu nu}, the one statement of the field; F_{0j} = E_j."""
        # read-only, once per instance, not per value: B = (-0.0, 0, 1) == (0.0, 0, 1)
        if "_tensor" not in self.__dict__:
            f = np.zeros((4, 4))
            f[0, 1:], f[1:, 0] = self.E, np.negative(self.E)
            # B_l sits where the rotation generator J_l sits: -B_l at its index pair
            for axis, b in zip("xyz", self.B, strict=True):
                mu, nu = AXIS_PAIRS[axis]
                f[mu, nu], f[nu, mu] = -b, b
            f.flags.writeable = False
            object.__setattr__(self, "_tensor", f)
        return self._tensor


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

    def _combine(self, other, op):
        """``op(self, other)`` for np.add or np.subtract; a mismatched pair pads self only."""
        if (self.energy, self.kz, self.mass, self.scale) \
                != (other.energy, other.kz, other.mass, other.scale):
            for name in ("energy", "kz", "mass", "scale"):
                if getattr(self, name) != getattr(other, name):
                    raise ValueError(f"operands carry different {name}")
        a, b = self.coeffs, other.coeffs
        if a.shape == b.shape:
            return self._like(op(a, b))
        return self._like(_into(_padded(a, tuple(map(max, a.shape, b.shape))), b, op))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar):
        return self._like(self.coeffs * scalar)

    def _times(self, scalar):
        """``scalar * self`` in place, for a result just built."""
        self.coeffs *= scalar
        return self

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max()) if self.coeffs.size else 0.0

    # primitive coordinate actions (rescaled transverse coordinates)

    def _shift(self, axis):
        c = self.coeffs
        out = np.zeros(c.shape[:axis] + (c.shape[axis] + 1,) + c.shape[axis + 1:],
                       dtype=complex)
        out[(slice(None),) * axis + (slice(1, None),)] = c
        return self._like(out)

    def _derivative(self, axis, shape):
        """A fresh array with d f along ``axis`` in its leading slot; along u and v it is
        zero-padded to cover ``shape`` as well."""
        c, n, head = self.coeffs, self.coeffs.shape[axis], (slice(None),) * axis
        low, high = head + (slice(n - 1),), head + (slice(1, None),)
        powers = np.arange(1, n).reshape([n - 1 if a == axis else 1 for a in range(5)])
        if axis in (3, 4):
            out = c * ((1j * self.kz) if axis == 3 else (-1j * self.energy))
            out[low] += c[high] * powers
            return out
        grown = c.shape[:axis] + (n + 1,) + c.shape[axis + 1:]
        out = np.zeros(tuple(map(max, grown, shape)), dtype=complex)
        slot = out[tuple(map(slice, grown))]
        np.multiply(c[high], powers, out=slot[low])
        slot[high] -= c
        slot *= self.scale
        return out

    # physical coordinates x^mu, mu = 0..3 = (t, x, y, z); x = u / scale, y = v / scale

    def mul(self, mu):
        """x^mu f."""
        out = self._shift(_index(mu, _AXIS))
        return out._times(1.0 / self.scale) if mu in (1, 2) else out

    def d(self, mu):
        """d f / dx^mu: the envelope brings down -u or -v, the plane wave +ik (z) or -iE (t)."""
        return self._like(self._derivative(_index(mu, _AXIS), self.coeffs.shape))

    def apply_matrix(self, mat):
        # the same (4, 4) x (4, N) BLAS product np.tensordot forms, minus its Python overhead
        c = self.coeffs
        return self._like(np.dot(np.asarray(mat, dtype=complex),
                                 c.reshape(4, -1)).reshape(c.shape))


def zero_like(f: PolyGaussSpinor) -> PolyGaussSpinor:
    return f._like(np.zeros((4, 1, 1, 1, 1), dtype=complex))


def _sum(terms, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """The fresh ``terms`` added in order in one buffer of their union shape, or zero_like(f)."""
    if len(terms) < 2:
        return terms[0] if terms else zero_like(f)
    out = _padded(terms[0].coeffs, tuple(map(max, *(t.coeffs.shape for t in terms))))
    for term in terms[1:]:
        _into(out, term.coeffs)
    return f._like(out)


def _padded(coeffs: np.ndarray, shape) -> np.ndarray:
    """``coeffs`` in a zero array of the larger ``shape``, each exponent in its slot."""
    out = np.zeros(shape, dtype=complex)
    out[tuple(map(slice, coeffs.shape))] = coeffs
    return out


def _into(out: np.ndarray, coeffs: np.ndarray, op=np.add) -> np.ndarray:
    """``op(out, coeffs)`` slot by slot in ``out``, just allocated (padded first if too small)."""
    if any(m < n for m, n in zip(out.shape, coeffs.shape)):
        out = _padded(out, tuple(map(max, out.shape, coeffs.shape)))
    view = out[tuple(map(slice, coeffs.shape))]
    op(view, coeffs, out=view)
    return out


def relative_residual(lhs: PolyGaussSpinor, rhs: PolyGaussSpinor, *refs) -> float:
    """Max coefficient of lhs - rhs over the largest participating scale."""
    scale = max([lhs.max_abs(), rhs.max_abs()] + [r.max_abs() for r in refs])
    diff = (lhs - rhs).max_abs()
    return diff / scale if scale else diff


# gauge potential and momenta

def _index(mu: int, per_index):
    """``per_index[mu]`` for a spacetime index mu, which must be 0..3."""
    if mu not in range(4):
        raise ValueError(f"index must be 0..3, got {mu}")
    return per_index[mu]


def _potential_action(mu: int, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """A_mu f with lower index, read off F: A_0 = -F_{0j} x^j, A_j = -(1/2) F_{jk} x^k."""
    weight = _index(mu, (1.0, 0.5, 0.5, 0.5))
    row = field.field_strength()[mu].tolist()
    # a term with a zero coefficient adds only zeros (and a wider box), so it is left out
    return _sum([f.mul(nu)._times(-weight * row[nu]) for nu in (1, 2, 3) if row[nu]], f)


def apply_gauge_momentum(mu: int, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """P_mu f = (i d_mu - e A_mu) f, lower index; with charge e = -1, -e A_mu f is A_mu f."""
    potential = _potential_action(mu, f, field).coeffs
    out = f._derivative(_index(mu, _AXIS), potential.shape)
    return f._like(_into(np.multiply(out, 1j, out=out), potential))


def _coordinate_lower(mu: int, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """x_mu f with the index down: (t, -x, -y, -z)."""
    out = f.mul(mu).coeffs
    return f._like(out if _index(mu, clifford.METRIC_SIGNS) > 0 else np.negative(out, out=out))


def apply_dirac(f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """(gamma^mu P_mu - m) f, each term added to the running sum as it is built."""
    total = None
    for mu in range(4):
        term = apply_gauge_momentum(mu, f, field).apply_matrix(clifford.gamma(mu)).coeffs
        total = term if total is None else _into(total, term)
        del term  # held only until it is added: the next term is built without it
    return f._like(_into(total, ((-f.mass) * f).coeffs))


def apply_canonical_jz(f: PolyGaussSpinor) -> PolyGaussSpinor:
    """(-i d/dphi + Sigma_z/2) f; the angular derivative is scale-free, taken at scale 1."""
    unit = PolyGaussSpinor(f.coeffs, f.energy, f.kz, f.mass)
    angular = _into(unit.d(2).mul(1).coeffs, unit.d(1).mul(2).coeffs, np.subtract)
    angular *= -1j
    return f._like(_into(angular, f.apply_matrix(0.5 * clifford.SIGMA_Z).coeffs))


def _generators(f: PolyGaussSpinor, field: FieldConfig, keys):
    """{key: J_key f} for axis names ("x", "y", "z") or index pairs (mu, nu), each P_mu f
    formed once."""
    pairs = {key: AXIS_PAIRS[key] if isinstance(key, str) else key for key in keys}
    pf = {mu: apply_gauge_momentum(mu, f, field)
          for mu in dict.fromkeys(i for pair in pairs.values() for i in pair)}
    return {key: f._like(_into(_into(_coordinate_lower(mu, pf[nu]).coeffs,
                                     _coordinate_lower(nu, pf[mu]).coeffs, np.subtract),
                               f.apply_matrix(0.5j * clifford.sigma_tensor(mu, nu)).coeffs))
            for key, (mu, nu) in pairs.items()}


def apply_gauge_covariant_j(key, f: PolyGaussSpinor, field: FieldConfig) -> PolyGaussSpinor:
    """Gauge-covariant angular momentum J_{mu nu} = x_[mu P_nu] + (i/2) sigma_{mu nu}.

    ``key`` is an axis name ("x", "y", "z") or an explicit (mu, nu) pair.
    For a field B = (0, 0, beB) and e = -1 the z generator reduces to
    -i d/dphi + r^2 (rescaled) + Sigma_z/2, which matches the expectation
    values produced by the quadrature route.
    """
    return _generators(f, field, (key,))[key]


def commutator_jj_residual(j: str, k: str, field: FieldConfig,
                           f: PolyGaussSpinor) -> float:
    """Residual of [J_j, J_k] = i eps_{jkl} (J_l + e x_l (x.B)) applied to f.

    With e = -1 the anomaly is -x_l (x.B): the rotation generators close
    only when the magnetic field vanishes.
    """
    return commutator_jj_residuals(field, f, ((j, k),))[0]


def commutator_jj_residuals(field: FieldConfig, f: PolyGaussSpinor, pairs=_CYCLIC_PAIRS):
    """``commutator_jj_residual`` for each (j, k) of ``pairs``, each image of f formed once."""
    jf = _generators(f, field, "xyz")
    jjf = {}
    for b in "xyz":
        outer = {a for pair in pairs if b in pair for a in pair if a != b}
        jjf.update(((a, b), image) for a, image in _generators(jf[b], field, outer).items())
    bx, by, bz = field.B
    xdotb = bx * f.mul(1) + by * f.mul(2) + bz * f.mul(3)
    out = []
    for j, k in pairs:
        axis, eps = _EPSILON[(j, k)]
        lhs = jjf[j, k] - jjf[k, j]
        rhs = (1j * eps) * (jf[axis] + ELECTRON_CHARGE * xdotb.mul("txyz".index(axis)))
        out.append(relative_residual(lhs, rhs, f, jf[k], jf[j]))
    return out


def commutator_dirac_j_residual(mu: int, nu: int, field: FieldConfig,
                                f: PolyGaussSpinor) -> float:
    """Residual of [Pslash - m, J_{mu nu}] = i e x_[mu F_nu]lambda gamma^lambda on f."""
    return commutator_dirac_j_residuals(field, f, ((mu, nu),))[0]


def commutator_dirac_j_residuals(field: FieldConfig, f: PolyGaussSpinor,
                                 pairs=_INDEX_PAIRS):
    """``commutator_dirac_j_residual`` for each (mu, nu) of ``pairs``.

    (Pslash - m) f, the generator images of f and of (Pslash - m) f, and the
    images x_rho gamma^lambda f are formed once for all pairs.
    """
    df = apply_dirac(f, field)
    jf, jdf = _generators(f, field, pairs), _generators(df, field, pairs)
    gf = [f.apply_matrix(clifford.gamma(lam)) for lam in range(4)]
    xgf = {(rho, lam): _coordinate_lower(rho, gf[lam])
           for rho in dict.fromkeys(i for pair in pairs for i in pair) for lam in range(4)}
    fs = field.field_strength()
    out = []
    for mu, nu in pairs:
        lhs = apply_dirac(jf[mu, nu], field) - jdf[mu, nu]
        terms = []
        for lam in range(4):
            if fs[nu, lam]:
                terms.append(fs[nu, lam] * xgf[mu, lam])
            if fs[mu, lam]:
                terms.append((fs[mu, lam] * xgf[nu, lam])._times(-1.0))
        rhs = _sum(terms, f)._times(1j * ELECTRON_CHARGE)
        out.append(relative_residual(lhs, rhs, f, jf[mu, nu], df))
    return out


def dirac_j12_rhs_explicit(field: FieldConfig, f: PolyGaussSpinor) -> PolyGaussSpinor:
    """Component form of the z-generator obstruction.

    i e ((x E_y - y E_x) gamma^0 - B_z (x.gamma) + (x.B) gamma^3) f;
    identically zero exactly when the only field is E along z.
    """
    ex, ey, _ = field.E
    bx, by, bz = field.B
    g0, g1, g2, g3 = (f.apply_matrix(clifford.gamma(lam)) for lam in range(4))
    out = ey * g0.mul(1) - ex * g0.mul(2)
    out = out - bz * (g1.mul(1) + g2.mul(2) + g3.mul(3))
    out = out + bx * g3.mul(1) + by * g3.mul(2) + bz * g3.mul(3)
    return (1j * ELECTRON_CHARGE) * out


# conversion of the closed-form states into the polynomial class

def _laguerre_coefficients(l: int, p: int) -> list:
    """c_j = (-1)^j binom(p+l, p-j)/j!, j = 0..p: L_p^l(rho) in powers of rho."""
    return [(-1.0)**j * math.comb(p + l, p - j) / math.factorial(j) for j in range(p + 1)]


def _scalar_poly2(winding: int, radial) -> np.ndarray:
    """2-D coefficients (in u, v) of w^n q(u^2+v^2), or w-bar^|n| q when n < 0, w = u + iv.

    ``radial`` holds q's coefficients c_j in powers of u^2 + v^2; the scalar mode
    (u + oam_sign i v)^l L_p^l(u^2+v^2) has n = oam_sign l and ``_laguerre_coefficients``.
    The radial block holds c_j binom(j, k), the coefficient of u^(2k) v^(2(j-k)), at
    (k, j-k).  With l = |n|, each vortex term binom(l, a) (+-i)^(l-a) u^a v^(l-a) adds a
    scaled copy on every second power from u^a v^(l-a), for a = 0..l in ascending order
    (the rounded bits depend on it); other powers stay +0.
    """
    l, oam_sign, p = abs(winding), (-1 if winding < 0 else 1), len(radial) - 1
    n = 2 * p + 1
    j, a = np.tril_indices(p + 1)
    block = np.zeros((p + 1, p + 1), dtype=complex)
    block[a, j - a] = [radial[i] * math.comb(i, k) for i, k in zip(j.tolist(), a.tolist())]
    out = np.zeros((l + n, l + n), dtype=complex)
    for a in range(l + 1):
        out[a:a + n:2, l - a:l - a + n:2] += math.comb(l, a) * (oam_sign * 1j)**(l - a) * block
    return out


def _mode_scale(bp: BeamParameters) -> float:
    """The coordinate scale of the closed-form states' polynomial forms, which need beB > 0."""
    if bp.beB <= 0.0:
        raise ValueError("polynomial conversion needs beB > 0")
    return bp.coordinate_scale


def _columns_to_polyspinor(bp: BeamParameters, en: float, modes) -> PolyGaussSpinor:
    """Sum over (column, winding, radial) of each {component: entry} times the
    ``_scalar_poly2`` of (winding, radial); no two modes share a component.

    Requires beB > 0.  The box is sized by the modes.
    """
    scale = _mode_scale(bp)
    polys = [(column, _scalar_poly2(winding, radial)) for column, winding, radial in modes]
    n = max((poly.shape[0] for _, poly in polys), default=1)
    coeffs = np.zeros((4, n, n, 1, 1), dtype=complex)
    for column, poly in polys:
        for c, entry in column.items():
            coeffs[c, :poly.shape[0], :poly.shape[1], 0, 0] = entry * poly
    return PolyGaussSpinor(coeffs, en, bp.k, bp.m, scale)


def _state_modes(qn: QuantumNumbers, bp: BeamParameters, energy_shift: float):
    """(E, modes): the energy plus ``energy_shift`` and the state's non-empty
    ``spinor_columns``, each as (column, winding, Laguerre coefficients) of its scalar
    mode, the state's own or the partner's of ``spin_orbit_mixing``."""
    en = energy(qn, bp).total + energy_shift
    main, mixing = spinor_columns(qn, bp, en)
    _, l2, p2 = qn.spin_orbit_mixing
    return en, [(column, qn.oam_sign * l, _laguerre_coefficients(l, p))
                for column, l, p in ((main, qn.l, qn.p), (mixing, l2, p2)) if column]


def state_to_polyspinor(qn: QuantumNumbers, bp: BeamParameters,
                        energy_shift: float = 0.0) -> PolyGaussSpinor:
    """Exact polynomial form of a closed-form state (requires beB > 0).

    The two ``spinor_columns`` hold the state's and the partner's scalar
    modes.  ``energy_shift`` displaces the energy entering both the phase
    and the bispinor entries, used as a sensitivity control: a shifted
    state must fail the Dirac equation loudly.
    """
    return _columns_to_polyspinor(bp, *_state_modes(qn, bp, energy_shift))


def scalar_state_to_polyspinor(qn: QuantumNumbers, bp: BeamParameters,
                               component: int) -> PolyGaussSpinor:
    """Scalar vortex profile times one basis bispinor, in polynomial form."""
    mode = ({component: 1.0}, qn.oam_sign * qn.l, _laguerre_coefficients(qn.l, qn.p))
    return _columns_to_polyspinor(bp, energy(qn, bp).total, [mode])


def landau_field(bp: BeamParameters) -> FieldConfig:
    return FieldConfig(B=(0.0, 0.0, bp.beB))


# the closed-form states on one winding per component

def _radial_form(qn: QuantumNumbers, bp: BeamParameters, energy_shift: float = 0.0):
    """(E, windings, q): component c of the state is q_c(rho) w^n_c, or q_c(rho)
    w-bar^|n_c| when n_c < 0, over the envelope, with w = u + iv and rho = w w-bar.

    Row c of q is the column entry times its mode's Laguerre coefficients
    (``_state_modes``), in powers of rho, with one zero coefficient to spare for the
    power of rho that P_+ adds.  ``windings`` has shape (4, 1), 0 on an empty component.
    """
    en, modes = _state_modes(qn, bp, energy_shift)
    windings = np.zeros((4, 1))
    q = np.zeros((4, max(len(radial) for _, _, radial in modes) + 1), dtype=complex)
    for column, winding, radial in modes:
        for c, entry in column.items():
            windings[c] = winding
            q[c, :len(radial)] = np.multiply(entry, radial)
    return en, windings, q


#: the partners (gamma^1 -+ i gamma^2)/2 of P_+- with the winding steps P_+- add
_LADDER = ((0.5 * (clifford.GAMMA1 - 1j * clifford.GAMMA2), 1),
           (0.5 * (clifford.GAMMA1 + 1j * clifford.GAMMA2), -1))


def _ladder_terms(windings: np.ndarray, q: np.ndarray, scale: float):
    """(1/2)(gamma^1 - i gamma^2) P_+ f, then (1/2)(gamma^1 + i gamma^2) P_- f, on a
    radial form, each as (windings, q); their sum is gamma^1 P_1 f + gamma^2 P_2 f.

    In the Landau field P_+- = P_1 +- i P_2 are i s (2 d/dw-bar - w) and
    i s (2 d/dw + w-bar), s = ``scale``, and step the winding (q' = dq/drho):
    P_+ (n, q) = (n + 1, 2is (q' - q)) for n >= 0, (n + 1, 2is (|n| q + rho q' - rho q))
    for n < 0; P_- (n, q) = (n - 1, 2is (n q + rho q')) for n > 0, (n - 1, 2is q') for
    n <= 0.  A nonzero row of each matrix holds one entry, of modulus 1: |mat| moves windings.
    """
    j = np.arange(q.shape[1])
    dq, rho_q = np.zeros_like(q), np.zeros_like(q)
    np.multiply(q[:, 1:], j[1:], out=dq[:, :-1])
    rho_q[:, 1:] = q[:, :-1]
    rho_dq = q * j
    raised = np.where(windings >= 0, dq - q, np.abs(windings) * q + rho_dq - rho_q)
    lowered = np.where(windings > 0, windings * q + rho_dq, dq)
    for (mat, step), image in zip(_LADDER, (raised, lowered)):
        image *= 2j * scale
        yield np.abs(mat) @ windings + step, mat @ image


def ladder_polyspinor(qn: QuantumNumbers, bp: BeamParameters) -> PolyGaussSpinor:
    """The two ladder terms of a closed-form state in Cartesian coefficients: the radial
    statement of gamma^1 P_1 f + gamma^2 P_2 f.  The P_+ term fills components 1 and 3,
    the P_- term 0 and 2."""
    en, windings, q = _radial_form(qn, bp)
    modes = [({c: 1.0}, int(n), image[c].tolist())
             for term_windings, image in _ladder_terms(windings, q, _mode_scale(bp))
             for c, n in enumerate(term_windings.ravel()) if image[c].any()]
    return _columns_to_polyspinor(bp, en, modes)


def dirac_residual(qn: QuantumNumbers, bp: BeamParameters,
                   energy_shift: float = 0.0) -> float:
    """Relative residual of (Pslash - m) on a closed-form state, over radial coefficients.

    On the radial form (``_radial_form``) the five terms gamma^0 P_0 f (P_0 = E), the
    P_+ and P_- terms of ``_ladder_terms``, gamma^3 P_3 f (P_3 = -k) and -m f are added
    in this order.  The denominator is the largest coefficient among the five terms,
    so the number is meaningful across twelve orders of magnitude in beB.
    """
    scale = _mode_scale(bp)
    en, windings, q = _radial_form(qn, bp, energy_shift)
    terms = [clifford.GAMMA0 @ (en * q)]
    terms += [image for _, image in _ladder_terms(windings, q, scale)]
    terms += [clifford.GAMMA3 @ (-bp.k * q), -bp.m * q]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    residual, denom = float(np.abs(total).max()), max(float(np.abs(t).max()) for t in terms)
    return residual / denom if denom else residual


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


def random_polyspinor(rng: "np.random.Generator", degree: int = 4,
                      zt_degree: int = 1) -> PolyGaussSpinor:
    """Random dense test spinor of bounded degree, coefficients O(1)."""
    shape = (4, degree + 1, degree + 1, zt_degree + 1, zt_degree + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PolyGaussSpinor(coeffs, 1.3, 0.7, 1.0)
