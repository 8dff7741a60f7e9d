"""Dirac matrices in the standard representation, metric diag(+,-,-,-).

Module constants hold the 4x4 matrices; all functions return read-only views
or fresh arrays, so concurrent use is safe.
"""

import numpy as np

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def _offdiag(s):
    return np.block([[_Z2, s], [-s, _Z2]])


GAMMA0 = np.block([[_I2, _Z2], [_Z2, -_I2]])
GAMMA1 = _offdiag(_SX)
GAMMA2 = _offdiag(_SY)
GAMMA3 = _offdiag(_SZ)
GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)

# Spin matrices Sigma_i = diag(sigma_i, sigma_i); Hermitian, square to 1.
SIGMA_X = np.block([[_SX, _Z2], [_Z2, _SX]])
SIGMA_Y = np.block([[_SY, _Z2], [_Z2, _SY]])
SIGMA_Z = np.block([[_SZ, _Z2], [_Z2, _SZ]])

# Sign picked up when lowering one index on a gamma matrix.
METRIC_SIGNS = (1.0, -1.0, -1.0, -1.0)
METRIC = np.diag(METRIC_SIGNS)

IDENTITY4 = np.eye(4, dtype=complex)

for _m in (*GAMMAS, SIGMA_X, SIGMA_Y, SIGMA_Z, METRIC, IDENTITY4):
    _m.flags.writeable = False


def gamma(mu: int) -> np.ndarray:
    """Standard-representation gamma matrix, index mu in 0..3."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be 0..3, got {mu}")
    return GAMMAS[mu]


def gamma_lower(mu: int) -> np.ndarray:
    """gamma_mu with the index lowered: gamma_0 = gamma^0, gamma_i = -gamma^i."""
    return METRIC_SIGNS[mu] * gamma(mu)


def gamma_cylindrical(phi):
    """Radial and azimuthal gamma matrices at angle phi.

    gamma_r = cos(phi) gamma_x + sin(phi) gamma_y,
    gamma_phi = -sin(phi) gamma_x + cos(phi) gamma_y.
    The nonzero entries sit on the anti-diagonal blocks and carry phases
    exp(+-i phi).  An array of angles gives stacks of shape phi.shape + (4, 4).
    """
    phi = np.asarray(phi)[..., None, None]
    c, s = np.cos(phi), np.sin(phi)
    return c * GAMMA1 + s * GAMMA2, -s * GAMMA1 + c * GAMMA2


def sigma_cylindrical(phi: float):
    """Radial and azimuthal spin matrices at angle phi (block diagonal)."""
    c, s = np.cos(phi), np.sin(phi)
    return c * SIGMA_X + s * SIGMA_Y, -s * SIGMA_X + c * SIGMA_Y


def sigma_tensor(mu: int, nu: int) -> np.ndarray:
    """Antisymmetric tensor sigma_{mu nu} = (1/2)[gamma_mu, gamma_nu].

    Built from lower-index gamma matrices; returns the zero matrix when
    mu == nu.
    """
    gm, gn = gamma_lower(mu), gamma_lower(nu)
    return 0.5 * (gm @ gn - gn @ gm)


def check_sigma_commutator(mu: int, nu: int, rho: int, sig: int) -> float:
    """Max-norm residual of the sigma-tensor commutator identity.

    [sigma_{mu nu}, sigma_{rho sig}] =
        2(-eta_{mu rho} sigma_{nu sig} + eta_{mu sig} sigma_{nu rho}
          + eta_{nu rho} sigma_{mu sig} - eta_{nu sig} sigma_{mu rho})

    Zero (to rounding) for every index quadruple; identically zero when all
    four indices differ.
    """
    a = sigma_tensor(mu, nu)
    b = sigma_tensor(rho, sig)
    lhs = a @ b - b @ a
    eta = METRIC
    rhs = 2.0 * (
        -eta[mu, rho] * sigma_tensor(nu, sig)
        + eta[mu, sig] * sigma_tensor(nu, rho)
        + eta[nu, rho] * sigma_tensor(mu, sig)
        - eta[nu, sig] * sigma_tensor(mu, rho)
    )
    return float(np.max(np.abs(lhs - rhs)))


def clifford_residual() -> float:
    """Largest deviation from {gamma_mu, gamma_nu} = 2 eta_{mu nu} over all pairs,
    NaN if any is NaN."""
    deviations = []
    for mu in range(4):
        for nu in range(4):
            gm, gn = gamma_lower(mu), gamma_lower(nu)
            anti = gm @ gn + gn @ gm
            deviations.append(np.abs(anti - 2.0 * METRIC[mu, nu] * IDENTITY4))
    return float(np.max(deviations))
