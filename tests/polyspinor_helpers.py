"""Helpers the tests apply to PolyGaussSpinor objects: degree trimming and a
least-squares scalar-multiple test.  The package never needs them, so they
live with the tests as independent oracles."""

import numpy as np

from diracvortex.polyspinor import PolyGaussSpinor, _padded


def degrees(g: PolyGaussSpinor):
    """Maximal retained exponent per coordinate (after trimming zeros)."""
    nonzero = g.coeffs != 0
    out = []
    for axis in range(1, 5):
        other = tuple(a for a in range(5) if a != axis)
        mask = np.any(nonzero, axis=other)
        nz = np.nonzero(mask)[0]
        out.append(int(nz[-1]) if nz.size else 0)
    return tuple(out)


def trimmed(g: PolyGaussSpinor) -> PolyGaussSpinor:
    du, dv, dz, dt = degrees(g)
    return g._like(g.coeffs[:, :du + 1, :dv + 1, :dz + 1, :dt + 1])


def is_scalar_multiple(g: PolyGaussSpinor, f: PolyGaussSpinor, tol: float = 1e-10):
    """Least-squares test whether g = lambda f; returns (verdict, lambda)."""
    shape = tuple(map(max, f.coeffs.shape, g.coeffs.shape))
    a = _padded(f.coeffs, shape)
    b = _padded(g.coeffs, shape)
    denom = np.vdot(a, a)
    if denom == 0:
        return False, 0.0j
    lam = np.vdot(a, b) / denom
    resid = np.max(np.abs(b - lam * a))
    ref = max(np.max(np.abs(b)), abs(lam) * np.max(np.abs(a)))
    return bool(ref == 0.0 or resid <= tol * ref), complex(lam)
