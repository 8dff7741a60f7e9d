"""Associated Laguerre polynomials and the Gauss-Laguerre quadrature backbone.

Evaluation uses the upward three-term recurrence in the degree, which is
accurate for the small degrees (p up to a few tens) this package needs.
The p = -1 polynomial is identically zero by convention; it shows up in
derivative formulas and in the ground-family spinors.
"""

import functools

import numpy as np
from scipy.special import roots_laguerre

#: largest l + p accepted by factorial_ratio before double overflow risk
FACTORIAL_GUARD = 170


def eval_laguerre(p: int, l: int, x):
    """Value of L_p^l at x, recurrence upward in p; shaped like x (0-d for scalar x).

    p = -1 returns 0 by convention; p < -1 is rejected.  l may be any
    integer >= -1 (the superscript enters the recurrence only additively).
    """
    if p < -1:
        raise ValueError(f"radial index p must be >= -1, got {p}")
    x = np.asarray(x, dtype=float)
    if p == -1:
        return np.zeros_like(x)
    prev = np.ones_like(x)          # L_0
    if p == 0:
        return prev
    cur = 1.0 + l - x               # L_1
    for n in range(2, p + 1):
        prev, cur = cur, ((2.0 * n - 1.0 + l - x) * cur - (n - 1.0 + l) * prev) / n
    return cur


def eval_derivative(p: int, l: int, x):
    """d/dx L_p^l(x) = -L_{p-1}^{l+1}(x)."""
    if p < -1:
        raise ValueError(f"radial index p must be >= -1, got {p}")
    if p <= 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return -eval_laguerre(p - 1, l + 1, x)


def check_recurrences(p: int, l: int, x: float) -> float:
    """Relative residual of two contiguous-index identities at x.

    Checks  L_p^l = L_p^{l+1} - L_{p-1}^{l+1}  and
            x dL_p^l/dx = p L_p^l - (p+l) L_{p-1}^l,
    each normalised by the largest participating term (floor 1).
    """
    if p < 0 or l < 0:
        raise ValueError("p and l must be >= 0")
    a = eval_laguerre(p, l, x)
    b = eval_laguerre(p, l + 1, x)
    c = eval_laguerre(p - 1, l + 1, x)
    r1 = abs(a - (b - c)) / max(1.0, abs(a), abs(b), abs(c))
    d = x * eval_derivative(p, l, x)
    e = p * a
    f = (p + l) * eval_laguerre(p - 1, l, x)
    r2 = abs(d - (e - f)) / max(1.0, abs(d), abs(e), abs(f))
    return max(r1, r2)


@functools.lru_cache(maxsize=None)
def gauss_laguerre_nodes(degree: int):
    """Nodes and weights integrating x^d e^{-x} on [0, inf) exactly for d <= degree.

    Cached by degree; the returned arrays are read-only.
    """
    nodes, weights = roots_laguerre(degree // 2 + 1)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate_weighted(fn, degree: int) -> float:
    """Integral of fn(x) e^{-x} over [0, inf) for polynomial fn of degree <= degree."""
    nodes, weights = gauss_laguerre_nodes(degree)
    return float(np.sum(weights * fn(nodes)))


def weighted_inner_product(p1: int, p2: int, l: int, weight_power: int) -> float:
    """Integral of x^w L_{p1}^l(x) L_{p2}^l(x) e^{-x} over [0, inf).

    The node count is sized to the integrand degree, so the result is exact
    up to rounding.  With w = l this is the orthogonality integral
    (l+p)!/p! * delta_{p1 p2}; with w = l+1 the diagonal picks up the extra
    factor (2p + l + 1).
    """
    if min(p1, p2, l, weight_power) < 0:
        raise ValueError("indices and weight power must be >= 0")
    return integrate_weighted(
        lambda x: x**weight_power * eval_laguerre(p1, l, x) * eval_laguerre(p2, l, x),
        p1 + p2 + weight_power)


def factorial_ratio(l: int, p: int) -> float:
    """(l+p)!/p! as a running product of the l integers p+1 .. p+l."""
    if l < 0 or p < 0:
        raise ValueError("l and p must be >= 0")
    if l + p > FACTORIAL_GUARD:
        raise OverflowError(f"l + p = {l + p} exceeds the double-precision guard {FACTORIAL_GUARD}")
    out = 1.0
    for j in range(p + 1, p + l + 1):
        out *= j
    return out


def positive_roots(p: int, l: int):
    """The p positive roots of L_p^l, ascending, bisected to 1e-12.

    Sign changes are bracketed on a uniform grid below the classical upper
    bound for the largest zero; the grid is refined until all p brackets are
    found (the roots are simple, so a fine enough grid always succeeds).
    """
    if p < 0:
        raise ValueError(f"radial index p must be >= 0, got {p}")
    if p == 0:
        return []
    upper = 4.0 * p + 2.0 * l + 4.0
    samples = 32 * p
    while True:
        grid = np.linspace(0.0, upper, samples + 1)[1:]
        vals = eval_laguerre(p, l, grid)
        signs = np.sign(vals)
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        exact = np.nonzero(vals == 0.0)[0]
        if len(idx) + len(exact) >= p:
            break
        samples *= 2
        if samples > 2**22:
            raise RuntimeError("root bracketing failed to converge")
    # bisect every bracket at once; a midpoint that is an exact root closes it
    lo, hi = grid[idx], grid[idx + 1]
    flo = eval_laguerre(p, l, lo)
    while np.any(open_ := hi - lo > 1e-12):
        mid = 0.5 * (lo + hi)
        fmid = eval_laguerre(p, l, mid)
        in_left = flo * fmid < 0
        hi = np.where(open_ & (in_left | (fmid == 0.0)), mid, hi)
        lo, flo = np.where(open_ & ~in_left, (mid, fmid), (lo, flo))
    roots = grid[exact].tolist() + (0.5 * (lo + hi)).tolist()
    roots.sort()
    return roots[:p]
