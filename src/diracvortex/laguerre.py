"""Associated Laguerre polynomials and the Gauss-Laguerre quadrature backbone.

Evaluation uses the upward three-term recurrence in the degree, which is
accurate for the small degrees (p up to a few tens) this package needs.
The p = -1 polynomial is identically zero by convention; it shows up in
derivative formulas and in the ground-family spinors.

The Gauss-Laguerre rule is computed with numpy alone: Golub-Welsch
eigenvalues, one Newton step and log-normalised weights, in the order
scipy.special.roots_laguerre takes them, so nodes and weights carry the same
bits as scipy's.  That step keeps its own recurrence in x (scipy's
eval_genlaguerre at superscript 0), because eval_laguerre above rounds
differently for every degree >= 2.
"""

import functools

import numpy as np

#: largest l + p accepted by factorial_ratio before double overflow risk
FACTORIAL_GUARD = 170


def eval_laguerre(p: int, l: int, x):
    """Value of L_p^l at x, recurrence upward in p; shaped like x (0-d for scalar x).

    p = -1 returns 0 by convention; p < -1 is rejected.  l may be any
    integer >= -1 (the superscript enters the recurrence only additively).

    A single point (x.size == 1) runs the recurrence on a Python float, which
    costs a few microseconds where the array path costs tens.  The bits are
    the same: the recurrence uses only + - * /, which IEEE 754 rounds alike
    in Python and numpy, in the same order.  The result keeps the array
    path's type: an np.float64 for 0-d x, an array shaped like x otherwise.
    Only overflow differs: a float turns into inf or nan without numpy's
    RuntimeWarning.
    """
    if p < -1:
        raise ValueError(f"radial index p must be >= -1, got {p}")
    x = np.asarray(x, dtype=float)
    if p == -1:
        return np.zeros_like(x)
    if p == 0:
        return np.ones_like(x)
    if x.size != 1:
        return _recurrence(p, l, x)
    value = _recurrence(p, l, x.item())
    return np.float64(value) if x.ndim == 0 else np.full(x.shape, value)


def _recurrence(p: int, l: int, x):
    """L_p^l(x) for p >= 1 at an ndarray or a Python float x."""
    prev, cur = 1.0, 1.0 + l - x     # L_0, L_1
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


def _laguerre_pair(n: int, x):
    """L_{n-1}(x) and L_n(x) for n >= 1, by scipy's eval_genlaguerre recurrence.

    L_{n-1} is the loop's intermediate; it has the bits that a run to
    degree n - 1 alone would give.
    """
    d = -x
    prev, cur = np.ones_like(x), d + 1.0
    for k in range(1, n):
        d = -x / (k + 1.0) * cur + (k / (k + 1.0)) * d
        prev, cur = cur, d + cur
    return prev, cur


def _log_centred(a):
    """a over the geometric midpoint of its largest and smallest magnitudes."""
    log_a = np.log(np.abs(a))
    return a / np.exp((log_a.max() + log_a.min()) / 2.0)


@functools.lru_cache(maxsize=None)
def gauss_laguerre_nodes(degree: int):
    """Nodes and weights integrating x^d e^{-x} on [0, inf) exactly for d <= degree.

    The n = degree // 2 + 1 nodes are the eigenvalues of the Jacobi matrix of
    L_n (Golub & Welsch, Math. Comp. 23, 221 (1969)), refined by one Newton
    step; the weights 1 / (L_{n-1}(x) L_n'(x)) are log-normalised and then
    scaled to sum to 1.  Each step follows scipy.special.roots_laguerre, so
    the result is that function's byte for byte.  The weights first overflow
    at n = 364 (degree 726): n L_{n-1} exceeds the double range at the
    largest nodes, and numpy warns (RuntimeWarning) where scipy does.

    Cached by degree; the returned arrays are read-only.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    n = degree // 2 + 1
    if n == 1:
        nodes, weights = np.ones(1), np.ones(1)
    else:
        k = np.arange(n, dtype=float)
        x = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(-k[1:], -1))
        prev, y = _laguerre_pair(n, x)
        dy = (n * y - n * prev) / x
        nodes = x - y / dy
        weights = 1.0 / (_log_centred(_laguerre_pair(n - 1, nodes)[1]) * _log_centred(dy))
        weights *= 1.0 / weights.sum()
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
    The roots depend on (p, l) alone, not on the beam or the sign family, so
    each pair is bisected once per process; every call returns a new list.
    """
    if p < 0:
        raise ValueError(f"radial index p must be >= 0, got {p}")
    if l < 0:
        raise ValueError(f"order l must be >= 0, got {l}")
    return list(_bisected_roots(p, l))


@functools.lru_cache(maxsize=None, typed=True)
def _bisected_roots(p: int, l: int):
    """positive_roots as a tuple, cached by (p, l) and their types."""
    if p == 0:
        return ()
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
    return tuple(roots[:p])
