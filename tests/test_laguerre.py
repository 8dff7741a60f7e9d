"""Laguerre evaluation against independent oracles: series sums, finite
differences, scipy's own evaluator and node solvers, and explicit integrals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, roots_genlaguerre, roots_laguerre

from diracvortex import laguerre


def series_oracle(p, l, x):
    """Power-series sum in exact rational arithmetic (floats are rationals)."""
    xf = Fraction(x)
    total = sum(Fraction((-1)**j * math.comb(p + l, p - j), math.factorial(j)) * xf**j
                for j in range(p + 1))
    return float(total)


def test_degree_zero_is_one():
    for l in (0, 1, 5):
        for x in (0.0, 0.3, 11.0):
            assert laguerre.eval_laguerre(0, l, x) == 1.0


def test_degree_minus_one_is_zero():
    assert laguerre.eval_laguerre(-1, 3, 2.7) == 0.0
    assert np.array_equal(laguerre.eval_laguerre(-1, 0, np.array([0.0, 1.0])),
                          np.zeros(2))


def test_below_minus_one_rejected():
    with pytest.raises(ValueError):
        laguerre.eval_laguerre(-2, 0, 1.0)


def test_value_at_origin_is_binomial():
    # L_p^l(0) = binom(p+l, p); series oracle gives 10 for (3, 2)
    assert series_oracle(3, 2, 0.0) == 10.0
    assert laguerre.eval_laguerre(3, 2, 0.0) == pytest.approx(10.0, rel=1e-14)


@given(st.integers(0, 12), st.integers(0, 10),
       st.floats(0.0, 40.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_recurrence_matches_exact_series(p, l, x):
    ref = series_oracle(p, l, x)
    scale = max(1.0, abs(ref))
    assert abs(laguerre.eval_laguerre(p, l, x) - ref) <= 1e-12 * scale


def test_matches_scipy_reference():
    rng = np.random.default_rng(1)
    for _ in range(60):
        p = int(rng.integers(0, 15))
        l = int(rng.integers(0, 12))
        x = float(rng.uniform(0, 30))
        a = laguerre.eval_laguerre(p, l, x)
        b = eval_genlaguerre(p, l, x)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_scalar_argument_gives_zero_dimensional_numpy_value():
    for fn in (laguerre.eval_laguerre, laguerre.eval_derivative):
        for p in (-1, 0, 1, 5):
            value = fn(p, 2, 1.3)
            assert isinstance(value, (np.ndarray, np.generic))
            assert np.shape(value) == ()
            assert value == fn(p, 2, np.array([1.3]))[0]


def test_single_point_keeps_the_bits_of_the_array_path():
    """A point alone (0-d, (1,), (1, 1) or a float) gives what it gives inside a longer array."""
    rng = np.random.default_rng(23)
    for p in range(-1, 41):
        for l in range(-1, 41):
            xs = np.array([0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0 * p + 5.0),
                           40.0 * (p + 2)])
            batch = laguerre.eval_laguerre(p, l, xs)
            for x, expected in zip(xs.tolist(), batch.tolist()):
                zero_d = laguerre.eval_laguerre(p, l, np.array(x))
                if p >= 1:
                    assert type(zero_d) is np.float64
                else:
                    assert type(zero_d) is np.ndarray and zero_d.shape == ()
                assert type(laguerre.eval_laguerre(p, l, x)) is type(zero_d)
                values = [zero_d, laguerre.eval_laguerre(p, l, x)]
                for shape in ((1,), (1, 1)):
                    out = laguerre.eval_laguerre(p, l, np.full(shape, x))
                    assert type(out) is np.ndarray and out.shape == shape
                    assert out.dtype == np.float64
                    values.append(out)
                for value in values:
                    assert float(value.item()).hex() == expected.hex()


def test_derivative_of_constant_is_zero():
    assert laguerre.eval_derivative(0, 4, 2.2) == 0.0


def test_derivative_of_linear_is_minus_one():
    for x in (0.0, 0.5, 7.0):
        assert laguerre.eval_derivative(1, 0, x) == -1.0


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = int(rng.integers(1, 10))
        l = int(rng.integers(0, 8))
        x = float(rng.uniform(0.1, 20.0))
        h = 1e-6 * max(1.0, x)
        fd = (laguerre.eval_laguerre(p, l, x + h)
              - laguerre.eval_laguerre(p, l, x - h)) / (2 * h)
        exact = laguerre.eval_derivative(p, l, x)
        assert abs(exact - fd) <= 1e-7 * max(1.0, abs(exact))


def test_derivative_at_specific_point():
    fd = (laguerre.eval_laguerre(3, 2, 1.7 + 1e-6)
          - laguerre.eval_laguerre(3, 2, 1.7 - 1e-6)) / 2e-6
    assert laguerre.eval_derivative(3, 2, 1.7) == pytest.approx(fd, rel=1e-7)


def test_recurrences_exact_for_p_zero():
    for l in (0, 3):
        for x in (0.0, 1.3, 9.0):
            assert laguerre.check_recurrences(0, l, x) == 0.0


def test_recurrences_sampled():
    assert laguerre.check_recurrences(5, 3, 2.3) <= 1e-12
    assert laguerre.check_recurrences(3, 1, 0.0) <= 1e-13


@given(st.integers(0, 12), st.integers(0, 10),
       st.floats(0.0, 40.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_recurrence_residual_property(p, l, x):
    assert laguerre.check_recurrences(p, l, x) <= 1e-12


def test_orthogonality_examples():
    assert laguerre.weighted_inner_product(3, 3, 2, 2) == pytest.approx(20.0, rel=1e-12)
    assert abs(laguerre.weighted_inner_product(3, 1, 2, 2)) <= 1e-12 * 20.0
    assert laguerre.weighted_inner_product(3, 3, 2, 3) == pytest.approx(180.0, rel=1e-12)


def test_orthogonality_sweep():
    for l in range(11):
        for p1 in range(11):
            ref = laguerre.factorial_ratio(l, p1)
            for p2 in range(p1, 11):
                val = laguerre.weighted_inner_product(p1, p2, l, l)
                expected = ref if p1 == p2 else 0.0
                assert abs(val - expected) <= 1e-11 * ref


def test_second_moment_sweep():
    for l in range(11):
        for p in range(11):
            val = laguerre.weighted_inner_product(p, p, l, l + 1)
            expected = laguerre.factorial_ratio(l, p) * (2 * p + l + 1)
            assert val == pytest.approx(expected, rel=1e-11)


def test_factorial_ratio_values():
    assert laguerre.factorial_ratio(0, 0) == 1.0
    assert laguerre.factorial_ratio(5, 3) == 6720.0      # 8!/3!
    assert laguerre.factorial_ratio(2, 3) == 20.0        # 5!/3!
    # integer-product oracle
    for l, p in ((4, 7), (9, 2), (1, 0)):
        prod = 1
        for j in range(p + 1, p + l + 1):
            prod *= j
        assert laguerre.factorial_ratio(l, p) == float(prod)


def test_factorial_ratio_guard():
    with pytest.raises(OverflowError):
        laguerre.factorial_ratio(100, 100)


def test_roots_trivial_cases():
    assert laguerre.positive_roots(0, 5) == []
    assert laguerre.positive_roots(1, 0) == pytest.approx([1.0], abs=1e-12)


def scalar_bisection_roots(p, l):
    """Reference: the same grid brackets, bisected one root at a time."""
    if p == 0:
        return []
    upper = 4.0 * p + 2.0 * l + 4.0
    samples = 32 * p
    while True:
        grid = np.linspace(0.0, upper, samples + 1)[1:]
        vals = laguerre.eval_laguerre(p, l, grid)
        signs = np.sign(vals)
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        exact = np.nonzero(vals == 0.0)[0]
        if len(idx) + len(exact) >= p:
            break
        samples *= 2
    roots = [float(grid[i]) for i in exact]
    for i in idx:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(laguerre.eval_laguerre(p, l, lo))
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fmid = float(laguerre.eval_laguerre(p, l, mid))
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    return roots[:p]


def test_roots_match_scalar_bisection_bit_for_bit():
    laguerre._bisected_roots.cache_clear()
    for _ in ("cold", "warm"):
        for p in range(13):
            for l in range(11):
                roots = laguerre.positive_roots(p, l)
                assert roots == scalar_bisection_roots(p, l)
                assert all(type(r) is float for r in roots)


def test_roots_are_a_new_list_on_every_call():
    first = laguerre.positive_roots(4, 3)
    expected = list(first)
    first[0] = -1.0
    first.append(99.0)
    second = laguerre.positive_roots(4, 3)
    assert second == expected
    assert second is not first


def test_float_index_rejected_before_and_after_integer_is_cached():
    laguerre._bisected_roots.cache_clear()
    with pytest.raises(TypeError):
        laguerre.positive_roots(3.0, 2)
    laguerre.positive_roots(3, 2)
    with pytest.raises(TypeError):
        laguerre.positive_roots(3.0, 2)


def test_negative_index_rejected_before_the_cache():
    laguerre.positive_roots(2, 2)
    size = laguerre._bisected_roots.cache_info().currsize
    with pytest.raises(ValueError):
        laguerre.positive_roots(-1, 2)
    assert laguerre._bisected_roots.cache_info().currsize == size


def test_roots_on_grid_points_are_exact():
    assert laguerre.positive_roots(1, 0) == [1.0]
    assert laguerre.positive_roots(2, 2) == [2.0, 6.0]


def test_roots_at_bisection_midpoints_are_exact():
    # L_1^28 vanishes at 29, the first midpoint of the grid bracket (28, 30)
    assert laguerre.positive_roots(1, 28) == [29.0]
    assert 12.106403191004286 in laguerre.positive_roots(15, 5)


def test_roots_of_three_two():
    roots = laguerre.positive_roots(3, 2)
    assert len(roots) == 3
    for r in roots:
        assert abs(laguerre.eval_laguerre(3, 2, r)) <= 1e-10
    # dense sign-change scan oracle
    grid = np.linspace(1e-6, 20.0, 200001)
    vals = laguerre.eval_laguerre(3, 2, grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(flips) == 3
    for r, i in zip(roots, flips):
        assert grid[i] <= r <= grid[i + 1]


def test_roots_match_scipy_nodes():
    for p, l in ((4, 0), (6, 3), (10, 5)):
        mine = laguerre.positive_roots(p, l)
        ref = roots_genlaguerre(p, l)[0]
        assert np.allclose(mine, ref, atol=1e-10, rtol=0)


def test_roots_interlace_when_raising_superscript():
    for p in range(1, 11):
        for l in (0, 2, 4):
            lower = laguerre.positive_roots(p, l)
            upper = laguerre.positive_roots(p, l + 1)
            for a, b, c in zip(lower, upper, lower[1:] + [math.inf]):
                assert a < b < c


def test_gauss_rule_is_scipys_byte_for_byte():
    # degree 2n - 2 asks for n nodes; under the error::RuntimeWarning gate
    # this also pins that no overflow occurs below n = 364
    for n in [*range(1, 181), 250, 300, 347, 363]:
        nodes, weights = laguerre.gauss_laguerre_nodes(2 * n - 2)
        ref_nodes, ref_weights = roots_laguerre(n)
        assert nodes.tobytes() == ref_nodes.tobytes(), n
        assert weights.tobytes() == ref_weights.tobytes(), n
        assert not nodes.flags.writeable and not weights.flags.writeable


def test_gauss_rule_rejects_negative_degree():
    with pytest.raises(ValueError):
        laguerre.gauss_laguerre_nodes(-1)


def test_quadrature_autosizing():
    # degree-40 integrand: moments of the weight, against the exact factorial
    val = laguerre.integrate_weighted(lambda x: x**40, 40)
    assert val == pytest.approx(math.factorial(40), rel=1e-10)
