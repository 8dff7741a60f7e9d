"""Library entry points reject inputs they cannot honour, with a named error."""

import functools
import math
import re

import numpy as np
import pytest

from diracvortex import cli, laguerre, observables as obs, polyspinor as ps
from diracvortex.constants import beb_over_m2, magnetic_length_m
from diracvortex.states import BeamParameters, QuantumNumbers, scalar_mode

QN = QuantumNumbers(1, 1, 2, 3)
BP = BeamParameters(0.37, k=0.8)
NO_FIELD = BeamParameters(0.0, k=0.8)

REJECTIONS = {
    "current_profile_negative_radius": (
        lambda: obs.current_profile(QN, BP, np.array([1.0, -0.5])),
        ValueError, "radii must be >= 0"),
    "moment_from_angular_without_field": (
        lambda: obs.magnetic_moment_from_angular(QN, NO_FIELD),
        ValueError, "magnetic moment requires beB > 0"),
    "moment_quadrature_without_field": (
        lambda: obs.magnetic_moment_quadrature(QN, NO_FIELD),
        ValueError, "magnetic moment requires beB > 0"),
    "polyspinor_shape": (
        lambda: ps.PolyGaussSpinor(np.zeros((3, 1, 1, 1, 1)), 1.3, 0.7, 1.0),
        ValueError, "coefficients must have shape (4, nu, nv, nz, nt)"),
    "polyspinor_scale": (
        lambda: ps.PolyGaussSpinor(np.zeros((4, 1, 1, 1, 1)), 1.3, 0.7, 1.0, scale=0.0),
        ValueError, "coordinate scale must be > 0"),
    "beam_negative_field": (
        lambda: BeamParameters(-0.1), ValueError, "beB must be >= 0"),
    "beam_nonpositive_mass": (
        lambda: BeamParameters(0.37, m=0.0), ValueError, "mass must be > 0"),
    "scalar_mode_negative_radius": (
        lambda: scalar_mode(QN, BP, (-0.5, 0.0, 0.0, 0.0)),
        ValueError, "radius must be >= 0"),
    "derivative_negative_index": (
        lambda: laguerre.eval_derivative(-2, 1, 0.5),
        ValueError, "radial index p must be >= -1, got -2"),
    "recurrences_negative_index": (
        lambda: laguerre.check_recurrences(2, -1, 0.5),
        ValueError, "p and l must be >= 0"),
    "inner_product_negative_index": (
        lambda: laguerre.weighted_inner_product(1, 2, 0, -1),
        ValueError, "indices and weight power must be >= 0"),
    "factorial_ratio_negative_index": (
        lambda: laguerre.factorial_ratio(-1, 3), ValueError, "l and p must be >= 0"),
    "positive_roots_negative_index": (
        lambda: laguerre.positive_roots(-1, 2),
        ValueError, "radial index p must be >= 0, got -1"),
    "positive_roots_negative_order": (
        lambda: laguerre.positive_roots(3, -1), ValueError, "order l must be >= 0, got -1"),
    "quantum_numbers_fractional_l": (
        lambda: QuantumNumbers(1, 1, 2.5, 1),
        TypeError, "l and p must be integers, got l=2.5, p=1"),
    "quantum_numbers_fractional_p": (
        lambda: QuantumNumbers(1, 1, 2, 1.5),
        TypeError, "l and p must be integers, got l=2, p=1.5"),
    "polyspinor_mul_index": (
        lambda: ps.random_polyspinor(np.random.default_rng(0)).mul(4),
        ValueError, "index must be 0..3, got 4"),
    "polyspinor_d_index": (
        lambda: ps.random_polyspinor(np.random.default_rng(0)).d(-1),
        ValueError, "index must be 0..3, got -1"),
    "coupling_mass_squared_underflow": (
        lambda: beb_over_m2(1.0, 1e-160), ValueError, "mass energy squared underflows to 0"),
    "coupling_overflow": (
        lambda: beb_over_m2(1e300, 1e-100), ValueError, "beB / m^2 is not finite"),
    "coupling_nan_field": (
        lambda: beb_over_m2(math.nan, 511.0), ValueError, "beB / m^2 is not finite"),
    "coupling_nonpositive_mass": (
        lambda: beb_over_m2(1.0, 0.0), ValueError, "mass energy must be > 0"),
    "magnetic_length_negative_field": (
        lambda: magnetic_length_m(-1.0), ValueError, "magnetic field must be >= 0"),
    "coupling_infinite_mass": (
        lambda: beb_over_m2(1.0, math.inf), ValueError, "mass energy must be finite"),
    "coupling_nan_mass": (
        lambda: beb_over_m2(1.0, math.nan), ValueError, "mass energy must be finite"),
    "magnetic_length_nan_field": (
        lambda: magnetic_length_m(math.nan), ValueError, "magnetic field must be finite"),
    "magnetic_length_infinite_field": (
        lambda: magnetic_length_m(math.inf), ValueError, "magnetic field must be finite"),
    "magnetic_length_subnormal_field": (
        lambda: magnetic_length_m(1e-320), ValueError, "|e| B underflows to 0"),
    "beam_k_square_overflow": (
        lambda: BeamParameters(0.37, k=1e200), ValueError,
        "k squared overflows double precision"),
    "beam_negative_k_square_overflow": (
        lambda: BeamParameters(0.37, k=-1e155), ValueError,
        "k squared overflows double precision"),
    "beam_mass_square_overflow": (
        lambda: BeamParameters(0.37, m=1e200), ValueError,
        "mass squared overflows double precision"),
}
REJECTIONS.update({
    f"beam_{label}_{field}": (
        functools.partial(BeamParameters, **{"beB": 0.37, "m": 1.0, "k": 0.8, field: value}),
        ValueError, f"{name} must be finite")
    for field, name in (("beB", "beB"), ("m", "mass"), ("k", "k"))
    for label, value in (("nan", math.nan), ("inf", math.inf), ("neg_inf", -math.inf))})


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejects_input(case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_no_rings_without_field():
    assert obs.counterflow_rings(QN, BP)
    assert obs.counterflow_rings(QN, NO_FIELD) == []


def test_numpy_integer_quantum_numbers_accepted():
    assert QuantumNumbers(1, 1, np.int64(2), np.int32(1)) == QuantumNumbers(1, 1, 2, 1)


@pytest.mark.parametrize("argv", [["profile", "--k-over-m", "1e200"],
                                  ["table", "--k-over-m", "1e160", "--check"]])
def test_cli_names_the_overflowing_momentum(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: k squared overflows double precision\n")


@pytest.mark.parametrize("command", ["profile", "figure"])
def test_cli_caps_samples_before_allocating(command, monkeypatch, capsys):
    def allocate(args):
        raise AssertionError(f"{command} ran with --samples {args.samples}")

    monkeypatch.setattr(cli, f"run_{command}", allocate)
    assert cli.main([command, "--samples", str(cli.MAX_SAMPLES + 1)]) == 2
    assert capsys.readouterr() == ("", f"error: samples must be <= {cli.MAX_SAMPLES}\n")
    cli._validate(cli.build_parser().parse_args([command, "--samples", str(cli.MAX_SAMPLES)]))


def test_cli_caps_max_levels_before_building_the_table(monkeypatch, capsys):
    def build(args):
        raise AssertionError(f"spectrum ran with --max-levels {args.max_levels}")

    monkeypatch.setattr(cli, "run_spectrum", build)
    assert cli.main(["spectrum", "--max-levels", str(cli.MAX_LEVELS + 1)]) == 2
    assert capsys.readouterr() == ("", f"error: max_levels must be <= {cli.MAX_LEVELS}\n")
    cli._validate(cli.build_parser().parse_args(["spectrum", "--max-levels",
                                                 str(cli.MAX_LEVELS)]))
