"""Library entry points reject inputs they cannot honour, with a named error."""

import re

import numpy as np
import pytest

from diracvortex import laguerre, observables as obs, polyspinor as ps
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
    "coupling_nonpositive_mass": (
        lambda: beb_over_m2(1.0, 0.0), ValueError, "mass energy must be > 0"),
    "magnetic_length_negative_field": (
        lambda: magnetic_length_m(-1.0), ValueError, "magnetic field must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejects_input(case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_no_rings_without_field():
    assert obs.counterflow_rings(QN, BP)
    assert obs.counterflow_rings(QN, NO_FIELD) == []
