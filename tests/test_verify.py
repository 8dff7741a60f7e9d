"""Negative controls for the verify suite's reduction over cases: a NaN case
must fail its row, whichever case it is and whichever group it is in.

Each group runs with one library function replaced by a stub that returns
constants, so the group stays fast; in one run a case that is not the first
returns NaN, in the control run none does.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from diracvortex import clifford, laguerre, observables as obs, polyspinor as ps, verify


def _gordon(v, qn, bp, grid):
    # coarse 4, fine 1: the control reads convergence order 2
    return (4.0 if len(grid) == 200 else 1.0) + v


#: (group, target row, owner, function, stub of (v, *args), call that gets v = NaN);
#: every stub returns a constant when v = 0.0
CASES = [
    ("clifford_checks", "sigma_commutator_identity", clifford, "check_sigma_commutator",
     lambda v, *a: v, 1),
    ("laguerre_checks", "laguerre_orthogonality", laguerre, "weighted_inner_product",
     lambda v, *a: 1.0 + v, 1),
    ("dirac_sweep_check", "dirac_equation_sweep", ps, "dirac_residual",
     lambda v, *a, **kw: v, 1),
    ("eigenvalue_checks", "transverse_squared_eigenvalues", ps, "landau_eigen_residual",
     lambda v, *a: v, 1),
    ("quadrature_checks", "quadrature_vs_closed_forms", obs, "closed_and_quadrature",
     lambda v, *a: [("density", 1.0, 1.0), ("jz", 2.0, 2.0 + v)], 1),
    ("commutator_checks", "dirac_generator_commutators", ps, "commutator_dirac_j_residuals",
     lambda v, *a: [0.0, v, 0.0], 1),
    ("current_structure_checks", "closed_vs_pointwise_currents", obs, "current_profile",
     lambda v, qn, bp, r: np.full((4, len(r)), v), 1),
    ("ring_checks", "ring_radii_are_factor_roots", obs, "sign_change_radii",
     lambda v, qn: np.array([0.5 + v, 1.0]), 1),
    ("ground_protection_checks", "ground_exact_observables", obs, "magnetic_moment",
     lambda v, *a: v, 1),
    ("half_integer_checks", "half_integer_dropped_jz", obs, "gauge_covariant_jz",
     lambda v, *a, **kw: 0.5 + v, 1),
    ("gordon_checks", "gordon_convergence_order", obs, "gordon_residual", _gordon, 2),
    ("spectrum_checks", "spectrum_partner_degeneracy", verify, "energy",
     lambda v, *a: SimpleNamespace(interaction_sq=1.0 + v), 2),
]


@pytest.mark.parametrize("group, target, owner, name, stub, nan_call", CASES,
                         ids=[case[0] for case in CASES])
def test_a_nan_case_fails_its_row(group, target, owner, name, stub, nan_call, monkeypatch):
    def run(nan_at):
        calls = itertools.count()

        def stubbed(*args, **kwargs):
            return stub(math.nan if next(calls) == nan_at else 0.0, *args, **kwargs)

        monkeypatch.setattr(owner, name, stubbed)
        rows = {c.name: c for c in getattr(verify, group)()}
        assert next(calls) > nan_at  # the NaN call was made
        return rows

    control, rows = run(-1), run(nan_call)
    assert math.isfinite(control[target].residual)
    assert math.isnan(rows[target].residual) and not rows[target].passed
    assert rows[target].as_dict()["residual"] is None
    assert {k: c for k, c in rows.items() if k != target} \
        == {k: c for k, c in control.items() if k != target}


def test_worst_of_no_case_is_zero():
    assert verify._worst([]) == 0.0


@pytest.mark.parametrize("position", [0, 1, 3])
def test_worst_keeps_a_nan_in_any_position(position):
    cases = [1e-16, np.float64(2e-16), 0.0, 4e-16]
    cases[position] = math.nan
    assert math.isnan(verify._worst(cases))
    assert math.isnan(verify._worst(iter(cases)))


def test_worst_is_the_largest_case():
    assert verify._worst([1e-16, np.float64(5e-16), 0, 3e-16]) == 5e-16
    assert verify._worst(np.array([1e-16, 5e-16])) == 5e-16


def test_clifford_residual_keeps_a_nan_pair(monkeypatch):
    lower = clifford.gamma_lower
    monkeypatch.setattr(clifford, "gamma_lower",
                        lambda mu: np.full((4, 4), math.nan) if mu == 3 else lower(mu))
    assert math.isnan(clifford.clifford_residual())


def test_recurrence_check_keeps_a_nan_second_identity(monkeypatch):
    monkeypatch.setattr(laguerre, "eval_derivative", lambda p, l, x: math.nan)
    assert math.isnan(laguerre.check_recurrences(3, 2, 1.5))
