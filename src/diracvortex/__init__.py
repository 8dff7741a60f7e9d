"""Exact relativistic Landau states of electron vortex beams.

Closed-form four-spinor eigenstates in a homogeneous magnetic field,
their currents, spin textures, angular momenta and magnetic moments,
plus an exact polynomial operator algebra that certifies every formula
at machine precision.
"""

__version__ = "0.1.0"

from .states import (BeamParameters, EnergyDecomposition, QuantumNumbers, energy,
                     evaluate_spinor, integrated_density, normalization_constant,
                     scalar_mode, spectrum_table)
from .observables import (CurrentSample, RadialProfile, ReducedSpinState,
                          SpinTextureSample, counterflow_rings, current_density,
                          current_profile, gauge_covariant_jz, gordon_residual,
                          integrated_jz, magnetic_moment, radial_profile,
                          reduced_spin_state, sign_change_radii, spin_texture)
from .polyspinor import (FieldConfig, PolyGaussSpinor, apply_canonical_jz,
                         apply_dirac, apply_gauge_covariant_j, apply_gauge_momentum,
                         commutator_dirac_j_residual, commutator_jj_residual,
                         dirac_residual, state_to_polyspinor)

__all__ = [
    "BeamParameters", "CurrentSample", "EnergyDecomposition", "FieldConfig",
    "PolyGaussSpinor", "QuantumNumbers", "RadialProfile", "ReducedSpinState",
    "SpinTextureSample", "apply_canonical_jz", "apply_dirac",
    "apply_gauge_covariant_j", "apply_gauge_momentum",
    "commutator_dirac_j_residual", "commutator_jj_residual", "counterflow_rings",
    "current_density", "current_profile", "dirac_residual", "energy",
    "evaluate_spinor", "gauge_covariant_jz", "gordon_residual",
    "integrated_density", "integrated_jz", "magnetic_moment",
    "normalization_constant", "radial_profile", "reduced_spin_state",
    "scalar_mode", "sign_change_radii", "spectrum_table", "spin_texture",
]
