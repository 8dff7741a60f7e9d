"""Exact relativistic Landau states of electron vortex beams.

Closed-form four-spinor eigenstates in a homogeneous magnetic field,
their currents, spin textures, angular momenta and magnetic moments,
plus an exact polynomial operator algebra that certifies every formula
at machine precision.
"""

__version__ = "0.1.0"
