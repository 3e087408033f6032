"""Desk-scale laboratory for Hubbard-phonon decoupling and phonon BEC.

Modules: fermion/boson linear algebra (fermions, bosons, linalg), coupling
functions and momentum quadrature (couplings), dispersions and lattice modes
(dispersion, lattice), Bose gas densities and fugacity solving (phonon_gas,
condensation), Hubbard clusters (hubbard), dressing-transform verification
(decoupling), infinite-volume BEC characteristic functionals (bec_states),
and a CLI driver (cli).  The package re-exports nothing: import from the
modules.
"""

__version__ = "0.1.0"
