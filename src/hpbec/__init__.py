"""Desk-scale laboratory for Hubbard-phonon decoupling and phonon BEC.

Modules: fermion/boson linear algebra (fermions, bosons, linalg), coupling
functions and momentum quadrature (couplings), dispersions and lattice modes
(dispersion, lattice), Bose gas densities and fugacity solving (phonon_gas,
condensation), Hubbard clusters (hubbard), dressing-transform verification
(decoupling), infinite-volume BEC characteristic functionals (bec_states),
and a CLI driver (cli).
"""

from .bec_states import (
    CondensatePhase,
    chi_average,
    decomposition_gap,
    e_fingerprint,
    fiber_density,
    fingerprint_recover,
    gauge_shift_check,
    psi_bec,
    psi_fiber,
    psi_normal,
    q_form,
    two_point,
)
from .bosons import TruncatedBosonSpace, build_truncated_boson_space
from .condensation import (
    FugacitySolution,
    PhaseReport,
    classify_phase,
    condensate_sequence,
    critical_temperature,
    solve_fugacity,
)
from .couplings import CouplingFamily, coupling_overlap, cross_overlap, overlap_matrix
from .decoupling import (
    CoupledSystem,
    build_coupled_operators,
    build_coupled_system,
    verify_dressing_identity,
    verify_spectral_equivalence,
)
from .dispersion import quadratic_dispersion, tabulated_dispersion, validate_dispersion
from .errors import (
    BracketError,
    ContractViolation,
    InfraredDivergence,
    UnsolvableDensity,
    VerificationFailure,
)
from .fermions import FermionSector, build_fermion_sector
from .hubbard import HubbardSystem, build_hubbard_hamiltonian, build_hubbard_system
from .lattice import LatticeModes, build_lattice_modes
from .linalg import expm_hermitian, gibbs
from .phonon_gas import (
    boson_number_finite,
    finite_volume_characteristic,
    rho_crit,
    rho_fr,
)
from .testfunctions import GaussianTestFunction, gaussian_test_function

__version__ = "0.1.0"
