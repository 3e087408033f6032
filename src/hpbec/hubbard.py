"""Finite Hubbard clusters, their effective (phonon-shifted) Hamiltonians,
and Gibbs expectations including the density-phase insertion.

The effective Hamiltonian subtracts the phonon-mediated density-density
attraction built from the m = -1/2 coupling overlap matrix:
H_eff = H_e - alpha^2 * sum_{x,y} G_xy n_x n_y.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fermions
from .couplings import cross_overlap
from .errors import ContractViolation
from .linalg import gibbs_expectation, require_hermitian


@dataclass(frozen=True)
class HubbardSystem:
    sector: fermions.FermionSector
    hopping: np.ndarray = field(repr=False)
    repulsion: float
    coupling: float  # alpha
    inverse_temperature: float

    def __post_init__(self):
        T = np.asarray(self.hopping, dtype=complex)
        n = self.sector.num_sites
        if T.shape != (n, n):
            raise ContractViolation(f"hopping matrix shape {T.shape}, expected ({n}, {n})")
        require_hermitian(T)
        if self.repulsion <= 0:
            raise ValueError("repulsion U must be positive")
        if self.inverse_temperature <= 0:
            raise ValueError("inverse temperature must be positive")
        object.__setattr__(self, "hopping", T)


def build_hubbard_system(num_sites, num_electrons, hopping, repulsion, coupling=0.0, beta=1.0):
    sector = fermions.build_fermion_sector(num_sites, num_electrons)
    return HubbardSystem(sector, np.asarray(hopping), float(repulsion), float(coupling), float(beta))


def site_number_operators(sector):
    """List of n_x = n_{x,+} + n_{x,-} (diagonal matrices)."""
    return [fermions.number_operator(sector, x) for x in range(sector.num_sites)]


def site_occupations(sector):
    """(dim, num_sites) array of n_x on each basis state: the diagonals of n_x as vectors.

    n_x(s) is the sum of bits 2x (spin +) and 2x + 1 (spin -) of the state integer s.
    """
    basis = np.asarray(sector.basis)[:, None]
    modes = 2 * np.arange(sector.num_sites)
    return (((basis >> modes) & 1) + ((basis >> (modes + 1)) & 1)).astype(float)


def build_hubbard_hamiltonian(sys):
    """H_e = sum_{x,y,sigma} T_xy c+_{x,sigma} c_{y,sigma} + U sum_x n_{x,+} n_{x,-}."""
    sector = sys.sector
    H = np.zeros((sector.dim, sector.dim), dtype=complex)
    for x in range(sector.num_sites):
        for y in range(sector.num_sites):
            t = sys.hopping[x, y]
            if t == 0:
                continue
            for spin in fermions.SPINS:
                H += t * fermions.hopping_operator(sector, x, y, spin)
    # n_{x,+} n_{x,-} = n_x (n_x - 1) / 2, since each spin occupation is 0 or 1
    occ = site_occupations(sector)
    H += np.diag(sys.repulsion * 0.5 * (occ * (occ - 1.0)).sum(axis=1))
    return require_hermitian(H, tol=1e-10)


def density_density_operator(sector, gram):
    """sum_{x,y} G_xy n_x n_y for a Hermitian site matrix G (diagonal output)."""
    ns = site_number_operators(sector)
    diag = np.zeros(sector.dim, dtype=complex)
    for x in range(sector.num_sites):
        for y in range(sector.num_sites):
            diag += gram[x, y] * np.diag(ns[x]) * np.diag(ns[y])
    if np.abs(diag.imag).max() > 1e-10 * max(np.abs(diag).max(), 1e-300):
        raise ContractViolation("density-density form came out non-real")
    return np.diag(diag.real)


def build_effective_hamiltonian(sys, overlaps):
    """H_eff = H_e - alpha^2 * sum G_xy n_x n_y, with G the m = -1/2 Gram matrix."""
    G = np.asarray(overlaps.entries)
    scale = max(np.abs(G).max(), 1e-300)
    if np.linalg.eigvalsh(G).min() < -1e-10 * scale:
        raise ContractViolation("overlap matrix is not positive semidefinite")
    return build_hubbard_hamiltonian(sys) - sys.coupling**2 * density_density_operator(sys.sector, G)


def electron_expectation(sys, A, overlaps=None):
    """Gibbs expectation Tr[A e^{-beta H}]/Z in the effective (or bare) cluster."""
    H = build_hubbard_hamiltonian(sys) if overlaps is None else build_effective_hamiltonian(sys, overlaps)
    A = np.asarray(A)
    if A.shape != H.shape:
        raise ContractViolation(f"operator shape {A.shape} does not match sector dim {H.shape[0]}")
    return gibbs_expectation(H, A, sys.inverse_temperature)


def density_phase_weights(sys, f, family, disp, kappa=None):
    """Per-site weights w_x = Re<omega^{-1/2} f, omega^{-1/2} lambda_x>."""
    return np.array(
        [
            np.real(cross_overlap(family, disp, -0.5, f, x, kappa))
            for x in range(sys.sector.num_sites)
        ]
    )


def density_phase_operator(sys, f, family, disp, kappa=None):
    """n_tilde(f) = sum_x w_x n_x (diagonal Hermitian)."""
    ns = site_number_operators(sys.sector)
    w = density_phase_weights(sys, f, family, disp, kappa)
    return sum(wx * nx for wx, nx in zip(w, ns))


def dressed_phase_expectation(sys, A, f, family, disp, overlaps=None, kappa=None):
    """Expectation of e^{i alpha n_tilde(f)} A in the effective Gibbs state."""
    n_tilde = density_phase_operator(sys, f, family, disp, kappa)
    phase = np.diag(np.exp(1j * sys.coupling * np.diag(n_tilde)))
    return electron_expectation(sys, phase @ np.asarray(A, dtype=complex), overlaps)
