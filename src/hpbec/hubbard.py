"""Finite Hubbard clusters: the electron Hamiltonian on a fixed-number sector.

H_e = sum_{x,y,sigma} T_xy c+_{x,sigma} c_{y,sigma} + U sum_x n_{x,+} n_{x,-},
with n_x = n_{x,+} + n_{x,-} kept as the vectors of `site_occupations`.  The
phonon dressing of H_e and the density phase live in `decoupling`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fermions
from .errors import ContractViolation
from .linalg import require_hermitian


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
                # each column holds at most one entry, so the scattered add sees no repeats
                rows, cols, signs = fermions.hopping_entries(sector, x, y, spin)
                H[rows, cols] += t * signs
    # n_{x,+} n_{x,-} = n_x (n_x - 1) / 2, since each spin occupation is 0 or 1
    occ = site_occupations(sector)
    H[np.diag_indices_from(H)] += sys.repulsion * 0.5 * (occ * (occ - 1.0)).sum(axis=1)
    return H
