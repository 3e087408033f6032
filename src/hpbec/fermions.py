"""Fixed-particle-number fermion sectors on a finite lattice with spin 1/2.

Modes are ordered Jordan-Wigner style: sites ascending, spin ``+`` before
``-``, so mode(x, sigma) = 2x + (0 if sigma == "+" else 1).  A basis state
is an integer whose bit m is the occupation of mode m; the sector basis is
the ascending list of all integers with the required popcount.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

SPINS = ("+", "-")


def mode_index(site, spin):
    if spin not in SPINS:
        raise ValueError(f"spin must be one of {SPINS}, got {spin!r}")
    return 2 * site + SPINS.index(spin)


@dataclass(frozen=True)
class FermionSector:
    """Antisymmetric N-electron sector over `num_sites` sites x 2 spins."""

    num_sites: int
    num_electrons: int
    basis: tuple = field(repr=False)

    @property
    def num_modes(self):
        return 2 * self.num_sites

    @property
    def dim(self):
        return len(self.basis)


def build_fermion_sector(num_sites, num_electrons):
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    if not 0 <= num_electrons <= 2 * num_sites:
        raise ValueError(
            f"num_electrons must lie in [0, {2 * num_sites}], got {num_electrons}"
        )
    nm = 2 * num_sites
    basis = tuple(s for s in range(1 << nm) if bin(s).count("1") == num_electrons)
    sector = FermionSector(num_sites, num_electrons, basis)
    assert sector.dim == comb(nm, num_electrons)
    return sector


def _occupied_below(states, mode):
    """Number of occupied modes strictly below `mode` in each state integer."""
    return ((states[:, None] >> np.arange(mode)) & 1).sum(axis=1)


def number_operator(sector, site, spin=None):
    """Diagonal matrix of n_{x,sigma}, or n_x = n_{x,+} + n_{x,-} if spin is None."""
    if not 0 <= site < sector.num_sites:
        raise ValueError(f"site {site} outside lattice of {sector.num_sites} sites")
    modes = [mode_index(site, s) for s in (SPINS if spin is None else (spin,))]
    diag = np.array(
        [sum((s >> m) & 1 for m in modes) for s in sector.basis], dtype=float
    )
    return np.diag(diag)


def hopping_entries(sector, x, y, spin):
    """(rows, cols, signs): the nonzero entries of c^dagger_{x,spin} c_{y,spin} on the sector.

    Each column appears at most once, and each sign carries the Jordan-Wigner parity.
    """
    for site in (x, y):
        if not 0 <= site < sector.num_sites:
            raise ValueError(f"site {site} outside lattice of {sector.num_sites} sites")
    mx, my = mode_index(x, spin), mode_index(y, spin)
    basis = np.asarray(sector.basis)
    emptied = basis & ~(1 << my)
    # columns whose state has mode my occupied and, once it is emptied, mode mx free
    cols = np.flatnonzero((((basis >> my) & 1) == 1) & (((emptied >> mx) & 1) == 0))
    emptied = emptied[cols]
    # Jordan-Wigner sign: c_my passes the modes below my, then c+_mx those below mx
    flips = _occupied_below(basis[cols], my) + _occupied_below(emptied, mx)
    rows = np.searchsorted(basis, emptied | (1 << mx))
    return rows, cols, 1.0 - 2.0 * (flips % 2)
