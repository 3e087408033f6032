"""Dense fermion references: hopping matrices and full Fock-space creation operators.

`hopping_operator` fills the dense sector matrix from `fermions.hopping_entries`;
`full_space_creation_operators` builds the Jordan-Wigner creation matrices on
the whole 4^num_sites Fock space, against which the sector entries and the
canonical anticommutation relations are checked.
"""

import numpy as np

from hpbec.fermions import hopping_entries


def hopping_operator(sector, x, y, spin):
    """Matrix of c^dagger_{x,spin} c_{y,spin} on the sector, with JW signs."""
    rows, cols, signs = hopping_entries(sector, x, y, spin)
    A = np.zeros((sector.dim, sector.dim))
    A[rows, cols] = signs
    return A


def full_space_creation_operators(num_sites):
    """Dense creation matrices on the full 4^num_sites Fock space (JW form)."""
    nm = 2 * num_sites
    I2 = np.eye(2)
    Z = np.diag([1.0, -1.0])
    up = np.array([[0.0, 0.0], [1.0, 0.0]])
    ops = []
    for m in range(nm):
        # bit m of the state integer is factor m counted from the right
        factors = [I2] * (nm - m - 1) + [up] + [Z] * m
        M = np.eye(1)
        for f in factors:
            M = np.kron(M, f)
        ops.append(M)
    return ops
