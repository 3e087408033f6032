"""Dense Hermitian matrix calculus: hermiticity checks, exponentials, Gibbs states.

All exponentials go through the Hermitian eigendecomposition; spectra are
needed for Gibbs weights anyway and the resulting unitaries are exactly
unitary up to roundoff.
"""

import numpy as np

from .errors import ContractViolation

HERMITICITY_TOL = 1e-12


def as_matrix(A):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {A.shape}")
    return A


def hermiticity_defect(A):
    """Max-norm of A - A^dagger relative to the max-norm of A, per matrix of a
    stack A[..., :, :]."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ContractViolation(f"expected a square matrix or a stack of them, got shape {A.shape}")
    scale = np.abs(A).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(A - np.swapaxes(A, -2, -1).conj()).max(axis=(-2, -1), initial=0.0)
    return defect / np.where(scale > 0, scale, np.inf)  # 0 for a zero matrix


def require_hermitian(A):
    """A, if each of its matrices (A itself, or each A[i, ..., :, :] of a stack) has a
    hermiticity_defect of at most HERMITICITY_TOL; ContractViolation naming the first that does not."""
    defect = hermiticity_defect(A)
    if np.any(defect > HERMITICITY_TOL):
        i = tuple(np.argwhere(defect > HERMITICITY_TOL)[0].tolist())
        which = f"matrix {i} of a stack" if i else "matrix"
        raise ContractViolation(f"{which} is not Hermitian: relative defect {defect[i]:.3e} > {HERMITICITY_TOL:.1e}")
    return np.asarray(A)


def expm_hermitian(A, prefactor=1.0):
    """exp(prefactor * A) for Hermitian A via eigendecomposition.

    `prefactor` may be complex (e.g. 1j*t for a unitary propagator).
    """
    A = require_hermitian(as_matrix(A))
    w, V = np.linalg.eigh(A)
    return (V * np.exp(prefactor * w)) @ V.conj().T


def boltzmann_weights(energies, beta):
    """Normalized weights e^{-beta E}/Z of a spectrum E, and Z = sum e^{-beta E}.

    The weights are computed with the spectrum shifted by its minimum, so they
    are overflow-safe; Z is reported unshifted.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    energies = np.asarray(energies, dtype=float)
    shifted = np.exp(-beta * (energies - energies.min()))
    with np.errstate(over="ignore"):
        # Z itself may overflow to inf for deeply negative spectra; the weights stay finite
        Z = shifted.sum() * np.exp(-beta * energies.min())
    return shifted / shifted.sum(), Z


def gibbs(H, beta):
    """Gibbs density matrix and partition function for Hermitian H.

    Returns (rho, Z) with rho = exp(-beta H)/Z and Z = Tr exp(-beta H).
    """
    H = require_hermitian(as_matrix(H))
    w, V = np.linalg.eigh(H)
    p, Z = boltzmann_weights(w, beta)
    rho = (V * p) @ V.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho, Z

