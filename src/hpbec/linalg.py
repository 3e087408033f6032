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


def hermiticity_defect(A, entries=None):
    """Max-norm of A - A^dagger relative to the max-norm of A.

    `entries`, a pair (rows, cols) that holds every nonzero entry of A, gives
    the same number read on those entries and their transposes alone: each
    nonzero of A - A^dagger sits at one of them.
    """
    A = as_matrix(A)
    if entries is None:
        values, mirrored = A, A.T
    else:
        rows, cols = entries
        values, mirrored = A[rows, cols], A[cols, rows]
    scale = np.abs(values).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    return np.abs(values - mirrored.conj()).max() / scale


def require_hermitian(A, tol=HERMITICITY_TOL, entries=None):
    A = as_matrix(A)
    defect = hermiticity_defect(A, entries)
    if defect > tol:
        raise ContractViolation(f"matrix is not Hermitian: relative defect {defect:.3e} > {tol:.1e}")
    return A


def require_hermitian_stack(stack, tol=HERMITICITY_TOL):
    """require_hermitian on each matrix of stack[..., :, :] in one pass, each defect
    relative to its own matrix's max-norm."""
    scale = np.abs(stack).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(stack - np.swapaxes(stack, -2, -1).conj()).max(axis=(-2, -1), initial=0.0)
    bad = np.argwhere(defect > tol * scale)
    if bad.size:
        i = tuple(bad[0].tolist())
        relative = defect[i] / scale[i]
        raise ContractViolation(f"matrix {i} of a stack is not Hermitian: relative defect {relative:.3e} > {tol:.1e}")


def expm_hermitian(A, prefactor=1.0):
    """exp(prefactor * A) for Hermitian A via eigendecomposition.

    `prefactor` may be complex (e.g. 1j*t for a unitary propagator).
    """
    A = require_hermitian(A)
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
    H = require_hermitian(H)
    w, V = np.linalg.eigh(H)
    p, Z = boltzmann_weights(w, beta)
    rho = (V * p) @ V.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho, Z

