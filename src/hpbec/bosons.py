"""Truncated multimode bosonic Fock spaces with ladder, field and Weyl operators.

The truncation caps the occupation of each mode at `level_cap` (per-mode, not
total), so the space is a tensor product of (level_cap + 1)-dimensional
oscillators.  The annihilation functional is antilinear in its argument,
a(f) = sum_j conj(f_j) a_j, and the Segal field is
phi(f) = (a(f) + a^dagger(f)) / sqrt(2).

The program works from the single-mode factors `mode_fields` and `mode_weyl`.
The dense tensor-space methods of `TruncatedBosonSpace` (`lowering`,
`annihilator`, `segal_field`, `weyl`, `free_hamiltonian`, `occupations`) are
the independent reference the tests compare those factors against; the
benchmark traces `segal_field` and `weyl` by name.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


def _single_mode_lowering(level_cap):
    """Annihilation matrix of one oscillator truncated at `level_cap` quanta."""
    if level_cap < 1:
        raise ValueError("level_cap must be >= 1")
    return np.diag(np.sqrt(np.arange(1.0, level_cap + 1)), 1)


def mode_fields(f, level_cap):
    """Single-mode Segal fields (conj(f_k) a + f_k a^dagger) / sqrt(2), one per entry of `f`.

    `f` may have any shape; the result has shape f.shape + (level_cap + 1, level_cap + 1).
    """
    a = _single_mode_lowering(level_cap)
    f = np.asarray(f, dtype=complex)[..., None, None]
    return (np.conj(f) * a + f * a.T) / np.sqrt(2.0)


def mode_weyl(f, level_cap):
    """Single-mode Weyl operators exp(i phi(f_k)), one per entry of `f`, via a stacked eigh."""
    w, v = np.linalg.eigh(mode_fields(f, level_cap))
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


@dataclass(frozen=True)
class TruncatedBosonSpace:
    """Tensor product of `num_modes` oscillators truncated at `level_cap` quanta."""

    frequencies: np.ndarray = field(repr=False)
    level_cap: int

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        if np.any(freqs < 0):
            raise ValueError("mode frequencies must be nonnegative")
        if self.level_cap < 1:
            raise ValueError("level_cap must be >= 1")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def num_modes(self):
        return len(self.frequencies)

    @property
    def dim(self):
        return (self.level_cap + 1) ** self.num_modes

    def lowering(self, j):
        """Annihilation matrix a_j on the full truncated space."""
        a1 = _single_mode_lowering(self.level_cap)
        M = np.eye(1)
        for m in range(self.num_modes):
            M = np.kron(M, a1 if m == j else np.eye(self.level_cap + 1))
        return M

    def occupations(self):
        """(dim, num_modes) integer array of per-mode occupation numbers."""
        n1 = self.level_cap + 1
        idx = np.arange(self.dim)
        occ = np.empty((self.dim, self.num_modes), dtype=int)
        for m in range(self.num_modes - 1, -1, -1):
            occ[:, m] = idx % n1
            idx = idx // n1
        return occ

    def free_hamiltonian(self, chemical_potential=0.0):
        """dGamma(omega - mu) = sum_j (omega_j - mu) a_j^dagger a_j (diagonal)."""
        occ = self.occupations()
        return np.diag(occ @ (self.frequencies - chemical_potential))

    def annihilator(self, f):
        f = self._check_vector(f)
        return sum(np.conj(fj) * self.lowering(j) for j, fj in enumerate(f))

    def segal_field(self, f):
        """phi(f) = (a(f) + a^dagger(f)) / sqrt(2), Hermitian."""
        a = self.annihilator(f)
        return (a + a.conj().T) / np.sqrt(2.0)

    def weyl(self, f):
        """W(f) = exp(i phi(f)), the Kronecker product of the single-mode Weyl operators.

        Exact on the truncated space: the single-mode fields act on different
        tensor factors, so they commute and the exponential factorizes.
        """
        W = np.eye(1)
        for u in mode_weyl(self._check_vector(f), self.level_cap):
            W = np.kron(W, u)
        return W

    def _check_vector(self, f):
        f = np.atleast_1d(np.asarray(f, dtype=complex))
        if f.shape != (self.num_modes,):
            raise ContractViolation(
                f"mode vector has shape {f.shape}, expected ({self.num_modes},)"
            )
        return f
