"""Electron-phonon dressing transform on truncated tensor-product spaces.

The generator S = sum_x n_x (x) phi(i lambda_x / w), with w = omega - mu_b
the energy H_b counts per boson, has diagonal n_x, so the unitary
V = e^{i alpha S} is block diagonal over fermion basis states, and each block
is a Kronecker product of single-mode exponentials; V is kept as those
factors.  The module certifies numerically that conjugating the free
boson part by V reproduces the interaction plus the density-density shift, that
the spectrum of the coupled Hamiltonian H = H_e (x) 1 + 1 (x) H_b + alpha H_I
matches the decoupled one, and that Gibbs expectations of A (x) W(f) factorize.
H itself is never formed: n_x is diagonal, so two fermion basis states are
coupled only through an off-diagonal entry of H_e, and H is block diagonal over
the connected components of that entry pattern, each block being (component)
(x) (whole boson space).  On fermion basis state s the boson side of H is the
van Hove Hamiltonian sum_j (w_j N_j + alpha phi_j(l_sj)), a Kronecker sum of
(cap+1) x (cap+1) single-mode Hamiltonians.  A mode j with the same l_sj on
every state of a component has one Hamiltonian there, so the component's block
is (a dense part over the other modes) (x) 1 + 1 (x) (mode j's Hamiltonian),
exactly at every cap; a state coupled to no other has no mode in its dense
part.  H_b is diagonal and is kept as a vector.

Every inner product in this module is the discrete sum over the sampled mode
set; mixing in continuum quadrature would inject spurious residuals into
identities that hold exactly per mode.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .bosons import TruncatedBosonSpace, mode_fields, mode_weyl
from .errors import ContractViolation
from .hubbard import build_hubbard_hamiltonian, site_occupations
from .ladders import is_nonincreasing
from .linalg import boltzmann_weights, gibbs, require_hermitian

# Largest total fermion x boson dimension that build_coupled_operators accepts.
# Only the dense parts of the components of h_full, over their states and the
# modes not uniform on them, are diagonalised as matrices larger than one mode;
# H_b (a vector) and the dressing identity never leave single-mode factors.  The
# cap bounds the total dimension, not the largest dense part: one component of a
# hopping cluster can hold most of the sector and couple every mode, and a
# complex matrix near the cap takes gigabytes, several times that to diagonalise.
DIMENSION_CAP = 20000


@dataclass(frozen=True)
class CoupledSystem:
    """Hubbard cluster coupled to a finite set of sampled phonon modes."""

    hubbard: object  # HubbardSystem
    frequencies: np.ndarray = field(repr=False)  # (M,) omega(k_j) > 0
    site_mode_couplings: np.ndarray = field(repr=False)  # (|sites|, M), weights included
    mu_b: float = 0.0

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        lam = np.asarray(self.site_mode_couplings, dtype=complex)
        if np.any(freqs <= 0):
            raise ValueError("sampled mode frequencies must be positive")
        if np.any(freqs - self.mu_b <= 0):
            raise ValueError(f"every omega_j - mu_b must be positive (mu_b = {self.mu_b:g})")
        if lam.shape != (self.hubbard.sector.num_sites, len(freqs)):
            raise ContractViolation(
                f"coupling array shape {lam.shape} does not match "
                f"({self.hubbard.sector.num_sites}, {len(freqs)})"
            )
        if not np.all(np.isfinite(lam)):
            raise ContractViolation("non-finite mode coupling")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "site_mode_couplings", lam)

    @property
    def num_modes(self):
        return len(self.frequencies)

    @property
    def energies(self):  # w_j = omega_j - mu_b, the energy H_b gives one boson in mode j
        return self.frequencies - self.mu_b



def sample_modes(family, disp, box_size, coords):
    """Mode data (frequencies, weighted couplings) at lattice points (2pi/L)*coords.

    The weight is the square root of the cell volume, so discrete overlap sums
    are Riemann sums of the continuum inner products.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    spacing = 2.0 * np.pi / box_size
    momenta = coords * spacing
    norms = np.linalg.norm(momenta, axis=1)
    freqs = np.asarray(disp.omega(norms), dtype=float)
    weight = spacing ** (family.dimension / 2.0)
    lam = np.stack(
        [family.values(x, momenta) * weight for x in range(family.num_sites)], axis=0
    )
    return freqs, lam


def build_coupled_system(hubbard_sys, family, disp, box_size, coords):
    """The cluster coupled to the modes at (2pi/L)*coords, with the dispersion's mu_b."""
    freqs, lam = sample_modes(family, disp, box_size, coords)
    return CoupledSystem(hubbard_sys, freqs, lam, float(disp.mu_b))


def fermion_blocks(h_e):
    """Index arrays of the connected components of the graph of h_e's off-diagonal entries.

    Every state takes the smallest label among its neighbours until no label
    changes, so each component ends up labelled by its smallest index.
    """
    linked = (np.asarray(h_e) != 0) | np.eye(len(h_e), dtype=bool)
    labels = np.arange(len(h_e))
    while True:
        spread = np.where(linked, labels, len(h_e)).min(axis=1)
        if np.array_equal(spread, labels):
            roots = np.flatnonzero(labels == np.arange(len(h_e)))  # each labelled by itself
            return tuple(np.flatnonzero(labels == root) for root in roots)
        labels = spread


def kronecker_sum(levels):
    """Levels of sum_j 1 (x) .. h_j .. (x) 1 from per-mode levels[..., j, :], mode 0 slowest; [0] for none."""
    out = np.zeros(levels.shape[:-2] + (1,))
    for j in range(levels.shape[-2]):
        out = out[..., :, None] + levels[..., j, None, :]
        out = out.reshape(*out.shape[:-2], out.shape[-2] * out.shape[-1])
    return out


def kronecker_sum_matrix(factors):
    """Dense sum_j 1 (x) .. factors[..., j, :, :] .. (x) 1, batched, mode 0 slowest; [[0]] for none."""
    out = np.zeros(factors.shape[:-3] + (1, 1))
    for j in range(factors.shape[-3]):
        f = factors[..., j, :, :]
        out = np.kron(out, np.eye(f.shape[-1])) + np.kron(np.eye(out.shape[-1]), f)
    return out


@dataclass(frozen=True)
class ComponentGroup:
    """The components of h_full with one state count and one set of uniform modes, stacked.

    On component states[k], h_full is dense[k] (x) 1 + 1 (x) (Kronecker sum of
    modes[k]), with dense[k] over the states (slowest) and the coupled modes.
    """

    states: np.ndarray  # (g, n) fermion indices of each component
    coupled: np.ndarray  # mode indices of the dense part, ascending
    uniform: np.ndarray  # the other mode indices, ascending
    dense: np.ndarray = field(repr=False)  # (g, D, D), D = n (cap + 1)^len(coupled)
    modes: np.ndarray = field(repr=False)  # (g, len(uniform), cap + 1, cap + 1)


@dataclass(frozen=True)
class CoupledOperators:
    """Operators of one build at one level cap; h_full is kept as its components, in `groups`.

    h_full itself is never formed, and h_boson is the diagonal of H_b as a vector.
    """

    system: CoupledSystem = field(repr=False)
    boson_space: TruncatedBosonSpace
    groups: tuple = field(repr=False)
    h_electron: np.ndarray = field(repr=False)
    h_electron_dressed: np.ndarray = field(repr=False)
    h_boson: np.ndarray = field(repr=False)  # (boson dim,) diagonal of H_b

    @cached_property
    def eigh(self):
        """Per group, (levels, vectors) of the dense parts and of the uniform modes, one stacked eigh each."""
        for g in self.groups:
            require_hermitian(g.dense)
            require_hermitian(g.modes)
        return [(np.linalg.eigh(g.dense), np.linalg.eigh(g.modes)) for g in self.groups]

    def levels(self):
        """Ascending spectrum of h_full: each dense level plus each Kronecker sum of uniform-mode levels."""
        parts = [(w[..., :, None] + kronecker_sum(m)[..., None, :]).ravel() for (w, _), (m, _) in self.eigh]
        return np.sort(np.concatenate(parts))


def free_mode_hamiltonians(sys, level_cap):
    """w_j N with w_j = omega_j - mu_b: the single-mode terms of H_b, shape (M, cap + 1, cap + 1)."""
    return sys.energies[:, None, None] * np.diag(np.arange(level_cap + 1.0))


def mode_hamiltonians(sys, amplitudes, level_cap):
    """w_j N + alpha phi(amplitudes[..., j]), one per mode.

    With amplitudes l_s = mode_amplitudes(sys)[s] these are the single-mode terms
    of 1 (x) H_b + alpha H_I on fermion basis state s.
    """
    return free_mode_hamiltonians(sys, level_cap) + sys.hubbard.coupling * mode_fields(amplitudes, level_cap)


def build_coupled_operators(sys, level_cap):
    """h_full = H_e (x) 1 + 1 (x) H_b + alpha H_I at the given cap, as its components, with its parts.

    A mode is uniform on a component when its amplitudes there are exactly equal:
    a tolerance would need a bound on the coupling it drops.
    """
    sector = sys.hubbard.sector
    space = TruncatedBosonSpace(sys.frequencies, int(level_cap))
    if sector.dim * space.dim > DIMENSION_CAP:
        raise ContractViolation(
            f"tensor dimension {sector.dim * space.dim} exceeds cap {DIMENSION_CAP}"
        )
    h_e = build_hubbard_hamiltonian(sys.hubbard)
    amplitudes = mode_amplitudes(sys)
    modes = mode_hamiltonians(sys, amplitudes, space.level_cap)
    rows, grouped = amplitudes.tolist(), {}
    for i in fermion_blocks(h_e):
        mask = tuple(len(set(column)) == 1 for column in zip(*[rows[s] for s in i]))
        grouped.setdefault((len(i), mask), []).append(i)
    groups = []
    for (n, mask), members in grouped.items():
        states = np.array(members)
        coupled, uniform = np.flatnonzero(np.logical_not(mask)), np.flatnonzero(mask)
        cdim = (space.level_cap + 1) ** len(coupled)
        # h_e on each component (x) 1 plus each state's coupled modes, as
        # (component, state, coupled bosons, state, coupled bosons)
        dense = np.einsum("kst,ab->ksatb", h_e[states[:, :, None], states[:, None, :]], np.eye(cdim))
        dense += np.einsum("st,ksab->ksatb", np.eye(n), kronecker_sum_matrix(modes[states[:, :, None], coupled]))
        dense = dense.reshape(len(states), n * cdim, n * cdim)
        groups.append(ComponentGroup(states, coupled, uniform, dense, modes[states[:, :1], uniform]))
    h_b = kronecker_sum(np.diagonal(free_mode_hamiltonians(sys, space.level_cap), axis1=-2, axis2=-1))
    h_e_dressed = h_e - np.diag(dressing_shifts(sys).sum(axis=1))
    return CoupledOperators(sys, space, tuple(groups), h_e, h_e_dressed, h_b)


def mode_amplitudes(sys):
    """l[s, j] = sum_x n_x(s) lambda_xj: the coupling of fermion basis state s to mode j."""
    return site_occupations(sys.hubbard.sector) @ sys.site_mode_couplings


def mode_density_shifts(sys):
    """|l[s, j]|^2 / w_j, w_j = omega_j - mu_b: each mode's share of the density-density shift.

    Summed over j it is sum_{x,y} R_xy n_x(s) n_y(s), with R the m = -1/2
    discrete overlap in w (the one in omega at mu_b = 0).
    """
    return np.abs(mode_amplitudes(sys)) ** 2 / sys.energies


def dressing_shifts(sys):
    """(alpha^2/2) |l_sj|^2 / w_j: each mode's share of the shift V takes off H_e.

    The conjugation identity closes with alpha^2/2 times the m = -1/2 overlap
    form under this field convention; this is the one place that factor lives.
    OverflowError, naming alpha, if alpha^2 overflows.
    """
    alpha = sys.hubbard.coupling
    try:
        alpha_sq = alpha**2
    except OverflowError:
        raise OverflowError(f"hubbard.alpha = {alpha:g} is too large: alpha^2 overflows") from None
    return 0.5 * alpha_sq * mode_density_shifts(sys)


def dressing_factors(sys, level_cap):
    """V = e^{i alpha S} as its factors U[s, j] = exp(i alpha phi(g_sj)), g_s = i l_s / w.

    S = sum_x n_x (x) phi(i lambda_x / w), w = omega - mu_b, has diagonal n_x,
    so V is block diagonal over the fermion basis states s, and S restricted
    to block s is phi(g_s).  The truncated single-mode fields of phi(g_s) act
    on different tensor factors and commute, so block s is exactly the
    Kronecker product over modes j of the (cap+1) x (cap+1) matrices U[s, j].
    The result has shape (sector dim, num_modes, cap + 1, cap + 1).
    """
    g = 1j * mode_amplitudes(sys) / sys.energies
    return mode_weyl(sys.hubbard.coupling * g, level_cap)


def _interior_norm(blocks, bound):
    """Frobenius norm of the operator whose block s is sum_j blocks[s, j] (x) 1,
    restricted to boson occupations at most `bound`.

    The interior projector is a product over modes, so block s restricts to
    sum_j A_j (x) 1 with A_j the top-left k x k corner of blocks[s, j],
    k = bound + 1.  Splitting A_j = A0_j + c_j 1 into a traceless part and a
    multiple of the identity makes all terms mutually orthogonal:
    ||.||^2 = k^(M-1) sum_j ||A0_j||^2 + k^M |sum_j c_j|^2, with no terms to cancel.
    """
    k = bound + 1
    num_modes = blocks.shape[1]
    corner = blocks[..., :k, :k]
    c = np.trace(corner, axis1=-2, axis2=-1) / k
    traceless = corner - c[..., None, None] * np.eye(k)
    sq = k ** (num_modes - 1) * np.sum(np.abs(traceless) ** 2)
    sq += k**num_modes * np.sum(np.abs(c.sum(axis=1)) ** 2)
    return float(np.sqrt(sq))


@dataclass(frozen=True)
class DressingReport:
    level_caps: tuple
    residuals: tuple
    monotone: bool


def verify_dressing_identity(sys, level_caps):
    """Residual of V (1 (x) H_b) V^{-1} = 1 (x) H_b + alpha H_I + (alpha^2/2) R (x) 1.

    The residual is the relative Frobenius norm restricted to boson occupations
    at most min(caps)/2 (the truncation edge of a displaced ladder is always
    wrong).  Every cap is measured on that one interior, so the ladder tracks
    the truncation alone and must be monotone nonincreasing.  It is computed
    block by block and mode by mode: on fermion basis state s both sides are
    sums over modes j of single-mode operators, U[s, j] (w_j N) U[s, j]^dagger
    on the left and w_j N + alpha phi(l_sj) + (alpha^2/2) |l_sj|^2 / w_j on
    the right (`mode_hamiltonians` plus the shift), with w_j = omega_j - mu_b,
    so no tensor-product matrix is formed.
    """
    amplitudes = mode_amplitudes(sys)
    shifts = dressing_shifts(sys)[..., None, None]
    bound = min(level_caps) // 2
    residuals = []
    for cap in level_caps:
        u = dressing_factors(sys, cap)
        h_b = free_mode_hamiltonians(sys, cap)
        lhs = u @ h_b @ np.conj(np.swapaxes(u, -1, -2))
        rhs = mode_hamiltonians(sys, amplitudes, cap) + shifts * np.eye(cap + 1)
        residuals.append(_interior_norm(lhs - rhs, bound) / max(_interior_norm(rhs, bound), 1e-300))
    return DressingReport(tuple(level_caps), tuple(residuals), is_nonincreasing(residuals))


@dataclass(frozen=True)
class SpectralReport:
    coupled: np.ndarray = field(repr=False)
    decoupled: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)

    @property
    def max_gap(self):
        return float(np.abs(self.gaps).max())


def spectral_comparison(ops, num_levels=5):
    """Low-lying levels of h_full against those of H_e_dressed (x) 1 + 1 (x) H_b.

    The decoupled spectrum is the Kronecker sum of the dressed electron levels
    and the vector h_boson, so only the factors of h_full are diagonalised.
    """
    electron = np.linalg.eigvalsh(ops.h_electron_dressed)
    decoupled = np.sort(np.add.outer(electron, ops.h_boson), axis=None)[:num_levels]
    coupled = ops.levels()[:num_levels]
    return SpectralReport(coupled, decoupled, coupled - decoupled)


def verify_spectral_equivalence(sys, level_cap, num_levels=5):
    """Compare low-lying spectra of H_full and H_e_dressed (x) 1 + 1 (x) H_b."""
    return spectral_comparison(build_coupled_operators(sys, level_cap), num_levels)


def discrete_phase_weights(sys, f_modes):
    """Re <w^{-1/2} f, w^{-1/2} lambda_x> over the sampled modes, w_j = omega_j - mu_b."""
    f_modes = np.asarray(f_modes, dtype=complex)
    if f_modes.shape != (sys.num_modes,):
        raise ContractViolation(
            f"test vector has shape {f_modes.shape}, expected ({sys.num_modes},)"
        )
    return np.real(sys.site_mode_couplings @ (np.conj(f_modes) / sys.energies))


def density_phase(sys, f_modes):
    """Diagonal of exp(-i alpha n_tilde(f)) on the sector, n_tilde(f) = sum_x w_x n_x.

    The minus sign is the one the dressing identity fixes for the Weyl factor.
    """
    n_tilde = site_occupations(sys.hubbard.sector) @ discrete_phase_weights(sys, f_modes)
    return np.exp(-1j * sys.hubbard.coupling * n_tilde)


@dataclass(frozen=True)
class FactorizationResult:
    lhs: complex
    rhs: complex

    @property
    def gap(self):
        return abs(self.lhs - self.rhs)


def factorization_check(ops, electron_op, f_modes):
    """Gibbs expectation of A (x) W(f) against its dressed product form, on one build.

    lhs = Tr[(A (x) W(f)) e^{-beta H}]/Z; the Gibbs state is block diagonal, so
    only the diagonal blocks A[i, i] contribute.  W is a product over modes and
    a component's block is dense (x) 1 + 1 (x) (uniform modes), so its trace is
    a product: the trace of A[i, i] (x) (the coupled modes' Weyl factors) over
    the dense part's eigenvectors, times per uniform mode j sum_k e^{-beta w_jk}
    <v_jk|W_j|v_jk>, with (w_jk, v_jk) the eigenpairs of mode j's Hamiltonian.
    rhs pairs the electron factor with the density phase and the free boson Weyl
    value, whose Gibbs state is the weight vector of the vector h_boson.
    """
    sys = ops.system
    beta = sys.hubbard.inverse_temperature
    A = np.asarray(electron_op, dtype=complex)
    f_modes = np.asarray(f_modes, dtype=complex)
    phase = density_phase(sys, f_modes)  # checks the shape of f_modes
    weyl = mode_weyl(f_modes, ops.boson_space.level_cap)

    factors, Z = _boltzmann_factors(ops, beta)
    lhs = 0j
    for group, ((_, vectors), (_, mode_vectors)), (dense, modes) in zip(ops.groups, ops.eigh, factors):
        g, n = group.states.shape
        W = reduce(np.kron, weyl[group.coupled], np.ones((1, 1)))
        a = A[group.states[:, :, None], group.states[:, None, :]]
        # (A[i, i] (x) W) applied to the eigenvectors one tensor factor at a time
        moved = W @ (a @ vectors.reshape(g, n, -1)).reshape(g, n, len(W), -1)
        traces = np.einsum("kim,kim,km->k", vectors.conj(), moved.reshape(vectors.shape), dense)
        expectations = np.sum(mode_vectors.conj() * (weyl[group.uniform] @ mode_vectors), axis=-2)
        lhs += traces @ np.prod(np.sum(modes * expectations, axis=-1), axis=-1)
    lhs = complex(lhs / Z)

    rho_e, _ = gibbs(ops.h_electron_dressed, beta)
    boson_weights, _ = boltzmann_weights(ops.h_boson, beta)
    weyl_diagonal = reduce(np.kron, np.diagonal(weyl, axis1=-2, axis2=-1))  # diag(W), mode by mode
    rhs = complex(np.trace(phase[:, None] * A @ rho_e)) * complex(weyl_diagonal @ boson_weights)
    return FactorizationResult(lhs, rhs)


def _boltzmann_factors(ops, beta):
    """Factors e^{-beta (E - E_min)} of the spectrum of h_full, per group, and their sum Z.

    E_min is the lowest level of the whole spectrum, so every factor is at most 1,
    as in `boltzmann_weights`.  With floor[k, j] the lowest level of uniform mode j
    on component k, a group gets (dense, modes): dense[k] for the dense levels plus
    sum_j floor[k, j], modes[k, j] for mode j's levels minus floor[k, j], and its
    level (m, n_1, .., n_U) has the factor dense[k, m] * prod_j modes[k, j, n_j].
    """
    # eigh returns ascending levels, so index 0 is each floor
    floored = [(w + m[..., 0].sum(axis=-1)[:, None], m) for (w, _), (m, _) in ops.eigh]
    lowest = min(w[:, 0].min() for w, _ in floored)
    factors = [(np.exp(-beta * (w - lowest)), np.exp(-beta * (m - m[..., :1]))) for w, m in floored]
    Z = sum(dense.sum(axis=-1) @ np.prod(modes.sum(axis=-1), axis=-1) for dense, modes in factors)
    return factors, Z


@dataclass(frozen=True)
class FactorizationLadder:
    level_caps: tuple
    gaps: tuple
    monotone: bool


def factorization_ladder(operators, electron_op, f_modes):
    """Factorization gaps along a sequence of builds at increasing level caps."""
    gaps = [factorization_check(ops, electron_op, f_modes).gap for ops in operators]
    caps = tuple(ops.boson_space.level_cap for ops in operators)
    return FactorizationLadder(caps, tuple(gaps), is_nonincreasing(gaps))

