import json
import re
import time
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbec import cli, decoupling
from hpbec.bosons import TruncatedBosonSpace
from hpbec.couplings import CouplingFamily, overlap_matrix
from hpbec.dispersion import quadratic_dispersion
from hpbec.errors import ContractViolation
from hpbec.hubbard import build_hubbard_hamiltonian, build_hubbard_system, site_occupations
from hpbec.linalg import expm_hermitian, gibbs
from hpbec.testfunctions import gaussian_test_function
from references import cross_overlap, unitary_defect

DISP = quadratic_dispersion()
HOP = np.array([[0.0, -1.0], [-1.0, 0.0]])
COORDS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
COORDS_3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
COORDS_4 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def make_system(alpha=0.2, beta=1.0, kappa=0.5, coords=COORDS, hopping=HOP, mu_b=0.0):
    cluster = build_hubbard_system(2, 2, hopping, 2.0, coupling=alpha, beta=beta)
    family = CouplingFamily(2, 3, 2.0, kappa)
    return decoupling.build_coupled_system(cluster, family, quadratic_dispersion(mu_b=mu_b), 10.0, coords)


# Dense references, built here from the tensor-product definitions so that the
# structured (per fermion state, per mode) path is checked against them.


def discrete_overlap(sys, m):
    """Site matrix R_xy = Re <omega^m lambda_x, omega^m lambda_y>, summed over the sampled modes."""
    lam = sys.site_mode_couplings
    return np.real(np.conj(lam) * sys.frequencies ** (2.0 * m) @ lam.T)


def dense_space(sys, cap):
    return TruncatedBosonSpace(sys.frequencies, cap)


def dense_field_sum(sys, space, mode_vectors):
    """sum_x n_x (x) phi(mode_vectors[x]) on the full tensor space."""
    occ = site_occupations(sys.hubbard.sector)
    return sum(
        np.kron(np.diag(occ[:, x]), space.segal_field(mode_vectors[x]))
        for x in range(sys.hubbard.sector.num_sites)
    )


def dense_h_full(sys, cap):
    """H_e (x) 1 + 1 (x) H_b + alpha sum_x n_x (x) phi(lambda_x) on the full tensor space."""
    space = dense_space(sys, cap)
    return (
        np.kron(build_hubbard_hamiltonian(sys.hubbard), np.eye(space.dim))
        + np.kron(np.eye(sys.hubbard.sector.dim), space.free_hamiltonian(sys.mu_b))
        + sys.hubbard.coupling * dense_field_sum(sys, space, sys.site_mode_couplings)
    )


def tensor_rows(fermion_indices, boson_dim):
    """Indices in the full tensor space of the states fermion_indices (x) boson space."""
    return (np.asarray(fermion_indices)[:, None] * boson_dim + np.arange(boson_dim)).ravel()


def factored_block(dense, modes):
    """dense (x) 1 + 1 (x) (Kronecker sum of modes): a component's block, uniform modes fastest."""
    uniform = decoupling.kronecker_sum_matrix(modes)
    return np.kron(dense, np.eye(len(uniform))) + np.kron(np.eye(len(dense)), uniform)


def all_blocks(ops):
    """(fermion indices, block of h_full) for every component, assembled here from
    its dense part and its uniform modes' factors and put in the boson space's
    mode order, mode 0 slowest."""
    cap = ops.boson_space.level_cap
    num_modes = ops.system.num_modes
    out = []
    for group in ops.groups:
        # the factored block's axis of each mode: coupled modes first, then uniform ones
        position = np.argsort(np.concatenate([group.coupled, group.uniform]))
        axes = [0, *(1 + position)]
        for i, dense, modes in zip(group.states, group.dense, group.modes):
            shape = (len(i),) + (cap + 1,) * num_modes
            block = factored_block(dense, modes).reshape(shape + shape)
            block = block.transpose(axes + [len(shape) + a for a in axes])
            out.append((i, block.reshape(np.prod(shape), -1)))
    return out


def assembled_h_full(ops):
    """The full tensor-space matrix whose diagonal blocks are those of ops, zero elsewhere."""
    boson_dim = ops.boson_space.dim
    dim = ops.system.hubbard.sector.dim * boson_dim
    h = np.zeros((dim, dim), dtype=complex)
    for i, block in all_blocks(ops):
        rows = tensor_rows(i, boson_dim)
        h[np.ix_(rows, rows)] = block
    return h


def dense_generator(sys, space):
    return dense_field_sum(sys, space, 1j * sys.site_mode_couplings / sys.frequencies)


def assembled_dressing(factors):
    """Block-diagonal V whose block s is the Kronecker product of factors[s, :]."""
    blocks = []
    for per_mode in factors:
        block = np.eye(1)
        for u in per_mode:
            block = np.kron(block, u)
        blocks.append(block)
    dim = sum(len(b) for b in blocks)
    V = np.zeros((dim, dim), dtype=complex)
    for s, block in enumerate(blocks):
        V[s * len(block) : (s + 1) * len(block), s * len(block) : (s + 1) * len(block)] = block
    return V


def dense_dressing_residual(sys, cap, bound):
    """Relative residual of the dressing identity from dense matrices, restricted
    to boson occupations at most `bound`."""
    space = dense_space(sys, cap)
    dim_e = sys.hubbard.sector.dim
    alpha = sys.hubbard.coupling
    v = expm_hermitian(dense_generator(sys, space), prefactor=1j * alpha)
    h_b = np.kron(np.eye(dim_e), space.free_hamiltonian(sys.mu_b))
    R = discrete_overlap(sys, -0.5)
    occ = site_occupations(sys.hubbard.sector)
    shift = np.einsum("sx,xy,sy->s", occ, R, occ)
    lhs = v @ h_b @ v.conj().T
    rhs = (
        h_b
        + alpha * dense_field_sum(sys, space, sys.site_mode_couplings)
        + 0.5 * alpha**2 * np.kron(np.diag(shift), np.eye(space.dim))
    )
    interior = np.tile(np.all(space.occupations() <= bound, axis=1), dim_e)
    restrict = np.ix_(interior, interior)
    return np.linalg.norm((lhs - rhs)[restrict]) / np.linalg.norm(rhs[restrict])


def test_generator_hermitian_and_dressing_unitary():
    sys = make_system()
    S = dense_generator(sys, dense_space(sys, 5))
    assert np.linalg.norm(S - S.conj().T) < 1e-12
    factors = decoupling.dressing_factors(sys, 5)
    assert factors.shape == (sys.hubbard.sector.dim, sys.num_modes, 6, 6)
    assert max(unitary_defect(u) for u in factors.reshape(-1, 6, 6)) < 1e-13
    assert unitary_defect(assembled_dressing(factors)) < 1e-12


@pytest.mark.parametrize("coords,cap", [(COORDS, 5), (COORDS_3, 4)])
def test_factored_dressing_matches_dense_exponential(coords, cap):
    sys = make_system(coords=coords)
    dense = expm_hermitian(dense_generator(sys, dense_space(sys, cap)), prefactor=1j * sys.hubbard.coupling)
    factored = assembled_dressing(decoupling.dressing_factors(sys, cap))
    assert np.linalg.norm(factored - dense) < 1e-13


@pytest.mark.parametrize(
    "sys,caps",
    [
        (make_system(), (3, 4, 5)),
        (make_system(hopping=np.zeros((2, 2))), (4, 6)),
        (make_system(coords=COORDS_3), (3, 4)),
        (make_system(mu_b=0.3), (4,)),
    ],
)
def test_per_mode_residual_matches_dense_restricted_residual(sys, caps):
    rep = decoupling.verify_dressing_identity(sys, caps)
    for cap, residual in zip(caps, rep.residuals):
        assert abs(residual - dense_dressing_residual(sys, cap, min(caps) // 2)) < 1e-14


def test_zero_coupling_trivial_dressing():
    sys = make_system(alpha=0.0)
    factors = decoupling.dressing_factors(sys, 4)
    assert np.abs(factors - np.eye(5)).max() < 1e-13
    ops = decoupling.build_coupled_operators(sys, level_cap=4)
    h_free = np.kron(ops.h_electron, np.eye(ops.boson_space.dim)) + np.kron(
        np.eye(sys.hubbard.sector.dim), np.diag(ops.h_boson)
    )
    assert np.linalg.norm(dense_h_full(sys, 4) - h_free) < 1e-13
    assert np.linalg.norm(assembled_h_full(ops) - h_free) < 1e-13
    rep = decoupling.verify_dressing_identity(sys, (3, 4))
    assert rep.residuals[-1] < 1e-13


def test_density_shift_matches_overlap_form():
    """sum_j |l_sj|^2 / omega_j is the m = -1/2 overlap form sum_xy R_xy n_x n_y."""
    sys = make_system(coords=COORDS_3)
    occ = site_occupations(sys.hubbard.sector)
    R = discrete_overlap(sys, -0.5)
    expected = np.einsum("sx,xy,sy->s", occ, R, occ)
    shifts = decoupling.mode_density_shifts(sys).sum(axis=1)
    assert np.abs(shifts - expected).max() < 1e-14 * np.abs(expected).max()
    ops = decoupling.build_coupled_operators(sys, 2)
    dressed = build_hubbard_hamiltonian(sys.hubbard) - 0.5 * sys.hubbard.coupling**2 * np.diag(expected)
    assert np.abs(ops.h_electron_dressed - dressed).max() < 1e-14

    def shift(alpha):
        scaled = decoupling.build_coupled_operators(make_system(alpha=alpha, coords=COORDS_3), 2)
        return scaled.h_electron_dressed - scaled.h_electron

    # the shift scales exactly as alpha^2
    assert np.linalg.norm(shift(0.4) - 4.0 * shift(0.2)) < 1e-14 * np.linalg.norm(ops.h_electron)


def test_discrete_shift_and_phase_weights_reach_the_continuum_overlaps():
    """On the cube of modes |n_i| <= ceil(12 L / 2 pi) the discrete sums are Riemann
    sums of the m = -1/2 continuum overlaps: sum_j |l_sj|^2 / omega_j tends to
    sum_xy G_xy n_x n_y and the discrete phase weights to Re <omega^-1/2 f,
    omega^-1/2 lambda_x>.  With kappa = 0 the integrands are smooth Gaussians,
    so the errors fall spectrally in L."""
    family = CouplingFamily(2, 3, 2.0, 0.0)
    cluster = build_hubbard_system(2, 2, HOP, 2.0, coupling=0.2)
    f = gaussian_test_function(3, center=[0.3, -0.2, 0.1], width=0.9, amplitude=0.7 + 0.4j)
    occ = site_occupations(cluster.sector)
    shift = np.einsum("sx,xy,sy->s", occ, overlap_matrix(family, DISP, -0.5).entries, occ).real
    weights = np.real([cross_overlap(family, DISP, -0.5, f, x) for x in range(2)])
    errors = []
    for box in (6.0, 12.0, 24.0):
        half = np.ceil(12.0 * box / (2.0 * np.pi))
        n = np.arange(-half, half + 1)
        coords = np.stack(np.meshgrid(n, n, n, indexing="ij"), axis=-1).reshape(-1, 3)
        sys = decoupling.build_coupled_system(cluster, family, DISP, box, coords)
        spacing = 2.0 * np.pi / box
        f_modes = f.values(coords * spacing) * spacing**1.5
        discrete_shift = decoupling.mode_density_shifts(sys).sum(axis=1)
        discrete_weights = decoupling.discrete_phase_weights(sys, f_modes)
        errors.append(
            [
                np.abs(discrete_shift - shift).max() / np.abs(shift).max(),
                np.abs(discrete_weights - weights).max() / np.abs(weights).max(),
            ]
        )
    errors = np.array(errors)
    assert np.all(np.diff(errors, axis=0) < 0)
    assert errors[-1].max() <= 1e-9


def test_dressing_identity_scaling_ceiling():
    """Four modes at caps 6, 9, 12 (dense dimension 171,366) from per-mode factors."""
    sys = make_system(hopping=np.zeros((2, 2)), coords=COORDS_4)
    t0 = time.perf_counter()
    rep = decoupling.verify_dressing_identity(sys, (6, 9, 12))
    elapsed = time.perf_counter() - t0
    assert rep.monotone
    assert rep.residuals[-1] < 1e-12
    assert elapsed < 1.0
    with pytest.raises(ValueError):
        decoupling.verify_dressing_identity(sys, (0, 2))


def test_zero_coupling_exact_factorization():
    sys = make_system(alpha=0.0)
    dim = sys.hubbard.sector.dim
    rng = np.random.default_rng(3)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = 0.5 * (A + A.conj().T)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    res = decoupling.factorization_check(decoupling.build_coupled_operators(sys, 6), A, f)
    assert res.gap < 1e-10


def test_factorization_check_matches_dense_traces():
    sys = make_system()
    ops = decoupling.build_coupled_operators(sys, 5)
    rng = np.random.default_rng(5)
    dim = sys.hubbard.sector.dim
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    W = ops.boson_space.weyl(f)
    beta = sys.hubbard.inverse_temperature
    rho_full, _ = gibbs(dense_h_full(sys, 5), beta)
    rho_e, _ = gibbs(ops.h_electron_dressed, beta)
    rho_b, _ = gibbs(np.diag(ops.h_boson), beta)
    phase = decoupling.density_phase(sys, f)
    res = decoupling.factorization_check(ops, A, f)
    assert abs(res.lhs - np.trace(np.kron(A, W) @ rho_full)) < 1e-13
    assert abs(res.rhs - np.trace(phase[:, None] * A @ rho_e) * np.trace(W @ rho_b)) < 1e-13


def test_factorization_check_with_off_block_entries_matches_dense_trace():
    """A full random A on the atomic cluster, where every off-diagonal entry of A
    is off-block: the block sum still gives the dense trace, because the Gibbs
    state is block diagonal."""
    sys = make_system(hopping=np.zeros((2, 2)))
    ops = decoupling.build_coupled_operators(sys, 6)
    [group] = ops.groups
    assert group.states.shape == (sys.hubbard.sector.dim, 1) and group.coupled.size == 0
    rng = np.random.default_rng(13)
    dim = sys.hubbard.sector.dim
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rho_full, _ = gibbs(dense_h_full(sys, 6), sys.hubbard.inverse_temperature)
    res = decoupling.factorization_check(ops, A, f)
    dense = np.trace(np.kron(A, ops.boson_space.weyl(f)) @ rho_full)
    assert abs(res.lhs - dense) < 1e-13


def test_dressing_residual_ladder_monotone():
    for caps in [(4, 6, 8), (3, 4, 5)]:
        rep = decoupling.verify_dressing_identity(make_system(), caps)
        assert rep.monotone, (caps, rep.residuals)
        assert rep.residuals[-1] < 1e-2


def test_single_site_ground_energy_displaced_oscillator():
    """One site doubly occupied, one mode: E_0 = U - 2 alpha^2 |lambda|^2 / omega."""
    alpha = 0.25
    cluster = build_hubbard_system(1, 2, [[0.0]], repulsion=3.0, coupling=alpha)
    family = CouplingFamily(1, 3, 2.0, 0.5)
    sys = decoupling.build_coupled_system(cluster, family, DISP, 10.0, [[1.0, 0.0, 0.0]])
    ops = decoupling.build_coupled_operators(sys, level_cap=40)
    lam2 = abs(sys.site_mode_couplings[0, 0]) ** 2
    expected = 3.0 - 2.0 * alpha**2 * lam2 / sys.frequencies[0]
    # n^2 = 4 at double occupancy, so the dressed H_e is U - 4 (alpha^2/2) R_00
    R = discrete_overlap(sys, -0.5)
    assert ops.h_electron_dressed[0, 0].real == pytest.approx(3.0 - 4.0 * 0.5 * alpha**2 * R[0, 0], rel=1e-12)
    assert np.linalg.eigvalsh(dense_h_full(sys, 40))[0] == pytest.approx(expected, abs=1e-10)
    assert ops.levels()[0] == pytest.approx(expected, abs=1e-10)


def test_spectral_equivalence_small_gap():
    rep = decoupling.verify_spectral_equivalence(make_system(), level_cap=10)
    assert rep.max_gap < 1e-3
    assert np.all(np.diff(rep.coupled) >= -1e-12)


@pytest.mark.parametrize("coords,cap", [(COORDS, 8), (COORDS_3, 4)])
def test_kronecker_sum_levels_match_dense_eigvalsh(coords, cap):
    sys = make_system(coords=coords)
    ops = decoupling.build_coupled_operators(sys, cap)
    h_dec = np.kron(ops.h_electron_dressed, np.eye(ops.boson_space.dim)) + np.kron(
        np.eye(sys.hubbard.sector.dim), np.diag(ops.h_boson)
    )
    rep = decoupling.spectral_comparison(ops, num_levels=12)
    assert np.abs(rep.decoupled - np.linalg.eigvalsh(h_dec)[:12]).max() < 1e-12


def test_spectral_levels_reuse_gibbs_eigendecomposition(monkeypatch):
    sys = make_system()
    ops = decoupling.build_coupled_operators(sys, 6)
    before = ops.levels()
    decoupling.factorization_check(ops, np.eye(sys.hubbard.sector.dim), np.zeros(2))

    def no_decomposition(h):
        raise AssertionError("levels() diagonalised a block again")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_decomposition)
    monkeypatch.setattr(np.linalg, "eigh", no_decomposition)
    assert np.array_equal(ops.levels(), before)


@pytest.mark.parametrize(
    "hopping,coords,cap,mu_b",
    [(HOP, COORDS, 8, 0.0), (HOP, COORDS_3, 4, 0.0), (np.zeros((2, 2)), COORDS, 6, 0.0), (HOP, COORDS, 6, 0.3)],
    ids=["hopping-2modes-cap8", "hopping-3modes-cap4", "atomic-2modes-cap6", "hopping-2modes-cap6-mu_b"],
)
def test_block_levels_match_dense_eigvalsh(hopping, coords, cap, mu_b):
    sys = make_system(hopping=hopping, coords=coords, mu_b=mu_b)
    dense = np.linalg.eigvalsh(dense_h_full(sys, cap))
    ops = decoupling.build_coupled_operators(sys, cap)
    assert np.abs(ops.levels() - dense).max() < 1e-12
    assert len(ops.eigh) == len(ops.groups)  # levels() now merges the cached per-group eigh
    assert np.abs(ops.levels() - dense).max() < 1e-12


def test_h_boson_is_the_free_hamiltonian_diagonal_in_kronecker_order():
    """Three modes with omega_j - mu_b = 0.5, 1.25, 2.75 (exact in binary, so both
    sums are exact): a wrong mode order or a wrong sign of mu_b changes entries."""
    freqs = np.array([0.8, 1.55, 3.05])
    sys = decoupling.CoupledSystem(make_system().hubbard, freqs, np.zeros((2, 3)), 0.3)
    ops = decoupling.build_coupled_operators(sys, 4)
    assert ops.h_boson.shape == (5**3,)
    assert np.array_equal(ops.h_boson, np.diag(TruncatedBosonSpace(freqs, 4).free_hamiltonian(0.3)))


def test_coupled_operators_need_no_tensor_space_operator(monkeypatch):
    """On the hopping cluster the build, the factorization check and the spectral
    comparison run from single-mode factors alone, and still match the dense
    tensor-space references computed before those methods are disabled."""
    cap = 5
    sys = make_system()
    dim = sys.hubbard.sector.dim
    rng = np.random.default_rng(29)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h_full = dense_h_full(sys, cap)
    rho_full, _ = gibbs(h_full, sys.hubbard.inverse_temperature)
    lhs = np.trace(np.kron(A, dense_space(sys, cap).weyl(f)) @ rho_full)
    h_b = dense_space(sys, cap).free_hamiltonian(sys.mu_b)

    def forbidden(name):
        def method(*args, **kwargs):
            raise AssertionError(f"TruncatedBosonSpace.{name} was called")

        return method

    for name in ("segal_field", "weyl", "free_hamiltonian", "occupations"):
        monkeypatch.setattr(TruncatedBosonSpace, name, forbidden(name))
    ops = decoupling.build_coupled_operators(sys, cap)
    assert abs(decoupling.factorization_check(ops, A, f).lhs - lhs) < 1e-13
    rep = decoupling.spectral_comparison(ops, num_levels=12)
    assert np.abs(rep.coupled - np.linalg.eigvalsh(h_full)[:12]).max() < 1e-12
    h_dec = np.kron(ops.h_electron_dressed, np.eye(len(h_b))) + np.kron(np.eye(dim), h_b)
    assert np.abs(rep.decoupled - np.linalg.eigvalsh(h_dec)[:12]).max() < 1e-12


@pytest.mark.parametrize("hopping", [HOP, np.zeros((2, 2))], ids=["hopping", "atomic"])
def test_dense_h_full_vanishes_between_blocks(hopping):
    sys = make_system(hopping=hopping)
    ops = decoupling.build_coupled_operators(sys, 4)
    dense = dense_h_full(sys, 4)
    same_block = np.zeros(dense.shape, dtype=bool)
    for i, _ in all_blocks(ops):
        rows = tensor_rows(i, ops.boson_space.dim)
        same_block[np.ix_(rows, rows)] = True
    assert np.all(dense[~same_block] == 0)
    assert np.abs(assembled_h_full(ops) - dense).max() < 1e-13


@pytest.mark.parametrize(
    "hopping,coords,cap,structure",
    [
        (np.zeros((2, 2)), COORDS, 6, [(6, 1, [])]),
        (np.zeros((2, 2)), COORDS_3, 4, [(6, 1, [])]),
        (HOP, COORDS, 6, [(1, 4, [0]), (2, 1, [])]),
    ],
    ids=["atomic-2modes-cap6", "atomic-3modes-cap4", "hopping-2modes-cap6"],
)
def test_single_states_match_dense_levels_and_trace(hopping, coords, cap, structure):
    """Each component is a dense part over its coupled modes and a stack of
    uniform modes diagonalised mode by mode; a single state couples no mode.
    Merged, levels and the factorization lhs agree with the dense h_full.
    structure lists (components, states, coupled modes) per group."""
    sys = make_system(hopping=hopping, coords=coords)
    ops = decoupling.build_coupled_operators(sys, cap)
    dim = sys.hubbard.sector.dim
    assert [(len(g.states), g.states.shape[1], g.coupled.tolist()) for g in ops.groups] == structure
    for (components, states, coupled), group in zip(structure, ops.groups):
        dense_dim = states * (cap + 1) ** len(coupled)
        assert group.dense.shape == (components, dense_dim, dense_dim)
        assert group.modes.shape == (components, sys.num_modes - len(coupled), cap + 1, cap + 1)
    h_full = dense_h_full(sys, cap)
    assert np.abs(ops.levels() - np.linalg.eigvalsh(h_full)).max() < 1e-12
    # each component's levels pair with the Kronecker products of its dense and per-mode eigenvectors
    for group, ((levels, vectors), (mode_levels, mode_vectors)) in zip(ops.groups, ops.eigh):
        for k in range(len(group.states)):
            block = factored_block(group.dense[k], group.modes[k])
            products = reduce(np.kron, mode_vectors[k], vectors[k])
            sums = (levels[k][:, None] + decoupling.kronecker_sum(mode_levels[k])[None, :]).ravel()
            assert np.abs(block @ products - products * sums).max() < 1e-12
    rng = np.random.default_rng(17)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    f = rng.standard_normal(sys.num_modes) + 1j * rng.standard_normal(sys.num_modes)
    rho_full, _ = gibbs(h_full, sys.hubbard.inverse_temperature)
    dense = np.trace(np.kron(A, ops.boson_space.weyl(f)) @ rho_full)
    assert abs(decoupling.factorization_check(ops, A, f).lhs - dense) < 1e-13


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    modes=st.lists(st.tuples(st.booleans(), *[st.integers(-2, 2)] * 3), min_size=2, max_size=3),
    hopping=st.booleans(),
    mu_b=st.sampled_from([0.0, 0.3]),
    cap=st.integers(2, 4),
)
def test_factored_spectrum_and_trace_equal_the_dense_ones_property(modes, hopping, mu_b, cap):
    """Over random integer mode coordinates, some perpendicular to the bond (a
    first coordinate of 0), the factored levels and factorization lhs equal
    eigvalsh and the trace of the dense h_full (dimension at most 6 x 5^3 = 750).
    A perpendicular mode has equal couplings on both sites, so it is uniform on
    every component and is never in a dense part."""
    coords = np.array([[0 if perpendicular else x, y, z] for perpendicular, x, y, z in modes], dtype=float)
    sys = make_system(coords=coords, hopping=HOP if hopping else np.zeros((2, 2)), mu_b=mu_b)
    ops = decoupling.build_coupled_operators(sys, cap)
    assert not any(np.any(coords[group.coupled, 0] == 0) for group in ops.groups)
    levels, vectors = np.linalg.eigh(dense_h_full(sys, cap))
    assert np.abs(ops.levels() - levels).max() < 1e-12
    dim = sys.hubbard.sector.dim
    rng = np.random.default_rng(len(modes) + 3 * cap)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    f = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    p = np.exp(-sys.hubbard.inverse_temperature * (levels - levels[0]))
    moved = np.kron(A, dense_space(sys, cap).weyl(f)) @ vectors
    dense = np.sum(vectors.conj() * moved, axis=0) @ p / p.sum()
    assert abs(decoupling.factorization_check(ops, A, f).lhs - dense) < 1e-13


def test_the_default_dimer_splits_off_its_transverse_mode(monkeypatch):
    """On the default config mode 1, (0, 1, 0), is perpendicular to the bond and
    uniform on the four-state (1, 1) component: its dense part has dimension
    4 (cap + 1), and no eigh of a build, its levels or its factorization check
    is larger."""
    config = cli.load_config(None, [])
    coords = np.asarray(config["sweep"]["mode_coords"], dtype=float)
    sys = decoupling.build_coupled_system(
        cli.build_cluster(config), cli.build_family(config), cli.build_dispersion(config), 10.0, coords
    )
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: seen.append(np.shape(h)[-1]) or eigh(h))
    for cap in config["sweep"]["level_caps"]:
        ops = decoupling.build_coupled_operators(sys, cap)
        [component] = [group for group in ops.groups if group.states.shape[1] == 4]
        assert component.coupled.tolist() == [0] and component.uniform.tolist() == [1]
        assert component.dense.shape == (1, 4 * (cap + 1), 4 * (cap + 1))
        ops.levels()
        decoupling.factorization_check(ops, np.eye(sys.hubbard.sector.dim), np.full(2, 0.2 + 0.1j))
        assert seen and max(seen) == 4 * (cap + 1)
        seen.clear()


def test_atomic_cluster_never_decomposes_a_tensor_product_matrix(monkeypatch):
    cap = 5
    sys = make_system(hopping=np.zeros((2, 2)), coords=COORDS_3)
    seen = []

    def recording(decompose):
        def wrapped(h, *args, **kwargs):
            seen.append(np.shape(h)[-1])
            return decompose(h, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    dim = sys.hubbard.sector.dim
    rep = decoupling.verify_spectral_equivalence(sys, cap)
    ops = decoupling.build_coupled_operators(sys, cap)
    res = decoupling.factorization_check(ops, np.eye(dim), np.full(3, 0.2 + 0.1j))
    assert rep.max_gap < 1e-10 and res.gap < 1e-3  # truncation at cap 5
    assert seen and max(seen) <= cap + 1


def test_fermion_blocks_are_the_spin_sectors_of_the_hopping_cluster():
    cluster = build_hubbard_system(2, 2, HOP, 2.0)
    blocks = decoupling.fermion_blocks(build_hubbard_hamiltonian(cluster))
    assert sorted(len(i) for i in blocks) == [1, 1, 4]
    # spin + sits on the even bits; each block is one N_up (hence one N_down) sector
    spin_up = np.array([bin(s & 0b0101).count("1") for s in cluster.sector.basis])
    assert sorted(sorted(set(spin_up[i])) for i in blocks) == [[0], [1], [2]]
    atomic = build_hubbard_hamiltonian(build_hubbard_system(2, 2, np.zeros((2, 2)), 2.0))
    assert [i.tolist() for i in decoupling.fermion_blocks(atomic)] == [[s] for s in range(6)]


def test_decouple_verify_builds_once_per_cap(tmp_path, monkeypatch):
    caps = []
    build = decoupling.build_coupled_operators

    def counting_build(sys, level_cap):
        caps.append(level_cap)
        return build(sys, level_cap)

    monkeypatch.setattr(decoupling, "build_coupled_operators", counting_build)
    cli.main(["--command", "decouple-verify", "--out", str(tmp_path), "--override", "sweep.level_caps=[2,3,4]"])
    assert caps == [2, 3, 4]


@pytest.mark.parametrize(
    "hopping,expected",
    [("[[0,-1],[-1,0]]", [(1, [0], 4), (2, [], 1)]), ("[[0,0],[0,0]]", [(6, [], 1)])],
    ids=["hopping", "atomic"],
)
def test_decouple_json_records_the_block_structure(tmp_path, hopping, expected):
    """Per cap and group: the component count, the coupled modes and the dense
    dimension, (states per component) x (cap + 1)^(coupled modes)."""
    cli.main(
        ["--command", "decouple-verify", "--out", str(tmp_path), "--override", "sweep.level_caps=[2,3]",
         "--override", f"hubbard.hopping={hopping}"]
    )
    summary = json.loads((tmp_path / "decouple.json").read_text())
    assert summary["coupled_blocks"] == [
        {
            "level_cap": cap,
            "groups": [
                {"components": g, "coupled_modes": modes, "dense_dim": n * (cap + 1) ** len(modes)}
                for g, modes, n in expected
            ],
        }
        for cap in (2, 3)
    ]


@pytest.mark.parametrize("caps", ["[12,9,6]", "[3.7,5]", "[]", "[0,2]", "[3,3]", "4"])
def test_decouple_verify_rejects_level_caps_that_are_not_increasing_integers(tmp_path, capsys, caps):
    argv = ["--command", "decouple-verify", "--out", str(tmp_path), "--override", "hubbard.hopping=[[0,0],[0,0]]",
            "--override", f"sweep.level_caps={caps}"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "sweep.level_caps" in capsys.readouterr().err
    assert not (tmp_path / "decouple.json").exists()


@pytest.mark.parametrize("coords", ["[[1,0,0,7],[0,1,0,9]]", "[[1,0],[0,1]]", "[]"])
def test_decouple_verify_rejects_mode_coords_not_of_the_dispersions_dimension(tmp_path, capsys, coords):
    argv = ["--command", "decouple-verify", "--out", str(tmp_path), "--override", "hubbard.hopping=[[0,0],[0,0]]",
            "--override", "sweep.level_caps=[2,3]", "--override", f"sweep.mode_coords={coords}"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "sweep.mode_coords" in capsys.readouterr().err
    assert not (tmp_path / "decouple.json").exists()


def test_discrete_overlap_symmetric_psd():
    sys = make_system()
    R = discrete_overlap(sys, -0.5)
    assert np.allclose(R, R.T)
    assert np.linalg.eigvalsh(R).min() > -1e-12 * np.abs(R).max()


def test_phase_matrix_unimodular_diagonal():
    """The diagonal phase matrix, kept as its diagonal: unimodular, and 1 at alpha = 0."""
    sys = make_system()
    f = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    phase = decoupling.density_phase(sys, f)
    assert phase.shape == (sys.hubbard.sector.dim,)
    assert np.allclose(np.abs(phase), 1.0)
    assert np.array_equal(decoupling.density_phase(make_system(alpha=0.0), f), np.ones(sys.hubbard.sector.dim))


def test_phase_weight_shape_contract():
    sys = make_system()
    with pytest.raises(ContractViolation):
        decoupling.discrete_phase_weights(sys, np.zeros(3))


def test_eigh_rejects_one_non_hermitian_matrix_inside_a_stack():
    """The Hermiticity check runs once per stack, with each matrix's defect relative to
    its own max-norm: one bad matrix among Hermitian ones is named, and a defect below
    the 1e-12 tolerance still passes."""
    ops = decoupling.build_coupled_operators(make_system(), 3)
    group = ops.groups[1]  # two components, each with two uniform modes
    assert group.modes.shape[:2] == (2, 2)
    scale = np.abs(group.modes[1, 0]).max()
    for defect, ok in ((0.5e-12, True), (1e-9, False)):
        broken = group.modes.copy()
        broken[1, 0, -1, 0] += 1j * defect * scale
        perturbed = replace(ops, groups=(ops.groups[0], replace(group, modes=broken)))
        if ok:
            assert len(perturbed.eigh) == 2
        else:
            with pytest.raises(ContractViolation, match=re.escape("matrix (1, 0) of a stack is not Hermitian")):
                perturbed.eigh


def test_dimension_cap_enforced():
    with pytest.raises(ContractViolation):
        decoupling.build_coupled_operators(make_system(), level_cap=60)


def test_invalid_coupled_system_inputs():
    cluster = build_hubbard_system(2, 2, HOP, 2.0)
    with pytest.raises(ValueError):
        decoupling.CoupledSystem(cluster, np.array([1.0, -0.5]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="omega_j - mu_b"):
        decoupling.CoupledSystem(cluster, np.array([1.0, 2.0]), np.zeros((2, 2)), mu_b=1.0)
    with pytest.raises(ContractViolation):
        decoupling.CoupledSystem(cluster, np.array([1.0, 2.0]), np.zeros((3, 2)))


def test_decouple_verify_reads_the_dispersions_mu_b(tmp_path):
    """The CLI's spectral levels at mu_b = 0.3 are those of the system built
    with that mu_b, and they differ from the levels at mu_b = 0."""
    overrides = ["sweep.level_caps=[2,3]", "dispersion.mu_b=0.3"]
    argv = ["--command", "decouple-verify", "--out", str(tmp_path / "r")]
    # the exit code is not checked: at mu_b != 0 the ladders plateau, because the
    # dressing displaces by l / omega while H_b counts omega - mu_b
    cli.main(argv + [arg for o in overrides for arg in ("--override", o)])
    summary = json.loads((tmp_path / "r" / "decouple.json").read_text())
    config = cli.load_config(None, overrides)
    disp = cli.build_dispersion(config)
    coords = np.asarray(config["sweep"]["mode_coords"], dtype=float)
    sys = decoupling.build_coupled_system(cli.build_cluster(config), cli.build_family(config), disp, 10.0, coords)
    assert sys.mu_b == 0.3
    spectral = decoupling.spectral_comparison(decoupling.build_coupled_operators(sys, 3))
    assert summary["spectral_levels_coupled"] == spectral.coupled.tolist()
    assert summary["spectral_levels_decoupled"] == spectral.decoupled.tolist()
    cli.main(argv[:-1] + [str(tmp_path / "r0"), "--override", overrides[0]])
    at_zero = json.loads((tmp_path / "r0" / "decouple.json").read_text())
    assert at_zero["spectral_levels_coupled"] != summary["spectral_levels_coupled"]


def test_decouple_verify_rejects_mu_b_at_or_above_a_mode_frequency(tmp_path):
    argv = ["--command", "decouple-verify", "--out", str(tmp_path), "--override", "dispersion.mu_b=1.5"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
