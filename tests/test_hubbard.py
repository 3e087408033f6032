import numpy as np
import pytest

from fermion_oracles import hopping_operator
from hpbec import decoupling, fermions, hubbard
from hpbec.couplings import CouplingFamily
from hpbec.dispersion import quadratic_dispersion
from hpbec.errors import ContractViolation


def test_single_site_double_occupancy_energy():
    """One site with two electrons: the only state has energy U."""
    sys = hubbard.build_hubbard_system(1, 2, [[0.0]], repulsion=3.7)
    H = hubbard.build_hubbard_hamiltonian(sys)
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(3.7)


def test_two_site_ground_energy_closed_form():
    """Half-filled dimer: E_0 = (U - sqrt(U^2 + 16 t^2)) / 2."""
    t, U = 1.3, 2.4
    T = np.array([[0.0, -t], [-t, 0.0]])
    sys = hubbard.build_hubbard_system(2, 2, T, U)
    H = hubbard.build_hubbard_hamiltonian(sys)
    e0 = np.linalg.eigvalsh(H)[0]
    assert e0 == pytest.approx((U - np.sqrt(U * U + 16 * t * t)) / 2.0, rel=1e-12)


@pytest.mark.parametrize("num_sites,num_electrons", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_site_occupations_are_number_operator_diagonals(num_sites, num_electrons):
    sector = fermions.build_fermion_sector(num_sites, num_electrons)
    expected = np.stack(
        [np.diag(fermions.number_operator(sector, x)) for x in range(num_sites)], axis=1
    )
    assert np.array_equal(hubbard.site_occupations(sector), expected)


def accumulated_hamiltonian(sys):
    """H_e summed as one dense hopping matrix per (x, y, spin), then the U diagonal."""
    sector = sys.sector
    H = np.zeros((sector.dim, sector.dim), dtype=complex)
    for x in range(sector.num_sites):
        for y in range(sector.num_sites):
            t = sys.hopping[x, y]
            if t == 0:
                continue
            for spin in fermions.SPINS:
                H += t * hopping_operator(sector, x, y, spin)
    occ = hubbard.site_occupations(sector)
    H += np.diag(sys.repulsion * 0.5 * (occ * (occ - 1.0)).sum(axis=1))
    return H


@pytest.mark.parametrize("num_sites", [1, 2, 3, 4, 5, 6])
def test_scattered_hopping_is_bit_identical_to_dense_accumulation(num_sites):
    """Every sector: a complex Hermitian hopping matrix with all entries nonzero."""
    rng = np.random.default_rng(num_sites)
    T = rng.standard_normal((num_sites, num_sites)) + 1j * rng.standard_normal((num_sites, num_sites))
    T = T + T.conj().T
    for num_electrons in range(2 * num_sites + 1):
        sys = hubbard.build_hubbard_system(num_sites, num_electrons, T, 1.7)
        H = hubbard.build_hubbard_hamiltonian(sys)
        assert H.tobytes() == accumulated_hamiltonian(sys).tobytes(), num_electrons


def test_hamiltonian_commutes_with_total_number():
    sys = hubbard.build_hubbard_system(3, 2, -np.eye(3, k=1) - np.eye(3, k=-1), 1.5)
    H = hubbard.build_hubbard_hamiltonian(sys)
    total = hubbard.site_occupations(sys.sector).sum(axis=1)
    assert np.array_equal(total, np.full(sys.sector.dim, 2.0))  # fixed-number sector
    assert np.linalg.norm(H * total[None, :] - total[:, None] * H) < 1e-12


def test_invalid_system_parameters():
    with pytest.raises(ContractViolation):
        hubbard.build_hubbard_system(2, 2, np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), -1.0)
    with pytest.raises(ValueError):
        hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), 1.0, beta=0.0)
    with pytest.raises(ContractViolation):
        hubbard.build_hubbard_system(2, 2, [[0.0, 1.0], [2.0, 0.0]], 1.0)  # not Hermitian


def test_one_corrupted_hopping_entry_fails_the_hermiticity_check(monkeypatch):
    """H_e is Hermitian when its hopping matrix is, which HubbardSystem checks; it is
    checked again only where it is diagonalised.  One hopping entry off by 1e-9
    relative reaches the dense parts of h_full, and their eigendecomposition refuses it."""
    cluster = hubbard.build_hubbard_system(3, 3, -np.eye(3, k=1) - np.eye(3, k=-1), 2.0, coupling=0.2)
    sys = decoupling.build_coupled_system(cluster, CouplingFamily(3, 3, 2.0, 0.5), quadratic_dispersion(),
                                          10.0, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    decoupling.build_coupled_operators(sys, 3).eigh
    entries = fermions.hopping_entries
    calls = []

    def corrupted(sector, x, y, spin):
        rows, cols, signs = entries(sector, x, y, spin)
        if len(calls) == 3:
            signs = signs.copy()
            signs[len(signs) // 2] *= 1.0 + 1e-9
        calls.append((x, y, spin))
        return rows, cols, signs

    monkeypatch.setattr(fermions, "hopping_entries", corrupted)
    ops = decoupling.build_coupled_operators(sys, 3)
    with pytest.raises(ContractViolation, match="not Hermitian"):
        ops.eigh
