import numpy as np
import pytest

from fermion_oracles import full_space_creation_operators, hopping_operator
from hpbec import fermions


def test_sector_dimensions():
    assert fermions.build_fermion_sector(1, 2).dim == 1
    assert fermions.build_fermion_sector(2, 2).dim == 6
    assert fermions.build_fermion_sector(3, 3).dim == 20


def test_sector_basis_matches_brute_force_enumeration():
    sector = fermions.build_fermion_sector(3, 3)
    expected = tuple(s for s in range(2**6) if bin(s).count("1") == 3)
    assert sector.basis == expected


def test_sector_rejects_out_of_range():
    with pytest.raises(ValueError):
        fermions.build_fermion_sector(2, 5)
    with pytest.raises(ValueError):
        fermions.build_fermion_sector(2, -1)


def test_number_operator_single_full_site():
    sector = fermions.build_fermion_sector(1, 2)
    assert fermions.number_operator(sector, 0, "+") == pytest.approx(np.array([[1.0]]))
    assert fermions.number_operator(sector, 0) == pytest.approx(np.array([[2.0]]))


def test_number_operator_diagonal_binary():
    sector = fermions.build_fermion_sector(2, 2)
    for x in range(2):
        for s in fermions.SPINS:
            n = fermions.number_operator(sector, x, s)
            d = np.diag(n)
            assert np.allclose(n, np.diag(d))
            assert set(np.round(d).astype(int)) <= {0, 1}


def test_total_number_trace():
    sector = fermions.build_fermion_sector(2, 2)
    total = fermions.number_operator(sector, 0) + fermions.number_operator(sector, 1)
    assert np.allclose(total, 2.0 * np.eye(6))
    assert np.trace(fermions.number_operator(sector, 0)) == pytest.approx(6.0)


@pytest.mark.parametrize("num_sites", [1, 2, 3])
def test_car_exhaustive_on_full_fock_space(num_sites):
    ops = full_space_creation_operators(num_sites)
    nm = 2 * num_sites
    dim = 2**nm
    for a in range(nm):
        for b in range(nm):
            anti = ops[a] @ ops[b].conj().T + ops[b].conj().T @ ops[a]
            target = np.eye(dim) if a == b else np.zeros((dim, dim))
            assert np.abs(anti - target).max() < 1e-13
            anti_cc = ops[a] @ ops[b] + ops[b] @ ops[a]
            assert np.abs(anti_cc).max() < 1e-13


def test_hopping_operator_consistent_with_full_space_build():
    """Sector hopping blocks agree with the full-space JW build restricted to
    the fixed-number subspace, on every (sites, electrons) sector listed."""
    for num_sites, num_electrons in [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]:
        sector = fermions.build_fermion_sector(num_sites, num_electrons)
        ops = full_space_creation_operators(num_sites)
        # full-space basis state for integer s is the computational vector e_s
        idx = list(sector.basis)
        for x in range(num_sites):
            for y in range(num_sites):
                for spin in fermions.SPINS:
                    mx = fermions.mode_index(x, spin)
                    my = fermions.mode_index(y, spin)
                    full = ops[mx] @ ops[my].conj().T
                    restricted = full[np.ix_(idx, idx)]
                    block = hopping_operator(sector, x, y, spin)
                    assert np.abs(block - restricted).max() < 1e-13, (num_sites, num_electrons, x, y, spin)


def test_hopping_adjoint_symmetry():
    sector = fermions.build_fermion_sector(3, 2)
    A = hopping_operator(sector, 0, 2, "+")
    B = hopping_operator(sector, 2, 0, "+")
    assert np.abs(A - B.conj().T).max() < 1e-14


def test_invalid_site_and_spin():
    sector = fermions.build_fermion_sector(2, 2)
    with pytest.raises(ValueError):
        fermions.number_operator(sector, 5)
    with pytest.raises(ValueError):
        fermions.mode_index(0, "up")
