import numpy as np
import pytest

from hpbec import fermions, hubbard
from hpbec.couplings import CouplingFamily, overlap_matrix
from hpbec.dispersion import quadratic_dispersion
from hpbec.errors import ContractViolation
from hpbec.linalg import gibbs_expectation
from hpbec.testfunctions import gaussian_test_function

DISP = quadratic_dispersion()


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


def test_hamiltonian_commutes_with_total_number():
    sys = hubbard.build_hubbard_system(3, 2, -np.eye(3, k=1) - np.eye(3, k=-1), 1.5)
    H = hubbard.build_hubbard_hamiltonian(sys)
    N = sum(hubbard.site_number_operators(sys.sector))
    assert np.allclose(N, 2.0 * np.eye(sys.sector.dim))  # fixed-number sector
    assert np.linalg.norm(H @ N - N @ H) < 1e-12


def test_effective_interaction_single_site():
    """On one site n^2 = 4 at double occupancy, so H_eff = U - 4 alpha^2 G_00."""
    alpha = 0.3
    fam = CouplingFamily(1, 3, 2.0, 0.5)
    G = overlap_matrix(fam, DISP, -0.5)
    sys = hubbard.build_hubbard_system(1, 2, [[0.0]], repulsion=5.0, coupling=alpha)
    Heff = hubbard.build_effective_hamiltonian(sys, G)
    assert Heff[0, 0].real == pytest.approx(5.0 - 4.0 * alpha**2 * G.entries[0, 0].real, rel=1e-12)


def test_effective_hamiltonian_quadratic_in_alpha():
    """H(0) - H(alpha) scales exactly like alpha^2."""
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    G = overlap_matrix(fam, DISP, -0.5)
    T = np.array([[0.0, -1.0], [-1.0, 0.0]])
    hs = [
        hubbard.build_effective_hamiltonian(
            hubbard.build_hubbard_system(2, 2, T, 2.0, coupling=a), G
        )
        for a in (0.0, 0.2, 0.4)
    ]
    d1 = hs[0] - hs[1]
    d2 = hs[0] - hs[2]
    assert np.linalg.norm(d2 - 4.0 * d1) < 1e-12 * np.linalg.norm(hs[0])


def test_effective_rejects_indefinite_gram():
    sys = hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), 1.0, coupling=0.1)

    class FakeGram:
        entries = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1

    with pytest.raises(ContractViolation):
        hubbard.build_effective_hamiltonian(sys, FakeGram())


def test_electron_expectation_matches_direct_gibbs():
    T = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sys = hubbard.build_hubbard_system(2, 2, T, 2.0, beta=0.7)
    H = hubbard.build_hubbard_hamiltonian(sys)
    A = fermions.number_operator(sys.sector, 0)
    assert hubbard.electron_expectation(sys, A) == pytest.approx(
        gibbs_expectation(H, A, 0.7), rel=1e-13
    )


def test_electron_expectation_infinite_temperature_limit():
    """Small beta: <n_0> approaches the flat sector average Tr n_0 / dim."""
    T = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sys = hubbard.build_hubbard_system(2, 2, T, 2.0, beta=1e-9)
    A = fermions.number_operator(sys.sector, 0)
    flat = np.trace(A).real / sys.sector.dim
    assert hubbard.electron_expectation(sys, A).real == pytest.approx(flat, abs=1e-7)


def test_phase_expectation_reduces_at_zero_coupling():
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    f = gaussian_test_function(3, center=[0.3, 0.0, 0.0], width=0.9)
    T = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sys = hubbard.build_hubbard_system(2, 2, T, 2.0, coupling=0.0)
    A = fermions.number_operator(sys.sector, 0)
    plain = hubbard.electron_expectation(sys, A)
    phased = hubbard.dressed_phase_expectation(sys, A, f, fam, DISP)
    assert abs(phased - plain) < 1e-13


def test_phase_weights_real_and_shift_covariant():
    """Weights are real; the site-0 and site-1 weights differ only through the
    e^{-ik a_x} offset, so equal-width sites give equal magnitudes of lambda."""
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    f = gaussian_test_function(3, width=1.1, amplitude=0.8)
    sys = hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), 1.0)
    w = hubbard.density_phase_weights(sys, f, fam, DISP)
    assert w.shape == (2,)
    assert np.all(np.isfinite(w))
    assert w.dtype == float


def test_phase_operator_is_diagonal_hermitian():
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    f = gaussian_test_function(3, width=1.0)
    sys = hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), 1.0)
    op = hubbard.density_phase_operator(sys, f, fam, DISP)
    assert np.allclose(op, np.diag(np.diag(op)))
    assert np.abs(np.diag(op).imag).max() < 1e-14


def test_invalid_system_parameters():
    with pytest.raises(ContractViolation):
        hubbard.build_hubbard_system(2, 2, np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), -1.0)
    with pytest.raises(ValueError):
        hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), 1.0, beta=0.0)
    with pytest.raises(ContractViolation):
        hubbard.build_hubbard_system(2, 2, [[0.0, 1.0], [2.0, 0.0]], 1.0)  # not Hermitian
