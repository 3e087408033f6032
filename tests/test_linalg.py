import numpy as np
import pytest

from hpbec.errors import ContractViolation
from hpbec.linalg import (
    boltzmann_weights,
    expm_hermitian,
    gibbs,
    hermiticity_defect,
)
from references import unitary_defect


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def test_gibbs_zero_hamiltonian():
    rho, Z = gibbs(np.zeros((4, 4)), beta=1.3)
    assert Z == pytest.approx(4.0)
    assert np.allclose(rho, np.eye(4) / 4.0)


def test_gibbs_two_level_closed_form():
    rho, Z = gibbs(np.diag([0.0, 2.0]), beta=1.0)
    assert Z == pytest.approx(1.0 + np.exp(-2.0), rel=1e-14)
    assert rho[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), rel=1e-14)


def test_gibbs_matches_taylor_series_oracle():
    H = random_hermitian(6, seed=7)
    beta = 0.8
    # series oracle sum_k (-beta H)^k / k!
    term = np.eye(6, dtype=complex)
    total = term.copy()
    for k in range(1, 61):
        term = term @ (-beta * H) / k
        total += term
    Z_oracle = np.trace(total).real
    rho, Z = gibbs(H, beta)
    assert Z == pytest.approx(Z_oracle, rel=1e-12)
    assert np.abs(rho - total / Z_oracle).max() < 1e-12


def test_gibbs_properties():
    H = random_hermitian(8, seed=3)
    rho, _ = gibbs(H, 1.1)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    comm = rho @ H - H @ rho
    assert np.abs(comm).max() <= 1e-10 * np.abs(H).max()


def test_gibbs_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        gibbs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_gibbs_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        gibbs(np.eye(2), 0.0)


def test_gibbs_overflow_safe():
    rho, _ = gibbs(np.diag([-2000.0, 0.0]), beta=1.0)
    assert np.isfinite(rho).all()
    assert rho[0, 0] == pytest.approx(1.0)


def test_expm_hermitian_unitary_prefactor():
    H = random_hermitian(5, seed=11)
    U = expm_hermitian(H, prefactor=1j)
    assert unitary_defect(U) < 1e-12


def test_expm_hermitian_matches_scipy():
    from scipy.linalg import expm

    H = random_hermitian(5, seed=13)
    assert np.abs(expm_hermitian(H, -0.7) - expm(-0.7 * H)).max() < 1e-11


def test_hermiticity_defect_scale_invariant():
    A = np.array([[1.0, 1e-15], [0.0, 1.0]])
    assert hermiticity_defect(A) < 1e-12
    assert hermiticity_defect(1e6 * A) < 1e-12


def test_boltzmann_weights_match_gibbs_of_diagonal_hamiltonian():
    energies = np.array([0.7, -1.2, 3.0, 0.7])
    p, Z = boltzmann_weights(energies, 1.3)
    rho, Z_dense = gibbs(np.diag(energies), 1.3)
    assert np.abs(p - np.diag(rho).real).max() < 1e-15
    assert Z == pytest.approx(np.exp(-1.3 * energies).sum(), rel=1e-14)
    assert Z == pytest.approx(Z_dense, rel=1e-14)


def test_boltzmann_weights_overflow_safe_and_reject_nonpositive_beta():
    p, _ = boltzmann_weights(np.array([-2000.0, 0.0]), 1.0)
    assert np.isfinite(p).all() and p[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        boltzmann_weights(np.zeros(2), 0.0)
