import numpy as np
import pytest

from hpbec.bosons import TruncatedBosonSpace, mode_weyl
from hpbec.errors import ContractViolation
from hpbec.linalg import expm_hermitian, gibbs
from references import unitary_defect


def test_number_operator_single_mode():
    space = TruncatedBosonSpace([1.0], 3)
    a = space.lowering(0)
    assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0, 3.0]))
    assert np.array_equal(space.occupations()[:, 0], [0, 1, 2, 3])


def test_truncated_ccr_on_interior():
    space = TruncatedBosonSpace([1.0, 2.0], 5)
    occ = space.occupations()
    interior = np.all(occ <= space.level_cap - 1, axis=1)
    for j in range(2):
        for k in range(2):
            raising = space.lowering(k).conj().T
            comm = space.lowering(j) @ raising - raising @ space.lowering(j)
            target = np.eye(space.dim) if j == k else np.zeros((space.dim, space.dim))
            block = (comm - target)[np.ix_(interior, interior)]
            assert np.abs(block).max() < 1e-13


def test_free_hamiltonian_diagonal():
    space = TruncatedBosonSpace([1.0, 3.0], 2)
    H = space.free_hamiltonian()
    occ = space.occupations()
    assert np.allclose(H, np.diag(occ @ np.array([1.0, 3.0])))
    Hmu = space.free_hamiltonian(chemical_potential=0.5)
    assert np.allclose(Hmu, np.diag(occ @ np.array([0.5, 2.5])))


def test_segal_field_zero_vector():
    space = TruncatedBosonSpace([1.0, 1.0], 2)
    assert np.abs(space.segal_field(np.zeros(2))).max() == 0.0


def test_annihilator_is_antilinear_in_argument():
    space = TruncatedBosonSpace([1.0, 2.0], 3)
    f = np.array([0.3 + 0.4j, -0.2j])
    a_scaled = space.annihilator(2j * f)
    assert np.abs(a_scaled - np.conj(2j) * space.annihilator(f)).max() < 1e-14


def test_vacuum_weyl_value_coherent_oracle():
    """<vac| e^{i phi(f)} |vac> = e^{-|f|^2/4} for a single mode."""
    space = TruncatedBosonSpace([1.0], 30)
    f = np.array([1.0])
    W = space.weyl(f)
    vac = np.eye(space.dim)[0]
    val = vac @ W @ vac
    assert abs(val - np.exp(-0.25)) < 1e-6


def test_weyl_unitary():
    space = TruncatedBosonSpace([1.0, 2.0], 6)
    W = space.weyl(np.array([0.4 - 0.1j, 0.7j]))
    assert unitary_defect(W) < 1e-10


@pytest.mark.parametrize("num_modes,cap", [(2, 6), (3, 4)])
def test_weyl_matches_dense_exponential_of_segal_field(num_modes, cap):
    rng = np.random.default_rng(num_modes)
    space = TruncatedBosonSpace(np.ones(num_modes), cap)
    f = rng.standard_normal(num_modes) + 1j * rng.standard_normal(num_modes)
    dense = expm_hermitian(space.segal_field(f), prefactor=1j)
    assert np.linalg.norm(space.weyl(f) - dense) < 1e-13


def test_mode_weyl_stacks_over_any_shape():
    f = np.array([[0.3 + 0.1j, -0.2j], [0.0, 1.1]])
    stacked = mode_weyl(f, 5)
    assert stacked.shape == (2, 2, 6, 6)
    single = TruncatedBosonSpace([1.0], 5)
    for idx in np.ndindex(f.shape):
        assert np.abs(stacked[idx] - single.weyl([f[idx]])).max() < 1e-15
    assert np.abs(stacked[1, 0] - np.eye(6)).max() < 1e-15
    with pytest.raises(ValueError):
        mode_weyl(f, 0)


def test_thermal_weyl_value_matches_quadratic_form():
    """Gibbs expectation of W(f) equals exp(-I/4) with
    I = <f, (1+u)/(1-u) f>, u = e^{-beta omega}, in the large-cap limit."""
    freqs = np.array([1.0, 1.7])
    beta = 1.2
    f = np.array([0.5 + 0.2j, -0.3j])
    u = np.exp(-beta * freqs)
    I = float(np.sum(np.abs(f) ** 2 * (1.0 + u) / (1.0 - u)))
    space = TruncatedBosonSpace(freqs, 18)
    rho, _ = gibbs(space.free_hamiltonian(), beta)
    val = np.trace(space.weyl(f) @ rho)
    assert abs(val - np.exp(-I / 4.0)) < 1e-8


def test_invalid_inputs():
    with pytest.raises(ValueError):
        TruncatedBosonSpace([1.0], 0)
    with pytest.raises(ValueError):
        TruncatedBosonSpace([-1.0], 2)
    space = TruncatedBosonSpace([1.0], 2)
    with pytest.raises(ContractViolation):
        space.annihilator(np.array([1.0, 2.0]))
