import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from hpbec import couplings
from hpbec.couplings import (
    CouplingFamily,
    coupling_overlap,
    gaussian_density_integral,
    overlap_matrix,
    radial_reduced_integral,
)
from hpbec.dispersion import quadratic_dispersion
from hpbec.errors import InfraredDivergence
from hpbec.testfunctions import gaussian_test_function
from references import cross_overlap, gaussian_norm_sq
from test_numerics import count_integrand_values

DISP = quadratic_dispersion()


def polar_grid_overlap(family, m, x, y, kappa, nk=3001, nu=401, k_max=9.0):
    """Independent Riemann oracle in polar coordinates aligned with the site axis.

    Handles the sharp |k| >= kappa cutoff exactly by starting the radial grid
    there (a uniform Cartesian grid converges too slowly across the cut
    sphere).  d = 3 only.
    """
    dx = float(x - y)
    ks = np.linspace(kappa, k_max, nk)
    us = np.linspace(-1.0, 1.0, nu)
    w = (ks**2 + 1.0) ** (2 * m) * ks**2 * np.exp(-(ks**2) / family.uv_width**2)
    phase = np.exp(1j * np.outer(ks, us) * dx)
    inner = simpson(phase, x=us, axis=1)
    return 2.0 * np.pi * simpson(w * inner, x=ks)


def test_constant_coupling_overlap_is_norm():
    """x-independent couplings (single site) give G_xy = ||lambda||^2."""
    fam = CouplingFamily(1, 3, 2.0, 0.0)
    val = coupling_overlap(fam, DISP, 0.0, 0, 0)
    # ||lambda||^2 = integral e^{-|k|^2 / uv^2} dk = (sqrt(pi) uv)^3
    assert val.real == pytest.approx((np.sqrt(np.pi) * 2.0) ** 3, rel=1e-10)
    assert abs(val.imag) < 1e-12


def test_overlap_matches_polar_grid_oracle():
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    got = coupling_overlap(fam, DISP, -0.5, 0, 1)
    oracle = polar_grid_overlap(fam, -0.5, 0, 1, 0.5)
    assert abs(got - oracle) / abs(oracle) < 1e-6


def test_overlap_matches_cartesian_grid_oracle_no_cutoff():
    """Without the cutoff the integrand is smooth and a plain Cartesian
    Riemann sum is spectrally accurate."""
    fam = CouplingFamily(2, 3, 2.0, 0.0)
    got = coupling_overlap(fam, DISP, -0.5, 0, 1)
    ax = np.arange(-9.0, 9.0 + 0.1, 0.2)
    ky, kz = np.meshgrid(ax, ax, indexing="ij")
    total = 0.0 + 0.0j
    for kx in ax:
        k2 = kx**2 + ky**2 + kz**2
        total += ((k2 + 1.0) ** -1.0 * np.exp(-k2 / 4.0)).sum() * np.exp(1j * kx)
    oracle = total * 0.2**3
    assert abs(got - oracle) / abs(oracle) < 1e-9


def test_diagonal_overlap_real_nonnegative():
    fam = CouplingFamily(3, 3, 2.0, 0.5)
    for x in range(3):
        v = coupling_overlap(fam, DISP, -0.5, x, x)
        assert abs(v.imag) < 1e-12
        assert v.real > 0


def test_overlap_hermitian_pair():
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    a = coupling_overlap(fam, DISP, -0.5, 0, 1)
    b = coupling_overlap(fam, DISP, -0.5, 1, 0)
    assert abs(a - np.conj(b)) < 1e-10


def test_gram_matrix_positive_semidefinite():
    fam = CouplingFamily(3, 3, 2.0, 0.5)
    G = overlap_matrix(fam, DISP, -0.5)
    assert G.min_eigenvalue() > -1e-10 * np.abs(G.entries).max()
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.real(np.conj(v) @ G.entries @ v) > -1e-10


@pytest.mark.parametrize("m", [0.0, -0.5])
@pytest.mark.parametrize("kappa", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_toeplitz_gram_matrix_equals_entrywise_overlaps(n, kappa, m):
    fam = CouplingFamily(n, 3, 2.0, kappa)
    ref = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for y in range(x, n):
            ref[x, y] = coupling_overlap(fam, DISP, m, x, y)
            ref[y, x] = np.conj(ref[x, y])
    assert np.array_equal(overlap_matrix(fam, DISP, m).entries, ref)


def test_infrared_divergence_massless_inverse():
    gapless = quadratic_dispersion(omega0=0.0)
    fam = CouplingFamily(2, 3, 2.0, 0.0)
    with pytest.raises(InfraredDivergence):
        coupling_overlap(fam, gapless, -1.0, 0, 1)
    # a positive cutoff restores finiteness
    val = coupling_overlap(CouplingFamily(2, 3, 2.0, kappa=0.5), gapless, -1.0, 0, 1)
    assert np.isfinite(val.real)


def test_cross_overlap_against_polar_oracle():
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    f = gaussian_test_function(3, center=[0.3, 0.0, 0.0], width=0.9, amplitude=0.7 + 0.4j)
    got = cross_overlap(fam, DISP, -0.5, f, 1)
    # polar oracle with axis along x (both the site offset and the center lie there)
    ks = np.linspace(0.5, 9.0, 4001)
    us = np.linspace(-1.0, 1.0, 801)
    K, U = np.meshgrid(ks, us, indexing="ij")
    kx = K * U
    perp2 = K**2 - kx**2
    fbar = np.conj(f.amplitude) * np.exp(-((kx - 0.3) ** 2 + perp2) / (2 * 0.81))
    lam = np.exp(-1j * kx * 1.0) * np.exp(-(K**2) / 8.0)
    w = (K**2 + 1.0) ** -1.0 * K**2
    inner = simpson(w * fbar * lam, x=us, axis=1)
    oracle = 2.0 * np.pi * simpson(inner, x=ks)
    assert abs(got - oracle) / abs(oracle) < 1e-6


def test_density_integral_reduces_to_norm():
    f = gaussian_test_function(3, center=[0.3, -0.2, 0.1], width=0.9, amplitude=0.7 + 0.4j)
    assert gaussian_density_integral(f) == pytest.approx(gaussian_norm_sq(f), rel=1e-10)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_radial_reduction_gaussian_closed_form(dimension):
    """integral e^{-gamma |k|^2 + k.c} dk = (pi/gamma)^{d/2} e^{|c|^2/(4 gamma)}."""
    gamma = 0.7
    c = np.array([0.4, -0.3, 0.2])[:dimension]
    got = radial_reduced_integral(dimension, 0.0, gamma, c)
    expected = (np.pi / gamma) ** (dimension / 2.0) * np.exp(np.sum(c * c) / (4 * gamma))
    assert got.real == pytest.approx(expected, rel=1e-9)
    assert abs(got.imag) < 1e-9 * expected


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_radial_reduction_imaginary_drift(dimension):
    """Fourier transform of the Gaussian: drift i*a gives e^{-|a|^2/(4 gamma)}."""
    gamma = 0.5
    a = np.array([1.0, 0.7, -0.4])[:dimension]
    got = radial_reduced_integral(dimension, 0.0, gamma, 1j * a)
    expected = (np.pi / gamma) ** (dimension / 2.0) * np.exp(-np.sum(a * a) / (4 * gamma))
    assert got.real == pytest.approx(expected, rel=1e-9)


def test_family_values_cutoff():
    fam = CouplingFamily(2, 3, 2.0, 0.5)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    vals = fam.values(1, pts)
    assert vals[0] == 0.0  # below the infrared cutoff
    assert vals[1] == pytest.approx(np.exp(-1j * 1.0) * np.exp(-1.0 / 8.0))


def test_family_invalid_parameters():
    with pytest.raises(ValueError):
        CouplingFamily(0)
    with pytest.raises(ValueError):
        CouplingFamily(2, 3, -1.0)
    with pytest.raises(ValueError):
        CouplingFamily(2, 3, 2.0, -0.1)


def overlap_row_oracle(uv_width, kappa, distance):
    """4 pi integral over k >= kappa of k^2 e^{-k^2/w^2} sin(k d)/(k d), by mpmath."""
    w, kap, d = mp.mpf(uv_width), mp.mpf(kappa), mp.mpf(distance)
    with mp.workdps(30):
        if distance == 0:
            radial = mp.quad(lambda k: k * k * mp.exp(-k * k / (w * w)), [kap, mp.inf])
        else:
            radial = mp.quad(lambda k: k * mp.exp(-k * k / (w * w)) * mp.sin(k * d) / d, [kap, mp.inf])
        return float(4 * mp.pi * radial)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
@pytest.mark.parametrize("uv_width", np.arange(2.25, 4.01, 0.25).tolist())
def test_overlap_matrix_meets_its_tolerance_at_wide_couplings(uv_width, kappa):
    """radial_reduced_integral asks for 1e-13 absolute, below the G7-K15
    estimator's floor of 50 eps integral |f| once uv_width passes about 2.25;
    integrate's own floor keeps the request reachable.  At kappa = 0, G is
    (pi w^2)^{3/2} e^{-w^2 d^2/4}."""
    G = overlap_matrix(CouplingFamily(3, 3, uv_width, kappa), DISP, 0.0).entries
    scale = np.abs(G).max()
    for d in range(3):
        if kappa == 0.0:
            want = (np.pi * uv_width**2) ** 1.5 * np.exp(-(uv_width**2) * d * d / 4.0)
        else:
            want = overlap_row_oracle(uv_width, kappa, d)
        assert abs(G[0, d] - want) <= 1e-14 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    num_sites=st.integers(1, 6),
    uv_width=st.floats(1.5, 4.0),
    kappa=st.floats(0.0, 1.0),
    m=st.sampled_from([0.0, 0.5, -0.5]),
    omega0=st.floats(0.5, 2.0),
)
def test_overlap_matrix_is_hermitian_positive_definite_property(num_sites, uv_width, kappa, m, omega0):
    """The Gram matrix of the site couplings is Hermitian and positive definite.

    On this box its smallest eigenvalue is lowest at the corner of 6 sites,
    uv_width 1.5, kappa 0, m = -1/2 and omega0 0.5, where it is 0.031 max|G|.
    """
    family = CouplingFamily(num_sites, 3, uv_width, kappa)
    G = overlap_matrix(family, quadratic_dispersion(omega0=omega0), m).entries
    scale = np.abs(G).max()
    assert np.abs(G - G.conj().T).max() <= 1e-13 * scale
    assert np.linalg.eigvalsh(G).min() >= 0.02 * scale


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_a_stack_of_drifts_is_each_drifts_integral(dimension):
    """One vector quadrature of a stack agrees with one call per drift, on the
    interval the widest drift needs."""
    rng = np.random.default_rng(dimension)
    drifts = rng.normal(size=(2, 3, dimension)) + 1j * rng.normal(size=(2, 3, dimension))
    weight = lambda k: (k * k + 1.0) ** -0.5  # noqa: E731
    got = radial_reduced_integral(dimension, 0.3, 0.8, drifts, weight, 0.5 - 0.2j)
    assert got.shape == (2, 3)
    for index in np.ndindex(2, 3):
        want = radial_reduced_integral(dimension, 0.3, 0.8, drifts[index], weight, 0.5 - 0.2j)
        assert abs(got[index] - want) <= 1e-12 * abs(want)


def test_the_overlap_row_is_one_quadrature_shared_by_every_entry(monkeypatch):
    """overlap_matrix integrates the chain's first Gram row in one stacked
    quadrature, and coupling_overlap reads its entry from the same row."""
    calls = []
    quadrature = couplings.radial_reduced_integral
    monkeypatch.setattr(couplings, "radial_reduced_integral", lambda *a: calls.append(a) or quadrature(*a))
    fam = CouplingFamily(5, 3, 2.0, 0.5)
    G = overlap_matrix(fam, DISP, -0.5).entries
    assert len(calls) == 1 and np.shape(calls[0][3]) == (5, 3)
    for x in range(5):
        for y in range(5):
            assert coupling_overlap(fam, DISP, -0.5, x, y) == G[x, y]
    with pytest.raises(ValueError):
        coupling_overlap(fam, DISP, -0.5, 0, 5)


@pytest.mark.parametrize("kappa, m, budget", [(0.0, 0.0, 3780), (0.5, -0.5, 3210)])
def test_the_overlap_row_refines_each_distance_on_its_own_panels(monkeypatch, kappa, m, budget):
    """A distance whose integral has converged is not evaluated again when a
    farther, more oscillatory one needs more panels: 8 sites in d = 3 compute
    at most `budget` integrand values, where one panel set shared by the
    stack computed 6,000 and 4,560."""
    counts = count_integrand_values(monkeypatch)
    overlap_matrix(CouplingFamily(8, 3, 2.0, kappa), DISP, m)
    assert sum(counts) <= budget


def test_the_folded_planar_angular_rule_is_the_256_angle_trapezoid():
    """In d = 2 the angular mean of exp(kz cos theta) is the trapezoid rule on
    256 angles, summed as cosh over the quarter circle by the rule's symmetry."""
    rng = np.random.default_rng(11)
    k = rng.uniform(0.0, 12.0, size=(7, 15))
    theta = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    for z in (0.0, 0.3, 10.0, 5j, 2.0 + 1.0j, -3.0 + 4.0j):
        full = 2.0 * np.pi * np.exp(np.multiply.outer(k * z, np.cos(theta))).mean(axis=-1)
        assert np.abs(couplings._angular_factor(2, k, z) - full).max() <= 2e-15 * np.abs(full).max()
