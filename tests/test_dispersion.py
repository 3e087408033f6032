import numpy as np
import pytest

from hpbec.dispersion import (
    Dispersion,
    infrared_gap_integral,
    quadratic_dispersion,
    sphere_area,
    tabulated_dispersion,
    validate_dispersion,
)
from hpbec.errors import InfraredDivergence


def test_sphere_areas():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi)


def test_default_dispersion_passes_all_conditions():
    report = validate_dispersion(quadratic_dispersion(), beta=1.0)
    assert report.all_passed, [c.name for c in report.failed()]


def test_constant_profile_fails_monotonicity():
    disp = Dispersion(
        radial_profile=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        radial_derivative=lambda k: np.zeros_like(np.asarray(k, dtype=float)),
        radial_gap=lambda k: np.zeros_like(np.asarray(k, dtype=float)),
        dimension=3,
        growth_exponent=4.0,
    )
    report = validate_dispersion(disp, beta=1.0)
    failed = {c.name for c in report.failed()}
    assert "radial profile strictly increasing" in failed


def test_mu_b_at_omega0_fails_fugacity_floor():
    report = validate_dispersion(quadratic_dispersion(mu_b=1.0), beta=1.0)
    failed = {c.name for c in report.failed()}
    assert "omega_0 - mu_b > 0 (fugacity floor above 1)" in failed


def test_growth_exponent_condition():
    report = validate_dispersion(quadratic_dispersion(growth_exponent=2.0), beta=1.0)
    failed = {c.name for c in report.failed()}
    assert "growth exponent d0 > d" in failed


def test_infrared_integral_quadratic_closed_form():
    # integral over |k| <= 1 of dk / k^2 in d = 3 equals 4 pi
    disp = quadratic_dispersion()
    assert infrared_gap_integral(disp, radius=1.0) == pytest.approx(4.0 * np.pi, rel=1e-8)


def test_infrared_divergence_low_dimension():
    disp = quadratic_dispersion(dimension=2)
    with pytest.raises(InfraredDivergence):
        infrared_gap_integral(disp)


def test_gap_inverse_round_trip():
    disp = quadratic_dispersion()
    for target in (0.3, 2.0, 35.0):
        k = disp.gap_inverse(target)
        assert disp.gap(k) == pytest.approx(target, abs=1e-10)
    assert disp.gap_inverse(0.0) == 0.0


def test_infrared_exponent_quadratic():
    assert quadratic_dispersion().infrared_exponent() == pytest.approx(2.0, abs=1e-3)


def test_tabulated_matches_quadratic_between_samples():
    ks = np.linspace(0.0, 10.0, 400)
    disp = tabulated_dispersion(ks, ks**2 + 1.0)
    probe = np.linspace(0.05, 9.5, 57)
    assert np.abs(disp.omega(probe) - (probe**2 + 1.0)).max() < 2e-4
    # linear continuation beyond the last sample stays monotone
    assert disp.omega(12.0) > disp.omega(10.0)
    report = validate_dispersion(disp, beta=1.0, k_max=9.0)
    assert report.checks[0].passed  # strict monotonicity


def test_fugacity_floor():
    disp = quadratic_dispersion(mu_b=0.2)
    assert disp.fugacity_floor(2.0) == pytest.approx(np.exp(2.0 * 0.8))


def test_supplied_gap_integrates_the_k_to_the_minus_half_singularity():
    """With the gap k^2.5 supplied, not formed as (k^2.5 + 1) - 1 (which rounds to 0
    below k ~ 1e-6, where the k^{-1/2} singularity draws the quadrature), the
    integral over |k| <= 1 of k^{-2.5} is 4 pi * 2 = 8 pi and the check passes."""
    disp = Dispersion(
        radial_profile=lambda k: np.abs(k) ** 2.5 + 1.0,
        radial_derivative=lambda k: 2.5 * np.abs(k) ** 1.5,
        radial_gap=lambda k: np.abs(k) ** 2.5,
        dimension=3,
        growth_exponent=4.0,
    )
    assert infrared_gap_integral(disp) == pytest.approx(8.0 * np.pi, rel=1e-8)
    check = validate_dispersion(disp, beta=1.0).checks[2]
    assert check.name == "inverse gap integrable near k = 0"
    assert check.passed


def test_quadratic_dispersions_compare_and_hash_by_value():
    a, b = quadratic_dispersion(), quadratic_dispersion(omega0=1, mu_b=0.0)
    assert a == b and hash(a) == hash(b)
    assert quadratic_dispersion(omega0=2.0) != a
    assert quadratic_dispersion(mu_b=0.5) != a
    assert quadratic_dispersion(dimension=2) != a
    assert np.array_equal(a.omega(np.array([0.0, 0.5, 2.0])), [1.0, 1.25, 5.0])


def test_tabulated_dispersion_equals_only_itself():
    k = np.linspace(0.0, 4.0, 9)
    a, b = tabulated_dispersion(k, k**2 + 1.0), tabulated_dispersion(k, k**2 + 1.0)
    assert a == a and a != b


def test_tabulated_gap_does_not_cancel_near_zero():
    """The gap interpolates r - r(0) itself: it is r(k) - r(0) to rounding of r, and it
    stays positive and smooth at k where (r(k) - r(0)) rounds to 0 or to a few ulps of 1,
    so rho_crit of a tabulated gas at large beta is smooth in beta to roundoff."""
    from hpbec import phonon_gas

    ks = np.linspace(0.0, 12.0, 400)
    disp = tabulated_dispersion(ks, ks**2 + 0.3 * ks**3 / (1.0 + ks) + 1.0)
    grid = np.linspace(0.0, 14.0, 2001)
    assert np.allclose(disp.gap(grid), disp.radial_profile(grid) - 1.0, rtol=0.0, atol=4.0 * np.finfo(float).eps * 300)
    tiny = np.geomspace(1e-12, 1e-4, 9)
    assert disp.gap(0.0) == 0.0 and np.all(np.diff(disp.gap(tiny)) > 0.0) and disp.gap(1e-12) > 0.0
    beta = 86.0
    steps = np.arange(-5, 6)
    logs = np.log([phonon_gas.rho_crit_quadrature(disp, beta * (1.0 + j * 1e-11)).value for j in steps])
    line = np.polyval(np.polyfit(steps, logs, 1), steps)
    assert np.abs(logs - line).max() <= 1e-13
