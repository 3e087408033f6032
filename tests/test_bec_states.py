import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from hpbec import bec_states, couplings, phonon_gas
from hpbec.dispersion import quadratic_dispersion
from hpbec.errors import InfraredDivergence
from hpbec.testfunctions import gaussian_test_function
from references import angular_identity_check, bessel_identity_check, gaussian_norm_sq

DISP = quadratic_dispersion()
BETA = 1.0


def make_phase(r=1.0, theta=0.5, rho0=0.05, dimension=3):
    return bec_states.CondensatePhase(r, theta, rho0, dimension)


def test_q0_one_dimensional_closed_form():
    """d = 1, rho_0 = 0.1, unit zero mode: q0 = 2 (2 pi) 0.1 = 1.2566..."""
    phase = make_phase(rho0=0.1, dimension=1)
    f = gaussian_test_function(1, width=1.0, amplitude=1.0)  # fhat(0) = 1
    q0 = bec_states.q_form("q0", f, quadratic_dispersion(dimension=1), BETA, phase=phase)
    assert q0 == pytest.approx(0.4 * np.pi, rel=1e-12)


def test_q0_scales_with_amplitude_squared():
    phase = make_phase()
    f = gaussian_test_function(3, width=0.9, amplitude=0.7)
    a = bec_states.q_form("q0", f, DISP, BETA, phase=phase)
    b = bec_states.q_form("q0", f.scaled(3.0), DISP, BETA, phase=phase)
    assert b == pytest.approx(9.0 * a, rel=1e-12)


def test_q2_approaches_norm_at_large_fugacity():
    f = gaussian_test_function(3, center=[0.3, 0.0, 0.0], width=0.9)
    q2 = bec_states.q_form("q2", f, DISP, BETA, t=1e6)
    assert q2 == pytest.approx(gaussian_norm_sq(f), rel=1e-5)


def test_q2_at_unit_fugacity_is_q1():
    """q2 at t = 0 is the q1 integral, so it is the q1 memo's value (a hit), and
    q2 just above t = 0 approaches it; a negative t is refused."""
    f = gaussian_test_function(3, center=[0.2, -0.1, 0.0], width=1.1)
    bec_states._q1.cache_clear()
    q1 = bec_states.q_form("q1", f, DISP, BETA)
    q2 = bec_states.q_form("q2", f, DISP, BETA, t=0.0)
    assert np.float64(q2).tobytes() == np.float64(q1).tobytes()
    assert bec_states._q1.cache_info()[:2] == (1, 1)
    assert bec_states.q_form("q2", f, DISP, BETA, t=1e-10) == pytest.approx(q1, rel=1e-3)
    with pytest.raises(ValueError, match="must be >= 0"):
        bec_states.q_form("q2", f, DISP, BETA, t=-1e-10)


def test_q1_memo_is_shared_by_the_gauge_orbit():
    """q1 sees f only through |A|^2, center and width, so a phase-rotated f
    hits the memo, and the hit is the cold quadrature of the rotated f itself."""
    f = gaussian_test_function(3, center=[0.2, -0.1, 0.3], width=0.8, amplitude=0.4 - 0.3j)
    bec_states._q1.cache_clear()
    bec_states.gauge_shift_check(bec_states.CondensatePhase(1.0, 0.3, 0.05), f, 0.7, DISP, BETA)
    assert bec_states._q1.cache_info()[:2] == (1, 1)
    for alpha in (0.0, 0.7, np.pi, -2.0):
        g = f.scaled(np.exp(1j * alpha))
        cold = bec_states._q1.__wrapped__(g, DISP, BETA)
        assert np.float64(bec_states.q_form("q1", g, DISP, BETA)).tobytes() == np.float64(cold).tobytes()
    assert bec_states._q1.cache_info()[:2] == (5, 1)


def test_q1_infrared_divergence_gapless_low_dimension():
    gapless1 = quadratic_dispersion(omega0=0.0, dimension=1)
    f = gaussian_test_function(1, width=1.0)
    with pytest.raises(InfraredDivergence):
        bec_states.q_form("q1", f, gapless1, BETA)


def test_psi_values_in_unit_interval():
    phase = make_phase()
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = gaussian_test_function(
            3, center=rng.normal(scale=0.4, size=3), width=float(rng.uniform(0.6, 1.5)),
            amplitude=complex(rng.normal(), rng.normal()) * 0.5,
        )
        v = bec_states.psi_bec(f, DISP, BETA, phase)
        assert 0.0 < v <= 1.0
        assert abs(bec_states.psi_fiber(phase, f, DISP, BETA)) <= 1.0
        assert 0.0 < bec_states.psi_normal(f, DISP, BETA, 0.5) <= 1.0


def test_psi_is_one_at_zero_test_function():
    phase = make_phase()
    f = gaussian_test_function(3, amplitude=0.0)
    assert bec_states.psi_bec(f, DISP, BETA, phase) == pytest.approx(1.0)
    assert bec_states.psi_fiber(phase, f, DISP, BETA) == pytest.approx(1.0)


def test_fingerprint_conjugates_under_phase_flip():
    phase = make_phase(r=2.0, theta=0.8)
    f = gaussian_test_function(3, width=0.9, amplitude=0.6 + 0.2j)
    a = bec_states.e_fingerprint(phase, f)
    b = bec_states.e_fingerprint(phase.with_angles(theta=phase.theta + np.pi), f)
    assert abs(a) == pytest.approx(1.0, rel=1e-14)
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_chi_measure_total_mass_one():
    total = bec_states.chi_average(lambda r, th: 1.0)
    assert abs(total - 1.0) < 1e-12


def test_decomposition_identity_random_suite():
    phase = make_phase(r=1.0, theta=0.3)
    rng = np.random.default_rng(9)
    for _ in range(4):
        f = gaussian_test_function(
            3, center=rng.normal(scale=0.4, size=3), width=float(rng.uniform(0.7, 1.4)),
            amplitude=complex(rng.normal(), rng.normal()) * 0.5,
        )
        assert bec_states.decomposition_gap(f, DISP, BETA, phase) < 1e-8


def test_gauge_shift_identity():
    phase = make_phase(r=1.7, theta=1.1)
    f = gaussian_test_function(3, center=[0.2, 0.0, 0.0], width=0.9, amplitude=0.8 - 0.1j)
    for alpha in (0.3, 1.9, -2.4):
        assert bec_states.gauge_shift_check(phase, f, alpha, DISP, BETA) < 1e-12


def _thermal_integral_mp(f, beta, kernel):
    """integral of |f(k)|^2 kernel(beta k^2) over R^3 at 20 digits, for the quadratic gap:
    the angular integral of the Gaussian is 4 pi sinh(z)/z with z = 2 k |c| / sigma^2."""
    with mpmath.workdps(20):
        c = mpmath.sqrt(sum(mpmath.mpf(x) ** 2 for x in f.center.tolist()))
        s2 = mpmath.mpf(f.width) ** 2

        def integrand(k):
            z = 2 * k * c / s2
            return k * k * mpmath.exp(-(k * k + c * c) / s2) * 4 * mpmath.pi * mpmath.sinh(z) / z * kernel(beta * k * k)

        value = abs(mpmath.mpc(f.amplitude)) ** 2 * mpmath.quad(integrand, [0, 0.5, 1, 2, 4, 8, mpmath.inf])
    return float(value)


def test_thermal_kernels_match_mpmath_on_random_gaussians():
    """q1's (1 + u)/(1 - u), u = e^{-beta F}, written with -expm1(-beta F) for 1 - u:
    no cancellation near k = 0, so on 12 random Gaussians, beta in [0.5, 2], each
    quadrature is within 2e-15 of the 20-digit integral."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        f = gaussian_test_function(3, center=rng.uniform(-1.0, 1.0, 3), width=rng.uniform(0.5, 1.5),
                                   amplitude=complex(*rng.uniform(-1.0, 1.0, 2)))
        beta = float(rng.uniform(0.5, 2.0))
        q1 = _thermal_integral_mp(f, beta, lambda x: 1 / mpmath.tanh(x / 2))
        assert bec_states.q_form("q1", f, DISP, beta) == pytest.approx(q1, rel=2e-15, abs=0)


def test_fiber_density_averages_to_total_density():
    """<r> = 1 under chi and the fiber density r rho_0 + rho_crit is affine in r,
    so the mean fiber density is the density at r = <r>: rho_0 + rho_crit."""
    rc = phonon_gas.rho_crit(DISP, BETA)
    phase = make_phase(rho0=rc)  # target density 2 rho_crit
    mean_r = bec_states.chi_average(lambda r, th: r)
    density = bec_states.fiber_density(phase.with_angles(r=mean_r.real), DISP, BETA)
    assert density == pytest.approx(2.0 * rc, rel=1e-10)
    assert abs(mean_r.imag) < 1e-14


def test_chi_average_broadcasts_separable_integrands():
    """Laguerre moments <r> = 1, <r^2> = 2 and the angular mean of cos^2 = 1/2
    are exact on the rule; r varies along the radial axis, theta along the other."""
    assert bec_states.chi_average(lambda r, th: r) == pytest.approx(1.0, abs=1e-12)
    assert bec_states.chi_average(lambda r, th: r * r) == pytest.approx(2.0, abs=1e-11)
    assert bec_states.chi_average(lambda r, th: np.cos(th) ** 2) == pytest.approx(0.5, abs=1e-14)
    assert bec_states.chi_average(lambda r, th: r * np.sin(th) ** 2) == pytest.approx(0.5, abs=1e-12)


def scalar_fingerprint_average(phase, f):
    """Per-node reference for the chi-average of the fingerprint: at each
    Laguerre node, the mean of e_fingerprint over the 256 angles."""
    nodes, weights = np.polynomial.laguerre.laggauss(64)
    thetas = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    total = 0.0 + 0.0j
    for r, w in zip(nodes, weights):
        total += w * np.mean([bec_states.e_fingerprint(phase.with_angles(r, th), f) for th in thetas])
    return total


def draw_with_q0(rng, phase, q0):
    """Random Gaussian (width in [1, 2], random centre and phase) with
    c |fhat(0)|^2 = q0."""
    width = float(rng.uniform(1.0, 2.0))
    modulus = np.sqrt(q0 / phase.amplitude) / width**3
    return gaussian_test_function(
        3, center=rng.normal(scale=0.4, size=3), width=width,
        amplitude=modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
    )


def test_chi_average_of_fingerprint_matches_scalar_rule():
    phase = make_phase(r=1.0, theta=0.3)
    rng = np.random.default_rng(17)
    for q0 in (1.0, 20.0, 150.0, 400.0):
        f = draw_with_q0(rng, phase, q0)
        avg = bec_states.chi_average(
            lambda r, th: bec_states._fingerprint(phase.amplitude, r, th, f.zero_mode)
        )
        assert abs(avg - scalar_fingerprint_average(phase, f)) <= 1e-15


def test_the_folded_average_is_the_full_grid_rule():
    """decomposition_gap's half-angle mean of cosines is chi_average of the
    fingerprint on the whole 64 x 256 grid, aliasing above c |fhat(0)|^2 ~ 500
    included: at 1000 both still miss e^{-q0/4} by 0.15."""
    phase = make_phase(r=1.0, theta=0.3)
    rng = np.random.default_rng(31)
    for q0 in (1.0, 20.0, 150.0, 400.0, 1000.0):
        f = draw_with_q0(rng, phase, q0)
        c, zero_mode = phase.amplitude, f.zero_mode
        folded = bec_states._fingerprint_average(c, zero_mode)
        full = bec_states.chi_average(lambda r, th: bec_states._fingerprint(c, r, th, zero_mode))
        assert abs(folded - full) <= 1e-15
        assert (abs(folded - np.exp(-0.25 * q0)) > 0.1) == (q0 == 1000.0)


def test_chi_rule_is_read_only():
    """The cached rule is shared by every call, so an integrand cannot write to it."""
    seen = []
    bec_states.chi_average(lambda r, th: seen.extend([r, th]) or 1.0)
    for array in seen + list(bec_states._chi_rule(64, 256)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert bec_states.chi_average(lambda r, th: r) == pytest.approx(1.0, abs=1e-12)


def test_chi_rule_is_built_once_per_size(monkeypatch):
    calls = []
    laggauss = bec_states.laggauss

    def counted(n):
        calls.append(n)
        return laggauss(n)

    monkeypatch.setattr(bec_states, "laggauss", counted)
    bec_states._chi_rule.cache_clear()
    rng = np.random.default_rng(29)
    phase = make_phase()
    for _ in range(6):
        f = draw_with_q0(rng, phase, float(rng.uniform(1.0, 100.0)))
        bec_states.decomposition_gap(f, DISP, BETA, phase)
    for size in ((64, 256), (32, 256), (64, 128), (32, 256)):
        assert bec_states.chi_average(lambda r, th: 1.0, *size) == pytest.approx(1.0, abs=1e-12)
    assert calls == [64, 32, 64]


def test_decomposition_gap_at_the_thermal_factor_floor():
    """Divided by e^{-q1/4}, the gap is the chi-rule's own error, which stays at
    roundoff for c |fhat(0)|^2 up to 400."""
    rc = phonon_gas.rho_crit(DISP, BETA)
    phase = bec_states.CondensatePhase(0.0, 0.0, rc)
    rng = np.random.default_rng(23)
    for q0 in np.concatenate([[1.0, 400.0], rng.uniform(1.0, 400.0, size=8)]):
        f = draw_with_q0(rng, phase, q0)
        assert bec_states.q_form("q0", f, DISP, BETA, phase=phase) == pytest.approx(q0, rel=1e-12)
        thermal = np.exp(-0.25 * bec_states.q_form("q1", f, DISP, BETA))
        assert bec_states.decomposition_gap(f, DISP, BETA, phase) / thermal <= 1e-11


def test_decomposition_gap_makes_one_quadrature(monkeypatch):
    bec_states._q1.cache_clear()
    calls = []
    quadrature = couplings.radial_reduced_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(couplings, "radial_reduced_integral", counted)
    f = gaussian_test_function(3, center=[0.2, -0.1, 0.3], width=1.2, amplitude=0.4 - 0.3j)
    bec_states.decomposition_gap(f, DISP, BETA, make_phase())
    assert len(calls) == 1


def test_fingerprint_recovery_round_trip():
    phase = make_phase()
    f1, f2 = bec_states.canonical_probe_pair(phase.amplitude)
    rng = np.random.default_rng(4)
    for _ in range(20):
        ph = phase.with_angles(float(rng.uniform(0.05, 9.0)), float(rng.uniform(0.0, 2 * np.pi)))
        rec = bec_states.fingerprint_recover(
            bec_states.e_fingerprint(ph, f1), bec_states.e_fingerprint(ph, f2)
        )
        assert rec.theta_determined
        assert rec.r == pytest.approx(ph.r, abs=1e-10)
        assert np.mod(rec.theta - ph.theta + np.pi, 2 * np.pi) - np.pi == pytest.approx(0.0, abs=1e-10)


def test_fingerprint_recovery_degenerate_origin():
    rec = bec_states.fingerprint_recover(1.0 + 0.0j, 1.0 + 0.0j)
    assert rec.r == 0.0
    assert not rec.theta_determined


def test_canonical_probes_have_unit_and_imaginary_zero_modes():
    c = make_phase().amplitude
    f1, f2 = bec_states.canonical_probe_pair(c)
    assert np.sqrt(c) * f1.zero_mode == pytest.approx(1.0, rel=1e-12)
    assert np.sqrt(c) * f2.zero_mode == pytest.approx(1j, rel=1e-12)


def test_injectivity_rank_gap_positive():
    atoms = [(0.5, 0.3), (1.5, 2.0), (3.0, 4.5)]
    zero_modes = [1.0, 1j, 0.7 + 0.7j, 0.4 - 1.1j]
    assert bec_states.injectivity_rank_gap(atoms, zero_modes) > 1e-3


def test_bessel_laplace_identity_examples():
    assert bessel_identity_check(1.0, 4.0) < 1e-9
    assert bessel_identity_check(2.5, 0.0) < 1e-9


def test_angular_average_identity_examples():
    assert angular_identity_check(3.0, 4.0) < 1e-10


def test_combined_limit_normal_regime():
    """Finite-volume Weyl values approach the normal-phase characteristic value."""
    from hpbec import condensation

    rc = phonon_gas.rho_crit(DISP, BETA)
    rho = 0.5 * rc
    rep = condensation.classify_phase(rho, BETA, DISP)
    f = gaussian_test_function(3, center=[0.4, 0.0, 0.0], width=0.8)
    out = bec_states.combined_limit((8.0, 16.0, 32.0), f, DISP, BETA, rho, rep)
    assert all(0.0 < abs(v) <= 1.0 for v in out.finite_values)
    assert out.gaps[-1] < out.gaps[0]
    assert out.gaps[-1] < 2e-2


def test_combined_limit_reaches_large_boxes():
    """L = 10..640 in the condensed phase: the gaps halve per doubling (O(1/L)),
    and the shell-summed Weyl form keeps the whole ladder within seconds and
    O(L^2) memory (the per-mode cube at L = 640 holds ~1e9 modes)."""
    from hpbec import condensation

    rc = phonon_gas.rho_crit(DISP, BETA)
    rep = condensation.classify_phase(2.0 * rc, BETA, DISP)
    f = gaussian_test_function(3, center=[0.3, -0.2, 0.1], width=0.9, amplitude=0.6 + 0.2j)
    tracemalloc.start()
    t0 = time.perf_counter()
    out = bec_states.combined_limit((10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0), f, DISP, BETA, 2.0 * rc, rep)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert seconds < 5.0
    assert peak < 150 * 2**20
    assert out.monotone
    assert out.gaps[-2] / out.gaps[-1] == pytest.approx(2.0, rel=0.05)
    assert out.gaps[-1] < 2.5e-4


def test_invalid_phase_parameters():
    with pytest.raises(ValueError):
        bec_states.CondensatePhase(-0.1, 0.0, 0.05)
    with pytest.raises(ValueError):
        bec_states.CondensatePhase(1.0, 0.0, 0.0)
    with pytest.raises(OverflowError, match="condensate density"):  # c = 2 (2 pi)^3 rho_0 is inf
        bec_states.CondensatePhase(1.0, 0.0, np.float64(1e308))
    with pytest.raises(ValueError):
        bec_states.q_form("q3", gaussian_test_function(3), DISP, BETA)
