import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hpbec import condensation, phonon_gas
from hpbec.dispersion import Dispersion, quadratic_dispersion, sphere_area, tabulated_dispersion
from hpbec.errors import BracketError, UnsolvableDensity
from hpbec.lattice import build_lattice_modes
from test_numerics import count_integrand_values

DISP = quadratic_dispersion()
# r = k^2 + 0.3 k^3/(1+k) + 1: quadratic near 0, 1.3 k^2 far out, so
# rho_crit is no power law of beta and log rho_crit(log beta) is curved.
_K = np.linspace(0.0, 12.0, 400)
CURVED = tabulated_dispersion(_K, _K**2 + 0.3 * _K**3 / (1.0 + _K) + 1.0)
SAMPLES = np.geomspace(1e-3, 1e3, 9)  # critical_temperature's default sample


def test_fugacity_round_trip():
    """Plant y* = 2 (t* = 1), compute its density, solve back."""
    L, beta = 8.0, 1.0
    modes = build_lattice_modes(L, DISP, beta)
    rho = phonon_gas.lattice_density(modes, 1.0)
    sol = condensation.solve_fugacity(L, rho, beta, DISP)
    assert sol.t == pytest.approx(1.0, rel=1e-12)
    assert sol.residual <= condensation.RESIDUAL_TOL


def test_fugacity_round_trip_with_infrared_number():
    L, beta, n_ir = 6.0, 0.8, 1.7
    modes = build_lattice_modes(L, DISP, beta)
    rho = phonon_gas.lattice_density(modes, 0.4, n_ir)
    sol = condensation.solve_fugacity(L, rho, beta, DISP, n_ir=n_ir)
    assert sol.t == pytest.approx(0.4, rel=1e-11)
    assert sol.infrared_density == pytest.approx(n_ir / L**3)


def test_fugacity_satisfies_bracket_bound():
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    for L in (5.0, 10.0, 20.0):
        sol = condensation.solve_fugacity(L, rho, 1.0, DISP)
        assert 0.0 < sol.t <= sol.bracket_bound


def test_fugacity_root_unique_by_grid_scan():
    """Sign changes of the residual on a dense t-grid: exactly one."""
    L, beta = 7.0, 1.0
    modes = build_lattice_modes(L, DISP, beta)
    rho = 1.5 * phonon_gas.rho_crit(DISP, beta)
    sol = condensation.solve_fugacity(L, rho, beta, DISP)
    ts = np.linspace(1e-9, sol.bracket_bound + 1.0, 4001)
    vals = np.array([phonon_gas.lattice_density(modes, t) - rho for t in ts])
    assert np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])) == 1


def test_fugacity_rejects_density_below_infrared_floor():
    with pytest.raises(UnsolvableDensity):
        condensation.solve_fugacity(5.0, 0.001, 1.0, DISP, n_ir=10.0)


def test_classify_phase_trichotomy():
    rc = phonon_gas.rho_crit(DISP, 1.0)
    cond = condensation.classify_phase(2.0 * rc, 1.0, DISP)
    assert cond.phase == "condensed"
    assert cond.condensate_density == pytest.approx(rc, rel=1e-12)
    assert cond.t == 0.0 and cond.normal_fugacity == 1.0

    crit = condensation.classify_phase(rc, 1.0, DISP)
    assert crit.phase == "critical"
    assert crit.t == 0.0 and crit.normal_fugacity == 1.0

    norm = condensation.classify_phase(0.5 * rc, 1.0, DISP)
    assert norm.phase == "normal"
    assert norm.t > 0.0 and norm.normal_fugacity == 1.0 + norm.t
    assert norm.condensate_density == 0.0


def test_normal_fugacity_solves_continuum_equation():
    rc = phonon_gas.rho_crit(DISP, 1.0)
    rep = condensation.classify_phase(0.5 * rc, 1.0, DISP)
    back = phonon_gas.rho_fr(DISP, 1.0, rep.t)
    assert back == pytest.approx(0.5 * rc, rel=1e-10)


def _mpmath_normal_t(rho, beta):
    """The t with Li_{3/2}(1/(1 + t)) (4 pi beta)^{-3/2} = rho on the quadratic gas, at 60
    digits, solved in s = sqrt(t), where the density is smooth at the pole."""
    with mpmath.workdps(60):
        scale = (4 * mpmath.pi * mpmath.mpf(beta)) ** -1.5
        s = mpmath.findroot(
            lambda s: mpmath.polylog(1.5, 1 / (1 + s * s)) * scale - mpmath.mpf(rho),
            (mpmath.mpf(0), mpmath.sqrt(mpmath.mpf(phonon_gas.rho_crit(DISP, beta)) / rho - 1)), solver="anderson",
        )
        return s * s


@pytest.mark.parametrize("gap, t_star", [(1e-7, 5.4308e-15), (1e-6, 5.4308e-13)])
def test_near_critical_normal_fugacity_is_within_an_ulp_of_the_root(gap, t_star):
    """Just below rho_crit the root sits tens of ulps above y = 1, inside the
    Bose pole's width; classify_phase still returns it to within one ulp."""
    rho = (1.0 - gap) * phonon_gas.rho_crit(DISP, 1.0)
    rep = condensation.classify_phase(rho, 1.0, DISP)
    root = 1 + _mpmath_normal_t(rho, 1.0)
    assert float(root - 1) == pytest.approx(t_star, rel=1e-4)
    assert rep.phase == "normal"
    assert abs(mpmath.mpf(rep.normal_fugacity) - root) <= np.spacing(rep.normal_fugacity)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gap, rtol", [(1e-7, 1e-8), (1e-10, 1e-4)])
def test_normal_root_is_resolved_in_t_near_rho_crit(beta, gap, rtol):
    """At beta = 1 the root is t = 5.4e-15 at (1 - 1e-7) rho_crit, 24 ulps of y = 1 + t,
    and 5.4e-21 at (1 - 1e-10) rho_crit, far below one.  Solved in t, each is normal
    and within rtol of the 60-digit root, a miss set by the quadrature errors of
    rho_crit and rho_fr, not by the rounding of y."""
    rho = (1.0 - gap) * phonon_gas.rho_crit(DISP, beta)
    rep = condensation.classify_phase(rho, beta, DISP)
    assert rep.phase == "normal"
    exact = _mpmath_normal_t(rho, beta)
    assert abs(rep.t - exact) <= rtol * exact


def test_the_critical_band_is_as_narrow_at_large_beta():
    """At beta = 1e3 rho_crit is 1.85e-6 and 0.9995 rho_crit lies 9.3e-10 below it; the
    band is rho_crit's certified error, 1.1e-14 of it as at every beta, so the target
    is normal, with t = 1.36e-7."""
    rc = phonon_gas.rho_crit(DISP, 1e3)
    rep = condensation.classify_phase(0.9995 * rc, 1e3, DISP)
    assert rep.phase == "normal"
    assert rep.t > 0.0


@pytest.mark.parametrize("disp", [quadratic_dispersion(), CURVED], ids=["quadratic", "curved"])
@pytest.mark.parametrize("beta", [1e-3, 0.5, 1.0, 2.0, 1e3])
def test_critical_exactly_within_rho_crits_certified_error(disp, beta):
    """rho_crit itself is critical at every beta; three of its certified errors away
    on either side it is not."""
    rc = phonon_gas.rho_crit_quadrature(disp, beta)
    assert rc.error > 0.0
    assert condensation.classify_phase(rc.value, beta, disp).phase == "critical"
    assert condensation.classify_phase(rc.value + 3.0 * rc.error, beta, disp).phase == "condensed"
    assert condensation.classify_phase(rc.value - 3.0 * rc.error, beta, disp).phase == "normal"


def _rho_fr_slope(disp, beta, t):
    """|d rho_fr / dt| at y = 1 + t: the radial integral of k^{d-1} e^{beta F} / (y e^{beta F} - 1)^2
    by scipy's quad, on pieces graded by 4 from the pole's width sqrt(t / beta) up to beta F = 60."""
    d = disp.dimension

    def integrand(k):
        bf = beta * float(disp.gap(k))
        return k ** (d - 1) * np.exp(bf) / (np.expm1(bf) + t * np.exp(bf)) ** 2

    end = disp.gap_inverse(60.0 / beta)
    edges = [0.0, end]
    while edges[1] > math.sqrt(t / beta) / 4.0:
        edges.insert(1, edges[1] / 4.0)
    total = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-6, limit=200)[0] for a, b in zip(edges, edges[1:]))
    return total * sphere_area(d) / (2.0 * np.pi) ** d


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(t_star=st.floats(-20.0, 6.0).map(lambda e: 10.0**e), beta=st.floats(0.5, 2.0))
def test_normal_root_round_trips_property(t_star, beta):
    """Plant t*, set rho = rho_fr(1 + t*), classify it: the root is t* to its
    conditioning, rho_fr's certified error plus a few eps rho over |d rho_fr / dt|.
    Where that error covers rho_crit - rho the target is critical and t = 0, which
    is within the conditioning too: near the pole rho_crit - rho ~ 2 t |d rho_fr / dt|."""
    for disp in (DISP, CURVED):
        q = phonon_gas.rho_fr_quadrature(disp, beta, t_star)
        rep = condensation.classify_phase(q.value, beta, disp)
        conditioning = (q.error + 4.0 * np.finfo(float).eps * q.value) / _rho_fr_slope(disp, beta, t_star)
        assert abs(rep.t - t_star) <= conditioning


@pytest.mark.parametrize("disp", [quadratic_dispersion(), CURVED], ids=["quadratic", "curved"])
@pytest.mark.parametrize("y", [1.0 + 1e-12, 1.5, 10.0, 1e6])
def test_rho_fr_is_at_most_rho_crit_over_y(disp, y):
    """rho_fr(y) = sum_n a_n y^{-n} with every a_n > 0, so rho_fr(y) <= rho_crit / y:
    the upper end of classify_phase's bracket, t <= rho_crit / rho - 1."""
    t = y - 1.0
    assert phonon_gas.rho_fr(disp, 1.0, t) <= phonon_gas.rho_crit(disp, 1.0) / (1.0 + t)


def test_curved_rho_fr_refines_each_graded_piece_on_its_own_panels(monkeypatch):
    """Near the pole the 15 graded pieces of CURVED's rho_fr converge after
    different numbers of passes; a converged piece is not evaluated again, so
    the quadrature computes at most 4,300 integrand values, where one panel
    set shared by the pieces computed 26,550."""
    counts = count_integrand_values(monkeypatch)
    phonon_gas.rho_fr_quadrature(CURVED, 1.0, 1e-15)
    assert sum(counts) <= 4300


@pytest.mark.parametrize("scale", [1e-19, 0.0, -0.5])
def test_a_target_beyond_the_bracket_cap_raises_without_warnings(scale):
    """At 1e-19 rho_crit the root lies above t = 1e18, where the bracket stops;
    a target <= 0 has no root at all."""
    rho = scale * phonon_gas.rho_crit(DISP, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketError):
            condensation.classify_phase(rho, 1.0, DISP)


def test_condensed_sequence_approaches_excess_density():
    rc = phonon_gas.rho_crit(DISP, 1.0)
    seq = condensation.condensate_sequence((10.0, 20.0, 40.0), 2.0 * rc, 1.0, DISP)
    expected = rc  # rho_target - rho_crit
    gaps = [abs(d - expected) / expected for d in seq.condensate_densities]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert abs(seq.extrapolated - expected) / expected < 1e-2


def test_normal_sequence_condensate_vanishes():
    rc = phonon_gas.rho_crit(DISP, 1.0)
    seq = condensation.condensate_sequence((5.0, 10.0, 20.0), 0.5 * rc, 1.0, DISP)
    dens = seq.condensate_densities
    assert all(a > b for a, b in zip(dens, dens[1:]))
    assert dens[-1] < 0.05 * rc


def test_sequence_requires_increasing_boxes():
    with pytest.raises(ValueError):
        condensation.condensate_sequence((10.0, 10.0), 0.1, 1.0, DISP)
    with pytest.raises(ValueError):
        condensation.condensate_sequence((), 0.1, 1.0, DISP)


def test_critical_temperature_round_trip():
    for beta in (0.5, 1.0, 2.0):
        rc = phonon_gas.rho_crit(DISP, beta)
        beta_c, t_c = condensation.critical_temperature(rc, DISP)
        assert beta_c == pytest.approx(beta, abs=1e-8)
        assert t_c == pytest.approx(1.0 / beta, rel=1e-8)


def test_critical_density_decreases_with_beta():
    """Colder gas condenses at lower density (rho_crit ~ beta^{-d/2})."""
    vals = [phonon_gas.rho_crit(DISP, b) for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] / vals[1] == pytest.approx(2.0**1.5, rel=0.2)


def test_halving_density_lowers_critical_beta():
    """beta_c(rho) is decreasing in rho for this dispersion: denser gases
    condense at higher temperature."""
    rc = phonon_gas.rho_crit(DISP, 1.0)
    beta_half, _ = condensation.critical_temperature(0.5 * rc, DISP)
    beta_double, _ = condensation.critical_temperature(2.0 * rc, DISP)
    assert beta_double < 1.0 < beta_half


def test_randomized_fixtures_residual_and_bound():
    rng = np.random.default_rng(7)
    for _ in range(6):
        L = float(rng.uniform(4.0, 9.0))
        beta = float(rng.uniform(0.6, 1.8))
        rho = float(rng.uniform(0.3, 3.0)) * phonon_gas.rho_crit(DISP, beta)
        sol = condensation.solve_fugacity(L, rho, beta, DISP)
        assert sol.residual <= condensation.RESIDUAL_TOL
        assert sol.t <= sol.bracket_bound


def test_normal_sequence_extrapolates_to_zero():
    """Normal phase: N_b0 / L^d falls like L^-d, and so does the fitted law."""
    rc = phonon_gas.rho_crit(DISP, 1.0)
    seq = condensation.condensate_sequence((10.0, 20.0, 40.0, 80.0), 0.5 * rc, 1.0, DISP)
    assert seq.regime.phase == "normal"
    assert 0.0 <= seq.extrapolated <= 1e-7


def test_fugacity_solve_at_large_box():
    """L = 320 (1.2e8 modes, beyond reach of an enumerated cube) in a few seconds."""
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    t0 = time.perf_counter()
    sol = condensation.solve_fugacity(320.0, rho, 1.0, DISP)
    assert time.perf_counter() - t0 < 10.0
    assert sol.t == pytest.approx(5.1419e-7, rel=1e-4)
    assert sol.residual <= condensation.RESIDUAL_TOL


def _count_rho_crit(monkeypatch):
    betas = []
    rho_crit = phonon_gas.rho_crit

    def counted(disp, beta, num_internal=1):
        betas.append(float(beta))
        return rho_crit(disp, beta, num_internal)

    monkeypatch.setattr(phonon_gas, "rho_crit", counted)
    return betas


def test_critical_temperature_evaluates_each_beta_once(monkeypatch):
    """The sample interval that brackets the target seeds Brent in log-log:
    no beta twice, and one step for the exact power law of the quadratic gap."""
    betas = _count_rho_crit(monkeypatch)
    condensation.critical_temperature(0.05, DISP)
    assert len(betas) == len(set(betas)) == 10  # 9 samples + 1 Brent step


@pytest.mark.parametrize("index", [0, 4, 8])
def test_critical_temperature_returns_a_sample_that_hits_the_target(monkeypatch, index):
    """A target equal to rho_crit at a sample beta (first, interior, last) is
    solved by that sample, with no evaluation past the 9 samples."""
    rho = phonon_gas.rho_crit(DISP, SAMPLES[index])
    betas = _count_rho_crit(monkeypatch)
    beta_c, t_c = condensation.critical_temperature(rho, DISP)
    assert beta_c == SAMPLES[index] and t_c == 1.0 / SAMPLES[index]
    assert len(betas) == 9


def test_critical_temperature_raises_outside_or_without_monotonicity(monkeypatch):
    lo, hi = phonon_gas.rho_crit(DISP, SAMPLES[-1]), phonon_gas.rho_crit(DISP, SAMPLES[0])
    for rho in (0.0, -1.0, 0.5 * lo, 2.0 * hi):
        with pytest.raises(BracketError, match="outside"):
            condensation.critical_temperature(rho, DISP)
    monkeypatch.setattr(phonon_gas, "rho_crit", lambda disp, beta, num_internal=1: 1.0 + math.sin(beta))
    with pytest.raises(BracketError, match="not monotone"):
        condensation.critical_temperature(1.5, DISP)


def _solve_counted(rho, disp):
    with pytest.MonkeyPatch.context() as patch:
        betas = _count_rho_crit(patch)
        beta_c, t_c = condensation.critical_temperature(rho, disp)
    assert t_c == 1.0 / beta_c
    assert len(betas) == len(set(betas)) <= 14
    return beta_c


BETAS = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(beta=BETAS)
def test_critical_temperature_round_trip_property(beta):
    for disp in (DISP, CURVED):
        beta_c = _solve_counted(phonon_gas.rho_crit(disp, beta), disp)
        assert beta_c == pytest.approx(beta, rel=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(beta=BETAS)
def test_critical_temperature_against_the_closed_form_property(beta):
    """beta_c for rho = zeta(3/2) (4 pi beta)^{-3/2} is beta, to roundoff at
    every beta: rho_crit meets that form within its own error estimate (the
    quadratic gap is k^2 itself, with no (k^2 + 1) - 1 to cancel)."""
    rho = float(mpmath.zeta(1.5) * (4.0 * mpmath.pi * mpmath.mpf(beta)) ** -1.5)
    beta_c = _solve_counted(rho, DISP)
    assert beta_c == pytest.approx(beta, rel=1e-14)


def test_critical_temperature_meets_off_sample_targets_property():
    """On a gap that is no power law, rho_crit(beta_c) matches the target, on a fixed
    grid of 33 (beta, shift) pairs: beta = 10^e for 11 e in [-2, 2] and shifts -1e-3,
    0 and 1e-3.  The grid is fixed so that the budget of 14 rho_crit evaluations is
    checked on the same targets whatever the numbers written in the package."""
    for beta in 10.0 ** np.linspace(-2.0, 2.0, 11):
        for shift in (-1e-3, 0.0, 1e-3):
            rho = phonon_gas.rho_crit(CURVED, beta) * (1.0 + shift)
            beta_c = _solve_counted(rho, CURVED)
            assert abs(phonon_gas.rho_crit(CURVED, beta_c) / rho - 1.0) <= 1e-12


def test_classify_phase_finds_the_quadrature_range_once_per_beta(monkeypatch):
    """A normal-phase solve at fixed beta: rho_crit and every Brent step of
    rho_fr share the two gap inversions (beta F = 1 and beta F = 60)."""
    phonon_gas._quadrature_range.cache_clear()
    phonon_gas._rho_crit.cache_clear()
    calls = []
    gap_inverse = Dispersion.gap_inverse

    def counted(self, target):
        calls.append(target)
        return gap_inverse(self, target)

    monkeypatch.setattr(Dispersion, "gap_inverse", counted)
    steps = []
    rho_fr = phonon_gas.rho_fr
    monkeypatch.setattr(phonon_gas, "rho_fr", lambda *args: steps.append(args) or rho_fr(*args))
    disp = quadratic_dispersion()
    for beta in (0.7, 1.3):
        report = condensation.classify_phase(0.5 * phonon_gas.rho_crit(disp, beta), beta, disp)
        assert report.phase == "normal"
    assert len(steps) > 20
    assert calls == [1.0 / 0.7, 60.0 / 0.7, 1.0 / 1.3, 60.0 / 1.3]


def test_classify_phase_reuses_the_memoized_critical_density(monkeypatch):
    phonon_gas._rho_crit.cache_clear()
    betas = []
    quadrature = phonon_gas.rho_fr_quadrature

    def counted(disp, beta, t, num_internal=1):
        if t == 0.0:
            betas.append(float(beta))
        return quadrature(disp, beta, t, num_internal)

    monkeypatch.setattr(phonon_gas, "rho_fr_quadrature", counted)
    rc = phonon_gas.rho_crit(DISP, 1.0)
    reports = [condensation.classify_phase(scale * rc, 1.0, DISP) for scale in (0.5, 1.0, 2.0)]
    assert [r.phase for r in reports] == ["normal", "critical", "condensed"]
    assert all(r.critical_density == rc for r in reports)
    assert betas == [1.0]  # the quadrature behind rc; the three classifications reuse it


@pytest.mark.parametrize("box_size", [10.0, 40.0, 80.0, 160.0])
def test_newton_polish_stops_once_a_step_no_longer_moves_y(box_size):
    """The t the solve returns is a fixed point of its Newton step in u = 1/t: the
    step there, res / (t^2 f_L'(t)), does not move u up, so it does not move y = 1 + t
    either.  The step in t there is at most 4 eps rho / |f_L'(t)|, a few ulps of t,
    far below an ulp of the printed y."""
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    modes = build_lattice_modes(box_size, DISP, 1.0)
    sol = condensation.solve_fugacity(box_size, rho, 1.0, DISP)
    t = sol.t
    res = phonon_gas.lattice_density(modes, t) - rho
    assert abs(res) == sol.residual
    deriv = phonon_gas.lattice_density_derivative(modes, t)
    u = 1.0 / t
    assert not u + res / (t * t * deriv) > u
    assert abs(res / deriv) <= 4.0 * np.finfo(float).eps * rho / abs(deriv)


def _count_density_calls(monkeypatch):
    """Lists that collect the t of every lattice_density and lattice_density_derivative call."""
    evals, derivs = [], []
    density, derivative = phonon_gas.lattice_density, phonon_gas.lattice_density_derivative
    monkeypatch.setattr(phonon_gas, "lattice_density", lambda *a, **k: evals.append(a[1]) or density(*a, **k))
    monkeypatch.setattr(
        phonon_gas, "lattice_density_derivative", lambda *a, **k: derivs.append(a[1]) or derivative(*a, **k)
    )
    return evals, derivs


def test_fugacity_solve_counts_its_density_evaluations(monkeypatch):
    """One density evaluation at the certified lower end u = 1/bound and one per
    Newton step, one derivative per step and one more for the step that stops:
    at most 7 evaluations at rho = 2 rho_crit, where f_L is nearly linear in
    u = 1/t.  The iterates climb: t falls at every step."""
    evals, derivs = _count_density_calls(monkeypatch)
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    for L in (5.0, 10.0, 20.0, 40.0, 80.0):
        evals.clear(), derivs.clear()
        sol = condensation.solve_fugacity(L, rho, 1.0, DISP)
        assert len(evals) == len(derivs) == sol.newton_steps + 1 <= 7
        assert evals == sorted(evals, reverse=True) and evals[-1] == sol.t
        assert sol.tail_bound > 0.0


def test_normal_phase_solve_needs_few_density_evaluations(monkeypatch):
    """Below rho_crit the root sits far from the zero mode's regime, yet Newton from
    the lower end reaches it in at most 8 density evaluations."""
    evals, _ = _count_density_calls(monkeypatch)
    rho = 0.5 * phonon_gas.rho_crit(DISP, 1.0)
    for L in (20.0, 40.0, 80.0):
        evals.clear()
        sol = condensation.solve_fugacity(L, rho, 1.0, DISP)
        assert len(evals) == sol.newton_steps + 1 <= 8
        assert sol.residual <= 4.0 * np.finfo(float).eps * rho


def test_fugacity_solve_fails_loudly_outside_its_certificate(monkeypatch):
    """A lower end at which f_L already exceeds the target, and an iteration that
    is still climbing when its step budget runs out, each raise BracketError."""
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    monkeypatch.setattr(condensation, "NEWTON_BUDGET", 2)
    with pytest.raises(BracketError, match="still moving after 2 steps"):
        condensation.solve_fugacity(10.0, rho, 1.0, DISP)
    monkeypatch.setattr(condensation, "fugacity_bracket_bound", lambda *args: 1e-9)
    with pytest.raises(BracketError, match="positive at its certified lower end"):
        condensation.solve_fugacity(10.0, rho, 1.0, DISP)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    box_size=st.floats(4.0, 12.0),
    beta=st.floats(0.5, 2.0),
    t_star=st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
)
def test_fugacity_root_is_unique_and_round_trips_property(box_size, beta, t_star):
    """Plant t*, solve its density back: the solve returns t* to its conditioning,
    a few eps rho / |f_L'(t*)|, and f_L - rho has that one sign change on a grid
    over the bracket."""
    modes = build_lattice_modes(box_size, DISP, beta)
    rho = phonon_gas.lattice_density(modes, t_star)
    sol = condensation.solve_fugacity(box_size, rho, beta, DISP)
    conditioning = np.finfo(float).eps * rho / abs(phonon_gas.lattice_density_derivative(modes, t_star))
    assert abs(sol.t - t_star) <= 6.0 * conditioning
    assert sol.residual <= condensation.RESIDUAL_TOL
    ts = np.geomspace(1e-3 * sol.t, sol.bracket_bound + 1.0, 200)
    ts = ts[np.abs(ts / sol.t - 1.0) > 1e-6]
    signs = [np.sign(phonon_gas.lattice_density(modes, t) - rho) for t in ts]
    assert signs == [1.0 if t < sol.t else -1.0 for t in ts]


def test_former_rounding_floor_cases_solve_to_roundoff():
    """Four cases where rounding y = 1 + t to a double alone would move the zero-mode
    term N_i/(t L^d) by more than RESIDUAL_TOL (half an ulp of y over t^2 L^d, 2e-10
    to 6e-10): solved in t, each residual is at the roundoff of rho."""
    for beta, scale, box_size in ((0.1, 2.0, 80.0), (1.0, 100.0, 40.0), (0.3, 10.0, 80.0), (1.0, 2.0, 800.0)):
        rho = scale * phonon_gas.rho_crit(DISP, beta)
        sol = condensation.solve_fugacity(box_size, rho, beta, DISP)
        assert sol.residual <= 4.0 * np.finfo(float).eps * rho <= condensation.RESIDUAL_TOL
