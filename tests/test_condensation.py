import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbec import condensation, phonon_gas
from hpbec.dispersion import Dispersion, quadratic_dispersion, tabulated_dispersion
from hpbec.errors import BracketError, UnsolvableDensity
from hpbec.lattice import build_lattice_modes

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
    assert cond.y_infinity == 1.0

    crit = condensation.classify_phase(rc, 1.0, DISP)
    assert crit.phase == "critical"

    norm = condensation.classify_phase(0.5 * rc, 1.0, DISP)
    assert norm.phase == "normal"
    assert norm.normal_fugacity > 1.0
    assert norm.condensate_density == 0.0


def test_normal_fugacity_solves_continuum_equation():
    rc = phonon_gas.rho_crit(DISP, 1.0)
    rep = condensation.classify_phase(0.5 * rc, 1.0, DISP)
    back = phonon_gas.rho_fr(DISP, 1.0, rep.normal_fugacity)
    assert back == pytest.approx(0.5 * rc, rel=1e-10)


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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(beta=BETAS, shift=st.floats(-1e-3, 1e-3))
def test_critical_temperature_meets_off_sample_targets_property(beta, shift):
    """On a gap that is no power law, rho_crit(beta_c) matches the target."""
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

    def counted(disp, beta, y, num_internal=1):
        if y == 1.0:
            betas.append(float(beta))
        return quadrature(disp, beta, y, num_internal)

    monkeypatch.setattr(phonon_gas, "rho_fr_quadrature", counted)
    rc = phonon_gas.rho_crit(DISP, 1.0)
    reports = [condensation.classify_phase(scale * rc, 1.0, DISP) for scale in (0.5, 1.0, 2.0)]
    assert [r.phase for r in reports] == ["normal", "critical", "condensed"]
    assert all(r.critical_density == rc for r in reports)
    assert betas == [1.0]  # the quadrature behind rc; the three classifications reuse it


@pytest.mark.parametrize("box_size", [10.0, 40.0, 80.0, 160.0])
def test_newton_polish_stops_once_a_step_no_longer_moves_y(box_size):
    """One Newton step in t takes Brent's loose root to the roundoff of rho, and the t
    it returns is a fixed point of the step to the root's conditioning: one more step
    would move it by at most ROUNDOFF rho / |f_L'(t)|, a few ulps of t, far below an
    ulp of the printed y = 1 + t."""
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    modes = build_lattice_modes(box_size, DISP, 1.0)
    sol = condensation.solve_fugacity(box_size, rho, 1.0, DISP)
    assert sol.newton_steps <= 1
    deriv = phonon_gas.lattice_density_derivative(modes, sol.t)
    step = (phonon_gas.lattice_density(modes, sol.t) - rho) / deriv
    assert abs(step) <= condensation.ROUNDOFF * rho / abs(deriv)


def test_fugacity_solve_counts_its_density_evaluations(monkeypatch):
    """Both bracket ends once, one per Brent step after the first, one per Newton step:
    8 or 9 in all at rho = 2 rho_crit, since f_L is nearly linear in u = 1/t past
    rho_crit and one Newton step in t reaches the roundoff of rho."""
    evals = []
    density = phonon_gas.lattice_density

    def counted(*args, **kwargs):
        evals.append(args[1])
        return density(*args, **kwargs)

    monkeypatch.setattr(phonon_gas, "lattice_density", counted)
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    for L, most in ((5.0, 8), (10.0, 8), (20.0, 9), (40.0, 9), (80.0, 9)):
        evals.clear()
        sol = condensation.solve_fugacity(L, rho, 1.0, DISP)
        assert len(evals) == 2 + (sol.brent_iterations - 1) + sol.newton_steps <= most
        assert sol.tail_bound > 0.0


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
        assert sol.residual <= condensation.ROUNDOFF * rho <= condensation.RESIDUAL_TOL
