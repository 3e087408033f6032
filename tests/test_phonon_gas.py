import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbec import phonon_gas
from hpbec.dispersion import quadratic_dispersion
from hpbec.errors import InfraredDivergence
from hpbec.lattice import build_lattice_modes
from hpbec.testfunctions import gaussian_test_function
from lattice_ball import ball
from test_lattice import SHELL_CASES

DISP = quadratic_dispersion()

# series value of the d = 3, F = k^2, beta = 1, N_i = 1 critical density:
# sum_{n>=1} (2pi)^{-3} (pi/n)^{3/2} = sqrt(pi) zeta(3/2) / (8 pi^2)
RHO_CRIT_ORACLE = 0.058643621347644424


def series_rho_fr(y, terms=400):
    """Expansion 1/(y e^{bF} - 1) = sum_n y^{-n} e^{-n b k^2}, integrated."""
    ns = np.arange(1, terms + 1)
    return float(np.sum(y ** -ns.astype(float) * (np.pi / ns) ** 1.5)) / (2 * np.pi) ** 3


def test_rho_crit_series_oracle():
    got = phonon_gas.rho_crit(DISP, 1.0)
    zeta_32 = float(np.sum(np.arange(1, 400001) ** -1.5)) + 2.0 / np.sqrt(400000.5)
    oracle = np.sqrt(np.pi) * zeta_32 / (8 * np.pi**2)
    assert got == pytest.approx(RHO_CRIT_ORACLE, rel=1e-8)
    assert got == pytest.approx(oracle, rel=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(-2.0, 2.0).map(lambda e: 10.0**e))
def test_rho_crit_error_estimate_bounds_its_miss_property(beta):
    """rho_crit's certificate covers its distance from zeta(3/2) (4 pi beta)^{-3/2}
    at every beta: the gap k^2 and the Bose denominator expm1(beta F) leave no
    cancellation near k = 0 that grows with beta."""
    exact = float(mpmath.zeta(1.5) * (4.0 * mpmath.pi * mpmath.mpf(beta)) ** -1.5)
    rc = phonon_gas.rho_crit_quadrature(DISP, beta)
    assert abs(rc.value - exact) <= rc.error


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_rho_crit_converges_in_one_pass_per_piece(beta):
    """Both pieces, the components of one quadrature, meet their tolerances on
    their 8 starting panels: one pass of 8 panels of 15 nodes for each."""
    rc = phonon_gas.rho_crit_quadrature(DISP, beta)
    assert rc.passes == 1
    assert rc.evaluations == 2 * 8 * 15


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [1e-15, 1e-13, 1e-11, 1e-9, 1e-6, 1e-3, 0.5, 10.0])
def test_rho_fr_certificate_covers_its_miss_near_the_pole(beta, t):
    """On the quadratic gas rho_fr(1 + t) = Li_{3/2}(1/(1 + t)) (4 pi beta)^{-3/2}.  The
    pieces graded by 4 toward the pole's width put the pole on the starting panels:
    one pass at every t, and the error estimate covers the distance from the 40-digit
    value at that t exactly down to t = 1e-15."""
    q = phonon_gas.rho_fr_quadrature(DISP, beta, t)
    assert q.passes == 1
    with mpmath.workdps(40):
        y = 1 + mpmath.mpf(t)
        exact = mpmath.polylog(1.5, 1 / y) * (4 * mpmath.pi * mpmath.mpf(beta)) ** -1.5
        assert abs(q.value - exact) <= q.error


def test_rho_fr_series_oracle_above_one():
    for t in (0.3, 1.0, 4.0):
        assert phonon_gas.rho_fr(DISP, 1.0, t) == pytest.approx(series_rho_fr(1.0 + t), rel=1e-8)


def test_rho_fr_monotone_decreasing_in_y():
    vals = [phonon_gas.rho_fr(DISP, 1.0, t) for t in (0.0, 0.5, 1.0, 4.0, 49.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rho_fr_vanishes_at_large_y():
    assert phonon_gas.rho_fr(DISP, 1.0, 1e6) < 1e-4 * phonon_gas.rho_fr(DISP, 1.0, 0.0)


def test_rho_fr_below_critical_for_y_above_one():
    rc = phonon_gas.rho_crit(DISP, 1.0)
    for t in (1e-12, 1e-4, 0.1, 2.0):
        assert phonon_gas.rho_fr(DISP, 1.0, t) < rc


def test_rho_fr_rejects_a_negative_t():
    for t in (-1e-300, -0.5, float("nan")):
        with pytest.raises(ValueError, match="must be >= 0"):
            phonon_gas.rho_fr(DISP, 1.0, t)


def test_rho_crit_linear_in_multiplicity():
    one = phonon_gas.rho_crit(DISP, 1.0, num_internal=1)
    two = phonon_gas.rho_crit(DISP, 1.0, num_internal=2)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_rho_crit_infrared_divergence_low_dimension():
    with pytest.raises(InfraredDivergence):
        phonon_gas.rho_crit(quadratic_dispersion(dimension=2), 1.0)


def _bose_terms(modes, t):
    """Per shell the Bose term w/(a + t) at y = 1 + t, from the build's stored factors,
    as `lattice_density` weighs them by the shell's nonzero modes."""
    return modes.weights / (modes.deficits + t)


def test_boson_number_single_zero_mode():
    """Tiny box: the only retained lattice mode is k = 0 when the gap is huge, so the
    number L^d f_L(1 + t) is the zero mode's 1/t plus N_ir."""
    big_gap = quadratic_dispersion(dimension=1)
    modes = build_lattice_modes(1.0, big_gap, beta=30.0)
    number = phonon_gas.lattice_density(modes, 1.0, n_ir=0.3) * modes.box_size
    assert abs(number - (1.0 / (2.0 - 1.0) + 0.3)) < 1e-12


def test_boson_number_scalar_bose_factor():
    """One off-zero mode with F = 1 at beta = 1, y = e contributes 1/(e^2 - 1)."""
    modes = build_lattice_modes(2.0 * np.pi, DISP, 1.0)  # spacing 1, F(spacing) = 1
    norms = _per_mode_norms(modes)
    single = np.isclose(norms, 1.0)
    assert single.sum() == 6  # +-e_i in d = 3
    per_mode = 1.0 / (np.e * np.e - 1.0)
    assert per_mode == pytest.approx(0.15651764274966565, rel=1e-12)
    direct = 1.0 / (np.e * np.exp(1.0 * DISP.gap(1.0)) - 1.0)
    assert direct == pytest.approx(per_mode)
    shell = np.flatnonzero(modes.shells == 1)[0]
    assert modes.nonzero_modes[shell] == 6
    assert _bose_terms(modes, np.e - 1.0)[shell] == pytest.approx(per_mode, rel=1e-12)


def test_boson_number_strictly_decreasing_in_y():
    modes = build_lattice_modes(8.0, DISP, 1.0)
    totals = [
        phonon_gas.lattice_density(modes, t)
        for t in (0.1, 0.5, 1.0, 3.0)
    ]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_boson_number_rejects_condensed_pole():
    modes = build_lattice_modes(5.0, DISP, 1.0)
    for t in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="pole at y = 1"):
            phonon_gas.lattice_density(modes, t)


@pytest.mark.parametrize("t", [1e-12, 1e-6, 0.3])
def test_shell_bose_sums_match_mpmath(t):
    """The stored-factor terms at y = 1 + t, against 1/(y e^{beta F} - 1) summed at 40
    digits over the shells of L = 40 with F = m (2 pi / L)^2, at that t exactly: the
    excited number (terms w/(a + t)) and f_L built from it, df_L/dt (terms w/(a + t)^2)
    and I2 (factors 1 + 2w/(a + t)).  The excited number is checked on the terms
    themselves: near y = 1 the zero mode's 1/t dominates f_L, and subtracting it back
    would lose the digits."""
    L, beta = 40.0, 1.0
    modes = build_lattice_modes(L, DISP, beta)
    f = gaussian_test_function(3, center=[0.3, -0.2, 0.1], width=0.7, amplitude=0.8 + 0.3j)
    shell_f = modes.shell_sums(f.axis_factors)
    with mpmath.workdps(40):
        tm = mpmath.mpf(t)
        ym = 1 + tm
        spacing2 = (2 * mpmath.pi / mpmath.mpf(L)) ** 2
        excited = deriv = i2 = mpmath.mpf(0)
        for m, count, weight in zip(modes.shells[1:].tolist(), modes.nonzero_modes[1:].tolist(),
                                    shell_f[1:].tolist()):
            e = mpmath.exp(beta * m * spacing2)
            excited += count / (ym * e - 1)
            deriv += count * e / (ym * e - 1) ** 2
            i2 += weight * (ym * e + 1) / (ym * e - 1)
        density = (1 / tm + excited) / mpmath.mpf(L) ** 3
        deriv = -(1 / tm**2 + deriv) / mpmath.mpf(L) ** 3
        i2 *= modes.cell_volume() * abs(f.amplitude) ** 2
    assert float(modes.nonzero_modes @ _bose_terms(modes, t)) == pytest.approx(float(excited), rel=1e-14)
    assert phonon_gas.lattice_density(modes, t) == pytest.approx(float(density), rel=1e-14)
    assert phonon_gas.lattice_density_derivative(modes, t) == pytest.approx(float(deriv), rel=1e-14)
    assert phonon_gas.finite_volume_characteristic(modes, f, t).i2 == pytest.approx(float(i2), rel=1e-14)


def test_excited_density_converges_to_continuum():
    """The excited density f_L(1 + t) - 1/(t L^d) approaches rho_fr(beta, 1 + t) at
    fixed t > 0, monotonically over an L-doubling ladder."""
    t = 1.0
    target = phonon_gas.rho_fr(DISP, 1.0, t)
    gaps = []
    for L in (5.0, 10.0, 20.0, 40.0):
        modes = build_lattice_modes(L, DISP, 1.0)
        excited = phonon_gas.lattice_density(modes, t) - 1.0 / (t * L**3)
        gaps.append(abs(excited - target) / target)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


def epstein_z1():
    """Z(1) of the cubic lattice, Z(s) = sum'_n |n|^{-2s} continued to s = 1, by the
    theta-function split at t = 1 (Epstein 1903): with theta(t) = theta_3(e^{-pi t})^3,
    pi^{-s} Gamma(s) Z(s) = -1/s + 1/(s - 3/2) + int_1^inf (t^{s-1} + t^{1/2-s}) (theta(t) - 1) dt."""
    with mpmath.workdps(30):
        theta = lambda t: mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * t)) ** 3 - 1
        return mpmath.pi * (-3 + mpmath.quad(lambda t: (1 + t**-0.5) * theta(t), [1, mpmath.inf]))


@pytest.mark.parametrize(
    "beta,box_size", [(1.0, 40.0), (1.0, 80.0), (0.1, 20.0), (0.3, 40.0), (2.0, 80.0), (10.0, 80.0)]
)
def test_excited_density_at_y_one_obeys_the_finite_size_law(beta, box_size):
    """For the quadratic gap in d = 3, L^-3 sum_{n != 0} w/a = rho_c + Z(1)/(4 pi^2 beta L)
    + 1/(2 L^3) + R: the poles of its Mellin transform at s = 3/2, 1 and 0.  Z vanishes at
    the negative integers, so R ~ e^{-L sqrt(pi/beta)}, below roundoff on this grid, where
    L sqrt(pi/beta) >= 40.  The sum is exact (math.fsum) over the build's stored factors."""
    assert box_size * math.sqrt(math.pi / beta) >= 40.0
    z1 = epstein_z1()
    assert float(z1) == pytest.approx(-8.913632917585151, rel=1e-15)
    modes = build_lattice_modes(box_size, DISP, beta)
    terms = modes.nonzero_modes[1:] * modes.weights[1:] / modes.deficits[1:]
    excited = math.fsum(terms.tolist()) / box_size**3
    with mpmath.workdps(30):
        rho_c = mpmath.zeta(1.5) * (4 * mpmath.pi * beta) ** -1.5
        law = rho_c + z1 / (4 * mpmath.pi**2 * beta * box_size) + 1 / (2 * mpmath.mpf(box_size) ** 3)
    assert excited == pytest.approx(float(law), rel=1e-14)


def test_characteristic_zero_function():
    modes = build_lattice_modes(8.0, DISP, 1.0)
    f = gaussian_test_function(3, amplitude=0.0)
    rec = phonon_gas.finite_volume_characteristic(modes, f, 1.0)
    assert rec.i_total == 0.0
    assert rec.weyl_value == 1.0


def test_characteristic_zero_mode_only():
    """An amplitude at k = 0 only (narrow Gaussian, pointwise negligible off
    zero) gives I2 ~ 0."""
    modes = build_lattice_modes(8.0, DISP, 1.0)
    f = gaussian_test_function(3, width=0.05, amplitude=100.0)
    rec = phonon_gas.finite_volume_characteristic(modes, f, 1.0)
    assert rec.i2 < 1e-10 * rec.i1


def test_characteristic_requires_uncondensed_fugacity():
    modes = build_lattice_modes(8.0, DISP, 1.0)
    f = gaussian_test_function(3)
    with pytest.raises(ValueError):
        phonon_gas.finite_volume_characteristic(modes, f, 0.0)


def test_characteristic_i2_converges_to_limit_integral():
    """L-doubling brings I2 to the continuum integral of |f|^2 (1+u)/(1-u)."""
    from hpbec.couplings import gaussian_density_integral

    y = 2.0
    f = gaussian_test_function(3, center=[0.4, 0.0, 0.0], width=0.8)

    def kernel(k):
        scaled = y * np.exp(np.asarray(DISP.gap(k), dtype=float))
        return (scaled + 1.0) / (scaled - 1.0)

    limit = gaussian_density_integral(f, kernel)
    gaps = []
    for L in (10.0, 20.0, 40.0):
        modes = build_lattice_modes(L, DISP, 1.0)
        rec = phonon_gas.finite_volume_characteristic(modes, f, y - 1.0)
        gaps.append(abs(rec.i2 - limit) / limit)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


def test_characteristic_i2_keeps_converging_through_large_boxes():
    """The I2 gap to the continuum integral keeps falling through L = 80 and 160.

    For a smooth kernel the lattice sum converges faster than any power, so
    what is left is the zero mode that I2 leaves to I1: the gap is that cell's
    term, cell |f(0)|^2 (y + 1)/(y - 1).
    """
    from hpbec.couplings import gaussian_density_integral

    y = 2.0
    f = gaussian_test_function(3, center=[0.4, 0.0, 0.0], width=0.8)

    def kernel(k):
        scaled = y * np.exp(np.asarray(DISP.gap(k), dtype=float))
        return (scaled + 1.0) / (scaled - 1.0)

    limit = gaussian_density_integral(f, kernel)
    gaps = []
    for L in (40.0, 80.0, 160.0):
        modes = build_lattice_modes(L, DISP, 1.0)
        rec = phonon_gas.finite_volume_characteristic(modes, f, y - 1.0)
        gaps.append((limit - rec.i2) / limit)
        zero_cell = modes.cell_volume() * abs(f.values(np.zeros(3))) ** 2 * (y + 1.0) / (y - 1.0)
        assert gaps[-1] == pytest.approx(zero_cell / limit, rel=1e-9)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-5


def _brute_i2(modes, f, y, beta, disp):
    """I2 as an exact math.fsum over every nonzero mode of the ball."""
    k = ball(modes) * modes.spacing
    k = k[np.any(k != 0, axis=1)]
    e = np.exp(beta * np.asarray(disp.gap(np.linalg.norm(k, axis=1)), dtype=float))
    terms = np.abs(f.values(k)) ** 2 * (y * e + 1.0) / (y * e - 1.0)
    return modes.cell_volume() * math.fsum(terms)


@pytest.mark.parametrize("box_size,disp", SHELL_CASES)
@pytest.mark.parametrize("center", [[0.4, 0.0, 0.0], [0.3, -0.5, 0.2]], ids=["on_axis", "off_axis"])
def test_shell_characteristic_matches_per_mode_sum(box_size, disp, center):
    """Shell-summed I2 against the brute-force ball, narrow to wide Gaussians, y near 1 and above."""
    beta = 0.8
    d = disp.dimension
    modes = build_lattice_modes(box_size, disp, beta)
    for width in (0.05, 0.3, 1.0, 2.0):
        f = gaussian_test_function(d, center=center[:d], width=width, amplitude=0.7 - 0.4j)
        for y in (1.0 + 1e-6, 1.3):
            rec = phonon_gas.finite_volume_characteristic(modes, f, y - 1.0)
            assert rec.i2 == pytest.approx(_brute_i2(modes, f, y, beta, disp), rel=1e-13)
    silent = gaussian_test_function(d, center=center[:d], amplitude=0.0)
    assert phonon_gas.finite_volume_characteristic(modes, silent, 0.3).i2 == 0.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    box_size=st.floats(5.0, 12.0),
    center=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
    width=st.floats(0.05, 2.0),
    y=st.floats(1.0 + 1e-6, 2.0),
)
def test_shell_characteristic_matches_per_mode_sum_property(box_size, center, width, y):
    """Random centre, width, fugacity and L <= 12.  From L = 5 up the nearest nonzero
    mode lies within one spacing of any centre, so even at width 0.05 the largest
    term stays a normal double and the relative comparison is meaningful."""
    modes = build_lattice_modes(box_size, DISP, 1.0)
    f = gaussian_test_function(3, center=center, width=width)
    rec = phonon_gas.finite_volume_characteristic(modes, f, y - 1.0)
    assert rec.i2 == pytest.approx(_brute_i2(modes, f, y, 1.0, DISP), rel=1e-13)


def _per_mode_norms(modes):
    return np.linalg.norm(ball(modes) * modes.spacing, axis=1)


def _per_mode_gaps(modes, disp):
    return np.asarray(disp.gap(_per_mode_norms(modes)), dtype=float)


@pytest.mark.parametrize(
    "box_size,disp",
    [(30.0, quadratic_dispersion(dimension=1)), (12.0, quadratic_dispersion(dimension=2)), (7.0, DISP)],
)
@pytest.mark.parametrize("y", [1.0 + 1e-6, 1.3])
def test_shell_sums_match_per_mode_sums(box_size, disp, y):
    """Shell-weighted sums against the same sums over every enumerated mode."""
    beta = 0.8
    modes = build_lattice_modes(box_size, disp, beta)
    gaps = _per_mode_gaps(modes, disp)
    coords = ball(modes)
    zeros = np.count_nonzero(coords == 0, axis=1)
    d = modes.dimension
    w = np.exp(-beta * gaps) / y
    bose = w / (1.0 - w)
    terms = _bose_terms(modes, y - 1.0)
    interior = math.fsum(bose[zeros == 0])
    boundary = math.fsum(bose[(zeros > 0) & (zeros < d)])
    # the interior/boundary split per shell, from the enumerated coordinates
    shell_of = np.searchsorted(modes.shells, np.square(coords).sum(axis=1))
    masks = (zeros == 0, (zeros > 0) & (zeros < d))
    split = [np.bincount(shell_of[mask], minlength=len(modes.shells)) for mask in masks]
    assert np.array_equal(split[0] + split[1], modes.nonzero_modes)
    assert float(split[0] @ terms) == pytest.approx(interior, rel=1e-13)
    assert float(split[1] @ terms) == pytest.approx(boundary, rel=1e-13)
    density = (1.0 / (y - 1.0) + interior + boundary) / box_size**d
    assert phonon_gas.lattice_density(modes, y - 1.0) == pytest.approx(density, rel=1e-13)
    e = np.exp(beta * gaps[zeros < d])
    deriv = (-1.0 / (y - 1.0) ** 2 - math.fsum(e / np.square(y * e - 1.0))) / box_size**d
    assert phonon_gas.lattice_density_derivative(modes, y - 1.0) == pytest.approx(deriv, rel=1e-13)
    assert modes.included_weight == pytest.approx(math.fsum(np.exp(-beta * gaps)), rel=1e-13)
