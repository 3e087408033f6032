"""Infinite-volume BEC characteristic functionals and their direct-integral
decomposition over the condensate phase.

The gauge-invariant condensed state has Weyl values exp(-(q0 + q1)/4); its
extremal fibers carry an extra pure phase (the fingerprint)
exp[i sqrt(c r) Re(e^{i theta} fhat(0))] and average back to the invariant
state under the measure chi = e^{-r} dr x d theta / (2 pi).  The averaging
identity is exactly a pair of Bessel identities, which the tests check.  On the
equispaced angle grid theta and theta + pi give complex-conjugate
fingerprints, so `decomposition_gap` folds the average onto half the angles:
a real mean of cosines.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import phonon_gas
from .couplings import gaussian_density_integral
from .errors import InfraredDivergence
from .ladders import is_nonincreasing
from .testfunctions import gaussian_test_function


@dataclass(frozen=True)
class CondensatePhase:
    """Fiber label (r, theta) with the condensate amplitude of the background gas."""

    r: float
    theta: float
    condensate_density: float
    dimension: int = 3
    num_internal: int = 1

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.condensate_density <= 0:
            raise ValueError("condensate density must be positive")
        object.__setattr__(self, "theta", float(np.mod(self.theta, 2.0 * np.pi)))

    @property
    def amplitude(self):
        """c = 2 (2 pi)^d rho_0 / N_i > 0."""
        return 2.0 * (2.0 * np.pi) ** self.dimension * self.condensate_density / self.num_internal

    def with_angles(self, r=None, theta=None):
        return replace(
            self,
            r=self.r if r is None else float(r),
            theta=self.theta if theta is None else float(theta),
        )


def _check_q1_integrable(f, disp):
    if disp.dimension - disp.infrared_exponent() <= 0 and abs(
        f.values(np.zeros(disp.dimension))
    ) > 0:
        raise InfraredDivergence(
            "thermal quadratic form diverges: inverse gap not integrable at k = 0 "
            "and the test function does not vanish there"
        )


def _normal_kernel(disp, beta, y_infinity):
    """(y + u)/(y - u) with u = e^{-beta F}, as 1 + 2u/((y - 1) + (1 - u)): the
    denominator is two terms >= 0, with 1 - u = -expm1(-beta F), so nothing
    cancels near k = 0 at y = 1."""
    def kernel(k):
        bf = beta * np.asarray(disp.gap(k), dtype=float)
        return 1.0 + 2.0 * np.exp(-bf) / ((y_infinity - 1.0) - np.expm1(-bf))

    return kernel


@functools.lru_cache(maxsize=256)
def _q1(f, disp, beta):
    """q1 depends on (f, disp, beta) alone, so each value's quadrature runs
    once; test functions and dispersions equal by value share an entry.
    Called on `_gauge_fixed(f)`, so a whole gauge orbit shares it too."""
    _check_q1_integrable(f, disp)
    return gaussian_density_integral(f, _normal_kernel(disp, beta, 1.0))


def _gauge_fixed(f):
    """f with amplitude |A|: q1 sees f only through |A|^2, center and width."""
    modulus = abs(f.amplitude)
    return f if f.amplitude == modulus else replace(f, amplitude=modulus)


def q_form(kind, f, disp, beta, y_infinity=1.0, phase=None):
    """Quadratic forms of the limiting Gaussian states.

    q0 = c |fhat(0)|^2; q1 integrates |f|^2 against (1+u)/(1-u) with
    u = e^{-beta F}; q2 uses (y+u)/(y-u) at the normal-phase fugacity, so at
    y = 1 it is q1 and comes from the same memo.
    """
    if kind == "q0":
        if phase is None:
            raise ValueError("q0 requires a CondensatePhase for the amplitude c")
        return phase.amplitude * abs(f.zero_mode) ** 2
    if kind == "q1":
        return _q1(_gauge_fixed(f), disp, beta)
    if kind == "q2":
        if y_infinity < 1.0:
            raise ValueError("y_infinity must be >= 1")
        if y_infinity == 1.0:
            return _q1(_gauge_fixed(f), disp, beta)
        return gaussian_density_integral(f, _normal_kernel(disp, beta, y_infinity))
    raise ValueError(f"unknown quadratic form {kind!r}")


def psi_bec(f, disp, beta, phase):
    """Weyl value of the gauge-invariant condensed state, in (0, 1]."""
    q0 = q_form("q0", f, disp, beta, phase=phase)
    q1 = q_form("q1", f, disp, beta)
    return float(np.exp(-0.25 * (q0 + q1)))


def psi_normal(f, disp, beta, y_infinity):
    """Weyl value of the normal-phase limit state."""
    return float(np.exp(-0.25 * q_form("q2", f, disp, beta, y_infinity=y_infinity)))


def _fingerprint(c, r, theta, zero_mode):
    """exp[i sqrt(c r) Re(e^{i theta} zero_mode)] for broadcastable r, theta."""
    arg = np.sqrt(c * r) * np.real(np.exp(1j * theta) * zero_mode)
    return np.exp(1j * arg)


def e_fingerprint(phase, f):
    """Unimodular fiber fingerprint exp[i sqrt(c r) Re(e^{i theta} fhat(0))]."""
    return complex(_fingerprint(phase.amplitude, phase.r, phase.theta, f.zero_mode))


def psi_fiber(phase, f, disp, beta):
    """Weyl value of the (r, theta) fiber: fingerprint times the thermal factor."""
    return e_fingerprint(phase, f) * np.exp(-0.25 * q_form("q1", f, disp, beta))


@functools.lru_cache(maxsize=8)
def _chi_rule(n_radial, n_angular):
    """Gauss-Laguerre nodes and weights and the equispaced angles, read-only.

    chi is a fixed measure, so its rule is built once per size and shared.
    """
    nodes, weights = laggauss(n_radial)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angular + 1)[:-1]
    for array in (nodes, weights, thetas):
        array.flags.writeable = False
    return nodes, weights, thetas


def chi_average(func, n_radial=64, n_angular=256):
    """Average of func(r, theta) against chi = e^{-r} dr x d theta / (2 pi).

    Gauss-Laguerre nodes in r times equispaced angles.  `func` is called once,
    on broadcastable read-only arrays r of shape (n_radial, 1) and theta of
    shape (1, n_angular); a result that broadcasts to that grid (a constant
    too) is averaged.
    """
    nodes, weights, thetas = _chi_rule(n_radial, n_angular)
    values = np.broadcast_to(func(nodes[:, None], thetas[None, :]), (n_radial, n_angular))
    return complex(weights @ values.mean(axis=1))


def _fingerprint_average(c, zero_mode):
    """chi_average of _fingerprint(c, r, theta, zero_mode) on its 64 x 256 rule, folded.

    The angles theta_j and theta_j + pi give conjugate fingerprints, phases
    +-sqrt(c r) Re(e^{i theta_j} fhat(0)), so the angular mean is the mean of
    the cosines over j < 128: real, with no complex exponential per node.
    """
    nodes, weights, thetas = _chi_rule(64, 256)
    half = thetas[: len(thetas) // 2]
    arg = np.sqrt(c * nodes)[:, None] * np.real(np.exp(1j * half) * zero_mode)
    return weights @ np.cos(arg).mean(axis=1)


def decomposition_gap(f, disp, beta, phase):
    """|integral of psi_fiber d chi - psi_bec| for one test function."""
    q0 = q_form("q0", f, disp, beta, phase=phase)
    q1 = q_form("q1", f, disp, beta)
    avg = _fingerprint_average(phase.amplitude, f.zero_mode)
    return abs(avg * np.exp(-0.25 * q1) - float(np.exp(-0.25 * (q0 + q1))))


# --- fiber observables ------------------------------------------------------

def fiber_density(phase, disp, beta):
    """Constant particle density of the (r, theta) fiber: r rho_0 + rho_crit."""
    return phase.r * phase.condensate_density + phonon_gas.rho_crit(
        disp, beta, phase.num_internal
    )


def gauge_shift_check(phase, f, alpha, disp, beta):
    """|psi^{r,theta}(W(e^{i alpha} f)) - psi^{r,theta+alpha}(W(f))|."""
    lhs = psi_fiber(phase, f.scaled(np.exp(1j * alpha)), disp, beta)
    rhs = psi_fiber(phase.with_angles(theta=phase.theta + alpha), f, disp, beta)
    return abs(lhs - rhs)


# --- fingerprint inversion (broken gauge symmetry) --------------------------

def canonical_probe_pair(amplitude_c, dimension=3, width=1.0):
    """Gaussians f1, f2 with sqrt(c) fhat(0) equal to 1 and i respectively."""
    a = 1.0 / (np.sqrt(amplitude_c) * width**dimension)
    f1 = gaussian_test_function(dimension, width=width, amplitude=a)
    f2 = gaussian_test_function(dimension, width=width, amplitude=1j * a)
    return f1, f2


@dataclass(frozen=True)
class RecoveredPhase:
    r: float
    theta: float
    theta_determined: bool


def fingerprint_recover(value_f1, value_f2):
    """Invert the fingerprints on the canonical probe pair back to (r, theta).

    With sqrt(c) fhat1(0) = 1 the phase of e_{f1} is sqrt(r) cos theta, and
    with sqrt(c) fhat2(0) = i it is -sqrt(r) sin theta; valid on the principal
    branch |phase| < pi.
    """
    p1 = float(np.angle(value_f1))
    p2 = float(np.angle(value_f2))
    r = p1 * p1 + p2 * p2
    if r == 0.0:
        return RecoveredPhase(0.0, 0.0, False)
    theta = float(np.mod(np.arctan2(-p2, p1), 2.0 * np.pi))
    return RecoveredPhase(r, theta, True)


# --- combined finite-volume limits ------------------------------------------

@dataclass(frozen=True)
class CombinedLimitReport:
    box_sizes: tuple
    finite_values: tuple
    limit_value: complex
    gaps: tuple
    monotone: bool


def combined_limit(box_sizes, f, disp, beta, target_density, regime_report, electron_value=1.0, num_internal=1):
    """Finite-volume dressed product against its regime-dependent limit.

    The finite value is electron_value * exp(-I_L/4) at the solved fugacity;
    the limit replaces the boson factor by the condensed or normal
    characteristic value according to the phase classification.
    """
    from .condensation import solve_fugacity
    from .lattice import lattice_modes

    if regime_report.phase == "condensed":
        phase = CondensatePhase(
            0.0, 0.0, regime_report.condensate_density, disp.dimension, num_internal
        )
        boson_limit = psi_bec(f, disp, beta, phase)
    else:
        boson_limit = psi_normal(f, disp, beta, regime_report.y_infinity)
    limit = electron_value * boson_limit

    finite, gaps = [], []
    for L in box_sizes:
        sol = solve_fugacity(L, target_density, beta, disp, num_internal=num_internal)
        modes = lattice_modes(L, disp, beta, num_internal)  # the build the solve used
        rec = phonon_gas.finite_volume_characteristic(modes, f, sol.t)
        val = electron_value * rec.weyl_value
        finite.append(val)
        gaps.append(abs(val - limit))
    return CombinedLimitReport(
        tuple(box_sizes), tuple(finite), complex(limit), tuple(gaps), is_nonincreasing(gaps)
    )


def injectivity_rank_gap(atoms, zero_modes):
    """Full-rank witness for the finite fingerprint family.

    Rows are probe functions (given by their sqrt(c) fhat(0) values), columns
    are (r_i, theta_i) atoms; returns the smallest singular value of the
    column-normalized fingerprint matrix (positive means the atom weights are
    determined by the sampled transforms).
    """
    r, theta = np.asarray(atoms, dtype=float).T
    M = _fingerprint(1.0, r[None, :], theta[None, :], np.asarray(zero_modes, dtype=complex)[:, None])
    return float(np.linalg.svd(M, compute_uv=False).min())
