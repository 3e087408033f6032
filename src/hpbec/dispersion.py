"""Radial phonon dispersions and their admissibility checks.

A dispersion is omega(k) = r(|k|) with r continuously differentiable and
strictly increasing, growing fast enough that (1+k)^d0 exp(-beta r(k)) stays
bounded, and with an integrable inverse gap 1/(omega - omega_0) near k = 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import BracketError, InfraredDivergence


def sphere_area(d):
    """Surface area of the unit sphere in R^d."""
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class Dispersion:
    """omega(k) = r(|k|), with r's derivative and its gap F = r - r(0) supplied
    separately: r(k) - r(0) cancels where F is small against r(0), which is
    where Bose integrals weigh it."""

    radial_profile: callable = field(repr=False)
    radial_derivative: callable = field(repr=False)
    radial_gap: callable = field(repr=False)
    dimension: int
    growth_exponent: float
    mu_b: float = 0.0

    @property
    def omega0(self):
        return float(self.radial_profile(0.0))

    def omega(self, k):
        return self.radial_profile(np.abs(k))

    def gap(self, k):
        """F(k) = omega(k) - omega_0 >= 0."""
        return self.radial_gap(np.abs(k))

    def fugacity_floor(self, beta):
        """y = exp(beta (omega_0 - mu_b)); condensation sits at y = 1."""
        return float(np.exp(beta * (self.omega0 - self.mu_b)))

    def gap_inverse(self, target):
        """Solve F(k) = target for k >= 0 (r strictly increasing)."""
        if target <= 0:
            return 0.0
        hi = 1.0
        while self.gap(hi) < target:
            hi *= 2.0
            if hi > 1e12:
                raise BracketError(f"dispersion gap never reaches the target {target:g} (k up to 1e12)")
        return numerics.brentq(lambda k: self.gap(k) - target, 0.0, hi, xtol=1e-14, rtol=1e-14, maxiter=100).root

    def infrared_exponent(self, eps=1e-5):
        """Local growth exponent p with F(k) ~ k^p near 0, estimated numerically."""
        f1, f2 = self.gap(eps), self.gap(2.0 * eps)
        if f1 <= 0 or f2 <= 0:
            return np.inf
        return float(np.log(f2 / f1) / np.log(2.0))


@dataclass(frozen=True)
class _QuadraticProfile:
    """r(k) = k^2 + omega0, equal by value so that equal dispersions share memos."""

    omega0: float

    def __call__(self, k):
        return np.square(k) + self.omega0


def _quadratic_derivative(k):
    return 2.0 * np.asarray(k, dtype=float)


def quadratic_dispersion(omega0=1.0, mu_b=0.0, dimension=3, growth_exponent=4.0):
    """Default massive dispersion r(k) = k^2 + omega0, with the gap k^2 itself
    (np.square, which compares by identity); two built with equal arguments
    compare and hash equal."""
    return Dispersion(
        radial_profile=_QuadraticProfile(float(omega0)),
        radial_derivative=_quadratic_derivative,
        radial_gap=np.square,
        dimension=dimension,
        growth_exponent=growth_exponent,
        mu_b=mu_b,
    )


def tabulated_dispersion(k_samples, r_samples, dimension=3, growth_exponent=4.0, mu_b=0.0):
    """Dispersion from (k, r(k)) samples via monotone-cubic interpolation.

    Beyond the last sample the profile is continued with the end-point slope,
    keeping it monotone; below the first it is held at the first sample.  Its
    profile is a closure, so a tabulated dispersion equals only itself.  Its
    gap is the same interpolation of r - r(0): near k = 0 that is the cubic's
    own small terms, where r(k) - r(0) would cancel.
    """
    r_samples = np.asarray(r_samples, dtype=float)
    interp, deriv = numerics.monotone_cubic(k_samples, r_samples)
    gap_interp, _ = numerics.monotone_cubic(k_samples, r_samples - r_samples[0])
    k_end, r_end = float(k_samples[-1]), float(r_samples[-1])
    slope_end = float(deriv(k_end))

    def profile(k):
        k = np.asarray(k, dtype=float)
        return np.where(k <= k_end, interp(k), r_end + slope_end * (k - k_end))

    def gap(k):
        k = np.asarray(k, dtype=float)
        return np.where(k <= k_end, gap_interp(k), (r_end - r_samples[0]) + slope_end * (k - k_end))

    def derivative(k):
        return np.where(np.asarray(k) <= k_end, deriv(k), slope_end)

    return Dispersion(profile, derivative, gap, dimension, growth_exponent, mu_b)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]


def infrared_gap_integral(disp, radius=1.0):
    """integral over |k| <= radius of 1/(omega(k) - omega_0) dk, or raise.

    Integrability near 0 is decided from the local exponent of F; the value
    itself comes from radial quadrature.
    """
    p = disp.infrared_exponent()
    if disp.dimension - p <= 0:
        raise InfraredDivergence(
            f"1/(omega - omega0) not integrable at k=0: local exponent {p:.3g} >= d={disp.dimension}"
        )
    integrand = lambda k, _: k ** (disp.dimension - 1) / disp.gap(k)
    val = numerics.integrate(integrand, 0.0, radius, epsabs=1.49e-8, epsrel=1.49e-8, limit=200).value
    return sphere_area(disp.dimension) * val


def validate_dispersion(disp, beta, k_max=60.0, n_grid=4001):
    """Check every admissibility condition and report pass/fail witnesses."""
    ks = np.linspace(k_max / n_grid, k_max, n_grid)
    checks = []

    deriv = np.asarray(disp.radial_derivative(ks), dtype=float)
    checks.append(
        CheckResult(
            "radial profile strictly increasing",
            bool(np.all(deriv > 0)),
            f"min r'(k) on (0, {k_max:g}] = {deriv.min():.3e}",
        )
    )

    decay = (1.0 + ks) ** disp.growth_exponent * np.exp(
        -beta * np.asarray(disp.radial_profile(ks), dtype=float)
    )
    knee = int(np.argmax(decay))
    # tolerate subnormal-level noise in the far tail
    tail_ok = bool(
        np.all(np.diff(decay[knee:]) <= 1e-15 * decay.max())
    ) and knee < n_grid - 1
    checks.append(
        CheckResult(
            "(1+k)^d0 exp(-beta omega) bounded with decaying tail",
            tail_ok and np.isfinite(decay.max()),
            f"sup on grid = {decay.max():.3e} at k = {ks[knee]:.3g}",
        )
    )

    try:
        ir = infrared_gap_integral(disp)
        checks.append(
            CheckResult(
                "inverse gap integrable near k = 0",
                True,
                f"integral over |k|<=1 of dk/(omega-omega0) = {ir:.6g}",
            )
        )
    except (InfraredDivergence, BracketError) as err:  # divergent, or a quadrature that cannot converge
        checks.append(CheckResult("inverse gap integrable near k = 0", False, str(err)))

    growth_ok = disp.growth_exponent > disp.dimension
    checks.append(
        CheckResult(
            "growth exponent d0 > d",
            growth_ok,
            f"d0 = {disp.growth_exponent}, d = {disp.dimension}",
        )
    )

    y0 = disp.fugacity_floor(beta)
    checks.append(
        CheckResult(
            "omega_0 - mu_b > 0 (fugacity floor above 1)",
            y0 > 1.0,
            f"exp(beta(omega0 - mu_b)) = {y0:.6g}",
        )
    )

    return ValidationReport(tuple(checks))
