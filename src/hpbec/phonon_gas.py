"""Bose gas mode sums and continuum densities for a radial dispersion.

Finite-volume quantities are sums over the truncated lattice mode set, taken
shell by shell (one kernel per occupied |n|^2, weighted by its mode counts or
its sum of |f|^2) from the Bose factors w = e^{-beta F} and 1 - w that the
lattice build stores, at the fugacity's offset t = y - 1 from the pole, so an
evaluation computes no gap and no exponential and never forms y;
the continuum density rho_fr and the critical density are
radial integrals of the Bose factor 1/(y e^{beta F(k)} - 1).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dispersion import sphere_area
from .errors import InfraredDivergence


def _bose_denominators(modes, t):
    """Per shell a + t, with a = 1 - e^{-beta F} from the build and t = y - 1: the Bose
    term w/(a + t), w = e^{-beta F}, then cancels nothing.  Shell 0 has w = 1, a = 0."""
    if not t > 0:
        raise ValueError("t = y - 1 must be positive (the k = 0 Bose factor has a pole at y = 1)")
    return modes.deficits + t


def lattice_density(modes, t, n_ir=0.0, *y_form):
    """f_L(1 + t) = N_i [1/t + sum_m c_m w/(a + t)] / L^d + N_ir / L^d, the density
    of the fugacity equation at y = 1 + t, with c_m the nonzero modes on shell m.
    The former form (modes, disp, beta, y), which bench/test_bench.py still calls, is
    read as t = y - 1 on the build's own dispersion and beta (ROADMAP item 1)."""
    if y_form:
        t, n_ir = y_form[0] - 1.0, 0.0
    if n_ir < 0:
        raise ValueError("infrared number must be nonnegative")
    bose = modes.weights / _bose_denominators(modes, t)
    n_i = modes.num_internal
    total = n_i / t + n_ir + n_i * float(modes.nonzero_modes @ bose)
    return total / modes.box_size**modes.dimension


def lattice_density_derivative(modes, t):
    """d f_L / dt, analytic (the n_ir term is t-independent): a shell's Bose
    term w/(a + t) contributes -w/(a + t)^2."""
    denom = _bose_denominators(modes, t)
    n_i = modes.num_internal
    deriv = -n_i / t**2 - n_i * float(modes.nonzero_modes @ (modes.weights / np.square(denom)))
    return deriv / modes.box_size**modes.dimension


def _check_critical_integrable(disp):
    if disp.dimension - disp.infrared_exponent() <= 0:
        raise InfraredDivergence(
            "Bose integral diverges at y = 1: the inverse gap is not integrable "
            f"near k = 0 in dimension {disp.dimension}"
        )


@functools.lru_cache(maxsize=64)
def _quadrature_range(disp, beta):
    """Radii where beta F reaches 1 (the split) and 60 (the end).

    They depend on (disp, beta) alone, so a fugacity solve at fixed beta
    finds them once instead of at every step.
    """
    return disp.gap_inverse(1.0 / beta), disp.gap_inverse(60.0 / beta)


def rho_fr_quadrature(disp, beta, y, num_internal=1):
    """rho_fr with its certificate: a numerics.Quadrature summed over both pieces."""
    if y < 1.0:
        raise ValueError("y must be >= 1")
    if y == 1.0:
        _check_critical_integrable(disp)
    d = disp.dimension

    def integrand(k):
        # y e^{beta F} - 1 as two terms that are >= 0 for y >= 1, so nothing cancels near k = 0
        bf = beta * disp.gap(k)
        return k ** (d - 1) / (np.expm1(bf) + (y - 1.0) * np.exp(bf))

    split, hi = _quadrature_range(disp, beta)
    low = numerics.integrate(integrand, 0.0, split, epsabs=1e-12, epsrel=1.49e-8, limit=300)
    high = numerics.integrate(integrand, split, hi, epsabs=1e-12, epsrel=1.49e-8, limit=300)
    scale = num_internal * sphere_area(d) / (2.0 * np.pi) ** d
    return numerics.Quadrature(
        scale * (low.value + high.value),
        scale * (low.error + high.error),
        low.evaluations + high.evaluations,
        low.passes + high.passes,
    )


def rho_fr(disp, beta, y, num_internal=1):
    """Continuum free-gas density N_i (2pi)^{-d} integral of the Bose factor."""
    return rho_fr_quadrature(disp, beta, y, num_internal).value


def rho_crit(disp, beta, num_internal=1):
    """Critical density: the free-gas density at y = 1."""
    return rho_crit_quadrature(disp, beta, num_internal).value


def rho_crit_quadrature(disp, beta, num_internal=1):
    """rho_crit with its certificate, from the memo."""
    return _rho_crit(disp, beta, num_internal)


@functools.lru_cache(maxsize=256)
def _rho_crit(disp, beta, num_internal):
    """rho_fr_quadrature at y = 1.  It depends on (disp, beta, num_internal)
    alone, so each value's quadrature runs once; dispersions equal by value
    share an entry."""
    return rho_fr_quadrature(disp, beta, 1.0, num_internal)


@dataclass(frozen=True)
class CharacteristicRecord:
    i1: float
    i2: float
    i_total: float
    weyl_value: float


def finite_volume_characteristic(modes, f, t, *y_form):
    """Finite-volume Weyl quadratic form I_L(f) = I1 + I2 and exp(-I_L/4) at y = 1 + t.

    I1 carries the zero mode with the condensate factor (y+1)/(y-1) = (2 + t)/t;
    I2 sums the remaining shells, cell |A|^2 sum_{m>0} S_f(m) (y e + 1)/(y e - 1)
    with e = e^{beta F} and S_f(m) the shell sum of the Gaussian's per-axis
    factors.  With the build's w = 1/e and a = 1 - w that factor is 1 + 2w/(a + t).
    The former form (modes, f, y, beta, disp), which bench/test_bench.py still calls,
    is read as t = y - 1 on the build's own dispersion and beta (ROADMAP item 1).
    """
    if y_form:
        t = t - 1.0
    denom = _bose_denominators(modes, t)
    cell = modes.cell_volume()
    i1 = cell * abs(f.zero_mode) ** 2 * (2.0 + t) / t
    # shell 0 is the zero mode alone, which I1 carries
    shell_f = modes.shell_sums(f.axis_factors)[1:]
    i2 = cell * abs(f.amplitude) ** 2 * float(shell_f @ (1.0 + 2.0 * modes.weights[1:] / denom[1:]))
    total = i1 + i2
    return CharacteristicRecord(float(i1), float(i2), float(total), float(np.exp(-total / 4.0)))
