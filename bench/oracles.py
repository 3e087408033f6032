"""Reference values computed without hpbec, for the benchmark's output checks.

Everything here is written from the physics, not from the program: lattice
sums count the points of Z^3 on each sphere |n|^2 = m with a convolution of
square indicators (the program enumerates a cube of modes), continuum
integrals use mpmath quadrature or closed forms (the program uses scipy), and
the atomic-limit spectrum is the exact displaced-oscillator spectrum (the
program diagonalizes the truncated coupled Hamiltonian).

Conventions shared with the program's inputs: the dispersion is
omega(k) = |k|^2 + omega0, so the gap is F(k) = |k|^2; a Gaussian test
function is f(k) = A exp(-|k - c|^2 / (2 sigma^2)) with zero mode A sigma^3;
the coupling of site x is exp(-i k.a_x) exp(-|k|^2 / (2 w^2)) 1[|k| >= kappa]
with a_x = (x, 0, 0).
"""

import itertools
import math
from functools import lru_cache

import mpmath
import numpy as np

ZETA_3_2 = float(mpmath.zeta(1.5))
_EXP_FLOOR = 50.0  # terms below e^-50 of the leading one are dropped


def rho_crit(beta):
    """Critical density of the quadratic gas: zeta(3/2) (4 pi beta)^(-3/2)."""
    return ZETA_3_2 * (4.0 * math.pi * beta) ** -1.5


def critical_beta(rho):
    """beta_c with rho_crit(beta_c) = rho, inverted in closed form."""
    return (ZETA_3_2 / rho) ** (2.0 / 3.0) / (4.0 * math.pi)


def normal_density(b, beta):
    """Continuum density at normal-phase fugacity b > 1: Li_{3/2}(1/b) (4 pi beta)^(-3/2)."""
    with mpmath.workdps(30):
        li = mpmath.polylog(1.5, 1 / mpmath.mpf(b))
        return float(li * (4 * mpmath.pi * beta) ** mpmath.mpf(-1.5))


@lru_cache(maxsize=None)
def sphere_counts(m_max):
    """r3(m) = #{n in Z^3 : |n|^2 = m} for m = 0..m_max, exact integers."""
    c1 = np.zeros(m_max + 1, dtype=np.int64)
    c1[np.arange(1, math.isqrt(m_max) + 1) ** 2] = 2
    c1[0] = 1
    c2 = np.convolve(c1, c1)[: m_max + 1]
    return np.convolve(c2, c1)[: m_max + 1]


def lattice_density(box_size, y, beta):
    """f_L(y) = L^-3 [1/(y-1) + sum over n != 0 of 1/(y e^{beta |2 pi n / L|^2} - 1)]."""
    step = beta * (2.0 * math.pi / box_size) ** 2
    m_max = math.ceil(_EXP_FLOOR / step)
    counts = sphere_counts(m_max)[1:]
    w = np.exp(-step * np.arange(1, m_max + 1)) / y
    excited = math.fsum(counts * (w / (1.0 - w)))
    return (1.0 / (y - 1.0) + excited) / box_size**3


def finite_weyl_value(box_size, y, beta, f):
    """exp(-I_L/4) with I_L = (2pi/L)^3 [|A sigma^3|^2 (y+1)/(y-1)
    + sum over n != 0 of |f(k_n)|^2 (y e^{beta k^2} + 1)/(y e^{beta k^2} - 1)].

    Summed slab by slab over every mode where |f|^2 is above e^-50 of its peak.
    """
    spacing = 2.0 * math.pi / box_size
    amp = complex(*f["amplitude"])
    sigma = f["width"]
    center = np.asarray(f["center"], dtype=float)
    reach = np.linalg.norm(center) + sigma * math.sqrt(_EXP_FLOOR)
    n_axis = math.ceil(reach / spacing)
    k = np.arange(-n_axis, n_axis + 1) * spacing
    g = [np.exp(-np.square(k - center[i]) / sigma**2) for i in range(3)]
    g_yz = np.multiply.outer(g[1], g[2])
    k2_yz = np.add.outer(k * k, k * k)
    partial = []
    for ix, kx in enumerate(k):
        e = np.exp(beta * (kx * kx + k2_yz))
        vals = g[0][ix] * g_yz * (y * e + 1.0) / (y * e - 1.0)
        if ix == n_axis:
            vals[n_axis, n_axis] = 0.0  # the zero mode is the I1 term
        partial.append(vals.sum())
    cell = spacing**3
    i1 = cell * abs(amp * sigma**3) ** 2 * (y + 1.0) / (y - 1.0)
    i2 = cell * abs(amp) ** 2 * math.fsum(partial)
    return math.exp(-(i1 + i2) / 4.0)


def q0(f, condensate_density):
    """q0 = c |A sigma^3|^2 with c = 2 (2 pi)^3 rho_0 (one internal state)."""
    c = 2.0 * (2.0 * math.pi) ** 3 * condensate_density
    return c * abs(complex(*f["amplitude"]) * f["width"] ** 3) ** 2


def q1(f, beta):
    """q1 = integral of |f(k)|^2 coth(beta |k|^2 / 2) dk by mpmath radial quadrature.

    The angular integral of exp(2 k.c / sigma^2) is 4 pi sinh(a k)/(a k) with
    a = 2|c|/sigma^2.
    """
    return _q1(tuple(f["amplitude"]), f["width"], tuple(f["center"]), beta)


@lru_cache(maxsize=None)
def _q1(amplitude, width, center, beta):
    amp = complex(*amplitude)
    sigma = mpmath.mpf(width)
    c = math.sqrt(sum(x * x for x in center))
    with mpmath.workdps(25):
        a = 2 * mpmath.mpf(c) / sigma**2
        half_beta = mpmath.mpf(beta) / 2

        def integrand(k):
            if k == 0:
                return 2 / mpmath.mpf(beta)
            radial = k * k / mpmath.tanh(half_beta * k * k)
            shc = mpmath.sinh(a * k) / (a * k) if a * k != 0 else 1
            return radial * mpmath.exp(-k * k / sigma**2) * shc

        pts = [0, sigma, 3 * sigma, 6 * sigma + c, 12 * sigma + 2 * c]
        val = mpmath.quad(integrand, pts)
        pref = abs(amp) ** 2 * mpmath.exp(-mpmath.mpf(c) ** 2 / sigma**2) * 4 * mpmath.pi
        return float(pref * val)


def overlap_gaussian(uv_width, delta):
    """m = 0, kappa = 0 overlap: (pi w^2)^{3/2} exp(-w^2 delta^2 / 4)."""
    return (math.pi * uv_width**2) ** 1.5 * math.exp(-(uv_width**2) * delta**2 / 4.0)


@lru_cache(maxsize=None)
def overlap_inverse_omega(uv_width, kappa, delta, omega0=1.0):
    """m = -1/2 overlap: 4 pi integral over k >= kappa of
    k^2 e^{-k^2/w^2} / (k^2 + omega0) * sin(k delta)/(k delta) dk (mpmath)."""
    with mpmath.workdps(25):
        w2 = mpmath.mpf(uv_width) ** 2
        d = mpmath.mpf(delta)

        def integrand(k):
            sinc = mpmath.sin(k * d) / (k * d) if delta else 1
            return k * k * mpmath.exp(-k * k / w2) / (k * k + omega0) * sinc

        top = 11 * mpmath.mpf(uv_width)  # e^{-121} beyond
        pts = mpmath.linspace(mpmath.mpf(kappa), top, 41)
        return float(4 * mpmath.pi * mpmath.quad(integrand, pts))


def atomic_spectrum(alpha, repulsion, box_size, uv_width, kappa, coords, num_levels, omega0=1.0):
    """Lowest levels of the two-site, two-electron cluster with zero hopping.

    Each fermion configuration s is a displaced set of oscillators, so its
    levels are U D(s) - (alpha^2/2) sum_xy R_xy n_x n_y + sum_j n_j omega_j,
    with R_xy = Re sum_j conj(lambda_xj) lambda_yj / omega_j over the sampled
    modes and lambda_xj carrying the cell weight (2 pi / L)^{3/2}.
    """
    spacing = 2.0 * math.pi / box_size
    k = np.asarray(coords, dtype=float) * spacing
    norm = np.linalg.norm(k, axis=1)
    omega = norm**2 + omega0
    sites = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    lam = (
        np.exp(-1j * sites @ k.T)
        * np.exp(-(norm**2) / (2.0 * uv_width**2))
        * (norm >= kappa)
        * spacing**1.5
    )
    R = np.real(np.conj(lam) / omega @ lam.T)
    fermion = []
    for occ in itertools.product((0, 1), repeat=4):  # (site, spin) occupations
        if sum(occ) != 2:
            continue
        n = np.array([occ[0] + occ[1], occ[2] + occ[3]], dtype=float)
        double = occ[0] * occ[1] + occ[2] * occ[3]
        fermion.append(repulsion * double - 0.5 * alpha**2 * n @ R @ n)
    quanta = range(num_levels)  # omega_j >= omega0 > 0, so higher quanta lie above
    boson = [float(np.dot(q, omega)) for q in itertools.product(quanta, repeat=len(omega))]
    return sorted(e + b for e in fermion for b in boson)[:num_levels]
