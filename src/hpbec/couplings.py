"""Infrared-cutoff coupling functions and Gaussian-weighted momentum integrals.

The coupling family attached to lattice sites a_x is
    lambda_x(k) = exp(-i k . a_x) exp(-|k|^2 / (2 uv_width^2)) 1[|k| >= kappa],
and every integral this module computes has the shape

    integral over |k| >= kappa of  w(|k|) exp(-gamma |k|^2) exp(k . c) dk

for a radial weight w and a complex drift vector c.  Rotation invariance of
the Gaussian reduces the angular integral to a closed form in the complex
scalar z = sqrt(c . c) (non-conjugated dot product): 2 cosh(kz) in d = 1,
2 pi I0(kz) in d = 2 (a periodic trapezoid rule on 256 angles, summed over
a quarter circle by its symmetry), and 4 pi sinh(kz)/(kz) in d = 3.  The
radial factor is handled by adaptive quadrature of the complex integrand on
a finite interval chosen from the Gaussian decay.  A stack of drift vectors
is integrated in one quadrature call, each drift refined on panels of its
own; on the chain the Gram matrix is Toeplitz, so its whole first row is one
such call.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ContractViolation, InfraredDivergence

_LOG_CUTOFF = 46.0  # exp(-46) ~ 1e-20 relative tail
# The 256-angle trapezoid rule for the d = 2 angular mean of exp(kz cos theta),
# folded by cos(-theta) = cos(theta) and cos(pi - theta) = -cos(theta) onto the
# quarter 0 <= theta <= pi/2: a weighted mean of cosh(kz cos theta_j), j = 0..64.
_QUARTER_COS = np.cos(np.linspace(0.0, 2.0 * np.pi, 257)[:65])
_QUARTER_WEIGHTS = np.concatenate([[2.0], np.full(63, 4.0), [2.0]]) / 256.0


def _angular_factor(dimension, k, z):
    """Integral of exp(k . c) over the sphere |k| fixed, as a function of kz.

    `k` is an array of radii and `z` the complex sqrt(c . c), broadcast against it.
    """
    kz = k * z
    if dimension == 1:
        return 2.0 * np.cosh(kz)
    if dimension == 2:
        return 2.0 * np.pi * (np.cosh(np.multiply.outer(kz, _QUARTER_COS)) @ _QUARTER_WEIGHTS)
    if dimension == 3:
        small = np.abs(kz) < 1e-8
        safe = np.where(small, 1.0, kz)
        out = 4.0 * np.pi * np.sinh(safe) / safe
        return np.where(small, 4.0 * np.pi * (1.0 + kz * kz / 6.0), out)
    raise ValueError(f"dimension {dimension} not supported (1, 2 or 3)")


def radial_reduced_integral(dimension, kappa, gamma, drift, weight=None, prefactor=1.0):
    """integral over |k| >= kappa of w(|k|) e^{-gamma|k|^2} e^{k.c} dk.

    `drift` is the complex vector c, or a stack (..., d) of them integrated
    in one quadrature call on the interval the widest one needs, each on
    panels of its own and to its own tolerance; `weight` maps an array of
    radii to complex values (default 1).
    Returns a complex number, or an array of the stack's shape.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive (Gaussian decay required)")
    c = np.asarray(drift, dtype=complex)
    if c.shape[-1:] != (dimension,):
        raise ValueError(f"drift has shape {c.shape}, expected (..., {dimension})")
    z = np.sqrt((c * c).sum(axis=-1) + 0j).reshape(-1)
    zmod = max(map(abs, z.tolist()))  # Python's abs: np.abs can differ in the last bit, and so move k_max
    # beyond k_max the integrand is below exp(-_LOG_CUTOFF) of its peak
    k_max = (zmod + np.sqrt(zmod * zmod + 4.0 * gamma * _LOG_CUTOFF)) / (2.0 * gamma)
    k_max = max(k_max, kappa + 1.0)

    def integrand(k, comp):
        base = k ** (dimension - 1) * np.exp(-gamma * k * k) * _angular_factor(dimension, k, z[comp][:, None])
        if weight is not None:
            base = base * weight(k)
        return base

    quad = numerics.integrate(integrand, np.full(c.shape[:-1], kappa), k_max, epsabs=1e-13, epsrel=1e-12, limit=300)
    return complex(prefactor) * quad.value


@dataclass(frozen=True)
class CouplingFamily:
    """Site-indexed Gaussian couplings on a unit-spacing chain along axis 0."""

    num_sites: int
    dimension: int = 3
    uv_width: float = 2.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.uv_width <= 0:
            raise ValueError("uv_width must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")

    def site_position(self, x):
        if not 0 <= x < self.num_sites:
            raise ValueError(f"site {x} outside 0..{self.num_sites - 1}")
        a = np.zeros(self.dimension)
        a[0] = float(x)
        return a

    def values(self, x, k_points):
        """Pointwise lambda_x(k) on k_points of shape (..., d)."""
        k = np.asarray(k_points, dtype=float)
        norm = np.linalg.norm(k, axis=-1)
        phase = np.exp(-1j * k @ self.site_position(x))
        envelope = np.exp(-np.square(norm) / (2.0 * self.uv_width**2))
        return phase * envelope * (norm >= self.kappa)


def _check_infrared(disp, m, kappa):
    """Raise when k^{d-1} omega^{2m} is non-integrable at the origin."""
    if kappa > 0 or m >= 0 or disp.omega0 > 0:
        return
    p = disp.infrared_exponent()
    if disp.dimension + 2.0 * m * p <= 0:
        raise InfraredDivergence(
            f"coupling overlap diverges at k = 0: omega ~ k^{p:.3g} with weight omega^{2 * m:g} "
            f"in dimension {disp.dimension} and no infrared cutoff"
        )


def _overlap_row(family, disp, m):
    """G_0d for d = 0 .. num_sites - 1, from one quadrature of the stacked drifts i (a_0 - a_d)."""
    _check_infrared(disp, m, family.kappa)
    origin = family.site_position(0)
    drifts = 1j * np.array([origin - family.site_position(d) for d in range(family.num_sites)])
    gamma = 1.0 / family.uv_width**2
    weight = None if m == 0 else (lambda k: np.asarray(disp.radial_profile(k), dtype=float) ** (2.0 * m))
    return radial_reduced_integral(family.dimension, family.kappa, gamma, drifts, weight)


def coupling_overlap(family, disp, m, x, y):
    """<omega^m lambda_x, omega^m lambda_y>: entry y - x of the overlap row, conjugated below it."""
    d = int(family.site_position(y)[0] - family.site_position(x)[0])
    row = _overlap_row(family, disp, m)
    return complex(row[d]) if d >= 0 else complex(np.conj(row[-d]))


@dataclass(frozen=True)
class OverlapMatrix:
    entries: np.ndarray = field(repr=False)

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.entries).min())


def overlap_matrix(family, disp, m):
    """Gram matrix G_xy = <omega^m lambda_x, omega^m lambda_y>, Hermitian.

    The overlap depends only on a_x - a_y, so on the chain G is Toeplitz:
    one vector quadrature over the distances y - x gives the first row, and
    the first column is its conjugate.
    """
    G = numerics.hermitian_toeplitz(_overlap_row(family, disp, m))
    defect = np.abs(G - G.conj().T).max()
    if defect > 1e-10 * max(np.abs(G).max(), 1e-300):
        raise ContractViolation(f"overlap matrix lost hermiticity: defect {defect:.3e}")
    return OverlapMatrix(G)


def gaussian_density_integral(f, kernel=None):
    """integral of |f(k)|^2 kernel(|k|) dk for Gaussian f."""
    sigma2 = f.width**2
    pref = abs(f.amplitude) ** 2 * np.exp(-np.sum(np.square(f.center)) / sigma2)
    val = radial_reduced_integral(f.dimension, 0.0, 1.0 / sigma2, 2.0 * f.center / sigma2, kernel, pref)
    return float(np.real(val))
