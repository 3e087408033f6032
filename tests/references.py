"""Reference quantities the tests compare hpbec against, which no command needs:
closed forms, an overlap quadrature written from its definition, the pair
of Bessel identities behind the chi-average of `bec_states`, the lattice
point counts of Z^3 in integer arithmetic, and the shell series of a product
weight built one axis at a time.
"""

import math

import numpy as np
from scipy.special import j0

from hpbec import lattice, numerics
from hpbec.couplings import radial_reduced_integral


def unitary_defect(U):
    """Frobenius norm of U^dagger U - 1."""
    U = np.asarray(U)
    return np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]))


def gaussian_norm_sq(f):
    """L^2 norm squared of a Gaussian test function, |A|^2 (sqrt(pi) sigma)^d, exact."""
    return abs(f.amplitude) ** 2 * (np.sqrt(np.pi) * f.width) ** f.dimension


def cross_overlap(family, disp, m, f, x):
    """<omega^m f, omega^m lambda_x> for a Gaussian test function f."""
    sigma2 = f.width**2
    gamma = 0.5 / sigma2 + 0.5 / family.uv_width**2
    drift = f.center / sigma2 - 1j * family.site_position(x)
    pref = np.conj(f.amplitude) * np.exp(-np.sum(np.square(f.center)) / (2.0 * sigma2))
    weight = None if m == 0 else (lambda k: np.asarray(disp.radial_profile(k), dtype=float) ** (2.0 * m))
    return radial_reduced_integral(family.dimension, family.kappa, gamma, drift, weight, pref)


def bessel_identity_check(a, b):
    """|quad - closed form| for integral_0^inf e^{-ar} J0(sqrt(br)) dr = e^{-b/4a}/a."""
    integrand = lambda r, _: np.exp(-a * r) * j0(np.sqrt(b * r))
    val = numerics.integrate(integrand, 0.0, 60.0 / a, epsabs=1.49e-8, epsrel=1.49e-8, limit=300).value
    return abs(val - np.exp(-b / (4.0 * a)) / a)


def angular_identity_check(p, q):
    """|mean - J0(sqrt(p^2+q^2))| for the equispaced angular mean of e^{i(p cos + q sin)}."""
    theta = np.linspace(0.0, 2.0 * np.pi, 1025)[:-1]
    val = np.exp(1j * (p * np.cos(theta) + q * np.sin(theta))).mean()
    return abs(val - j0(np.hypot(p, q)))


def sphere_counts_3d(m_max):
    """r3(m) for m = 0..m_max, the points n of Z^3 with |n|^2 = m, in int64: r2 is the
    bincount of a^2 + b^2 over the square [-N, N]^2, N = isqrt(m_max), and
    r3(m) = sum_c r2(m - c^2) over the third coordinate c in [-N, N]."""
    a = np.arange(-math.isqrt(m_max), math.isqrt(m_max) + 1)
    r2 = np.bincount((a[:, None] ** 2 + a[None, :] ** 2).ravel(), minlength=m_max + 1)[: m_max + 1]
    r3 = np.zeros(m_max + 1, dtype=np.int64)
    for c in a:
        r3[c * c :] += r2[: m_max + 1 - c * c]
    return r3


def per_axis_sphere_series(rows, m_max):
    """The shell series of `lattice._sphere_series` with every axis a shift-and-add:
    from the point n = 0, one `lattice._add_axis` per row, N = isqrt(m_max)."""
    n_axis = math.isqrt(m_max)
    series = np.zeros(m_max + 1)
    series[0] = 1.0
    for row in rows:
        series = lattice._add_axis(series, row[n_axis], row[n_axis + 1 :] + row[n_axis - 1 :: -1])
    return series
