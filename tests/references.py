"""Reference quantities the tests compare hpbec against, which no command needs:
closed forms, an overlap quadrature written from its definition, and the pair
of Bessel identities behind the chi-average of `bec_states`.
"""

import numpy as np
from scipy.special import j0

from hpbec import numerics
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
    integrand = lambda r: np.exp(-a * r) * j0(np.sqrt(b * r))
    val = numerics.integrate(integrand, 0.0, 60.0 / a, epsabs=1.49e-8, epsrel=1.49e-8, limit=300).value
    return abs(val - np.exp(-b / (4.0 * a)) / a)


def angular_identity_check(p, q):
    """|mean - J0(sqrt(p^2+q^2))| for the equispaced angular mean of e^{i(p cos + q sin)}."""
    theta = np.linspace(0.0, 2.0 * np.pi, 1025)[:-1]
    val = np.exp(1j * (p * np.cos(theta) + q * np.sin(theta))).mean()
    return abs(val - j0(np.hypot(p, q)))
