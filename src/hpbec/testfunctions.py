"""Momentum-space Gaussian test functions for characteristic functionals.

A test function is defined directly in momentum space,
f(k) = A exp(-|k - k0|^2 / (2 sigma^2)), so pointwise values enter mode sums
and kernel integrals, while the zero mode (2pi)^{-d/2} * integral of f equals
A sigma^d in closed form.
"""

from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True, eq=False)
class GaussianTestFunction:
    """Compares and hashes by (dimension, center, width, amplitude), so two
    separately built equal Gaussians share the memos keyed on them; `center`
    is a read-only copy."""

    dimension: int
    center: np.ndarray = field(repr=False)
    width: float
    amplitude: complex

    def __post_init__(self):
        center = np.zeros(self.dimension) if self.center is None else np.array(
            np.reshape(self.center, self.dimension), dtype=float
        )
        if self.width <= 0:
            raise ValueError("width must be positive")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    def _key(self):
        return self.dimension, tuple(self.center.tolist()), self.width, self.amplitude

    def __eq__(self, other):
        if not isinstance(other, GaussianTestFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def values(self, k_points):
        """Pointwise f(k) for k_points of shape (..., d)."""
        k = np.asarray(k_points, dtype=float)
        if k.shape[-1] != self.dimension:
            raise ValueError(
                f"k points have dimension {k.shape[-1]}, expected {self.dimension}"
            )
        d2 = np.sum(np.square(k - self.center), axis=-1)
        return self.amplitude * np.exp(-d2 / (2.0 * self.width**2))

    def axis_factors(self, axis_k):
        """Row i: exp(-(k - c_i)^2 / sigma^2) on the 1-D grid axis_k; |f(k)|^2 = |A|^2 prod_i row_i(k_i)."""
        k = np.asarray(axis_k, dtype=float)
        if k.ndim != 1:
            raise ValueError(f"axis momenta have shape {k.shape}, expected a 1-D grid")
        return np.exp(-np.square(k - self.center[:, None]) / self.width**2)

    @property
    def zero_mode(self):
        """(2pi)^{-d/2} * integral f(k) dk = A sigma^d, exact."""
        return self.amplitude * self.width**self.dimension

    def scaled(self, factor):
        """Same Gaussian with the amplitude multiplied by a complex factor."""
        return replace(self, amplitude=self.amplitude * complex(factor))



def gaussian_test_function(dimension, center=None, width=1.0, amplitude=1.0):
    center = np.zeros(dimension) if center is None else np.asarray(center, dtype=float)
    return GaussianTestFunction(dimension, center, float(width), complex(amplitude))
