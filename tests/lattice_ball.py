"""Brute-force reference for the shell-compressed lattice: the modes one by one.

`ball(modes)` enumerates the cube [-n, n]^d around the kept ball and applies
the per-mode cut |k| <= cut_radius, in cube order.  Tests compare every shell
count and shell sum of `LatticeModes` against sums over these coordinates.
"""

import numpy as np


def ball(modes):
    """Every mode of the cube that the per-mode cut |k| <= cut_radius keeps, in cube order."""
    d = modes.dimension
    n_axis = int(np.ceil(modes.cut_radius / modes.spacing))
    axes = [np.arange(-n_axis, n_axis + 1)] * d
    coords = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    keep = np.linalg.norm(coords.astype(float), axis=1) * modes.spacing <= modes.cut_radius
    return coords[keep]
