"""Finite boxes of lattice momenta (2 pi / L) Z^d with thermal truncation.

Modes are kept while exp(-beta F(k)) is at least eps_trunc times its value at
the smallest nonzero mode; the discarded tail is bounded by a radial integral
and recorded on the object.

Every mode sum of a radial dispersion depends on a mode n only through |n|^2
and, for the interior/boundary split, through how many of its coordinates are
zero.  The mode set is therefore stored as shells: the occupied values
m = |n|^2 up to the cut and, for each, the number of modes with z = 0..d zero
coordinates.  The counts come from shift-and-add convolutions of square
indicators (Grosswald, Representations of Integers as Sums of Squares, 1985),
in O(sqrt(m_max) m_max) time and O(m_max) = O(L^2) memory, so no (2n+1)^d
cube is enumerated: the ~1e9 modes of L = 640 are counted in under a second.
Per-mode coordinates, needed only by test functions that are not radial, are
enumerated on first use with the same cut.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numerics
from .dispersion import sphere_area
from .errors import BracketError


@dataclass(frozen=True)
class LatticeModes:
    box_size: float
    dimension: int
    num_internal: int
    cut_radius: float  # modes with |k| <= cut_radius are kept
    shells: np.ndarray = field(repr=False)  # (n_shells,) occupied m = |n|^2, increasing from 0
    counts: np.ndarray = field(repr=False)  # (n_shells, d + 1) modes on shell m with z zero coordinates
    tail_bound: float
    included_weight: float  # sum over kept modes of exp(-beta F(k))

    @property
    def spacing(self):
        return 2.0 * np.pi / self.box_size

    @property
    def num_modes(self):
        return int(self.counts.sum())

    def shell_norms(self):
        """|k| on each shell: sqrt(m) times the spacing."""
        return np.sqrt(self.shells) * self.spacing

    def interior_counts(self):
        """Modes per shell with every coordinate nonzero."""
        return self.counts[:, 0]

    def boundary_counts(self):
        """Nonzero modes per shell with at least one vanishing coordinate."""
        return self.counts[:, 1 : self.dimension].sum(axis=1)

    def excited_counts(self):
        """Nonzero modes per shell (none on the m = 0 shell)."""
        return self.counts[:, : self.dimension].sum(axis=1)

    @cached_property
    def coords(self):
        """(n_modes, d) integer multi-indices, enumerated on first use."""
        m_max = int(self.shells[-1])
        n_axis = math.isqrt(m_max)
        axes = [np.arange(-n_axis, n_axis + 1, dtype=np.int32)] * self.dimension
        grids = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        keep = np.square(coords, dtype=np.int64).sum(axis=1) <= m_max
        return np.ascontiguousarray(coords[keep])

    @property
    def momenta(self):
        return self.coords.astype(float) * self.spacing

    def norms(self):
        return np.linalg.norm(self.momenta, axis=1)

    def zero_mask(self):
        return np.all(self.coords == 0, axis=1)

    def all_nonzero_mask(self):
        """Modes with every coordinate nonzero (interior modes)."""
        return np.all(self.coords != 0, axis=1)

    def boundary_mask(self):
        """Nonzero modes with at least one vanishing coordinate."""
        return ~self.zero_mask() & ~self.all_nonzero_mask()

    def cell_volume(self):
        return self.spacing**self.dimension


def _shell_counts(m_max, d):
    """Occupied m <= m_max and the modes of Z^d on |n|^2 = m by zero count.

    nonzero[j][m] counts the points of (Z \\ {0})^j on the sphere |n|^2 = m;
    one more nonzero coordinate +-a shifts it by a^2, so each step is a
    shift-and-add over the squares a^2 <= m_max, exact in int64.  A mode with
    z zero coordinates chooses which z axes vanish:
    counts[m, z] = C(d, z) nonzero[d - z][m].
    """
    squares = np.arange(1, math.isqrt(m_max) + 1) ** 2
    point = np.zeros(m_max + 1, dtype=np.int64)
    point[0] = 1
    line = np.zeros(m_max + 1, dtype=np.int64)
    line[squares] = 2
    nonzero = [point, line]
    for _ in range(2, d + 1):
        prev, nxt = nonzero[-1], np.zeros(m_max + 1, dtype=np.int64)
        for s in squares:
            nxt[s:] += prev[: m_max + 1 - s]
        nonzero.append(2 * nxt)
    counts = np.stack([math.comb(d, z) * nonzero[d - z] for z in range(d + 1)], axis=1)
    occupied = np.flatnonzero(counts.any(axis=1))
    return occupied, counts[occupied]


def _cut_shell(k_cut, spacing):
    """Largest m with sqrt(m) * spacing <= k_cut, the test a per-mode norm would pass."""
    m = np.arange(int((k_cut / spacing) ** 2) + 3)
    return int(np.count_nonzero(np.sqrt(m) * spacing <= k_cut)) - 1


def _tail_bound(box_size, disp, beta, k_cut):
    """Bound Sum over modes |k| > k_cut of exp(-beta F(k)) by a shell integral.

    Each excluded mode owns a lattice cell contained in |k| > k_cut - sqrt(d)/2
    * spacing, and exp(-beta F) is radially decreasing, so the mode sum is
    below the cell-density integral over that region.
    """
    d = disp.dimension
    spacing = 2.0 * np.pi / box_size
    r0 = max(k_cut - 0.5 * np.sqrt(d) * spacing, 0.0)
    hi = disp.gap_inverse(disp.gap(k_cut) + 200.0 / beta)
    integrand = lambda k: k ** (d - 1) * np.exp(-beta * disp.gap(k))
    val = numerics.integrate(integrand, r0, hi, epsabs=1.49e-8, epsrel=1.49e-8, limit=200).value
    return (box_size / (2.0 * np.pi)) ** d * sphere_area(d) * val


def build_lattice_modes(box_size, disp, beta, num_internal=1, eps_trunc=1e-16):
    """Shells of Gamma_L^d with exp(-beta F(k)) above the truncation floor.

    The cut radius is widened until the certified tail bound drops below
    1e-12 of the included thermal weight; BracketError if it never does.
    """
    if box_size <= 0:
        raise ValueError("box_size must be positive")
    if num_internal < 1:
        raise ValueError("num_internal must be >= 1")
    d = disp.dimension
    spacing = 2.0 * np.pi / box_size
    # floor = eps_trunc * exp(-beta F(spacing)), kept in log form
    gap_cut = -np.log(eps_trunc) / beta + float(disp.gap(spacing))
    for _ in range(12):
        k_cut = disp.gap_inverse(gap_cut)
        shells, counts = _shell_counts(_cut_shell(k_cut, spacing), d)
        weights = np.exp(-beta * np.asarray(disp.gap(np.sqrt(shells) * spacing), dtype=float))
        included = float(counts.sum(axis=1) @ weights)
        tail = _tail_bound(box_size, disp, beta, k_cut)
        if tail <= 1e-12 * included:
            break
        gap_cut += 5.0 / beta
    else:
        raise BracketError(
            f"lattice tail bound {tail:.3e} stays above 1e-12 of the included weight "
            f"{included:.3e} at cut radius {k_cut:g}"
        )
    return LatticeModes(
        float(box_size), d, int(num_internal), float(k_cut), shells, counts, float(tail), included
    )
