"""Finite boxes of lattice momenta (2 pi / L) Z^d with thermal truncation.

Modes are kept while exp(-beta F(k)) is at least EPS_TRUNC times its value at
the smallest nonzero mode; the discarded tail is bounded by a radial integral
and recorded on the object.  Solves reach a build through `lattice_modes`,
which memoizes `build_lattice_modes` by value.

Every mode sum of a radial dispersion depends on a mode n only through |n|^2.
The mode set is therefore stored as shells: the occupied values m = |n|^2 up
to the cut and, for each, its number of nonzero modes.  A weight that
factors over coordinates is summed shell by shell over per-axis rows
(Grosswald, Representations of Integers as Sums of Squares, 1985): the first
two axes are one bincount over the pairs of squares a^2 + b^2 <= m_max, in
O(m_max) time, and each further axis is one shift-and-add convolution, in
O(sqrt(m_max) m_max) time; memory is O(m_max) = O(L^2).  With unit rows it
counts the modes, so no (2n+1)^d cube is enumerated and the ~1e9 modes of
L = 640 are counted in about 0.2 s; with a Gaussian's per-axis
factors it gives the shell sums of |f(k)|^2 (`shell_sums`).

A build is for one (L, dispersion, beta), so it also keeps each shell's Bose
factors, w = exp(-beta F) and a = 1 - w = -expm1(-beta F), both computed
without cancellation, read-only like the shells and their counts.  At
fugacity y = 1 + t the Bose term of a shell is w / (a + t): every term is
>= 0, nothing overflows (w underflows to 0 on deeply gapped shells) and a
mode sum is one divide and one pairwise `np.sum` over the shells, whose
order no BLAS thread count changes.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .dispersion import sphere_area
from .errors import BracketError

# thermal truncation floor, relative to exp(-beta F) at the smallest nonzero mode
EPS_TRUNC = 1e-16


@dataclass(frozen=True)
class LatticeModes:
    box_size: float
    dimension: int
    num_internal: int
    cut_radius: float  # modes with |k| <= cut_radius are kept
    shells: np.ndarray = field(repr=False)  # (n_shells,) occupied m = |n|^2, increasing from 0
    tail_bound: float
    included_weight: float  # sum over kept modes of exp(-beta F(k))
    weights: np.ndarray = field(repr=False)  # (n_shells,) exp(-beta F) per shell, 1 on shell 0
    deficits: np.ndarray = field(repr=False)  # (n_shells,) 1 - exp(-beta F) = -expm1(-beta F), 0 on shell 0
    nonzero_modes: np.ndarray = field(repr=False)  # (n_shells,) nonzero modes per shell as floats, 0 on shell 0

    @property
    def spacing(self):
        return 2.0 * np.pi / self.box_size

    @property
    def num_modes(self):
        return int(self.nonzero_modes.sum()) + 1  # exact: integers below 2^53

    def cell_volume(self):
        return self.spacing**self.dimension

    def shell_sums(self, axis_weights):
        """Per shell, the sum over its modes n of prod_i w_i(n_i spacing); `axis_weights`
        maps the axis momenta n * spacing, n = -N..N with N = isqrt(m_max), to the
        (d, 2N + 1) array whose row i is w_i."""
        m_max = int(self.shells[-1])
        n_axis = math.isqrt(m_max)
        w = np.asarray(axis_weights(np.arange(-n_axis, n_axis + 1) * self.spacing), dtype=float)
        if w.shape != (self.dimension, 2 * n_axis + 1):
            raise ValueError(f"axis weights have shape {w.shape}, expected {(self.dimension, 2 * n_axis + 1)}")
        return _sphere_series(w, m_max)[self.shells]


def _sphere_series(rows, m_max):
    """Over m = 0..m_max, the sum over n in Z^d with |n|^2 = m of prod_i rows[i][n_i + N],
    N = isqrt(m_max): one bincount over the first two axes, then one shift-and-add per
    further axis, exact for integer rows."""
    n_axis = math.isqrt(m_max)
    # folded[i][a] weighs |n_i| = a on axis i: rows[i][N] at a = 0, rows[i][N + a] + rows[i][N - a] above
    folded = [np.concatenate((row[n_axis : n_axis + 1], row[n_axis + 1 :] + row[n_axis - 1 :: -1])) for row in rows]
    squares = np.arange(n_axis + 1) ** 2
    if len(rows) == 1:
        return np.bincount(squares, weights=folded[0], minlength=m_max + 1)
    # the pairs (a, b) with a^2 + b^2 <= m_max, b-major, so that each shell adds its terms
    # in the order of b, as a shift-and-add of the second axis onto the first does; b's
    # weights and squares are repeats, and at most three pair-sized arrays are ever alive
    runs = np.array([math.isqrt(m_max - s) + 1 for s in squares.tolist()])  # a = 0..runs[b] - 1
    a = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    weights = folded[0][a]
    weights *= np.repeat(folded[1], runs)
    index = squares[a]
    del a
    index += np.repeat(squares, runs)
    series = np.bincount(index, weights=weights, minlength=m_max + 1)
    del index, weights
    for row in folded[2:]:
        series = _add_axis(series, row[0], row[1:])
    return series


def _add_axis(series, zero, pairs):
    """One more coordinate on a series over m = |n|^2:
    out[m] = zero * series[m] + sum_a pairs[a - 1] * series[m - a^2].
    Equal pair weights (the unit rows that count modes) are added unscaled and scaled once."""
    size = len(series)
    top = np.flatnonzero(series)[-1] + 1 if series.any() else 0  # series[top:] is zero
    equal = len(pairs) > 0 and bool(np.all(pairs == pairs[0]))
    out = np.zeros(size) if equal else zero * series
    for a, w in enumerate(pairs, start=1):
        s = a * a
        n = min(top, size - s)
        if n <= 0:
            break
        out[s : s + n] += series[:n] if equal else w * series[:n]
    if equal:
        out *= pairs[0]
        out += zero * series
    return out


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
    integrand = lambda k, _: k ** (d - 1) * np.exp(-beta * disp.gap(k))
    val = numerics.integrate(integrand, r0, hi, epsabs=1.49e-8, epsrel=1.49e-8, limit=200).value
    return (box_size / (2.0 * np.pi)) ** d * sphere_area(d) * val


def build_lattice_modes(box_size, disp, beta, num_internal=1):
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
    # floor = EPS_TRUNC * exp(-beta F(spacing)), kept in log form
    gap_cut = -np.log(EPS_TRUNC) / beta + float(disp.gap(spacing))
    for _ in range(12):
        k_cut = disp.gap_inverse(gap_cut)
        m_max = _cut_shell(k_cut, spacing)
        series = _sphere_series(np.ones((d, 2 * math.isqrt(m_max) + 1)), m_max)
        shells = np.flatnonzero(series)
        counts = series[shells]  # modes per shell, 1 on shell 0
        exponents = -beta * np.asarray(disp.gap(np.sqrt(shells) * spacing), dtype=float)
        weights = np.exp(exponents)
        included = float(np.sum(counts * weights))
        tail = _tail_bound(box_size, disp, beta, k_cut)
        if tail <= 1e-12 * included:
            break
        gap_cut += 5.0 / beta
    else:
        raise BracketError(
            f"lattice tail bound {tail:.3e} stays above 1e-12 of the included weight "
            f"{included:.3e} at cut radius {k_cut:g}"
        )
    deficits = -np.expm1(exponents)
    counts[0] = 0.0  # shell 0 is the zero mode alone
    for array in (shells, weights, deficits, counts):
        array.flags.writeable = False
    return LatticeModes(
        float(box_size), d, int(num_internal), float(k_cut), shells, float(tail), included,
        weights, deficits, counts,
    )


@functools.lru_cache(maxsize=8)
def lattice_modes(box_size, disp, beta, num_internal=1):
    """build_lattice_modes, once per value of its arguments.

    The shells depend on nothing else and are read-only, so the fugacity
    solves of one box size share a build; dispersions equal by value share
    an entry.
    """
    return build_lattice_modes(box_size, disp, beta, num_internal)
