"""Numpy-only quadrature, root finding, Toeplitz fill and monotone interpolation.

Each solver returns its certificate with its result: `integrate` the error
estimate and the number of integrand evaluations (arrays of intervals are a
stack of integrals, each refined on panels of its own and given a value and
an error estimate), `brentq` the function value
at the root and the number of iterations.  Both raise BracketError when their
budget runs out before the tolerance is met, instead of returning an
unconverged value.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BracketError

# Gauss-Kronrod 7-15 abscissae and weights on [-1, 1] (QUADPACK qk15: Piessens,
# de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983).
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# equal panels of [a, b] that `integrate` starts from; see its docstring
_START_PANELS = 8


class Quadrature(NamedTuple):
    value: complex  # a float for a real integrand; arrays over the components of a stack
    error: float
    evaluations: int
    passes: int  # calls of the integrand


class Root(NamedTuple):
    root: float
    residual: float  # f(root), signed
    iterations: int


def _kronrod_panels(f, lo, hi, comp):
    """K15 values, QUADPACK error estimates and K15 integrals of |f| on the panels [lo_i, hi_i],
    each of the shape of `lo`; f sees the panels flattened, with `comp` the component of each."""
    center, half = 0.5 * (lo + hi).reshape(-1, 1), 0.5 * (hi - lo).reshape(-1)
    fv = np.asarray(f(center + half[:, None] * _NODES, comp))
    resk, resg = fv @ _KRONROD, fv @ _GAUSS
    width = np.abs(half)
    resabs = width * (np.abs(fv) @ _KRONROD)
    resasc = width * (np.abs(fv - 0.5 * resk[:, None]) @ _KRONROD)
    err = np.abs((resk - resg) * half)
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return (resk * half).reshape(lo.shape), err.reshape(lo.shape), resabs.reshape(lo.shape)


def _largest_errors(errs, excess):
    """Panel indices by decreasing error, as many as must go for the rest to sum below `excess`."""
    order = np.argsort(-errs)
    return order[: int(np.searchsorted(np.cumsum(errs[order]), excess)) + 1]


def integrate(f, a, b, epsabs, epsrel, limit):
    """Globally adaptive G7-K15 quadrature of f over [a, b].

    `a` and `b` broadcast to the shape of the components, one interval each.
    Once per pass `f(nodes, comp)` gets nodes of shape (panels, 15) and the
    flat component index of each panel, and returns values of the nodes'
    shape, real or complex.  The first pass evaluates 8 equal panels of each
    interval (at most `limit`), with np.linspace's edges a + i ((b - a)/8)
    and b last, not QUADPACK's one: the integrands here are smooth on
    intervals cut from their decay, and each pass has a fixed cost however
    few panels it evaluates.  (A `bec-suite` benchmark round, seed 11, makes
    322, 159, 133 and 168 passes from 1, 4, 8 and 16 starting panels.)  Each
    later pass bisects, in each component above its tolerance max(epsabs,
    epsrel |value|, 100 eps integral |f|), the largest-error panels whose
    removal would bring its summed error estimate within it, as if it were
    integrated alone; the last term is the estimator's own floor, each
    panel's estimate being at least 50 eps of its integral of |f|.  Returns
    Quadrature(value, error, evaluations, passes), value and error of the
    components' shape unless a and b are scalars, evaluations the integrand
    values computed; raises BracketError if the integrand is not finite at a
    node or `limit` panels of a component do not reach its tolerance.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    start = min(_START_PANELS, limit)
    edges = a[..., None] + np.arange(start + 1.0) * ((b - a) / start)[..., None]
    edges[..., -1] = b
    shape, edges = edges.shape[:-1], edges.reshape(-1, start + 1)
    # (components, slots) storage: a split panel's lower half keeps its slot, its upper half takes the next free one
    lo, hi = edges[:, :-1], edges[:, 1:]
    vals, errs, absvals = _kronrod_panels(f, lo, hi, np.arange(len(lo)).repeat(start))
    value, error, integral_abs = vals.sum(axis=1), errs.sum(axis=1), absvals.sum(axis=1)
    used, evaluations, passes = [start] * len(lo), 15 * lo.size, 1
    while True:
        rows, slots, fresh, worst = [], [], [], ()  # the panels to bisect, and their upper halves' slots
        for c, (v, e, s) in enumerate(zip(value.tolist(), error.tolist(), integral_abs.tolist())):
            if not math.isfinite(e):
                raise BracketError(f"integrand is not finite on [{a.min():g}, {b.max():g}]")
            tol = max(epsabs, epsrel * abs(v), 100.0 * _EPS * s)
            if e > tol and used[c] >= limit:
                worst = max(worst, (e - tol, e, tol))
            elif e > tol:
                split = _largest_errors(errs[c, : used[c]], e - tol)[: limit - used[c]].tolist()
                rows += [c] * len(split)
                slots += split
                fresh += range(used[c], used[c] + len(split))
                used[c] += len(split)
        if worst:
            raise BracketError(
                f"quadrature on [{a.min():g}, {b.max():g}] reached {limit} intervals with error "
                f"estimate {worst[1]:.3e} above tolerance {worst[2]:.3e}"
            )
        if not rows:
            if shape:
                return Quadrature(value.reshape(shape), error.reshape(shape), evaluations, passes)
            return Quadrature(value[0].item(), error[0].item(), evaluations, passes)
        if vals.shape[1] < limit:  # at the first split, storage for `limit` panels per component
            grown = [np.zeros((len(x), limit), x.dtype) for x in (lo, hi, vals, errs, absvals)]
            for g, x in zip(grown, (lo, hi, vals, errs, absvals)):
                g[:, :start] = x
            lo, hi, vals, errs, absvals = grown
        rows, slots = np.array(rows), np.array(slots)
        left, right = lo[rows, slots], hi[rows, slots]
        mid = 0.5 * (left + right)
        new_lo, new_hi = np.concatenate([left, mid]), np.concatenate([mid, right])
        rows, slots = np.concatenate([rows, rows]), np.concatenate([slots, fresh])
        lo[rows, slots], hi[rows, slots] = new_lo, new_hi
        vals[rows, slots], errs[rows, slots], absvals[rows, slots] = _kronrod_panels(f, new_lo, new_hi, rows)
        evaluations += 15 * len(rows)
        passes += 1
        width = max(used)
        value = vals[:, :width].sum(axis=1)
        error, integral_abs = errs[:, :width].sum(axis=1), absvals[:, :width].sum(axis=1)


def brentq(f, a, b, xtol, rtol, maxiter, fa=None, fb=None):
    """Root of f on the sign-changing bracket [a, b] by Brent's method.

    Brent, Algorithms for Minimization without Derivatives (1973), in the
    step order of the common C transcription of his zeroin.  `fa`, `fb` are
    f(a), f(b) when the caller already holds them.  Returns Root(root, f(root), iterations);
    raises BracketError when the bracket has no sign change or `maxiter`
    iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre) if fa is None else fa)
    fcur = float(f(xcur) if fb is None else fb)
    if fpre == 0.0:
        return Root(xpre, 0.0, 0)
    if fcur == 0.0:
        return Root(xcur, 0.0, 0)
    if np.signbit(fpre) == np.signbit(fcur):
        raise BracketError(f"no sign change on [{a:g}, {b:g}]: f = {fpre:.3e}, {fcur:.3e}")
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return Root(xcur, fcur, iteration)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise BracketError(f"root on [{a:g}, {b:g}] not converged in {maxiter} iterations (f = {fcur:.3e})")


def hermitian_toeplitz(row):
    """T[i, j] = row[j - i] above the diagonal and conj(row[i - j]) on and below it."""
    row = np.asarray(row)
    lag = np.subtract.outer(np.arange(len(row)), np.arange(len(row)))
    return np.where(lag < 0, row[np.abs(lag)], np.conj(row[np.abs(lag)]))


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the end monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def monotone_cubic(x, y):
    """PCHIP interpolant of samples (x, y): returns (value, derivative) functions.

    Knot slopes are Fritsch-Butland weighted harmonic means of the adjacent
    secants (zero where they change sign), with one-sided three-point end
    slopes (SIAM J. Sci. Stat. Comput. 5, 300, 1984; end slopes as in Moler,
    Numerical Computing with MATLAB, 2004, section 3.6).  Both functions take
    arrays; points outside [x[0], x[-1]] are moved to the nearer end.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(x, m[0])
    if len(x) > 2:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, (w1 + w2) / (w1 / m[:-1] + w2 / m[1:]))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    # cubic c0 s^3 + c1 s^2 + c2 s + c3 on each interval, s = t - x[i]
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def locate(k):
        k = np.clip(np.asarray(k, dtype=float), x[0], x[-1])
        i = np.clip(np.searchsorted(x, k, side="right") - 1, 0, len(h) - 1)
        return i, k - x[i]

    def value(k):
        i, s = locate(k)
        return c3[i] + s * (c2[i] + s * (c1[i] + s * c0[i]))

    def derivative(k):
        i, s = locate(k)
        return c2[i] + s * (2.0 * c1[i] + s * 3.0 * c0[i])

    return value, derivative
