"""Fugacity equation, phase classification, condensate sequences, and the
critical temperature for the finite/continuum Bose gas.

The fugacity equation rho_target = f_L(1 + t) has a unique root t = y - 1 on
(0, infinity) because f_L is a strictly decreasing continuous bijection onto
(rho_ir, infinity).  The solver works in t alone: Brent in u = 1/t, in which
f_L is nearly linear past rho_crit (its zero-mode term is N_i u / L^d), on a
bracket certified at both ends (the proof bound on t below and the zero mode
alone above), stopped loosely and polished with Newton steps in t using the
analytic derivative.  A double t resolves f_L to the roundoff of rho, so the
residual reaches that roundoff at every L; y = 1 + t is formed only for
output.  Solves take
their lattice from `lattice.lattice_modes` and classifications rho_crit from
`phonon_gas.rho_crit`, memos keyed on values, so calls at one (L, beta) or one
beta share a build or a quadrature without being handed it.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics, phonon_gas
from .errors import BracketError, UnsolvableDensity
from .lattice import lattice_modes

RESIDUAL_TOL = 1e-10
# Brent in u = 1/t stops at this relative width; Newton in t finishes the root
BRENT_RTOL = 1e-6
# Newton stops at this many eps of the target density (or RESIDUAL_TOL if less):
# f_L sums thousands of shells, so its rounding is a few eps of rho
ROUNDOFF = 4.0 * np.finfo(float).eps
# classify_phase calls a target this close to rho_crit critical
CRITICAL_TOL = 1e-9
# critical_temperature brackets beta_c within this range
BETA_RANGE = (1e-3, 1e3)
# critical_temperature accepts beta_c once log rho_crit(beta_c) is this close
# to log target: about ten times the scatter of rho_crit's quadrature between
# nearby beta, and well inside a 1e-12 relative match of the density.
LOG_DENSITY_TOL = 3e-13


@dataclass(frozen=True)
class FugacitySolution:
    box_size: float
    t: float  # y_L - 1, the variable of the solve
    residual: float
    bracket_bound: float
    target_density: float
    infrared_density: float
    brent_iterations: int  # in u = 1/t, before the Newton polish
    newton_steps: int  # Newton polish steps taken after it
    tail_bound: float  # the lattice's certified truncation tail


def fugacity_bracket_bound(modes, target_density, infrared_density):
    """Upper bound on t_L = y_L - 1: [N_i/(rho - rho_ir)] L^{-d} (1 + sum e^{-beta F})."""
    vol = modes.box_size**modes.dimension
    return (
        modes.num_internal
        / (target_density - infrared_density)
        / vol
        * (1.0 + modes.included_weight)
    )


def solve_fugacity(box_size, target_density, beta, disp, n_ir=0.0, num_internal=1):
    """Unique t = y - 1 > 0 with f_L(1 + t) = target_density, residual below RESIDUAL_TOL.

    Brent runs in u = 1/t, where f_L is nearly linear past rho_crit (its
    zero-mode term is N_i u / L^d), on a bracket certified at both ends: f_L
    is below the target at u = 1/bound, and above it at
    u = 2 (rho - rho_ir) L^d / N_i, where the zero mode alone carries twice
    rho - rho_ir.  Brent stops at BRENT_RTOL, and Newton steps in t finish the
    root until the residual is at the roundoff of the target density.  Every
    evaluation goes through `phonon_gas.lattice_density` at t = 1/u itself, so
    no rounding of y limits the residual.
    """
    modes = lattice_modes(box_size, disp, beta, num_internal)
    vol = box_size**modes.dimension
    rho_ir = n_ir / vol
    if target_density <= rho_ir:
        raise UnsolvableDensity(
            f"target density {target_density:g} does not exceed the infrared floor {rho_ir:g}"
        )
    bound = fugacity_bracket_bound(modes, target_density, rho_ir)

    def g(t):
        return phonon_gas.lattice_density(modes, t, n_ir) - target_density

    lo, hi = 1.0 / bound, 2.0 * (target_density - rho_ir) * vol / num_internal
    g_lo, g_hi = g(1.0 / lo), g(1.0 / hi)
    if g_lo > 0 or g_hi < 0:
        raise BracketError(f"no sign change of the fugacity equation on u = 1/t in ({lo:g}, {hi:g})")
    root = numerics.brentq(lambda u: g(1.0 / u), lo, hi, xtol=0.0, rtol=BRENT_RTOL, maxiter=200, fa=g_lo, fb=g_hi)
    t, res = 1.0 / root.root, root.residual
    newton_steps, stop = 0, min(ROUNDOFF * target_density, RESIDUAL_TOL)
    while abs(res) > stop and newton_steps < 4:
        t -= res / phonon_gas.lattice_density_derivative(modes, t)
        res = g(t)
        newton_steps += 1
    residual = abs(res)
    if not residual <= RESIDUAL_TOL:  # a NaN residual fails too
        raise BracketError(f"fugacity residual {residual:.3e} at t = {t!r} above tolerance {RESIDUAL_TOL:g}")
    return FugacitySolution(float(box_size), float(t), float(residual), float(bound), float(target_density),
                            float(rho_ir), root.iterations, newton_steps, modes.tail_bound)


@dataclass(frozen=True)
class PhaseReport:
    phase: str  # condensed | normal | critical
    y_infinity: float
    normal_fugacity: float  # b solving rho_fr(beta, b) = rho_target (1.0 if condensed/critical)
    condensate_density: float
    critical_density: float


def classify_phase(target_density, beta, disp, num_internal=1):
    """Condensed/normal/critical trichotomy against rho_crit(beta)."""
    rc = phonon_gas.rho_crit(disp, beta, num_internal)
    if abs(target_density - rc) <= CRITICAL_TOL:
        return PhaseReport("critical", 1.0, 1.0, 0.0, rc)
    if target_density > rc:
        return PhaseReport("condensed", 1.0, 1.0, target_density - rc, rc)

    def g(y):
        return phonon_gas.rho_fr(disp, beta, y, num_internal) - target_density

    hi = 2.0
    g_hi = g(hi)
    while g_hi > 0:
        hi *= 4.0
        if hi > 1e18:
            raise BracketError("normal-phase fugacity bracket not found")
        g_hi = g(hi)
    b = numerics.brentq(g, 1.0 + 1e-13, hi, xtol=1e-13, rtol=8.9e-16, maxiter=300, fb=g_hi).root
    return PhaseReport("normal", float(b), float(b), 0.0, rc)


@dataclass(frozen=True)
class CondensateSequence:
    box_sizes: tuple
    solutions: tuple  # one FugacitySolution per box size
    condensate_densities: tuple  # [N_i/t_L + N_ir] / L^d
    extrapolated: float
    regime: PhaseReport  # the phase whose finite-size law the extrapolation fits


def condensate_sequence(box_sizes, target_density, beta, disp, n_ir=0.0, num_internal=1):
    """Condensate density per volume along an increasing ladder of box sizes.

    The limit estimate fits a + b / L^p through the last three points, with
    the finite-size law of the phase: p = 1 when the gas condenses or is
    critical (the boundary-mode sum is O(1/L)), p = d in the normal phase,
    where N_b0 = N_i / t_L stays bounded and only the volume divides it.
    """
    box_sizes = [float(L) for L in box_sizes]
    if not box_sizes or any(b >= a for b, a in zip(box_sizes, box_sizes[1:])):
        raise ValueError("box sizes must be strictly increasing and nonempty")
    regime = classify_phase(target_density, beta, disp, num_internal)
    solutions, densities = [], []
    for L in box_sizes:
        sol = solve_fugacity(L, target_density, beta, disp, n_ir, num_internal)
        solutions.append(sol)
        densities.append((num_internal / sol.t + n_ir) / L**disp.dimension)
    tail = min(3, len(box_sizes))
    Ls = np.asarray(box_sizes[-tail:])
    vals = np.asarray(densities[-tail:])
    if tail == 1:
        limit = float(vals[0])
    else:
        power = disp.dimension if regime.phase == "normal" else 1
        design = np.stack([np.ones_like(Ls), 1.0 / Ls**power], axis=1)
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        limit = float(coef[0])
    return CondensateSequence(tuple(box_sizes), tuple(solutions), tuple(densities), limit, regime)


def critical_temperature(target_density, disp, num_internal=1):
    """beta_c with rho_crit(beta_c) = target_density, and T_c = 1/beta_c.

    Monotonicity of rho_crit in beta is verified on nine geometric samples of
    BETA_RANGE.  The sample interval on which rho_crit - target changes sign
    is the bracket, and the root is solved there for log rho_crit(e^s) =
    log target in s = log beta, reusing both end values.  That function is
    linear when the gap goes as k^p near 0 (rho_crit ~ beta^{-d/p}) and nearly
    so otherwise, so Brent needs a few steps.  A beta whose density is within
    LOG_DENSITY_TOL of the target in log is the root; when that beta is a
    sample, it is returned as sampled.
    """
    samples = np.geomspace(*BETA_RANGE, 9)
    vals = np.array([phonon_gas.rho_crit(disp, b, num_internal) for b in samples])
    diffs = np.diff(vals)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise BracketError("rho_crit(beta) is not monotone on the search interval")
    side = np.sign(vals - target_density)
    change = np.flatnonzero(side[:-1] * side[1:] <= 0)
    if not change.size:
        raise BracketError(
            f"rho_crit spans [{vals.min():g}, {vals.max():g}] on the interval; "
            f"target {target_density:g} is outside"
        )
    i = int(change[0])
    log_target = np.log(target_density)

    def miss(rho):
        m = np.log(rho) - log_target
        return 0.0 if abs(m) <= LOG_DENSITY_TOL else m

    fa, fb = miss(vals[i]), miss(vals[i + 1])
    if fa == 0.0 or fb == 0.0:
        beta_c = float(samples[i] if fa == 0.0 else samples[i + 1])
    else:
        s_c = numerics.brentq(
            lambda s: miss(phonon_gas.rho_crit(disp, np.exp(s), num_internal)),
            np.log(samples[i]), np.log(samples[i + 1]), xtol=1e-14, rtol=8.9e-16, maxiter=300, fa=fa, fb=fb,
        ).root
        beta_c = float(np.exp(s_c))
    return beta_c, 1.0 / beta_c
