"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion before asserting, so a
plain pytest run doubles as a checklist of the package's headline guarantees:
the dressing identity, Gibbs factorization, the fugacity equation, critical
density/temperature, condensate asymptotics, characteristic-functional limits,
the Bessel identities, the direct-integral decomposition, broken gauge
symmetry, and the state axioms.
"""

import numpy as np

from hpbec import bec_states, condensation, decoupling, phonon_gas
from hpbec.couplings import CouplingFamily
from hpbec.dispersion import quadratic_dispersion
from hpbec.hubbard import build_hubbard_system
from hpbec.lattice import build_lattice_modes
from hpbec.linalg import gibbs
from hpbec.testfunctions import gaussian_test_function
from lattice_ball import ball
from references import angular_identity_check, bessel_identity_check
from test_decoupling import dense_h_full

DISP = quadratic_dispersion()
BETA = 1.0
LEVEL_CAPS = (6, 9, 12)
MODE_COORDS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}")
    assert ok, f"{label}: {detail}"


def make_coupled_system(alpha=0.2):
    cluster = build_hubbard_system(2, 2, [[0.0, -1.0], [-1.0, 0.0]], 2.0, coupling=alpha, beta=BETA)
    family = CouplingFamily(2, 3, 2.0, 0.5)
    return decoupling.build_coupled_system(cluster, family, DISP, 10.0, MODE_COORDS)


def random_observable_pairs(sys, count, seed):
    rng = np.random.default_rng(seed)
    dim = sys.hubbard.sector.dim
    pairs = []
    for _ in range(count):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = 0.5 * (A + A.conj().T)
        A /= np.linalg.norm(A)
        f = 0.15 * (rng.standard_normal(sys.num_modes) + 1j * rng.standard_normal(sys.num_modes))
        pairs.append((A, f))
    return pairs


def test_dressing_identity_residual_ladder():
    sys = make_coupled_system()
    rep = decoupling.verify_dressing_identity(sys, LEVEL_CAPS)
    ok = rep.monotone and rep.residuals[-1] <= 1e-3
    report(
        "dressing identity residual ladder",
        ok,
        f"residuals={['%.3e' % r for r in rep.residuals]}",
    )


def test_gibbs_factorization_randomized_pairs():
    sys = make_coupled_system()
    pairs = random_observable_pairs(sys, 5, seed=21)
    gaps = np.zeros((len(pairs), len(LEVEL_CAPS)))
    for j, cap in enumerate(LEVEL_CAPS):
        ops = decoupling.build_coupled_operators(sys, cap)
        rho_full, _ = gibbs(dense_h_full(sys, cap), BETA)
        rho_e, _ = gibbs(ops.h_electron_dressed, BETA)
        rho_b, _ = gibbs(np.diag(ops.h_boson), BETA)
        for i, (A, f) in enumerate(pairs):
            W = ops.boson_space.weyl(f)
            lhs = complex(np.trace(np.kron(A, W) @ rho_full))
            phase = decoupling.density_phase(sys, f)
            rhs = complex(np.trace(phase[:, None] * A @ rho_e)) * complex(np.trace(W @ rho_b))
            gaps[i, j] = abs(lhs - rhs)
    # with hopping on, the gaps plateau because the reference omits the
    # Lang-Firsov dressing of the hopping term, which does not commute with n_x;
    # so allow a small relative slack on top of nonincrease instead of
    # strict ordering
    monotone = bool(np.all(gaps[:, 1:] <= gaps[:, :-1] * 1.01 + 1e-12))
    small = bool(np.all(gaps[:, -1] <= 1e-3))

    free = make_coupled_system(alpha=0.0)
    A0, f0 = random_observable_pairs(free, 1, seed=22)[0]
    exact = decoupling.factorization_check(decoupling.build_coupled_operators(free, 6), A0, f0).gap
    ok = monotone and small and exact <= 1e-10
    report(
        "Gibbs factorization of dressed observables",
        ok,
        f"max final gap={gaps[:, -1].max():.3e}, zero-coupling gap={exact:.3e}",
    )


def test_fugacity_equation_randomized_fixtures():
    rng = np.random.default_rng(31)
    worst_residual, all_bounded, all_unique = 0.0, True, True
    for _ in range(20):
        L = float(rng.uniform(4.0, 8.0))
        beta = float(rng.uniform(0.6, 1.6))
        rho = float(rng.uniform(0.3, 3.0)) * phonon_gas.rho_crit(DISP, beta)
        modes = build_lattice_modes(L, DISP, beta)
        sol = condensation.solve_fugacity(L, rho, beta, DISP)
        worst_residual = max(worst_residual, sol.residual)
        all_bounded &= 0.0 < sol.t <= sol.bracket_bound
        # independent grid scan for uniqueness of the sign change
        coords = ball(modes)
        u = np.exp(-beta * np.asarray(DISP.gap(np.linalg.norm(coords * modes.spacing, axis=1)), dtype=float))
        u = u[np.any(coords != 0, axis=1)]
        ys = np.linspace(1.0 + 1e-9, 1.0 + sol.bracket_bound + 1.0, 801)
        vals = np.array(
            [(1.0 / (y - 1.0) + np.sum(u / (y - u))) / L**3 - rho for y in ys]
        )
        all_unique &= int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))) == 1
    ok = worst_residual <= 1e-10 and all_bounded and all_unique
    report(
        "fugacity equation solved uniquely",
        ok,
        f"worst residual={worst_residual:.3e}, bounds ok={all_bounded}, unique roots={all_unique}",
    )


def test_critical_density_series_oracle():
    got = phonon_gas.rho_crit(DISP, 1.0)
    zeta_32 = float(np.sum(np.arange(1, 400001) ** -1.5)) + 2.0 / np.sqrt(400000.5)
    oracle = np.sqrt(np.pi) * zeta_32 / (8 * np.pi**2)
    err = abs(got - oracle) / oracle
    report("critical density series oracle", err <= 1e-6, f"rel err={err:.3e}")


def test_condensate_asymptotics_both_regimes():
    rc = phonon_gas.rho_crit(DISP, BETA)
    ladder = (10.0, 20.0, 40.0, 80.0)
    seq = condensation.condensate_sequence(ladder, 2.0 * rc, BETA, DISP)
    final_err = abs(seq.condensate_densities[-1] - rc) / rc
    extrap_err = abs(seq.extrapolated - rc) / rc
    normal = condensation.condensate_sequence(ladder, 0.5 * rc, BETA, DISP)
    dens = normal.condensate_densities
    normal_ok = all(a > b for a, b in zip(dens, dens[1:])) and dens[-1] <= 1e-2
    ok = final_err <= 0.05 and extrap_err <= 0.01 and normal_ok
    report(
        "condensate density asymptotics",
        ok,
        f"final={final_err:.3e}, extrapolated={extrap_err:.3e}, normal tail={dens[-1]:.3e}",
    )


def test_critical_temperature_round_trip():
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        rc = phonon_gas.rho_crit(DISP, beta)
        beta_c, _ = condensation.critical_temperature(rc, DISP)
        worst = max(worst, abs(beta_c - beta))
    report("critical temperature round trip", worst <= 1e-8, f"worst |beta_c - beta|={worst:.3e}")


def test_characteristic_functional_finite_volume_limits():
    rc = phonon_gas.rho_crit(DISP, BETA)
    rho = 20.0 * rc
    f = gaussian_test_function(3, center=[1.4, 0.0, 0.0], width=0.6)
    phase = bec_states.CondensatePhase(0.0, 0.0, rho - rc)
    q0 = bec_states.q_form("q0", f, DISP, BETA, phase=phase)
    q1 = bec_states.q_form("q1", f, DISP, BETA)
    g1, g2 = [], []
    for L in (10.0, 20.0, 40.0):
        modes = build_lattice_modes(L, DISP, BETA)
        sol = condensation.solve_fugacity(L, rho, BETA, DISP)
        rec = phonon_gas.finite_volume_characteristic(modes, f, sol.t)
        g1.append(abs(rec.i1 - q0) / q0)
        g2.append(abs(rec.i2 - q1) / q1)
    dec1 = all(a > b for a, b in zip(g1, g1[1:]))
    dec2 = all(a > b for a, b in zip(g2, g2[1:]))
    ok = dec1 and dec2 and g1[-1] <= 1e-2 and g2[-1] <= 1e-2
    report(
        "characteristic functional limits",
        ok,
        f"condensate gaps={['%.3e' % g for g in g1]}, thermal gaps={['%.3e' % g for g in g2]}",
    )


def test_bessel_identity_grids():
    worst_radial = max(
        bessel_identity_check(a, b)
        for a in (0.5, 1.0, 2.0, 3.5, 5.0)
        for b in (0.0, 1.0, 4.0, 9.0, 16.0)
    )
    worst_angular = max(
        angular_identity_check(p, q)
        for p in (0.0, 0.5, 1.5, 2.5, 4.0)
        for q in (0.0, 0.5, 1.5, 2.5, 4.0)
    )
    ok = worst_radial <= 1e-8 and worst_angular <= 1e-8
    report(
        "Bessel averaging identities",
        ok,
        f"radial={worst_radial:.3e}, angular={worst_angular:.3e}",
    )


def test_direct_integral_decomposition_suite():
    rc = phonon_gas.rho_crit(DISP, BETA)
    phase = bec_states.CondensatePhase(1.0, 0.0, rc)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        f = gaussian_test_function(
            3,
            center=rng.normal(scale=0.4, size=3),
            width=float(rng.uniform(0.6, 1.6)),
            amplitude=complex(rng.normal(), rng.normal()) * 0.5,
        )
        worst = max(worst, bec_states.decomposition_gap(f, DISP, BETA, phase))
    report("direct-integral decomposition", worst <= 1e-6, f"worst gap={worst:.3e}")


def test_gauge_symmetry_breaking_fingerprints():
    rc = phonon_gas.rho_crit(DISP, BETA)
    base = bec_states.CondensatePhase(1.0, 0.0, rc)
    f = gaussian_test_function(3, center=[0.3, 0.0, 0.0], width=0.9, amplitude=0.6 + 0.2j)
    rng = np.random.default_rng(71)
    worst_shift = 0.0
    for _ in range(100):
        ph = base.with_angles(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0, 2 * np.pi)))
        worst_shift = max(
            worst_shift,
            bec_states.gauge_shift_check(ph, f, float(rng.uniform(-3, 3)), DISP, BETA),
        )

    f1, f2 = bec_states.canonical_probe_pair(base.amplitude)
    worst_r, worst_theta = 0.0, 0.0
    prints = set()
    for _ in range(100):
        ph = base.with_angles(float(rng.uniform(0.05, 9.0)), float(rng.uniform(0, 2 * np.pi)))
        v1 = bec_states.e_fingerprint(ph, f1)
        v2 = bec_states.e_fingerprint(ph, f2)
        rec = bec_states.fingerprint_recover(v1, v2)
        worst_r = max(worst_r, abs(rec.r - ph.r))
        wrapped = abs(np.mod(rec.theta - ph.theta + np.pi, 2 * np.pi) - np.pi)
        worst_theta = max(worst_theta, wrapped)
        prints.add((round(v1.real, 12), round(v1.imag, 12), round(v2.real, 12), round(v2.imag, 12)))
    distinct = len(prints) == 100
    ok = worst_shift <= 1e-12 and worst_r <= 1e-9 and worst_theta <= 1e-9 and distinct
    report(
        "broken gauge symmetry fingerprints",
        ok,
        f"shift={worst_shift:.3e}, r err={worst_r:.3e}, theta err={worst_theta:.3e}, distinct={distinct}",
    )


def test_state_axioms():
    # dressed electron Gibbs state: positive, unit trace
    sys = make_coupled_system()
    ops = decoupling.build_coupled_operators(sys, 6)
    rho_e, _ = gibbs(ops.h_electron_dressed, BETA)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho_e + rho_e.conj().T)).min())
    trace_err = abs(np.trace(rho_e) - 1.0)
    state_ok = min_eig >= -1e-10 and trace_err <= 1e-10

    mass_err = abs(bec_states.chi_average(lambda r, th: 1.0) - 1.0)

    rc = phonon_gas.rho_crit(DISP, BETA)
    phase = bec_states.CondensatePhase(1.0, 0.7, rc)
    rng = np.random.default_rng(83)
    bounded = True
    for _ in range(20):
        f = gaussian_test_function(
            3,
            center=rng.normal(scale=0.5, size=3),
            width=float(rng.uniform(0.5, 1.8)),
            amplitude=complex(rng.normal(), rng.normal()),
        )
        bounded &= bec_states.psi_bec(f, DISP, BETA, phase) <= 1.0 + 1e-14
        bounded &= abs(bec_states.psi_fiber(phase, f, DISP, BETA)) <= 1.0 + 1e-14
        bounded &= bec_states.psi_normal(f, DISP, BETA, 1.3) <= 1.0 + 1e-14

    # the fiber density is affine in r, so its chi-average is its value at <r>
    mean_r = bec_states.chi_average(lambda r, th: r)
    mean_density = bec_states.fiber_density(phase.with_angles(r=mean_r.real), DISP, BETA)
    density_err = abs(mean_density - 2.0 * rc) + abs(mean_r.imag)

    ok = state_ok and mass_err <= 1e-10 and bounded and density_err <= 1e-10
    report(
        "state axioms",
        ok,
        f"min eig={min_eig:.2e}, trace err={trace_err:.2e}, chi mass err={mass_err:.2e}, "
        f"bounded={bounded}, mean density err={density_err:.2e}",
    )
