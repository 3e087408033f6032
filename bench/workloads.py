"""Workload inputs (drawn from the benchmark seed) and their output checks.

`make_round(name, seed, out_dir)` returns the operations one round runs; the
same seed gives the same operations.  `check(ops, outputs)` returns, per
operation, the checks it failed and the worst error of each.  Every
reference comes from `oracles` (closed forms, mpmath, independent lattice
sums) or from a property the method must have, never from stored program
output.
"""

import csv
import json
import math
import os

import numpy as np

import oracles

WORKLOADS = ("condense-ladder", "dressing-ladder", "bec-suite")

BETA = 1.0
CONDENSE_BOXES = [10, 20, 40, 80]
COMBINED_BOXES = [10, 20, 40]
# Atomic-limit cluster: two sites, two electrons, zero hopping.
CLUSTER = {"alpha": 0.2, "repulsion": 2.0, "box_size": 10.0, "uv_width": 2.0, "kappa": 0.5}
ATOMIC = [
    "hubbard.hopping=[[0,0],[0,0]]",
    f"hubbard.repulsion={CLUSTER['repulsion']}",
    f"hubbard.alpha={CLUSTER['alpha']}",
    f"hubbard.uv_width={CLUSTER['uv_width']}",
    f"hubbard.kappa={CLUSTER['kappa']}",
    f"sweep.coupled_box_size={CLUSTER['box_size']}",
    f"thermo.beta={BETA}",
]
MODES_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
MODES_2 = [[1, 0, 0], [0, 1, 0]]
NUM_LEVELS = 5
SUITE_SIZE = 24
OVERLAP_SITES = 8
# bec-suite states sit at rho = 2 rho_c, so the condensate density is rho_c.
CONDENSATE_DENSITY = oracles.rho_crit(BETA)


def _amplitude(zero_mode_sq, width, phase_angle):
    """Amplitude A with c |A sigma^3|^2 = zero_mode_sq at the suite's condensate density."""
    c = 2.0 * (2.0 * math.pi) ** 3 * CONDENSATE_DENSITY
    a = math.sqrt(zero_mode_sq / c) / width**3
    return [a * math.cos(phase_angle), a * math.sin(phase_angle)]


def _suite_function(rng):
    """A Gaussian with c |fhat(0)|^2 in [1, 400], where the chi-average is accurate."""
    width = float(rng.uniform(1.0, 2.0))
    return {
        "center": [float(x) for x in rng.normal(scale=0.4, size=3)],
        "width": width,
        "amplitude": _amplitude(float(rng.uniform(1.0, 400.0)), width, float(rng.uniform(0.0, 2.0 * math.pi))),
    }


def _cli(command, out_dir, overrides):
    argv = ["--command", command, "--out", out_dir]
    for item in overrides:
        argv += ["--override", item]
    return {"op": "cli", "command": command, "out": out_dir, "argv": argv}


def condense_op(out_dir, box_sizes):
    op = _cli("condense", out_dir, [f"thermo.beta={BETA}", f"sweep.box_sizes={box_sizes}"])
    return {**op, "box_sizes": box_sizes}


def make_round(name, seed, out_dir):
    """The operations of one round of workload `name` (JSON-serialisable)."""
    rng = np.random.default_rng(seed)
    prog_seed = int(rng.integers(2**31))
    sub = lambda i: os.path.join(out_dir, f"op{i}")  # noqa: E731
    if name == "condense-ladder":
        direction = rng.normal(size=3)
        center = direction / np.linalg.norm(direction) * rng.uniform(0.2, 0.5)
        f = {
            "center": [float(x) for x in center],
            "width": float(rng.uniform(0.6, 1.0)),
            "amplitude": [float(rng.normal() * 0.5), float(rng.normal() * 0.5)],
        }
        return [
            condense_op(sub(0), CONDENSE_BOXES),
            {"op": "combined_limit", "box_sizes": COMBINED_BOXES, "beta": BETA, "rho_scale": 2.0, "f": f},
        ]
    if name == "dressing-ladder":
        system = {"op": "decoupling", "modes": MODES_3, **CLUSTER}
        return [
            {**system, "check": "dressing", "level_caps": [3, 4, 5]},
            {**system, "check": "spectral", "level_cap": 5, "num_levels": NUM_LEVELS},
            _cli(
                "decouple-verify",
                sub(2),
                ATOMIC + [f"sweep.mode_coords={MODES_2}", "sweep.level_caps=[6,9,12]", f"seed={prog_seed}"],
            ),
        ]
    if name == "bec-suite":
        betas = sorted(float(b) for b in rng.uniform(0.5, 2.0, size=3))
        scales = [float(rng.uniform(0.3, 0.8)), 1.0, float(rng.uniform(1.5, 3.0))]
        uv_width = float(rng.uniform(1.5, 2.5))
        phase = {"r": float(rng.uniform(0.5, 2.0)), "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
                 "condensate_density": CONDENSATE_DENSITY}
        ops = [
            _cli("fingerprint", sub(0), [f"thermo.beta={BETA}", f"seed={prog_seed}"]),
            _cli(
                "phase-diagram",
                sub(1),
                [f"phase_grid.betas={json.dumps(betas)}", f"phase_grid.densities={json.dumps(scales)}"],
            ),
            {"op": "overlap_matrix", "num_sites": OVERLAP_SITES, "uv_width": uv_width, "kappa": 0.0, "m": 0.0},
            {"op": "overlap_matrix", "num_sites": OVERLAP_SITES, "uv_width": uv_width, "kappa": 0.5, "m": -0.5},
            {"op": "fiber_density", "phase": phase, "beta": BETA},
        ]
        for rho in np.exp(rng.uniform(math.log(0.01), math.log(1.0), size=3)):
            ops.append({"op": "critical_temperature", "rho": float(rho)})
        for _ in range(SUITE_SIZE):
            f = _suite_function(rng)
            for kind in ("q1", "q0", "psi_bec", "decomposition_gap"):
                ops.append({"op": kind, "f": f, "phase": phase, "beta": BETA})
        return ops
    raise ValueError(f"unknown workload {name!r}")


# --- reading the CLI's artifacts ---------------------------------------------


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_artifacts(out_dir):
    """Every CSV (as a list of row dicts) and JSON file the CLI wrote."""
    found = {}
    for fname in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, fname)
        if fname.endswith(".csv"):
            with open(path, newline="") as fh:
                found[fname] = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        elif fname.endswith(".json"):
            with open(path) as fh:
                found[fname] = json.load(fh)
    return found


# --- checks --------------------------------------------------------------------


class Checks:
    """Named comparisons for one operation; each records its error and tolerance."""

    def __init__(self):
        self.failed = []
        self.errors = {}

    def _record(self, name, err, tol):
        self.errors[name] = max(self.errors.get(name, 0.0), err)
        if not err <= tol:  # also catches NaN
            self.failed.append(f"{name}: error {err:.3e} > {tol:.1e}")

    def rel(self, name, got, want, tol):
        self._record(name, abs(got - want) / abs(want), tol)

    def abs(self, name, got, want, tol):
        self._record(name, abs(got - want), tol)

    def below(self, name, value, limit):
        self._record(name, value, limit)

    def true(self, name, cond):
        if not cond:
            self.failed.append(name)


def _is_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def check_condense(op, out, ck):
    rows = out["artifacts"]["condense.csv"]
    summary = out["artifacts"]["condense.json"]
    rc = oracles.rho_crit(BETA)
    rho = summary["rho_target"]
    ck.rel("rho_crit closed form", summary["rho_crit"], rc, 1e-10)
    ck.rel("rho_target = 2 rho_crit", rho, 2.0 * rc, 1e-10)
    ck.true("phase is condensed", summary["phase"] == "condensed")
    ck.true("one row per box size", [r["L"] for r in rows] == [float(L) for L in op["box_sizes"]])
    for row in rows:
        ck.true(f"y_L > 1 at L={row['L']:g}", row["y_L"] > 1.0)
        if row["y_L"] > 1.0:
            ck.rel("f_L(y_L) = rho (own mode sum)", oracles.lattice_density(row["L"], row["y_L"], BETA), rho, 1e-10)
    ck.rel("extrapolated condensate density", summary["extrapolated_condensate_density"], rho - rc, 1e-2)


def check_combined_limit(op, out, ck, fugacities):
    f = op["f"]
    for L, value in zip(op["box_sizes"], out["finite_values"]):
        y = fugacities.get(float(L))
        ck.true(f"condense run solved L={L}", y is not None)
        if y is not None:
            ck.rel("finite value = exp(-I_L/4) (own mode sum)", value[0], oracles.finite_weyl_value(L, y, op["beta"], f), 1e-10)
            ck.below("finite value is real", abs(value[1]), 0.0)
    rc = oracles.rho_crit(op["beta"])
    limit = math.exp(-(oracles.q0(f, (op["rho_scale"] - 1.0) * rc) + oracles.q1(f, op["beta"])) / 4.0)
    ck.rel("limit = exp(-(q0+q1)/4)", out["limit_value"][0], limit, 1e-10)
    ck.below("limit is real", abs(out["limit_value"][1]), 0.0)
    # The gaps themselves need not shrink with L: the finite-size corrections of
    # the zero-mode term and of the Riemann sum can cancel at small L.


def check_dressing(op, out, ck):
    res = out["residuals"]
    ck.true("dressing ladder monotone", _nonincreasing(res))
    ck.below("final dressing residual", res[-1], 1e-8)


def check_spectral(op, out, ck):
    exact = oracles.atomic_spectrum(
        op["alpha"], op["repulsion"], op["box_size"], op["uv_width"], op["kappa"], op["modes"], op["num_levels"]
    )
    for key in ("coupled", "decoupled"):
        ck.true(f"number of {key} levels", len(out[key]) == len(exact))
        for got, want in zip(out[key], exact):
            ck.abs(f"{key} level = exact atomic-limit level", got, want, 1e-9)


def check_decouple_verify(op, out, ck):
    summary = out["artifacts"]["decouple.json"]
    res = summary["dressing_residuals"]
    gaps = summary["factorization_gaps"]
    ck.true("dressing ladder monotone", summary["dressing_monotone"] is True and _nonincreasing(res))
    ck.below("final dressing residual", res[-1], 1e-8)
    ck.true("factorization gaps decrease", _is_decreasing(gaps))
    ck.below("factorization gap at cap 12", gaps[-1], 1e-7)
    spectral = {"alpha": CLUSTER["alpha"], "repulsion": CLUSTER["repulsion"], "box_size": CLUSTER["box_size"],
                "uv_width": CLUSTER["uv_width"], "kappa": CLUSTER["kappa"], "modes": MODES_2,
                "num_levels": NUM_LEVELS}
    levels = {key: summary[f"spectral_levels_{key}"] for key in ("coupled", "decoupled")}
    check_spectral(spectral, levels, ck)


def _angle_diff(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def check_fingerprint(op, out, ck):
    rows = out["artifacts"]["fingerprint.csv"]
    ck.true("32 round trips", len(rows) == 32)
    for row in rows:
        ck.abs("recovered r", row["recovered_r"], row["r"], 1e-12)
        ck.below("recovered theta", _angle_diff(row["recovered_theta"], row["theta"]), 1e-12)


def check_phase_diagram(op, out, ck):
    rows = out["artifacts"]["phase_diagram.csv"]
    ck.true("3 x 3 grid", len(rows) == 9)
    for row in rows:
        beta, rho, rc = row["beta"], row["rho_target"], row["rho_crit"]
        ck.rel("rho_crit(beta) closed form", rc, oracles.rho_crit(beta), 1e-10)
        scale = rho / oracles.rho_crit(beta)
        if abs(scale - 1.0) < 1e-6:
            ck.true("critical at rho = rho_crit", row["phase"] == "critical")
        elif scale > 1.0:
            ck.true("condensed above rho_crit", row["phase"] == "condensed")
            ck.rel("condensate density = rho - rho_crit", row["condensate_density"], rho - rc, 1e-10)
        else:
            ck.true("normal below rho_crit", row["phase"] == "normal")
            b = row["normal_fugacity"]
            ck.true("normal fugacity > 1", b > 1.0)
            if b > 1.0:
                ck.rel("Li_{3/2}(1/b) (4 pi beta)^-3/2 = rho", oracles.normal_density(b, beta), rho, 1e-9)


def check_overlap(op, out, ck):
    G = np.array(out["re"]) + 1j * np.array(out["im"])
    scale = np.abs(G).max()
    ck.below("hermitian", np.abs(G - G.conj().T).max() / scale, 1e-12)
    for x in range(op["num_sites"]):
        for y in range(op["num_sites"]):
            delta = abs(x - y)
            if op["m"] == 0.0 and op["kappa"] == 0.0:
                want = oracles.overlap_gaussian(op["uv_width"], delta)
            else:
                want = oracles.overlap_inverse_omega(op["uv_width"], op["kappa"], delta)
            ck.below("entry matches the oracle", abs(G[x, y] - want) / scale, 1e-10)
    if op["m"] != 0.0:
        ck.true("positive definite", np.linalg.eigvalsh(G).min() > 0.0)


def check_critical_temperature(op, out, ck):
    ck.rel("beta_c closed form", out["beta_c"], oracles.critical_beta(op["rho"]), 1e-10)
    ck.rel("T_c = 1/beta_c", out["t_c"] * out["beta_c"], 1.0, 1e-14)


def check_q_form(op, out, ck):
    if op["op"] == "q1":
        ck.rel("q1 = mpmath radial quadrature", out["value"], oracles.q1(op["f"], op["beta"]), 1e-9)
    else:
        want = oracles.q0(op["f"], op["phase"]["condensate_density"])
        ck.rel("q0 = c |A|^2 sigma^6", out["value"], want, 1e-12)


def check_psi_bec(op, out, ck):
    exponent = (oracles.q0(op["f"], op["phase"]["condensate_density"]) + oracles.q1(op["f"], op["beta"])) / 4.0
    psi = out["value"]
    ck.true("0 < psi_bec <= 1", 0.0 < psi <= 1.0)
    if psi > 0.0:
        ck.rel("psi_bec = exp(-(q0+q1)/4)", -math.log(psi), exponent, 1e-10)


def check_decomposition_gap(op, out, ck):
    # The gap is the chi-average error times the thermal factor exp(-q1/4);
    # compare the error itself, so that a small thermal factor cannot hide it.
    thermal = math.exp(-oracles.q1(op["f"], op["beta"]) / 4.0)
    ck.below("decomposition gap / exp(-q1/4)", out["value"] / thermal, 1e-11)


def check_fiber_density(op, out, ck):
    phase = op["phase"]
    want = phase["r"] * phase["condensate_density"] + oracles.rho_crit(op["beta"])
    ck.rel("fiber density = r rho_0 + rho_crit", out["value"], want, 1e-10)


CLI_CHECKS = {
    "condense": check_condense,
    "decouple-verify": check_decouple_verify,
    "fingerprint": check_fingerprint,
    "phase-diagram": check_phase_diagram,
}


def check(ops, outputs):
    """Per operation: None if it raised or exited nonzero, else
    (failed check messages, {check name: worst error})."""
    fugacities = {}
    verdicts = []
    for op, out in zip(ops, outputs):
        if out is None or out.get("exit_code", 0) != 0:
            verdicts.append(None)
            continue
        ck = Checks()
        try:
            if op["op"] == "cli":
                CLI_CHECKS[op["command"]](op, out, ck)
                if op["command"] == "condense":
                    fugacities = {row["L"]: row["y_L"] for row in out["artifacts"]["condense.csv"]}
            elif op["op"] == "combined_limit":
                check_combined_limit(op, out, ck, fugacities)
            elif op["op"] == "decoupling":
                (check_dressing if op["check"] == "dressing" else check_spectral)(op, out, ck)
            elif op["op"] == "overlap_matrix":
                check_overlap(op, out, ck)
            elif op["op"] == "critical_temperature":
                check_critical_temperature(op, out, ck)
            elif op["op"] in ("q0", "q1"):
                check_q_form(op, out, ck)
            elif op["op"] == "psi_bec":
                check_psi_bec(op, out, ck)
            elif op["op"] == "decomposition_gap":
                check_decomposition_gap(op, out, ck)
            elif op["op"] == "fiber_density":
                check_fiber_density(op, out, ck)
        except (KeyError, IndexError, TypeError, ValueError) as err:  # missing or malformed output
            ck.failed.append(f"malformed output: {type(err).__name__}: {err}")
        verdicts.append((ck.failed, ck.errors))
    return verdicts
