"""Command-line driver: config ingestion, experiment orchestration, and
machine-readable emission (CSV tables, JSON summaries, run manifest).

Exit codes: 0 success, 2 validation/contract failure, 3 numerical divergence,
4 verification failure (a residual ladder came back non-monotone).
"""

import argparse
import copy
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict

import numpy as np
from numpy.random import default_rng

from . import bec_states, condensation, decoupling, lattice, phonon_gas
from .couplings import CouplingFamily
from .dispersion import quadratic_dispersion, tabulated_dispersion, validate_dispersion
from .errors import (
    BracketError,
    ContractViolation,
    InfraredDivergence,
    UnsolvableDensity,
    VerificationFailure,
)
from .hubbard import build_hubbard_system
from .testfunctions import gaussian_test_function

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFICATION = 4

OUT_DIR_ENV = "HPBEC_OUT_DIR"
# The *_NUM_THREADS variables as this module is imported; numpy's BLAS reads them at numpy's import.
THREAD_ENV = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}

DEFAULT_CONFIG = {
    "dispersion": {
        "name": "quadratic",
        "omega0": 1.0,
        "mu_b": 0.0,
        "dimension": 3,
        "growth_exponent": 4.0,
        "table": None,  # optional [[k, r(k)], ...] samples
    },
    "hubbard": {
        "num_sites": 2,
        "num_electrons": 2,
        "hopping": [[0.0, -1.0], [-1.0, 0.0]],
        "repulsion": 2.0,
        "alpha": 0.2,
        "kappa": 0.5,
        "uv_width": 2.0,
    },
    "thermo": {
        "beta": 1.0,
        "temperature": None,
        "rho_target": None,  # default: 2 x critical density
        "num_internal": 1,
    },
    "sweep": {
        "box_sizes": [10.0, 20.0, 40.0],
        "level_caps": [6, 9, 12],
        "coupled_box_size": 10.0,
        "mode_coords": [[1, 0, 0], [0, 1, 0]],
    },
    "bec": {
        "r": 1.0,
        "theta": 1.0471975511965976,
        "suite_size": 10,
    },
    "phase_grid": {"densities": [0.5, 1.0, 2.0], "betas": [0.5, 1.0, 2.0]},
    "seed": 12345,
    "output": {"directory": "hpbec-out"},
}


# The memos behind the certified numbers, by the name each stage's "memos" record uses.
MEMOS = {
    "rho_crit": phonon_gas._rho_crit,
    "quadrature_range": phonon_gas._quadrature_range,
    "q1": bec_states._q1,
    "chi_rule": bec_states._chi_rule,
    "lattice_modes": lattice.lattice_modes,
}


def memo_counts():
    """(hits, misses) of every memo in MEMOS so far in this process."""
    return {name: memo.cache_info()[:2] for name, memo in MEMOS.items()}


def fmt(x):
    """17-significant-digit float formatting for diff-able CSV output.

    Also the JSON `default`: numpy scalars become Python values first, so an
    np.bool_ is written as a JSON boolean and an np.int64 as a number.
    """
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, int):  # bool included
        return x
    return str(x)


def deep_merge(base, override, prefix=""):
    """`override` merged into a copy of `base`; a key `base` lacks, a value
    given to a section and an object given to a value are errors."""
    if not isinstance(override, dict):
        raise ContractViolation(f"config section {prefix[:-1] or '<root>'!r} takes a JSON object")
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = prefix + key
        if key not in out:
            raise ContractViolation(f"unknown config key {name!r}")
        if isinstance(out[key], dict):
            out[key] = deep_merge(out[key], val, name + ".")
        elif isinstance(val, dict):
            raise ContractViolation(f"config key {name!r} takes a value, not a JSON object")
        else:
            out[key] = val
    return out


def load_config(path, overrides):
    """The defaults merged with the config file, then with each override KEY=VALUE
    as the object its dotted KEY spells, holding VALUE parsed as JSON."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            config = deep_merge(config, json.load(fh))
    for item in overrides:
        dotted, eq, raw = item.partition("=")
        if not eq:
            raise ContractViolation(f"override {item!r} is not KEY=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for key in reversed(dotted.split(".")):
            value = {key: value}
        config = deep_merge(config, value)
    thermo = config["thermo"]
    if (thermo.get("beta") is None) == (thermo.get("temperature") is None):
        raise ContractViolation("exactly one of thermo.beta / thermo.temperature must be set")
    if thermo.get("beta") is None:
        thermo["beta"] = 1.0 / float(thermo["temperature"])
    return config


def build_dispersion(config):
    d_cfg = config["dispersion"]
    if d_cfg.get("table"):
        table = np.asarray(d_cfg["table"], dtype=float)
        return tabulated_dispersion(
            table[:, 0],
            table[:, 1],
            dimension=int(d_cfg["dimension"]),
            growth_exponent=float(d_cfg["growth_exponent"]),
            mu_b=float(d_cfg["mu_b"]),
        )
    if d_cfg["name"] != "quadratic":
        raise ContractViolation(f"unknown dispersion {d_cfg['name']!r}")
    return quadratic_dispersion(
        omega0=float(d_cfg["omega0"]),
        mu_b=float(d_cfg["mu_b"]),
        dimension=int(d_cfg["dimension"]),
        growth_exponent=float(d_cfg["growth_exponent"]),
    )


def build_family(config):
    h = config["hubbard"]
    d = int(config["dispersion"]["dimension"])
    return CouplingFamily(int(h["num_sites"]), d, float(h["uv_width"]), float(h["kappa"]))


def build_cluster(config):
    h = config["hubbard"]
    return build_hubbard_system(
        int(h["num_sites"]),
        int(h["num_electrons"]),
        np.asarray(h["hopping"], dtype=float),
        float(h["repulsion"]),
        float(h["alpha"]),
        float(config["thermo"]["beta"]),
    )


def resolve_density(config, critical_density):
    """thermo.rho_target, or twice the critical density when it is unset."""
    target = config["thermo"]["rho_target"]
    return 2.0 * critical_density if target is None else float(target)


class Emitter:
    """Serialized artifact writer with an operation log for the manifest."""

    def __init__(self, out_dir, config, command):
        self.out_dir = out_dir
        self.config = config
        self.command = command
        self.artifacts = []
        self.stages = []
        os.makedirs(out_dir, exist_ok=True)

    def stage(self, name, fn):
        """Run one command function; log its wall seconds, the process's ru_maxrss after it
        (KiB on Linux) and the hits and misses of each memo during it."""
        before = memo_counts()
        start = time.perf_counter()
        code = fn(self.config, self)
        wall_s = time.perf_counter() - start
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        memos = {
            memo: {"hits": hits - before[memo][0], "misses": misses - before[memo][1]}
            for memo, (hits, misses) in memo_counts().items()
        }
        self.stages.append({"name": name, "wall_s": wall_s, "ru_maxrss": rss, "memos": memos})
        return code

    def csv(self, name, header, rows):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
        self.artifacts.append(name)
        return path

    def json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=fmt)
            fh.write("\n")
        self.artifacts.append(name)
        return path

    def manifest(self):
        digest = hashlib.sha256(
            json.dumps(self.config, sort_keys=True).encode()
        ).hexdigest()
        self.json(
            "manifest.json",
            {
                "command": self.command,
                "config_sha256": digest,
                "seed": self.config.get("seed"),
                "artifacts": sorted(self.artifacts),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "thread_env": THREAD_ENV,
                "stages": self.stages,
            },
        )


def cmd_validate(config, emitter):
    disp = build_dispersion(config)
    report = validate_dispersion(disp, float(config["thermo"]["beta"]))
    emitter.json(
        "validate.json",
        {
            "all_passed": report.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in report.checks
            ],
        },
    )
    if not report.all_passed:
        names = ", ".join(c.name for c in report.failed())
        print(f"dispersion validation failed: {names}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_condense(config, emitter):
    disp = build_dispersion(config)
    beta = float(config["thermo"]["beta"])
    n_i = int(config["thermo"]["num_internal"])
    rc = phonon_gas.rho_crit_quadrature(disp, beta, n_i)
    rho = resolve_density(config, rc.value)
    seq = condensation.condensate_sequence(config["sweep"]["box_sizes"], rho, beta, disp, num_internal=n_i)
    report = seq.regime
    rows = [
        (sol.box_size, 1.0 + sol.t, sol.residual, dens, report.phase)
        for sol, dens in zip(seq.solutions, seq.condensate_densities)
    ]
    emitter.csv("condense.csv", ["L", "y_L", "residual", "N_b0_over_Ld", "phase"], rows)
    emitter.json(
        "condense.json",
        {
            "rho_target": rho,
            "rho_crit": report.critical_density,
            "phase": report.phase,
            "extrapolated_condensate_density": seq.extrapolated,
            "expected_limit": max(rho - report.critical_density, 0.0),
        },
    )
    # the certificates: rho_crit's quadrature, and every solve's iterations and tail bound
    emitter.json(
        "diagnostics.json",
        {"rho_crit": rc._asdict(), "fugacity_solves": [asdict(sol) for sol in seq.solutions]},
    )
    return EXIT_OK


def cmd_phase_diagram(config, emitter):
    disp = build_dispersion(config)
    n_i = int(config["thermo"]["num_internal"])
    rows = []
    for beta in config["phase_grid"]["betas"]:
        rc = phonon_gas.rho_crit(disp, float(beta), n_i)
        for scale in config["phase_grid"]["densities"]:
            rho = float(scale) * rc
            rep = condensation.classify_phase(rho, float(beta), disp, n_i)
            rows.append(
                (beta, rho, rc, rep.phase, rep.normal_fugacity, rep.condensate_density)
            )
    emitter.csv(
        "phase_diagram.csv",
        ["beta", "rho_target", "rho_crit", "phase", "normal_fugacity", "condensate_density"],
        rows,
    )
    return EXIT_OK


def cmd_decouple_verify(config, emitter):
    disp = build_dispersion(config)
    family = build_family(config)
    cluster = build_cluster(config)
    sweep = config["sweep"]
    coords = sweep["mode_coords"]
    rows = isinstance(coords, list) and all(isinstance(c, list) and len(c) == disp.dimension for c in coords)
    if not (rows and coords):
        raise ContractViolation(
            f"sweep.mode_coords must be a nonempty list of rows of {disp.dimension} coordinates, not {coords!r}"
        )
    box = sweep["coupled_box_size"]
    if not (type(box) in (int, float) and 0 < box < np.inf):
        raise ContractViolation(f"sweep.coupled_box_size must be a positive finite number, not {box!r}")
    sys_c = decoupling.build_coupled_system(cluster, family, disp, float(box), np.asarray(coords, dtype=float))
    caps = sweep["level_caps"]
    integers = isinstance(caps, list) and all(type(c) is int for c in caps)
    if not (integers and caps and caps[0] >= 1 and caps == sorted(set(caps))):
        raise ContractViolation(
            f"sweep.level_caps must be a nonempty, strictly increasing list of integers >= 1, not {caps!r}"
        )
    dressing = decoupling.verify_dressing_identity(sys_c, caps)
    rng = default_rng(config.get("seed"))
    dim = cluster.sector.dim
    a_e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a_e = 0.5 * (a_e + a_e.conj().T)
    f_modes = rng.standard_normal(sys_c.num_modes) + 1j * rng.standard_normal(sys_c.num_modes)
    # one build per cap; the last one's eigendecomposition serves both its
    # Gibbs state and the spectral comparison
    builds = [decoupling.build_coupled_operators(sys_c, cap) for cap in caps]
    fact = decoupling.factorization_ladder(builds, a_e, f_modes)
    spectral = decoupling.spectral_comparison(builds[-1])
    emitter.csv(
        "decouple_ladder.csv",
        ["level_cap", "dressing_residual", "factorization_gap"],
        list(zip(caps, dressing.residuals, fact.gaps)),
    )
    emitter.json(
        "decouple.json",
        {
            "dressing_residuals": list(dressing.residuals),
            "dressing_monotone": dressing.monotone,
            "factorization_gaps": list(fact.gaps),
            "factorization_monotone": fact.monotone,
            "spectral_levels_coupled": [float(x) for x in spectral.coupled],
            "spectral_levels_decoupled": [float(x) for x in spectral.decoupled],
            "spectral_max_gap": spectral.max_gap,
            # per cap and group of components of h_full: their count, coupled modes and dense dimension
            "coupled_blocks": [
                {"level_cap": cap, "groups": [
                    dict(components=len(g.states), coupled_modes=g.coupled.tolist(), dense_dim=g.dense.shape[1])
                    for g in ops.groups
                ]}
                for cap, ops in zip(caps, builds)
            ],
        },
    )
    if not (dressing.monotone and fact.monotone):
        raise VerificationFailure("dressing/factorization residual ladder is not monotone")
    return EXIT_OK


def condensed_target(config, command):
    """The dispersion, beta, N_i, target density and condensate density of a
    condensed-phase command; UnsolvableDensity if the target does not condense."""
    disp = build_dispersion(config)
    beta = float(config["thermo"]["beta"])
    n_i = int(config["thermo"]["num_internal"])
    rho = resolve_density(config, phonon_gas.rho_crit(disp, beta, n_i))
    report = condensation.classify_phase(rho, beta, disp, n_i)
    if report.phase != "condensed":
        raise UnsolvableDensity(f"{command} requires a condensed-phase target density")
    return disp, beta, n_i, rho, report.condensate_density


def cmd_bec_states(config, emitter):
    disp, beta, n_i, rho, rho0 = condensed_target(config, "bec-states")
    phase = bec_states.CondensatePhase(
        float(config["bec"]["r"]), float(config["bec"]["theta"]), rho0, disp.dimension, n_i
    )
    size = config["bec"]["suite_size"]
    if not (type(size) is int and size >= 1):
        raise ContractViolation(f"bec.suite_size must be an integer >= 1, not {size!r}")
    rng = default_rng(config.get("seed"))
    rows = []
    for idx in range(size):
        f = gaussian_test_function(
            disp.dimension,
            center=rng.normal(scale=0.4, size=disp.dimension),
            width=float(rng.uniform(0.6, 1.6)),
            amplitude=complex(rng.normal(), rng.normal()) * 0.5,
        )
        q0 = bec_states.q_form("q0", f, disp, beta, phase=phase)
        q1 = bec_states.q_form("q1", f, disp, beta)
        gap = bec_states.decomposition_gap(f, disp, beta, phase)
        rows.append((idx, q0, q1, bec_states.psi_bec(f, disp, beta, phase), gap))
    emitter.csv(
        "bec_states.csv", ["index", "q0", "q1", "psi_bec", "decomposition_gap"], rows
    )
    emitter.json(
        "bec_states.json",
        {
            "rho_target": rho,
            "condensate_density": rho0,
            "fiber_density": bec_states.fiber_density(phase, disp, beta),
            "max_decomposition_gap": max(r[-1] for r in rows),
        },
    )
    return EXIT_OK


def cmd_fingerprint(config, emitter):
    disp, _, n_i, _, rho0 = condensed_target(config, "fingerprint")
    base = bec_states.CondensatePhase(1.0, 0.0, rho0, disp.dimension, n_i)
    f1, f2 = bec_states.canonical_probe_pair(base.amplitude, disp.dimension)
    rng = default_rng(config.get("seed"))
    rows = []
    for idx in range(32):
        r, theta = float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 2.0 * np.pi))
        ph = base.with_angles(r, theta)
        rec = bec_states.fingerprint_recover(
            bec_states.e_fingerprint(ph, f1), bec_states.e_fingerprint(ph, f2)
        )
        rows.append((idx, r, theta, rec.r, rec.theta, abs(rec.r - r)))
    emitter.csv(
        "fingerprint.csv",
        ["index", "r", "theta", "recovered_r", "recovered_theta", "abs_error_r"],
        rows,
    )
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "condense": cmd_condense,
    "phase-diagram": cmd_phase_diagram,
    "decouple-verify": cmd_decouple_verify,
    "bec-states": cmd_bec_states,
    "fingerprint": cmd_fingerprint,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hpbec",
        description="Finite Hubbard-phonon laboratory: condensation, dressing, and BEC states.",
    )
    parser.add_argument("--command", choices=sorted([*COMMANDS, "full-report"]), required=True)
    parser.add_argument("--config", default=None, help="JSON config path (defaults applied)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="dotted-path config override, value parsed as JSON",
    )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.override)
        out_dir = (
            args.out
            or os.environ.get(OUT_DIR_ENV)
            or config["output"]["directory"]
        )
        emitter = Emitter(out_dir, config, args.command)
        # full-report runs every command, in this order, into one output directory
        for name in COMMANDS if args.command == "full-report" else (args.command,):
            code = emitter.stage(name, COMMANDS[name])
            if code != EXIT_OK:
                break
        emitter.manifest()
        return code
    except (InfraredDivergence, UnsolvableDensity, BracketError, FloatingPointError) as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ContractViolation, ValueError) as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except VerificationFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
