"""Command-line driver: config ingestion, experiment orchestration, and
machine-readable emission (CSV tables, JSON summaries, run manifest).

Exit codes: 0 success, 2 usage error or validation/contract failure, 3 numerical divergence,
4 verification failure (a residual ladder came back non-monotone).
"""

import copy
import csv
import getopt
import hashlib
import json
import os
import resource
import sys
import time
from collections import namedtuple
from dataclasses import asdict

import numpy as np
from numpy.random import default_rng

from . import __version__, bec_states, condensation, decoupling, lattice, phonon_gas
from .couplings import CouplingFamily
from .dispersion import quadratic_dispersion, tabulated_dispersion, validate_dispersion
from .errors import BracketError, ContractViolation, UnsolvableDensity, VerificationFailure
from .hubbard import build_hubbard_system
from .testfunctions import gaussian_test_function

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFICATION = 4

OUT_DIR_ENV = "HPBEC_OUT_DIR"
# The *_NUM_THREADS variables as this module is imported; numpy's BLAS reads them at numpy's import.
THREAD_ENV = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}

# A config leaf: its default, the text of what it accepts, and ok(value, config), its check.
# ok sees the merged config, in which the keys before this one in SCHEMA are already checked.
Key = namedtuple("Key", "default accepts ok")


def finite(v, _=None):
    """A finite JSON number; a boolean is not one."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def positive(v, _=None):
    return finite(v) and v > 0


def integer(lo):
    return lambda v, _=None: type(v) is int and v >= lo


def listed(ok, increasing=False):
    """A nonempty list of values that pass ok, strictly increasing if asked."""
    return lambda v, _: (type(v) is list and v != [] and all(map(ok, v))
                         and not (increasing and any(a >= b for a, b in zip(v, v[1:]))))


def grid(v, width, count=None):
    """Whether v is a nonempty list of `count` (any, if None) rows of `width` finite numbers."""
    return (type(v) is list and v != [] and count in (None, len(v))
            and all(type(row) is list and len(row) == width and all(map(finite, row)) for row in v))


def dispersion_table(v, _):
    """Whether v is null or two or more [k, r(k)] rows with k >= 0 strictly increasing."""
    return v is None or grid(v, 2) and len(v) > 1 and v[0][0] >= 0 and all(a[0] < b[0] for a, b in zip(v, v[1:]))


NUMBER, POSITIVE, COUNT = "a finite number", "a positive finite number", "an integer >= 1"
INCREASING = "a nonempty, strictly increasing list of "

SCHEMA = {
    "dispersion": {
        "omega0": Key(1.0, NUMBER, finite),
        "mu_b": Key(0.0, NUMBER, finite),
        "dimension": Key(3, COUNT, integer(1)),
        "growth_exponent": Key(4.0, NUMBER, finite),
        "table": Key(None, "null, or two or more rows [k, r(k)] of finite numbers, k >= 0 strictly increasing",
                     dispersion_table),
    },
    "hubbard": {
        "num_sites": Key(2, COUNT, integer(1)),
        "num_electrons": Key(2, "an integer from 0 to twice hubbard.num_sites",
                             lambda v, c: integer(0)(v) and v <= 2 * c["hubbard"]["num_sites"]),
        "hopping": Key([[0.0, -1.0], [-1.0, 0.0]], "hubbard.num_sites rows of hubbard.num_sites finite numbers",
                       lambda v, c: grid(v, c["hubbard"]["num_sites"], c["hubbard"]["num_sites"])),
        "repulsion": Key(2.0, POSITIVE, positive),
        "alpha": Key(0.2, NUMBER, finite),
        "kappa": Key(0.5, "a finite number >= 0", lambda v, _: finite(v) and v >= 0),
        "uv_width": Key(2.0, POSITIVE, positive),
    },
    "thermo": {
        "beta": Key(1.0, "null or a positive finite number", lambda v, _: v is None or positive(v)),
        "temperature": Key(
            None, "null if thermo.beta is set, else a positive number with a finite inverse",
            lambda v, c: v is None if c["thermo"]["beta"] is not None else positive(v) and finite(1 / v)),
        "rho_target": Key(None, "null (twice rho_crit) or " + POSITIVE, lambda v, _: v is None or positive(v)),
        "num_internal": Key(1, COUNT, integer(1)),
    },
    "sweep": {
        "box_sizes": Key([10.0, 20.0, 40.0], INCREASING + "positive finite numbers", listed(positive, True)),
        "level_caps": Key([6, 9, 12], INCREASING + "integers >= 1", listed(integer(1), True)),
        "coupled_box_size": Key(10.0, POSITIVE, positive),
        "mode_coords": Key([[1, 0, 0], [0, 1, 0]], "a nonempty list of rows of dispersion.dimension finite numbers",
                           lambda v, c: grid(v, c["dispersion"]["dimension"])),
    },
    "bec": {
        "r": Key(1.0, "a finite number >= 0", lambda v, _: finite(v) and v >= 0),
        "theta": Key(1.0471975511965976, NUMBER, finite),
        "suite_size": Key(10, COUNT, integer(1)),
    },
    "phase_grid": {
        "densities": Key([0.5, 1.0, 2.0], "a nonempty list of positive finite numbers", listed(positive)),
        "betas": Key([0.5, 1.0, 2.0], "a nonempty list of positive finite numbers", listed(positive)),
    },
    "seed": Key(12345, "null or an integer >= 0", lambda v, _: v is None or integer(0)(v)),
    "output": {"directory": Key("hpbec-out", "a nonempty string", lambda v, _: type(v) is str and v != "")},
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


def defaults(schema):
    """A fresh config holding every default of the schema."""
    return {name: defaults(node) if isinstance(node, dict) else copy.deepcopy(node.default)
            for name, node in schema.items()}


def leaves(schema, config, prefix=""):
    """(dotted key, Key, value in config) for every leaf of the schema, in its order."""
    for name, node in schema.items():
        if isinstance(node, dict):
            yield from leaves(node, config[name], prefix + name + ".")
        else:
            yield prefix + name, node, config[name]


def merge(config, override, prefix=""):
    """Merge `override` into `config` in place; a key `config` lacks and a value given
    to a section are errors (an object given to a value fails that key's check)."""
    if not isinstance(override, dict):
        raise ContractViolation(f"config section {prefix[:-1] or '<root>'!r} takes a JSON object")
    for key, val in override.items():
        name = prefix + key
        if key not in config:
            raise ContractViolation(f"unknown config key {name!r}")
        if isinstance(config[key], dict):
            merge(config[key], val, name + ".")
        else:
            config[key] = val


def load_config(path, overrides):
    """The schema's defaults merged with the config file, then with each override
    KEY=VALUE as the object its dotted KEY spells, holding VALUE parsed as JSON.  Every
    key is then checked, whatever the command; a ContractViolation names the first rejected."""
    config = defaults(SCHEMA)
    if path is not None:
        with open(path) as fh:
            merge(config, json.load(fh))
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
        merge(config, value)
    for dotted, key, value in leaves(SCHEMA, config):
        if not key.ok(value, config):
            raise ContractViolation(f"{dotted} must be {key.accepts}, not {value!r}")
    thermo = config["thermo"]
    if thermo["beta"] is None:
        thermo["beta"] = 1.0 / thermo["temperature"]
    return config


def build_dispersion(config):
    d = config["dispersion"]
    if d["table"] is not None:
        k, r = np.asarray(d["table"], dtype=float).T
        return tabulated_dispersion(k, r, d["dimension"], d["growth_exponent"], d["mu_b"])
    return quadratic_dispersion(d["omega0"], d["mu_b"], d["dimension"], d["growth_exponent"])


def build_family(config):
    h = config["hubbard"]
    return CouplingFamily(h["num_sites"], config["dispersion"]["dimension"], h["uv_width"], h["kappa"])


def build_cluster(config):
    h = config["hubbard"]
    return build_hubbard_system(
        h["num_sites"], h["num_electrons"], h["hopping"], h["repulsion"], h["alpha"], config["thermo"]["beta"]
    )


def peak_rss_kib():
    """Peak RSS of this process in KiB: VmHWM, which exec resets (ru_maxrss, read only
    where /proc is absent, is inherited from the process that launched this one)."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return rss // 1024 if sys.platform == "darwin" else rss  # bytes there, KiB elsewhere


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
        """Run one command function; log its wall seconds, the process's peak RSS after it
        (KiB) and the hits and misses of each memo during it."""
        before = memo_counts()
        start = time.perf_counter()
        code = fn(self.config, self)
        wall_s = time.perf_counter() - start
        memos = {
            memo: {"hits": hits - before[memo][0], "misses": misses - before[memo][1]}
            for memo, (hits, misses) in memo_counts().items()
        }
        self.stages.append({"name": name, "wall_s": wall_s, "peak_rss_kib": peak_rss_kib(), "memos": memos})
        return code

    def csv(self, name, header, rows):
        """Write rows as CSV; a NaN or infinity in them is a FloatingPointError (exit 3), as in `json`."""
        rows = [list(row) for row in rows]
        bad = [v for row in rows for v in row if isinstance(v, (float, complex, np.inexact)) and not np.isfinite(v)]
        if bad:
            raise FloatingPointError(f"{name}: non-finite value {bad[0]!r}")
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
        self.artifacts.append(name)

    def json(self, name, payload):
        """Write payload as strict JSON; a NaN or infinity in it is a FloatingPointError (exit 3)."""
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, default=fmt, allow_nan=False)
        except ValueError as err:
            raise FloatingPointError(f"{name}: {err}") from None
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        self.artifacts.append(name)

    def manifest(self):
        digest = hashlib.sha256(json.dumps(self.config, sort_keys=True).encode()).hexdigest()
        self.json(
            "manifest.json",
            {
                "command": self.command,
                "config_sha256": digest,
                "seed": self.config["seed"],
                "artifacts": sorted(self.artifacts),
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "hpbec": __version__,
                "thread_env": THREAD_ENV,
                "stages": self.stages,
            },
        )


def cmd_validate(config, emitter):
    disp = build_dispersion(config)
    report = validate_dispersion(disp, config["thermo"]["beta"])
    checks = [{"name": c.name, "passed": c.passed, "witness": c.witness} for c in report.checks]
    emitter.json("validate.json", {"all_passed": report.all_passed, "checks": checks})
    if not report.all_passed:
        names = ", ".join(c.name for c in report.failed())
        print(f"dispersion validation failed: {names}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_condense(config, emitter):
    disp = build_dispersion(config)
    beta, n_i = config["thermo"]["beta"], config["thermo"]["num_internal"]
    rc = phonon_gas.rho_crit_quadrature(disp, beta, n_i)
    rho = config["thermo"]["rho_target"] or 2.0 * rc.value  # null or positive
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
    n_i = config["thermo"]["num_internal"]
    rows = []
    for beta in config["phase_grid"]["betas"]:
        rc = phonon_gas.rho_crit(disp, beta, n_i)
        for scale in config["phase_grid"]["densities"]:
            rho = scale * rc
            rep = condensation.classify_phase(rho, beta, disp, n_i)
            rows.append((beta, rho, rc, rep.phase, rep.normal_fugacity, rep.condensate_density))
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
    sys_c = decoupling.build_coupled_system(cluster, family, disp, sweep["coupled_box_size"], sweep["mode_coords"])
    caps = sweep["level_caps"]
    dressing = decoupling.verify_dressing_identity(sys_c, caps)
    rng = default_rng(config["seed"])
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
    beta, n_i = config["thermo"]["beta"], config["thermo"]["num_internal"]
    rho = config["thermo"]["rho_target"] or 2.0 * phonon_gas.rho_crit(disp, beta, n_i)
    report = condensation.classify_phase(rho, beta, disp, n_i)
    if report.phase != "condensed":
        raise UnsolvableDensity(f"{command} requires a condensed-phase target density")
    return disp, beta, n_i, rho, report.condensate_density


BEC_COLUMNS = ("q0", "q1", "psi_bec", "decomposition_gap")


def require_finite(idx, values):
    """FloatingPointError (exit 3) naming the first of test function idx's values that is not finite."""
    for name, value in zip(BEC_COLUMNS, values):
        if not np.isfinite(value):
            raise FloatingPointError(f"bec-states test function {idx}: {name} = {value!r} is not finite")


def cmd_bec_states(config, emitter):
    disp, beta, n_i, rho, rho0 = condensed_target(config, "bec-states")
    phase = bec_states.CondensatePhase(config["bec"]["r"], config["bec"]["theta"], rho0, disp.dimension, n_i)
    rng = default_rng(config["seed"])
    rows = []
    for idx in range(config["bec"]["suite_size"]):
        f = gaussian_test_function(
            disp.dimension,
            center=rng.normal(scale=0.4, size=disp.dimension),
            width=float(rng.uniform(0.6, 1.6)),
            amplitude=complex(rng.normal(), rng.normal()) * 0.5,
        )
        values = [
            bec_states.q_form("q0", f, disp, beta, phase=phase),
            bec_states.q_form("q1", f, disp, beta),
            bec_states.psi_bec(f, disp, beta, phase),
        ]
        require_finite(idx, values)  # before the gap: its chi-average at an infinite amplitude is NaN
        values.append(bec_states.decomposition_gap(f, disp, beta, phase))
        require_finite(idx, values)
        rows.append((idx, *values))
    emitter.csv("bec_states.csv", ["index", *BEC_COLUMNS], rows)
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
    rng = default_rng(config["seed"])
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


CHOICES = sorted([*COMMANDS, "full-report"])

USAGE = f"""\
usage: hpbec --command COMMAND [--config PATH] [--out DIR] [--override KEY=VALUE]...

Finite Hubbard-phonon laboratory: condensation, dressing, and BEC states.

options:
  -h, --help            print this help and exit
  --command COMMAND     the command to run (below)
  --config PATH         JSON config path (defaults applied)
  --out DIR             output directory
  --override KEY=VALUE  dotted-path config override, value parsed as JSON; repeatable

commands:
  {", ".join(CHOICES)}
"""


def usage_error(problem):
    """Print USAGE and the problem on stderr and exit 2."""
    print(f"{USAGE}\nhpbec: error: {problem}", file=sys.stderr)
    sys.exit(EXIT_VALIDATION)


def parse_args(argv):
    """The command, config path, output directory and overrides that argv gives.  A long
    option may be any unique prefix of its name and may take its value after `=`; the
    last of a repeated option wins, except --override, which collects.  -h/--help
    prints USAGE and exits 0; a usage error exits 2 (`usage_error`)."""
    try:
        opts, rest = getopt.getopt(argv, "h", ["help", "command=", "config=", "out=", "override="])
    except getopt.GetoptError as err:
        usage_error(err)
    if rest:
        usage_error(f"unexpected argument {rest[0]!r}")
    found = {"--command": None, "--config": None, "--out": None, "--override": []}
    for opt, value in opts:
        if opt in ("-h", "--help"):
            print(USAGE, end="")
            sys.exit(EXIT_OK)
        if opt == "--override":
            found[opt].append(value)
        else:
            found[opt] = value
    if found["--command"] is None:
        usage_error("--command is required")
    if found["--command"] not in CHOICES:
        usage_error(f"--command {found['--command']!r} is not one of {', '.join(CHOICES)}")
    return found["--command"], found["--config"], found["--out"], found["--override"]


def main(argv=None):
    command, config_path, out, overrides = parse_args(sys.argv[1:] if argv is None else argv)

    try:
        config = load_config(config_path, overrides)
        out_dir = out or os.environ.get(OUT_DIR_ENV) or config["output"]["directory"]
        emitter = Emitter(out_dir, config, command)
        # full-report runs every command, in this order, into one output directory
        for name in COMMANDS if command == "full-report" else (command,):
            code = emitter.stage(name, COMMANDS[name])
            if code != EXIT_OK:
                break
        emitter.manifest()
        return code
    # ArithmeticError holds InfraredDivergence, FloatingPointError, OverflowError and ZeroDivisionError
    except (ArithmeticError, UnsolvableDensity, BracketError) as err:
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
