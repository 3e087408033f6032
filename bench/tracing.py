"""Span tracing of hpbec's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function at every module binding
site (so `from .linalg import gibbs` in another module is traced too) and
each traced method on its class.  A span is (name, start, end, parent); the
spans live in flat arrays until `Tracer.write` stores them at the end of the
run.  `Tracer.metrics()` derives the per-layer metrics named in `METRICS`:
`.calls` counts spans, `.s` sums the outermost spans of a name (a span nested
in one of the same name is not counted twice), `.self_s` subtracts the time
of directly nested traced spans.  Nothing under `src/` is modified.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function or Class.method, span name).  Spans are named after the
# module that defines the function; a method is wrapped once, on its class.
TRACED = [
    ("cli", "load_config", "cli.load_config"),
    ("cli", "Emitter.csv", "cli.emit"),
    ("cli", "Emitter.json", "cli.emit"),
    ("cli", "Emitter.manifest", "cli.emit"),
    ("dispersion", "Dispersion.gap_inverse", "dispersion.gap_inverse"),
    ("lattice", "build_lattice_modes", "lattice.build_lattice_modes"),
    ("phonon_gas", "lattice_density", "phonon_gas.lattice_density"),
    ("phonon_gas", "lattice_density_derivative", "phonon_gas.lattice_density_derivative"),
    ("phonon_gas", "finite_volume_characteristic", "phonon_gas.finite_volume_characteristic"),
    ("phonon_gas", "rho_fr", "phonon_gas.rho_fr"),
    ("phonon_gas", "rho_crit", "phonon_gas.rho_crit"),
    ("condensation", "solve_fugacity", "condensation.solve_fugacity"),
    ("condensation", "classify_phase", "condensation.classify_phase"),
    ("condensation", "critical_temperature", "condensation.critical_temperature"),
    ("couplings", "radial_reduced_integral", "couplings.radial_reduced_integral"),
    ("couplings", "coupling_overlap", "couplings.coupling_overlap"),
    ("couplings", "overlap_matrix", "couplings.overlap_matrix"),
    ("bec_states", "q_form", "bec_states.q_form"),
    ("bec_states", "chi_average", "bec_states.chi_average"),
    ("bec_states", "e_fingerprint", "bec_states.e_fingerprint"),
    ("bec_states", "decomposition_gap", "bec_states.decomposition_gap"),
    ("bec_states", "combined_limit", "bec_states.combined_limit"),
    ("fermions", "number_operator", "fermions.number_operator"),
    ("hubbard", "build_hubbard_hamiltonian", "hubbard.build_hubbard_hamiltonian"),
    ("bosons", "TruncatedBosonSpace.segal_field", "bosons.segal_field"),
    ("bosons", "TruncatedBosonSpace.weyl", "bosons.weyl"),
    ("linalg", "expm_hermitian", "linalg.expm_hermitian"),
    ("linalg", "gibbs", "linalg.gibbs"),
    ("decoupling", "build_coupled_operators", "decoupling.build_coupled_operators"),
    ("decoupling", "verify_dressing_identity", "decoupling.verify_dressing_identity"),
    ("decoupling", "verify_spectral_equivalence", "decoupling.verify_spectral_equivalence"),
    ("decoupling", "factorization_ladder", "decoupling.factorization_ladder"),
]

# Per-layer metrics: (name, unit, better).  Names ending in .calls/.s/.self_s
# are derived from the spans of the name before the suffix; the others are
# counters and ratios computed in `Tracer.metrics`.
METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("dispersion.gap_inverse.calls", "count", "lower"),
    ("dispersion.gap_inverse.s", "s", "lower"),
    ("lattice.build_lattice_modes.calls", "count", "lower"),
    ("lattice.build_lattice_modes.s", "s", "lower"),
    ("lattice.modes", "count", "lower"),
    ("lattice.boxes_per_build", "ratio", "higher"),
    ("phonon_gas.lattice_density.calls", "count", "lower"),
    ("phonon_gas.lattice_density.s", "s", "lower"),
    ("phonon_gas.lattice_density_derivative.calls", "count", "lower"),
    ("phonon_gas.lattice_density_derivative.s", "s", "lower"),
    ("phonon_gas.finite_volume_characteristic.calls", "count", "lower"),
    ("phonon_gas.finite_volume_characteristic.s", "s", "lower"),
    ("phonon_gas.rho_fr.calls", "count", "lower"),
    ("phonon_gas.rho_fr.s", "s", "lower"),
    ("phonon_gas.rho_crit.calls", "count", "lower"),
    ("phonon_gas.betas_per_rho_crit", "ratio", "higher"),
    ("condensation.solve_fugacity.calls", "count", "lower"),
    ("condensation.solve_fugacity.s", "s", "lower"),
    ("condensation.solve_fugacity.self_s", "s", "lower"),
    ("condensation.density_evals_per_solve", "ratio", "lower"),
    ("condensation.classify_phase.calls", "count", "lower"),
    ("condensation.classify_phase.s", "s", "lower"),
    ("condensation.critical_temperature.s", "s", "lower"),
    ("couplings.radial_reduced_integral.calls", "count", "lower"),
    ("couplings.radial_reduced_integral.s", "s", "lower"),
    ("couplings.coupling_overlap.calls", "count", "lower"),
    ("couplings.overlap_matrix.s", "s", "lower"),
    ("bec_states.q_form.calls", "count", "lower"),
    ("bec_states.q_form.s", "s", "lower"),
    ("bec_states.chi_average.calls", "count", "lower"),
    ("bec_states.chi_average.s", "s", "lower"),
    ("bec_states.e_fingerprint.calls", "count", "lower"),
    ("bec_states.decomposition_gap.s", "s", "lower"),
    ("bec_states.combined_limit.s", "s", "lower"),
    ("fermions.number_operator.calls", "count", "lower"),
    ("fermions.number_operator.s", "s", "lower"),
    ("hubbard.build_hubbard_hamiltonian.s", "s", "lower"),
    ("bosons.segal_field.calls", "count", "lower"),
    ("bosons.segal_field.s", "s", "lower"),
    ("bosons.weyl.calls", "count", "lower"),
    ("bosons.weyl.s", "s", "lower"),
    ("linalg.expm_hermitian.calls", "count", "lower"),
    ("linalg.expm_hermitian.s", "s", "lower"),
    ("linalg.expm_hermitian.n3", "count", "lower"),
    ("linalg.gibbs.calls", "count", "lower"),
    ("linalg.gibbs.s", "s", "lower"),
    ("linalg.gibbs.n3", "count", "lower"),
    ("linalg.max_dim", "count", "lower"),
    ("decoupling.build_coupled_operators.calls", "count", "lower"),
    ("decoupling.build_coupled_operators.s", "s", "lower"),
    ("decoupling.build_coupled_operators.self_s", "s", "lower"),
    ("decoupling.caps_per_build", "ratio", "higher"),
    ("decoupling.verify_dressing_identity.s", "s", "lower"),
    ("decoupling.verify_spectral_equivalence.s", "s", "lower"),
    ("decoupling.factorization_ladder.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.run_s", "s", "lower"),
]

_SUFFIXES = (".calls", ".self_s", ".s")
# Spans whose arguments or results feed a counter in `Tracer._note`.
_NOTED = {
    "lattice.build_lattice_modes",
    "phonon_gas.rho_crit",
    "decoupling.build_coupled_operators",
    "linalg.expm_hermitian",
    "linalg.gibbs",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """In-memory span recorder plus the counters the ratio metrics need."""

    def __init__(self):
        self.names = []  # span name table; spans store an index into it
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.box_sizes = []
        self.modes = 0
        self.betas = []
        self.coupled_keys = []
        self.n3 = {"linalg.expm_hermitian": 0, "linalg.gibbs": 0}
        self.max_dim = 0

    def _note(self, span, args, kwargs, result):
        """Counters read from arguments and results, for the few layers that need them."""
        if span == "lattice.build_lattice_modes":
            self.box_sizes.append(float(_arg(args, kwargs, 0, "box_size")))
            self.modes += int(result.num_modes)
        elif span == "phonon_gas.rho_crit":
            self.betas.append(float(_arg(args, kwargs, 1, "beta")))
        elif span == "decoupling.build_coupled_operators":
            sys_c = _arg(args, kwargs, 0, "sys")
            self.coupled_keys.append(
                (
                    sys_c.frequencies.tobytes(),
                    sys_c.site_mode_couplings.tobytes(),
                    int(_arg(args, kwargs, 1, "level_cap")),
                )
            )
        elif span in self.n3:
            dim = len(_arg(args, kwargs, 0, "A" if span == "linalg.expm_hermitian" else "H"))
            self.n3[span] += dim**3
            self.max_dim = max(self.max_dim, dim)

    def _wrap(self, fn, span):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        noted = span in _NOTED
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if noted:
                self._note(span, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every entry of TRACED; the hpbec modules must already be imported."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("hpbec")}
        for module_name, attr, span in TRACED:
            owner = modules["hpbec." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], span))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def metrics(self, import_s, run_s):
        """Every METRICS entry from the recorded spans and counters."""
        n = len(self.name_id)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        outermost = [True] * n
        in_solve = [False] * n
        solve_id = self._id("condensation.solve_fugacity")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
            while p >= 0:
                if self.name_id[p] == self.name_id[i]:
                    outermost[i] = False
                if self.name_id[p] == solve_id:
                    in_solve[i] = True
                p = self.parent[p]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += duration[i] - child_time[i]
            if outermost[i]:
                incl[k] += duration[i]
        density_id = self._id("phonon_gas.lattice_density")
        solves = calls[solve_id] if solve_id >= 0 else 0
        density_in_solve = sum(
            1 for i in range(n) if in_solve[i] and self.name_id[i] == density_id
        )
        rho_crit_calls = calls[self._id("phonon_gas.rho_crit")]
        special = {
            "cli.import_s": import_s,
            "lattice.modes": self.modes,
            "lattice.boxes_per_build": _ratio(len(set(self.box_sizes)), len(self.box_sizes)),
            "phonon_gas.betas_per_rho_crit": _ratio(len(set(self.betas)), rho_crit_calls),
            "condensation.density_evals_per_solve": _ratio(density_in_solve, solves),
            "linalg.expm_hermitian.n3": self.n3["linalg.expm_hermitian"],
            "linalg.gibbs.n3": self.n3["linalg.gibbs"],
            "linalg.max_dim": self.max_dim,
            "decoupling.caps_per_build": _ratio(
                len(set(self.coupled_keys)), len(self.coupled_keys)
            ),
            "trace.spans": n,
            "trace.run_s": run_s,
        }
        out = {}
        for name, _unit, _better in METRICS:
            if name in special:
                out[name] = special[name]
                continue
            suffix = next(s for s in _SUFFIXES if name.endswith(s))
            k = self._id(name[: -len(suffix)])
            table = {".calls": calls, ".s": incl, ".self_s": self_s}[suffix]
            out[name] = table[k] if k >= 0 else 0
        return out

    def _id(self, span):
        return self.names.index(span) if span in self.names else -1

    def write(self, path):
        """Store the spans as flat arrays (names indexed by name_id)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
