"""Every public function, class and method in `src/hpbec` backs a command or the
benchmark: a module of the package names it, the benchmark's child process
calls it, or its tracer wraps it.  A helper that only tests use belongs in
`tests/`; one that nothing uses goes.

The scan is by name: a definition counts as reached when some `Name`,
`Attribute` or `ImportFrom` node in a module of `src/hpbec`, or in
`bench/child.py` and `bench/tracing.py` (whose `TRACED` entries are dotted
strings), carries its name.  `__init__.py` is not scanned: a re-export
reaches nothing.  The scan finds no helper reached only from unreached ones,
but it does find every one that nothing names at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hpbec"
BENCH = (ROOT / "bench" / "child.py", ROOT / "bench" / "tracing.py")

# Public definitions that nothing in src/ or the benchmark reaches, and why each stays.
ALLOWED = {
    "bec_states.gauge_shift_check": "gauge covariance of the fibers, a claim that awaits a `fingerprint` artifact",
    "bec_states.injectivity_rank_gap": "injectivity of the fingerprint family, a claim that awaits a "
    "`fingerprint` artifact",
    "couplings.OverlapMatrix.min_eigenvalue": "positivity of the coupling Gram matrix, a claim that awaits a "
    "`validate` artifact",
    "bosons.TruncatedBosonSpace.free_hamiltonian": "the dense tensor-space H_b the tests build h_full from",
}


MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def public_definitions():
    """module.name and module.Class.method for every public top-level function and
    class and every public method."""
    found = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append(f"{path.stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    found += [
                        f"{path.stem}.{node.name}.{sub.name}"
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                    ]
    return found


def referenced_names():
    """Every name a Name, Attribute or ImportFrom node in the modules carries, and
    every name, attribute, import and dotted-string part in the benchmark files."""
    names = set()
    for path in [*MODULES, *BENCH]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif path in BENCH and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def unreached():
    names = referenced_names()
    return [d for d in public_definitions() if d.rsplit(".", 1)[-1] not in names]


def test_every_public_definition_is_reached_or_allowed():
    stray = [d for d in unreached() if d not in ALLOWED]
    assert not stray, f"reached by no command, benchmark operation or src/ function: {stray}"


def test_every_allowed_definition_exists_and_is_still_unreached():
    """An entry goes once an artifact calls it, or once it is deleted."""
    assert set(ALLOWED) <= set(public_definitions())
    assert set(ALLOWED) <= set(unreached())
