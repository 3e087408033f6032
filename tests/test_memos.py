"""The memos of certified numbers: bounded, read-only, and invisible in the values.

Each memo is a functools.lru_cache keyed on values (dispersions and Gaussian
test functions compare by value), so a hit returns the very float or
certificate a cold call computes.
"""

import dataclasses
import importlib
import json
import pkgutil
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hpbec
from hpbec import bec_states, cli, condensation, couplings, lattice, phonon_gas
from hpbec.dispersion import quadratic_dispersion
from hpbec.testfunctions import gaussian_test_function

DISP = quadratic_dispersion()
F = gaussian_test_function(3, center=[0.2, -0.1, 0.3], width=0.8, amplitude=0.4 - 0.3j)
# One call of every cache in hpbec, by qualified name; a new cache needs an entry.
SAMPLE_CALLS = {
    "hpbec.bec_states._chi_rule": (64, 256),
    "hpbec.bec_states._q1": (F, DISP, 1.0),
    "hpbec.lattice.lattice_modes": (8.0, DISP, 1.0),
    "hpbec.phonon_gas._quadrature_range": (DISP, 1.0),
    "hpbec.phonon_gas._rho_crit": (DISP, 1.0, 1),
}

centers = st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3)
widths = st.floats(0.6, 1.6)
amplitudes = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
betas = st.floats(0.5, 2.0)
omega0s = st.floats(0.5, 2.0)


def _clear():
    for memo in cli.MEMOS.values():
        memo.cache_clear()


def _caches():
    """Every functools cache in hpbec's modules and their classes, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(hpbec.__path__):
        module = importlib.import_module(f"hpbec.{info.name}")
        owners = [module] + [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__]
        for owner in owners:
            for name, value in vars(owner).items():
                value = getattr(value, "__func__", value)  # staticmethod, classmethod
                if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def _arrays(value):
    """The numpy arrays in a result: itself, inside tuples, or stored on a dataclass."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for fld in dataclasses.fields(value):
            yield from _arrays(getattr(value, fld.name))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_every_cache_is_bounded_and_returns_read_only_arrays():
    caches = _caches()
    assert set(caches) == set(SAMPLE_CALLS)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
        for array in _arrays(cache(*SAMPLE_CALLS[name])):
            assert not array.flags.writeable, name


def test_the_lattice_memo_hands_out_read_only_bose_factors():
    """A build is shared by every solve at its (L, dispersion, beta): its shells, per-shell
    mode counts and Bose factors are among the arrays checked above, and none can be written."""
    modes = lattice.lattice_modes(*SAMPLE_CALLS["hpbec.lattice.lattice_modes"])
    checked = {id(array) for array in _arrays(modes)}
    for name in ("shells", "weights", "deficits", "nonzero_modes"):
        array = getattr(modes, name)
        assert id(array) in checked and not array.flags.writeable, name


def test_the_manifest_lists_every_cache():
    assert set(cli.MEMOS.values()) == set(_caches().values())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(centers, widths, amplitudes, betas, omega0s)
def test_a_warm_memo_returns_the_cold_value_bitwise(center, width, amplitude, beta, omega0):
    f = gaussian_test_function(3, center=center, width=width, amplitude=amplitude)
    disp = quadratic_dispersion(omega0=omega0)

    def values():
        q1 = bec_states.q_form("q1", f, disp, beta)
        return [q1, phonon_gas.rho_crit(disp, beta), *phonon_gas.rho_fr_quadrature(disp, beta, 0.0)]

    _clear()
    cold = values()
    assert _bits(values()) == _bits(cold)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(centers, widths, amplitudes, betas, omega0s)
def test_value_equal_inputs_built_apart_share_the_memo(center, width, amplitude, beta, omega0):
    _clear()
    f = gaussian_test_function(3, center=center, width=width, amplitude=amplitude)
    disp = quadratic_dispersion(omega0=omega0)
    q1, rc = bec_states.q_form("q1", f, disp, beta), phonon_gas.rho_crit(disp, beta)
    with (
        mock.patch.object(couplings, "radial_reduced_integral", wraps=couplings.radial_reduced_integral) as quad,
        mock.patch.object(phonon_gas, "rho_fr_quadrature", wraps=phonon_gas.rho_fr_quadrature) as rho_quad,
    ):
        f_again = gaussian_test_function(3, center=np.array(center), width=width, amplitude=amplitude)
        disp_again = quadratic_dispersion(omega0=omega0)
        assert bec_states.q_form("q1", f_again, disp_again, beta) == q1
        assert phonon_gas.rho_crit(disp_again, beta) == rc
        assert quad.call_count == 0 and rho_quad.call_count == 0
        # another beta or width is another value
        bec_states.q_form("q1", f, disp, 1.25 * beta)
        bec_states.q_form("q1", gaussian_test_function(3, center=center, width=1.1 * width, amplitude=amplitude), disp, beta)
        phonon_gas.rho_crit(disp, 1.25 * beta)
        assert quad.call_count == 2 and rho_quad.call_count == 1


def test_condense_and_combined_limit_build_each_box_once(monkeypatch):
    lattice.lattice_modes.cache_clear()
    built = []
    build = lattice.build_lattice_modes
    monkeypatch.setattr(lattice, "build_lattice_modes", lambda *args: built.append(args[0]) or build(*args))
    rho = 2.0 * phonon_gas.rho_crit(DISP, 1.0)
    seq = condensation.condensate_sequence([10, 20, 40], rho, 1.0, DISP)
    out = bec_states.combined_limit((10, 20, 40), F, DISP, 1.0, rho, seq.regime)
    assert built == [10.0, 20.0, 40.0]
    for sol, value in zip(seq.solutions, out.finite_values):
        modes = build(sol.box_size, DISP, 1.0)
        assert value == phonon_gas.finite_volume_characteristic(modes, F, sol.t).weyl_value


def test_manifest_records_each_stages_memo_hits_and_misses(tmp_path):
    _clear()
    assert cli.main(["--command", "bec-states", "--out", str(tmp_path)]) == 0
    (stage,) = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert set(stage["memos"]) == set(cli.MEMOS)
    # the CSV column computes each q1; decomposition_gap and psi_bec reuse it
    assert stage["memos"]["q1"] == {"hits": 20, "misses": 10}
    # classify_phase and fiber_density reuse the critical density the target was set from
    assert stage["memos"]["rho_crit"] == {"hits": 2, "misses": 1}


def test_a_full_report_integrates_rho_crit_once_per_beta(tmp_path):
    """condense sets its target from rho_crit(beta = 1); phase-diagram adds
    beta = 0.5 and 2; the later stages reuse beta = 1."""
    _clear()
    assert cli.main(["--command", "full-report", "--out", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    misses = {stage["name"]: stage["memos"]["rho_crit"]["misses"] for stage in stages}
    assert sum(misses.values()) == 3
    assert misses["condense"] == 1 and misses["phase-diagram"] == 2


def test_warm_memos_give_the_same_artifacts(tmp_path):
    """Each command run twice in one process: the second run misses no memo
    and writes every artifact but the manifest byte for byte as the first."""
    commands = ["condense", "phase-diagram", "bec-states", "fingerprint"]
    _clear()
    for run in ("cold", "warm"):
        for command in commands:
            assert cli.main(["--command", command, "--out", str(tmp_path / run / command)]) == 0
    for command in commands:
        cold, warm = tmp_path / "cold" / command, tmp_path / "warm" / command
        names = sorted(p.name for p in cold.iterdir())
        assert names == sorted(p.name for p in warm.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (cold / name).read_bytes() == (warm / name).read_bytes(), (command, name)
        (stage,) = json.loads((warm / "manifest.json").read_text())["stages"]
        assert all(counts["misses"] == 0 for counts in stage["memos"].values()), (command, stage["memos"])
