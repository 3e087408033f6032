"""The benchmark's own tests: each oracle agrees with hpbec at a small size,
and each output check rejects a slightly perturbed output.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS  # noqa: E402

from hpbec import bec_states, condensation, couplings, decoupling, hubbard, phonon_gas  # noqa: E402
from hpbec import cli  # noqa: E402
from hpbec.dispersion import quadratic_dispersion  # noqa: E402
from hpbec.lattice import build_lattice_modes  # noqa: E402
from hpbec.testfunctions import gaussian_test_function  # noqa: E402

DISP = quadratic_dispersion()
F = {"center": [0.3, -0.2, 0.25], "width": 0.9, "amplitude": [0.4, -0.3]}
PHASE = {"r": 1.3, "theta": 0.4, "condensate_density": workloads.CONDENSATE_DENSITY}
# c |fhat(0)|^2 = 1000 is beyond what the program's 64 x 256 chi-rule resolves.
ALIASED_F = {"center": [0.0, 0.0, 0.0], "width": 3.0, "amplitude": workloads._amplitude(1000.0, 3.0, 0.0)}


def _program_f(spec):
    return gaussian_test_function(3, center=spec["center"], width=spec["width"], amplitude=complex(*spec["amplitude"]))


def _run_cli(op):
    code = cli.main(op["argv"])
    return {"exit_code": code, "artifacts": workloads.read_artifacts(op["out"])}


def _spectral_op(cap):
    return {"op": "decoupling", "check": "spectral", "modes": workloads.MODES_2, "level_cap": cap,
            "num_levels": workloads.NUM_LEVELS, **workloads.CLUSTER}


def _spectral_levels(op):
    c = workloads.CLUSTER
    cluster = hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), c["repulsion"], c["alpha"], 1.0)
    family = couplings.CouplingFamily(2, 3, c["uv_width"], c["kappa"])
    sys_c = decoupling.build_coupled_system(cluster, family, DISP, c["box_size"], np.asarray(op["modes"], float))
    rep = decoupling.verify_spectral_equivalence(sys_c, op["level_cap"], op["num_levels"])
    return {"coupled": rep.coupled.tolist(), "decoupled": rep.decoupled.tolist()}


def _failures(ops, outputs):
    return [verdict[0] for verdict in workloads.check(ops, outputs)]


# --- oracles against the program ------------------------------------------------


@pytest.mark.parametrize("box_size", [6.0, 12.0])
@pytest.mark.parametrize("y", [1.0005, 1.3])
def test_lattice_density_oracle(box_size, y):
    modes = build_lattice_modes(box_size, DISP, 1.0)
    want = phonon_gas.lattice_density(modes, DISP, 1.0, y)
    assert oracles.lattice_density(box_size, y, 1.0) == pytest.approx(want, rel=1e-12)


def test_sphere_counts_match_direct_enumeration():
    n = np.arange(-6, 7)
    norms = (n[:, None, None] ** 2 + n[None, :, None] ** 2 + n[None, None, :] ** 2).ravel()
    direct = np.bincount(norms[norms <= 36], minlength=37)
    assert np.array_equal(oracles.sphere_counts(36), direct)


def test_finite_weyl_value_oracle():
    modes = build_lattice_modes(8.0, DISP, 1.0)
    rec = phonon_gas.finite_volume_characteristic(modes, _program_f(F), 1.02, 1.0, DISP)
    assert oracles.finite_weyl_value(8.0, 1.02, 1.0, F) == pytest.approx(rec.weyl_value, rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_zeta_closed_forms(beta):
    assert oracles.rho_crit(beta) == pytest.approx(phonon_gas.rho_crit(DISP, beta), rel=1e-10)
    rho = 0.3
    assert oracles.critical_beta(rho) == pytest.approx(condensation.critical_temperature(rho, DISP)[0], rel=1e-10)


def test_polylog_closed_form():
    rho = 0.4 * phonon_gas.rho_crit(DISP, 0.8)
    report = condensation.classify_phase(rho, 0.8, DISP)
    assert report.phase == "normal"
    assert oracles.normal_density(report.normal_fugacity, 0.8) == pytest.approx(rho, rel=1e-9)


def test_q_form_oracles():
    f = _program_f(F)
    assert oracles.q1(F, 1.0) == pytest.approx(bec_states.q_form("q1", f, DISP, 1.0), rel=1e-10)
    phase = bec_states.CondensatePhase(1.0, 0.0, 0.05, 3, 1)
    assert oracles.q0(F, 0.05) == pytest.approx(bec_states.q_form("q0", f, DISP, 1.0, phase=phase), rel=1e-13)


def test_overlap_oracles():
    g0 = couplings.overlap_matrix(couplings.CouplingFamily(3, 3, 2.0, 0.0), DISP, 0).entries
    gm = couplings.overlap_matrix(couplings.CouplingFamily(3, 3, 2.0, 0.5), DISP, -0.5).entries
    for d in range(3):
        assert abs(g0[0, d] - oracles.overlap_gaussian(2.0, d)) <= 1e-10 * abs(g0).max()
        assert abs(gm[0, d] - oracles.overlap_inverse_omega(2.0, 0.5, d)) <= 1e-10 * abs(gm).max()


def test_atomic_spectrum_oracle():
    op = _spectral_op(6)
    levels = _spectral_levels(op)
    exact = oracles.atomic_spectrum(0.2, 2.0, 10.0, 2.0, 0.5, workloads.MODES_2, workloads.NUM_LEVELS)
    assert np.allclose(levels["coupled"], exact, rtol=0, atol=1e-9)


# --- each check rejects a perturbed output ---------------------------------------


def test_condense_check_rejects_nudged_fugacity(tmp_path):
    op = workloads.condense_op(str(tmp_path / "condense"), [10, 20, 40])
    out = _run_cli(op)
    assert _failures([op], [out]) == [[]]
    for i in range(3):
        bad = copy.deepcopy(out)
        bad["artifacts"]["condense.csv"][i]["y_L"] *= 1.0 + 1e-8
        assert any("f_L(y_L)" in msg for msg in _failures([op], [bad])[0])


def test_spectral_check_rejects_shifted_level():
    op = _spectral_op(6)
    out = _spectral_levels(op)
    assert _failures([op], [out]) == [[]]
    for i in range(workloads.NUM_LEVELS):
        bad = copy.deepcopy(out)
        bad["coupled"][i] += 1e-6
        assert _failures([op], [bad])[0]


def test_q1_check_rejects_scaled_value():
    op = {"op": "q1", "f": F, "phase": PHASE, "beta": 1.0}
    value = bec_states.q_form("q1", _program_f(F), DISP, 1.0)
    assert _failures([op], [{"value": value}]) == [[]]
    assert _failures([op], [{"value": value * (1.0 + 1e-6)}])[0]


def test_decomposition_check_rejects_the_aliased_chi_average():
    phase = bec_states.CondensatePhase(PHASE["r"], PHASE["theta"], PHASE["condensate_density"], 3, 1)
    for f, fails in ((F, False), (ALIASED_F, True)):
        op = {"op": "decomposition_gap", "f": f, "phase": PHASE, "beta": 1.0}
        gap = bec_states.decomposition_gap(_program_f(f), DISP, 1.0, phase)
        assert bool(_failures([op], [{"value": gap}])[0]) is fails


def test_fingerprint_check_rejects_recovered_r(tmp_path):
    op = workloads._cli("fingerprint", str(tmp_path / "fp"), ["seed=7"])
    out = _run_cli(op)
    assert _failures([op], [out]) == [[]]
    bad = copy.deepcopy(out)
    bad["artifacts"]["fingerprint.csv"][5]["recovered_r"] += 1e-9
    assert _failures([op], [bad])[0]


def test_failed_operation_has_no_verdict():
    op = {"op": "q1", "f": F, "phase": PHASE, "beta": 1.0}
    assert workloads.check([op], [None]) == [None]


# --- the benchmark's own definition -------------------------------------------------


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mib"}


def test_rounds_are_reproducible_from_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.make_round(name, 5, str(tmp_path)) == workloads.make_round(name, 5, str(tmp_path))
    assert workloads.make_round("bec-suite", 5, "x") != workloads.make_round("bec-suite", 6, "x")


def test_traced_child_reports_layers(tmp_path):
    op = workloads.condense_op(str(tmp_path / "condense"), [5, 10])
    job = {"ops": [op], "trace": True, "spans": str(tmp_path / "spans.npz")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    env = {"PYTHONPATH": str(BENCH.parent / "src"), "OPENBLAS_NUM_THREADS": "1", "PATH": ""}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(tmp_path / "job.json")],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads((tmp_path / "result.json").read_text())
    layers = result["layers"]
    assert set(layers) == {name for name, _, _ in METRICS}
    assert layers["condensation.solve_fugacity.calls"] == 2
    assert layers["lattice.build_lattice_modes.calls"] == 2
    assert layers["lattice.boxes_per_build"] == 1.0
    assert layers["condensation.density_evals_per_solve"] >= 2
    assert 0 < layers["condensation.solve_fugacity.self_s"] < layers["condensation.solve_fugacity.s"]
    assert layers["bec_states.chi_average.calls"] == 0
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == layers["trace.spans"]
    assert np.all(spans["end"] >= spans["start"])
    assert not math.isnan(result["run_s"])


def test_round_killed_at_the_deadline_gives_no_result(tmp_path):
    op = workloads.condense_op(str(tmp_path / "condense"), [5, 10])
    job = {"ops": [op], "trace": False, "spans": str(tmp_path / "spans.npz")}
    _setup_s, total_s, result = run.run_child(job, tmp_path, run.child_env(), time.perf_counter() + 0.05)
    assert result is None
    assert total_s < 10
