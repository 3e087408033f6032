"""One round of a workload in a fresh interpreter.

Usage: python3 child.py JOB.json  (started by run.py, with PYTHONPATH set to
the checkout's src/ and the BLAS thread variables pinned).

Prints "ready" once `hpbec.cli` is imported, so the parent can time set-up;
then runs the job's operations in order, timing each, and writes
result.json next to the job file.  With "ops" empty it only imports (a
set-up probe).  Output checks are not made here: they run in the parent,
which never imports hpbec.
"""

import json
import os
import resource
import sys
import time

t_import = time.perf_counter()
from hpbec import cli  # noqa: E402  (the import is what set-up measures)

import_s = time.perf_counter() - t_import
print("ready", flush=True)

import numpy as np  # noqa: E402

from hpbec import bec_states, condensation, couplings, decoupling, hubbard, phonon_gas  # noqa: E402
from hpbec.dispersion import quadratic_dispersion  # noqa: E402
from hpbec.testfunctions import gaussian_test_function  # noqa: E402


def _test_function(spec):
    return gaussian_test_function(
        3, center=spec["center"], width=spec["width"], amplitude=complex(*spec["amplitude"])
    )


def _cplx(z):
    return [float(np.real(z)), float(np.imag(z))]


def op_cli(op):
    return {"exit_code": cli.main(op["argv"])}


def op_combined_limit(op):
    disp = quadratic_dispersion()
    beta = op["beta"]
    rho = op["rho_scale"] * phonon_gas.rho_crit(disp, beta)
    report = condensation.classify_phase(rho, beta, disp)
    res = bec_states.combined_limit(op["box_sizes"], _test_function(op["f"]), disp, beta, rho, report)
    return {
        "finite_values": [_cplx(v) for v in res.finite_values],
        "limit_value": _cplx(res.limit_value),
    }


def op_decoupling(op):
    cluster = hubbard.build_hubbard_system(2, 2, np.zeros((2, 2)), op["repulsion"], op["alpha"], 1.0)
    family = couplings.CouplingFamily(2, 3, op["uv_width"], op["kappa"])
    sys_c = decoupling.build_coupled_system(
        cluster, family, quadratic_dispersion(), op["box_size"], np.asarray(op["modes"], dtype=float)
    )
    if op["check"] == "dressing":
        report = decoupling.verify_dressing_identity(sys_c, op["level_caps"])
        return {"residuals": list(report.residuals)}
    report = decoupling.verify_spectral_equivalence(sys_c, op["level_cap"], op["num_levels"])
    return {"coupled": report.coupled.tolist(), "decoupled": report.decoupled.tolist()}


def _phase(op):
    p = op["phase"]
    return bec_states.CondensatePhase(p["r"], p["theta"], p["condensate_density"], 3, 1)


def op_q1(op):
    return {"value": bec_states.q_form("q1", _test_function(op["f"]), quadratic_dispersion(), op["beta"])}


def op_q0(op):
    f = _test_function(op["f"])
    return {"value": bec_states.q_form("q0", f, quadratic_dispersion(), op["beta"], phase=_phase(op))}


def op_psi_bec(op):
    return {"value": bec_states.psi_bec(_test_function(op["f"]), quadratic_dispersion(), op["beta"], _phase(op))}


def op_decomposition_gap(op):
    f = _test_function(op["f"])
    return {"value": float(bec_states.decomposition_gap(f, quadratic_dispersion(), op["beta"], _phase(op)))}


def op_fiber_density(op):
    return {"value": bec_states.fiber_density(_phase(op), quadratic_dispersion(), op["beta"])}


def op_overlap_matrix(op):
    family = couplings.CouplingFamily(op["num_sites"], 3, op["uv_width"], op["kappa"])
    G = couplings.overlap_matrix(family, quadratic_dispersion(), op["m"]).entries
    return {"re": G.real.tolist(), "im": G.imag.tolist()}


def op_critical_temperature(op):
    beta_c, t_c = condensation.critical_temperature(op["rho"], quadratic_dispersion())
    return {"beta_c": beta_c, "t_c": t_c}


OPS = {
    "cli": op_cli,
    "combined_limit": op_combined_limit,
    "decoupling": op_decoupling,
    "q1": op_q1,
    "q0": op_q0,
    "psi_bec": op_psi_bec,
    "decomposition_gap": op_decomposition_gap,
    "fiber_density": op_fiber_density,
    "overlap_matrix": op_overlap_matrix,
    "critical_temperature": op_critical_temperature,
}


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    run_s = 0.0
    for op in job["ops"]:
        t0 = time.perf_counter()
        try:
            out, error = OPS[op["op"]](op), None
        except Exception as err:  # an operation that raises is counted as failed
            out, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        run_s += seconds
        results.append({"seconds": seconds, "output": out, "error": error})
    result = {
        "import_s": import_s,
        "run_s": run_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(import_s, run_s)
        tracer.write(job["spans"])
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
