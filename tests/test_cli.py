import csv
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from hpbec import bec_states, cli, couplings, numerics, phonon_gas


def run(args):
    return cli.main(args)


def test_validate_writes_report_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = run(["--command", "validate", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["all_passed"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert "validate.json" in manifest["artifacts"]
    assert len(manifest["config_sha256"]) == 64


def test_condense_outputs_phase_and_table(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "--command", "condense", "--out", str(out),
            "--override", "sweep.box_sizes=[5.0, 8.0, 12.0]",
        ]
    )
    assert code == 0
    payload = json.loads((out / "condense.json").read_text())
    assert payload["phase"] == "condensed"
    lines = (out / "condense.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "L"
    assert len(lines) == 4


def test_fingerprint_deterministic_across_runs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["--command", "fingerprint", "--out", str(out)]) == 0
        outs.append((out / "fingerprint.csv").read_bytes())
    assert outs[0] == outs[1]


def test_override_changes_config_hash(tmp_path):
    out1, out2 = tmp_path / "x", tmp_path / "y"
    run(["--command", "validate", "--out", str(out1)])
    run(["--command", "validate", "--out", str(out2), "--override", "thermo.beta=2.0"])
    h1 = json.loads((out1 / "manifest.json").read_text())["config_sha256"]
    h2 = json.loads((out2 / "manifest.json").read_text())["config_sha256"]
    assert h1 != h2


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    out = tmp_path / "env-run"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out))
    assert run(["--command", "validate"]) == 0
    assert (out / "validate.json").exists()


def test_config_file_merged_with_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thermo": {"beta": 0.5}}))
    out = tmp_path / "run"
    assert run(["--command", "validate", "--config", str(cfg), "--out", str(out)]) == 0


def test_temperature_beta_exclusivity(tmp_path):
    out = str(tmp_path / "run")
    both = run(
        ["--command", "validate", "--out", out, "--override", "thermo.temperature=2.0"]
    )
    assert both == cli.EXIT_VALIDATION  # beta still set by default
    neither = run(
        ["--command", "validate", "--out", out, "--override", "thermo.beta=null"]
    )
    assert neither == cli.EXIT_VALIDATION


def test_temperature_accepted_when_beta_cleared(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "--command", "validate", "--out", str(out),
            "--override", "thermo.beta=null",
            "--override", "thermo.temperature=2.0",
        ]
    )
    assert code == 0


def test_invalid_parameter_maps_to_validation_exit(tmp_path):
    code = run(
        [
            "--command", "condense", "--out", str(tmp_path / "r"),
            "--override", "dispersion.name=\"bogus\"",
        ]
    )
    assert code == cli.EXIT_VALIDATION
    code = run(
        [
            "--command", "validate", "--out", str(tmp_path / "r2"),
            "--override", "bad-override",
        ]
    )
    assert code == cli.EXIT_VALIDATION


def test_normal_density_maps_to_divergence_exit(tmp_path):
    """bec-states refuses a normal-phase density with the divergence code."""
    code = run(
        [
            "--command", "bec-states", "--out", str(tmp_path / "r"),
            "--override", "thermo.rho_target=1e-4",
        ]
    )
    assert code == cli.EXIT_DIVERGENCE


def test_verification_failure_exit_code(tmp_path, monkeypatch):
    from hpbec.errors import VerificationFailure

    def boom(config, emitter):
        raise VerificationFailure("ladder is not monotone")

    monkeypatch.setitem(cli.COMMANDS, "validate", boom)
    assert run(["--command", "validate", "--out", str(tmp_path / "r")]) == cli.EXIT_VERIFICATION


def test_csv_floats_are_full_precision():
    assert cli.fmt(1.0 / 3.0) == "0.33333333333333331"
    assert cli.fmt(0.5 + 0.25j) == "0.5+0.25j"


def test_validate_checks_are_json_booleans(tmp_path):
    out = tmp_path / "run"
    assert run(["--command", "validate", "--out", str(out)]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["all_passed"] is True
    assert all(type(c["passed"]) is bool for c in report["checks"])


def test_normal_phase_condensate_extrapolates_to_zero(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "--command", "condense", "--out", str(out),
            "--override", "thermo.rho_target=0.0293218106738204",  # rho_c / 2
            "--override", "sweep.box_sizes=[10, 20, 40, 80]",
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((out / "condense.json").read_text())
    assert payload["phase"] == "normal"
    assert 0.0 <= payload["extrapolated_condensate_density"] <= 1e-7


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit):
        run(["--command", "validate", "--threads", "1"])


def test_bec_states_makes_one_q1_quadrature_per_test_function(tmp_path, monkeypatch):
    """The CSV column computes q1; decomposition_gap and psi_bec reuse it."""
    bec_states._q1.cache_clear()
    calls = []
    quadrature = couplings.radial_reduced_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(couplings, "radial_reduced_integral", counted)
    assert run(["--command", "bec-states", "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 10


@pytest.mark.parametrize(
    "override",
    [
        "thermo.bta=2", "nosuch.key=1", "thermo.beta.value=1", "tolerances.fugacity_residual=1e-8",
        'thermo={"bta": 2}', 'phase_grid={"densities": [1.0], "bta": [1.0]}', "hubbard=5",
        'hubbard.alpha={"x": 1}', 'hubbard={"alpha": {"x": 1}}',
    ],
)
def test_unknown_override_key_is_rejected(tmp_path, override):
    code = run(["--command", "validate", "--out", str(tmp_path / "r"), "--override", override])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize(
    "content",
    [{"thermo": {"beta": 0.5, "bta": 2.0}}, {"hubbard": 5}, {"hubbard": {"alpha": {"x": 1}}}, [1.0]],
    ids=["thermo.bta", "section-given-a-value", "value-given-a-section", "not-an-object"],
)
def test_unknown_config_file_key_is_rejected(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert run(["--command", "validate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == cli.EXIT_VALIDATION


def test_a_partial_section_override_merges_like_its_dotted_form(tmp_path):
    """A section given as an object keeps the keys it does not name."""
    section = cli.load_config(None, ['phase_grid={"densities": [1.0]}'])
    assert section == cli.load_config(None, ["phase_grid.densities=[1.0]"])
    assert section["phase_grid"] == {"densities": [1.0], "betas": [0.5, 1.0, 2.0]}
    out = tmp_path / "r"
    assert run(["--command", "phase-diagram", "--out", str(out), "--override", 'phase_grid={"densities": [1.0]}']) == 0
    assert len((out / "phase_diagram.csv").read_text().splitlines()) == 4


def test_unconverged_quadrature_maps_to_divergence_exit(tmp_path, monkeypatch, capsys):
    """A quadrature that reaches its interval limit above tolerance fails the run."""
    for memo in cli.MEMOS.values():  # a warm memo would answer without a quadrature
        memo.cache_clear()
    integrate = numerics.integrate

    def starved(f, a, b, epsabs, epsrel, limit):
        return integrate(f, a, b, epsabs=0.0, epsrel=0.0, limit=4)

    monkeypatch.setattr(numerics, "integrate", starved)
    assert run(["--command", "condense", "--out", str(tmp_path / "r")]) == cli.EXIT_DIVERGENCE
    assert "reached 4 intervals" in capsys.readouterr().err


def test_unconverged_root_maps_to_divergence_exit(tmp_path, monkeypatch, capsys):
    brentq = numerics.brentq

    def starved(f, a, b, xtol, rtol, maxiter, fa=None, fb=None):
        return brentq(f, a, b, xtol, rtol, 2, fa, fb)

    monkeypatch.setattr(numerics, "brentq", starved)
    code = run(
        [
            "--command", "condense", "--out", str(tmp_path / "r"),
            "--override", "sweep.box_sizes=[5.0, 8.0]",
        ]
    )
    assert code == cli.EXIT_DIVERGENCE
    assert "not converged in 2 iterations" in capsys.readouterr().err


def test_saturating_dispersion_maps_to_divergence_exit(tmp_path, capsys):
    """A tabulated profile that flattens out never reaches the cut-off gap."""
    code = run(
        [
            "--command", "condense", "--out", str(tmp_path / "r"),
            "--override", "dispersion.table=[[0, 1], [1, 2], [2, 3], [3, 3]]",
        ]
    )
    assert code == cli.EXIT_DIVERGENCE
    assert "never reaches the target" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,override,artifact",
    [
        ("decouple-verify", "sweep.coupled_box_size=0", "decouple.json"),
        ("decouple-verify", "sweep.coupled_box_size=-10", "decouple.json"),
        ("bec-states", "bec.suite_size=0", "bec_states.json"),
    ],
)
def test_a_size_that_is_not_positive_is_rejected_by_name(tmp_path, capsys, command, override, artifact):
    """Unchecked, a box size of 0 would divide by zero in the mode sampling, a negative
    one would run and fail verification, and an empty suite has no largest gap."""
    code = run(["--command", command, "--out", str(tmp_path), "--override", override])
    assert code == cli.EXIT_VALIDATION
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / artifact).exists()


def test_phase_diagram_computes_rho_crit_once_per_beta(tmp_path, monkeypatch):
    phonon_gas._rho_crit.cache_clear()
    betas = []
    quadrature = phonon_gas.rho_fr_quadrature

    def counted(disp, beta, y, num_internal=1):
        if y == 1.0:
            betas.append(beta)
        return quadrature(disp, beta, y, num_internal)

    monkeypatch.setattr(phonon_gas, "rho_fr_quadrature", counted)
    assert run(["--command", "phase-diagram", "--out", str(tmp_path / "r")]) == 0
    assert betas == [0.5, 1.0, 2.0]  # one rho_crit quadrature per grid beta; the 9 classifications reuse it


def test_condense_writes_certificates(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "--command", "condense", "--out", str(out),
            "--override", "sweep.box_sizes=[5.0, 8.0, 12.0]",
        ]
    )
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    rc = diag["rho_crit"]
    closed_form = 2.612375348685488 * (4.0 * np.pi) ** -1.5  # zeta(3/2) (4 pi beta)^{-3/2}, beta = 1
    assert abs(rc["value"] - closed_form) <= rc["error"] <= 1e-8 * closed_form
    assert rc["evaluations"] == 2 * 8 * 15 and rc["passes"] == 2  # each piece converges on its 8 starting panels
    rows = list(csv.DictReader((out / "condense.csv").open()))
    solves = diag["fugacity_solves"]
    assert [s["box_size"] for s in solves] == [5.0, 8.0, 12.0]
    for solve, row in zip(solves, rows):
        assert solve["residual"] == float(row["residual"]) <= 1e-10
        assert 1.0 + solve["t"] == float(row["y_L"])
        assert solve["brent_iterations"] >= 1
        assert 0 <= solve["newton_steps"] <= 4
        assert 0.0 <= solve["tail_bound"] <= 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert "diagnostics.json" in manifest["artifacts"]
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["thread_env"] == {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}


@pytest.mark.parametrize("command", ["full-report", "validate"])
def test_manifest_records_one_stage_per_command_run(tmp_path, command):
    out = tmp_path / "run"
    assert run(["--command", command, "--out", str(out)]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    expected = list(cli.COMMANDS) if command == "full-report" else [command]
    assert [s["name"] for s in stages] == expected
    assert len(cli.COMMANDS) == 6
    assert all(s["wall_s"] > 0.0 for s in stages)
    rss = [s["ru_maxrss"] for s in stages]
    assert rss[0] > 0.0 and rss == sorted(rss)  # a peak never falls


def test_no_command_loads_a_numpy_module_that_importing_the_cli_did_not(tmp_path):
    """numpy loads some submodules (numpy.ma, numpy.random, numpy.polynomial) on
    first use, at 10-15 ms each in a fresh interpreter.  Importing hpbec.cli
    loads every one a command needs, so that cost is paid at import and never
    inside a command: a full-report in a fresh process loads none."""
    script = (
        "import json, sys\n"
        "from hpbec import cli\n"
        "loaded = lambda: {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
        "before = loaded()\n"
        f"code = cli.main({json.dumps(['--command', 'full-report', '--out', str(tmp_path)])})\n"
        "print(json.dumps([code, sorted(loaded() - before)]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]
