import csv
import json
import os
import platform
import subprocess
import sys
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest

import hpbec
from hpbec import bec_states, cli, couplings, numerics, phonon_gas

# an artifact each command writes
ARTIFACT = {
    "condense": "condense.csv", "phase-diagram": "phase_diagram.csv", "decouple-verify": "decouple.json",
    "bec-states": "bec_states.csv", "fingerprint": "fingerprint.csv", "validate": "validate.json",
}
SCHEMA_KEYS = [dotted for dotted, _, _ in cli.leaves(cli.SCHEMA, cli.defaults(cli.SCHEMA))]


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
    infinite_beta = ["--override", "thermo.beta=null", "--override", "thermo.temperature=1e-320"]
    assert run(["--command", "validate", "--out", out, *infinite_beta]) == cli.EXIT_VALIDATION


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
            "--override", "dispersion.omega0=\"bogus\"",
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


def test_help_exits_0_with_a_usage_that_names_every_command(capsys):
    for flag in ("-h", "--help", "--he"):
        with pytest.raises(SystemExit) as exit_:
            run([flag])
        assert exit_.value.code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out == cli.USAGE
        assert all(name in out for name in [*cli.COMMANDS, "full-report"])


@pytest.mark.parametrize("argv,problem", [
    ([], "--command is required"),
    (["--command", "condence"], "'condence' is not one of"),
    (["--command", "validate", "--seed", "1"], "--seed not recognized"),
    (["--command", "validate", "stray"], "unexpected argument 'stray'"),
    (["--co", "validate"], "--co not a unique prefix"),
    (["--command"], "--command requires argument"),
], ids=["missing-command", "unknown-command", "unknown-option", "stray-argument", "ambiguous-prefix", "no-value"])
def test_usage_errors_exit_2_with_the_usage_on_stderr(capsys, argv, problem):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(cli.USAGE) and problem in captured.err


def test_option_values_may_follow_an_equals_sign_or_a_prefix(tmp_path):
    """--override=K=V is --override K=V; repeated overrides apply in order, as before."""
    spellings = [
        ["--command", "validate", "--out", str(tmp_path / "a"),
         "--override", "thermo.beta=2.0", "--override", "sweep.level_caps=[3]", "--override", "thermo.beta=0.5"],
        ["--comm=validate", "--ou", str(tmp_path / "b"),
         "--override=thermo.beta=2.0", "--overr=sweep.level_caps=[3]", "--override", "thermo.beta=0.5"],
    ]
    for argv in spellings:
        assert run(argv) == cli.EXIT_OK
    manifests = [json.loads((tmp_path / sub / "manifest.json").read_text()) for sub in "ab"]
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
    overrides = cli.parse_args(spellings[1])[3]
    assert overrides == ["thermo.beta=2.0", "sweep.level_caps=[3]", "thermo.beta=0.5"]
    assert cli.load_config(None, overrides) == cli.load_config(None, ["thermo.beta=0.5", "sweep.level_caps=[3]"])


def test_module_entry_point_prints_help():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "hpbec.cli", "--help"], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (cli.EXIT_OK, cli.USAGE, "")


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
        ("fingerprint", 'seed="x"', "fingerprint.csv"),
        ("fingerprint", "seed=1.5", "fingerprint.csv"),
        ("condense", "thermo.num_internal=1.7", "condense.csv"),
        ("decouple-verify", "hubbard.num_sites=2.9", "decouple.json"),
        ("decouple-verify", "hubbard.num_electrons=1.5", "decouple.json"),
        ("phase-diagram", "phase_grid.betas=[-1]", "phase_diagram.csv"),
        ("condense", "thermo.rho_target=-1", "condense.csv"),
        ("phase-diagram", "phase_grid.densities=[]", "phase_diagram.csv"),
        ("decouple-verify", "sweep.coupled_box_size=0", "decouple.json"),
        ("decouple-verify", "sweep.coupled_box_size=-10", "decouple.json"),
        ("bec-states", "bec.suite_size=0", "bec_states.json"),
        ("condense", "thermo.beta=-1", "condense.csv"),
        ("validate", "dispersion.dimension=2.5", "validate.json"),
        ("condense", "dispersion.dimension=0", "condense.csv"),
        ("condense", "dispersion.table=[[1]]", "condense.csv"),
        ("validate", "dispersion.table=[1,2]", "validate.json"),
        ("bec-states", "dispersion.table=[[0,1],[0,2]]", "bec_states.csv"),
        ("condense", 'hubbard.repulsion="x"', "condense.csv"),
        ("condense", "hubbard.num_electrons=5", "condense.csv"),
        ("fingerprint", "hubbard.hopping=[[0,-1,0],[-1,0,-1],[0,-1,0]]", "fingerprint.csv"),
        ("phase-diagram", "sweep.mode_coords=[[1,0]]", "phase_diagram.csv"),
        ("validate", "sweep.box_sizes=[]", "validate.json"),
        ("validate", "sweep.box_sizes=[20,10]", "validate.json"),
        *[(command, f"{key}=true", ARTIFACT[command]) for key, command in zip(SCHEMA_KEYS, cycle(ARTIFACT))],
    ],
)
def test_a_config_value_of_the_wrong_kind_is_rejected_by_name(tmp_path, capsys, command, override, artifact):
    """Every key is checked at load, whatever the command: a value the schema does not accept
    exits 2 naming its key, before any artifact or manifest.  Unchecked, some of these raised a
    TypeError or IndexError (exit 1), ran on truncated values (thermo.beta=true as beta = 1,
    dispersion.dimension=2.5 as 2), failed as a numerical divergence (exit 3), or passed under a
    command that does not read the key (exit 0)."""
    code = run(["--command", command, "--out", str(tmp_path), "--override", override])
    assert code == cli.EXIT_VALIDATION
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / artifact).exists() and not (tmp_path / "manifest.json").exists()


def test_readme_tables_every_config_key_with_its_default_and_what_it_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for dotted, key, _ in cli.leaves(cli.SCHEMA, cli.defaults(cli.SCHEMA)):
        assert f"| `{dotted}` | `{json.dumps(key.default)}` | {key.accepts} |" in readme, dotted


def test_bec_states_fails_on_a_non_finite_value_before_writing(tmp_path, capsys):
    """At rho_target = 1e308 the condensate amplitude c = 2 (2 pi)^3 rho_0 overflows: the
    phase refuses it where it is formed, before q0 or the gap's chi-average could be
    computed from it.  The run fails before any artifact."""
    code = run(["--command", "bec-states", "--out", str(tmp_path), "--override", "thermo.rho_target=1e308"])
    assert code == cli.EXIT_DIVERGENCE
    assert "condensate density 1e+308: its amplitude c overflows" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_non_finite_json_value_fails_the_run_naming_its_artifact(tmp_path, monkeypatch, capsys):
    """JSON has no NaN: Emitter.json writes strict JSON or nothing."""

    def report_nan(config, emitter):
        emitter.json("report.json", {"value": float("nan")})
        return cli.EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "validate", report_nan)
    assert run(["--command", "validate", "--out", str(tmp_path)]) == cli.EXIT_DIVERGENCE
    assert "report.json" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_phase_diagram_computes_rho_crit_once_per_beta(tmp_path, monkeypatch):
    phonon_gas._rho_crit.cache_clear()
    betas = []
    quadrature = phonon_gas.rho_fr_quadrature

    def counted(disp, beta, t, num_internal=1):
        if t == 0.0:
            betas.append(beta)
        return quadrature(disp, beta, t, num_internal)

    monkeypatch.setattr(phonon_gas, "rho_fr_quadrature", counted)
    assert run(["--command", "phase-diagram", "--out", str(tmp_path / "r")]) == 0
    assert betas == [0.5, 1.0, 2.0]  # one rho_crit quadrature per grid beta; the 9 classifications reuse it


def test_phase_diagram_exits_divergent_on_a_target_beyond_the_bracket(tmp_path):
    """A normal-phase root above y = 1e18 is a BracketError, exit 3."""
    out = tmp_path / "r"
    code = run(["--command", "phase-diagram", "--out", str(out), "--override", "phase_grid.densities=[1e-19]"])
    assert code == cli.EXIT_DIVERGENCE


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
    assert rc["evaluations"] == 2 * 8 * 15 and rc["passes"] == 1  # both pieces converge on their 8 starting panels
    rows = list(csv.DictReader((out / "condense.csv").open()))
    solves = diag["fugacity_solves"]
    assert [s["box_size"] for s in solves] == [5.0, 8.0, 12.0]
    for solve, row in zip(solves, rows):
        assert solve["residual"] == float(row["residual"]) <= 1e-10
        assert 1.0 + solve["t"] == float(row["y_L"])
        assert "brent_iterations" not in solve  # one Newton iteration in u = 1/t is the whole solve
        assert 1 <= solve["newton_steps"] <= 6
        assert 0.0 <= solve["tail_bound"] <= 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert "diagnostics.json" in manifest["artifacts"]
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["hpbec"] == hpbec.__version__
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
    rss = [s["peak_rss_kib"] for s in stages]
    assert rss[0] > 0 and rss == sorted(rss)  # a peak never falls


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="ru_maxrss is the only peak without /proc")
def test_stage_peak_rss_is_the_commands_own_not_its_launchers(tmp_path):
    """ru_maxrss carries a launcher's peak across exec; VmHWM does not.  A launcher that
    holds 200 MiB runs `validate`, whose own peak is a fraction of that."""
    held = 200 << 20
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import subprocess, sys\n"
        f"held = b'x' * {held}\n"
        f"subprocess.run([sys.executable, '-m', 'hpbec.cli', '--command', 'validate', '--out', {str(tmp_path)!r}],"
        " check=True)\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    [stage] = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert 0 < stage["peak_rss_kib"] < held // 1024


def test_no_command_loads_a_module_that_importing_the_cli_did_not(tmp_path):
    """A module a command loads on first use is paid for inside the command, in every
    fresh process: numpy's submodules (numpy.ma, numpy.random, numpy.polynomial) take
    10-15 ms each, and an argparse parser's first message lookup loads `locale`.
    Importing hpbec.cli loads every module a command needs, so a full-report in a
    fresh process loads none."""
    script = (
        "import json, sys\n"
        "from hpbec import cli\n"
        "before = set(sys.modules)\n"
        f"code = cli.main({json.dumps(['--command', 'full-report', '--out', str(tmp_path)])})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]


@pytest.mark.parametrize(
    "command,override",
    [("condense", "thermo.rho_target=1e300"), ("decouple-verify", "hubbard.alpha=1e200")],
    ids=["condense-zero-division", "decouple-verify-overflow"],
)
def test_arithmetic_errors_map_to_divergence_exit(tmp_path, capsys, command, override):
    """Values the schema accepts but that overflow downstream: at rho = 1e300 the root
    t underflows so far that t^2 is 0, and alpha = 1e200 overflows alpha^2.  Each exits 3
    with a message that names the input, not a traceback."""
    assert run(["--command", command, "--out", str(tmp_path / "r"), "--override", override]) == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("numerical divergence: ")
    names = {"condense": ["target density 1e+300", "L = 10", "underflows"],
             "decouple-verify": ["hubbard.alpha = 1e+200", "overflows"]}[command]
    assert all(name in err for name in names), err


def test_non_finite_csv_rows_map_to_divergence_exit(tmp_path):
    """At rho = 1e308 the condensate amplitude overflows where the phase is formed,
    before fingerprint computes a NaN angle from it: the run exits 3 naming the
    condensate density.  Run as a user runs it, where numpy's RuntimeWarning is a
    warning, not an error, and none is printed."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["--command", "fingerprint", "--out", str(tmp_path), "--override", "thermo.rho_target=1e308"]
    out = subprocess.run([sys.executable, "-m", "hpbec.cli", *argv], env=env, capture_output=True, text=True)
    assert out.returncode == cli.EXIT_DIVERGENCE
    assert out.stderr == "numerical divergence: condensate density 1e+308: its amplitude c overflows\n"
    assert not (tmp_path / "fingerprint.csv").exists()


def test_fingerprint_phases_stay_finite_where_the_amplitude_does(tmp_path):
    """At rho = 1e305 the amplitude c is finite but c r overflows; the phase is formed
    as sqrt(c) sqrt(r), so fingerprint round-trips and bec-states fails only on its
    own q0 = inf, each without a numpy RuntimeWarning.  Run as a user runs it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = {}
    for command in ("fingerprint", "bec-states"):
        argv = ["--command", command, "--out", str(tmp_path / command), "--override", "thermo.rho_target=1e305"]
        outs[command] = subprocess.run([sys.executable, "-m", "hpbec.cli", *argv], env=env, capture_output=True,
                                       text=True)
    assert outs["fingerprint"].returncode == cli.EXIT_OK
    assert outs["fingerprint"].stderr == ""
    with open(tmp_path / "fingerprint" / "fingerprint.csv") as fh:
        assert max(float(row["abs_error_r"]) for row in csv.DictReader(fh)) <= 9e-16
    assert outs["bec-states"].returncode == cli.EXIT_DIVERGENCE
    assert outs["bec-states"].stderr == "numerical divergence: bec-states test function 1: q0 = inf is not finite\n"


def test_a_non_finite_csv_value_fails_the_run_naming_its_artifact(tmp_path, monkeypatch, capsys):
    """A CSV row with a NaN or an infinity is refused before the file is written."""

    def report_nan(config, emitter):
        emitter.csv("report.csv", ["index", "value"], [(0, 1.0), (1, float("nan"))])
        return cli.EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "validate", report_nan)
    assert run(["--command", "validate", "--out", str(tmp_path)]) == cli.EXIT_DIVERGENCE
    assert "numerical divergence: report.csv: non-finite value nan" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_condense_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every shell sum runs in numpy's fixed pairwise order, not through a BLAS dot,
    so the Newton iterates, their count and every printed digit are the same under
    one and two BLAS threads, up to L = 640, where a BLAS dot's rounding moved them."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = ["--command", "condense", "--override", "sweep.box_sizes=[40,160,320,640]"]
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = ["--out", str(tmp_path / threads)]
        subprocess.run([sys.executable, "-m", "hpbec.cli", *argv, *out], env=env, check=True)
    for name in ("condense.csv", "diagnostics.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
