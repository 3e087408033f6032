"""hpbec benchmark: time the certified numbers end to end, and check them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload (see workloads.py and README.md) until S seconds
have passed, each round in a fresh interpreter with the BLAS/OpenMP thread
count pinned through its environment.  Every operation's output is checked
in this process, which never imports hpbec, against oracles.py.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end to end with --trace 0, per layer with --trace 1).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracing import METRICS as LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS thread: OpenBLAS threads spin while they wait, so with two or more
# of them any other load on the cores turns into large, erratic slowdowns.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Timed set-up probes before the first round and again after the last; with
# the start of every round they give the set-up samples.
SETUP_PROBES = 6
# A whole run ends within this many seconds: a round still running then is
# killed and its operations count as failed, so a slowdown still prints figures.
RUN_LIMIT_S = 165.0
PROBE = {"ops": [], "trace": False}


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(job, job_dir, env, deadline):
    """Run child.py on `job`, killing it at `deadline` (a perf_counter time).

    Returns (set-up seconds, seconds until it ended, child result); the result
    is None for a set-up probe and for a child killed at the deadline.
    """
    job_path = job_dir / "job.json"
    result_path = job_dir / "result.json"
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(job))
    killed = threading.Event()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(job_path)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    ) as proc:
        watchdog = threading.Timer(max(deadline - t0, 0.0), lambda: (killed.set(), proc.kill()))
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    total_s = time.perf_counter() - t0
    if killed.is_set():
        return setup_s, total_s, None
    if ready.strip() != b"ready" or code != 0:
        raise ChildFailed(f"child exited with code {code} before finishing (ready={ready!r})")
    if not job["ops"]:
        return setup_s, total_s, None
    return setup_s, total_s, json.loads(result_path.read_text())


def collect(ops, result):
    """Each operation's output, with the CLI's artifacts read back; None if it raised."""
    outputs = []
    for op, rec in zip(ops, result["ops"]):
        if rec["error"] is not None:
            outputs.append(None)
        elif op["op"] == "cli":
            found = workloads.read_artifacts(op["out"]) if os.path.isdir(op["out"]) else {}
            outputs.append({**rec["output"], "artifacts": found})
        else:
            outputs.append(rec["output"])
    return outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hpbec" / "cli.py").is_file():
        print(f"no hpbec sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []

    def probe():
        setup_s, _, _ = run_child(PROBE, work, env, deadline)
        if time.perf_counter() >= deadline:
            raise ChildFailed(f"set-up did not finish within {RUN_LIMIT_S} s")
        setups.append(setup_s)

    # The first start byte-compiles a fresh checkout; users do not pay that on every call.
    run_child(PROBE, work, env, deadline)
    for _ in range(SETUP_PROBES):
        probe()

    round_dir = work / "round"
    op_times, rss_mib, layers = [], [], []
    attempted = failed = 0
    wrong = []
    worst = {}
    killed_s = None
    start = time.perf_counter()
    while not op_times or time.perf_counter() - start < args.seconds:
        shutil.rmtree(round_dir, ignore_errors=True)
        round_dir.mkdir()
        ops = workloads.make_round(args.workload, args.seed, str(round_dir))
        job = {"ops": ops, "trace": bool(args.trace), "spans": str(work / "spans.npz")}
        setup_s, total_s, result = run_child(job, round_dir, env, deadline)
        attempted += len(ops)
        if result is None:
            failed += len(ops)
            killed_s = total_s - setup_s
            print(f"round killed after {total_s:.1f} s, at the run's {RUN_LIMIT_S} s limit", file=sys.stderr)
            break
        outputs = collect(ops, result)
        for op, rec, verdict in zip(ops, result["ops"], workloads.check(ops, outputs)):
            if verdict is None:
                failed += 1
                print(f"operation {op['op']} failed: {rec['error'] or 'nonzero exit code'}", file=sys.stderr)
                continue
            problems, errors = verdict
            for name, err in errors.items():
                worst[name] = max(worst.get(name, 0.0), err)
            if problems:
                failed += 1
                wrong.append((op.get("command", op["op"]), problems))
        setups.append(setup_s)
        op_times.append([rec["seconds"] for rec in result["ops"]])
        rss_mib.append(result["maxrss_kib"] / 1024.0)
        if args.trace:
            layers.append(result["layers"])
    if killed_s is None:
        for _ in range(SETUP_PROBES):
            probe()

    (work / "checks.json").write_text(json.dumps(worst, indent=2, sort_keys=True))
    for name, problems in wrong:
        print(f"output check failed in {name}: {'; '.join(problems)}", file=sys.stderr)

    # run_s sums each operation's median time over the rounds, so that a burst
    # of load on the machine moves only the operations it hits.  A round killed
    # at the time limit is timed as a whole, and only when no round finished.
    if op_times:
        run_s = sum(statistics.median(ts) for ts in zip(*op_times))
        round_s = [sum(ts) for ts in op_times]
    else:
        run_s = killed_s
        round_s = [killed_s]
        rss_mib = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    if args.trace:
        if not layers:
            raise ChildFailed("the traced round did not finish, so no layer was measured")
        metrics = {
            name: {"value": statistics.median(r[name] for r in layers), "unit": unit}
            for name, unit, _better in LAYER_METRICS
        }
    else:
        metrics = {
            # The lower quartile: set-up samples run long only when other load hits them.
            "setup_s": {"value": statistics.quantiles(setups, n=4)[0], "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rss_mib), "unit": "MiB"},
        }
    print(f"{args.workload} seed={args.seed} rounds={len(round_s)} attempted={attempted} failed={failed}")
    print("  seconds per round: " + " ".join(f"{t:.4f}" for t in round_s))
    print("  set-up samples: " + " ".join(f"{t:.4f}" for t in sorted(setups)))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        sys.exit(3)
