"""ditsim benchmark: one command, one workload, every metric with its unit.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload cli_files --seed 0 --seconds 10 --trace 0

Workloads are ``cli_files``, ``protocols`` and ``grids`` (see
``bench/README.md``).  Everything runs in child interpreters with BLAS and
OpenMP pinned to one thread:

* ``SETUP_RUNS + 1`` fresh interpreters that only import ditsim and build the
  inputs; the first is a discarded cold start and ``setup_s`` is the median
  of the rest, timed from process launch to the child's ``ready`` line and
  rescaled to the nominal speed of ``reference.py``;
* one measuring interpreter (``worker.py``), which runs the closed loop.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass, plus the
tracing overhead against an untraced pass in the same process.  The full
record, with the environment, goes to ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("cli_files", "protocols", "grids")

SETUP_RUNS = 11
KERNEL_RUNS = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p95": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith((".bytes", ".bytes_computed")):
        return "B"
    if name.endswith(("_frac", ".share")):
        return "frac"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[key] = "1"
    return env


def worker_argv(args, workdir: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace), "--workdir", workdir, "--src", SRC, *extra]


def time_setup(argv: list[str], env: dict, timeout: float, cpu: int,
               speed: reference.Speedometer) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter to its ``ready`` line, as
    measured and at the nominal speed.

    The child runs on ``cpu``, and so does the reference kernel, which is
    timed just before the launch and just after the child has ended."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the child inherits this
    try:
        before = speed.median(KERNEL_RUNS)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - start
            if line.strip() != b"ready":
                raise RuntimeError("set-up child did not report ready")
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        after = speed.median(KERNEL_RUNS)
    finally:
        os.sched_setaffinity(0, allowed)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return elapsed, reference.at_nominal_speed(elapsed, (before + after) / 2)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def measure(args) -> dict:
    started = time.perf_counter()
    env = child_env()
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        speed = reference.Speedometer()
        cpus = sorted(os.sched_getaffinity(0))
        setup = [time_setup(worker_argv(args, workdir, "--setup-only"), env, 60.0,
                            cpus[i % len(cpus)], speed)
                 for i in range(SETUP_RUNS + 1)]
        trace_file = os.path.join(RUN_DIR, f"trace-{args.workload}.npz")
        remaining = DEADLINE_S - (time.perf_counter() - started)
        done = subprocess.run(worker_argv(args, workdir, "--trace-file", trace_file),
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=remaining)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"measuring child exited with {done.returncode}")
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    report["setup_samples_s"] = [measured for measured, _ in setup]
    report["setup_samples_nominal_s"] = [nominal for _, nominal in setup]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ditsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "ditsim", "__init__.py")):
        print(f"error: no ditsim sources under {SRC}", file=sys.stderr)
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        report = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        stats = report["traced_stats"]
        values = dict(report["layers"])
        values["trace.overhead_frac"] = 1.0 - stats["ops_per_s"] / report["stats"]["ops_per_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        stats = report["stats"]
        values = {
            "ops_per_s": stats["ops_per_s"],
            "latency_ms.p50": stats["p50_ms"],
            "latency_ms.p95": stats["p95_ms"],
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(report["setup_samples_nominal_s"][1:]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    report["env"]["git_commit"] = git_commit()
    report["env"]["setup_runs"] = f"{SETUP_RUNS} timed after 1 discarded cold start"
    record = os.path.join(RUN_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"metrics": metrics, **report}, f, indent=1)
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"# env {json.dumps(report['env'])}")
    print(f"# samples {stats['entries']} inputs (median of {stats['executions']} ops), "
          f"{stats['samples_beyond_p95']} beyond p95; "
          f"record {os.path.relpath(record, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
