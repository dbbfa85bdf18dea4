"""Benchmark child process: set up one workload, run it as a closed loop.

``run.py`` starts this file in fresh interpreters.  With ``--setup-only`` it
imports ditsim, builds the workload's inputs, prints ``ready`` and exits; the
parent times that as set-up.  Otherwise it builds the inputs and runs one
untimed warm-up pass; then one client calls ops back to back in passes over
the input pool, for at least ``MIN_PASSES`` whole passes and ``--seconds`` of
wall time, checking each output between ops, and prints one JSON line with
the measurements.  Op times are rescaled to a nominal machine speed with the
reference kernel of ``reference.py``.  With ``--trace 1`` untraced and traced passes alternate until
the traced ones cover ``--seconds / 2``; the spans are written to
``--trace-file``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import reference

MIN_PASSES = 3
SPEED = reference.Speedometer()


@dataclass
class Loop:
    """What one closed loop saw: per-entry latencies, all executions, failures."""

    times: list  # per pool entry, its op times at the nominal speed, s
    executions: int
    busy_s: float  # op time as measured
    kernel_s: list  # every reference-kernel sample
    failures: list

    def merge(self, other: "Loop | None") -> "Loop":
        if other is None:
            return self
        return Loop([a + b for a, b in zip(self.times, other.times)],
                    self.executions + other.executions, self.busy_s + other.busy_s,
                    self.kernel_s + other.kernel_s, self.failures + other.failures)


def closed_loop(work, seconds: float, min_passes: int, tracer=None) -> Loop:
    """Run passes over the pool until ``min_passes`` are whole and ``seconds`` have passed.

    Each op is timed alone, and the reference kernel runs between ops; an
    op's time is rescaled by the mean of the kernel times just before and
    just after it.  Its output is checked after that.  Successive passes run
    on successive allowed CPUs, since outside load slows each vCPU at
    different times.
    """
    n = len(work.pool)
    times: list[list[float]] = [[] for _ in range(n)]
    kernel_s: list[float] = []
    failures: list[str] = []
    busy = 0.0
    executions = passes = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()

    def done() -> bool:
        return passes >= min_passes and perf_counter() - start >= seconds

    try:
        while not done():
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            before = SPEED.sample()
            for k in range(n):
                if done():
                    break
                work.prepare(k)
                if tracer is not None:
                    tracer.begin_op()
                    tracer.on = True
                t0 = perf_counter()
                try:
                    out, error = work.run_op(k), None
                except (Exception, SystemExit) as exc:  # an op that raises is a failed op
                    out, error = None, exc
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.on = False
                    tracer.end_op()
                after = SPEED.sample()
                executions += 1
                busy += elapsed
                times[k].append(reference.at_nominal_speed(elapsed, (before + after) / 2))
                kernel_s.append(after)
                before = after
                if error is None:
                    try:
                        work.check(k, out)
                    except Exception as exc:  # any check error fails this op, the run goes on
                        error = exc
                if error is not None:
                    failures.append(f"pool entry {k}: {type(error).__name__}: {error}")
                out = None  # free this output before the next op allocates its own
            passes += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return Loop(times, executions, busy, kernel_s, failures)


def latency_stats(loop: Loop) -> dict:
    """Throughput and percentiles over each entry's median latency at the nominal speed."""
    typical = [statistics.median(t) for t in loop.times]
    cuts = statistics.quantiles(typical, n=100, method="inclusive")
    kernel = statistics.median(loop.kernel_s)
    return {
        "entries": len(typical),
        "executions": loop.executions,
        "busy_s": loop.busy_s,
        "ops_per_s": len(typical) / sum(typical),
        "raw_ops_per_s": loop.executions / loop.busy_s,
        "p50_ms": statistics.median(typical) * 1e3,
        "p95_ms": cuts[94] * 1e3,
        "samples_beyond_p95": sum(x > cuts[94] for x in typical),
        "kernel_median_ms": kernel * 1e3,
        "speed_vs_nominal": reference.NOMINAL_S / kernel,
    }


def environment(work, args) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no dict mode; the name is informational
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": work.sizes(),
        "scattering_arrays_bytes_computed_per_point": 64,
        "scattering_arrays_bytes_note": "computed output size (4 complex128 arrays), "
                                        "not measured memory traffic",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="directory holding the ditsim package")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import ditsim
    import ditsim.cli  # noqa: F401  (set-up covers the CLI import too)

    src = os.path.realpath(args.src)
    if not os.path.realpath(ditsim.__file__).startswith(src + os.sep):
        print(f"error: imported ditsim from {ditsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    work = workloads.make(args.workload, args.seed, args.workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # one untimed pass first: the heap grows to its peak and every output is
    # verified in full, so timed passes see neither page faults nor slow checks
    warm = closed_loop(work, 0.0, 1)
    if not args.trace:
        timed = closed_loop(work, args.seconds, MIN_PASSES)
        report = {"stats": latency_stats(timed)}
        loops = [warm, timed]
    else:
        # untraced and traced passes alternate, so both see the same machine
        # load and their ratio gives the tracing overhead
        import tracer as tracing

        spans = tracing.Tracer()
        plain = traced = None
        while traced is None or traced.busy_s < args.seconds / 2:
            plain = closed_loop(work, 0.0, 1).merge(plain)
            spans.install()
            try:
                traced = closed_loop(work, 0.0, 1, spans).merge(traced)
            finally:
                spans.uninstall()
        report = {"stats": latency_stats(plain), "traced_stats": latency_stats(traced),
                  "layers": spans.layer_metrics(traced.executions, traced.busy_s * 1e9),
                  "spans": len(spans.name)}
        if args.trace_file:
            spans.save(args.trace_file)
        loops = [warm, plain, traced]
    attempted = sum(loop.executions for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": environment(work, args),
    })
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
