"""Run one TCUDB benchmark workload and print its metrics.

From the root of the repository::

    python3 tcubench/run.py --workload ssb --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures ``--seconds`` untraced, then ``--seconds`` more
with spans around every layer, and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report, and on traced
runs the spans, go to ``tcubench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOAD_NAMES = ("ssb", "ssb_sharded", "apps", "serve")
#: BLAS threads per process.  Two server or shard threads each running a
#: two-thread BLAS call oversubscribe a two-core host, which doubled the
#: run-to-run spread of ``serve``; and the caller's environment must not
#: change what a workload runs.
BLAS_THREADS = "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    """Python, NumPy and its BLAS, CPU count and the CPUs the run may
    use, backend and seed."""
    from repro.bench.report import environment_fingerprint
    from tcubench.workloads import BACKEND

    return {**environment_fingerprint(), "backend": BACKEND,
            "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before NumPy loads: BLAS reads these once, at start-up.
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = BLAS_THREADS
    if not (ROOT / "src" / "repro").is_dir():
        print(f"tcubench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from tcubench import runner
    from tcubench.probes import install
    from tcubench.spans import Tracer
    from tcubench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if workload.one_cpu:  # before any thread starts; threads inherit it
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment(args.seed)
    print(f"# tcubench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env))

    setup_times = runner.set_up(workload, args.seed)
    phases = 2 if args.trace else 1
    stream = workload.stream(args.seed,
                             int(runner.OPS_PER_SECOND * args.seconds * phases))
    untraced = runner.measure(workload, stream, args.seconds)
    report: dict = {"workload": args.workload, "env": env, "seconds": args.seconds,
                    "setup_times_s": setup_times,
                    "redraws": workload.redraws}
    measured = [untraced]
    if args.trace:
        tracer = Tracer()
        before = workload.counters()
        with install(tracer):
            traced = runner.measure(workload, stream, args.seconds, tracer)
        after = workload.counters()
        measured.append(traced)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-s{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        reference_ms = (1e3 * workload.reference_s / workload.reference_calls
                        if workload.reference_calls else 0.0)
        metrics = runner.per_layer(
            tracer.spans, traced, untraced, before, after,
            check_s=sum(p.check_s for p in measured),
            reference_ms=reference_ms)
        units = runner.per_layer_units()
        report["spans"] = str(spans_path.relative_to(ROOT))
    workload.release()

    e2e = runner.end_to_end(untraced, setup_times, workload)
    if not args.trace:
        metrics, units = e2e, dict(runner.END_TO_END)
    attempted = sum(len(p.outcomes) for p in measured)
    failures = [o for p in measured for o in p.failures]
    exhausted = any(p.exhausted for p in measured)
    print(f"# untraced: {len(untraced.outcomes)} operations, "
          f"error_rate={len(untraced.failures) / len(untraced.outcomes):.4f}, "
          f"redraws={workload.redraws}"
          + (", stream exhausted" if exhausted else ""))
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {dict(runner.END_TO_END)[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    # Each failing statement once, with how often it failed.
    distinct: dict[tuple, int] = {}
    for o in failures:
        key = (o.op.label, " ".join(o.op.sql.split()), o.op.params, o.error)
        distinct[key] = distinct.get(key, 0) + 1
    for (label, sql, params, error), count in distinct.items():
        print(f"# FAILED {count}x {label}: {error}\n#   sql: {sql}"
              + (f" params={params}" if params is not None else ""))

    report.update({
        "end_to_end": e2e, "metrics": metrics, "attempted": attempted,
        "latency_samples": len(untraced.outcomes),
        "stream_exhausted": exhausted,
        "by_label": runner.by_label(untraced),
        "failures": [{"label": label, "sql": sql, "params": params,
                      "error": error, "count": count}
                     for (label, sql, params, error), count in distinct.items()],
    })
    RESULTS.mkdir(exist_ok=True)
    report_path = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
