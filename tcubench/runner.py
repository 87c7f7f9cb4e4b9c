"""Measurement loops, end-to-end metrics and the traced per-layer report.

One client runs a closed loop: it sends its next operation only after
the previous one returned.  It checks each output right after the call,
with the clock stopped, and its measured time is the sum of its
operations' latencies.
"""

from __future__ import annotations

import gc
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from tcubench.probes import PRIMITIVES
from tcubench.spans import Span, Tracer, layer_totals, self_time_violations
from tcubench.workloads import Op, Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Length of a finite stream, per second of measurement: about 1.4 times
#: what ``serve`` completes at this baseline.  A stream that runs out
#: ends the window early (the report says so).
OPS_PER_SECOND = 250

OP_KINDS = ("scan", "chain_start", "fold", "fold_chain", "indicator_build",
            "value_fill", "gemm", "batched_gemm", "nonzero",
            "grid_aggregate", "mask_apply", "physical_stage", "decode")
#: Span names reported as ``<name>.calls`` and ``<name>.self_ms``.
SPAN_LAYERS = (
    ("sql.parse", "sql.bind", "sql.prepare",
     "lower.query", "lower.hybrid", "lower.fuse", "specialize")
    + tuple(f"op.{kind}" for kind in OP_KINDS)
    + tuple(f"backend.{name}" for name in PRIMITIVES)
    + ("engine", "codegen", "ydb", "storage.register", "storage.fingerprint",
       "eval.filtered", "dist")
)

END_TO_END = (
    ("qps", "ops/s"), ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
    ("setup_s", "s"), ("sim_ms_per_query", "ms"), ("success_rate", "fraction"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for name in SPAN_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "dist.shard_busy_ms": "ms",
        "lower.fallback_share": "fraction",
        "lower.hybrid_share": "fraction",
        "cache.hit_rate": "fraction",
        "cache.misses": "count",
        "cache.evictions": "count",
        "server.queue_wait_ms.p50": "ms",
        "server.queue_wait_ms.p95": "ms",
        "server.run_ms.p50": "ms",
        "server.run_ms.p95": "ms",
        "server.rejected": "count",
        "server.retried": "count",
        "server.degraded": "count",
        "reference.busy_ms": "ms",
        "verify.check_s": "s",
        "trace.overhead_frac": "fraction",
        "trace.ops": "count",
        "trace.selfsum_violations": "count",
    })
    return units


@dataclass
class Outcome:
    op: Op
    latency_s: float
    error: str | None = None
    sim_s: float | None = None
    executed_by: str | None = None
    value: object = None  # output awaiting its check


@dataclass
class Phase:
    outcomes: list[Outcome] = field(default_factory=list)
    timed_s: float = 0.0
    check_s: float = 0.0
    exhausted: bool = False
    peak_rss_mb: float = 0.0  # over the operations only; see reset_peak_rss

    @property
    def failures(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is not None]


# --------------------------------------------------------------------- #
# set-up and measurement
# --------------------------------------------------------------------- #

def set_up(workload: Workload, seed: int) -> list[float]:
    """Build the workload ``SETUP_REPEATS`` times, keeping the last build."""
    times = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.release()
            gc.collect()
        start = time.perf_counter()
        workload.build(seed)
        times.append(time.perf_counter() - start)
    return times


def _call(workload: Workload, op: Op,
          tracer: Tracer | None) -> tuple[Outcome, object]:
    span = (tracer.span("bench.op", new_request=True) if tracer is not None
            else nullcontext())
    raw = error = None
    with span:
        start = time.perf_counter()
        try:
            raw = workload.run(op)
        except Exception as exc:  # an operation that raised is a failure
            error = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return Outcome(op, latency, error=error), raw


def _reduce(workload: Workload, outcome: Outcome, raw) -> None:
    if raw is None:
        return
    reduced = workload.reduce(outcome.op, raw)
    outcome.sim_s = reduced.sim_s
    outcome.executed_by = reduced.executed_by
    outcome.value = reduced.value


def _check(workload: Workload, outcome: Outcome) -> None:
    if outcome.error is None:
        try:
            mismatch = workload.check(outcome.op, outcome.value)
        except Exception as exc:  # a malformed output fails its check
            mismatch = f"check raised {type(exc).__name__}: {exc}"
        if mismatch is not None:
            outcome.error = f"mismatch: {mismatch}"
    outcome.value = None


def measure(workload: Workload, stream, seconds: float,
            tracer: Tracer | None = None) -> Phase:
    """Run the stream for ``seconds`` of measured time."""
    phase = Phase()
    while phase.timed_s < seconds:
        op = next(stream, None)
        if op is None:
            phase.exhausted = True
            break
        reset_peak_rss()
        outcome, raw = _call(workload, op, tracer)
        phase.peak_rss_mb = max(phase.peak_rss_mb, peak_rss_mb())
        phase.timed_s += outcome.latency_s
        start = time.perf_counter()
        _reduce(workload, outcome, raw)
        del raw
        _check(workload, outcome)
        phase.check_s += time.perf_counter() - start
        phase.outcomes.append(outcome)
    return phase


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #

def reset_peak_rss() -> None:
    """Restart the kernel's peak resident size (``VmHWM``) from the
    current one, so the next reading covers only what ran since: not the
    set-ups, the oracles computed before timing, or the checks between
    operations."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as out:
            out.write("5")
    except OSError:
        warnings.warn("cannot reset the peak resident size; peak_rss_mb "
                      "is the whole process's peak", RuntimeWarning)


def peak_rss_mb() -> float:
    """``VmHWM``: peak resident memory since the last reset, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def sim_ms_per_query(phase: Phase, workload: Workload) -> float:
    """Mean simulated milliseconds over the first ``sim_prefix``
    successful operations."""
    sims = [o.sim_s for o in phase.outcomes if o.sim_s is not None]
    return 1e3 * float(np.mean(sims[:workload.sim_prefix])) if sims else 0.0


def qps(phase: Phase) -> float:
    completed = sum(o.sim_s is not None for o in phase.outcomes)
    return completed / phase.timed_s if phase.timed_s > 0 else 0.0


def end_to_end(phase: Phase, setup_times: list[float],
               workload: Workload) -> dict:
    latencies = np.array([o.latency_s for o in phase.outcomes]) * 1e3
    attempted = len(phase.outcomes)
    return {
        "qps": qps(phase),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
        "setup_s": float(np.median(setup_times)),
        "sim_ms_per_query": sim_ms_per_query(phase, workload),
        "success_rate": (attempted - len(phase.failures)) / attempted,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def by_label(phase: Phase) -> dict[str, dict]:
    """Per statement: operations, failures, median and total latency."""
    labels: dict[str, list[Outcome]] = {}
    for outcome in phase.outcomes:
        labels.setdefault(outcome.op.label, []).append(outcome)
    return {
        label: {"ops": len(group),
                "failed": sum(o.error is not None for o in group),
                "latency_p50_ms": 1e3 * float(np.median(
                    [o.latency_s for o in group])),
                "latency_total_s": sum(o.latency_s for o in group)}
        for label, group in sorted(labels.items())
    }


def _share(outcomes: list[Outcome], path: str) -> float:
    paths = [o.executed_by for o in outcomes if o.executed_by is not None]
    return sum(p == path for p in paths) / len(paths) if paths else 0.0


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(spans: list[Span], traced: Phase, untraced: Phase,
              counters_before: dict, counters_after: dict,
              check_s: float, reference_ms: float) -> dict[str, float]:
    """Every per-layer metric of :func:`per_layer_units`."""
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for name in SPAN_LAYERS:
        entry = totals.get(name, {"calls": 0, "self_ms": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_ms"] = entry["self_ms"]
    out["dist.shard_busy_ms"] = totals.get("dist.shard", {}).get("busy_ms", 0.0)
    out["lower.fallback_share"] = _share(traced.outcomes, "YDB-fallback")
    out["lower.hybrid_share"] = _share(traced.outcomes, "TCU-hybrid")

    def delta(key: str) -> int:
        return counters_after.get(key, 0) - counters_before.get(key, 0)

    hits, misses = delta("cache_hits"), delta("cache_misses")
    out["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.misses"] = misses
    out["cache.evictions"] = delta("cache_evictions")
    by_id = {span.span_id: span for span in spans}
    runs = [span for span in spans if span.name == "server.run"]
    waits = [(span.start_ns - by_id[span.parent_id].start_ns) / 1e6
             for span in runs if span.parent_id in by_id]
    run_ms = [span.duration_ns / 1e6 for span in runs]
    out["server.queue_wait_ms.p50"] = _pct(waits, 50)
    out["server.queue_wait_ms.p95"] = _pct(waits, 95)
    out["server.run_ms.p50"] = _pct(run_ms, 50)
    out["server.run_ms.p95"] = _pct(run_ms, 95)
    for key in ("rejected", "retried", "degraded"):
        out[f"server.{key}"] = delta(key)
    out["reference.busy_ms"] = reference_ms
    out["verify.check_s"] = check_s
    base = qps(untraced)
    out["trace.overhead_frac"] = 1.0 - qps(traced) / base if base else 0.0
    out["trace.ops"] = len(traced.outcomes)
    out["trace.selfsum_violations"] = len(self_time_violations(spans))
    return out
