"""Tests of the benchmark itself: streams, checks, spans and configuration.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q tcubench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.datasets.em import beer_catalog  # noqa: E402
from repro.datasets.ssb import ssb_catalog  # noqa: E402
from repro.engine import TCUDBEngine  # noqa: E402
from repro.engine.tcudb import ops as tcu_ops  # noqa: E402
from repro.storage.column import Column  # noqa: E402
from repro.storage.table import Table  # noqa: E402
from repro.storage.types import DataType  # noqa: E402
from repro.workloads.em_blocking import beer_blocking_query  # noqa: E402
from tcubench import runner, workloads  # noqa: E402
from tcubench.probes import install  # noqa: E402
from tcubench.spans import (  # noqa: E402
    Span,
    Tracer,
    layer_totals,
    self_time_violations,
    self_times,
)


@pytest.fixture(scope="module")
def small_ssb():
    return ssb_catalog(rows_per_sf=2000, seed=0)


def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.fixture
def small_serve(monkeypatch):
    """The serve workload over a small catalog."""
    monkeypatch.setattr(workloads, "SERVE_ROWS_PER_SF", 2000)
    return workloads.ServeWorkload


# -- streams ------------------------------------------------------------- #

def test_ssb_order_repeats_per_seed_and_changes_across_seeds(small_ssb):
    def order(seed):
        workload = workloads.SsbWorkload()
        workload.catalog = small_ssb
        return [op.label for op in _take(workload.stream(seed, 0), 40)]

    assert order(1) == order(1)
    assert order(1) != order(2)
    # Every round of 13 holds each query once.
    assert sorted(order(3)[:13]) == sorted(workloads.SSB_QUERIES)


def test_apps_rounds_hold_a_whole_pagerank_cycle():
    workload = workloads.AppsWorkload()
    size = workloads.APPS_MATMUL_PER_ROUND + workloads.PAGERANK_CYCLE
    first = _take(workload.order(1), 2 * size)
    assert first == _take(workload.order(1), 2 * size)
    assert first != _take(workload.order(2), 2 * size)
    for round_ in (first[:size], first[size:]):
        labels = [op.label for op in round_]
        assert labels.count("matmul") == workloads.APPS_MATMUL_PER_ROUND
        steps = [op.step for op in round_ if op.label == "pagerank"]
        assert steps == list(range(1, workloads.PAGERANK_CYCLE + 1))


def test_serve_stream_is_a_pure_function_of_the_seed(small_serve):
    workload = small_serve()
    workload.build(1)
    try:
        first, again, other = (list(workload.stream(seed, 30))
                               for seed in (1, 1, 2))
    finally:
        workload.release()
    assert first == again
    assert first != other
    labels = [op.label for op in first[:20]]
    assert sum(label.startswith("adhoc:") for label in labels) == 6
    # Templates come in shuffled rounds: each once in the first six.
    prepared = [op.label for op in first if op.params is not None]
    assert sorted(prepared[:6]) == sorted(t[0] for t in workloads.TEMPLATES)
    assert workload.redraws == 0


# -- checks -------------------------------------------------------------- #

class _Corrupting(workloads.SsbWorkload):
    """Shifts every numeric cell of every result: ints by one, floats by 1%."""

    def build(self, seed):
        self.engine = self.make_engine(self.catalog)

    def run(self, op):
        result = super().run(op)
        table = result.require_table()
        columns = {}
        for name in table.column_names:
            column = table.column(name)
            if column.dtype == DataType.INT64:
                column = Column(column.data + 1, column.dtype)
            elif column.dtype == DataType.FLOAT64:
                column = Column(column.data * 1.01, column.dtype)
            columns[name] = column
        result.table = Table(table.name, columns)
        return result


def test_a_corrupted_result_counts_as_an_error(small_ssb):
    honest = workloads.SsbWorkload()
    honest.catalog = small_ssb
    honest.engine = honest.make_engine(small_ssb)
    phase = runner.measure(honest, honest.stream(1, 0), seconds=0.3)
    assert phase.outcomes and not phase.failures

    corrupt = _Corrupting()
    corrupt.catalog = small_ssb
    corrupt.build(1)
    phase = runner.measure(corrupt, corrupt.stream(1, 0), seconds=0.3)
    nonempty = [o for o in phase.outcomes
                if corrupt._oracle[corrupt._key(o.op)]]
    assert nonempty
    assert all(o.error.startswith("mismatch") for o in nonempty)
    metrics = runner.end_to_end(phase, [1.0], corrupt)
    assert len(phase.failures) == len(nonempty)
    assert metrics["success_rate"] == pytest.approx(
        1 - len(nonempty) / len(phase.outcomes))


class _Allocating(workloads.Workload):
    """Each operation holds 32 MB; each check holds 96 MB."""

    def run(self, op):
        return np.ones(4 << 20)

    def reduce(self, op, raw):
        return workloads.Reduced(float(raw[0]), 0.0, None)

    def check(self, op, value):
        np.ones(12 << 20)
        return None


def test_peak_rss_covers_the_operations_not_the_checks():
    runner.reset_peak_rss()
    before = runner.peak_rss_mb()
    stream = iter([workloads.Op("alloc")] * 3)
    phase = runner.measure(_Allocating(), stream, seconds=60)
    assert len(phase.outcomes) == 3 and not phase.failures
    assert before + 24 < phase.peak_rss_mb < before + 64


def _em_table(a, b, payload_a, payload_b):
    return Table("result", {
        "table_a.id": Column(a, DataType.INT64),
        "table_a.beer_name": Column(payload_a.data[a], DataType.STRING,
                                    payload_a.dictionary),
        "table_b.id": Column(b, DataType.INT64),
        "table_b.beer_name": Column(payload_b.data[b], DataType.STRING,
                                    payload_b.dictionary),
    })


def test_em_check_is_exact():
    catalog = beer_catalog(seed=0)
    expected = workloads.em_expectation(catalog, "factory")
    a_values = catalog.get("table_a").column("factory").values()
    b_values = catalog.get("table_b").column("factory").values()
    pairs = [(i, j) for i, value in enumerate(a_values)
             for j in np.flatnonzero(b_values == value)]
    assert len(pairs) == expected.pairs
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    good = _em_table(a, b, expected.payload_a, expected.payload_b)
    assert workloads.check_em(good, expected) is None
    # One pair swapped for another row: same count, wrong multiset.
    b_bad = b.copy()
    b_bad[0] = (b_bad[0] + 1) % expected.codes_b.size
    bad = _em_table(a, b_bad, expected.payload_a, expected.payload_b)
    assert workloads.check_em(bad, expected) is not None
    # A duplicated pair in place of another.
    a_dup, b_dup = a.copy(), b.copy()
    a_dup[1], b_dup[1] = a_dup[0], b_dup[0]
    dup = _em_table(a_dup, b_dup, expected.payload_a, expected.payload_b)
    assert workloads.check_em(dup, expected) is not None


@pytest.mark.xfail(strict=True, reason="string equi-joins compare the two "
                   "tables' dictionary codes, not their values")
def test_em_blocking_matches_the_value_join():
    # Why the blocking queries are out of the apps mix.  When this
    # passes, the engine joins by value and they can go back in.
    catalog = beer_catalog(seed=0)
    engine = TCUDBEngine(catalog, options=workloads.engine_options())
    result = engine.execute(beer_blocking_query("beer_name"))
    expected = workloads.em_expectation(catalog, "beer_name")
    assert workloads.check_em(result.require_table(), expected) is None


def test_matmul_and_pagerank_checks_use_the_tcu_tolerance():
    expected = np.arange(16, dtype=float).reshape(4, 4) + 100.0
    i, j = np.divmod(np.arange(16), 4)
    table = Table.from_dict("r", {"i": i, "j": j,
                                  "v": expected[i, j] * (1 + 1e-3)})
    assert workloads.check_matmul(table, expected) is None
    table = Table.from_dict("r", {"i": i, "j": j,
                                  "v": expected[i, j] * (1 + 1e-2)})
    assert workloads.check_matmul(table, expected) is not None
    missing = Table.from_dict("r", {"i": i[:-1], "j": j[:-1],
                                    "v": expected[i, j][:-1]})
    assert workloads.check_matmul(missing, expected) is not None
    assert workloads.check_close(expected.ravel(), expected.ravel()) is None
    assert workloads.check_close(expected.ravel() * 1.01,
                                 expected.ravel()) is not None


# -- spans --------------------------------------------------------------- #

def _tree():
    # root [0,100] t1 ─┬─ a [10,40] t1 ── a1 [20,30] t1
    #                  └─ b [50,90] t2 ── b1 [60,70] t2   (another thread)
    return [
        Span(1, None, 7, "root", 1, 0, 100),
        Span(2, 1, 7, "a", 1, 10, 40),
        Span(3, 2, 7, "a1", 1, 20, 30),
        Span(4, 1, 7, "b", 2, 50, 90),
        Span(5, 4, 7, "b1", 2, 60, 70),
    ]


def test_self_times_on_a_synthetic_tree():
    selfs = self_times(_tree())
    assert selfs == {1: 70, 2: 20, 3: 10, 4: 30, 5: 10}
    assert self_time_violations(_tree()) == []
    totals = layer_totals(_tree())
    assert totals["root"] == {"calls": 1, "busy_ms": 100 / 1e6,
                              "self_ms": 70 / 1e6}


def test_self_time_check_catches_broken_trees():
    escaping = _tree() + [Span(6, 2, 8, "late", 1, 35, 45)]
    escaping[0] = Span(1, None, 8, "root", 1, 0, 100)
    assert 8 in self_time_violations(escaping)
    orphan = _tree() + [Span(6, 99, 7, "orphan", 1, 0, 5)]
    assert 7 in self_time_violations(orphan)
    overlapping = _tree() + [Span(6, 1, 7, "c", 1, 35, 45)]
    assert 7 in self_time_violations(overlapping)


def test_tracer_attributes_pool_threads_to_the_request():
    tracer = Tracer()
    with tracer.span("bench.op", new_request=True):
        task = tracer.bind(lambda: None, "dist.shard")
        thread = threading.Thread(target=task)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    spans = {span.name: span for span in tracer.spans}
    assert spans["dist.shard"].parent_id == spans["bench.op"].span_id
    assert spans["dist.shard"].request_id == spans["bench.op"].request_id
    assert spans["dist.shard"].thread_id != spans["bench.op"].thread_id
    assert self_time_violations(tracer.spans) == []


def test_probes_trace_every_layer_and_restore_the_program(small_ssb):
    from repro.sql import parser

    original_parse = parser.parse
    original_execute = tcu_ops.Gemm.execute
    engine = workloads.DistributedEngine(small_ssb, shards=2,
                                         options=workloads.engine_options())
    tracer = Tracer()
    with install(tracer):
        for name in ("Q2.1", "Q3.4"):
            with tracer.span("bench.op", new_request=True):
                engine.execute(workloads.SSB_QUERIES[name])
    assert parser.parse is original_parse
    assert tcu_ops.Gemm.execute is original_execute
    names = {span.name for span in tracer.spans}
    assert {"sql.parse", "sql.bind", "dist", "dist.shard", "engine",
            "op.gemm", "lower.query"} <= names
    assert self_time_violations(tracer.spans) == []


def test_op_kinds_match_the_program():
    kinds = {cls.kind for cls in vars(tcu_ops).values()
             if isinstance(cls, type) and issubclass(cls, tcu_ops.TensorOp)
             and cls is not tcu_ops.TensorOp}
    assert kinds == set(runner.OP_KINDS)


# -- configuration --------------------------------------------------------- #

def _configuration(catalog, serve_workload):
    ssb = workloads.SsbWorkload().make_engine(catalog)
    sharded = workloads.ShardedSsbWorkload().make_engine(catalog)
    serve = serve_workload()
    serve.build(1)
    try:
        session_engine = serve.session._engine()
        return {
            "ssb": (ssb.driver.backend.name, ssb.options.workers),
            "ssb_sharded": (sharded.n_shards,
                            [e.driver.backend.name for e in sharded.shard_engines],
                            sharded.node.options.workers),
            "serve": (serve.server.shards, serve.server.workers,
                      session_engine.driver.backend.name,
                      type(session_engine).__name__),
        }
    finally:
        serve.release()


def test_repro_environment_leaves_the_workloads_unchanged(
        small_ssb, small_serve, monkeypatch):
    for name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_SHARDS"):
        monkeypatch.delenv(name, raising=False)
    plain = _configuration(small_ssb, small_serve)
    monkeypatch.setenv("REPRO_BACKEND", "sim")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARDS", "3")
    assert _configuration(small_ssb, small_serve) == plain
    assert plain["ssb"] == ("fast", 1)
    assert plain["serve"][:3] == (1, 1, "fast")


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in runner.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        runner.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        runner.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
