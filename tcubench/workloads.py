"""The benchmark's four workloads, their request streams and oracles.

The data is the same for every run (``DATA_SEED``); the run seed drives
the request streams: the statement order, the template parameters and
the ad-hoc SQL.  Every engine is configured explicitly —
``TCUDBOptions(backend="fast", workers=1)`` and an explicit shard count
— so the ``REPRO_BACKEND``, ``REPRO_WORKERS`` and ``REPRO_SHARDS``
environment variables cannot change what a workload runs.

A workload answers five questions for the runner (``run.py``):

* ``build(seed)``  — set-up: data, engines or server, and one warm-up
  execution of each distinct statement (timed as ``setup_s``);
* ``stream(seed, ops)`` — the operation iterator, with every
  operation's oracle computed before timing;
* ``run(op)`` — the timed call through the public API;
* ``reduce(op, raw)`` — what the check needs, the simulated seconds and
  the execution path, taken outside the timed interval;
* ``check(op, value)`` — ``None`` when the output matches the oracle,
  else a description of the difference.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.bench.verify import (
    ABS_TOL,
    TCU_REL,
    canonical_sorted,
    result_rows,
    rows_match,
)
from repro.common.errors import ReproError
from repro.datasets.graphs import graph_catalog, synthetic_road_network
from repro.datasets.matmul import MATMUL_QUERY, matmul_catalog
from repro.datasets.ssb import ssb_catalog
from repro.engine import DistributedEngine, ReferenceEngine, TCUDBEngine
from repro.engine.tcudb import TCUDBOptions
from repro.serve.server import QueryServer
from repro.storage.table import Table
from repro.workloads.matmul_query import reference_matrix_product
from repro.workloads.pagerank import (
    DEFAULT_ALPHA,
    PR_Q1,
    PR_Q2,
    PR_Q3_PER_NODE,
    reference_pagerank,
)
from repro.workloads.ssb_queries import SSB_QUERIES

from tcubench.sqlgen import SHAPE_DECK, TEMPLATES, SqlGenerator, string_pools

BACKEND = "fast"
SSB_ROWS_PER_SF = 200_000
SERVE_ROWS_PER_SF = 20_000
SSB_SHARDS = 2
MATMUL_DIM = 256
PAGERANK_NODES = 10_000
#: PageRank steps before the ranks reset to their initial values.
PAGERANK_CYCLE = 10
#: Every workload's data comes from this fixed seed; the run seed drives
#: the request streams.  Data-dependent choices would otherwise turn a
#: seed change into a performance change: SSB Q3.4 falls back to YDB on
#: some data seeds and not on others.
DATA_SEED = 0
#: One round of the apps mix, shuffled per round: this many matmul
#: queries and one whole PageRank cycle (28 operations).  The
#: entity-matching blocking queries stay out of the mix: every engine
#: joins string keys by dictionary code, so their outputs are wrong at
#: this baseline (``em_expectation`` below and the README say how).
APPS_MATMUL_PER_ROUND = 18
#: One round of the serve stream: prepared and ad-hoc requests.
SERVE_PREPARED_PER_ROUND = 7
SERVE_ADHOC_PER_ROUND = 3
#: Stream salts, so workloads draw from independent streams.
SALT_ORDER, SALT_APPS, SALT_SERVE, SALT_WARMUP = 1, 2, 3, 4


def engine_options() -> TCUDBOptions:
    """The one engine configuration every workload uses."""
    return TCUDBOptions(backend=BACKEND, workers=1)


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    # SeedSequence takes non-negative entropy; fold negative seeds in.
    return np.random.default_rng([seed % 2**63, *salt])


def shuffled_rounds(deck: list, rng: np.random.Generator):
    """The deck over and over, shuffled afresh each round."""
    while True:
        for index in rng.permutation(len(deck)):
            yield deck[index]


@dataclass(frozen=True)
class Op:
    """One benchmark operation."""

    label: str  # statement name, e.g. "Q2.1", "t_q21", "adhoc:star"
    sql: str = ""
    params: tuple | None = None  # set for prepared executions
    step: int = 0  # PageRank step within its cycle


@dataclass
class Reduced:
    value: object  # what ``check`` compares
    sim_s: float  # simulated device seconds (QueryResult.seconds)
    executed_by: str | None


class Workload:
    name = ""
    #: Operations (first in stream order) whose mean simulated time is
    #: ``sim_ms_per_query``: a fixed prefix, so the figure repeats exactly
    #: for a seed whatever the host speed.
    sim_prefix = 100
    #: Run the whole process on one CPU (see ``ServeWorkload``).
    one_cpu = False

    def __init__(self):
        self._oracle: dict = {}
        self.redraws = 0
        # ReferenceEngine time spent computing SQL oracles.
        self.reference_s = 0.0
        self.reference_calls = 0

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop everything ``build`` made."""

    def stream(self, seed: int, ops: int):
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def reduce(self, op: Op, raw) -> Reduced:
        return Reduced(raw.require_table(), raw.seconds,
                       raw.extra.get("executed_by"))

    def check(self, op: Op, value) -> str | None:
        # ``value`` is the result table: result_rows without the result.
        return rows_match(canonical_sorted(value.rows()),
                          self._oracle[self._key(op)], rel=TCU_REL)

    def counters(self) -> dict:
        """Server and program-cache counters (serving workloads)."""
        return {}

    # -- SQL oracle ----------------------------------------------------- #

    @staticmethod
    def _key(op: Op):
        return (op.sql, op.params)

    def _expect_sql(self, reference: ReferenceEngine, op: Op) -> None:
        """Compute (once) the reference rows for ``op``; raises when the
        oracle cannot answer it."""
        key = self._key(op)
        if key not in self._oracle:
            params = list(op.params) if op.params is not None else None
            start = time.perf_counter()
            try:
                result = reference.execute(op.sql, params=params)
            finally:
                self.reference_s += time.perf_counter() - start
                self.reference_calls += 1
            self._oracle[key] = result_rows(result)


# --------------------------------------------------------------------- #
# ssb and ssb_sharded
# --------------------------------------------------------------------- #

class SsbWorkload(Workload):
    name = "ssb"

    def build(self, seed: int) -> None:
        self.catalog = ssb_catalog(rows_per_sf=SSB_ROWS_PER_SF,
                                   seed=DATA_SEED)
        self.engine = self.make_engine(self.catalog)
        for sql in SSB_QUERIES.values():
            self.engine.execute(sql)

    def make_engine(self, catalog):
        return TCUDBEngine(catalog, options=engine_options())

    def release(self) -> None:
        self.catalog = self.engine = None

    def stream(self, seed: int, ops: int):
        reference = ReferenceEngine(self.catalog)
        for label, sql in SSB_QUERIES.items():
            self._expect_sql(reference, Op(label, sql))
        deck = [Op(name, SSB_QUERIES[name]) for name in sorted(SSB_QUERIES)]
        return shuffled_rounds(deck, rng_for(seed, SALT_ORDER))

    def run(self, op: Op):
        return self.engine.execute(op.sql)


class ShardedSsbWorkload(SsbWorkload):
    name = "ssb_sharded"

    def make_engine(self, catalog):
        return DistributedEngine(catalog, shards=SSB_SHARDS,
                                 options=engine_options())


# --------------------------------------------------------------------- #
# apps: matmul and PageRank steps
# --------------------------------------------------------------------- #

@dataclass
class PageRankStep:
    result: object  # the PR Q3 QueryResult
    scores: np.ndarray


class AppsWorkload(Workload):
    name = "apps"

    def build(self, seed: int) -> None:
        self.matmul = matmul_catalog(MATMUL_DIM, seed=DATA_SEED)
        self.graph = synthetic_road_network(PAGERANK_NODES,
                                            seed=DATA_SEED)
        self.pr_catalog = graph_catalog(self.graph)
        self.engines = {
            "matmul": TCUDBEngine(self.matmul, options=engine_options()),
            "pagerank": TCUDBEngine(self.pr_catalog, options=engine_options()),
        }
        self._init_pagerank()
        for op in self.statements():
            self.run(op)

    def release(self) -> None:
        self.matmul = self.graph = self.pr_catalog = None
        self.engines = self.initial_ranks = None

    def _init_pagerank(self) -> None:
        """PR Q1 (out-degrees) and PR Q2 (initial ranks), as sql_pagerank
        runs them; their outputs become the OUTDEGREE table and the rank
        table every cycle restarts from."""
        engine = self.engines["pagerank"]
        n = self.graph.n_nodes
        degrees = engine.execute(PR_Q1).require_table().to_dict()
        ids, counts = degrees.values()
        self.pr_catalog.register(Table.from_dict("outdegree", {
            "id": ids.astype(np.int64), "degree": counts.astype(float),
        }), replace=True)
        init = engine.execute(PR_Q2, params={"alpha": DEFAULT_ALPHA,
                                             "num_node": n})
        ids, ranks = init.require_table().to_dict().values()
        self.initial_ranks = Table.from_dict("pagerank", {
            "id": ids.astype(np.int64), "rank": ranks.astype(float),
        })

    def statements(self) -> list[Op]:
        """Every distinct operation of the mix, one each."""
        return [Op("matmul", MATMUL_QUERY),
                Op("pagerank", PR_Q3_PER_NODE, step=1)]

    def stream(self, seed: int, ops: int):
        self._oracle["matmul"] = reference_matrix_product(self.matmul,
                                                          MATMUL_DIM)
        self._oracle["pagerank"] = [
            reference_pagerank(self.graph, iterations=k, tolerance=0.0)
            for k in range(1, PAGERANK_CYCLE + 1)
        ]
        return self.order(seed)

    def order(self, seed: int):
        """The mix: shuffled rounds, PageRank steps numbered in order."""
        matmul, pagerank = self.statements()
        deck = [matmul] * APPS_MATMUL_PER_ROUND + [pagerank] * PAGERANK_CYCLE
        # Each round holds one whole PageRank cycle, so a running step
        # count numbers every round's steps 1..PAGERANK_CYCLE in order.
        steps = itertools.count()
        for op in shuffled_rounds(deck, rng_for(seed, SALT_APPS)):
            if op.label == "pagerank":
                op = replace(op, step=next(steps) % PAGERANK_CYCLE + 1)
            yield op

    def run(self, op: Op):
        if op.label == "pagerank":
            return self._pagerank_step(op.step)
        return self.engines["matmul"].execute(op.sql)

    def _pagerank_step(self, step: int) -> PageRankStep:
        """One PR Q3 update and its write-back, as sql_pagerank does it."""
        catalog = self.pr_catalog
        n = self.graph.n_nodes
        if step == 1:
            catalog.register(self.initial_ranks, replace=True)
        result = self.engines["pagerank"].execute(
            PR_Q3_PER_NODE, params={"alpha": DEFAULT_ALPHA, "num_node": n})
        dst, values = result.require_table().to_dict().values()
        scores = np.full(n, (1 - DEFAULT_ALPHA) / n)
        scores[dst.astype(np.int64)] += values
        catalog.register(Table.from_dict("pagerank", {
            "id": np.arange(n), "rank": scores,
        }), replace=True)
        return PageRankStep(result, scores)

    def reduce(self, op: Op, raw) -> Reduced:
        if isinstance(raw, PageRankStep):
            return Reduced(raw.scores, raw.result.seconds,
                           raw.result.extra.get("executed_by"))
        return super().reduce(op, raw)

    def check(self, op: Op, value) -> str | None:
        if op.label == "pagerank":
            return check_close(value, self._oracle["pagerank"][op.step - 1])
        return check_matmul(value, self._oracle["matmul"])


def check_close(got: np.ndarray, expected: np.ndarray) -> str | None:
    """Elementwise ``|got - expected| <= max(ABS_TOL, TCU_REL*|expected|)``."""
    if got.shape != expected.shape:
        return f"shape {got.shape} != {expected.shape}"
    bad = np.abs(got - expected) > np.maximum(ABS_TOL,
                                              TCU_REL * np.abs(expected))
    if bad.any():
        index = int(np.flatnonzero(bad.ravel())[0])
        return (f"{int(bad.sum())} cells differ, first at {index}: "
                f"{got.ravel()[index]!r} != {expected.ravel()[index]!r}")
    return None


def check_matmul(table: Table, expected: np.ndarray) -> str | None:
    """Figure 5's output triples ``(i, j, C[i][j])`` cover every cell of
    the product exactly once and match it within the TCU tolerance."""
    dim = expected.shape[0]
    i, j, values = (table.column(name).data for name in table.column_names)
    if table.num_rows != dim * dim:
        return f"row count {table.num_rows} != {dim * dim}"
    cells = np.sort(i.astype(np.int64) * dim + j.astype(np.int64))
    if not np.array_equal(cells, np.arange(dim * dim)):
        return "output cells do not cover the product exactly once"
    got = np.zeros((dim, dim))
    got[i.astype(np.int64), j.astype(np.int64)] = values
    return check_close(got, expected)


# The entity-matching blocking oracle.  The blocking queries are out of
# the apps mix: every engine, ReferenceEngine too, joins two tables'
# string columns by their separate dictionaries' codes, not by value, so
# each blocking query fails this check at this baseline.  The test suite
# runs one of them against it as a strict expected failure.

@dataclass(frozen=True)
class EmExpectation:
    """What a blocking join must return, derived with NumPy."""

    pairs: int  # expected number of (a, b) pairs
    codes_a: np.ndarray  # attribute value per TABLE_A row, shared coding
    codes_b: np.ndarray  # attribute value per TABLE_B row, shared coding
    payload_a: object  # TABLE_A payload column
    payload_b: object  # TABLE_B payload column


def em_expectation(catalog, attribute: str) -> EmExpectation:
    """The blocking join ``TABLE_A.attr = TABLE_B.attr`` on NumPy."""
    table_a, table_b = catalog.get("table_a"), catalog.get("table_b")
    values_a = table_a.column(attribute).values()
    values_b = table_b.column(attribute).values()
    _, codes = np.unique(np.concatenate([values_a, values_b]),
                         return_inverse=True)
    codes_a, codes_b = codes[:values_a.size], codes[values_a.size:]
    size = int(codes.max()) + 1
    pairs = int(np.dot(np.bincount(codes_a, minlength=size),
                       np.bincount(codes_b, minlength=size)))
    payload = "song" if "song" in table_a.column_names else "beer_name"
    return EmExpectation(pairs, codes_a, codes_b, table_a.column(payload),
                         table_b.column(payload))


def check_em(table: Table, expected: EmExpectation) -> str | None:
    """The result's pair multiset equals the NumPy join exactly.

    Every output pair must agree on the attribute, no pair may repeat,
    and the pair count must equal the join's; together these pin the
    multiset.  The payload columns must carry each id's own payload.
    """
    names = table.column_names
    a = table.column(names[0]).data.astype(np.int64)
    b = table.column(names[2]).data.astype(np.int64)
    n_a, n_b = expected.codes_a.size, expected.codes_b.size
    if a.size != expected.pairs:
        return f"pair count {a.size} != {expected.pairs}"
    if a.size == 0:
        return None
    if a.min() < 0 or a.max() >= n_a or b.min() < 0 or b.max() >= n_b:
        return "pair id out of range"
    keys = a * n_b + b
    if not np.all(np.diff(keys) > 0):
        keys = np.sort(keys)
        if not np.all(np.diff(keys) > 0):
            return "duplicate pairs"
    if not np.array_equal(expected.codes_a[a], expected.codes_b[b]):
        return "a pair disagrees on the blocking attribute"
    for column, ids, source in ((names[1], a, expected.payload_a),
                                (names[3], b, expected.payload_b)):
        got = table.column(column)
        if got.dictionary is source.dictionary:
            same = np.array_equal(got.data, source.data[ids])
        else:
            same = np.array_equal(got.values(), source.values()[ids])
        if not same:
            return f"{column} does not match the row's payload"
    return None


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #

class ServeWorkload(Workload):
    name = "serve"
    # Ad-hoc statements' simulated times vary widely; average many.
    sim_prefix = 1000
    # Each request is handed to a server thread and its result handed
    # back.  Across CPUs every handoff wakes an idle virtual CPU, which a
    # busy host schedules late: in a slow spell that added milliseconds
    # to every request, doubling latency while other workloads slowed a
    # quarter.  With one request in flight nothing runs in parallel.
    one_cpu = True

    def build(self, seed: int) -> None:
        self.catalog = ssb_catalog(rows_per_sf=SERVE_ROWS_PER_SF,
                                    seed=DATA_SEED)
        self.server = QueryServer(
            self.catalog, max_concurrent=2, workers=1, shards=1,
            engine_kwargs={"options": engine_options()})
        self.session = self.server.session()
        self.prepared = {name: self.session.prepare(sql)
                         for name, sql, _ in TEMPLATES}
        self.pools = string_pools(self.catalog)
        # The same warm-up statements in every run, whatever the seed.
        warmup = SqlGenerator(rng_for(DATA_SEED, SALT_WARMUP), self.pools)
        for name, sql, kinds in TEMPLATES:
            self.run(Op(name, sql, tuple(warmup.draw_params(kinds))))
        for shape in sorted(set(SHAPE_DECK)):
            self.run(Op(f"adhoc:{shape}", warmup.adhoc(shape)))

    def release(self) -> None:
        self.server.close()
        self.catalog = self.server = self.session = self.prepared = None

    def stream(self, seed: int, ops: int):
        """A finite stream; every ad-hoc draw the oracle cannot answer is
        redrawn (and counted) before timing starts.  Templates and shapes
        come in shuffled rounds, so seeds differ in order and parameters,
        not in the mix."""
        reference = ReferenceEngine(self.catalog)
        rng = rng_for(seed, SALT_SERVE)
        generator = SqlGenerator(rng, self.pools)
        templates = shuffled_rounds(list(TEMPLATES), rng)
        shapes = shuffled_rounds(list(SHAPE_DECK), rng)
        slots = ([True] * SERVE_PREPARED_PER_ROUND
                 + [False] * SERVE_ADHOC_PER_ROUND)
        out = []
        while len(out) < ops:
            for index in rng.permutation(len(slots)):
                if slots[index]:
                    name, sql, kinds = next(templates)
                    op = Op(name, sql, tuple(generator.draw_params(kinds)))
                    self._expect_sql(reference, op)
                else:
                    op = self._adhoc(generator, next(shapes), reference)
                out.append(op)
        return iter(out)

    def _adhoc(self, generator: SqlGenerator, shape: str, reference) -> Op:
        while True:
            op = Op(f"adhoc:{shape}", generator.adhoc(shape))
            try:
                self._expect_sql(reference, op)
            except ReproError:  # the oracle cannot answer this draw
                self.redraws += 1
                continue
            return op

    def run(self, op: Op):
        if op.params is not None:
            ticket = self.session.submit(self.prepared[op.label],
                                         params=list(op.params))
        else:
            ticket = self.session.submit(op.sql)
        return ticket.result(timeout=120)

    def counters(self) -> dict:
        out = dict(self.server.resilience_stats()["queries"])
        cache = self.server.cache_stats()
        out.update({f"cache_{k}": v for k, v in cache.items()
                    if k in ("hits", "misses", "evictions")})
        return out


WORKLOADS = {cls.name: cls for cls in
             (SsbWorkload, ShardedSsbWorkload, AppsWorkload, ServeWorkload)}

