"""The fold step's key probe and the referenced-column scan.

* **Probe equivalence** — a Hypothesis property: the direct-address
  probe (``rank_of[key - lo]``) and the binary-search fallback agree
  with an exact ``searchsorted`` over Python ints on ``matched`` for
  every row and on ``positions`` for every matched row, across negative
  keys, int64 extremes, mixed int32/int64/uint64 dtypes, sparse spans,
  duplicate and empty dimensions and fact keys outside ``[lo, hi]``.
* **Guard choice** — :func:`direct_probe_bounds` sends SSB's four
  dimensions down the direct path and sparse, float or out-of-dtype
  domains to the fallback.
* **End to end** — star queries over an adversarial catalog match the
  Reference oracle at the default chunk size, at ``chunk_rows=1`` and
  through a two-shard ``DistributedEngine``.
* **Scan pruning** — ``TableSource`` materializes exactly the columns
  the query references, whichever clause references them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential_utils import assert_results_match
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import DistributedEngine, TCUDBEngine, TCUDBOptions
from repro.engine.tcudb import ops
from repro.engine.tcudb.ops import (
    DIRECT_PROBE_MIN_SPAN,
    DIRECT_PROBE_SLOTS_PER_ROW,
    direct_probe_bounds,
    probe_fold_keys,
)
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.ssb_queries import SSB_QUERIES

# TCUDB's adaptive-precision path may pick fp16.
TCU_REL = 2e-3

I64 = np.iinfo(np.int64)
KEY_DTYPES = (np.int32, np.int64, np.uint64)


# --------------------------------------------------------------------- #
# Probe equivalence
# --------------------------------------------------------------------- #


def searchsorted_probe(unique_keys, fact_keys):
    """The reference probe: ``searchsorted`` over Python ints, so mixed
    signed/unsigned 64-bit keys compare exactly."""
    if unique_keys.size == 0:
        return (np.zeros(fact_keys.size, dtype=np.intp),
                np.zeros(fact_keys.size, dtype=bool))
    domain = unique_keys.astype(object)
    keys = fact_keys.astype(object)
    positions = np.minimum(np.searchsorted(domain, keys), domain.size - 1)
    matched = np.array([domain[p] == k for p, k in zip(positions, keys)],
                       dtype=bool)
    return positions, matched


def clamp(value, dtype):
    limits = np.iinfo(dtype)
    return min(max(value, int(limits.min)), int(limits.max))


@st.composite
def probe_inputs(draw):
    dim_dtype = draw(st.sampled_from(KEY_DTYPES))
    fact_dtype = draw(st.sampled_from(KEY_DTYPES))
    dim_limits, fact_limits = np.iinfo(dim_dtype), np.iinfo(fact_dtype)
    anchor = clamp(draw(
        st.sampled_from([0, -1, int(I64.min), int(I64.max), 2**31 - 1,
                         -(2**31), 2**62, 2**64 - 1])
        | st.integers(int(I64.min), 2**64 - 1)
    ), dim_dtype)
    # Small spreads give dense (direct-address) domains, 2**40 sparse ones.
    spread = draw(st.sampled_from([16, 5000, 2**40]))
    low = max(int(dim_limits.min), anchor - spread)
    high = min(int(dim_limits.max), anchor + spread)
    # Repeated draws give duplicate keys; an empty list, an empty dim.
    dim = draw(st.lists(st.integers(low, high), max_size=40))
    sources = [st.sampled_from([int(fact_limits.min), int(fact_limits.max),
                                clamp(-1, fact_dtype), 0])]
    near_low = max(int(fact_limits.min), low - spread)
    near_high = min(int(fact_limits.max), high + spread)
    if near_low <= near_high:
        sources.append(st.integers(near_low, near_high))
    hits = [key for key in dim
            if fact_limits.min <= key <= fact_limits.max]
    if hits:
        sources.append(st.sampled_from(hits))
    fact = draw(st.lists(st.one_of(*sources), max_size=60))
    chunk_rows = draw(st.sampled_from([None, 1, 7]))
    return (np.unique(np.array(dim, dtype=dim_dtype)),
            np.array(fact, dtype=fact_dtype), chunk_rows)


@given(probe_inputs())
@settings(max_examples=400, deadline=None)
def test_probe_matches_searchsorted(case):
    unique_keys, fact_keys, chunk_rows = case
    positions, matched = probe_fold_keys(unique_keys, fact_keys, chunk_rows)
    expected_positions, expected_matched = searchsorted_probe(unique_keys,
                                                              fact_keys)
    np.testing.assert_array_equal(matched, expected_matched)
    np.testing.assert_array_equal(positions[matched],
                                  expected_positions[matched])
    # Unmatched rows still hold a valid index (callers gather with it).
    assert positions.size == fact_keys.size
    assert ((positions >= 0) & (positions < max(unique_keys.size, 1))).all()


@pytest.mark.parametrize("dim, fact, direct", [
    # Negative keys, fact keys on both sides of [lo, hi].
    ([-9, -7, -3, -1], [-10, -9, -8, -3, 0, 5, int(I64.min)], True),
    # A dense span at the top of int64: offsets of far-away fact keys
    # must not wrap into the span.
    ([int(I64.max) - 2, int(I64.max)], [int(I64.min), -1, int(I64.max)],
     True),
    ([int(I64.min), int(I64.min) + 3], [int(I64.max), int(I64.min) + 3],
     True),
    # int64 min and max in one dimension: a 2**64 span, the fallback.
    ([int(I64.min), 0, int(I64.max)], [int(I64.min), 1, int(I64.max)],
     False),
    # Sparse span.
    ([0, 10**12, 2 * 10**12], [10**12, 5, 2 * 10**12 + 1], False),
])
def test_probe_edge_cases(dim, fact, direct):
    unique_keys = np.unique(np.array(dim, dtype=np.int64))
    fact_keys = np.array(fact, dtype=np.int64)
    assert (direct_probe_bounds(unique_keys, fact_keys) is not None) == direct
    positions, matched = probe_fold_keys(unique_keys, fact_keys, 2)
    expected_positions, expected_matched = searchsorted_probe(unique_keys,
                                                              fact_keys)
    np.testing.assert_array_equal(matched, expected_matched)
    np.testing.assert_array_equal(positions[matched],
                                  expected_positions[matched])


def test_probe_mixed_dtypes_beyond_float_precision():
    """int64 against uint64 keys above 2**53 meet exactly on both paths
    (a float64 comparison would collide neighbouring keys)."""
    base = 2**62
    dense = np.array([base, base + 1, base + 2], dtype=np.int64)
    sparse = np.array([base, base + 1, base + 2**40], dtype=np.int64)
    fact = np.array([base + 1, base + 2, 2**64 - 1, 3], dtype=np.uint64)
    for unique_keys, direct in ((dense, True), (sparse, False)):
        assert (direct_probe_bounds(unique_keys, fact) is not None) == direct
        positions, matched = probe_fold_keys(unique_keys, fact)
        assert matched.tolist() == [True, direct, False, False]
        assert positions[0] == 1


def test_empty_dimension_matches_nothing():
    fact = np.array([1, 2, 3], dtype=np.int64)
    positions, matched = probe_fold_keys(np.array([], dtype=np.int64), fact)
    assert not matched.any()
    assert positions.tolist() == [0, 0, 0]


# --------------------------------------------------------------------- #
# Guard choice
# --------------------------------------------------------------------- #


@pytest.fixture
def probe_choices(monkeypatch) -> list[bool]:
    """Per probed fold step, whether the guard chose the direct path."""
    chosen: list[bool] = []

    def recording(unique_keys, fact_keys):
        bounds = direct_probe_bounds(unique_keys, fact_keys)
        chosen.append(bounds is not None)
        return bounds

    monkeypatch.setattr(ops, "direct_probe_bounds", recording)
    return chosen


class TestGuard:
    def test_span_limit_is_linear_in_fact_rows(self):
        n_fact = DIRECT_PROBE_MIN_SPAN  # above the floor: the linear term
        fact = np.zeros(n_fact, dtype=np.int64)
        limit = DIRECT_PROBE_SLOTS_PER_ROW * n_fact
        at_limit = np.array([0, limit - 1], dtype=np.int64)
        beyond = np.array([0, limit], dtype=np.int64)
        assert direct_probe_bounds(at_limit, fact) == (0, limit - 1)
        assert direct_probe_bounds(beyond, fact) is None

    def test_small_fact_side_keeps_the_span_floor(self):
        fact = np.zeros(3, dtype=np.int64)
        floor = np.array([-5, DIRECT_PROBE_MIN_SPAN - 6], dtype=np.int64)
        assert direct_probe_bounds(floor, fact) is not None
        assert direct_probe_bounds(floor + np.array([0, 1]), fact) is None

    @pytest.mark.parametrize("unique_keys, fact_keys", [
        (np.array([1.0, 2.0]), np.array([1, 2])),
        (np.array([1, 2]), np.array([1.0, 2.0])),
        # Dimension range outside the fact keys' dtype.
        (np.array([-1, 0], dtype=np.int64), np.array([0], dtype=np.uint64)),
        (np.array([2**63, 2**63 + 1], dtype=np.uint64),
         np.array([0], dtype=np.int64)),
        (np.array([2**31, 2**31 + 1], dtype=np.int64),
         np.array([0], dtype=np.int32)),
        (np.array([], dtype=np.int64), np.array([0], dtype=np.int64)),
    ])
    def test_fallback_domains(self, unique_keys, fact_keys):
        assert direct_probe_bounds(unique_keys, fact_keys) is None

    def test_ssb_dimensions_take_the_direct_path(self, probe_choices):
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=3000, seed=7)
        engine = TCUDBEngine(catalog)
        folded: set[str] = set()
        for sql in SSB_QUERIES.values():
            # A cost fallback (Q3.2 at this scale) reports no program.
            program = engine.execute(sql).extra.get("program")
            for op in program.ops if program else []:
                steps = getattr(op, "steps", [op])
                folded.update(step.dim_binding for step in steps
                              if hasattr(step, "dim_binding"))
        assert folded == {"ddate", "customer", "supplier", "part"}
        assert probe_choices and all(probe_choices)

    def test_sparse_domain_falls_back_end_to_end(self, probe_choices):
        catalog = adversarial_catalog()
        sql = ("SELECT g_neg, SUM(val) AS s FROM f, dneg, dsparse "
               "WHERE f_neg = k_neg AND f_sparse = k_sparse GROUP BY g_neg")
        run = TCUDBEngine(catalog).execute(sql)
        assert run.extra["executed_by"] == "TCU"
        assert probe_choices == [False]
        assert_results_match(run, ReferenceEngine(catalog).execute(sql),
                             rel=TCU_REL)


# --------------------------------------------------------------------- #
# End to end over an adversarial catalog
# --------------------------------------------------------------------- #


def adversarial_catalog() -> Catalog:
    """A fact table over dimensions with negative, sparse, extreme,
    top-of-int64 and duplicate keys; every fact key column also holds
    keys no dimension row carries."""
    rng = np.random.default_rng(2026)
    n = 500
    neg = np.arange(-40, 0)
    sparse = (np.arange(30) - 7) * 10**12
    extreme = np.array([I64.min, I64.min + 1, -1, 0, 1, I64.max - 1,
                        I64.max])
    top = I64.max - np.arange(20)
    dup = np.repeat(np.arange(8), [1, 3, 1, 2, 4, 1, 2, 1])

    def fact_keys(keys, strays):
        return rng.choice(np.concatenate([keys, np.array(strays)]), n)

    catalog = Catalog()
    catalog.register(Table.from_dict("f", {
        "f_neg": fact_keys(neg, [-1000, 0, 7]),
        "f_sparse": fact_keys(sparse, [3, 10**12 + 1]),
        "f_ext": fact_keys(extreme, [2, I64.max - 2]),
        "f_top": fact_keys(top, [I64.min, 0, I64.max - 20]),
        "f_dup": fact_keys(np.arange(8), [-2, 9]),
        "val": rng.integers(0, 50, n).astype(float),
    }))
    catalog.register(Table.from_dict("dneg", {
        "k_neg": neg, "g_neg": neg % 3, "x_neg": -neg,
    }))
    catalog.register(Table.from_dict("dsparse", {
        "k_sparse": sparse, "g_sparse": np.arange(30) % 4,
    }))
    catalog.register(Table.from_dict("dext", {
        "k_ext": extreme, "g_ext": np.arange(extreme.size) % 2,
    }))
    catalog.register(Table.from_dict("dtop", {
        "k_top": top, "g_top": np.arange(20) % 5, "x_top": np.arange(20),
    }))
    catalog.register(Table.from_dict("ddup", {
        "k_dup": dup, "w_dup": np.arange(dup.size),
    }))
    return catalog


ADVERSARIAL_QUERIES = [
    # Four folded dimensions: negative, sparse, extreme and top-of-int64.
    "SELECT g_neg, SUM(val) AS s, COUNT(*) AS c "
    "FROM f, dneg, dsparse, dext, dtop "
    "WHERE f_neg = k_neg AND f_sparse = k_sparse AND f_ext = k_ext "
    "AND f_top = k_top AND x_top < 15 GROUP BY g_neg",
    "SELECT g_top, g_ext, SUM(val) AS s FROM f, dtop, dext, dneg "
    "WHERE f_top = k_top AND f_ext = k_ext AND f_neg = k_neg "
    "AND x_neg > 5 GROUP BY g_top, g_ext",
    # Duplicate-key dimension folded by multiplicity.
    "SELECT g_neg, SUM(val) AS s, COUNT(*) AS c FROM f, dneg, ddup, dtop "
    "WHERE f_neg = k_neg AND f_dup = k_dup AND f_top = k_top "
    "GROUP BY g_neg",
    # Duplicate-key dimension contributing a group column.
    "SELECT w_dup, SUM(val) AS s FROM f, ddup, dneg "
    "WHERE f_dup = k_dup AND f_neg = k_neg GROUP BY w_dup",
    # A filter that empties a folded dimension.
    "SELECT g_neg, SUM(val) AS s FROM f, dneg, dsparse, dtop "
    "WHERE f_neg = k_neg AND f_sparse = k_sparse AND f_top = k_top "
    "AND x_top > 1000 GROUP BY g_neg",
    "SELECT g_top, COUNT(*) AS c FROM f, dtop, dneg, dext "
    "WHERE f_top = k_top AND f_neg = k_neg AND f_ext = k_ext "
    "AND x_neg < 0 GROUP BY g_top",
]


@pytest.fixture(scope="module")
def adversarial():
    catalog = adversarial_catalog()
    oracle = ReferenceEngine(catalog)
    return catalog, {sql: oracle.execute(sql) for sql in ADVERSARIAL_QUERIES}


def fold_kinds(run) -> set[str]:
    program = run.extra.get("program")
    kinds = {op.kind for op in program.ops} if program else set()
    return kinds & {"fold", "fold_chain"}


@pytest.mark.parametrize("engine_kind", ["default", "chunk1", "sharded"])
def test_adversarial_star_queries_match_oracle(adversarial, engine_kind):
    catalog, expected = adversarial
    if engine_kind == "sharded":
        engine = DistributedEngine(catalog, shards=2, fact="f",
                                   partition_key="f_neg",
                                   mode=ExecutionMode.REAL)
    else:
        chunk_rows = 1 if engine_kind == "chunk1" else None
        engine = TCUDBEngine(catalog,
                             options=TCUDBOptions(chunk_rows=chunk_rows))
    native_folds = 0
    for sql in ADVERSARIAL_QUERIES:
        run = engine.execute(sql)
        assert_results_match(run, expected[sql], rel=TCU_REL,
                             context=f"{engine_kind}: {sql}")
        if run.extra.get("executed_by") == "TCU" and fold_kinds(run):
            native_folds += 1
    if engine_kind != "sharded":
        # Every query but the duplicate-key group-column one folds on
        # the TCU path.
        assert native_folds >= len(ADVERSARIAL_QUERIES) - 1


def test_unfused_folds_match_oracle(adversarial):
    catalog, expected = adversarial
    engine = TCUDBEngine(catalog, options=TCUDBOptions(fusion=False))
    for sql in ADVERSARIAL_QUERIES:
        assert_results_match(engine.execute(sql), expected[sql],
                             rel=TCU_REL, context=sql)


# --------------------------------------------------------------------- #
# Referenced-column scans
# --------------------------------------------------------------------- #

PRUNING_QUERIES = {
    "group_by_only": (
        "SELECT SUM(lo_revenue) AS r FROM lineorder, ddate "
        "WHERE lo_orderdate = d_datekey GROUP BY d_year",
        "TCU",
    ),
    # ORDER BY keys must name select-list columns; this one names the
    # aliased column by its qualified spelling.
    "order_by": (
        "SELECT lo_orderkey, lo_revenue AS r FROM lineorder, supplier "
        "WHERE lo_suppkey = s_suppkey AND s_region = 'ASIA' "
        "AND lo_quantity < 3 ORDER BY lineorder.lo_revenue",
        "TCU",
    ),
    "having_only": (
        "SELECT d_year, SUM(lo_revenue) AS r FROM lineorder, ddate "
        "WHERE lo_orderdate = d_datekey GROUP BY d_year "
        "HAVING SUM(lo_supplycost) > 0",
        "TCU",
    ),
    "residual_or": (
        "SELECT d_year, SUM(lo_extendedprice) AS v "
        "FROM lineorder, ddate, supplier "
        "WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey "
        "AND (lo_discount > 5 OR s_region = 'ASIA') GROUP BY d_year",
        "TCU",
    ),
    "computed_group": (
        "SELECT d_year % 10 AS decade, SUM(lo_revenue) AS r "
        "FROM lineorder, ddate WHERE lo_orderdate = d_datekey "
        "GROUP BY d_year % 10 ORDER BY decade",
        "TCU-hybrid",
    ),
    "hybrid_physical_stage": (
        "SELECT d_year FROM lineorder, ddate "
        "WHERE lo_orderdate = d_datekey GROUP BY d_year",
        "TCU-hybrid",
    ),
}


@pytest.fixture(scope="module")
def ssb_small():
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=3000, seed=5)
    engines = {
        "default": TCUDBEngine(catalog),
        # Morsel-parallel chunk filtering (TableSource's worker path).
        "parallel": TCUDBEngine(catalog, options=TCUDBOptions(chunk_rows=64,
                                                              workers=2)),
    }
    return catalog, ReferenceEngine(catalog), engines


@pytest.mark.parametrize("engine_name", ["default", "parallel"])
@pytest.mark.parametrize("name", sorted(PRUNING_QUERIES))
def test_scans_hold_exactly_the_referenced_columns(ssb_small, monkeypatch,
                                                   name, engine_name):
    catalog, oracle, engines = ssb_small
    sql, executed_by = PRUNING_QUERIES[name]
    scans: list[tuple[set[str], set[str]]] = []
    original = ops.TableSource.execute

    def recording(op, ctx):
        value = original(op, ctx)
        referenced = ctx.bound.referenced_columns(op.binding)
        scans.append((set(value.env.arrays),
                      {f"{op.binding}.{column}" for column in referenced}))
        return value

    monkeypatch.setattr(ops.TableSource, "execute", recording)
    run = engines[engine_name].execute(sql)
    assert run.extra["executed_by"] == executed_by
    assert_results_match(run, oracle.execute(sql), rel=TCU_REL, context=sql)
    for scanned, referenced in scans:
        assert scanned == referenced
    if executed_by == "TCU":
        lineorder = catalog.get("lineorder")
        fact_scans = [scanned for scanned, _ in scans
                      if next(iter(scanned)).startswith("lineorder.")]
        assert fact_scans
        assert all(len(s) < lineorder.num_columns for s in fact_scans)


def test_clause_only_columns_are_referenced(ssb_small):
    """Columns named only by GROUP BY, HAVING, a residual OR or a
    computed group expression still reach the scan."""
    catalog = ssb_small[0]

    def referenced(name, binding):
        sql = PRUNING_QUERIES[name][0]
        return bind(parse(sql), catalog).referenced_columns(binding)

    assert "d_year" in referenced("group_by_only", "ddate")
    assert "lo_supplycost" in referenced("having_only", "lineorder")
    assert "lo_discount" in referenced("residual_or", "lineorder")
    assert "s_region" in referenced("residual_or", "supplier")
    assert referenced("computed_group", "ddate") == {"d_year", "d_datekey"}
