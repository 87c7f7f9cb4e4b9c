"""Relational plan executor for the baseline engines.

Interprets the logical plan with vectorized numpy operators while charging
simulated time through a cost model (GPU for YDB, CPU for MonetDB).  The
NumPy kernels themselves live in :mod:`repro.engine.physical` (shared
with the Reference oracle) and are re-exported here for compatibility.
In ANALYTIC mode, join outputs larger than ``materialize_limit`` are not
materialized: the executor still computes the *exact* matching-pair count
(a cheap sort/searchsorted pass) and estimates downstream cardinalities
from statistics, so paper-scale configurations finish instantly while the
simulated charges stay faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.timing import TimingBreakdown
from repro.sql.binder import BoundColumn, BoundQuery
from repro.sql.eval import Environment, conjunction_mask, evaluate_expr
from repro.sql.logical import (
    Aggregate,
    Compute,
    Filter,
    Join,
    Limit,
    LogicalNode,
    Project,
    Scan,
    Sort,
)
from repro.sql.planner import plan
from repro.storage.statistics import (
    bound_stats_lookup,
    conjunction_selectivity,
)
from repro.storage.table import Table

from repro.engine.base import Engine, ExecutionMode, QueryResult
from repro.engine.physical import (  # noqa: F401  (re-exported kernels)
    build_group_context,
    build_result_table,
    combine_group_codes,
    equi_join_count,
    equi_join_indices,
    nonequi_join_count,
    nonequi_join_indices,
    resolve_output_index,
    sort_key_array,
)


@dataclass
class OpOutput:
    """One operator's output: environment (or None when skipped) + size."""

    env: Environment | None
    n_rows: int

    @property
    def materialized(self) -> bool:
        return self.env is not None


class RelationalExecutor(Engine):
    """Shared vectorized executor, specialized by a cost model."""

    def __init__(
        self,
        catalog,
        cost_model,
        mode: ExecutionMode = ExecutionMode.REAL,
        materialize_limit: int = 4_000_000,
    ):
        super().__init__(catalog, mode)
        self.cost_model = cost_model
        self.materialize_limit = materialize_limit
        self.name = cost_model.engine_name
        # Joins feeding an aggregate whose output exceeds this many pairs
        # aggregate during the probe instead of materializing tuples
        # (matmul-shaped queries; see Section 5.4.1).
        self.fused_accumulate_threshold = 50_000_000
        self._fuse_next_join = False
        self._last_join_fused = False

    # -- entry point -------------------------------------------------------- #

    def execute_bound(self, bound: BoundQuery) -> QueryResult:
        tree = plan(bound)
        breakdown = TimingBreakdown()
        output, arrays, names = self._run(tree, bound, breakdown)
        for stage, seconds in self.cost_model.result_out(
            output.n_rows, max(len(names), 1)
        ):
            breakdown.add(stage, seconds)
        table = None
        if arrays is not None:
            table = self._build_table(bound, arrays, names)
        from repro.sql.logical import explain

        return QueryResult(
            engine=self.name,
            n_rows=output.n_rows,
            breakdown=breakdown,
            table=table,
            plan_description=explain(tree),
        )

    # -- dispatch --------------------------------------------------------------- #

    def _run(self, node: LogicalNode, bound: BoundQuery,
             breakdown: TimingBreakdown):
        if isinstance(node, Scan):
            out = self._run_scan(node, bound, breakdown)
            return out, None, None
        if isinstance(node, Join):
            out = self._run_join(node, bound, breakdown)
            return out, None, None
        if isinstance(node, Filter):
            out = self._run_filter(node, bound, breakdown)
            return out, None, None
        if isinstance(node, Compute):
            out = self._run_compute(node, bound, breakdown)
            return out, None, None
        if isinstance(node, Aggregate):
            return self._run_aggregate(node, bound, breakdown)
        if isinstance(node, Project):
            return self._run_project(node, bound, breakdown)
        if isinstance(node, Sort):
            output, arrays, names = self._run(node.input, bound, breakdown)
            for stage, seconds in self.cost_model.sort(output.n_rows):
                breakdown.add(stage, seconds)
            if arrays is not None:
                arrays, names = self._apply_sort(node, bound, arrays, names)
            return output, arrays, names
        if isinstance(node, Limit):
            output, arrays, names = self._run(node.input, bound, breakdown)
            n = min(output.n_rows, node.count)
            if arrays is not None:
                arrays = [a[: node.count] for a in arrays]
            return OpOutput(env=output.env, n_rows=n), arrays, names
        raise ExecutionError(f"unknown plan node {node!r}")

    def _run_relation(self, node: LogicalNode, bound: BoundQuery,
                      breakdown: TimingBreakdown) -> OpOutput:
        output, arrays, _ = self._run(node, bound, breakdown)
        if arrays is not None:
            raise ExecutionError("unexpected projected input to a relation op")
        return output

    # -- scans ---------------------------------------------------------------------- #

    def _run_scan(self, node: Scan, bound: BoundQuery,
                  breakdown: TimingBreakdown) -> OpOutput:
        table = bound.binding(node.binding).table
        ncols = max(len(bound.referenced_columns(node.binding)), 1)
        for stage, seconds in self.cost_model.load_table(
            table.num_rows * ncols * 8.0
        ):
            breakdown.add(stage, seconds)
        env = Environment.from_table(bound, node.binding)
        if node.filters:
            for stage, seconds in self.cost_model.scan(
                table.num_rows, len(node.filters)
            ):
                breakdown.add(stage, seconds)
            mask = conjunction_mask(node.filters, env, bound)
            env = env.filtered(mask)
        return OpOutput(env=env, n_rows=env.n_rows)

    # -- residual filters -------------------------------------------------------- #

    def _run_filter(self, node: Filter, bound: BoundQuery,
                    breakdown: TimingBreakdown) -> OpOutput:
        source = self._run_relation(node.input, bound, breakdown)
        for stage, seconds in self.cost_model.scan(
            source.n_rows, len(node.predicates)
        ):
            breakdown.add(stage, seconds)
        if not source.materialized:
            # Unmaterialized input: per-conjunct selectivities derived
            # from column statistics (0.5 only beyond their reach).
            n = int(source.n_rows * conjunction_selectivity(
                node.predicates, bound_stats_lookup(bound)
            ))
            return OpOutput(env=None, n_rows=n)
        mask = conjunction_mask(node.predicates, source.env, bound)
        env = source.env.filtered(mask)
        return OpOutput(env=env, n_rows=env.n_rows)

    # -- computed columns (expression GROUP BY) ----------------------------------- #

    def _run_compute(self, node: Compute, bound: BoundQuery,
                     breakdown: TimingBreakdown) -> OpOutput:
        source = self._run_relation(node.input, bound, breakdown)
        for stage, seconds in self.cost_model.scan(
            source.n_rows, len(node.computed)
        ):
            breakdown.add(stage, seconds)
        if not source.materialized:
            return source
        from repro.engine.physical import compute_environment

        env = compute_environment(source.env, node.computed, bound)
        return OpOutput(env=env, n_rows=env.n_rows)

    # -- joins ------------------------------------------------------------------------ #

    def _run_join(self, node: Join, bound: BoundQuery,
                  breakdown: TimingBreakdown) -> OpOutput:
        fuse_candidate = self._fuse_next_join
        self._fuse_next_join = False
        left = self._run_relation(node.left, bound, breakdown)
        right = self._run_relation(node.right, bound, breakdown)
        predicate = node.predicate
        if not (left.materialized and right.materialized):
            pairs = self._estimate_pairs(bound, left, right, predicate)
            self._charge_join(breakdown, predicate.op, left.n_rows,
                              right.n_rows, pairs, fuse_candidate)
            return OpOutput(env=None, n_rows=pairs)
        left_keys = left.env.lookup(predicate.left.key)
        right_keys = right.env.lookup(predicate.right.key)
        if predicate.is_equi:
            pairs = equi_join_count(left_keys, right_keys)
        else:
            pairs = nonequi_join_count(left_keys, right_keys, predicate.op)
        self._charge_join(breakdown, predicate.op, left.n_rows, right.n_rows,
                          pairs, fuse_candidate)
        skip = (
            self.mode == ExecutionMode.ANALYTIC
            and pairs > self.materialize_limit
        )
        if skip:
            return OpOutput(env=None, n_rows=pairs)
        if predicate.is_equi:
            left_idx, right_idx = equi_join_indices(left_keys, right_keys)
        else:
            left_idx, right_idx = nonequi_join_indices(
                left_keys, right_keys, predicate.op
            )
        merged = dict(left.env.taken(left_idx).arrays)
        merged.update(right.env.taken(right_idx).arrays)
        return OpOutput(env=Environment(merged, pairs), n_rows=pairs)

    def _charge_join(self, breakdown: TimingBreakdown, op: str,
                     n_left: int, n_right: int, pairs: int,
                     fuse_candidate: bool = False) -> None:
        self._last_join_fused = False
        if (fuse_candidate and op == "="
                and pairs > self.fused_accumulate_threshold):
            charges = self.cost_model.accumulate_join(n_left + n_right, pairs)
            self._last_join_fused = True
        elif op == "=":
            charges = self.cost_model.hash_join(n_left, n_right, pairs)
        else:
            charges = self.cost_model.nonequi_join(n_left, n_right, pairs)
        for stage, seconds in charges:
            breakdown.add(stage, seconds)

    def _estimate_pairs(self, bound: BoundQuery, left: OpOutput,
                        right: OpOutput, predicate) -> int:
        left_stats = bound.column_stats(predicate.left)
        right_stats = bound.column_stats(predicate.right)
        if predicate.is_equi:
            d = max(left_stats.n_distinct, right_stats.n_distinct, 1)
            return int(left.n_rows * right.n_rows / d)
        return int(left.n_rows * right.n_rows / 2)

    # -- aggregation --------------------------------------------------------------------- #

    def _run_aggregate(self, node: Aggregate, bound: BoundQuery,
                       breakdown: TimingBreakdown):
        from repro.sql.logical import Join as JoinNode

        self._fuse_next_join = isinstance(node.input, JoinNode)
        source = self._run_relation(node.input, bound, breakdown)
        self._fuse_next_join = False
        fused = self._last_join_fused
        self._last_join_fused = False
        grouped = bool(node.group_by)
        names = [item.output_name for item in node.items]
        if not source.materialized:
            n_groups = self._estimate_groups(bound, node.group_by, source.n_rows)
            agg_input = n_groups if fused else source.n_rows
            for stage, seconds in self.cost_model.groupby(
                agg_input, n_groups, grouped
            ):
                breakdown.add(stage, seconds)
            if node.having:
                # Aggregate comparisons price at the 0.5 default; plain
                # column conjuncts use their statistics.
                n_groups = int(n_groups * conjunction_selectivity(
                    node.having, bound_stats_lookup(bound)
                ))
            return OpOutput(env=None, n_rows=n_groups), None, names
        env = source.env
        context = build_group_context(bound, env, node.group_by)
        n_groups = context.n_groups
        for stage, seconds in self.cost_model.groupby(
            source.n_rows, n_groups, grouped
        ):
            breakdown.add(stage, seconds)
        if n_groups == 0:
            arrays = [np.array([]) for _ in node.items]
            return OpOutput(env=None, n_rows=0), arrays, names
        arrays = [context.eval_expr(item.expr) for item in node.items]
        if node.having:
            mask = context.having_mask(node.having)
            arrays = [np.asarray(a)[mask] for a in arrays]
            n_groups = int(np.count_nonzero(mask))
        return OpOutput(env=None, n_rows=n_groups), arrays, names

    def _estimate_groups(self, bound: BoundQuery,
                         group_by: list[BoundColumn], n_input: int) -> int:
        from repro.sql.ast_nodes import ColumnRef

        if not group_by:
            # Ungrouped aggregates always emit one row, even over zero
            # input rows (COUNT=0 / SUM=0.0 in this NULL-free model).
            return 1
        estimate = 1
        group_exprs = getattr(bound, "group_exprs", {})
        for column in group_by:
            if column.key in group_exprs:
                # Computed key: distinct(f(x, y, ...)) is bounded by the
                # product of the base columns' distinct counts.
                factor = 1
                for node in group_exprs[column.key].walk():
                    if isinstance(node, ColumnRef):
                        stats = bound.column_stats(bound.resolve(node))
                        factor *= max(stats.n_distinct, 1)
                estimate *= min(factor, max(n_input, 1))
                continue
            estimate *= max(bound.column_stats(column).n_distinct, 1)
        return min(estimate, n_input)

    # -- projection / sorting ------------------------------------------------------------- #

    def _run_project(self, node: Project, bound: BoundQuery,
                     breakdown: TimingBreakdown):
        source = self._run_relation(node.input, bound, breakdown)
        for stage, seconds in self.cost_model.project(
            source.n_rows, len(node.items)
        ):
            breakdown.add(stage, seconds)
        names = [item.output_name for item in node.items]
        if not source.materialized:
            return OpOutput(env=None, n_rows=source.n_rows), None, names
        arrays = [
            evaluate_expr(item.expr, source.env, bound) for item in node.items
        ]
        return OpOutput(env=source.env, n_rows=source.n_rows), arrays, names

    def _apply_sort(self, node: Sort, bound: BoundQuery,
                    arrays: list[np.ndarray], names: list[str]):
        items = list(bound.select_items)
        order = np.arange(arrays[0].size if arrays else 0)
        for item in reversed(node.keys):
            index = resolve_output_index(bound, item.expr, names, items)
            if index is None:
                raise ExecutionError(
                    f"ORDER BY key {item.expr} not in select list"
                )
            select_item = items[index] if index < len(items) else None
            keys = sort_key_array(bound, select_item, arrays[index])[order]
            positions = np.argsort(keys, kind="stable")
            if item.descending:
                positions = positions[::-1]
            order = order[positions]
        return [np.asarray(a)[order] for a in arrays], names

    # -- result assembly --------------------------------------------------------------------- #

    def _build_table(self, bound: BoundQuery, arrays: list[np.ndarray],
                     names: list[str]) -> Table:
        return build_result_table(bound, arrays, names)
