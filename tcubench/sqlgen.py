"""The ``serve`` workload's request generator: prepared templates and
seeded ad-hoc SQL over the SSB schema.

Everything here is a pure function of the NumPy generator it is given,
plus the catalog's string dictionaries (themselves a function of the
data seed), so one seed always yields one request stream.

Ad-hoc shapes:

* ``star``    — the fact table joined to one to three dimensions;
* ``chain``   — a dimension-to-dimension link that breaks the star
  (``c_city = s_city``), which the hybrid pre-stage or the YDB fallback
  runs;
* ``nonequi`` — a ``<``/``>`` join between one region's customers and the
  suppliers;
* ``single``  — one table, filtered and usually aggregated.

A query that does not aggregate orders by every output column and takes
a ``LIMIT``, so its answer is a well-defined row multiset and its oracle
stays small.
"""

from __future__ import annotations

import itertools

import numpy as np

FACT_NUMERIC = {
    "lo_quantity": (1, 50),
    "lo_discount": (0, 10),
    "lo_extendedprice": (900, 100_000),
    "lo_revenue": (900, 100_000),
    "lo_supplycost": (500, 60_000),
}

#: dimension -> (fact foreign key, dimension key)
DIM_JOINS = {
    "ddate": ("lo_orderdate", "d_datekey"),
    "customer": ("lo_custkey", "c_custkey"),
    "supplier": ("lo_suppkey", "s_suppkey"),
    "part": ("lo_partkey", "p_partkey"),
}

DIM_NUMERIC = {
    "ddate": {"d_year": (1992, 1998), "d_month": (1, 12),
              "d_weeknuminyear": (1, 52)},
}

DIM_STRINGS = {
    "customer": ("c_region", "c_nation", "c_city"),
    "supplier": ("s_region", "s_nation", "s_city"),
    "part": ("p_mfgr", "p_category"),
}

DIM_GROUPS = {
    "ddate": ("d_year", "d_month"),
    "customer": ("c_region", "c_nation"),
    "supplier": ("s_region", "s_nation"),
    "part": ("p_mfgr", "p_category"),
}

#: Aggregate families.  A statement draws all its aggregates from one:
#: SUM, COUNT and AVG run on the tensor path, MIN and MAX fall back.
AGGREGATES = (("SUM", "COUNT", "AVG"), ("MIN", "MAX"))

#: One round of ad-hoc shapes.  The serve stream deals shapes from
#: shuffled rounds of this deck.
SHAPE_DECK = ("star",) * 9 + ("chain",) * 4 + ("nonequi",) * 2 + ("single",) * 5

#: Output forms: rows (ORDER BY + LIMIT), one total, or grouped by one or
#: two keys.
FORMS = ("rows", "total", "group1", "group2")
#: Forms of statements that join the fact table.  Their row forms encode
#: the join as a dense lineorder-by-dimension matrix, and their two-key
#: groupings (nation by nation) build grids on the hybrid path: spikes of
#: 45-80 MB that decided a run's peak memory.
FACT_JOIN_FORMS = ("total", "group1")

#: Prepared templates: (name, SQL with ``?`` markers, parameter kinds).
#: A kind names the domain a value is drawn from (see ``draw_params``).
TEMPLATES = (
    ("t_q11", """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = ?
          AND lo_discount BETWEEN ? AND ? AND lo_quantity < ?""",
     ("year", "discount_lo", "discount_hi", "quantity")),
    ("t_q21", """
        SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey AND p_category = ? AND s_region = ?
        GROUP BY d_year, p_brand1""",
     ("p_category", "s_region")),
    ("t_q31", """
        SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
        FROM customer, lineorder, supplier, ddate
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey AND c_region = ? AND s_region = ?
          AND d_year BETWEEN ? AND ?
        GROUP BY c_nation, s_nation, d_year""",
     ("c_region", "s_region", "year_lo", "year_hi")),
    ("t_q41", """
        SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
          AND c_region = ? AND s_region = ? AND p_mfgr = ?
        GROUP BY d_year, c_nation""",
     ("c_region", "s_region", "p_mfgr")),
    ("t_fact", """
        SELECT lo_discount, COUNT(*) AS n, SUM(lo_revenue) AS revenue
        FROM lineorder
        WHERE lo_quantity BETWEEN ? AND ?
        GROUP BY lo_discount""",
     ("quantity_lo", "quantity_hi")),
    ("t_dim", """
        SELECT c_nation, COUNT(*) AS n
        FROM customer
        WHERE c_region = ?
        GROUP BY c_nation""",
     ("c_region",)),
)


class SqlGenerator:
    """Draws templates' parameters and ad-hoc statements.

    ``pools`` maps each string column in :data:`DIM_STRINGS` (and the
    template parameter kinds that name one) to its sorted distinct
    values; :func:`string_pools` reads them from a catalog.
    """

    def __init__(self, rng: np.random.Generator, pools: dict[str, list[str]]):
        self.rng = rng
        self.pools = pools
        # Each shape cycles through its variants, whose costs differ
        # tenfold, so every run draws the costly ones at the same rate
        # instead of by chance (``c_custkey >= s_suppkey`` pairs nearly
        # every row, ``<`` few; a three-dimension star joins three times).
        families = range(len(AGGREGATES))
        self._variants = {
            "star": itertools.cycle(itertools.product(
                (1, 2, 3), FACT_JOIN_FORMS, families)),
            # City level: at nation level each fact row pairs with five
            # suppliers, and those statements (up to half a second and
            # 50 MB each) decided a run's spread.
            "chain": itertools.cycle(itertools.product(
                ("city",), FACT_JOIN_FORMS, families)),
            "nonequi": itertools.cycle(itertools.product(
                ("<", "<=", ">", ">="), FORMS, families)),
            "single": itertools.cycle(itertools.product(
                ("lineorder", "customer", "supplier", "part", "ddate"),
                FORMS, families)),
        }

    def _pick(self, options):
        return options[int(self.rng.integers(0, len(options)))]

    def _int(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    # -- prepared templates ------------------------------------------- #

    def draw_params(self, kinds: tuple[str, ...]) -> list:
        """Values for one execution of a template, in marker order."""
        values: list = []
        for kind in kinds:
            if kind == "year":
                values.append(self._int(1992, 1998))
            elif kind in ("year_lo", "discount_lo", "quantity_lo"):
                lo, hi = {"year_lo": (1992, 1996), "discount_lo": (0, 8),
                          "quantity_lo": (1, 41)}[kind]
                values.append(self._int(lo, hi))
            elif kind in ("year_hi", "discount_hi", "quantity_hi"):
                # A fixed-width window above the matching lower bound.
                width = {"year_hi": 2, "discount_hi": 2, "quantity_hi": 9}[kind]
                values.append(values[-1] + width)
            elif kind == "quantity":
                values.append(self._pick([25, 35, 50]))
            else:
                values.append(self._pick(self.pools[kind]))
        return values

    # -- ad-hoc statements -------------------------------------------- #

    def adhoc(self, shape: str) -> str:
        """One ad-hoc statement of the given shape (see :data:`SHAPE_DECK`)."""
        variant, form, family = next(self._variants[shape])
        aggregates = AGGREGATES[family]
        if shape == "star":
            dims = sorted(self.rng.choice(sorted(DIM_JOINS), size=variant,
                                          replace=False).tolist())
            joins = [f"{DIM_JOINS[d][0]} = {DIM_JOINS[d][1]}" for d in dims]
            return self._assemble(["lineorder"] + dims, joins, dims,
                                  "lineorder", form, aggregates)
        if shape == "chain":
            return self._assemble(
                ["lineorder", "customer", "supplier"],
                ["lo_custkey = c_custkey", f"c_{variant} = s_{variant}"],
                ["customer", "supplier"], "lineorder", form, aggregates)
        if shape == "nonequi":
            # One region's customers against every supplier: about a fifth
            # of the full cross product, whose largest statements took a
            # second and 100 MB each and dominated the run's variance.
            region = self._pick(self.pools["c_region"])
            return self._assemble(["customer", "supplier"],
                                  [f"c_custkey {variant} s_suppkey",
                                   f"c_region = '{region}'"],
                                  ["customer", "supplier"], "customer", form,
                                  aggregates)
        if variant == "lineorder" and form.startswith("group"):
            form = "total"  # the fact table has no group-by columns here
        groups = [] if variant == "lineorder" else [variant]
        return self._assemble([variant], [], groups, variant, form,
                              aggregates)

    def _filter(self, table: str) -> str:
        if table == "lineorder" or table in DIM_NUMERIC:
            columns = FACT_NUMERIC if table == "lineorder" else DIM_NUMERIC[table]
            column = self._pick(sorted(columns))
            lo, hi = columns[column]
            roll = self.rng.random()
            if roll < 0.4:
                a, b = sorted((self._int(lo, hi), self._int(lo, hi)))
                return f"{column} BETWEEN {a} AND {b}"
            if roll < 0.6:
                values = sorted({self._int(lo, hi) for _ in range(3)})
                return f"{column} IN ({', '.join(map(str, values))})"
            op = self._pick(["<", "<=", ">", ">=", "="])
            return f"{column} {op} {self._int(lo, hi)}"
        column = self._pick(DIM_STRINGS[table])
        if self.rng.random() < 0.4:
            values = sorted({self._pick(self.pools[column]) for _ in range(3)})
            quoted = ", ".join(f"'{v}'" for v in values)
            negated = "NOT " if self.rng.random() < 0.25 else ""
            return f"{column} {negated}IN ({quoted})"
        return f"{column} = '{self._pick(self.pools[column])}'"

    def _numeric_argument(self, table: str) -> str:
        if table == "lineorder":
            first = self._pick(sorted(FACT_NUMERIC))
            roll = self.rng.random()
            if roll < 0.25:
                return f"{first} * {self._pick(sorted(FACT_NUMERIC))}"
            if roll < 0.4:
                return f"{first} - {self._pick(sorted(FACT_NUMERIC))}"
            return first
        if table in DIM_NUMERIC:
            return self._pick(sorted(DIM_NUMERIC[table]))
        return DIM_JOINS[table][1]

    def _assemble(self, tables: list[str], joins: list[str],
                  group_tables: list[str], measure_table: str,
                  form: str, aggregates: tuple[str, ...]) -> str:
        """The statement over ``tables`` in ``form`` (see :data:`FORMS`),
        aggregating with functions from ``aggregates``."""
        filterable = [t for t in tables
                      if t == "lineorder" or t in DIM_NUMERIC
                      or t in DIM_STRINGS]
        filters = [self._filter(self._pick(filterable))
                   for _ in range(self._int(0, 2))]
        where = joins + filters
        if form != "rows":
            groups: list[str] = []
            if form == "group1":
                groups = [self._pick(DIM_GROUPS[self._pick(group_tables)])]
            elif form == "group2":
                keys = {self._pick(DIM_GROUPS[t]) for t in group_tables}
                if len(keys) < 2:
                    keys.add(self._pick([g for g in DIM_GROUPS[group_tables[0]]
                                         if g not in keys]))
                groups = sorted(self.rng.choice(sorted(keys), size=2,
                                                replace=False).tolist())
            items = [f"{g} AS g{i}" for i, g in enumerate(groups)]
            for i in range(self._int(1, 2)):
                func = self._pick(aggregates)
                if func == "COUNT" and self.rng.random() < 0.5:
                    items.append(f"COUNT(*) AS a{i}")
                else:
                    items.append(f"{func}({self._numeric_argument(measure_table)})"
                                 f" AS a{i}")
            sql = f"SELECT {', '.join(items)} FROM {', '.join(tables)}"
            if where:
                sql += " WHERE " + " AND ".join(where)
            if groups:
                sql += " GROUP BY " + ", ".join(groups)
                if self.rng.random() < 0.25:
                    sql += f" HAVING COUNT(*) > {self._int(1, 30)}"
            return sql
        if measure_table == "lineorder":
            items = ["lo_orderkey AS k",
                     f"{self._numeric_argument('lineorder')} AS v"]
        else:
            key = DIM_JOINS[measure_table][1]
            items = [f"{key} AS k", f"{self._pick(DIM_GROUPS[measure_table])} AS v"]
        sql = f"SELECT {', '.join(items)} FROM {', '.join(tables)}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        return sql + f" ORDER BY k, v LIMIT {self._int(5, 50)}"


def string_pools(catalog) -> dict[str, list[str]]:
    """Sorted distinct values of every generator string column (template
    parameter kinds such as ``s_region`` draw from these too)."""
    pools: dict[str, list[str]] = {}
    for table, columns in DIM_STRINGS.items():
        for column in columns:
            col = catalog.get(table).column(column)
            pools[column] = sorted(set(col.values().tolist()))
    return pools
