"""Spans around the calls into each layer, installed from outside ``src/``.

:func:`install` wraps the public entry points of every layer the
benchmark reports on and restores the originals when the block exits.
The program itself carries no tracing code: a module-level function is
replaced in every ``repro`` module that holds a reference to it, and a
method is replaced on the class that defines it.

Span names are the layer names the per-layer metrics use (see
``README.md`` beside this file).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager

from tcubench.spans import Tracer

#: (module, function, span name) — module-level functions.
FUNCTIONS = (
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.sql.binder", "bind", "sql.bind"),
    ("repro.sql.prepared", "prepare_statement", "sql.prepare"),
    ("repro.engine.tcudb.lower", "lower_query", "lower.query"),
    ("repro.engine.tcudb.lower", "lower_hybrid", "lower.hybrid"),
    ("repro.engine.tcudb.fuse", "fuse_program", "lower.fuse"),
    ("repro.engine.tcudb.specialize", "specialize_program", "specialize"),
)

#: (module, class, method, span name) — methods, patched on the class.
METHODS = (
    ("repro.sql.prepared", "PreparedStatement", "bind_execution", "sql.bind"),
    ("repro.engine.tcudb.engine", "TCUDBEngine", "execute_bound", "engine"),
    ("repro.engine.tcudb.engine", "TCUDBEngine", "execute_prepared", "engine"),
    ("repro.engine.tcudb.program", "TensorProgram", "generated_code",
     "codegen"),
    ("repro.engine.relational", "RelationalExecutor", "execute_bound", "ydb"),
    ("repro.engine.tcudb.distributed", "DistributedEngine", "execute_bound",
     "dist"),
    ("repro.storage.catalog", "Catalog", "register", "storage.register"),
    ("repro.storage.catalog", "Catalog", "fingerprint", "storage.fingerprint"),
    ("repro.sql.eval", "Environment", "filtered", "eval.filtered"),
)

#: TensorBackend primitives, span ``backend.<name>``.
PRIMITIVES = ("matmul", "matmul_into", "gather", "bincount", "nonzero",
              "dense_from_coo", "apply_mask")


def _spanned(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(self, original, replacement) -> None:
        """Point every loaded ``repro`` module's reference at the
        replacement (``from x import f`` copies the name)."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _operator_classes():
    ops = importlib.import_module("repro.engine.tcudb.ops")
    for value in vars(ops).values():
        if (isinstance(value, type) and issubclass(value, ops.TensorOp)
                and "execute" in value.__dict__ and value is not ops.TensorOp):
            yield value


def _backend_classes():
    backend = importlib.import_module("repro.tensor.backend")
    for value in vars(backend).values():
        if isinstance(value, type) and issubclass(value, backend.TensorBackend):
            yield value


@contextmanager
def install(tracer: Tracer):
    """Trace every layer into ``tracer`` for the duration of the block."""
    patches = _Patches()
    try:
        for module, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            patches.replace_function(original,
                                     _spanned(tracer, original, name))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            patches.set(cls, attr, _spanned(tracer, cls.__dict__[attr], name))
        for cls in _operator_classes():
            patches.set(cls, "execute", _spanned(
                tracer, cls.__dict__["execute"], f"op.{cls.kind}"))
        for cls in _backend_classes():
            for attr in PRIMITIVES:
                if attr in cls.__dict__:
                    patches.set(cls, attr, _spanned(
                        tracer, cls.__dict__[attr], f"backend.{attr}"))
        _install_fanouts(tracer, patches)
        _install_server(tracer, patches)
        yield tracer
    finally:
        patches.undo()


def _install_fanouts(tracer: Tracer, patches: _Patches) -> None:
    """Each shard task of a distributed query runs as a ``dist.shard``
    span on its pool thread, under the query's request.  (Morsel
    ``parallel_map`` loops need nothing: every workload pins one worker,
    so they run on the calling thread.)"""
    original = importlib.import_module("repro.engine.parallel").speculative_map

    @functools.wraps(original)
    def speculative_map(fn, items, *args, **kwargs):
        return original(tracer.bind(fn, "dist.shard"), items, *args, **kwargs)

    patches.replace_function(original, speculative_map)


def _install_server(tracer: Tracer, patches: _Patches) -> None:
    """A ticket remembers the context it was submitted under; the server
    thread that executes it adopts that context, so ``server.run`` and
    everything below it belong to the submitting request."""
    server = importlib.import_module("repro.serve.server")
    ticket_init = server.QueryTicket.__dict__["__init__"]
    execute = server.QueryServer.__dict__["_execute"]

    def init(self, *args, **kwargs):
        ticket_init(self, *args, **kwargs)
        self.bench_context = tracer.context()

    def run(self, ticket, session):
        with tracer.span("server.run",
                         parent=getattr(ticket, "bench_context", None)):
            return execute(self, ticket, session)

    patches.set(server.QueryTicket, "__init__", init)
    patches.set(server.QueryServer, "_execute", run)
