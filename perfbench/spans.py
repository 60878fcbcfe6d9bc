"""Outside-in span recorder: wraps public callables, keeps spans in
memory and writes them out at exit.  The recorder is stdlib only;
:func:`install_repro_probes` names the repro callables it wraps.

A span is ``(id, parent, name, layer, t0, t1, arg)`` with ``t0``/``t1``
from :func:`time.monotonic` (``CLOCK_MONOTONIC``, so spans from the
server process line up with the load generator's timed window).  The
parent is the innermost open span of the same thread, so a layer's
self time is its spans' durations minus the time their direct
children cover (:func:`self_times`).

Coroutines (the scheduler's ``submit_*``) are recorded apart, as
*waits*: their wall time spans awaits during which other tasks run on
the same thread, so they cannot nest.  Event-loop callbacks are spans
too (``loop.step``); that is where the server's own work shows, and
the layer of a step is taken from its context, which
:meth:`RequestScheduler.start` marks for the scheduler's task.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict

#: layer of the asyncio task a loop step belongs to
LOOP_LAYER = contextvars.ContextVar("perfbench_loop_layer",
                                    default="server")


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.waits: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sync_wrapper(self, fn, name, layer, arg, layer_of=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name,
                              layer_of(args) if layer_of else layer,
                              t0, t1, arg(args, kwargs) if arg else 0))
        return wrapper

    def _async_wrapper(self, fn, name, layer):
        waits, clock = self.waits, time.monotonic

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                waits.append((name, layer, t0, clock()))
        return wrapper

    def wrap(self, owner, attr: str, layer: str, *, name=None,
             arg=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  ``arg``
        maps the call's ``(args, kwargs)`` to a number kept with the
        span (a batch size, a byte count)."""
        fn = getattr(owner, attr)
        name = name or f"{layer}.{attr}"
        if inspect.iscoroutinefunction(fn):
            wrapper = self._async_wrapper(fn, name, layer)
        else:
            wrapper = self._sync_wrapper(fn, name, layer, arg)
        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def wrap_event_loop(self) -> None:
        """Record every event-loop callback as a ``loop.step`` span."""
        handle = asyncio.events.Handle
        self.patch(handle, "_run", self._sync_wrapper(
            handle._run, "loop.step", None, None,
            layer_of=lambda args: args[0]._context.get(LOOP_LAYER,
                                                       "server")))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans and waits atomically as JSON."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as out:
            json.dump({"spans": list(self.spans),
                       "waits": list(self.waits)}, out)
        os.replace(tmp, path)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus its direct children's."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            covered[span[1]] += span[5] - span[4]
    return {span[0]: span[5] - span[4] - covered[span[0]]
            for span in spans}


def totals(spans, lo: float, hi: float) -> dict[str, dict]:
    """Per-name totals over spans that end inside ``[lo, hi]``:
    ``{"n", "self_s", "wall_s", "arg"}``."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"n": 0, "self_s": 0.0, "wall_s": 0.0, "arg": 0.0})
    for span in spans:
        if lo <= span[5] <= hi:
            entry = out[span[2] if span[2] != "loop.step"
                        else f"{span[3]}.loop"]
            entry["n"] += 1
            entry["self_s"] += own[span[0]]
            entry["wall_s"] += span[5] - span[4]
            entry["arg"] += span[6]
    return dict(out)


def layer_self(spans, lo: float, hi: float) -> dict[str, float]:
    """Per-layer self seconds over spans that end inside ``[lo, hi]``."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if lo <= span[5] <= hi:
            out[span[3]] += own[span[0]]
    return dict(out)


def install_repro_probes(recorder: SpanRecorder) -> None:
    """Wrap the repro callables each benchmark layer is measured at."""
    import json as _json
    import os as _os

    from repro.arch import expr, primitives
    from repro.service import columnstore, durability, scheduler, server
    from repro.service import service as service_mod

    svc = service_mod.BitwiseService
    for attr in ("compile", "execute", "write_slice", "update_column"):
        recorder.wrap(svc, attr, "service",
                      arg=_batch_size if attr == "execute" else None)
    for attr in ("run_program", "compile_program"):
        recorder.wrap(svc, attr, "program")
    recorder.wrap(service_mod, "compile_expr", "expr")
    recorder.wrap(service_mod, "plan_stats", "primitives")
    recorder.wrap(primitives, "probe_plan_events", "primitives")
    recorder.wrap(primitives, "probe_program_events", "primitives")
    for attr in ("run", "run_outputs"):
        recorder.wrap(expr.VectorProgram, attr, "columnstore",
                      arg=_columns_bytes)
    recorder.wrap(columnstore.ColumnStore, "popcounts", "columnstore",
                  arg=lambda args, kwargs: args[1].nbytes)
    recorder.wrap(columnstore.ColumnStore, "match", "columnstore")
    manager = durability.DurabilityManager
    for attr in ("log", "write_snapshot"):
        recorder.wrap(manager, attr, "durability")
    recorder.wrap(manager, "commit_groups", "durability",
                  arg=lambda args, kwargs: args[1] if len(args) > 1
                  else kwargs.get("n", 1))
    recorder.wrap(durability, "recover_service", "durability")
    # The WAL's file calls, through the durability module's own os
    # binding: fdatasync is the WAL barrier (snapshots use fsync), and
    # a write inside a durability.log span is one appended record.
    wal_os = _namespace(_os)
    recorder.patch(durability, "os", wal_os)
    recorder.wrap(wal_os, "fdatasync", "durability",
                  name="durability.fdatasync")
    recorder.wrap(wal_os, "write", "durability", name="durability.write",
                  arg=lambda args, kwargs: len(args[1]))
    for attr in ("submit_query", "submit_batch", "submit_exclusive"):
        recorder.wrap(scheduler.RequestScheduler, attr, "scheduler")
    original_start = scheduler.RequestScheduler.start

    def start(self):
        token = LOOP_LAYER.set("scheduler")
        try:
            return original_start(self)
        finally:
            LOOP_LAYER.reset(token)

    recorder.patch(scheduler.RequestScheduler, "start", start)
    for attr in ("encode_frame", "decode_frame"):
        recorder.wrap(server, attr, "wire")
    # The JSON wire's codec: the server module's own json binding.
    codec = _namespace(_json)
    recorder.patch(server, "json", codec)
    recorder.wrap(codec, "loads", "wire", name="wire.json_loads")
    recorder.wrap(codec, "dumps", "wire", name="wire.json_dumps")
    recorder.wrap_event_loop()


def _namespace(module):
    """A copy of ``module``'s public names whose attributes can be
    wrapped without touching the module itself."""
    return types.SimpleNamespace(**{
        k: getattr(module, k) for k in dir(module) if not k.startswith("_")})


def _batch_size(args, kwargs) -> int:
    queries = args[1] if len(args) > 1 else kwargs.get("queries", ())
    return len(queries)


def _columns_bytes(args, kwargs) -> int:
    columns = args[1] if len(args) > 1 else kwargs.get("columns", {})
    return sum(matrix.nbytes for matrix in columns.values())
