"""Central asyncio request scheduler for the serving front-end.

The async server funnels every connection's requests through one
:class:`RequestScheduler`, which

* **coalesces** concurrent queries from all connections into the
  service's vector batches: the first arrival opens a small batching
  window (``window_s``); everything that lands inside it executes as
  ONE :meth:`BitwiseService.execute` call (one set of whole-matrix
  kernels, cross-query CSE within each tenant);
* enforces **per-tenant admission control**: a tenant may hold at most
  ``max_pending`` requests in flight (its
  :attr:`~repro.service.tenancy.TenantState.max_pending` overrides the
  server default); excess requests are rejected immediately with an
  :class:`AdmissionError` instead of growing the queue without bound;
* enforces **energy-denominated quotas**: a tenant whose attributed
  in-memory energy spend has reached its
  :attr:`~repro.service.tenancy.TenantState.quota_energy_nj` budget is
  rejected at admission, and already-queued requests are shed per item
  when the batch executes (the charge is post-hoc, so exhaustion can
  land mid-batch) — co-batched tenants keep executing;
* schedules **fairly**: batches are filled round-robin across tenant
  queues (one query per tenant per rotation), so a flooding tenant
  cannot starve the others — and per-tenant FIFO order is preserved;
* serializes **mutations as barriers**: a tenant's mutation waits for
  the current batch, then runs exclusively before the tenant's later
  requests (read-your-writes per tenant) — and when a durability
  manager is attached, barrier ops **group-commit**: a dedicated
  committer thread fsyncs every queued round under one
  ``fdatasync`` while the scheduler keeps serving, and no op is
  acknowledged before its group is on disk.

Fault tolerance (graceful degradation):

* rejections carry a machine-readable **retry_after_ms** hint so
  clients back off intelligently instead of blind-retrying;
* an optional **per-request timeout** (``request_timeout_s``) bounds
  each batch / barrier executor call: a slow batch settles *its own*
  items with a :class:`~repro.errors.QueryError` while the
  connection, the scheduler loop and co-tenant traffic all survive;
* an armed :class:`~repro.service.durability.FaultInjector` can
  delay or fail batches (``batch.delay`` / ``batch.exec``) and
  barrier ops (``exclusive.*``) for deterministic chaos tests — an
  injected batch failure takes the existing per-item fallback path,
  so errors attribute to individual requests;
* **drain** support for graceful shutdown: :meth:`begin_drain`
  rejects new submissions with :class:`ShuttingDownError` while
  :meth:`drain` awaits the in-flight work.

The scheduler owns no sockets and is directly testable from asyncio.
"""

from __future__ import annotations

import asyncio
import queue as _queue
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import QueryError

__all__ = ["AdmissionError", "RequestScheduler", "ShuttingDownError",
           "ENERGY_RETRY_AFTER_MS"]

#: sentinel telling the committer thread to exit once drained
_COMMIT_STOP = object()

#: hint handed to energy-exhausted tenants — quota refills are an
#: operator action, so the backoff is a coarse constant, not a window
ENERGY_RETRY_AFTER_MS = 1000.0


class AdmissionError(QueryError):
    """Per-tenant admission limit exceeded; retry after back-off.

    ``retry_after_ms`` is a machine-readable hint surfaced on both
    wires: roughly two batching windows for queue-full rejections,
    :data:`ENERGY_RETRY_AFTER_MS` for exhausted energy quotas."""

    def __init__(self, message: str, *,
                 retry_after_ms: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ShuttingDownError(QueryError):
    """The server is draining; reconnect and retry elsewhere/later."""


@dataclass
class _Item:
    kind: str                    # "query" | "exclusive"
    tenant: str | None
    payload: Any                 # query text | zero-arg callable
    future: asyncio.Future = field(repr=False, default=None)
    #: False for members of a batch submission, which holds ONE
    #: admission slot for the whole batch (wire compatibility: the old
    #: threaded server executed a batch as a single request)
    counted: bool = True


class RequestScheduler:
    """Batching, admission-controlled front door to a BitwiseService."""

    def __init__(self, service, *, window_s: float = 0.001,
                 max_batch: int = 128, max_pending: int = 64,
                 request_timeout_s: float | None = None,
                 injector=None) -> None:
        self.service = service
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        #: executor-side deadline per batch / barrier op (None = off)
        self.request_timeout_s = request_timeout_s
        #: optional FaultInjector consulted inside executor calls
        self.injector = injector
        self._queues: dict[str | None, deque[_Item]] = {}
        self._rotation: deque[str | None] = deque()
        self._pending: dict[str | None, int] = {}
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        #: rounds of barrier outcomes awaiting their WAL group fsync;
        #: a dedicated committer thread drains the whole queue under
        #: ONE fsync (started lazily on the first durable round), so
        #: the commit rate self-clocks to what the disk sustains
        self._commit_q: _queue.SimpleQueue = _queue.SimpleQueue()
        self._commit_thread: threading.Thread | None = None
        self._stopped = False
        self._draining = False
        # Adaptive batching: EWMA of recent round sizes (queries plus
        # barrier ops).  Near 1 the
        # queue is effectively idle — waiting the full window only
        # adds latency — so the window is skipped; above that the
        # window fires early once the backlog reaches the predicted
        # batch size (coalescing already happened, nothing to wait
        # for).
        self._batch_ewma = 2.0
        self.metrics = {
            "batches": 0,            #: execute() calls issued
            "batched_queries": 0,    #: queries answered through them
            "largest_batch": 0,
            "exclusives": 0,         #: mutations/barrier ops run
            "wal_group_commits": 0,  #: mutation rounds fsynced once
            "admission_rejections": 0,
            "timeouts": 0,           #: batches/barriers past deadline
            "drain_rejections": 0,   #: submissions refused mid-drain
            "early_fires": 0,        #: windows cut short (goal met)
            "window_skips": 0,       #: windows skipped (queue idle)
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="request-scheduler")

    def begin_drain(self) -> None:
        """Stop admitting; in-flight and queued work still completes."""
        self._draining = True
        self._wakeup.set()

    async def drain(self, timeout_s: float = 5.0) -> bool:
        """Await quiescence (no pending requests); False on timeout."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while sum(self._pending.values()) > 0 or self._backlog():
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def stop(self) -> None:
        self._stopped = True
        self._wakeup.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
        # Let the committer thread fsync and settle any queued groups
        # before failing whatever is still in the request queues; it
        # exits once it has drained everything up to the sentinel.
        if self._commit_thread is not None:
            self._commit_q.put(_COMMIT_STOP)
            await asyncio.get_running_loop().run_in_executor(
                None, self._commit_thread.join)
            self._commit_thread = None
            # One tick for the settle callbacks it posted on exit.
            await asyncio.sleep(0)
        for queue in self._queues.values():
            for item in queue:
                if not item.future.done():
                    item.future.set_exception(
                        ShuttingDownError("server shutting down"))
        self._queues.clear()

    # -- submission ----------------------------------------------------
    def _limit(self, tenant: str | None) -> int:
        state = self.service.tenant_state(tenant)
        return state.max_pending if state.max_pending is not None \
            else self.max_pending

    def _retry_hint_ms(self) -> float:
        """Queue-full backoff: about two batching windows."""
        return max(1.0, self.window_s * 2e3)

    def _check_admission(self, tenant: str | None) -> None:
        if self._draining:
            self.metrics["drain_rejections"] += 1
            raise ShuttingDownError("server shutting down")
        state = self.service.tenant_state(tenant)
        if state.energy_exhausted():
            self.metrics["admission_rejections"] += 1
            raise AdmissionError(
                f"tenant {tenant!r} energy quota exhausted "
                f"({state.energy_spent_nj:.1f} nJ spent of "
                f"{state.quota_energy_nj:.1f} nJ)",
                retry_after_ms=ENERGY_RETRY_AFTER_MS)
        if self._pending.get(tenant, 0) >= self._limit(tenant):
            self.metrics["admission_rejections"] += 1
            raise AdmissionError(
                f"tenant {tenant!r} over admission limit "
                f"({self._limit(tenant)} requests in flight)",
                retry_after_ms=self._retry_hint_ms())

    def _enqueue(self, item: _Item) -> None:
        item.future = asyncio.get_running_loop().create_future()
        queue = self._queues.get(item.tenant)
        if queue is None:
            queue = self._queues[item.tenant] = deque()
            self._rotation.append(item.tenant)
        queue.append(item)
        self._wakeup.set()

    def _admit(self, item: _Item) -> None:
        self._check_admission(item.tenant)
        self._pending[item.tenant] = \
            self._pending.get(item.tenant, 0) + 1
        self._enqueue(item)

    def _settle(self, item: _Item, value=None, error=None) -> None:
        if item.counted:
            self._pending[item.tenant] -= 1
        if item.future.done():
            return
        if error is not None:
            item.future.set_exception(error)
        else:
            item.future.set_result(value)

    async def submit_query(self, tenant: str | None, query: str):
        """Queue one query; resolves to its QueryResult."""
        item = _Item("query", tenant, query)
        self._admit(item)
        return await item.future

    async def submit_batch(self, tenant: str | None, queries):
        """Queue a client batch under ONE admission slot.

        The member queries still coalesce individually (and with other
        connections' traffic) into vector batches; admission counts the
        submission as a single in-flight request, matching the old
        threaded server's one-request batch semantics."""
        queries = list(queries)
        if not queries:
            return []
        self._check_admission(tenant)
        self._pending[tenant] = self._pending.get(tenant, 0) + 1
        items = [_Item("query", tenant, query, counted=False)
                 for query in queries]
        try:
            for item in items:
                self._enqueue(item)
            results = await asyncio.gather(
                *[item.future for item in items],
                return_exceptions=True)
        finally:
            self._pending[tenant] -= 1
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    async def submit_exclusive(self, tenant: str | None,
                               fn: Callable[[], Any]):
        """Queue a barrier op (mutation/DDL); resolves to fn()."""
        item = _Item("exclusive", tenant, fn)
        self._admit(item)
        return await item.future

    # -- the scheduling loop -------------------------------------------
    def _backlog(self) -> bool:
        return any(self._queues.values())

    def _backlog_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    async def _adaptive_window(self) -> None:
        """Wait out the batching window, but no longer than useful.

        The fixed window trades latency for coalescing on every
        request, even when the queue never sees concurrent arrivals.
        Instead, predict the batch size from an EWMA of recent
        batches: when the prediction says batches are singletons,
        skip the window outright; otherwise wait only until the
        backlog reaches the predicted size (further waiting cannot
        grow the batch we expect) or the window expires.
        """
        if self._batch_ewma <= 1.5:
            self.metrics["window_skips"] += 1
            return
        goal = max(2, round(self._batch_ewma))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.window_s
        while self._backlog_count() < goal:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return
            try:
                await asyncio.wait_for(self._wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                return
            self._wakeup.clear()
        self.metrics["early_fires"] += 1

    def _drain_round(self) -> tuple[list[_Item], list[_Item]]:
        """One fair round: a query batch plus due barrier ops.

        Queries are taken round-robin, one per tenant per rotation,
        never past a tenant's first barrier (per-tenant FIFO).  Then
        each tenant whose queue now fronts barriers contributes its
        consecutive run of them — the round's barrier ops execute in
        order and group-commit under one WAL fsync.
        """
        batch: list[_Item] = []
        progress = True
        while progress and len(batch) < self.max_batch:
            progress = False
            for _ in range(len(self._rotation)):
                tenant = self._rotation[0]
                self._rotation.rotate(-1)
                queue = self._queues.get(tenant)
                if queue and queue[0].kind == "query":
                    batch.append(queue.popleft())
                    progress = True
                    if len(batch) >= self.max_batch:
                        break
        return batch, self._drain_barriers()

    def _drain_barriers(self) -> list[_Item]:
        """Every tenant's consecutive run of front-of-queue barriers."""
        exclusives: list[_Item] = []
        for _ in range(len(self._rotation)):
            tenant = self._rotation[0]
            self._rotation.rotate(-1)
            queue = self._queues.get(tenant)
            while queue and queue[0].kind == "exclusive":
                exclusives.append(queue.popleft())
        return exclusives

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopped:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._backlog():
                continue
            if self.window_s > 0:
                # Batching window: let concurrent arrivals coalesce
                # (adaptively cut short when the queue looks idle or
                # the expected batch has already formed).
                await self._adaptive_window()
            while self._backlog():
                batch, exclusives = self._drain_round()
                if batch:
                    await self._execute_batch(loop, batch)
                    # Mutations that queued while the batch executed
                    # join this round's group commit (one shared
                    # fsync) instead of each paying their own next
                    # round.
                    exclusives.extend(self._drain_barriers())
                # The round size (queries plus barriers) feeds the
                # prediction, so a lone writer stops paying the window
                # while concurrent writers still coalesce.
                self._batch_ewma = 0.7 * self._batch_ewma \
                    + 0.3 * (len(batch) + len(exclusives))
                if exclusives:
                    await self._execute_exclusives(loop, exclusives)

    def _reject_exhausted(self, items: list[_Item]) -> list[_Item]:
        """Settle already-admitted items whose tenant has since spent
        its energy budget; returns the still-eligible remainder.

        Charging is post-hoc, so a tenant can exhaust its quota while
        requests are queued; shedding them here (instead of letting
        ``execute`` raise) keeps the rejection per-item — co-batched
        tenants are untouched and never starve."""
        eligible: list[_Item] = []
        for item in items:
            state = self.service.tenant_state(item.tenant)
            if state.energy_exhausted():
                self.metrics["admission_rejections"] += 1
                self._settle(item, error=AdmissionError(
                    f"tenant {item.tenant!r} energy quota exhausted "
                    f"({state.energy_spent_nj:.1f} nJ spent of "
                    f"{state.quota_energy_nj:.1f} nJ)",
                    retry_after_ms=ENERGY_RETRY_AFTER_MS))
            else:
                eligible.append(item)
        return eligible

    # -- executor-side wrappers (fault injection lives in the worker
    # thread, exactly where a real stall/exception would strike) ------
    def _batch_fn(self, queries, tenants):
        if self.injector is not None:
            self.injector.delay("batch.delay")
            self.injector.check("batch.exec")
        return self.service.execute(queries, tenants=tenants)

    def _single_fn(self, item: _Item):
        if self.injector is not None:
            self.injector.delay("batch.delay")
        return self.service.query(item.payload, tenant=item.tenant)

    def _exclusive_fn(self, fn: Callable[[], Any]):
        if self.injector is not None:
            self.injector.delay("exclusive.delay")
            self.injector.check("exclusive.exec")
        return fn()

    async def _bounded(self, future):
        """Apply the per-request deadline to one executor future.

        On timeout the worker thread keeps running to completion (we
        cannot kill it), but its requests settle with an error now —
        the caller's latency is bounded and the event loop, other
        tenants and the connection all keep going."""
        if self.request_timeout_s:
            return await asyncio.wait_for(future,
                                          self.request_timeout_s)
        return await future

    async def _execute_batch(self, loop, batch: list[_Item]) -> None:
        batch = self._reject_exhausted(batch)
        if not batch:
            return
        queries = [item.payload for item in batch]
        tenants = [item.tenant for item in batch]
        self.metrics["batches"] += 1
        self.metrics["batched_queries"] += len(batch)
        self.metrics["largest_batch"] = max(
            self.metrics["largest_batch"], len(batch))
        try:
            results = await self._bounded(loop.run_in_executor(
                None, lambda: self._batch_fn(queries, tenants)))
        except asyncio.TimeoutError:
            # Degrade gracefully: THIS batch errors out, nothing else.
            # No per-item fallback — re-running a stalled batch item
            # by item would multiply the stall by the batch size.
            self.metrics["timeouts"] += 1
            for item in batch:
                self._settle(item, error=QueryError(
                    f"request timed out after "
                    f"{self.request_timeout_s:g}s"))
            return
        except Exception:
            # One bad query fails a whole execute(); fall back to
            # per-item execution so errors attribute to their request.
            for item in batch:
                await self._execute_single(loop, item)
            return
        for item, result in zip(batch, results):
            self._settle(item, result)

    async def _execute_single(self, loop, item: _Item) -> None:
        try:
            result = await self._bounded(loop.run_in_executor(
                None, lambda: self._single_fn(item)))
        except asyncio.TimeoutError:
            self.metrics["timeouts"] += 1
            self._settle(item, error=QueryError(
                f"request timed out after {self.request_timeout_s:g}s"))
        except Exception as exc:
            self._settle(item, error=exc)
        else:
            self._settle(item, result)

    async def _execute_exclusives(self, loop,
                                  items: list[_Item]) -> None:
        """Run one round's barrier ops, group-committing the WAL.

        Each op's record is written (and the op applied) in order —
        the WAL-before-apply invariant holds record by record — but
        the round's per-barrier fsyncs are deferred: the outcomes go
        to the *committer thread's* queue and the scheduler moves on
        to the next round while the group's ``fdatasync`` is in
        flight.
        No op is acknowledged before its group is on disk; if the
        group fsync fails, every op it covered settles with that
        error."""
        items = self._reject_exhausted(items)
        if not items:
            return
        manager = getattr(self.service, "durability", None)
        grouped = manager is not None and manager.sync == "batch"
        if grouped:
            self.metrics["wal_group_commits"] += 1
            manager.begin_group()
        outcomes: list[tuple[_Item, Any, Exception | None]] = []
        try:
            for item in items:
                self.metrics["exclusives"] += 1
                try:
                    value = await self._bounded(loop.run_in_executor(
                        None,
                        lambda fn=item.payload:
                            self._exclusive_fn(fn)))
                except asyncio.TimeoutError:
                    self.metrics["timeouts"] += 1
                    outcomes.append((item, None, QueryError(
                        f"request timed out after "
                        f"{self.request_timeout_s:g}s")))
                except Exception as exc:
                    outcomes.append((item, None, exc))
                else:
                    outcomes.append((item, value, None))
        finally:
            if grouped:
                # Settle off the scheduling loop: acks wait for the
                # group fsync, queries of the next round do not.
                self._ensure_committer(loop)
                self._commit_q.put(outcomes)
            else:
                self._settle_outcomes(outcomes)

    def _ensure_committer(self, loop) -> None:
        if self._commit_thread is None \
                or not self._commit_thread.is_alive():
            self._commit_thread = threading.Thread(
                target=self._committer_main, args=(loop,),
                name="wal-committer", daemon=True)
            self._commit_thread.start()

    def _committer_main(self, loop) -> None:
        """Group-commit fsync pump (dedicated thread).

        Drains every queued round under ONE WAL fsync, then posts
        their acknowledgments back to the event loop.  Rounds that
        arrive while an fsync is in flight pile up and share the next
        one, so the fsync rate self-clocks to what the disk sustains
        instead of serializing one sync per mutation round — and the
        fsync starts immediately even while the loop is busy with the
        next round's query batches.  A failed fsync withholds the
        acknowledgment of every op it covered."""
        while True:
            entry = self._commit_q.get()
            stopping = entry is _COMMIT_STOP
            groups = [] if stopping else [entry]
            while True:
                try:
                    entry = self._commit_q.get_nowait()
                except _queue.Empty:
                    break
                if entry is _COMMIT_STOP:
                    stopping = True
                else:
                    groups.append(entry)
            if groups:
                manager = getattr(self.service, "durability", None)
                failure = None
                try:
                    manager.commit_groups(len(groups))
                except Exception as exc:
                    # The groups never reached the disk: none of
                    # their ops is durable, none may be acknowledged.
                    failure = exc
                try:
                    loop.call_soon_threadsafe(
                        self._settle_groups, groups, failure)
                except RuntimeError:
                    return  # loop already closed (teardown race)
            if stopping:
                return

    def _settle_groups(self, groups, failure) -> None:
        for outcomes in groups:
            if failure is not None:
                outcomes = [(item, None,
                             error if error is not None else failure)
                            for item, value, error in outcomes]
            self._settle_outcomes(outcomes)

    def _settle_outcomes(self, outcomes) -> None:
        for item, value, error in outcomes:
            if error is not None:
                self._settle(item, error=error)
            else:
                self._settle(item, value)
