"""Multi-process shard workers over a shared-memory column store.

Three cooperating pieces turn the single-process vector backend into a
scatter/gather coordinator with true multi-core execution:

* :class:`SharedColumnStore` — a :class:`~repro.service.columnstore.
  ColumnStore` whose packed ``(n_shards, words)`` uint64 matrices live
  in ``multiprocessing.shared_memory`` segments.  Worker processes map
  the same physical pages, so scattering a query ships **no column
  data** — only segment names.  Mutations write the dirty-word diff in
  place (no copy-on-write rebind) and bump a per-column generation;
  structural changes (add/drop/resize) bump a structure generation.
  Each mutator returns a compact *event* describing exactly what
  changed, which the service forwards to read replicas.

* :class:`WorkerPool` — a pool of pinned worker processes (spawn
  context; the coordinator has threads, fork is unsafe).  Each worker
  owns a fixed contiguous block of matrix rows (= shards).  A job ships
  only ``(plan id, bytecode spec on first sight, column segment names,
  row span, output segment names)``; the worker executes the fused
  :class:`~repro.arch.expr.VectorProgram` locally over its row block,
  writes result words into shared output segments, and returns only
  per-shard popcounts over the pipe.  Plan compilation, caches, Stats
  accounting, durability and tenancy never leave the coordinator.
  A worker that dies mid-batch (crash, ``kill -9``) or hangs past the
  timeout is respawned and its job replayed — shared column segments
  are never written by workers, so replay is bit-exact.

* :class:`ReplicaStore` / :class:`ReplicaSet` — N read replicas, each
  a full shared-memory copy of the store kept current by a single
  applier thread draining the mutation-event stream from a bounded
  queue (the bound is the staleness limit: a mutator blocks rather
  than let replicas fall further behind).  Reads route to a replica
  only when its structure/mask generations match the primary and every
  referenced column satisfies the caller's generation fence — the
  mutating tenant's fence is its last-write generation, giving
  read-your-writes; other tenants read with bounded staleness.

Shared-memory lifecycle: the coordinator exclusively creates and
unlinks segments.  Workers only ever attach (never unlink, never
unregister — the resource tracker is shared with the coordinator), so
a dying worker can never take pages the coordinator still serves.
Dropped columns unlink their ``/dev/shm`` entry immediately but
retire the mapping to a graveyard
closed at :meth:`SharedColumnStore.close` — in-flight snapshots may
still read the pages until then.
"""

from __future__ import annotations

import itertools
import os
import signal
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.errors import QueryError
from repro.service.columnstore import ColumnStore, MatrixPool, \
    popcount_words

__all__ = ["SharedColumnStore", "WorkerPool", "ReplicaStore",
           "ReplicaSet"]

#: distinguishes this service's segments in /dev/shm (tests assert no
#: ``repb*`` entries leak past close)
_SEGMENT_PREFIX = "repb"
_STORE_SEQ = itertools.count()


def _close_quietly(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass


class _RWLock:
    """Writer-preferring readers/writer lock (replica view guard)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


# ----------------------------------------------------------------------
# shared-memory column store
# ----------------------------------------------------------------------
class SharedColumnStore(ColumnStore):
    """A :class:`ColumnStore` backed by shared-memory segments.

    Semantics differ from the base class in exactly one way: ``set``
    writes the dirty words **in place** instead of rebinding to a fresh
    matrix, so the store is single-writer / snapshot-unsafe on its own.
    The service compensates by holding its table readers/writer lock:
    queries hold the read side across execution, mutators the write
    side across the diff application — the same barrier semantics the
    scheduler already enforces per tenant.

    Mutators return replica events (see :class:`ReplicaSet`); the
    caller must publish them **after** releasing the table write lock,
    or a full replica queue deadlocks against the applier.
    """

    def __init__(self, n_bits: int, n_shards: int, *,
                 capacity: int | None = None) -> None:
        # Subclass state first: the base initializer calls resize().
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._mask_shm: shared_memory.SharedMemory | None = None
        self._mask_matrix: np.ndarray | None = None
        #: per-column write generation (replica fencing)
        self.generations: dict[str, int] = {}
        #: bumped on resize (mask/width changes)
        self.mask_generation = 0
        #: bumped on add/drop (segment-set changes)
        self.struct_generation = 0
        self._retired: list[shared_memory.SharedMemory] = []
        self._seg_seq = 0
        self._prefix = \
            f"{_SEGMENT_PREFIX}{os.getpid()}x{next(_STORE_SEQ)}"
        self._closed = False
        super().__init__(n_bits, n_shards, capacity=capacity)

    # -- segment plumbing ----------------------------------------------
    def _new_segment(self, tag: str) -> tuple[
            shared_memory.SharedMemory, np.ndarray]:
        name = f"{self._prefix}{tag}{self._seg_seq}"
        self._seg_seq += 1
        size = int(np.prod(self.shape)) * 8
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=size)
        view = np.ndarray(self.shape, dtype=np.uint64, buffer=shm.buf)
        view.fill(0)
        return shm, view

    def segment_name(self, name: str) -> str:
        return self._segments[name].name

    @property
    def mask_segment(self) -> str | None:
        """Mask segment name for workers (None when fully valid)."""
        if self._full or self._mask_shm is None:
            return None
        return self._mask_shm.name

    # -- lifecycle ------------------------------------------------------
    def resize(self, n_bits: int):
        super().resize(n_bits)
        if self._mask_shm is None:
            self._mask_shm, self._mask_matrix = self._new_segment("m")
        np.copyto(self._mask_matrix, self._mask)
        self._mask = self._mask_matrix  # live shm-backed mask view
        self.mask_generation += 1
        return ("resize", self.mask_generation, int(n_bits))

    def add(self, name: str, bits: np.ndarray):
        if name in self._segments:
            raise QueryError(f"column {name!r} already exists")
        packed = self._pack(bits)
        shm, view = self._new_segment("c")
        np.copyto(view, packed)
        self._segments[name] = shm
        self._bind(name, view)
        self.generations[name] = 1
        self.struct_generation += 1
        return ("add", name, self.struct_generation)

    def set(self, name: str, bits: np.ndarray):
        """Write the dirty-word diff in place; returns the replica
        event ``("set", name, generation, word_indices, words)``."""
        view = self._matrices.get(name)
        if view is None:
            raise QueryError(f"no column {name!r}")
        flat_old = view.reshape(-1)
        flat_new = self._pack(bits).reshape(-1)
        dirty = np.flatnonzero(flat_old != flat_new)
        values = flat_new[dirty]
        flat_old[dirty] = values
        gen = self.generations.get(name, 0) + 1
        self.generations[name] = gen
        return ("set", name, gen, dirty, values)

    def drop(self, name: str):
        shm = self._segments.pop(name, None)
        if shm is None:
            raise QueryError(f"no column {name!r}")
        self._unbind(name)
        self.generations.pop(name, None)
        # Unlink now (the /dev/shm entry disappears) but keep the
        # mapping alive until close(): snapshots taken before the drop
        # may still read these pages.
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._retired.append(shm)
        self.struct_generation += 1
        return ("drop", name, self.struct_generation, shm.name)

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.addresses.clear()  # before the matrices can die
        self._matrices.clear()
        self._mask_matrix = None
        self._mask = None
        for shm in self._segments.values():
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            _close_quietly(shm)
        self._segments.clear()
        if self._mask_shm is not None:
            try:
                self._mask_shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            _close_quietly(self._mask_shm)
            self._mask_shm = None
        for shm in self._retired:
            _close_quietly(shm)
        self._retired.clear()


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _attach(cache: dict, name: str,
            shape: tuple[int, int]) -> np.ndarray:
    entry = cache.get(name)
    if entry is None:
        # Attaching re-registers the name with the resource tracker
        # shared with the coordinator (spawn children inherit its fd);
        # the registration is a set-add, so it is idempotent and the
        # coordinator's unlink still unregisters exactly once.  A
        # worker must never unregister: it would erase the
        # coordinator's entry in the shared tracker.
        shm = shared_memory.SharedMemory(name=name)
        view = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        cache[name] = entry = (shm, view)
    return entry[1]


def _worker_main(conn, shape) -> None:
    """Shard-worker loop: attach segments lazily, cache rebuilt
    bytecode by plan id, execute row blocks, answer with popcounts."""
    from repro.arch.expr import VectorProgram

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    shape = tuple(shape)
    segments: dict[str, tuple] = {}
    programs: dict[str, VectorProgram] = {}
    pools: dict[tuple, MatrixPool] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "ping":
            conn.send(("pong",))
            continue
        if kind == "forget":
            entry = segments.pop(message[1], None)
            if entry is not None:
                _close_quietly(entry[0])
            continue
        # ("exec", job) — every reply echoes the job id so the
        # coordinator can discard stale replies left in the pipe by a
        # round that raised before draining every worker.
        job = message[1]
        job_id = job["id"]
        try:
            program = programs.get(job["plan"])
            if program is None:
                if job["spec"] is None:
                    # The plan was evicted from this cache after the
                    # coordinator shipped it; ask for a re-ship rather
                    # than failing the job permanently.
                    conn.send(("need-spec", job_id))
                    continue
                if len(programs) >= 256:
                    programs.clear()
                program = VectorProgram.from_spec(job["spec"])
                programs[job["plan"]] = program
            lo, hi = job["rows"]
            columns = {
                logical: _attach(segments, seg, shape)[lo:hi]
                for logical, seg in job["cols"].items()}
            block_shape = (hi - lo, shape[1])
            pool = pools.get(block_shape)
            if pool is None:
                pools[block_shape] = pool = MatrixPool(block_shape)
            if program.out_regs is None:
                (out_key, _), = job["outs"]
                results = {out_key: program.run(
                    columns, shape=block_shape, pool=pool)}
            else:
                results = program.run_outputs(
                    columns, shape=block_shape, pool=pool)
            # Copy every output into its destination rows FIRST —
            # two output names may alias one matrix, and the masked
            # popcount below must never write into a result buffer.
            for out_key, seg in job["outs"]:
                dst = _attach(segments, seg, shape)[lo:hi]
                np.copyto(dst, results[out_key])
            mask = None
            if job["mask"] is not None:
                mask = _attach(segments, job["mask"], shape)[lo:hi]
            counts = {}
            for out_key, seg in job["outs"]:
                dst = _attach(segments, seg, shape)[lo:hi]
                words = dst if mask is None else \
                    np.bitwise_and(dst, mask)
                counts[out_key] = popcount_words(words).sum(
                    axis=1, dtype=np.int64).tolist()
            pool.give_unique(results.values())
            conn.send(("ok", job_id, counts))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            try:
                conn.send(("err", job_id, repr(exc)))
            except (BrokenPipeError, OSError):
                break
    for entry in segments.values():
        _close_quietly(entry[0])
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class _WorkerState:
    __slots__ = ("process", "conn", "shipped")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.shipped: set[str] = set()


class WorkerPool:
    """Scatter/gather coordinator over pinned shard-worker processes.

    ``execute`` dispatches one job per worker (its fixed row block),
    collects per-shard popcounts, and copies the shared output
    segments into caller-owned matrices.  Dead or hung workers are
    respawned and their job replayed once — column segments are
    read-only to workers, so replay is bit-exact.
    """

    def __init__(self, shape: tuple[int, int], *, workers: int,
                 timeout_s: float = 60.0) -> None:
        self.shape = tuple(shape)
        rows = self.shape[0]
        n = max(1, min(int(workers), rows))
        bounds = [rows * i // n for i in range(n + 1)]
        #: fixed contiguous row (= shard) block per worker
        self.blocks = [(lo, hi) for lo, hi in
                       zip(bounds, bounds[1:]) if hi > lo]
        self.n_workers = len(self.blocks)
        self.timeout_s = float(timeout_s)
        self._ctx = get_context("spawn")
        self._workers: list[_WorkerState | None] = \
            [None] * self.n_workers
        self._lock = threading.Lock()
        self._out_segments: list[shared_memory.SharedMemory] = []
        self._out_views: list[np.ndarray] = []
        self._prefix = \
            f"{_SEGMENT_PREFIX}{os.getpid()}p{next(_STORE_SEQ)}"
        self._started = False
        self._closed = False
        #: monotonically increasing id echoed in every worker reply;
        #: lets _recv discard stale replies left in a pipe by a round
        #: that raised before draining every worker
        self._job_seq = itertools.count(1)
        #: jobs dispatched / workers respawned / plan specs shipped
        self.jobs = 0
        self.respawns = 0
        self.plans_shipped = 0

    # -- process lifecycle ---------------------------------------------
    @staticmethod
    @contextmanager
    def _spawnable_main():
        """Spawn children re-execute ``__main__`` by file path; a
        parent driven from stdin or a REPL has a fake ``__file__``
        (``<stdin>``) that crashes the child's bootstrap.  Hide such
        a path for the duration of ``process.start()``."""
        main = sys.modules.get("__main__")
        path = getattr(main, "__file__", None)
        hidden = (main is not None
                  and getattr(main, "__spec__", None) is None
                  and path is not None and not os.path.exists(path))
        if hidden:
            del main.__file__
        try:
            yield
        finally:
            if hidden:
                main.__file__ = path

    def _spawn(self, index: int) -> _WorkerState:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child, self.shape),
            name=f"repro-shard-{index}", daemon=True)
        with self._spawnable_main():
            process.start()
        child.close()
        return _WorkerState(process, parent)

    def _ensure_started(self) -> None:
        if self._closed:
            raise QueryError("worker pool is closed")
        if not self._started:
            for index in range(self.n_workers):
                self._workers[index] = self._spawn(index)
            self._started = True

    def _respawn(self, index: int) -> None:
        state = self._workers[index]
        if state is not None:
            try:
                state.conn.close()
            except OSError:  # pragma: no cover
                pass
            if state.process.is_alive():
                state.process.kill()
            state.process.join(timeout=5.0)
        self._workers[index] = self._spawn(index)
        self.respawns += 1

    def _ensure_out_segments(self, count: int) -> None:
        while len(self._out_segments) < count:
            index = len(self._out_segments)
            size = int(np.prod(self.shape)) * 8
            shm = shared_memory.SharedMemory(
                name=f"{self._prefix}o{index}", create=True, size=size)
            view = np.ndarray(self.shape, dtype=np.uint64,
                              buffer=shm.buf)
            view.fill(0)
            self._out_segments.append(shm)
            self._out_views.append(view)

    # -- the scatter/gather round --------------------------------------
    def execute(self, plan_key: str, spec: tuple,
                colspec: dict[str, str], mask_seg: str | None,
                out_keys: list, *, gens: dict | None = None,
                take_matrix=None) -> dict:
        """Run one program across all workers.

        Returns ``{out_key: (per_shard_counts, matrix)}`` where
        ``matrix`` is a caller-owned copy (from ``take_matrix`` when
        given) of the shared output segment.
        """
        with self._lock:
            self._ensure_started()
            self._ensure_out_segments(len(out_keys))
            outs = [(key, self._out_segments[i].name)
                    for i, key in enumerate(out_keys)]
            job_id = next(self._job_seq)

            def make_job(index: int) -> dict:
                state = self._workers[index]
                ship = plan_key not in state.shipped
                if ship:
                    state.shipped.add(plan_key)
                    self.plans_shipped += 1
                return {"id": job_id, "plan": plan_key,
                        "spec": spec if ship else None,
                        "cols": colspec, "mask": mask_seg,
                        "rows": self.blocks[index], "outs": outs,
                        "gens": gens or {}}

            for index in range(self.n_workers):
                self._dispatch(index, make_job)
            replies = [self._await(index, make_job, job_id, plan_key)
                       for index in range(self.n_workers)]
            self.jobs += self.n_workers

            rows = self.shape[0]
            counts = {key: np.zeros(rows, dtype=np.int64)
                      for key in out_keys}
            for index, reply in enumerate(replies):
                lo, hi = self.blocks[index]
                for key, block_counts in reply.items():
                    counts[key][lo:hi] = block_counts
            results = {}
            for position, key in enumerate(out_keys):
                matrix = take_matrix() if take_matrix is not None \
                    else np.empty(self.shape, dtype=np.uint64)
                np.copyto(matrix, self._out_views[position])
                results[key] = (counts[key], matrix)
            return results

    def _dispatch(self, index: int, make_job) -> None:
        try:
            self._workers[index].conn.send(("exec", make_job(index)))
        except (BrokenPipeError, OSError):
            self._respawn(index)
            self._workers[index].conn.send(("exec", make_job(index)))

    def _await(self, index: int, make_job, job_id: int,
               plan_key: str) -> dict:
        reply = self._recv(index, job_id)
        if reply is None:  # dead or hung: respawn and replay once
            self._respawn(index)
            try:
                self._workers[index].conn.send(
                    ("exec", make_job(index)))
            except (BrokenPipeError, OSError) as exc:
                raise QueryError(
                    f"shard worker {index} unavailable: {exc}"
                ) from exc
            reply = self._recv(index, job_id)
            if reply is None:
                raise QueryError(
                    f"shard worker {index} unresponsive after respawn")
        if reply[0] == "need-spec":
            # The worker evicted this plan from its bytecode cache
            # after we shipped it: forget it was shipped and replay
            # with the spec attached.
            self._workers[index].shipped.discard(plan_key)
            try:
                self._workers[index].conn.send(
                    ("exec", make_job(index)))
            except (BrokenPipeError, OSError) as exc:
                raise QueryError(
                    f"shard worker {index} unavailable: {exc}"
                ) from exc
            reply = self._recv(index, job_id)
            if reply is None:
                raise QueryError(
                    f"shard worker {index} unresponsive after "
                    f"spec re-ship")
        if reply[0] != "ok":
            raise QueryError(
                f"shard worker {index} failed: {reply[2]}")
        return reply[2]

    def _recv(self, index: int, job_id: int):
        """Receive the reply tagged ``job_id``.  Replies carrying an
        older id are stale leftovers from a round that raised before
        every worker was drained — discard them so they can never be
        attributed to this job."""
        conn = self._workers[index].conn
        deadline = time.monotonic() + self.timeout_s
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0 or not conn.poll(remaining):
                    return None
                reply = conn.recv()
            except (EOFError, OSError):
                return None
            if len(reply) >= 2 and reply[1] == job_id:
                return reply

    # -- maintenance ----------------------------------------------------
    def forget(self, segment_name: str) -> None:
        """Tell live workers to drop a cached segment mapping
        (best-effort; pipe order guarantees it lands before the next
        job)."""
        if not self._started or self._closed:
            return
        with self._lock:
            for state in self._workers:
                if state is None:
                    continue
                try:
                    state.conn.send(("forget", segment_name))
                except (BrokenPipeError, OSError):
                    pass

    def stats(self) -> dict:
        return {"workers": self.n_workers, "jobs": self.jobs,
                "respawns": self.respawns,
                "plans_shipped": self.plans_shipped,
                "started": self._started}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for state in self._workers:
                if state is None:
                    continue
                try:
                    state.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for state in self._workers:
                if state is None:
                    continue
                state.process.join(timeout=5.0)
                if state.process.is_alive():  # pragma: no cover
                    state.process.kill()
                    state.process.join(timeout=5.0)
                try:
                    state.conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._out_views.clear()
            for shm in self._out_segments:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                _close_quietly(shm)
            self._out_segments.clear()


# ----------------------------------------------------------------------
# read replicas
# ----------------------------------------------------------------------
class ReplicaStore:
    """One read replica: a full shared-memory copy of the primary.

    Kept current by the :class:`ReplicaSet` applier; readers take the
    replica read lock for the whole execution, the applier the write
    lock per event.  ``can_serve`` is the routing predicate: structure
    and mask generations must match the primary exactly, and every
    referenced column must satisfy the caller's generation fence.
    """

    def __init__(self, primary: SharedColumnStore, index: int, *,
                 read_lock) -> None:
        self._primary = primary
        self._read_lock = read_lock
        self._prefix = f"{primary._prefix}r{index}"
        self._seq = 0
        self.index = index
        self.segments: dict[str, shared_memory.SharedMemory] = {}
        self.matrices: dict[str, np.ndarray] = {}
        self._mask_shm: shared_memory.SharedMemory | None = None
        self.mask_matrix: np.ndarray | None = None
        self.applied_gen: dict[str, int] = {}
        self.applied_struct = 0
        self.applied_mask_gen = 0
        self.n_bits = primary.n_bits
        self.rw = _RWLock()
        self.reads = 0
        self._closed = False
        self._sync_full()

    # -- segment plumbing ----------------------------------------------
    def _new_segment(self) -> tuple[
            shared_memory.SharedMemory, np.ndarray]:
        name = f"{self._prefix}c{self._seq}"
        self._seq += 1
        shape = self._primary.shape
        size = int(np.prod(shape)) * 8
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=size)
        view = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        return shm, view

    def _copy_mask(self) -> None:
        if self.mask_matrix is None:
            shape = self._primary.shape
            size = int(np.prod(shape)) * 8
            self._mask_shm = shared_memory.SharedMemory(
                name=f"{self._prefix}m", create=True, size=size)
            self.mask_matrix = np.ndarray(
                shape, dtype=np.uint64, buffer=self._mask_shm.buf)
        np.copyto(self.mask_matrix, self._primary._mask)

    def _sync_full(self) -> None:
        """Initial catch-up: copy the whole primary under its read
        lock, recording the generations the copy reflects."""
        with self.rw.write(), self._read_lock():
            for name in list(self._primary._matrices):
                self._copy_column(name)
            self._copy_mask()
            self.applied_struct = self._primary.struct_generation
            self.applied_mask_gen = self._primary.mask_generation
            self.n_bits = self._primary.n_bits

    def _copy_column(self, name: str) -> None:
        src = self._primary._matrices.get(name)
        if src is None:
            return
        shm, view = self._new_segment()
        np.copyto(view, src)
        self.segments[name] = shm
        self.matrices[name] = view
        self.applied_gen[name] = self._primary.generations.get(name, 0)

    # -- event application ---------------------------------------------
    def apply(self, event: tuple) -> str | None:
        """Apply one mutation event.  Returns the name of the replica
        segment a ``drop`` unlinked (the :class:`ReplicaSet` forwards
        it to the worker pool's ``forget``, or workers that attached
        the segment during replica-routed scatter would hold the
        unlinked pages until respawn), else ``None``."""
        kind = event[0]
        with self.rw.write():
            if kind == "set":
                _, name, gen, dirty, values = event
                # A copy made at a later generation already reflects
                # this diff; re-applying would regress the words.
                if name not in self.matrices or \
                        gen <= self.applied_gen.get(name, 0):
                    return None
                self.matrices[name].reshape(-1)[dirty] = values
                self.applied_gen[name] = gen
            elif kind == "add":
                _, name, struct = event
                if struct <= self.applied_struct:
                    return None
                with self._read_lock():
                    self._copy_column(name)
                self.applied_struct = struct
            elif kind == "drop":
                _, name, struct = event[:3]
                if struct <= self.applied_struct:
                    return None
                self.matrices.pop(name, None)
                self.applied_gen.pop(name, None)
                shm = self.segments.pop(name, None)
                self.applied_struct = struct
                if shm is not None:
                    dropped = shm.name
                    try:
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
                    _close_quietly(shm)
                    return dropped
            elif kind == "resize":
                _, mask_gen, n_bits = event
                if mask_gen <= self.applied_mask_gen:
                    return None
                with self._read_lock():
                    self._copy_mask()
                    self.n_bits = int(n_bits)
                self.applied_mask_gen = mask_gen
        return None

    # -- routing --------------------------------------------------------
    def can_serve(self, physicals, fences: dict | None,
                  struct: int, mask_gen: int) -> bool:
        if self._closed:
            return False
        if self.applied_struct != struct or \
                self.applied_mask_gen != mask_gen:
            return False
        for name in physicals:
            if name not in self.matrices:
                return False
            if fences and \
                    self.applied_gen.get(name, 0) < fences.get(name, 0):
                return False
        return True

    def mask_segment(self) -> str | None:
        if self._primary._full or self._mask_shm is None:
            return None
        return self._mask_shm.name

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self.rw.write():
            self.matrices.clear()
            self.mask_matrix = None
            for shm in self.segments.values():
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                _close_quietly(shm)
            self.segments.clear()
            if self._mask_shm is not None:
                try:
                    self._mask_shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                _close_quietly(self._mask_shm)
                self._mask_shm = None


class ReplicaSet:
    """N read replicas fed by one applier thread over a bounded queue.

    The queue bound **is** the staleness contract: a mutator publishing
    past ``max_lag`` undrained events blocks until the applier catches
    up, so a replica can never lag the primary by more than ``max_lag``
    mutations.  Events must be published *outside* the table write
    lock — the applier takes the table read lock for structural
    catch-up copies, so publishing under the write lock with a full
    queue would deadlock.
    """

    def __init__(self, primary: SharedColumnStore, n: int, *,
                 read_lock, max_lag: int = 256,
                 forget=None) -> None:
        self.max_lag = int(max_lag)
        self._forget = forget
        self.replicas = [
            ReplicaStore(primary, index, read_lock=read_lock)
            for index in range(max(1, int(n)))]
        self._queue: deque = deque()
        self._cv = threading.Condition()
        self._busy = False
        self._stop = False
        self._rr = 0
        self.published = 0
        self.applied = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-replica-applier", daemon=True)
        self._thread.start()

    # -- producer side --------------------------------------------------
    def publish(self, event: tuple) -> None:
        with self._cv:
            while len(self._queue) >= self.max_lag and not self._stop:
                self._cv.wait(0.05)
            if self._stop:
                return
            self._queue.append(event)
            self.published += 1
            self._cv.notify_all()

    # -- applier --------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stop:
                    self._cv.wait()
                if not self._queue:
                    return
                event = self._queue.popleft()
                self._busy = True
                self._cv.notify_all()
            try:
                for replica in self.replicas:
                    dropped = replica.apply(event)
                    if dropped is not None and \
                            self._forget is not None:
                        self._forget(dropped)
                if event[0] == "drop" and self._forget is not None:
                    self._forget(event[3])
            finally:
                with self._cv:
                    self._busy = False
                    self.applied += 1
                    self._cv.notify_all()

    def wait_caught_up(self, timeout_s: float = 5.0) -> bool:
        """Block until every published event has applied (tests)."""
        deadline = time.monotonic() + timeout_s
        with self._cv:
            while self._queue or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(remaining)
        return True

    # -- routing --------------------------------------------------------
    def pick(self, physicals, fences: dict | None, struct: int,
             mask_gen: int) -> ReplicaStore | None:
        """Round-robin over replicas currently able to serve."""
        n = len(self.replicas)
        for offset in range(n):
            replica = self.replicas[(self._rr + offset) % n]
            if replica.can_serve(physicals, fences, struct, mask_gen):
                self._rr = (self._rr + offset + 1) % n
                replica.reads += 1
                return replica
        return None

    def stats(self) -> dict:
        with self._cv:
            lag = len(self._queue) + (1 if self._busy else 0)
        return {"replicas": len(self.replicas),
                "published": self.published, "applied": self.applied,
                "lag": lag, "max_lag": self.max_lag,
                "reads": [r.reads for r in self.replicas]}

    def close(self) -> None:
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        self._thread.join(timeout=10.0)
        for replica in self.replicas:
            replica.close()
