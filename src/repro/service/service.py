"""Sharded bulk-bitwise query service over the expression compiler.

:class:`BitwiseService` owns a table of named bit columns, compiles
incoming queries once (plan cache keyed on the canonicalized
expression), executes batches, attributes energy/cycle/primitive costs
per query, and serves repeated queries from an LRU result cache — the
production-shape layer the ROADMAP's heavy-traffic north star asks
for, in the spirit of X-SRAM's compound in-memory ops and SLIM's
logic-in-memory pipelines.

Two execution backends answer queries:

* ``backend="vector"`` (default) — the **columnar plan-vectorized
  executor**: columns live in a :class:`~repro.service.columnstore.
  ColumnStore` as packed ``(n_shards, words_per_shard)`` uint64
  matrices, each compiled plan lowers once to register-machine
  bytecode (:meth:`~repro.arch.expr.CompiledQuery.vector_program`),
  and every plan step executes as a single ``np.bitwise_*`` kernel
  over the whole matrix — all shards advance together, lock-free, with
  numpy releasing the GIL.  Energy/cycle/primitive accounting comes
  from the closed-form plan coster
  (:func:`~repro.arch.primitives.plan_stats`), which is Stats-exact
  against an engine replay.  Shared sub-expressions are deduplicated
  *across* the queries of a batch through a per-batch node cache
  (a host-simulation optimization only: attributed costs still model
  each query's full plan).

* ``backend="reference"`` — the engine-replay path: one
  :class:`~repro.arch.engine.BulkEngine` per shard, every (query,
  shard) pair a thread-pool task behind per-shard locks.  Slower by
  construction (O(plan-steps × shards) interpreted engine calls), but
  it is the ground truth the vectorized path is pinned against
  bit-for-bit and Stats-for-Stats in the test suite.  (Replay cost is
  column-flag-state dependent and reference batches interleave
  queries across shards nondeterministically, so Stats equality is
  pinned for serialized execution; the vector backend always charges
  the batch's deterministic sequential serialization.)

The table is **mutable and multi-tenant**:

* :meth:`BitwiseService.update_column` / :meth:`~BitwiseService.
  write_slice` / :meth:`~BitwiseService.append_rows` mutate column
  values in place.  Mutations are charged through the
  :class:`~repro.arch.writeback.ScrubAccountant` — dirty rows cost
  FeRAM TBA-write / DRAM restore energy, and query reads accrue
  disturb that triggers QNRO scrubs per the §II write-back economics —
  on a maintenance ledger separate from per-query compute costs.
  Values are applied copy-on-write (vector backend) or under a
  writer-preferring table lock whose read side spans each query
  batch's whole shard fan-out (reference backend), so concurrent
  queries keep serving a consistent pre-mutation snapshot — never a
  torn cross-shard mix.
* Result caching is **dependency-aware**: every cached result is
  indexed by the physical columns its plan reads, and a mutation only
  evicts dependent entries — cache hits survive writes to unrelated
  columns.  Per-column generation counters (plus a table-wide epoch
  bumped by row appends) keep results computed from a pre-mutation
  snapshot out of the cache.
* Tenant namespaces (:mod:`repro.service.tenancy`) map logical column
  names onto disjoint physical names in the shared store, with
  per-tenant bit/cache quotas; compiled plans are shared across
  tenants, caches and accounting are isolated.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.arch.bank import BitVector, pack_bits
from repro.arch.commands import Command, CommandType, Stats
from repro.arch.engine import BulkEngine
from repro.arch.expr import (
    Col,
    CompiledQuery,
    Expr,
    Match,
    _as_expr,
    canonical_key,
    compile_expr,
)
from repro.arch.primitives import default_spec, make_engine, plan_stats
from repro.arch.program import CompiledProgram, Program, ProgramCharge
from repro.arch.program import compile_program as _compile_program
from repro.arch.program import vector_payload
from repro.arch.spec import MemorySpec
from repro.arch.writeback import ScrubAccountant
from repro.errors import QueryError
from repro.service.columnstore import (
    ColumnStore,
    MatrixPool,
    PackedBits,
    dirty_word_indices,
    popcount_words,
    shard_spans,
)
from repro.service.durability import stats_to_dict
from repro.service.shard_workers import (
    ReplicaSet,
    SharedColumnStore,
    WorkerPool,
)
from repro.service.tenancy import (
    TenantState,
    TenantView,
    check_tenant_name,
    physical_name,
)

__all__ = ["BitwiseService", "QueryResult", "ProgramResult",
           "StatementStats", "MutationResult"]

_WORD_BITS = 64


@dataclass
class QueryResult:
    """Outcome of one query against the service.

    ``payload`` holds the result bits either as a flat 0/1 array or as
    a deferred :class:`~repro.service.columnstore.PackedBits` readout
    (the vector backend's native form — 8x smaller, and counting-only
    consumers never pay the unpack).  Access :attr:`bits` to
    materialize; the property memoizes in place.
    """

    query: str                      #: query as submitted
    key: str                        #: canonical (cache) key
    count: int | None               #: popcount of the result (functional)
    payload: object | None          #: result bits, flat or packed-lazy
    cache_hit: bool
    primitives_per_row: int         #: compiled native primitives / row
    naive_primitives_per_row: int   #: naive-chaining baseline / row
    energy_j: float                 #: attributed in-memory energy
    cycles: int                     #: attributed command cycles
    elapsed_s: float                #: host wall-clock (all shards)
    shards: int                     #: shards that executed the query
    detail: dict = field(default_factory=dict)

    @property
    def bits(self) -> np.ndarray | None:
        """Result bits (functional mode); unpacks lazily, memoized."""
        if isinstance(self.payload, PackedBits):
            self.payload = self.payload.unpack()
        return self.payload


@dataclass
class StatementStats:
    """Attributed cost of one program statement (all shards)."""

    index: int                  #: statement position in the program
    name: str                   #: assigned name
    query: str                  #: statement expression as compiled
    energy_j: float
    cycles: int
    stats: Stats                #: full attributed ledger delta


@dataclass
class ProgramResult:
    """Outcome of one multi-statement program run.

    ``payloads`` maps output names to flat 0/1 arrays or deferred
    :class:`~repro.service.columnstore.PackedBits` readouts; access
    :attr:`outputs` to materialize (memoized in place).  Per-statement
    attribution is lazy too: :attr:`statements` expands ``attribution``
    on first access (memoized in place).
    """

    key: str                        #: canonical program key
    payloads: dict | None           #: output bits per name, maybe packed
    counts: dict | None             #: output popcounts per name
    primitives_per_row: int         #: compiled native primitives / row
    naive_primitives_per_row: int   #: naive-chaining baseline / row
    energy_j: float                 #: attributed in-memory energy
    cycles: int                     #: attributed command cycles
    elapsed_s: float                #: host wall-clock
    shards: int
    backend: str
    #: ``(CompiledProgram, per-statement Stats)``, possibly shared
    #: with the program's charge memo — read through :attr:`statements`
    attribution: tuple = field(repr=False)
    detail: dict = field(default_factory=dict)
    _statements: list | None = field(default=None, init=False,
                                     repr=False, compare=False)

    @property
    def outputs(self) -> dict | None:
        """Output bits per name (functional); unpacks lazily."""
        if self.payloads is not None:
            for name, value in self.payloads.items():
                if isinstance(value, PackedBits):
                    self.payloads[name] = value.unpack()
        return self.payloads

    @property
    def statements(self) -> list[StatementStats]:
        """Attributed cost per statement; built lazily, memoized.

        Every result owns private Stats copies, so mutating them never
        reaches the memo other runs are charged from.
        """
        if self._statements is None:
            cprog, deltas = self.attribution
            self._statements = [
                StatementStats(index=index, name=name, query=query,
                               energy_j=stats.total_energy_j,
                               cycles=stats.total_cycles,
                               stats=stats.copy())
                for index, ((name, _), query, stats) in enumerate(zip(
                    cprog.stmt_plans, cprog.stmt_queries, deltas))]
        return self._statements


@dataclass
class MutationResult:
    """Outcome of one column mutation (update / slice write / append).

    ``rows_written`` counts the physical rows actually dirtied (a
    write of identical data dirties nothing); ``energy_j`` is the
    attributed TBA-write / restore energy of exactly those rows on the
    maintenance ledger.
    """

    op: str                          #: update | write_slice | append_rows
    column: str | None               #: logical name (None for appends)
    tenant: str | None
    offset: int                      #: first logical bit written
    n_bits: int                      #: logical bits covered by the write
    rows_written: int                #: dirty rows charged
    dirty_shards: int                #: shards with at least one dirty row
    energy_j: float                  #: maintenance energy of this write
    cycles: int
    invalidated: int                 #: cached results evicted
    columns_written: tuple[str, ...] = ()


def _payload_copy(payload):
    """Private copy of a result payload.

    Flat arrays are copied (holders may mutate them); a
    :class:`PackedBits` holder is shared as-is — its matrix is
    read-only and every ``.bits`` access materializes a fresh array,
    so sharers can never see each other's mutations.
    """
    if payload is None or isinstance(payload, PackedBits):
        return payload
    return payload.copy()


@dataclass
class _CacheEntry:
    result: QueryResult
    tenant: str | None = None
    cols: tuple[str, ...] = ()       #: physical column dependencies


class _RWLock:
    """Writer-preferring readers/writer lock.

    Reference-backend query batches hold the read side across their
    whole per-shard fan-out, so an in-place payload mutation (the
    write side) can never interleave mid-batch and hand a query a
    torn cross-shard mix of old and new bits.  Waiting writers block
    new readers, so a mutation cannot be starved by a query stream.
    """

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
            while self._readers or self._writer:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _Shard:
    """One engine slice: a private engine, its columns, and a lock."""

    def __init__(self, index: int, engine: BulkEngine,
                 span: tuple[int, int]) -> None:
        self.index = index
        self.engine = engine
        self.span = span            # [start, stop) bits of the table
        self.columns: dict[str, BitVector] = {}
        self.anchor: BitVector | None = None
        self.lock = threading.Lock()

    @property
    def n_bits(self) -> int:
        return self.span[1] - self.span[0]


class BitwiseService:
    """A served table of bit columns with compiled bulk-bitwise queries.

    Parameters
    ----------
    technology:
        ``"feram-2tnc"`` (default) or ``"dram"``.
    n_bits:
        Table width — every column holds this many bits.
    n_shards:
        Slices the table is striped over (word-aligned spans); widths
        below ``64 * n_shards`` use fewer shards.
    functional:
        Bit-exact payloads (default).  ``False`` runs counting-mode
        accounting only (GB-scale tables).
    cache_size:
        LRU result-cache capacity (0 disables caching).
    backend:
        ``"vector"`` (default) executes compiled plans as whole-matrix
        numpy kernels with closed-form cost accounting;
        ``"reference"`` replays plans on per-shard engines (the pinned
        ground truth).
    """

    def __init__(self, technology: str = "feram-2tnc", *,
                 n_bits: int, n_shards: int = 4,
                 functional: bool = True,
                 spec: MemorySpec | None = None,
                 cache_size: int = 64,
                 max_workers: int | None = None,
                 backend: str = "vector",
                 capacity: int | None = None,
                 fuse: bool = True,
                 workers: int | None = None,
                 replicas: int = 0) -> None:
        if n_bits <= 0:
            raise QueryError("table width must be positive")
        if n_shards <= 0:
            raise QueryError("need at least one shard")
        if backend not in ("vector", "reference"):
            raise QueryError(f"unknown backend {backend!r} "
                             "(expected 'vector' or 'reference')")
        self.technology = technology
        self.backend = backend
        #: multi-process shard workers (1 = in-process serial)
        self.workers = max(1, int(workers)) if workers is not None else 1
        #: read replicas of the shared store (0 = primary-only reads)
        self.replicas = max(0, int(replicas))
        self.n_bits = int(n_bits)
        #: physical table width the shard geometry covers; the logical
        #: width can grow up to this via append_rows without resharding
        self.capacity = int(capacity if capacity is not None else n_bits)
        if self.capacity < self.n_bits:
            raise QueryError(
                f"capacity {self.capacity} < table width {n_bits}")
        self.functional = functional
        self._spec = spec or default_spec(technology)
        spans = shard_spans(self.capacity, n_shards)
        self._spans = spans
        self.n_shards = len(spans)
        self._shard_rows = tuple(
            (stop - start + self._spec.row_bits - 1)
            // self._spec.row_bits
            for start, stop in spans)
        if backend == "reference":
            self._shards = [
                _Shard(i, make_engine(technology, functional=functional,
                                      spec=spec), span)
                for i, span in enumerate(spans)
            ]
            self._inverting = self._shards[0].engine._native_inverting()
            self._pool = ThreadPoolExecutor(
                max_workers=max_workers or self.n_shards,
                thread_name_prefix="bitwise-shard")
            self._store = None
        else:
            # Columnar state: the packed store plus per-shard analytic
            # ledgers that mirror what per-shard engines would record.
            if spec is not None and spec.technology != technology:
                raise QueryError(
                    f"spec {spec.name!r} is not a {technology!r} spec")
            self._shards = []
            self._pool = None
            # Shared-memory store when process workers or replicas are
            # requested: same geometry and packing, but matrices live
            # in shm segments that worker processes map zero-copy.
            if functional:
                store_cls = SharedColumnStore \
                    if (self.workers > 1 or self.replicas > 0) \
                    else ColumnStore
                self._store = store_cls(self.n_bits, n_shards,
                                        capacity=self.capacity)
            else:
                self._store = None
            self._ledger = Stats()  # merged analytic engine ledger
            self._tba_offsets = [0] * len(spans)
            # Complement-flag encodings the reference engines would
            # leave each column in (parity steering re-encodes columns
            # persistently); evolution is identical on every shard, so
            # one flag per column drives the state-aware coster.
            self._col_flags: dict[str, bool] = {}
            self._rows_used = 0
            shape = self._store.shape if self._store is not None else \
                (self.n_shards, 1)
            self._matrix_pool = MatrixPool(shape)
            self._inverting = self._spec.technology == "feram-2tnc"
        #: run peephole-fused bytecode on the vector backend
        self.fuse = bool(fuse)
        #: the store is a SharedColumnStore (process workers/replicas)
        self._shared_store = isinstance(self._store, SharedColumnStore)
        self._worker_pool: WorkerPool | None = None
        self._worker_pool_lock = threading.Lock()
        # Cost heuristic floor for going multi-process: matrix bytes ×
        # plan steps must clear this before scatter/gather pays for
        # itself.  Instance attribute so tests/benchmarks can force
        # either mode.
        self._parallel_min_work = 64 << 20
        self._stats_lock = threading.Lock()
        # Guards table payloads: query batches hold the read side
        # across execution, in-place mutations the write side.  The
        # plain (non-shared) vector store mutates copy-on-write and
        # needs no read side; the shared store writes dirty words in
        # place and reuses this lock as its snapshot barrier.
        self._table_rw = _RWLock()
        #: per-tenant generation fences: tenant -> {physical: last
        #: write generation} — a replica may serve the tenant only at
        #: or past its own writes (read-your-writes)
        self._fences: dict[str | None, dict[str, int]] = {}
        self.replica_reads = 0
        self._replica_set: ReplicaSet | None = None
        if self._shared_store and self.replicas > 0:
            self._replica_set = ReplicaSet(
                self._store, self.replicas,
                read_lock=self._table_rw.read,
                forget=self._forget_segment)
        # Mutation-path maintenance ledger: dirty-row write charges and
        # read-disturb scrub economics (see arch/writeback.py), kept
        # separate from the compute ledger and identical on both
        # backends (guarded by _stats_lock).
        self._writeback = ScrubAccountant(self._spec, self._shard_rows)
        #: physical column registry (all tenants)
        self._columns: dict[str, int] = {}
        #: tenant namespaces; None is the default/public namespace
        self._tenants: dict[str | None, TenantState] = {
            None: TenantState(None)}
        # Serializes table DDL (create/drop): concurrent clients of the
        # threaded TCP server must not interleave the check-then-act on
        # self._columns (a lost race would overwrite shard vectors and
        # leak allocator rows).
        self._table_lock = threading.RLock()
        # Plan caches, all LRU-bounded (distinct queries must not grow
        # memory forever) and guarded by _plans_lock: compiled plans by
        # canonical key, plus a text-level shortcut so repeated query
        # strings skip the parse / canonicalize round-trip entirely.
        self._plans: OrderedDict[str, CompiledQuery] = OrderedDict()
        self._plans_cap = 1024
        self._plans_by_text: OrderedDict[str, CompiledQuery] = \
            OrderedDict()
        self._plans_by_text_cap = 1024
        self._plans_lock = threading.Lock()
        # Compiled multi-statement programs, keyed by the program's
        # structural signature.  Small LRU: programs are large (one
        # CompiledQuery per statement) but few and long-lived.
        self._program_plans: OrderedDict[str, CompiledProgram] = \
            OrderedDict()
        self._program_plans_cap = 8
        self._cache: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._cache_size = int(cache_size)
        self._cache_lock = threading.Lock()
        # Dependency-aware invalidation state (all under _cache_lock):
        # mutations bump the mutated column's generation and evict only
        # the cached results whose plans read it; appends bump the
        # table-wide epoch (every column's value/width changes).
        self._dep_index: dict[str, set[str]] = {}
        self._col_generation: dict[str, int] = {}
        self._epoch = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.queries_served = 0
        self.programs_run = 0
        self.mutations_applied = 0
        # Durability: attach_durability() installs a DurabilityManager
        # that logs every mutation barrier / tenant delta ahead of its
        # state change and snapshots the packed store periodically.
        self._durability = None
        self._closed = False

    # ------------------------------------------------------------------
    # sharding geometry
    # ------------------------------------------------------------------
    @staticmethod
    def _spans(n_bits: int, n_shards: int) -> list[tuple[int, int]]:
        """Word-aligned contiguous shard spans covering ``n_bits``."""
        return shard_spans(n_bits, n_shards)

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, *,
                        quota_bits: int | None = None,
                        quota_energy_nj: float | None = None,
                        cache_entries: int | None = None,
                        max_pending: int | None = None) -> TenantState:
        """Create (or re-configure) a tenant namespace with quotas."""
        check_tenant_name(name)
        with self._table_lock:
            self._log_wal({
                "kind": "tenant", "name": name,
                "quota_bits": quota_bits,
                "quota_energy_nj": quota_energy_nj,
                "cache_entries": cache_entries,
                "max_pending": max_pending})
            state = self._tenants.setdefault(name, TenantState(name))
            state.quota_bits = quota_bits
            state.quota_energy_nj = quota_energy_nj
            state.cache_entries = cache_entries
            state.max_pending = max_pending
            return state

    def tenant(self, name: str | None = None) -> TenantView:
        """A facade binding the service API to one tenant namespace."""
        if name is not None:
            self.tenant_state(name)  # validate + auto-register
        return TenantView(self, name)

    def tenant_state(self, tenant: str | None) -> TenantState:
        """The (auto-created) bookkeeping record of a namespace.

        Lock-free fast path for known tenants: the async server calls
        this from the event-loop thread (admission checks), which must
        never queue behind a long-running mutation's table lock.
        States are created once and never removed, so the dict read is
        safe without the lock."""
        state = self._tenants.get(tenant)
        if state is not None:
            return state
        with self._table_lock:
            state = self._tenants.get(tenant)
            if state is None:
                check_tenant_name(tenant)
                state = self._tenants[tenant] = TenantState(tenant)
            return state

    def tenant_columns(self, tenant: str | None) -> tuple[str, ...]:
        return tuple(self.tenant_state(tenant).columns)

    def _resolve(self, tenant: str | None, name: str) -> str:
        """Physical name of an existing tenant column."""
        return self.tenant_state(tenant).resolve(name)

    def _colmap(self, tenant: str | None, cols) -> dict[str, str]:
        """logical -> physical map for a plan's columns (all bound)."""
        state = self.tenant_state(tenant)
        unknown = [c for c in cols if c not in state.columns]
        if unknown:
            label = "" if tenant is None else f" for tenant {tenant!r}"
            raise QueryError(f"unbound column(s){label}: {unknown}")
        return {c: state.columns[c] for c in cols}

    # ------------------------------------------------------------------
    # column management
    # ------------------------------------------------------------------
    def create_column(self, name: str, bits: np.ndarray | None = None,
                      *, tenant: str | None = None) -> None:
        """Ingest a column (host row writes are charged to each shard).

        ``bits`` may be omitted in counting mode (placeholder rows).
        Creation never invalidates cached results: no cached plan can
        reference a column that did not exist when it was compiled."""
        self._ensure_open()
        with self._table_lock:
            state = self.tenant_state(tenant)
            physical = physical_name(tenant, name)
            if name in state.columns or physical in self._columns:
                raise QueryError(f"column {name!r} already exists")
            state.check_bit_quota(self.capacity)
            if bits is not None:
                bits = np.asarray(bits).astype(np.uint8)
                if bits.ndim != 1 or bits.size != self.n_bits:
                    raise QueryError(
                        f"column {name!r} must be a flat array of "
                        f"{self.n_bits} bits, got shape {bits.shape}")
            elif self.functional:
                raise QueryError(
                    "functional service requires explicit column bits")
            self._log_wal({"kind": "create", "tenant": tenant,
                           "name": name}, bits)
            event = None
            if self.backend == "vector":
                if self._store is not None:
                    event = self._store.add(physical, bits)
                with self._stats_lock:
                    if self.functional:
                        # Mirror the reference path exactly: only a
                        # functional load charges host row writes
                        # (counting-mode allocate charges nothing).
                        self._ledger.record(
                            self._spec,
                            Command(CommandType.ROW_WRITE,
                                    repeat=sum(self._shard_rows)))
                    self._rows_used += sum(self._shard_rows)
                    self._col_flags[physical] = False
            else:
                padded = None
                if self.functional:
                    padded = np.zeros(self.capacity, dtype=np.uint8)
                    padded[: self.n_bits] = bits
                for shard in self._shards:
                    start, stop = shard.span
                    with shard.lock:
                        if self.functional:
                            vec = shard.engine.load(
                                padded[start:stop], physical,
                                group_with=shard.anchor)
                        else:
                            vec = shard.engine.allocate(
                                stop - start, physical,
                                group_with=shard.anchor)
                        shard.anchor = shard.anchor or vec
                        shard.columns[physical] = vec
            self._columns[physical] = self.n_bits
            state.columns[name] = physical
            self._publish_event(event)
            self._maybe_checkpoint()

    def random_column(self, name: str, density: float = 0.5,
                      seed: int | None = None, *,
                      tenant: str | None = None) -> None:
        """Convenience: a random column with the given 1-density."""
        if self.functional:
            rng = np.random.default_rng(seed)
            self.create_column(
                name, (rng.random(self.n_bits) < density).astype(np.uint8),
                tenant=tenant)
        else:
            self.create_column(name, tenant=tenant)

    def drop_column(self, name: str, *,
                    tenant: str | None = None) -> None:
        self._ensure_open()
        with self._table_lock:
            state = self.tenant_state(tenant)
            physical = state.resolve(name)
            self._log_wal({"kind": "drop", "tenant": tenant,
                           "name": name})
            event = None
            if self.backend == "vector":
                if self._store is not None:
                    event = self._store.drop(physical)
                with self._stats_lock:
                    self._rows_used -= sum(self._shard_rows)
                    self._col_flags.pop(physical, None)
            else:
                for shard in self._shards:
                    with shard.lock:
                        vec = shard.columns.pop(physical)
                        shard.engine.free(vec)
                        if shard.anchor is vec:
                            shard.anchor = next(
                                iter(shard.columns.values()), None)
            del self._columns[physical]
            del state.columns[name]
            with self._stats_lock:
                self._writeback.forget(physical)
            self._invalidate_columns((physical,))
            self._publish_event(event)
            self._maybe_checkpoint()

    @property
    def columns(self) -> tuple[str, ...]:
        """Logical column names of the default (public) namespace."""
        return self.tenant_columns(None)

    def column_bits(self, name: str, *, tenant: str | None = None,
                    ) -> np.ndarray | None:
        """Current logical value of a column (functional mode)."""
        physical = self._resolve(tenant, name)
        if not self.functional:
            return None
        if self.backend == "vector":
            return self._store.bits(physical)
        return self._physical_bits(physical)

    def _physical_bits(self, physical: str) -> np.ndarray:
        """Reference-backend readout, sliced to the logical width."""
        parts = []
        with self._table_rw.read():
            for shard in self._shards:
                with shard.lock:
                    parts.append(shard.columns[physical].logical_bits()
                                 [: shard.n_bits])
        return np.concatenate(parts)[: self.n_bits]

    # ------------------------------------------------------------------
    # column mutation
    # ------------------------------------------------------------------
    def update_column(self, name: str,
                      bits: np.ndarray | None = None, *,
                      tenant: str | None = None) -> MutationResult:
        """Replace a column's value in place.

        Only the rows whose content actually changes are dirtied and
        charged (TBA-write / restore energy on the maintenance
        ledger); cached results whose plans read this column are
        evicted, everything else survives.  In counting mode ``bits``
        is omitted and the full width is charged."""
        if self.functional:
            if bits is None:
                raise QueryError(
                    "functional service requires explicit column bits")
            return self._mutate("update", name, 0, bits, tenant=tenant)
        return self._mutate("update", name, 0, self.n_bits,
                            tenant=tenant)

    def write_slice(self, name: str, offset: int,
                    bits: "np.ndarray | int", *,
                    tenant: str | None = None) -> MutationResult:
        """Overwrite ``bits`` starting at logical position ``offset``.

        ``bits`` is a 0/1 array (functional mode) or a plain bit count
        (counting mode, where only the touched rows are charged)."""
        return self._mutate("write_slice", name, offset, bits,
                            tenant=tenant)

    def _mutate(self, op: str, name: str, offset: int,
                bits: "np.ndarray | int", *,
                tenant: str | None) -> MutationResult:
        self._ensure_open()
        with self._table_lock:
            state = self.tenant_state(tenant)
            physical = state.resolve(name)
            if isinstance(bits, (int, np.integer)):
                if self.functional:
                    raise QueryError(
                        "functional service requires explicit bits")
                size = int(bits)
                values = None
            else:
                values = np.asarray(bits).astype(np.uint8)
                if values.ndim != 1:
                    raise QueryError(
                        f"write needs a flat 0/1 array, got shape "
                        f"{values.shape}")
                size = values.size
            offset = int(offset)
            if size <= 0 or offset < 0 or offset + size > self.n_bits:
                raise QueryError(
                    f"write [{offset}, {offset + size}) outside table "
                    f"[0, {self.n_bits})")
            self._log_wal({"kind": op, "tenant": tenant, "name": name,
                           "offset": offset}, values)
            if self.functional:
                old = self._current_bits(physical)
                new = old.copy()
                new[offset:offset + size] = values
                words = dirty_word_indices(old, new, offset,
                                           offset + size)
                rows_by_shard = self._rows_by_shard_words(words)
                event = self._apply_bits(physical, new)
                self._publish_event(event, tenant=tenant,
                                    physical=physical)
            else:
                rows_by_shard = self._rows_by_shard_span(
                    offset, offset + size)
                self._normalize_encoding((physical,))
            with self._stats_lock:
                delta = self._writeback.note_write(physical,
                                                   rows_by_shard)
                state.charge_energy(delta.total_energy_j)
            evicted = self._invalidate_columns((physical,))
            self.mutations_applied += 1
            self._maybe_checkpoint()
        return MutationResult(
            op=op, column=name, tenant=tenant, offset=offset,
            n_bits=size, rows_written=sum(rows_by_shard),
            dirty_shards=sum(1 for rows in rows_by_shard if rows),
            energy_j=delta.total_energy_j,
            cycles=delta.total_cycles, invalidated=evicted,
            columns_written=(name,))

    def append_rows(self, values=None, n: int | None = None, *,
                    tenant: str | None = None) -> MutationResult:
        """Grow the table by ``n`` logical rows (up to the capacity).

        Every column gains ``n`` bits: columns named in ``values``
        (logical name -> appended 0/1 array) get those bits; all
        others are zero-filled (free — the allocator hands out erased
        rows).  Only explicitly written rows are charged.  Appends
        re-encode every column to the plain polarity and invalidate
        the whole result cache (every column's width changed)."""
        self._ensure_open()
        with self._table_lock:
            state = self.tenant_state(tenant)
            arrays: dict[str, np.ndarray | None] = {}
            for logical, bits in dict(values or {}).items():
                physical = state.resolve(logical)
                if bits is None:
                    arrays[physical] = None
                else:
                    arr = np.asarray(bits).astype(np.uint8)
                    if arr.ndim != 1:
                        raise QueryError(
                            f"appended bits for {logical!r} must be a "
                            f"flat 0/1 array, got shape {arr.shape}")
                    arrays[physical] = arr
            sizes = {arr.size for arr in arrays.values()
                     if arr is not None}
            if n is None:
                if len(sizes) != 1:
                    raise QueryError(
                        "append_rows needs n= or uniformly sized "
                        "values")
                n = sizes.pop()
            n = int(n)
            if n <= 0:
                raise QueryError("must append at least one row")
            if sizes and sizes != {n}:
                raise QueryError(
                    f"appended value sizes {sorted(sizes)} != n={n}")
            if self.functional and any(arr is None
                                       for arr in arrays.values()):
                raise QueryError(
                    "functional service requires explicit bits")
            old_n, new_n = self.n_bits, self.n_bits + n
            if new_n > self.capacity:
                raise QueryError(
                    f"append of {n} rows exceeds capacity "
                    f"{self.capacity} (logical width {old_n})")
            if self._durability is not None:
                logicals = list(dict(values or {}))
                self._log_wal(
                    {"kind": "append", "tenant": tenant, "n": n,
                     "names": logicals},
                    [arrays[state.resolve(logical)]
                     for logical in logicals] or None)
            per_column: dict[str, list[int]] = {}
            news: dict[str, np.ndarray] = {}
            if self.functional:
                for physical, arr in arrays.items():
                    old_full = np.zeros(new_n, dtype=np.uint8)
                    old_full[:old_n] = self._current_bits(physical)
                    new_full = old_full.copy()
                    new_full[old_n:new_n] = arr
                    words = dirty_word_indices(old_full, new_full,
                                               old_n, new_n)
                    per_column[physical] = \
                        self._rows_by_shard_words(words)
                    news[physical] = new_full
            else:
                span_rows = self._rows_by_shard_span(old_n, new_n)
                per_column = dict.fromkeys(arrays, span_rows)
            self.n_bits = new_n
            resize_event = None
            if self._store is not None:
                if self._shared_store:
                    # Readers consult the mask during popcounts; the
                    # in-place mask rewrite needs the write barrier.
                    with self._table_rw.write():
                        resize_event = self._store.resize(new_n)
                else:
                    self._store.resize(new_n)
            set_events = self._apply_append(news)
            self._publish_event(resize_event)
            for physical, event in set_events:
                self._publish_event(event, tenant=tenant,
                                    physical=physical)
            for physical in self._columns:
                self._columns[physical] = new_n
            total = Stats()
            with self._stats_lock:
                for physical, rows_by_shard in per_column.items():
                    total.iadd(self._writeback.note_write(
                        physical, rows_by_shard))
                state.charge_energy(total.total_energy_j)
            evicted = self._invalidate_all()
            self.mutations_applied += 1
            self._maybe_checkpoint()
        rows_by_shard = [0] * self.n_shards
        for shard_rows in per_column.values():
            for index, rows in enumerate(shard_rows):
                rows_by_shard[index] += rows
        return MutationResult(
            op="append_rows", column=None, tenant=tenant,
            offset=old_n, n_bits=n,
            rows_written=sum(rows_by_shard),
            dirty_shards=sum(1 for rows in rows_by_shard if rows),
            energy_j=total.total_energy_j,
            cycles=total.total_cycles, invalidated=evicted,
            columns_written=tuple(dict(values or {})))

    # -- mutation plumbing ---------------------------------------------
    def _current_bits(self, physical: str) -> np.ndarray:
        if self.backend == "vector":
            return self._store.bits(physical)
        return self._physical_bits(physical)

    def _rewrite_reference_payload(self, physical: str,
                                   padded: np.ndarray) -> None:
        """In-place payload rewrite, plain-encoded (write lock held)."""
        row_bits = self._spec.row_bits
        for shard in self._shards:
            start, stop = shard.span
            vec = shard.columns[physical]
            grid = np.zeros(vec.n_rows * row_bits, dtype=np.uint8)
            grid[: stop - start] = padded[start:stop]
            vec.payload = pack_bits(grid, row_bits)
            vec.complemented = False

    def _apply_bits(self, physical: str, new: np.ndarray):
        """Bind a column to a new logical value, plain-encoded.

        Vector backend: copy-on-write matrix rebind (snapshots keep
        the old view) — except the shared store, which writes the
        dirty-word diff in place under the table write lock (query
        batches hold the read side across execution) and returns the
        replica event for the caller to publish *after* this returns,
        outside the write lock.  Reference backend: in-place payload
        rewrite under the same write lock — stat-neutral (host
        simulation of the TBA write whose energy the accountant
        charges analytically), and atomic against in-flight query
        batches, which hold the read side across their whole shard
        fan-out."""
        if self.backend == "vector":
            if self._shared_store:
                with self._table_rw.write():
                    event = self._store.set(physical, new)
            else:
                self._store.set(physical, new)
                event = None
            with self._stats_lock:
                self._col_flags[physical] = False
            return event
        padded = np.zeros(self.capacity, dtype=np.uint8)
        padded[: new.size] = new
        with self._table_rw.write():
            self._rewrite_reference_payload(physical, padded)
        return None

    def _normalize_encoding(self, physicals) -> None:
        """Force columns to the plain (non-complemented) encoding."""
        if self.backend == "vector":
            with self._stats_lock:
                for physical in physicals:
                    if physical in self._col_flags:
                        self._col_flags[physical] = False
            return
        with self._table_rw.write():
            for shard in self._shards:
                for physical in physicals:
                    vec = shard.columns.get(physical)
                    if vec is not None and vec.complemented:
                        if vec.payload is not None:
                            vec.payload = ~vec.payload
                        vec.complemented = False

    def _apply_append(self, news: dict[str, np.ndarray]
                      ) -> list[tuple[str, tuple | None]]:
        """Write appended values and re-encode every column plain.

        Returns the shared-store replica events (empty otherwise)."""
        events: list[tuple[str, tuple | None]] = []
        if self.backend == "vector":
            for physical, new in news.items():
                event = self._apply_bits(physical, new)
                if event is not None:
                    events.append((physical, event))
        else:
            # One atomic critical section for the whole append.
            with self._table_rw.write():
                for physical, new in news.items():
                    padded = np.zeros(self.capacity, dtype=np.uint8)
                    padded[: new.size] = new
                    self._rewrite_reference_payload(physical, padded)
        others = [physical for physical in self._columns
                  if physical not in news]
        self._normalize_encoding(others)
        return events

    def _publish_event(self, event: tuple | None, *,
                       tenant: str | None = None,
                       physical: str | None = None) -> None:
        """Forward a shared-store mutation event to the replicas.

        Must be called with the table write lock *released*: a full
        replica queue blocks the publisher until the applier drains,
        and the applier takes the table read lock for structural
        catch-up copies.  ``set`` events also advance the mutating
        tenant's generation fence (read-your-writes)."""
        if event is None or not self._shared_store:
            return
        if self._replica_set is not None:
            if event[0] == "set" and physical is not None:
                self._fences.setdefault(tenant, {})[physical] = event[2]
            elif event[0] == "drop":
                # A recreated physical restarts its generation at 1;
                # a stale fence would refuse every replica for that
                # tenant forever (and the dict would grow unboundedly).
                for fence in self._fences.values():
                    fence.pop(event[1], None)
            self._replica_set.publish(event)
        elif event[0] == "drop":
            self._forget_segment(event[3])

    def _forget_segment(self, segment_name: str) -> None:
        pool = self._worker_pool
        if pool is not None:
            pool.forget(segment_name)

    def _get_worker_pool(self) -> WorkerPool:
        pool = self._worker_pool
        if pool is None:
            with self._worker_pool_lock:
                pool = self._worker_pool
                if pool is None:
                    pool = WorkerPool(self._store.shape,
                                      workers=self.workers)
                    self._worker_pool = pool
        return pool

    def _use_process_pool(self, program) -> bool:
        """Scatter to shard workers only when configured and worth it:
        matrix bytes × plan steps must clear ``_parallel_min_work`` —
        below that, pipe round-trips cost more than they save."""
        if self.workers <= 1 or not self._shared_store:
            return False
        shape = self._store.shape
        if shape[0] < 2:
            return False
        work = shape[0] * shape[1] * 8 * max(1, len(program.steps))
        return work >= self._parallel_min_work

    def _rows_by_shard_words(self, words: np.ndarray) -> list[int]:
        """Dirty physical rows per shard for changed word indices."""
        rows = [0] * self.n_shards
        if len(words) == 0:
            return rows
        starts = np.array([start for start, _ in self._spans],
                          dtype=np.int64)
        bitpos = np.asarray(words, dtype=np.int64) * _WORD_BITS
        shard = np.searchsorted(starts, bitpos, side="right") - 1
        row = (bitpos - starts[shard]) // self._spec.row_bits
        keys = shard * (self.capacity // self._spec.row_bits + 2) + row
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        for index in shard[fresh]:
            rows[index] += 1
        return rows

    def _rows_by_shard_span(self, lo: int, hi: int) -> list[int]:
        """Rows per shard overlapping logical bit span ``[lo, hi)``."""
        rows = []
        row_bits = self._spec.row_bits
        for start, stop in self._spans:
            a, b = max(lo, start), min(hi, stop)
            rows.append(0 if a >= b else
                        (b - 1 - start) // row_bits
                        - (a - start) // row_bits + 1)
        return rows

    # ------------------------------------------------------------------
    # payload readout
    # ------------------------------------------------------------------
    #: max bits per read_bits page — a readout op must stay cheap (it
    #: serializes behind the tenant's scheduler barrier); clients page
    MAX_PAGE_BITS = 1 << 20

    def _read_page(self, name: str, offset: int, limit: int,
                   tenant: str | None) -> tuple[np.ndarray, int, str]:
        """Shared page readout core: ``(page_bits, total, source)``."""
        self._ensure_open()
        offset, limit = int(offset), int(limit)
        if offset < 0 or limit < 0:
            raise QueryError("offset and limit must be non-negative")
        if limit > self.MAX_PAGE_BITS:
            raise QueryError(
                f"page limit {limit} > {self.MAX_PAGE_BITS}; "
                f"fetch payloads in pages")
        state = self.tenant_state(tenant)
        if name in state.columns:
            bits = self.column_bits(name, tenant=tenant)
            source = "column"
        else:
            entry = self._cache_peek(self._cache_scope(tenant, name))
            if entry is None:
                raise QueryError(
                    f"no column or cached result {name!r}")
            bits = entry.result.bits
            source = "result"
        if bits is None:
            raise QueryError(
                f"{name!r} has no payload (counting mode)")
        return bits[offset:offset + limit], int(bits.size), source

    def read_bits(self, name: str, offset: int = 0, limit: int = 64,
                  *, tenant: str | None = None) -> dict:
        """Paginated payload readout of a column or cached result.

        ``name`` is a tenant-logical column name, or the canonical
        ``key`` of a previously returned (and still cached) query
        result.  Returns a JSON-safe page: the bits as a ``"0101..."``
        string plus the total payload width."""
        page, total, source = self._read_page(name, offset, limit,
                                              tenant)
        text = (np.minimum(page.astype(np.uint8), 1)
                + ord("0")).tobytes().decode("ascii")
        return {
            "name": name, "source": source, "offset": int(offset),
            "limit": int(limit), "total": total,
            "bits": text,
        }

    def read_bits_array(self, name: str, offset: int = 0,
                        limit: int = 64, *,
                        tenant: str | None = None) -> dict:
        """Like :meth:`read_bits`, but the page stays a 0/1 array.

        Serving path for the binary wire protocol: the page is packed
        straight into a frame payload with no text round-trip."""
        page, total, source = self._read_page(name, offset, limit,
                                              tenant)
        return {
            "name": name, "source": source, "offset": int(offset),
            "limit": int(limit), "total": total,
            "bits": np.minimum(page.astype(np.uint8), 1),
        }

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    @staticmethod
    def _lru_get(cache: OrderedDict, key):
        """Cached value or None, refreshing recency (caller locks)."""
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value

    @staticmethod
    def _lru_put(cache: OrderedDict, key, value, cap: int):
        """Insert unless present (first writer wins), evict the least
        recently used past ``cap``; returns the cached value."""
        value = cache.setdefault(key, value)
        cache.move_to_end(key)
        while len(cache) > cap:
            cache.popitem(last=False)
        return value

    def compile(self, query: "Expr | str") -> CompiledQuery:
        """Compile (or fetch the cached plan for) a query."""
        text = query if isinstance(query, str) else None
        if text is not None:
            with self._plans_lock:
                plan = self._lru_get(self._plans_by_text, text)
            if plan is not None:
                return plan
        expr = _as_expr(query)
        key = canonical_key(expr)
        with self._plans_lock:
            plan = self._lru_get(self._plans, key)
        if plan is None:
            plan = compile_expr(expr, inverting=self._inverting)
        with self._plans_lock:
            plan = self._lru_put(self._plans, key, plan, self._plans_cap)
            if text is not None:
                self._lru_put(self._plans_by_text, text, plan,
                              self._plans_by_text_cap)
        return plan

    def query(self, query: "Expr | str", *,
              use_cache: bool = True,
              tenant: str | None = None) -> QueryResult:
        """Execute one query (see :meth:`execute` for batches)."""
        return self.execute([query], use_cache=use_cache,
                            tenant=tenant)[0]

    def match(self, cols, key, mask=None, *,
              use_cache: bool = True,
              tenant: str | None = None) -> QueryResult:
        """CAM search: rows where the named columns equal ``key``.

        ``key``/``mask`` follow :class:`repro.arch.expr.Match` — the
        key maps positionally onto ``cols`` (``"1x0"``-style strings
        use ``x`` for don't-care; bit sequences use ``None``), and
        ``mask`` bit 1 marks a compared position.  The search lowers
        to the ordinary AIG/bytecode pipeline, so caching, batching,
        and the closed-form per-search energy all apply unchanged.
        """
        exprs = [Col(c) if isinstance(c, str) else c for c in cols]
        return self.query(Match(*exprs, key=key, mask=mask),
                          use_cache=use_cache, tenant=tenant)

    def execute(self, queries, *,
                use_cache: bool = True,
                tenant: str | None = None,
                tenants=None) -> list[QueryResult]:
        """Execute a batch of queries.

        The vector backend runs each distinct uncached plan as one
        sequence of whole-matrix numpy kernels (all shards at once,
        sub-expressions shared across the batch within each tenant);
        the reference backend fans every (query, shard) pair onto a
        thread pool behind per-shard locks.  Results are attributed
        per query (energy, cycles, native primitives) and cached by
        canonical key (tenant-scoped) on both paths.

        ``tenant`` binds the whole batch to one namespace;
        ``tenants`` (aligned with ``queries``) lets the async
        scheduler coalesce queries from different tenants into one
        vector batch.
        """
        self._ensure_open()
        queries = list(queries)
        if tenants is None:
            tenant_list: list[str | None] = [tenant] * len(queries)
        else:
            tenant_list = list(tenants)
            if len(tenant_list) != len(queries):
                raise QueryError("tenants must align with queries")
        plans: list[tuple[str, CompiledQuery | None, QueryResult | None]]
        plans = []
        pending: dict[str, dict] = {}
        for position, (query, owner) in enumerate(
                zip(queries, tenant_list)):
            text = query if isinstance(query, str) else str(query)
            plan = self.compile(query)
            colmap = self._colmap(owner, plan.cols)
            ckey = self._cache_scope(owner, plan.key)
            cached = self._cache_get(ckey) if use_cache else None
            if cached is not None:
                entry = cached.result
                # Fresh bits/detail per hit: a caller mutating its
                # result must not poison the cached copy (or vice
                # versa).
                result = QueryResult(**{
                    **entry.__dict__,
                    "query": text, "cache_hit": True,
                    "payload": _payload_copy(entry.payload),
                    "detail": dict(entry.detail),
                    "energy_j": 0.0, "cycles": 0, "elapsed_s": 0.0,
                })
                plans.append((text, None, result))
                continue
            plans.append((text, plan, None))
            item = pending.setdefault(ckey, {
                "plan": plan, "tenant": owner, "colmap": colmap,
                "positions": []})
            item["positions"].append(position)

        # The snapshot keeps a result computed before a concurrent
        # column mutation out of the (already invalidated) cache:
        # epoch catches table-wide appends, per-column generations
        # catch drops/updates of exactly the columns this plan read.
        with self._cache_lock:
            snapshot = (self._epoch, {
                physical: self._col_generation.get(physical, 0)
                for item in pending.values()
                for physical in item["colmap"].values()})
        if self.backend == "vector":
            outputs = self._run_batch_vector(pending)
        else:
            outputs = self._run_batch_reference(pending)

        results: list[QueryResult | None] = [entry[2] for entry in plans]
        for ckey, item in pending.items():
            positions = item["positions"]
            plan = item["plan"]
            text = plans[positions[0]][0]
            payload, count, delta, elapsed = outputs[ckey][:4]
            # Bounded-stale replica reads append cacheable=False: the
            # cache snapshot carries primary generations, so caching
            # them would make the staleness permanent.
            cacheable = len(outputs[ckey]) < 5 or outputs[ckey][4]
            result = QueryResult(
                query=text, key=plan.key, count=count, payload=payload,
                cache_hit=False,
                primitives_per_row=plan.primitives,
                naive_primitives_per_row=plan.naive_primitives,
                energy_j=delta.total_energy_j,
                cycles=delta.total_cycles,
                elapsed_s=elapsed,
                shards=self.n_shards,
                detail=delta.summary(),
            )
            if use_cache and cacheable:
                self._cache_put(ckey, result, snapshot, item["tenant"],
                                tuple(item["colmap"].values()))
            results[positions[0]] = result
            # Canonically-equal duplicates in the batch get their own
            # result objects: correct query label, private bits.
            for position in positions[1:]:
                results[position] = QueryResult(**{
                    **result.__dict__,
                    "query": plans[position][0],
                    "payload": _payload_copy(result.payload),
                    "detail": dict(result.detail),
                })
        # Disturb accounting: each executed plan activates its
        # referenced columns' rows once (cache hits are served from
        # the host cache and accrue no disturb — the QNRO win).
        # Energy quotas accrue here too: one charge per *executed*
        # plan to its owner (batch duplicates share the execution;
        # cache hits spend nothing).
        if pending:
            with self._stats_lock:
                charged = []
                for ckey, item in pending.items():
                    for physical in item["colmap"].values():
                        self._writeback.note_read(physical)
                    energy = outputs[ckey][2].total_energy_j
                    self.tenant_state(item["tenant"]).charge_energy(
                        energy)
                    charged.append({
                        "tenant": item["tenant"],
                        "energy_j": energy,
                        "cols": list(item["colmap"].values())})
                if self._durability is not None:
                    self._log_charges_locked(charged, pending, outputs)
        with self._cache_lock:
            self.queries_served += len(plans)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # multi-statement programs
    # ------------------------------------------------------------------
    def compile_program(self, program: Program) -> CompiledProgram:
        """Compile (or fetch the cached plan for) a program."""
        signature = program.signature
        with self._plans_lock:
            cprog = self._lru_get(self._program_plans, signature)
        if cprog is not None:
            return cprog
        cprog = _compile_program(program, inverting=self._inverting)
        with self._plans_lock:
            return self._lru_put(self._program_plans, signature, cprog,
                                 self._program_plans_cap)

    def run_program(self, program: "Program | CompiledProgram", *,
                    tenant: str | None = None) -> ProgramResult:
        """Execute a multi-statement program over the table.

        The vector backend runs the program's multi-output bytecode as
        whole-matrix numpy kernels (cross-statement CSE, registers
        recycled at last use) and expands the probed per-statement
        charge events in closed form; the reference backend replays
        every statement on each shard engine.  Both attribute one
        Stats delta per statement and are pinned bit- and Stats-exact
        against each other in the test suite.  A warm vector run's
        accounting is O(1) in the statement count: the whole-program
        charge comes from the plan's memo (see
        :meth:`CompiledProgram.charge`) and per-statement attribution
        expands only when :attr:`ProgramResult.statements` is read.
        """
        self._ensure_open()
        cprog = program if isinstance(program, CompiledProgram) \
            else self.compile_program(program)
        if cprog.inverting != self._inverting:
            raise QueryError("program compiled for the other polarity")
        colmap = self._colmap(tenant, cprog.cols)
        start = time.perf_counter()
        if self.backend == "vector":
            outputs, counts, per_stmt, total = self._run_program_vector(
                cprog, colmap)
        else:
            outputs, counts, per_stmt, total = \
                self._run_program_reference(cprog, colmap)
        elapsed = time.perf_counter() - start
        # Disturb accounting: every statement activates the external
        # columns it references once (a name shadowed by an earlier
        # statement reads the intermediate, not the column).
        read_cols = cprog.physical_reads(colmap)
        with self._stats_lock:
            for physical in read_cols:
                self._writeback.note_read(physical)
            self.tenant_state(tenant).charge_energy(
                total.total_energy_j)
            if self._durability is not None:
                flags = {
                    physical: self._col_flags.get(physical, False)
                    for physical in colmap.values()
                    if physical in self._col_flags}
                self._log_wal(
                    {"kind": "charges",
                     "items": [{"tenant": tenant,
                                "energy_j": total.total_energy_j,
                                "cols": list(read_cols)}],
                     "flags": flags,
                     "tba": list(self._tba_offsets),
                     "ledger": stats_to_dict(total)},
                    barrier=False)
        with self._cache_lock:
            self.programs_run += 1
        return ProgramResult(
            key=cprog.key, payloads=outputs, counts=counts,
            primitives_per_row=cprog.primitives,
            naive_primitives_per_row=cprog.naive_primitives,
            energy_j=total.total_energy_j, cycles=total.total_cycles,
            elapsed_s=elapsed, shards=self.n_shards,
            backend=self.backend, detail=total.summary(),
            attribution=(cprog, per_stmt))

    def _run_program_vector(self, cprog: CompiledProgram,
                            colmap: dict[str, str]):
        """Columnar program execution + closed-form attribution."""
        outputs = counts = None
        if self.functional and self._shared_store:
            # Programs always run on the primary; the read lock is the
            # snapshot (the shared store mutates in place).
            with self._table_rw.read():
                matrices_map = self._store._matrices
                missing = [physical for physical in colmap.values()
                           if physical not in matrices_map]
                if missing:
                    raise QueryError(f"unbound column(s): {missing}")
                program = cprog.vector_program(fused=self.fuse)
                if self._use_process_pool(program):
                    plan_key, spec = cprog.vector_payload(
                        fused=self.fuse)
                    colspec = {
                        logical: self._store.segment_name(physical)
                        for logical, physical in colmap.items()}
                    gens = {physical:
                            self._store.generations.get(physical, 0)
                            for physical in colmap.values()}
                    out_keys = list(program.out_regs)
                    scattered = self._get_worker_pool().execute(
                        plan_key, spec, colspec,
                        self._store.mask_segment, out_keys,
                        gens=gens, take_matrix=self._matrix_pool.take)
                    outputs = {name: PackedBits(self._store,
                                                scattered[name][1])
                               for name in out_keys}
                    counts = {name: int(scattered[name][0].sum())
                              for name in out_keys}
                else:
                    columns = {logical: matrices_map[physical]
                               for logical, physical in colmap.items()}
                    matrices = program.run_outputs(
                        columns, shape=self._store.shape,
                        pool=self._matrix_pool)
                    outputs = {name: PackedBits(self._store, matrix)
                               for name, matrix in matrices.items()}
                    counts = {
                        name: int(self._store.popcounts(matrix).sum())
                        for name, matrix in matrices.items()}
        elif self.functional:
            snapshot = self._store.snapshot()
            missing = [physical for physical in colmap.values()
                       if physical not in snapshot]
            if missing:
                raise QueryError(f"unbound column(s): {missing}")
            columns = {logical: snapshot[physical]
                       for logical, physical in colmap.items()}
            program = cprog.vector_program(fused=self.fuse)
            matrices = program.run_outputs(
                columns, shape=self._store.shape,
                pool=self._matrix_pool)
            # Output matrices stay owned by the result (deferred
            # readout) — they must NOT go back to the pool.
            outputs = {name: PackedBits(self._store, matrix)
                       for name, matrix in matrices.items()}
            counts = {name: int(self._store.popcounts(matrix).sum())
                      for name, matrix in matrices.items()}
        charge = self._charge_program(cprog, colmap)
        return outputs, counts, charge.statements, charge.total

    def _charge_program(self, cprog: CompiledProgram,
                        colmap: dict[str, str]) -> ProgramCharge:
        """Closed-form charge of one program execution: advance the
        column flags and TBA offsets, add the total to the ledger."""
        with self._stats_lock:
            flags = tuple(self._col_flags.get(colmap[col], False)
                          for col in cprog.cols)
            # The memo key carries the spec: a CompiledProgram can be
            # handed to services running different technologies.
            charge = cprog.charge(self._spec, flags, self._shard_rows,
                                  tuple(self._tba_offsets))
            for col, flag in zip(cprog.cols, charge.flags):
                physical = colmap[col]
                if physical in self._col_flags:
                    self._col_flags[physical] = flag
            self._tba_offsets[:] = charge.tba_offsets
            self._ledger.iadd(charge.total)
        return charge

    def _run_program_reference(self, cprog: CompiledProgram,
                               colmap: dict[str, str]):
        """Engine replay: the whole program on every shard."""
        with self._table_rw.read():
            futures = [
                self._pool.submit(self._run_program_on_shard, shard,
                                  cprog, colmap)
                for shard in self._shards
            ]
            shard_outputs = [future.result() for future in futures]
        per_stmt = [Stats() for _ in cprog.stmt_plans]
        for _, deltas in shard_outputs:
            for target, delta in zip(per_stmt, deltas):
                target.iadd(delta)
        total = Stats()
        for stats in per_stmt:
            total.iadd(stats)
        outputs = counts = None
        if self.functional:
            outputs = {
                name: np.concatenate(
                    [bits[name] for bits, _ in shard_outputs]
                )[: self.n_bits]
                for name in cprog.program.outputs
            }
            counts = {name: int(arr.sum())
                      for name, arr in outputs.items()}
        return outputs, counts, per_stmt, total

    def _run_program_on_shard(self, shard: _Shard,
                              cprog: CompiledProgram,
                              colmap: dict[str, str]):
        with shard.lock:
            engine = shard.engine
            columns = {logical: shard.columns[physical]
                       for logical, physical in colmap.items()}
            vectors, deltas = cprog.run(engine, columns,
                                        n_bits=shard.n_bits)
            bits = None
            if self.functional:
                bits = {name: vec.logical_bits()[: shard.n_bits]
                        for name, vec in vectors.items()}
            engine.free(*vectors.values())
        return bits, deltas

    # ------------------------------------------------------------------
    # vector backend
    # ------------------------------------------------------------------
    def _run_batch_vector(self, pending: dict[str, dict],
                          ) -> dict[str, tuple]:
        """Columnar execution: O(plan-steps) kernels per distinct query.

        Every distinct plan runs once over the full column matrices;
        the per-batch ``node_cache`` shares identical sub-expressions
        across the batch's queries (attributed costs still model each
        plan standalone, matching the reference replay exactly).
        Node caches are scoped per tenant — the same structural
        sub-expression names different data in different namespaces.
        """
        if self._shared_store:
            return self._run_batch_shared(pending)
        snapshot = self._store.snapshot() if self._store is not None \
            else {}
        node_caches: dict[str | None, dict[str, np.ndarray]] = {}
        outputs: dict[str, tuple] = {}
        for ckey, item in pending.items():
            plan = item["plan"]
            colmap = item["colmap"]
            start = time.perf_counter()
            payload = count = None
            if self.functional:
                missing = [physical for physical in colmap.values()
                           if physical not in snapshot]
                if missing:
                    raise QueryError(f"unbound column(s): {missing}")
                columns = {logical: snapshot[physical]
                           for logical, physical in colmap.items()}
                program = plan.vector_program(fused=self.fuse)
                matrix = program.run(
                    columns, shape=self._store.shape,
                    pool=self._matrix_pool,
                    node_cache=node_caches.setdefault(
                        item["tenant"], {}))
                count = int(self._store.popcounts(matrix).sum())
                # The matrix stays owned by the result; .bits unpacks
                # on first access (counting clients never pay it).
                payload = PackedBits(self._store, matrix)
            delta = self._charge_vector(plan, colmap)
            outputs[ckey] = (payload, count, delta,
                             time.perf_counter() - start)
        return outputs

    # -- shared-memory store: scatter/gather + replica routing ---------
    def _primary_view(self) -> tuple:
        store = self._store
        mask = None if store._full else store._mask
        return (store._matrices, store.segment_name,
                store.mask_segment, mask, store.generations)

    def _replica_view(self, replica) -> tuple:
        mask = None if self._store._full else replica.mask_matrix
        return (replica.matrices,
                lambda physical: replica.segments[physical].name,
                replica.mask_segment(), mask, replica.applied_gen)

    def _masked_count(self, matrix: np.ndarray,
                      mask: np.ndarray | None) -> int:
        if mask is not None:
            matrix = np.bitwise_and(matrix, mask)
        return int(popcount_words(matrix).sum(dtype=np.int64))

    def _run_batch_shared(self, pending: dict[str, dict],
                          ) -> dict[str, tuple]:
        """Shared-store batch: route each item to a caught-up replica
        when possible, execute the rest on the primary under the table
        read lock (the shared store mutates in place, so the lock *is*
        the snapshot)."""
        outputs: dict[str, tuple] = {}
        primary: dict[str, dict] = {}
        routed: list[tuple[str, dict, object, bool]] = []
        if self._replica_set is not None:
            struct = self._store.struct_generation
            mask_gen = self._store.mask_generation
            for ckey, item in pending.items():
                physicals = list(item["colmap"].values())
                fences = self._fences.get(item["tenant"])
                replica = self._replica_set.pick(
                    physicals, fences, struct, mask_gen)
                if replica is None:
                    primary[ckey] = item
                    continue
                # Only a result computed from fully-caught-up columns
                # may enter the result cache: the cache snapshot is
                # stamped with *primary* generations, so caching a
                # bounded-stale replica read would freeze staleness in.
                fresh = all(
                    replica.applied_gen.get(p, 0) >=
                    self._store.generations.get(p, 0)
                    for p in physicals)
                routed.append((ckey, item, replica, fresh))
        else:
            primary = dict(pending)
        if primary:
            with self._table_rw.read():
                view = self._primary_view()
                node_caches: dict = {}
                for ckey, item in primary.items():
                    outputs[ckey] = self._exec_shared_item(
                        item, view, node_caches)
        for ckey, item, replica, fresh in routed:
            with replica.rw.read():
                result = self._exec_shared_item(
                    item, self._replica_view(replica), {})
            outputs[ckey] = result[:4] + (fresh,)
            with self._stats_lock:
                self.replica_reads += 1
        return outputs

    def _exec_shared_item(self, item: dict, view: tuple,
                          node_caches: dict) -> tuple:
        """One pending batch entry against a primary/replica view.

        Scatters to the worker pool when the work clears the floor
        (workers return per-shard popcounts; the result matrix is
        copied out of the shared output segment), otherwise runs the
        bytecode in-process."""
        matrices, segname, mask_seg, mask, gens = view
        plan = item["plan"]
        colmap = item["colmap"]
        start = time.perf_counter()
        missing = [physical for physical in colmap.values()
                   if physical not in matrices]
        if missing:
            raise QueryError(f"unbound column(s): {missing}")
        program = plan.vector_program(fused=self.fuse)
        if self._use_process_pool(program):
            plan_key, spec = vector_payload(plan, fused=self.fuse)
            colspec = {logical: segname(physical)
                       for logical, physical in colmap.items()}
            job_gens = {physical: gens.get(physical, 0)
                        for physical in colmap.values()}
            result = self._get_worker_pool().execute(
                plan_key, spec, colspec, mask_seg, [None],
                gens=job_gens, take_matrix=self._matrix_pool.take)
            shard_counts, matrix = result[None]
            count = int(shard_counts.sum())
        else:
            columns = {logical: matrices[physical]
                       for logical, physical in colmap.items()}
            matrix = program.run(
                columns, shape=self._store.shape,
                pool=self._matrix_pool,
                node_cache=node_caches.setdefault(item["tenant"], {}))
            count = self._masked_count(matrix, mask)
        payload = PackedBits(self._store, matrix)
        delta = self._charge_vector(plan, colmap)
        return (payload, count, delta, time.perf_counter() - start)

    def _charge_vector(self, plan: CompiledQuery,
                       colmap: dict[str, str]) -> Stats:
        """Closed-form per-shard Stats for one plan execution.

        Shards with equal (rows, control-counter) state share one
        closed-form evaluation — in the common equal-width layout the
        whole query is costed with a single :func:`plan_stats` call.
        """
        delta = Stats()
        with self._stats_lock:
            # .get(): a column dropped while this query was in flight
            # charges from the plain encoding and must not resurrect a
            # flag entry (a recreated column starts plain, like a
            # fresh engine vector).
            flags = tuple(self._col_flags.get(colmap[col], False)
                          for col in plan.cols)
            events, final = plan.cost_events(flags)
            for col, flag in zip(plan.cols, final):
                physical = colmap[col]
                if physical in self._col_flags:
                    self._col_flags[physical] = flag
            memo: dict[tuple[int, int], tuple[Stats, int]] = {}
            for index, n_rows in enumerate(self._shard_rows):
                state = (n_rows, self._tba_offsets[index])
                costed = memo.get(state)
                if costed is None:
                    costed = plan_stats(self._spec, events, n_rows,
                                        tba_offset=state[1])
                    memo[state] = costed
                shard_delta, self._tba_offsets[index] = costed
                delta.iadd(shard_delta)
            self._ledger.iadd(delta)
        return delta

    # ------------------------------------------------------------------
    # reference backend
    # ------------------------------------------------------------------
    def _run_batch_reference(self, pending: dict[str, dict],
                             ) -> dict[str, tuple]:
        """Engine replay: one thread-pool task per (query, shard).

        The whole fan-out holds the table read lock, so an in-place
        mutation can never land between two shards of one query."""
        futures: dict[str, list] = {}
        outputs: dict[str, tuple] = {}
        with self._table_rw.read():
            for ckey, item in pending.items():
                futures[ckey] = [
                    self._pool.submit(self._run_on_shard, shard,
                                      item["plan"], item["colmap"])
                    for shard in self._shards
                ]
            for ckey in pending:
                start = time.perf_counter()
                shard_outputs = [future.result()
                                 for future in futures[ckey]]
                elapsed = time.perf_counter() - start
                delta = Stats()
                for _, shard_delta in shard_outputs:
                    delta.iadd(shard_delta)
                if self.functional:
                    bits = np.concatenate(
                        [bits for bits, _ in shard_outputs]
                    )[: self.n_bits]
                    count = int(bits.sum())
                else:
                    bits, count = None, None
                outputs[ckey] = (bits, count, delta, elapsed)
        return outputs

    def _run_on_shard(self, shard: _Shard, plan: CompiledQuery,
                      colmap: dict[str, str]):
        with shard.lock:
            engine = shard.engine
            columns = {logical: shard.columns[physical]
                       for logical, physical in colmap.items()}
            before = engine.stats.copy()
            vec = plan.run(engine, columns, n_bits=shard.n_bits)
            bits = None
            if self.functional:
                bits = vec.logical_bits()[: shard.n_bits]
            engine.free(vec)
            delta = engine.stats.minus(before)
        return bits, delta

    # ------------------------------------------------------------------
    # result cache (dependency-indexed)
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_scope(tenant: str | None, plan_key: str) -> str:
        """Tenant-scoped cache key (``\\0`` never appears in keys)."""
        return plan_key if tenant is None else \
            f"{tenant}\x00{plan_key}"

    def _cache_get(self, key: str) -> _CacheEntry | None:
        if self._cache_size <= 0:
            return None
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return entry

    def _cache_peek(self, key: str) -> _CacheEntry | None:
        """Cache lookup without touching hit/miss counters or LRU."""
        with self._cache_lock:
            return self._cache.get(key)

    def _cache_put(self, key: str, result: QueryResult,
                   snapshot: tuple[int, dict[str, int]],
                   tenant: str | None,
                   cols: tuple[str, ...]) -> None:
        if self._cache_size <= 0:
            return
        epoch, generations = snapshot
        with self._cache_lock:
            if epoch != self._epoch:
                return  # table resized while executing: stale width
            if any(self._col_generation.get(physical, 0) != generation
                   for physical, generation in generations.items()):
                return  # a read column mutated while executing
            # Cache a private copy: the caller keeps (and may mutate)
            # the returned result object.
            entry = QueryResult(**{
                **result.__dict__,
                "payload": _payload_copy(result.payload),
                "detail": dict(result.detail),
            })
            if key in self._cache:
                self._evict_locked(key)
            self._cache[key] = _CacheEntry(entry, tenant, cols)
            for physical in cols:
                self._dep_index.setdefault(physical, set()).add(key)
            state = self._tenants.get(tenant)
            if state is not None:
                state.cached += 1
                quota = state.cache_entries
                if quota is not None and state.cached > quota:
                    # Evict the tenant's own LRU entry.
                    for candidate, held in self._cache.items():
                        if held.tenant == tenant and candidate != key:
                            self._evict_locked(candidate)
                            break
            while len(self._cache) > self._cache_size:
                self._evict_locked(next(iter(self._cache)))

    def _evict_locked(self, key: str) -> int:
        """Remove one entry + its dependency-index edges (lock held)."""
        entry = self._cache.pop(key, None)
        if entry is None:
            return 0
        for physical in entry.cols:
            keys = self._dep_index.get(physical)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._dep_index[physical]
        state = self._tenants.get(entry.tenant)
        if state is not None and state.cached > 0:
            state.cached -= 1
        return 1

    def _invalidate_columns(self, physicals) -> int:
        """Evict exactly the results whose plans read these columns.

        Bumps each column's generation (so in-flight results that read
        it cannot land in the cache) and returns the eviction count.
        Cached results over *other* columns survive — the
        dependency-aware contract."""
        with self._cache_lock:
            keys: set[str] = set()
            for physical in physicals:
                self._col_generation[physical] = \
                    self._col_generation.get(physical, 0) + 1
                keys |= self._dep_index.pop(physical, set())
            evicted = 0
            for key in keys:
                evicted += self._evict_locked(key)
            return evicted

    def _invalidate_all(self) -> int:
        """Table-wide invalidation (row appends change every width)."""
        with self._cache_lock:
            self._epoch += 1
            evicted = len(self._cache)
            self._cache.clear()
            self._dep_index.clear()
            for state in self._tenants.values():
                state.cached = 0
            return evicted

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def attach_durability(self, manager) -> None:
        """Install a :class:`~repro.service.durability.
        DurabilityManager`: every subsequent mutation barrier and
        tenant-state delta is WAL-logged before it is applied, and
        snapshots rotate the log every ``snapshot_every`` barriers.

        Requires the functional vector backend — the reference
        backend keeps its payloads inside per-shard engines and the
        counting mode has no payloads to persist."""
        if self.backend != "vector" or not self.functional:
            raise QueryError(
                "durability requires the functional vector backend")
        self._durability = manager
        if manager.bootstrap_needed():
            # A fresh generation-0 log opens with the geometry, so a
            # crash before the first snapshot recovers from the data
            # dir alone (no CLI flags to get wrong).
            manager.log({"kind": "geometry",
                         "technology": self.technology,
                         "n_bits": self.n_bits,
                         "n_shards": self.n_shards,
                         "capacity": self.capacity}, barrier=False)

    @property
    def durability(self):
        return self._durability

    def _log_wal(self, meta: dict, bits=None, *,
                 barrier: bool = True) -> None:
        if self._durability is not None:
            self._durability.log(meta, bits, barrier=barrier)

    def _log_charges_locked(self, charged: list, pending: dict,
                            outputs: dict) -> None:
        """Append one per-batch accounting record (_stats_lock held).

        Cache hits never reach here — only executed plans advance the
        tenant energy, disturb counters, column flags, TBA offsets and
        the compute ledger, and those are exactly what the record
        carries (final flag/TBA values; the ledger as one summed
        delta, Stats-allclose under float reassociation)."""
        delta = Stats()
        for ckey in pending:
            delta.iadd(outputs[ckey][2])
        flags = {
            physical: self._col_flags.get(physical, False)
            for item in pending.values()
            for physical in item["colmap"].values()
            if physical in self._col_flags}
        self._log_wal(
            {"kind": "charges", "items": charged, "flags": flags,
             "tba": list(self._tba_offsets),
             "ledger": stats_to_dict(delta)},
            barrier=False)

    def _maybe_checkpoint(self) -> None:
        """Auto-snapshot after ``snapshot_every`` barriers
        (_table_lock held — called at the end of each mutation)."""
        manager = self._durability
        if manager is not None and not manager.replaying \
                and manager.snapshot_due():
            self._checkpoint_locked()

    def checkpoint(self) -> dict:
        """Write a snapshot generation now and rotate the WAL."""
        if self._durability is None:
            raise QueryError("no durability manager attached")
        with self._table_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> dict:
        manager = self._durability
        columns = {physical: self._store.bits(physical)
                   for physical in self._columns}
        # State capture and WAL rotation share one _stats_lock hold:
        # a concurrent per-batch charge must land entirely in the
        # snapshot or entirely in the new generation's WAL, never
        # both and never neither.
        with self._stats_lock:
            meta = self._durable_state_locked()
            generation = manager.write_snapshot(meta, columns)
        return {"generation": generation,
                "columns": len(columns), "n_bits": self.n_bits}

    def _durable_state_locked(self) -> dict:
        """JSON-safe durable state (_table_lock + _stats_lock held)."""
        return {
            "version": 1,
            "technology": self.technology,
            "n_bits": self.n_bits,
            "capacity": self.capacity,
            "n_shards": self.n_shards,
            "rows_used": self._rows_used,
            "columns": {physical: int(width) for physical, width
                        in self._columns.items()},
            "col_flags": {physical: bool(flag) for physical, flag
                          in self._col_flags.items()},
            "tba_offsets": [int(x) for x in self._tba_offsets],
            "ledger": stats_to_dict(self._ledger),
            "writeback": {
                "reads": {column: [int(x) for x in counters]
                          for column, counters
                          in self._writeback._reads.items()},
                "reads_noted": self._writeback.reads_noted,
                "rows_written": self._writeback.rows_written,
                "scrubs": self._writeback.scrubs,
                "scrub_rows": self._writeback.scrub_rows,
                "write_energy_j": self._writeback.write_energy_j,
                "scrub_energy_j": self._writeback.scrub_energy_j,
                "stats": stats_to_dict(self._writeback.stats),
            },
            "tenants": [
                {"name": state.name,
                 "quota_bits": state.quota_bits,
                 "quota_energy_nj": state.quota_energy_nj,
                 "cache_entries": state.cache_entries,
                 "max_pending": state.max_pending,
                 "columns": dict(state.columns),
                 "energy_spent_nj": state.energy_spent_nj}
                for state in self._tenants.values()
            ],
            "counters": {
                "queries_served": self.queries_served,
                "programs_run": self.programs_run,
                "mutations_applied": self.mutations_applied,
            },
        }

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate service counters and the merged engine ledger."""
        merged = Stats()
        if self.backend == "vector":
            with self._stats_lock:
                merged = self._ledger.copy()
                rows_used = self._rows_used
        else:
            rows_used = 0
            for shard in self._shards:
                with shard.lock:
                    merged.iadd(shard.engine.stats)
                    rows_used += shard.engine.allocator.rows_used
        with self._stats_lock:
            writeback = self._writeback.summary()
        return {
            "technology": self.technology,
            "backend": self.backend,
            "n_bits": self.n_bits,
            "capacity": self.capacity,
            "n_shards": self.n_shards,
            "columns": len(self._columns),
            "tenants": len(self._tenants),
            "rows_used": rows_used,
            "queries_served": self.queries_served,
            "programs_run": self.programs_run,
            "mutations_applied": self.mutations_applied,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cached_results": len(self._cache),
            "energy_total_nj": merged.total_energy_j * 1e9,
            "cycles_total": merged.total_cycles,
            "writeback": writeback,
            "executor": {
                "fuse": self.fuse,
                "workers": self.workers,
                "mode": "process" if self._shared_store
                and self.workers > 1 else "serial",
                "parallel_min_work": self._parallel_min_work,
                "matrix_pool": self._matrix_pool.stats()
                if self.backend == "vector" else None,
                "worker_pool": self._worker_pool.stats()
                if self._worker_pool is not None else None,
                "replica_reads": self.replica_reads,
                "replicas": self._replica_set.stats()
                if self._replica_set is not None else None,
            },
            "durability": self._durability.stats()
            if self._durability is not None else None,
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._durability is not None:
                self._durability.close()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            # Order matters: the replica applier reads the primary
            # store, workers map its segments — stop both before
            # unlinking the shared segments.
            if self._replica_set is not None:
                self._replica_set.close()
            if self._worker_pool is not None:
                self._worker_pool.close()
            if self._shared_store:
                self._store.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError("service is closed")

    def __enter__(self) -> "BitwiseService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
