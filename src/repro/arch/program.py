"""Multi-statement programs: sequenced assignments over the compiler.

Single expressions (:mod:`repro.arch.expr`) cover one-shot predicates,
but the paper's flagship workloads — XNOR+popcount BNN inference, CRC
feedback chains, masked updates — are *dataflows*: sequences of
assignments whose intermediates feed later statements.  A
:class:`Program` is exactly that::

    program = Program([
        ("t",   "a & b"),
        ("u",   "t | c"),
        ("out", "t ^ u"),
    ], outputs=["out"])

Statement semantics are sequential: each statement may reference table
columns and any previously assigned name; re-assigning a name
(*shadowing*) rebinds it for subsequent statements only — earlier
readers keep the value they read (the compiler converts the program to
SSA form while lowering, so the PR-2 class of aliased-operand
corruption cannot occur by construction).

Compilation (:func:`compile_program`) produces a
:class:`CompiledProgram` with two synchronized execution paths:

* **reference replay** — every statement compiles to its own
  :class:`~repro.arch.expr.CompiledQuery`; :meth:`CompiledProgram.run`
  executes them in order on a :class:`~repro.arch.engine.BulkEngine`,
  binding intermediates as columns, freeing each binding at its last
  use (liveness), and attributing a
  :class:`~repro.arch.commands.Stats` delta per statement.  This is
  the ground truth, and the path the analytic cost probe
  (:func:`repro.arch.primitives.probe_program_events`) replays
  op-for-op.
* **vector bytecode** — all statements lower through **one**
  hash-consed AIG (assigned names resolve to their sub-graphs, so
  identical sub-expressions are shared *across* statements), then
  :meth:`CompiledProgram.vector_program` emits a single
  multi-output :class:`~repro.arch.expr.VectorProgram` whose registers
  are recycled at last use (the live-set peak bounds scratch
  matrices, not the statement count).  Statements that do not reach an
  output are never executed on this path — attribution still models
  the full reference replay, mirroring how the batch node cache is a
  host-simulation optimization only.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from repro.arch.bank import BitVector
from repro.arch.commands import Stats
from repro.arch.engine import BulkEngine
from repro.arch.expr import (
    Col,
    CompiledQuery,
    Expr,
    VectorProgram,
    _Aig,
    _as_expr,
    canonical_key,
)
from repro.errors import QueryError

__all__ = [
    "Program", "ProgramBuilder", "CompiledProgram", "ProgramCharge",
    "compile_program", "parse_program",
]

_NAME = re.compile(r"[A-Za-z_]\w*")

#: entries of a compiled program's whole-program charge memo; FeRAM TBA
#: offsets cycle through at most ``control_rewrite_period`` (32) states
#: per column-flag state, so a steady stream stays resident
CHARGE_MEMO_CAP = 64


class Program:
    """A sequence of named assignments with declared outputs.

    Parameters
    ----------
    statements:
        Iterable of ``(name, expr)`` pairs; ``expr`` may be an
        :class:`~repro.arch.expr.Expr` or a query string.  Statements
        execute in order; a name may be re-assigned (shadowing).
    outputs:
        Names whose *final* bindings are the program results (default:
        the last statement's name).  Each must be assigned by some
        statement.
    """

    def __init__(self, statements: Iterable[tuple[str, "Expr | str"]],
                 outputs: Iterable[str] | None = None) -> None:
        self.statements: tuple[tuple[str, Expr], ...] = tuple(
            (self._check_name(name), _as_expr(expr))
            for name, expr in statements)
        if not self.statements:
            raise QueryError("program needs at least one statement")
        assigned = {name for name, _ in self.statements}
        if outputs is None:
            outputs = (self.statements[-1][0],)
        self.outputs: tuple[str, ...] = tuple(outputs)
        if not self.outputs:
            raise QueryError("program needs at least one output")
        if len(set(self.outputs)) != len(self.outputs):
            raise QueryError("duplicate program output names")
        unassigned = [name for name in self.outputs
                      if name not in assigned]
        if unassigned:
            raise QueryError(
                f"output(s) never assigned: {unassigned}")
        # External columns: names read before (ever being) assigned,
        # in first-appearance order.
        cols: dict[str, None] = {}
        seen_assigned: set[str] = set()
        for name, expr in self.statements:
            for col in expr.cols():
                if col not in seen_assigned:
                    cols.setdefault(col)
            seen_assigned.add(name)
        self._cols = tuple(cols)
        self._signature: str | None = None

    @property
    def signature(self) -> str:
        """Structural identity (statement texts + outputs), built once.

        One ``name=expr`` line per statement, then the outputs: names
        never contain ``=``/``,`` and expression texts never contain a
        newline, so distinct programs get distinct signatures.
        """
        if self._signature is None:
            lines = [f"{name}={expr}" for name, expr in self.statements]
            lines.append("->" + ",".join(self.outputs))
            self._signature = "\n".join(lines)
        return self._signature

    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise QueryError(f"invalid statement name {name!r}")
        return name

    def cols(self) -> tuple[str, ...]:
        """External column names (read before any assignment)."""
        return self._cols

    def __len__(self) -> int:
        return len(self.statements)

    def __str__(self) -> str:
        body = "; ".join(f"{name} = {expr}"
                         for name, expr in self.statements)
        return f"{body} -> [{', '.join(self.outputs)}]"

    def __repr__(self) -> str:
        return f"Program({len(self.statements)} statements, " \
               f"outputs={list(self.outputs)})"


def parse_program(text: str,
                  outputs: Iterable[str] | None = None) -> Program:
    """Parse ``name = expr`` lines (newline/``;`` separated).

    Blank lines and ``#`` comments are skipped.  ``outputs`` defaults
    to the last assignment.
    """
    statements: list[tuple[str, str]] = []
    for raw in re.split(r"[;\n]", text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise QueryError(f"expected 'name = expr', got {line!r}")
        name, expr = line.split("=", 1)
        statements.append((name.strip(), expr.strip()))
    return Program(statements, outputs)


class ProgramBuilder:
    """Incremental program construction with fresh-name generation.

    Workload kernels (adder trees, feedback chains) emit statements as
    they go and track live values as expressions; ``let`` appends a
    statement and hands back a :class:`Col` reference to it.
    """

    def __init__(self) -> None:
        self._statements: list[tuple[str, Expr]] = []
        self._counter = 0

    @property
    def statements(self) -> list[tuple[str, Expr]]:
        return list(self._statements)

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def let(self, name: str, expr: "Expr | str") -> Col:
        """Append ``name = expr``; returns ``Col(name)`` for chaining."""
        self._statements.append((Program._check_name(name),
                                 _as_expr(expr)))
        return Col(name)

    def emit(self, prefix: str, expr: "Expr | str") -> Col:
        """``let`` under a generated unique name."""
        return self.let(self.fresh(prefix), expr)

    def build(self, outputs: Iterable[str] | None = None) -> Program:
        return Program(self._statements, outputs)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
class ProgramCharge(NamedTuple):
    """Closed-form cost of one whole-program execution (memoized).

    Shared between runs from the same cost state: treat every field as
    read-only (accumulate with ``Stats.iadd``, copy before handing out).
    """

    statements: tuple[Stats, ...]   #: shard-summed per-statement deltas
    total: Stats                    #: sum of :attr:`statements`
    tba_offsets: tuple[int, ...]    #: per-shard offsets after the run
    flags: tuple[bool, ...]         #: column complement flags after it


class CompiledProgram:
    """An optimized, two-backend executable program plan."""

    def __init__(self, program: Program, inverting: bool) -> None:
        self.program = program
        self.inverting = bool(inverting)
        # Per-statement engine plans (identical statements share one).
        by_key: dict[str, CompiledQuery] = {}
        self.stmt_plans: list[tuple[str, CompiledQuery]] = []
        for name, expr in program.statements:
            key = canonical_key(expr)
            plan = by_key.get(key)
            if plan is None:
                plan = CompiledQuery(expr, self.inverting)
                by_key[key] = plan
            self.stmt_plans.append((name, plan))
        #: per-row native primitives of the compiled / naive replays
        self.primitives = sum(p.primitives for _, p in self.stmt_plans)
        self.naive_primitives = sum(p.naive_primitives
                                    for _, p in self.stmt_plans)
        # External columns actually bound by the replay (per-statement
        # optimization may fold some of the program's raw columns away).
        assigned: set[str] = set()
        needed: dict[str, None] = {}
        reads: list[str] = []
        for name, plan in self.stmt_plans:
            for col in plan.cols:
                if col not in assigned:
                    needed.setdefault(col)
                    reads.append(col)
            assigned.add(name)
        self.cols = tuple(needed)
        #: one entry per external-column activation of the replay, in
        #: statement order (the disturb reads a run accrues)
        self.reads = tuple(reads)
        # Whole-program AIG (vector path + canonical identity):
        # assigned names resolve to their sub-graphs via the statement
        # environment, so hash-consing shares identical sub-expressions
        # across statements.
        self._aig = _Aig()
        env: dict[str, int] = {}
        for name, expr in program.statements:
            env[name] = self._aig.lower(expr, env)
        self._out_refs: dict[str, int] = {
            name: env[name] for name in program.outputs}
        self.key = "program:" + ";".join(
            f"{name}={self._aig.ref_key(ref)}"
            for name, ref in self._out_refs.items())
        self._liveness()
        self._vector_program: VectorProgram | None = None
        self._vector_program_fused: VectorProgram | None = None
        self._cost_events: dict[tuple, tuple] = {}
        #: (spec, flags, shard_rows, tba_offsets) -> ProgramCharge
        self._charge_memo: dict[tuple, ProgramCharge] = {}
        #: physical column tuple (aligned with cols) -> physical reads
        self._reads_memo: dict[tuple, tuple[str, ...]] = {}
        self._stmt_queries: tuple[str, ...] | None = None

    @property
    def stmt_queries(self) -> tuple[str, ...]:
        """Each statement's expression text as compiled (built once)."""
        if self._stmt_queries is None:
            self._stmt_queries = tuple(str(plan.expr)
                                       for _, plan in self.stmt_plans)
        return self._stmt_queries

    # -- liveness ------------------------------------------------------
    def _liveness(self) -> None:
        """Death point of every binding version for the replay path.

        A *binding* is ``(name, statement index of assignment)``.  It
        dies after its last reader statement — or immediately if never
        read — unless it is the final binding of an output name (those
        are handed to the caller).  The replay frees bindings at their
        death point, so the engine footprint tracks the live set, not
        the statement count.
        """
        current: dict[str, int] = {}
        last_read: dict[tuple[str, int], int] = {}
        for index, (name, plan) in enumerate(self.stmt_plans):
            for col in set(plan.cols):
                if col in current:
                    last_read[(col, current[col])] = index
            current[name] = index
        outputs = set(self.program.outputs)
        death: list[list[tuple[str, int]]] = \
            [[] for _ in self.stmt_plans]
        for index, (name, _) in enumerate(self.stmt_plans):
            if current[name] == index and name in outputs:
                continue  # final output binding: survives the run
            death[last_read.get((name, index), index)].append(
                (name, index))
        self._death = [tuple(entries) for entries in death]
        self._final_binding = current

    # -- reference replay ----------------------------------------------
    def replay(self, engine: BulkEngine,
               columns: Mapping[str, BitVector], *,
               n_bits: int | None = None,
               snapshot=None, delta=None,
               ) -> tuple[dict[str, BitVector], list]:
        """Execute statement-by-statement on an engine.

        Returns ``(outputs, per_statement)``: fresh owned result
        vectors per output name (caller frees), plus one
        ``delta(snapshot())`` capture per statement when the hooks are
        given (``engine.stats.copy``/``engine.stats.minus`` for Stats
        deltas; the cost probe captures event tallies instead).

        The exact operation sequence here — statement order, binding,
        frees at the liveness death points — is what
        :func:`repro.arch.primitives.probe_program_events` replays on
        a one-row probe engine, so the closed-form coster and a shard
        replay can never drift.
        """
        missing = [c for c in self.cols if c not in columns]
        if missing:
            raise QueryError(f"unbound column(s): {missing}")
        env: dict[str, BitVector] = dict(columns)
        live: dict[tuple[str, int], BitVector] = {}
        per_statement: list = []
        for index, (name, plan) in enumerate(self.stmt_plans):
            snap = snapshot() if snapshot is not None else None
            out = plan.run(engine, env, name, n_bits=n_bits)
            if snapshot is not None:
                per_statement.append(delta(snap))
            env[name] = out
            live[(name, index)] = out
            for binding in self._death[index]:
                engine.free(live.pop(binding))
        outputs = {name: live[(name, self._final_binding[name])]
                   for name in self.program.outputs}
        return outputs, per_statement

    def run(self, engine: BulkEngine,
            columns: Mapping[str, BitVector], *,
            n_bits: int | None = None,
            ) -> tuple[dict[str, BitVector], list]:
        """Reference execution with per-statement Stats attribution.

        Returns ``(outputs, stats)`` where ``outputs`` maps each output
        name to a fresh owned vector and ``stats`` holds one
        :class:`~repro.arch.commands.Stats` delta per statement.
        """
        return self.replay(
            engine, columns, n_bits=n_bits,
            snapshot=engine.stats.copy,
            delta=lambda before: engine.stats.minus(before))

    # -- analytic cost -------------------------------------------------
    def cost_events(self, flags: tuple[bool, ...] | None = None,
                    ) -> tuple:
        """Per-statement per-row charge events (probed once per state).

        Returns ``(events, final_flags)``: one
        :class:`~repro.arch.primitives.PlanEvents` per statement plus
        the complement encodings the bound table columns end in.
        ``flags`` aligns with :attr:`cols` (default all-plain);
        results are memoized per initial state.
        """
        if flags is None:
            flags = (False,) * len(self.cols)
        cached = self._cost_events.get(flags)
        if cached is None:
            from repro.arch.primitives import probe_program_events
            cached = probe_program_events(self, flags)
            self._cost_events[flags] = cached
        return cached

    def charge(self, spec, flags: tuple[bool, ...],
               shard_rows: tuple[int, ...],
               tba_offsets: tuple[int, ...]) -> ProgramCharge:
        """Closed-form Stats of one execution from a service cost state.

        Statement events expand per shard with the running FeRAM
        control-rewrite offset threaded through the statements in
        order — exactly the interleaving a shard replay produces.
        Shards in the same ``(rows, offset)`` state expand once and
        count scaled.  The result is memoized per whole state, so a
        warm run costs one dict lookup, not statements × shards merges.
        """
        key = (spec, flags, shard_rows, tba_offsets)
        charge = self._charge_memo.get(key)
        if charge is not None:
            return charge
        from repro.arch.primitives import plan_stats
        events, final_flags = self.cost_events(flags)
        per_stmt = [Stats() for _ in events]
        after: dict[tuple[int, int], int] = {}
        for state, n_shards in Counter(zip(shard_rows,
                                           tba_offsets)).items():
            n_rows, offset = state
            for target, stmt_events in zip(per_stmt, events):
                stats, offset = plan_stats(spec, stmt_events, n_rows,
                                           tba_offset=offset)
                target.iadd_scaled(stats, n_shards)
            after[state] = offset
        total = Stats()
        for stats in per_stmt:
            total.iadd(stats)
        charge = ProgramCharge(
            tuple(per_stmt), total,
            tuple(after[state] for state in zip(shard_rows, tba_offsets)),
            final_flags)
        if len(self._charge_memo) >= CHARGE_MEMO_CAP:
            self._charge_memo.clear()
        self._charge_memo[key] = charge
        return charge

    def physical_reads(self, colmap: Mapping[str, str]
                       ) -> tuple[str, ...]:
        """:attr:`reads` mapped through a logical->physical binding."""
        key = tuple(colmap[col] for col in self.cols)
        reads = self._reads_memo.get(key)
        if reads is None:
            reads = tuple(colmap[col] for col in self.reads)
            if len(self._reads_memo) >= CHARGE_MEMO_CAP:
                self._reads_memo.clear()
            self._reads_memo[key] = reads
        return reads

    # -- vector lowering -----------------------------------------------
    def vector_program(self, *, fused: bool = False) -> VectorProgram:
        """Multi-output register-machine bytecode (lowered once).

        ``fused=True`` returns the peephole-fused form (see
        :meth:`VectorProgram.fuse`): same bits, fewer kernels and
        fewer scratch matrices.
        """
        if self._vector_program is None:
            self._vector_program = _lower_program_vector(self)
        if not fused:
            return self._vector_program
        if self._vector_program_fused is None:
            self._vector_program_fused = self._vector_program.fuse()
        return self._vector_program_fused

    def vector_payload(self, *, fused: bool = False
                       ) -> tuple[str, tuple]:
        """``(plan id, picklable bytecode spec)`` for shard workers.

        The id keys worker-side program caches (one entry per plan and
        fusion mode); the spec rebuilds the exact bytecode via
        :meth:`VectorProgram.from_spec` inside the worker process —
        plan compilation itself never leaves the coordinator.
        """
        return vector_payload(self, fused=fused)


def vector_payload(plan, *, fused: bool = False) -> tuple[str, tuple]:
    """``(plan id, picklable bytecode spec)`` for any compiled plan.

    Works for :class:`CompiledProgram` and
    :class:`~repro.arch.expr.CompiledQuery` alike — both expose a
    canonical ``key`` and a ``vector_program(fused=)`` lowering.
    """
    program = plan.vector_program(fused=fused)
    return f"{plan.key}|f{int(bool(fused))}", program.spec()


def compile_program(program: Program, *,
                    inverting: bool = True) -> CompiledProgram:
    """Compile a program for a native-primitive polarity."""
    return CompiledProgram(program, inverting)


# ----------------------------------------------------------------------
# multi-root vector lowering with register recycling
# ----------------------------------------------------------------------
def _reachable_multi(aig: _Aig, roots: list[int]) -> list[int]:
    """Node indices reaching any root, children before parents."""
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(idx, False) for idx in roots]
    while stack:
        idx, expanded = stack.pop()
        if expanded:
            order.append(idx)
            continue
        if idx in seen:
            continue
        seen.add(idx)
        stack.append((idx, True))
        for ref in aig.nodes[idx][1:]:
            if isinstance(ref, int):
                stack.append((ref >> 1, False))
    return order


def _lower_program_vector(cprog: CompiledProgram) -> VectorProgram:
    """Lower the program AIG to one multi-output VectorProgram.

    Only nodes reaching an output are scheduled (dead statements cost
    no host work); registers are recycled the moment their node's last
    consumer has run, so the scratch-matrix footprint is the live-set
    peak, not the node count.
    """
    aig = cprog._aig
    out_refs = cprog._out_refs
    order = _reachable_multi(
        aig, list(dict.fromkeys(ref >> 1
                                for ref in out_refs.values())))
    schedule = [idx for idx in order
                if aig.nodes[idx][0] in ("and", "xor", "maj")]

    uses: dict[int, int] = {}
    for idx in schedule:
        for ref in aig.nodes[idx][1:]:
            uses[ref >> 1] = uses.get(ref >> 1, 0) + 1
    for ref in out_refs.values():
        # One retention/consumption per output reference: positive op
        # outputs are never consumed (their register survives), the
        # materialization steps below consume the rest.
        uses[ref >> 1] = uses.get(ref >> 1, 0) + 1

    free_pool: list[int] = []
    n_regs = 0

    def new_reg() -> int:
        nonlocal n_regs
        if free_pool:
            return free_pool.pop()
        n_regs += 1
        return n_regs - 1

    node_reg: dict[int, int] = {}
    remaining = dict(uses)

    def operand(ref_idx: int):
        node = aig.nodes[ref_idx]
        if node[0] == "col":
            return ("col", node[1])
        return ("reg", node_reg[ref_idx])

    def consume(ref_idx: int, free_regs: list[int]) -> None:
        remaining[ref_idx] -= 1
        if remaining[ref_idx] == 0 and ref_idx in node_reg:
            reg = node_reg[ref_idx]
            free_regs.append(reg)
            free_pool.append(reg)

    steps: list[tuple] = []
    for idx in schedule:
        node = aig.nodes[idx]
        kind = node[0]
        dst = new_reg()
        node_reg[idx] = dst
        micro: list[tuple] = []
        free_regs: list[int] = []
        step_temps: list[int] = []
        if kind == "and":
            _, r1, r2 = node
            a, b = operand(r1 >> 1), operand(r2 >> 1)
            n1, n2 = r1 & 1, r2 & 1
            if not n1 and not n2:
                micro.append(("and", dst, a, b))
            elif n1 and n2:
                micro.append(("nor", dst, a, b))
            elif n1:
                micro.append(("andn", dst, b, a))
            else:
                micro.append(("andn", dst, a, b))
            consume(r1 >> 1, free_regs)
            consume(r2 >> 1, free_regs)
        elif kind == "xor":
            _, r1, r2 = node  # canonically positive references
            micro.append(("xor", dst, operand(r1 >> 1),
                          operand(r2 >> 1)))
            consume(r1 >> 1, free_regs)
            consume(r2 >> 1, free_regs)
        else:  # maj: normalized to at most one negated operand
            refs = node[1:]
            specs = []
            for ref in refs:
                if ref & 1:
                    tmp = new_reg()
                    micro.append(("not", tmp, operand(ref >> 1)))
                    specs.append(("reg", tmp))
                    free_regs.append(tmp)
                    step_temps.append(tmp)
                else:
                    specs.append(operand(ref >> 1))
            micro.append(("maj", dst, *specs))
            for ref in refs:
                consume(ref >> 1, free_regs)
        # Step-local temporaries recycle only after the step is fully
        # emitted (they must not collide with this step's registers).
        free_pool.extend(step_temps)
        steps.append((aig.keys[idx], dst, tuple(micro),
                      tuple(free_regs)))

    # Output materialization: negated edges, bare columns and constants
    # each need an explicit owned register; positive op-node outputs
    # reuse the node's (retained) register.
    out_regs: dict[str, int] = {}
    for name, root in out_refs.items():
        root_idx = root >> 1
        kind = aig.nodes[root_idx][0]
        if kind == "true":
            reg = new_reg()
            steps.append((aig.ref_key(root), reg,
                          (("const", reg, 0 if root & 1 else 1),), ()))
        elif kind == "col":
            reg = new_reg()
            op = "not" if root & 1 else "copy"
            steps.append((aig.ref_key(root), reg,
                          ((op, reg, operand(root_idx)),), ()))
        elif root & 1:
            reg = new_reg()
            free_regs = []
            consume(root_idx, free_regs)
            steps.append((aig.ref_key(root), reg,
                          (("not", reg, ("reg", node_reg[root_idx])),),
                          tuple(free_regs)))
        else:
            reg = node_reg[root_idx]
        out_regs[name] = reg
    return VectorProgram(steps, n_regs, None, out_regs)
