"""Differential-testing harness: vector vs reference execution.

Reusable assertions pin the equivalence contract of the service:

* :func:`assert_program_equivalent` — for any program and table, the
  columnar vector backend must be indistinguishable from the engine
  replay — same output bits, same popcounts, the same attributed
  :class:`~repro.arch.commands.Stats` *per statement*
  (``Stats.allclose``: integer counts/cycles exact, energies at float
  tolerance), and the same aggregate service ledgers.
* :func:`assert_program_runs_equivalent` — the same contract held
  after every one of many repeated runs (warm runs are charged from
  the compiled program's memo, so this pins memo hits, not just a
  fresh expansion), including TBA offsets and column flags.
* :func:`assert_ops_equivalent` — for any serialized **op script**
  interleaving queries with column mutations (update / slice write /
  append / drop / create), both backends must agree with each other
  *and* with a plain-numpy shadow table after every step — bits,
  counts, per-query Stats, mutation dirty-row accounting, and the
  disturb/scrub maintenance ledger.

Every workload, mutation and property test routes through here
instead of re-implementing the comparison.
"""

from __future__ import annotations

import math

import numpy as np

from repro.service import BitwiseService


def numpy_program_eval(program, table):
    """Ground-truth evaluation of a program on plain numpy bit arrays.

    Statements execute sequentially over an environment seeded with the
    table columns; shadowing rebinds for subsequent statements only.
    Returns the final bindings of the program outputs.
    """
    from repro.arch import expr as e

    width = len(next(iter(table.values())))

    def eval_expr(node, env):
        if isinstance(node, e.Col):
            return env[node.name]
        if isinstance(node, e.Const):
            return np.full(width, node.bit, dtype=np.uint8)
        kids = [eval_expr(k, env) for k in node.children()]
        if isinstance(node, e.Not):
            return 1 - kids[0]
        if isinstance(node, (e.And, e.Nand)):
            out = kids[0]
            for k in kids[1:]:
                out = out & k
            return 1 - out if isinstance(node, e.Nand) else out
        if isinstance(node, (e.Or, e.Nor)):
            out = kids[0]
            for k in kids[1:]:
                out = out | k
            return 1 - out if isinstance(node, e.Nor) else out
        if isinstance(node, (e.Xor, e.Xnor)):
            out = kids[0]
            for k in kids[1:]:
                out = out ^ k
            return 1 - out if isinstance(node, e.Xnor) else out
        if isinstance(node, e.AndNot):
            return kids[0] & (1 - kids[1])
        if isinstance(node, e.Maj):
            return ((kids[0].astype(int) + kids[1] + kids[2]) >= 2
                    ).astype(np.uint8)
        if isinstance(node, e.Select):
            return (kids[0] & kids[1]) | ((1 - kids[0]) & kids[2])
        if isinstance(node, e.Match):
            out = np.ones(width, dtype=np.uint8)
            for kid, bit, care in zip(kids, node.key, node.mask):
                if care:
                    out &= kid ^ (1 - bit)
            return out
        raise AssertionError(type(node))

    env = {name: np.asarray(bits, dtype=np.uint8)
           for name, bits in table.items()}
    for name, expr in program.statements:
        env[name] = eval_expr(expr, env)
    return {name: env[name] for name in program.outputs}


def run_program_on_backends(program, table, *,
                            technology="feram-2tnc", n_shards=3,
                            functional=True, warmup_queries=(),
                            fused=True, workers=None,
                            parallel_min_work=None):
    """Run one program on a fresh service pair; returns
    ``(reference_result, vector_result, reference_stats, vector_stats)``.

    ``warmup_queries`` run first on both services (uncached) so the
    equivalence is also exercised from evolved column-flag state.
    ``fused``/``workers``/``parallel_min_work`` select the vector
    backend's executor tier (the reference replay ignores them).
    """
    n_bits = len(next(iter(table.values())))
    results = {}
    ledgers = {}
    for backend in ("reference", "vector"):
        service = BitwiseService(technology, n_bits=n_bits,
                                 n_shards=n_shards,
                                 functional=functional, backend=backend,
                                 fuse=fused, workers=workers)
        if parallel_min_work is not None:
            service._parallel_min_work = parallel_min_work
        try:
            for name, bits in table.items():
                service.create_column(
                    name, bits if functional else None)
            for query in warmup_queries:
                service.query(query, use_cache=False)
            results[backend] = service.run_program(program)
            ledgers[backend] = service.stats()
        finally:
            service.close()
    return (results["reference"], results["vector"],
            ledgers["reference"], ledgers["vector"])


def assert_program_equivalent(program, table, *,
                              technology="feram-2tnc", n_shards=3,
                              functional=True, warmup_queries=(),
                              check_ground_truth=True,
                              fused=True, workers=None,
                              parallel_min_work=None):
    """THE differential assertion (see module docstring).

    Returns ``(reference_result, vector_result)`` for further checks.
    """
    ref, vec, ref_ledger, vec_ledger = run_program_on_backends(
        program, table, technology=technology, n_shards=n_shards,
        functional=functional, warmup_queries=warmup_queries,
        fused=fused, workers=workers,
        parallel_min_work=parallel_min_work)

    # --- bits ---------------------------------------------------------
    if functional:
        expected = numpy_program_eval(program, table) \
            if check_ground_truth else None
        for name in program.outputs:
            assert np.array_equal(ref.outputs[name],
                                  vec.outputs[name]), \
                f"{technology}: output {name!r} bits diverge"
            assert ref.counts[name] == vec.counts[name], name
            if expected is not None:
                assert np.array_equal(vec.outputs[name],
                                      expected[name]), \
                    f"{technology}: output {name!r} != numpy truth"
    else:
        assert ref.outputs is None and vec.outputs is None

    # --- per-statement Stats ------------------------------------------
    assert len(ref.statements) == len(vec.statements) == len(program)
    for rs, vs in zip(ref.statements, vec.statements):
        assert rs.name == vs.name and rs.index == vs.index
        assert rs.stats.allclose(vs.stats), (
            f"{technology}: statement {rs.index} ({rs.name!r}) Stats "
            f"diverge:\n  reference={rs.stats}\n  vector={vs.stats}")

    # --- totals and service ledgers -----------------------------------
    assert ref.cycles == vec.cycles
    assert math.isclose(ref.energy_j, vec.energy_j,
                        rel_tol=1e-9, abs_tol=1e-15)
    assert ref.primitives_per_row == vec.primitives_per_row
    assert ref_ledger["rows_used"] == vec_ledger["rows_used"]
    assert ref_ledger["cycles_total"] == vec_ledger["cycles_total"]
    assert math.isclose(ref_ledger["energy_total_nj"],
                        vec_ledger["energy_total_nj"],
                        rel_tol=1e-9, abs_tol=1e-12)
    return ref, vec


def assert_program_runs_equivalent(program, table, *, runs: int,
                                   technology="feram-2tnc", n_shards=3):
    """Run one program ``runs`` times on a fresh service pair in
    lockstep, pinning the vector backend's memoized program charge to
    the engine replay after *every* run: per-statement Stats, totals,
    the compute ledger, the FeRAM TBA offsets and the column flags.

    Returns the vector service's compiled plan (its charge memo has
    seen every cost state of the run sequence).
    """
    from repro.arch.commands import Stats

    n_bits = len(next(iter(table.values())))
    ref_svc = BitwiseService(technology, n_bits=n_bits,
                             n_shards=n_shards, backend="reference")
    vec_svc = BitwiseService(technology, n_bits=n_bits,
                             n_shards=n_shards)
    try:
        for service in (ref_svc, vec_svc):
            for name, bits in table.items():
                service.create_column(name, bits)
        for run in range(runs):
            ref = ref_svc.run_program(program)
            vec = vec_svc.run_program(program)
            assert len(ref.statements) == len(vec.statements)
            for rs, vs in zip(ref.statements, vec.statements):
                assert rs.stats.allclose(vs.stats), \
                    f"run {run}: statement {rs.index} Stats diverge"
            assert ref.cycles == vec.cycles, f"run {run}"
            assert math.isclose(ref.energy_j, vec.energy_j,
                                rel_tol=1e-9, abs_tol=1e-15)
            engine_ledger = Stats()
            for shard in ref_svc._shards:
                engine_ledger.iadd(shard.engine.stats)
            assert engine_ledger.allclose(vec_svc._ledger), f"run {run}"
            assert vec_svc._tba_offsets == [
                getattr(shard.engine, "_tba_since_control_rewrite", 0)
                for shard in ref_svc._shards], f"run {run}"
            assert vec_svc._col_flags == {
                name: ref_svc._shards[0].columns[name].complemented
                for name in table}, f"run {run}"
        return vec_svc.compile_program(program)
    finally:
        ref_svc.close()
        vec_svc.close()


# ----------------------------------------------------------------------
# mutation op scripts
# ----------------------------------------------------------------------
def numpy_query_eval(expr, table):
    """Ground-truth evaluation of one query on plain numpy bit arrays."""
    from repro.arch.program import Program

    return numpy_program_eval(
        Program([("__q", expr)]), table)["__q"]


def apply_op_to_shadow(shadow: dict, op: tuple) -> None:
    """Mirror one mutation op onto the plain-numpy shadow table."""
    kind = op[0]
    if kind == "create":
        shadow[op[1]] = np.asarray(op[2], dtype=np.uint8).copy()
    elif kind == "drop":
        del shadow[op[1]]
    elif kind == "update":
        shadow[op[1]] = np.asarray(op[2], dtype=np.uint8).copy()
    elif kind == "write":
        _, name, offset, bits = op
        bits = np.asarray(bits, dtype=np.uint8)
        shadow[name][offset:offset + bits.size] = bits
    elif kind == "append":
        values = {name: np.asarray(bits, dtype=np.uint8)
                  for name, bits in op[1].items()}
        n = next(iter(values.values())).size
        for name in list(shadow):
            extra = values.get(name, np.zeros(n, dtype=np.uint8))
            shadow[name] = np.concatenate([shadow[name], extra])
    elif kind != "query":
        raise AssertionError(f"unknown op {kind!r}")


def apply_op_to_service(service: BitwiseService, op: tuple):
    """Apply one op; returns the QueryResult / MutationResult."""
    kind = op[0]
    if kind == "create":
        return service.create_column(op[1], op[2])
    if kind == "drop":
        return service.drop_column(op[1])
    if kind == "update":
        return service.update_column(op[1], op[2])
    if kind == "write":
        return service.write_slice(op[1], op[2], op[3])
    if kind == "append":
        return service.append_rows(op[1])
    if kind == "query":
        return service.query(op[1])
    raise AssertionError(f"unknown op {kind!r}")


def assert_ops_equivalent(initial_table: dict, ops, *,
                          technology="feram-2tnc", n_shards=3,
                          capacity=None, cache_size=64,
                          fused=True, workers=None,
                          parallel_min_work=None, replicas=0):
    """Differential assertion for serialized mutation/query scripts.

    Runs the same op script on a vector-backend service, a
    reference-backend service, and a plain-numpy shadow table; after
    every op, queries must return identical bits/counts/Stats on both
    backends and match the shadow; mutations must charge identical
    dirty rows/energy.  Finally the column states and the full service
    ledgers (compute + writeback maintenance) must agree.

    ``workers``/``parallel_min_work``/``replicas`` select the vector
    backend's executor tier (shared-memory process pool and replica
    routing); the reference replay ignores them.
    """
    n_bits = len(next(iter(initial_table.values())))
    services = {
        backend: BitwiseService(technology, n_bits=n_bits,
                                n_shards=n_shards, backend=backend,
                                capacity=capacity,
                                cache_size=cache_size,
                                fuse=fused, workers=workers,
                                replicas=(replicas if
                                          backend == "vector" else 0))
        for backend in ("reference", "vector")
    }
    if parallel_min_work is not None:
        services["vector"]._parallel_min_work = parallel_min_work
    shadow = {name: np.asarray(bits, dtype=np.uint8).copy()
              for name, bits in initial_table.items()}
    try:
        for name, bits in initial_table.items():
            for service in services.values():
                service.create_column(name, bits)
        for step, op in enumerate(ops):
            ref = apply_op_to_service(services["reference"], op)
            vec = apply_op_to_service(services["vector"], op)
            apply_op_to_shadow(shadow, op)
            label = f"op {step} {op[0]!r}"
            if op[0] == "query":
                truth = numpy_query_eval(op[1], shadow)
                assert np.array_equal(vec.bits, truth), \
                    f"{label}: vector bits != shadow"
                assert np.array_equal(ref.bits, truth), \
                    f"{label}: reference bits != shadow"
                assert ref.count == vec.count == int(truth.sum()), label
                assert ref.cache_hit == vec.cache_hit, label
                assert ref.cycles == vec.cycles, label
                assert math.isclose(ref.energy_j, vec.energy_j,
                                    rel_tol=1e-9, abs_tol=1e-15), label
            elif op[0] not in ("create", "drop"):
                assert ref.rows_written == vec.rows_written, label
                assert ref.dirty_shards == vec.dirty_shards, label
                assert ref.invalidated == vec.invalidated, label
                assert math.isclose(ref.energy_j, vec.energy_j,
                                    rel_tol=1e-9, abs_tol=1e-15), label
        for name, bits in shadow.items():
            for backend, service in services.items():
                got = service.column_bits(name)
                assert np.array_equal(got, bits), \
                    f"final state of {name!r} diverges on {backend}"
        ref_stats = services["reference"].stats()
        vec_stats = services["vector"].stats()
        assert ref_stats["cycles_total"] == vec_stats["cycles_total"]
        assert math.isclose(ref_stats["energy_total_nj"],
                            vec_stats["energy_total_nj"],
                            rel_tol=1e-9, abs_tol=1e-12)
        assert ref_stats["writeback"] == vec_stats["writeback"]
        return ref_stats, vec_stats
    finally:
        for service in services.values():
            service.close()
