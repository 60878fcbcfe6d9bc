"""Per-layer metrics of a traced pass.

Times are per completed operation of the timed window (``_us``), per
acknowledged write (``durability.*_us``) or per replayed WAL record.
A layer's time is the self time of its spans (see
:func:`spans.self_times`); ``server.self_us`` is the event-loop
callbacks of connection tasks, ``scheduler.self_us`` those of the
scheduler's task, each minus the codec spans inside them.
``scheduler.wait_us`` is the time a request spends inside the
scheduler's ``submit_*`` coroutine beyond the service call that
answered it and the WAL group commit it waited for.
``durability.fsyncs_per_write`` and ``durability.wal_bytes_per_write``
count the WAL's fdatasync calls and appended bytes (mutation records
and the reads' accounting records) in the timed window, per
acknowledged write.  ``scheduler.*`` counts come from the server's
``stats`` op at the end of the timed window.  Metrics of a layer a
workload does not use are 0.
"""

from __future__ import annotations

from spans import layer_self, totals

_MUTATIONS = ("service.write_slice", "service.update_column")


def layer_metrics(out, *, memcpy_gbps: float, spans_doc=None,
                  recovery_doc=None, untraced=None) -> dict:
    tr = out.trace
    lo, hi = tr["lo"], tr["hi"]
    ops = max(tr["ops"], 1)
    writes = tr["writes"]
    spans = spans_doc["spans"] if spans_doc else []
    waits = spans_doc["waits"] if spans_doc else []
    named = totals(spans, lo, hi)
    own = layer_self(spans, lo, hi)

    def span(name, key="wall_s"):
        return named.get(name, {}).get(key, 0.0)

    def per_op(seconds):
        return 1e6 * seconds / ops

    def per_write(seconds):
        return 1e6 * seconds / writes if writes else 0.0

    answered = 0.0  # service time each request waited for
    for _, _, name, _, t0, t1, arg in spans:
        if lo <= t1 <= hi:
            if name == "service.execute":
                answered += (t1 - t0) * arg
            elif name in _MUTATIONS or name == "durability.commit_groups":
                answered += (t1 - t0) * max(arg, 1)
    submitted = sum(t1 - t0 for _, _, t0, t1 in waits if lo <= t1 <= hi)
    kernel_bytes = sum(span(f"columnstore.{attr}", "arg")
                       for attr in ("run", "run_outputs", "popcounts"))
    kernel_s = own.get("columnstore", 0.0)
    probe = tr["probe"]
    stats = tr.get("stats") or {}
    scheduler = stats.get("scheduler") or {}
    log_ids = {s[0] for s in spans if s[2] == "durability.log"}
    wal_bytes = sum(s[6] for s in spans if s[2] == "durability.write"
                    and s[1] in log_ids and lo <= s[5] <= hi)
    recovery = tr.get("recovery") or {}
    records = recovery.get("records_replayed", 0)
    replay_s = 0.0
    if recovery_doc:
        rec = recovery_doc["spans"]
        ends = [s[5] for s in rec if s[2] == "durability.recover_service"]
        if ends:
            replay_s = sum(s[5] - s[4] for s in rec
                           if s[2] in _MUTATIONS and s[5] <= ends[0])
    run_s = span("program.run_program")
    metrics = {
        "server.self_us": per_op(span("server.loop", "self_s")),
        "wire.decode_us": per_op(span("wire.decode_frame", "self_s")
                                 + span("wire.json_loads", "self_s")),
        "wire.encode_us": per_op(span("wire.encode_frame", "self_s")
                                 + span("wire.json_dumps", "self_s")),
        "scheduler.self_us": per_op(span("scheduler.loop", "self_s")),
        "scheduler.wait_us": per_op(max(submitted - answered, 0.0)),
        "scheduler.queries_per_batch": _ratio(
            scheduler.get("batched_queries", 0),
            scheduler.get("batches", 0)),
        "scheduler.window_skip_ratio": _ratio(
            scheduler.get("window_skips", 0),
            scheduler.get("batches", 0) + scheduler.get("exclusives", 0)),
        "scheduler.group_commit_size": _ratio(
            scheduler.get("exclusives", 0),
            scheduler.get("wal_group_commits", 0)),
        "expr.compile_us": per_op(span("service.compile")),
        "expr.compiles_per_query": _ratio(
            named.get("expr.compile_expr", {}).get("n", 0),
            tr["queries"]),
        "service.execute_self_us": per_op(
            span("service.execute", "self_s")),
        "service.result_cache_hit_ratio": tr["hit_ratio"],
        "columnstore.kernel_us": per_op(kernel_s),
        "columnstore.bytes_read_per_op": kernel_bytes / ops,
        "columnstore.gbps": kernel_bytes / kernel_s / 1e9
        if kernel_s else 0.0,
        "host.memcpy_gbps": memcpy_gbps,
        "primitives.charge_us": per_op(own.get("primitives", 0.0)),
        "durability.log_us": per_write(span("durability.log")),
        "durability.commit_us": per_write(
            span("durability.commit_groups")),
        "durability.snapshot_us": per_write(
            span("durability.write_snapshot")),
        "durability.fsyncs_per_write": _ratio(
            named.get("durability.fdatasync", {}).get("n", 0), writes),
        "durability.wal_bytes_per_write": _ratio(wal_bytes, writes),
        "durability.replay_records": float(records),
        "durability.replay_us_per_record": 1e6 * replay_s / records
        if records else 0.0,
        "program.compile_us": per_op(span("program.compile_program")),
        "program.run_us": per_op(span("program.run_program", "self_s")),
        "program.lanes_per_s": tr.get("lanes", 0) / run_s
        if run_s else 0.0,
        "server.cpu_us_per_op": per_op(probe.server_cpu_s()),
        "client.cpu_us_per_op": per_op(probe.client_cpu_s()),
        "host.steal_pct": probe.steal_pct(),
        "trace.overhead_pct": 100.0 * (
            1.0 - out.metrics["throughput_rps"]
            / untraced.metrics["throughput_rps"]) if untraced else 0.0,
    }
    return metrics


def breakdown(out, spans_doc) -> str:
    """One line: per-operation self time by layer next to the traced
    mean latency, to check which layers the latency is made of."""
    tr = out.trace
    own = layer_self(spans_doc["spans"], tr["lo"], tr["hi"]) \
        if spans_doc else {}
    ops = max(tr["ops"], 1)
    parts = ", ".join(f"{layer} {1e6 * seconds / ops:.1f}"
                      for layer, seconds in sorted(
                          own.items(), key=lambda kv: -kv[1]))
    return (f"traced self time per op (us): {parts}; traced p50 "
            f"{out.metrics['p50_ms'] * 1e3:.1f} us")


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
