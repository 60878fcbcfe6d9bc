"""Perf smoke: timed hot paths, recorded to BENCH_substrate.json.

Runs the benchmarks the optimization work targets — the ``variation``
Monte-Carlo experiment, the ``fig3f`` SPICE TBA sweep, the RC transient
solve, the behavioral level sweep, a sharded-service query batch,
the 16Mi-lane BNN program (``workload_scale``) and the per-run
bookkeeping of a 1544-statement CRC-8 program (``program_overhead``)
— and writes wall-clock
timings (with the frozen seed baselines for trajectory) plus the
compiler's native-primitive counts to ``BENCH_substrate.json`` at the
repo root.  CI runs this after the test suite so every PR leaves a
recorded perf data point.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [output.json]
    PYTHONPATH=src python benchmarks/perf_smoke.py out.json --check BENCH_substrate.json
    PYTHONPATH=src python benchmarks/perf_smoke.py --summary-from out.json

``--check BASELINE`` turns the run into a regression gate: it fails
(exit 1) when any timed benchmark is more than ``REGRESSION_TOLERANCE``
slower than the committed baseline, or when a compiled primitive count
regresses at all.  ``--summary-from RECORD`` prints a markdown
baseline-vs-measured trajectory table from an existing record (used by
CI to publish the perf history in the job summary) and exits.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.arch.expr import compile_expr
from repro.core.behavioral import BehavioralCell
from repro.experiments.registry import run_experiment
from repro.service import BitwiseService
from repro.spice import (
    PWL,
    Capacitor,
    Circuit,
    Resistor,
    TransientSolver,
    VoltageSource,
)
from repro.workloads import bitmap_index, set_ops

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_cam import MIN_ROWS_PER_S, cam_scale  # noqa: E402
from bench_durability import recovery_time, wal_overhead  # noqa: E402
from bench_serving import serving_latency  # noqa: E402

#: wall-clock seconds of the seed implementation (commit 253f800,
#: measured on the same container class CI uses), kept as the fixed
#: "before" reference each run is compared against.  Entries introduced
#: after the seed use their introduction-time measurement as baseline.
SEED_BASELINE_S = {
    "variation": 5.22,
    "fig3f": 2.90,
    "rc_transient": 0.0393,
    "behavioral_level_sweep": 0.0358,
    # introduced with the compiler/service PR; baseline = first measure
    "service_batch": 0.0083,
    # introduced with the columnar executor PR (reference-backend
    # measure of the same 16Mi-bit mixed batch); baseline = the
    # engine-replay path the vectorized executor replaces
    "service_scale": 0.2364,
    # introduced with the program-executor PR: 16Mi-lane BNN inference
    # as a 252-statement program; baseline = the interpreted per-shard
    # engine replay of the same program (backend="reference")
    "workload_scale": 0.573,
    # introduced with the async serving PR: closed-loop mixed
    # query/mutation load from 6 concurrent TCP clients (240 requests)
    # through the batching scheduler; baseline = introduction measure
    "serving_latency": 0.0654,
    # introduced with the component-registry PR: the default 12-point
    # design-space sweep (closed-form plan_stats re-costing + Pareto
    # extraction); baseline = introduction measure
    "explore_sweep": 0.0275,
    # introduced with the durability PR: 64 mutations through the
    # write-ahead log with sync="batch" (one fsync per barrier);
    # baseline = introduction measure.  Cold recovery of the 16Mi-bit
    # store rides along as a nested (ungated) record.
    "durability": 0.032,
    # introduced with the CAM search PR: four exact/ternary searches
    # over a 16Mi-row, 16-bit key field through service.match
    # (vectorized AND-of-literals + closed-form read-path energy);
    # baseline = introduction measure.  Also gated by a hard
    # MIN_ROWS_PER_S throughput floor.
    "cam_scale": 0.0139,
    # introduced with the whole-program charge memo: warm run_program
    # median of CRC-8 over 256 lanes (1544 statements, kernels of a
    # few words, so per-statement bookkeeping dominates); baseline =
    # the per-statement Stats merges the memo replaces, same box
    "program_overhead": 0.0084,
}

#: allowed relative slowdown vs the committed baseline (CI gate)
REGRESSION_TOLERANCE = 0.25

#: absolute grace added on top of the relative tolerance — sub-50 ms
#: timings routinely jitter more than 25% across shared CI runners, and
#: a wall-clock gate must not go red on scheduler noise
REGRESSION_GRACE_S = 0.05

#: queries whose compiled-vs-naive native primitive counts are recorded
PRIMITIVE_QUERIES = {
    "fig6_bitmap": "(c0 & c1 & ~c2) | (c3 & c4 & c5)",
    "cse_3term": "(c0 & c1 & ~c2) | (c0 & c1 & c3) | (c4 & c5)",
}


def _time(fn, *, repeat: int = 1) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _rc_transient():
    ckt = Circuit("rc")
    ckt.add(VoltageSource("vin", "in", "0", PWL([(0, 0.0), (1e-9, 1.0)])))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", "0", 1e-9))
    result = TransientSolver(ckt).run(1e-6, 1e-9)
    assert len(result) > 500
    return result


def _service_batch():
    """A 1 Mi-bit, 4-shard service answering a five-query batch."""
    rng = np.random.default_rng(0)
    n_bits = 1 << 20
    with BitwiseService("feram-2tnc", n_bits=n_bits, n_shards=4) as svc:
        for name in ("a", "b", "c", "d"):
            svc.create_column(
                name, (rng.random(n_bits) < 0.35).astype(np.uint8))
        queries = ["a & ~b", "(a & b & ~c) | (c & d)", "a ^ b",
                   "maj(a, b, c) | ~d", "(a & b & ~c) | (a & b & d)"]

        def run():
            results = svc.execute(queries, use_cache=False)
            assert all(result.count is not None for result in results)

        run()  # warm the plan cache; the timing measures execution
        return _time(run, repeat=3)


#: service_scale geometry: a 16 Mi-bit table (≥16M bits per column)
SCALE_BITS = 1 << 24
SCALE_SHARDS = 8


def _scale_queries() -> list[str]:
    """Mixed workload batch: bitmap-index predicates + set algebra."""
    return (bitmap_index.service_queries()
            + set_ops.service_queries("c0", "c1"))


def _service_scale(*, backend: str = "vector", fuse: bool = True,
                   workers: int | None = None,
                   repeat: int = 3) -> dict:
    """Large-scale serving throughput: mixed queries over 16Mi bits.

    Returns the best batch wall-clock plus derived throughput
    (table-rows answered per second across the batch) and the mean
    attributed in-memory energy per query.  ``fuse``/``workers``
    select the vector executor tier for variant records.
    """
    rng = np.random.default_rng(1)
    queries = _scale_queries()
    with BitwiseService("feram-2tnc", n_bits=SCALE_BITS,
                        n_shards=SCALE_SHARDS, backend=backend,
                        fuse=fuse, workers=workers) as svc:
        if workers is not None and workers > 1:
            # Worker variants measure the process tier itself: drop
            # the work threshold so every query scatters.
            svc._parallel_min_work = 0
        for k in range(bitmap_index.N_COLUMNS):
            svc.create_column(
                f"c{k}",
                (rng.random(SCALE_BITS) < 0.4).astype(np.uint8))

        energy: list[float] = []

        def run():
            results = svc.execute(queries, use_cache=False)
            assert all(result.count is not None for result in results)
            energy[:] = [result.energy_j for result in results]

        run()  # warm plans / programs / probed cost events
        seconds = _time(run, repeat=repeat)
    return {
        "seconds": seconds,
        "rows_per_s": SCALE_BITS * len(queries) / seconds,
        "queries": len(queries),
        "energy_per_query_nj": 1e9 * sum(energy) / len(energy),
    }


#: workload_scale geometry: BNN inference over 16 Mi lanes (16
#: features, 4 neurons -> a 252-statement popcount/threshold program)
WORKLOAD_SCALE_LANES = 1 << 24
WORKLOAD_SCALE_SHARDS = 8


def _workload_scale(*, backend: str = "vector", fuse: bool = True,
                    workers: int | None = None,
                    repeat: int = 3) -> dict:
    """Program-executor throughput: 16Mi-lane BNN on the service.

    The whole dense layer runs as one multi-statement program
    (XNOR + popcount adder trees + thresholds); returns the best
    program wall-clock plus lanes/s and the attributed in-memory
    energy per lane.
    """
    from repro.workloads.bnn import BnnInference
    from repro.workloads.programs import generate_inputs

    workload = BnnInference(WORKLOAD_SCALE_LANES * 16 // 8)
    program = workload.as_program(seed=1)
    assert program.n_lanes == WORKLOAD_SCALE_LANES
    inputs = generate_inputs(program, seed=1)
    with BitwiseService("feram-2tnc", n_bits=program.n_lanes,
                        n_shards=WORKLOAD_SCALE_SHARDS,
                        backend=backend, fuse=fuse,
                        workers=workers) as svc:
        for name, bits in inputs.items():
            svc.create_column(name, bits)
        last = {}

        def run():
            last["result"] = svc.run_program(program.program)

        run()  # warm: program compile + cost-event probe
        seconds = _time(run, repeat=repeat)
        energy_j = last["result"].energy_j
    return {
        "seconds": seconds,
        "lanes": program.n_lanes,
        "statements": len(program.program),
        "rows_per_s": program.n_lanes / seconds,
        "energy_per_lane_nj": energy_j * 1e9 / program.n_lanes,
    }


#: program_overhead geometry: CRC-8 over 16 KiB of messages -> 256
#: lanes and a 1544-statement feedback-chain program
PROGRAM_OVERHEAD_BYTES = 1 << 14
#: warm-up runs: program compile, cost-event probe and one full FeRAM
#: TBA-offset cycle (<= 32 cost states) of charge-memo fills
PROGRAM_OVERHEAD_WARMUP = 64


def _program_overhead(*, runs: int = 200) -> dict:
    """Per-run program bookkeeping: median warm ``run_program`` time.

    ``workload_scale`` runs 16 Mi lanes and is kernel-bound; here the
    kernels touch a few words each, so the timing is the service's
    per-run accounting (plan lookup, closed-form charge, disturb
    reads, result assembly).  Returns the median plus its per-statement
    share.
    """
    from repro.workloads import PROGRAM_WORKLOADS
    from repro.workloads.programs import generate_inputs

    workload = PROGRAM_WORKLOADS["crc8"](PROGRAM_OVERHEAD_BYTES) \
        .as_program(seed=1)
    inputs = generate_inputs(workload, seed=1)
    times = []
    with BitwiseService("feram-2tnc", n_bits=workload.n_lanes) as svc:
        for name, bits in inputs.items():
            svc.create_column(name, bits)
        for _ in range(PROGRAM_OVERHEAD_WARMUP + runs):
            start = time.perf_counter()
            svc.run_program(workload.program)
            times.append(time.perf_counter() - start)
    seconds = float(np.median(times[PROGRAM_OVERHEAD_WARMUP:]))
    statements = len(workload.program)
    return {"seconds": seconds, "lanes": workload.n_lanes,
            "statements": statements,
            "us_per_statement": 1e6 * seconds / statements}


def _explore_sweep(*, repeat: int = 5) -> dict:
    """Design-space sweep throughput: the default grid re-costed in
    closed form (the warm-up probes the workload suite once; the
    timing measures per-point spec assembly + ``plan_stats`` expansion
    + Pareto extraction across all points)."""
    from repro.explore import default_sweep_geometries, run_explore

    geometries = default_sweep_geometries()
    last = {}

    def run():
        last["payload"] = run_explore(geometries)

    run()  # warm: compile + probe the workload suite
    seconds = _time(run, repeat=repeat)
    payload = last["payload"]
    return {"seconds": seconds,
            "points": len(payload["points"]),
            "pareto": payload["pareto"]}


def primitive_counts() -> dict:
    """Compiled-vs-naive native primitive counts per row."""
    record = {}
    for label, query in PRIMITIVE_QUERIES.items():
        feram = compile_expr(query, inverting=True)
        dram = compile_expr(query, inverting=False)
        record[label] = {
            "query": query,
            "feram_acp_per_row": {"naive": feram.naive_primitives,
                                  "compiled": feram.primitives},
            "dram_aap_per_row": {"naive": dram.naive_primitives,
                                 "compiled": dram.primitives},
        }
    return record


def run_smoke() -> dict:
    timings = {}
    # Warm imports/caches once so timings measure the hot paths.
    _rc_transient()
    BehavioralCell(n_caps=3).level_sweep()

    report = run_experiment("variation")
    assert report.passed, "variation experiment regressed"
    timings["variation"] = _time(lambda: run_experiment("variation"),
                                 repeat=3)

    report = run_experiment("fig3f")
    assert report.passed, "fig3f experiment regressed"
    timings["fig3f"] = _time(lambda: run_experiment("fig3f"), repeat=3)

    timings["rc_transient"] = _time(_rc_transient, repeat=5)
    timings["behavioral_level_sweep"] = _time(
        lambda: BehavioralCell(n_caps=3).level_sweep(), repeat=5)
    timings["service_batch"] = _service_batch()
    scale = _service_scale(repeat=5)
    timings["service_scale"] = scale["seconds"]
    # Executor-tier variants: same batch with the fuser off and across
    # process-worker counts (nested records; not part of the gate).
    scale_unfused = _service_scale(fuse=False, repeat=1)
    cores = len(os.sched_getaffinity(0))
    scale_procs = {n: _service_scale(workers=n, repeat=1)
                   for n in (1, 2, 4)}
    if cores >= 4:
        # The serving-scale acceptance gate: four process workers must
        # at least halve the single-process batch time.  Only
        # meaningful where the container actually exposes the cores.
        assert scale_procs[4]["seconds"] * 2.0 <= \
            scale_procs[1]["seconds"], (
                f"service_scale w4 {scale_procs[4]['seconds']:.4f}s "
                f"is not >=2x faster than w1 "
                f"{scale_procs[1]['seconds']:.4f}s on {cores} cores")
    workload = _workload_scale(repeat=5)
    timings["workload_scale"] = workload["seconds"]
    workload_unfused = _workload_scale(fuse=False, repeat=1)
    overhead = _program_overhead()
    timings["program_overhead"] = overhead["seconds"]
    serving = min((serving_latency() for _ in range(3)),
                  key=lambda record: record["seconds"])
    timings["serving_latency"] = serving["seconds"]
    serving_binary = serving_latency(wire="binary")
    serving_procs = {n: serving_latency(workers=n) for n in (1, 2, 4)}
    serving_replica = serving_latency(replicas=2)
    if cores >= 4:
        # More workers must never cost throughput on a real multicore.
        assert serving_procs[1]["qps"] <= serving_procs[2]["qps"] <= \
            serving_procs[4]["qps"], (
                "serving_latency qps not monotone across workers: "
                + ", ".join(f"w{n}={serving_procs[n]['qps']:.0f}"
                            for n in (1, 2, 4)))
    # Best-of-3 like the plain run, so overhead_vs_plain compares
    # like with like (the closed loop jitters ~15% run to run).
    serving_durable = min((serving_latency(durable=True)
                           for _ in range(3)),
                          key=lambda record: record["seconds"])
    explore = _explore_sweep(repeat=5)
    timings["explore_sweep"] = explore["seconds"]
    # Best-of-3: the WAL path's fsyncs jitter more than pure-CPU
    # benches on shared runners.
    durability = min((wal_overhead() for _ in range(3)),
                     key=lambda record: record["seconds"])
    timings["durability"] = durability["seconds"]
    recovery = recovery_time()
    cam = cam_scale(repeat=3)
    timings["cam_scale"] = cam["seconds"]
    assert cam["rows_per_s"] >= MIN_ROWS_PER_S, (
        f"cam_scale throughput {cam['rows_per_s']:.3g} row-matches/s "
        f"fell below the {MIN_ROWS_PER_S:.0e} floor")

    entries = {}
    for name, seconds in timings.items():
        seed = SEED_BASELINE_S[name]
        entries[name] = {
            "seed_s": seed,
            "measured_s": round(seconds, 4),
            "speedup_vs_seed": round(seed / seconds, 2),
        }
    entries["service_scale"].update({
        "rows_per_s": round(scale["rows_per_s"]),
        "queries": scale["queries"],
        "energy_per_query_nj": round(scale["energy_per_query_nj"], 1),
        "variants": {
            "unfused_s": round(scale_unfused["seconds"], 4),
            "fuse_speedup": round(
                scale_unfused["seconds"] / scale["seconds"], 2),
            # Multi-process shard workers over the shared-memory
            # store (w1 = same coordinator, serial execution).
            "process_workers": {
                "cores_visible": cores,
                **{f"w{n}_s": round(record["seconds"], 4)
                   for n, record in scale_procs.items()},
                "scaling_w2": round(scale_procs[1]["seconds"]
                                    / scale_procs[2]["seconds"], 2),
                "scaling_w4": round(scale_procs[1]["seconds"]
                                    / scale_procs[4]["seconds"], 2),
            },
        },
    })
    entries["workload_scale"].update({
        "lanes": workload["lanes"],
        "statements": workload["statements"],
        "rows_per_s": round(workload["rows_per_s"]),
        "energy_per_lane_nj": round(workload["energy_per_lane_nj"], 4),
        "variants": {
            "unfused_s": round(workload_unfused["seconds"], 4),
            "fuse_speedup": round(
                workload_unfused["seconds"] / workload["seconds"], 2),
        },
    })
    entries["program_overhead"].update({
        "lanes": overhead["lanes"],
        "statements": overhead["statements"],
        "us_per_statement": round(overhead["us_per_statement"], 3),
    })
    entries["serving_latency"].update({
        "clients": serving["clients"],
        "requests": serving["requests"],
        "mutation_share": serving["mutation_share"],
        "p50_ms": round(serving["p50_ms"], 3),
        "p99_ms": round(serving["p99_ms"], 3),
        "qps": round(serving["qps"]),
        "encode_ms_per_request": round(
            serving["encode_ms_per_request"], 4),
        "batches": serving["batches"],
        "cache_hits": serving["cache_hits"],
        "mutations": serving["mutations"],
        "variants": {
            "binary_wire": {
                "seconds": round(serving_binary["seconds"], 4),
                "p50_ms": round(serving_binary["p50_ms"], 3),
                "p99_ms": round(serving_binary["p99_ms"], 3),
                "qps": round(serving_binary["qps"]),
                "encode_ms_per_request": round(
                    serving_binary["encode_ms_per_request"], 4),
            },
            # Same closed loop with the write-ahead log fsyncing every
            # mutation barrier (sync="batch") — the durability tax on
            # the serving path.
            "durable_wal": {
                "seconds": round(serving_durable["seconds"], 4),
                "p50_ms": round(serving_durable["p50_ms"], 3),
                "p99_ms": round(serving_durable["p99_ms"], 3),
                "qps": round(serving_durable["qps"]),
                "overhead_vs_plain": round(
                    serving_durable["seconds"] / serving["seconds"], 3),
            },
            # Same closed loop through the multi-process shard-worker
            # tier (shared-memory store, scatter/gather coordinator).
            "multiprocess": {
                "cores_visible": cores,
                **{f"w{n}": {
                    "seconds": round(record["seconds"], 4),
                    "qps": round(record["qps"]),
                    "p50_ms": round(record["p50_ms"], 3),
                } for n, record in serving_procs.items()},
            },
            # Closed loop with two async read replicas; queries route
            # to them under the generation-fence staleness contract.
            "replicas": {
                "n": serving_replica["replicas"],
                "seconds": round(serving_replica["seconds"], 4),
                "qps": round(serving_replica["qps"]),
                "p50_ms": round(serving_replica["p50_ms"], 3),
                "replica_reads": serving_replica["replica_reads"],
            },
        },
    })
    entries["durability"].update({
        "mutations": durability["mutations"],
        "wal_ms_per_mutation": round(
            durability["wal_ms_per_mutation"], 4),
        "plain_ms_per_mutation": round(
            durability["plain_ms_per_mutation"], 4),
        "overhead_x": round(durability["overhead_x"], 2),
        "wal_bytes": durability["wal_bytes"],
        # Cold-restart latency for the 16Mi-bit store: snapshot load
        # plus WAL-tail replay (nested record; not part of the gate —
        # disk-bound and too jittery for a 25% wall-clock gate).
        "recovery": {
            "seconds": round(recovery["seconds"], 4),
            "n_bits": recovery["n_bits"],
            "columns": recovery["columns"],
            "wal_records_replayed": recovery["wal_records_replayed"],
            "mbits_per_s": round(recovery["mbits_per_s"], 1),
        },
    })
    entries["cam_scale"].update({
        "searches": cam["searches"],
        "key_width": cam["key_width"],
        "rows_per_s": round(cam["rows_per_s"]),
        "energy_per_search_nj": round(cam["energy_per_search_nj"], 1),
        "floor_rows_per_s": MIN_ROWS_PER_S,
        # Raw packed-word kernel rate (no service/plan overhead)
        "kernel_rows_per_s": cam["kernel"]["rows_per_s"],
    })
    entries["explore_sweep"].update({
        "points": explore["points"],
        "pareto": [
            {"technology": point["technology"],
             "f_nm": point["f_nm"],
             "n_caps": point["n_caps"],
             "energy_pj_per_bit": round(
                 point["energy_pj_per_bit"], 3),
             "area_nm2_per_bit": round(
                 point["area_nm2_per_bit"], 1)}
            for point in explore["pareto"]],
    })
    return {
        "suite": "substrate",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": entries,
        "primitive_counts": primitive_counts(),
    }


def check_regression(payload: dict, baseline_path: Path) -> list[str]:
    """Compare a fresh run against the committed record.

    Timings may drift up to ``REGRESSION_TOLERANCE``; primitive counts
    are deterministic and must not regress at all.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, entry in baseline.get("benchmarks", {}).items():
        measured = payload["benchmarks"].get(name)
        if measured is None:
            failures.append(f"benchmark {name!r} disappeared")
            continue
        limit = entry["measured_s"] * (1.0 + REGRESSION_TOLERANCE) \
            + REGRESSION_GRACE_S
        if measured["measured_s"] > limit:
            failures.append(
                f"{name}: {measured['measured_s']:.4f}s vs baseline "
                f"{entry['measured_s']:.4f}s (> {limit:.4f}s allowed)")
    for label, entry in baseline.get("primitive_counts", {}).items():
        measured = payload["primitive_counts"].get(label)
        if measured is None:
            failures.append(f"primitive record {label!r} disappeared")
            continue
        for tech_key in ("feram_acp_per_row", "dram_aap_per_row"):
            before = entry[tech_key]["compiled"]
            after = measured[tech_key]["compiled"]
            if after > before:
                failures.append(
                    f"{label}/{tech_key}: compiled primitives "
                    f"regressed {before} -> {after}")
    return failures


def print_summary(payload: dict) -> None:
    """Markdown baseline-vs-measured trajectory table (CI job summary)."""
    print("## Perf trajectory (`BENCH_substrate.json`)")
    print()
    print("| benchmark | seed (s) | measured (s) | speedup vs seed |")
    print("| --- | ---: | ---: | ---: |")
    for name, entry in payload.get("benchmarks", {}).items():
        print(f"| {name} | {entry['seed_s']:.4f} "
              f"| {entry['measured_s']:.4f} "
              f"| {entry['speedup_vs_seed']:.2f}x |")
    scale = payload.get("benchmarks", {}).get("service_scale", {})
    if "rows_per_s" in scale:
        print()
        print(f"`service_scale`: {scale['rows_per_s'] / 1e9:.2f} G "
              f"table-rows/s over {scale['queries']} mixed queries, "
              f"{scale['energy_per_query_nj'] / 1e6:.2f} mJ "
              f"attributed per query.")
    variants = scale.get("variants", {})
    if "fuse_speedup" in variants:
        print()
        print(f"Fused vs unfused (`service_scale`): "
              f"{variants['unfused_s']:.4f}s unfused -> "
              f"{scale['measured_s']:.4f}s fused "
              f"({variants['fuse_speedup']:.2f}x).")
    procs = variants.get("process_workers", {})
    if "w4_s" in procs:
        print()
        print(f"Process-worker scaling (`service_scale`, "
              f"{procs['cores_visible']} cores visible): "
              f"w1 {procs['w1_s']:.4f}s -> w2 {procs['w2_s']:.4f}s "
              f"({procs['scaling_w2']:.2f}x) -> "
              f"w4 {procs['w4_s']:.4f}s "
              f"({procs['scaling_w4']:.2f}x); efficiency "
              f"{procs['scaling_w4'] / 4:.0%} at 4 workers.")
    workload = payload.get("benchmarks", {}).get("workload_scale", {})
    if "rows_per_s" in workload:
        print()
        print(f"`workload_scale`: {workload['rows_per_s'] / 1e6:.0f} M "
              f"BNN lanes/s ({workload['lanes'] >> 20} Mi lanes, "
              f"{workload['statements']}-statement program), "
              f"{workload['energy_per_lane_nj']:.3f} nJ attributed "
              f"per lane; speedup is vs the interpreted engine-replay "
              f"backend on the same program.")
    overhead = payload.get("benchmarks", {}).get("program_overhead", {})
    if "statements" in overhead:
        print()
        print(f"`program_overhead`: warm run_program median "
              f"{overhead['measured_s'] * 1e3:.2f} ms for a "
              f"{overhead['statements']}-statement CRC-8 program over "
              f"{overhead['lanes']} lanes "
              f"({overhead['us_per_statement']:.2f} us/statement).")
    serving = payload.get("benchmarks", {}).get("serving_latency", {})
    if "qps" in serving:
        print()
        print(f"`serving_latency`: {serving['qps']} req/s from "
              f"{serving['clients']} closed-loop clients "
              f"({serving['mutation_share']:.0%} mutations), "
              f"p50 {serving['p50_ms']:.2f} ms / "
              f"p99 {serving['p99_ms']:.2f} ms; "
              f"{serving['cache_hits']} cache hits survived "
              f"{serving['mutations']} in-place column mutations "
              f"(dependency-aware invalidation).")
    binary = serving.get("variants", {}).get("binary_wire", {})
    if "qps" in binary:
        print()
        print(f"Binary wire (`serving_latency` variant): "
              f"{binary['qps']} req/s, p50 {binary['p50_ms']:.2f} ms, "
              f"client encode {binary['encode_ms_per_request']:.4f} "
              f"ms/req vs {serving['encode_ms_per_request']:.4f} "
              f"ms/req over JSON.")
    multiproc = serving.get("variants", {}).get("multiprocess", {})
    if "w4" in multiproc:
        print()
        print(f"Multi-process serving (`serving_latency` variants, "
              f"{multiproc['cores_visible']} cores visible): "
              + " -> ".join(
                  f"w{n} {multiproc[f'w{n}']['qps']} req/s "
                  f"(p50 {multiproc[f'w{n}']['p50_ms']:.2f} ms)"
                  for n in (1, 2, 4)) + ".")
    replicas = serving.get("variants", {}).get("replicas", {})
    if "qps" in replicas:
        print()
        print(f"Read replicas (`serving_latency` variant, "
              f"n={replicas['n']}): {replicas['qps']} req/s, "
              f"p50 {replicas['p50_ms']:.2f} ms, "
              f"{replicas['replica_reads']} queries served from "
              f"replicas under the generation-fence staleness "
              f"contract.")
    durable = serving.get("variants", {}).get("durable_wal", {})
    if "qps" in durable:
        print()
        print(f"WAL-enabled serving (`serving_latency` variant): "
              f"{durable['qps']} req/s, p50 {durable['p50_ms']:.2f} ms "
              f"({durable['overhead_vs_plain']:.2f}x the plain run "
              f"with one fsync per mutation barrier).")
    durability = payload.get("benchmarks", {}).get("durability", {})
    if "wal_ms_per_mutation" in durability:
        recovery = durability.get("recovery", {})
        print()
        print(f"`durability`: WAL write path "
              f"{durability['wal_ms_per_mutation']:.3f} ms/mutation "
              f"(plain {durability['plain_ms_per_mutation']:.3f} ms, "
              f"{durability['overhead_x']:.1f}x); cold recovery of "
              f"the {recovery.get('n_bits', 0) >> 20} Mi-bit store "
              f"in {recovery.get('seconds', 0.0):.2f} s "
              f"({recovery.get('wal_records_replayed', 0)} WAL "
              f"records replayed).")
    cam = payload.get("benchmarks", {}).get("cam_scale", {})
    if "rows_per_s" in cam:
        print()
        print(f"`cam_scale`: {cam['rows_per_s'] / 1e9:.2f} G "
              f"row-matches/s across {cam['searches']} exact/ternary "
              f"searches of a {cam['key_width']}-bit key field "
              f"(floor {cam['floor_rows_per_s']:.0e}), "
              f"{cam['energy_per_search_nj'] / 1e3:.1f} uJ attributed "
              f"per search; raw kernel "
              f"{cam['kernel_rows_per_s'] / 1e9:.2f} G rows/s.")
    explore = payload.get("benchmarks", {}).get("explore_sweep", {})
    if explore.get("pareto"):
        print()
        print(f"`explore_sweep`: {explore['points']}-point "
              f"design-space sweep in "
              f"{explore['measured_s'] * 1e3:.1f} ms; "
              f"energy/area Pareto front:")
        print()
        print("| technology | f (nm) | caps | pJ/bit | nm2/bit |")
        print("| --- | ---: | ---: | ---: | ---: |")
        for point in explore["pareto"]:
            print(f"| {point['technology']} | {point['f_nm']:.0f} "
                  f"| {point['n_caps']} "
                  f"| {point['energy_pj_per_bit']:.3f} "
                  f"| {point['area_nm2_per_bit']:.1f} |")
    counts = payload.get("primitive_counts", {})
    if counts:
        print()
        print("| query | FeRAM naive | FeRAM compiled "
              "| DRAM naive | DRAM compiled |")
        print("| --- | ---: | ---: | ---: | ---: |")
        for label, entry in counts.items():
            feram = entry["feram_acp_per_row"]
            dram = entry["dram_aap_per_row"]
            print(f"| {label} | {feram['naive']} | {feram['compiled']} "
                  f"| {dram['naive']} | {dram['compiled']} |")


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:]]
    if "--summary-from" in args:
        index = args.index("--summary-from")
        if index + 1 >= len(args):
            print("usage: perf_smoke.py --summary-from RECORD.json")
            return 2
        print_summary(json.loads(Path(args[index + 1]).read_text()))
        return 0
    baseline_path = None
    if "--check" in args:
        index = args.index("--check")
        if index + 1 >= len(args):
            print("usage: perf_smoke.py [output.json] "
                  "--check BASELINE.json")
            return 2
        baseline_path = Path(args[index + 1])
        del args[index:index + 2]
    out_path = Path(args[0]) if args else \
        Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    payload = run_smoke()
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["benchmarks"], indent=2))
    print(json.dumps(payload["primitive_counts"], indent=2))
    print(f"wrote {out_path}")
    if baseline_path is not None:
        failures = check_regression(payload, baseline_path)
        if failures:
            print("PERF REGRESSION GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"perf gate ok (within {REGRESSION_TOLERANCE:.0%} of "
              f"{baseline_path})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
