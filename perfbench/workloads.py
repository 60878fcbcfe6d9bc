"""The benchmark's workloads.

Every workload sets up several times (``setup_s`` is the median),
warms up, then measures for ``seconds``: closed-loop load against a
``repro serve`` subprocess (``adhoc_scan``, ``ingest_durable``) or
in-process ``BitwiseService.run_program`` (``apps_bulk``).  Answers
are recorded during the timed window and checked against the numpy
oracle afterwards.  ``energy_nj_per_op`` is the mean over the first
``ENERGY_OPS`` operations of the seeded stream.  Each workload also
measures mutation acknowledgements (``write_p50_ms``/``write_p90_ms``)
and recovery from a crash (``recovery_s``): on ``ingest_durable``
those are its timed write stream and a SIGKILL plus WAL replay; on the
others writes interleaved with the timed operations and a SIGKILL
plus relaunch and reload (in-process: a rebuild).

``trace`` names the spans file a traced server writes (``recorder``
is the in-process span recorder for ``apps_bulk``); ``Outcome.trace``
carries what :func:`layers.layer_metrics` needs.
"""

from __future__ import annotations

import gc
import random
import statistics
import tempfile
from dataclasses import dataclass, field

import numpy as np

import oracle
from loadgen import (
    CLOCK,
    Probe,
    Server,
    closed_loop,
    own_cpu_s,
    own_vmhwm_mb,
    summarise,
)
from spans import SpanRecorder, install_repro_probes

SETUPS = 5
RECOVERIES = 7
WARMUP_S = 1.0
#: Untraced runs spread their recoveries over the timed window: the
#: server workloads cut it into RECOVERIES + 1 parts with a crash and
#: recovery between parts, each later part first warming up for
#: RESTART_WARMUP_S; apps_bulk rebuilds after every APP_RUNS_PER_LIFE
#: program runs.  Seconds-long changes in host speed then reach every
#: recovery sample alike, instead of all seven landing in one.
RESTART_WARMUP_S = 0.25
APP_RUNS_PER_LIFE = 256
#: adhoc_scan: every WRITE_EVERY-th operation is a write
WRITE_EVERY = 8
#: energy_nj_per_op covers this fixed prefix of the seeded stream, so
#: it does not depend on how many operations fit in the run
ENERGY_OPS = 1024
SLICE_BITS = 4096
PAGE_BITS = 1 << 20


@dataclass
class Run:
    seed: int
    seconds: float
    workdir: str
    cpus: set


@dataclass
class Outcome:
    """What one measured pass produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: for the traced pass: inputs of layer_metrics
    trace: dict = field(default_factory=dict)

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.notes.append(f"FAILED {n}: {why}")


def _client(server: Server, wire: str):
    from repro.client import RetryPolicy, ServiceClient

    client = ServiceClient("127.0.0.1", server.port, wire=wire,
                           timeout_s=120.0,
                           policy=RetryPolicy(max_attempts=1))
    client.connect()
    return client


def _launch(run: Run, args, columns, *, trace=None, upload=True):
    """Start a server, load ``columns`` and wait for the first
    successful query; returns ``(server, seconds)``."""
    t0 = CLOCK()
    server = Server(args, logdir=run.workdir, cpus=run.cpus,
                    trace=trace)
    try:
        if upload:
            with _client(server, "binary") as client:
                for name, words in columns.items():
                    client.create_column(name, oracle.unpack(words))
        with _client(server, "json") as client:
            client.query(f"{next(iter(columns))} & ~w")
    except BaseException:
        server.kill()
        raise
    return server, CLOCK() - t0


def _read_column(client, name: str, n_bits: int) -> np.ndarray:
    pages = [client.bits(name, offset, min(PAGE_BITS, n_bits - offset))
             ["bits"] for offset in range(0, n_bits, PAGE_BITS)]
    return oracle.pack(np.concatenate(pages))


def _slice_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def _end_to_end(out: Outcome, *, setups, window, writes, energy,
                recoveries, rss_mb) -> None:
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "throughput_rps": window["throughput_rps"],
        "p50_ms": window["p50_ms"],
        "p90_ms": window["p90_ms"],
        "write_p50_ms": writes["p50_ms"],
        "write_p90_ms": writes["p90_ms"],
        "energy_nj_per_op": energy,
        "recovery_s": statistics.median(recoveries),
        "rss_mb": rss_mb,
    })
    out.notes.append(
        f"samples: {window['samples']} latencies, {writes['samples']} "
        f"write latencies; set-ups {_fmt(setups)} s, recoveries "
        f"{_fmt(recoveries)} s")


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _set_up(run: Run, args_for, columns, setups: int, trace):
    """Launch ``setups`` servers, each with ``args_for()``, keeping the
    last (traced when ``trace`` names a spans file); returns
    ``(server, its args, each launch's seconds)``."""
    times = []
    for attempt in range(setups):
        args = args_for()
        server, elapsed = _launch(
            run, args, columns,
            trace=trace if attempt == setups - 1 else None)
        times.append(elapsed)
        if attempt < setups - 1:
            server.kill()
    return server, args, times


def _relaunch(run: Run, server: Server, args, columns, times: int, *,
              upload=True, trace=None, on_first=None) -> tuple[Server, list]:
    """SIGKILL ``server`` and start it again, ``times`` times; returns
    the last server and each start's seconds to its first successful
    reply.  The first restart runs traced when ``trace`` names a spans
    file, and ``on_first(server)`` runs on it before it is killed
    again."""
    elapsed = []
    for attempt in range(times):
        server.kill()
        server, seconds = _launch(run, args, columns, upload=upload,
                                  trace=trace if attempt == 0 else None)
        elapsed.append(seconds)
        if attempt == 0 and on_first is not None:
            on_first(server)
    return server, elapsed


def _timed(run: Run, operation, probe: Probe, recover, parts: int):
    """Drive ``operation`` closed loop for ``run.seconds`` cut into
    ``parts`` equal parts, calling ``recover()`` (a crash and recovery)
    between consecutive parts; each later part warms up for
    ``RESTART_WARMUP_S`` first.  Returns every record, indexed across
    parts, and each part's timed ``(lo, hi)``."""
    records, windows = [], []
    for part in range(parts):
        if part:
            recover()
        base = len(records)
        lo, hi, (part_records,) = closed_loop(
            [lambda index: operation(base + index)],
            RESTART_WARMUP_S if part else WARMUP_S,
            run.seconds / parts, probe)
        records += [(t0, t1, base + index, reply, error)
                    for t0, t1, index, reply, error in part_records]
        windows.append((lo, hi))
    return records, windows


def _inside(windows, t: float) -> bool:
    return any(lo <= t <= hi for lo, hi in windows)


def _length(windows) -> float:
    return sum(hi - lo for lo, hi in windows)


# ----------------------------------------------------------------------
# adhoc_scan: never-repeating scans
# ----------------------------------------------------------------------
def adhoc_scan(run: Run, *, setups: int = SETUPS, trace=None,
               n_bits: int = 1 << 18) -> Outcome:
    """256 Ki rows, 16 columns; one closed-loop client sends a seeded
    stream of predicates over 2 to 6 columns that never repeats, so
    every query misses the result cache and compiles.  Every
    ``WRITE_EVERY``-th operation is instead a 4 Ki-bit slice write, on
    its own binary connection, to a column no query reads.

    The sequence of query shapes (operators, negations, ``match``
    keys, column count) is the same for every seed and the seed picks
    the columns, so ``energy_nj_per_op`` reflects the accounting
    rather than which operators a seed happened to draw."""
    out = Outcome()
    names = [f"c{i}" for i in range(16)]
    columns = oracle.make_columns(run.seed, names + ["w"], n_bits)
    shadow = columns["w"].copy()
    shapes, picks = random.Random(0), random.Random(run.seed)
    stream: list = []
    seen: set = set()

    def next_query(index):
        while len(stream) <= index:
            # A repeat is drawn again with the same shape and other
            # columns; a shape whose column choices are used up is
            # skipped.
            state = shapes.getstate()
            for _ in range(64):
                shapes.setstate(state)
                width = shapes.randint(2, 6)
                node = oracle.random_expr(
                    shapes, picks.sample(names, width), width)
                key = oracle.normal_form(node)
                if key not in seen:
                    seen.add(key)
                    stream.append(node)
                    break
        return oracle.render(stream[index])

    wrng = np.random.default_rng([run.seed, 7])
    server, args, times = _set_up(
        run, lambda: ["--bits", str(n_bits)], columns, setups, trace)
    recoveries, rss = [], []
    try:
        reader = _client(server, "json")
        writer = _client(server, "binary")

        def operation(index):
            # Every WRITE_EVERY-th operation writes a 4 Ki-bit slice of
            # a column no query reads; the others are the next query.
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                offset = SLICE_BITS * int(wrng.integers(n_bits
                                                        // SLICE_BITS))
                bits = _slice_bits(wrng, SLICE_BITS)
                writer.write_slice("w", offset, bits)
                shadow[offset // 64:(offset + SLICE_BITS) // 64] = \
                    oracle.pack(bits)
                return None
            query = index - index // WRITE_EVERY
            return query, _call(reader, {"op": "query",
                                         "expr": next_query(query)})

        def leave():
            # Check the written column, then drop the connections.
            out.fail(int(not np.array_equal(
                _read_column(writer, "w", n_bits), shadow)),
                "written column differs from the shadow of its writes")
            reader.close()
            writer.close()
            rss.append(server.vmhwm_mb())

        def recover():
            nonlocal server, reader, writer
            leave()
            server, elapsed = _relaunch(run, server, args, columns, 1)
            recoveries.extend(elapsed)
            shadow[:] = columns["w"]
            reader = _client(server, "json")
            writer = _client(server, "binary")

        probe = Probe(run.cpus, lambda: server.cpu_s(), own_cpu_s)
        records, windows = _timed(run, operation, probe, recover,
                                  1 if trace else RECOVERIES + 1)
        stats = _call(reader, {"op": "stats"})["stats"]
        prefix = ENERGY_OPS
        while prefix - prefix // WRITE_EVERY < ENERGY_OPS:
            prefix += 1
        _complete_prefix(records, operation, prefix)
        leave()
        server.dump_spans()
        server, elapsed = _relaunch(run, server, args, columns,
                                    RECOVERIES - len(recoveries))
        recoveries.extend(elapsed)
    finally:
        server.stop()

    done, lat, write_lat, replies = [], [], [], []
    hits = wrong = 0
    for t0, t1, index, reply, error in records:
        if error is not None:
            out.fail(1, error)
            continue
        timed = _inside(windows, t1)
        if timed:
            done.append(t1)
        if reply is None:  # a write
            if timed:
                lat.append(None)
                write_lat.append(t1 - t0)
            continue
        query, answer = reply
        replies.append(answer)
        wrong += answer["count"] != oracle.count(stream[query], columns)
        if timed:
            lat.append(t1 - t0)
            write_lat.append(None)
            hits += bool(answer["cache_hit"])
    out.attempted += len(records)
    out.fail(wrong, "query count differs from the numpy oracle")
    queries = len(done) - sum(x is not None for x in write_lat)
    window = summarise(done, lat, _length(windows))
    writes = summarise(done, write_lat, _length(windows))
    _end_to_end(out, setups=times, window=window, writes=writes,
                energy=_prefix_energy(replies),
                recoveries=recoveries, rss_mb=max(rss))
    out.trace = {"lo": windows[0][0], "hi": windows[-1][1],
                 "ops": len(done), "queries": queries,
                 "writes": len(done) - queries, "probe": probe,
                 "hit_ratio": hits / max(queries, 1), "stats": stats}
    return out


def _call(client, request: dict) -> dict:
    return client.call(request)


def _complete_prefix(records, operation, n_ops: int) -> None:
    """Run, after the timed window, the operations of the first
    ``n_ops`` that it did not reach, recording them like the others
    (``records`` holds one stream's, in index order)."""
    for index in range(len(records), n_ops):
        t0, reply, error = CLOCK(), None, None
        try:
            reply = operation(index)
        except Exception as exc:  # counted as a failed operation
            error = repr(exc)
        records.append((t0, CLOCK(), index, reply, error))


def _prefix_energy(replies) -> float:
    """Mean ``energy_nj`` over the first ``ENERGY_OPS`` operations
    (failed ones, which have no reply, left out)."""
    energies = [reply["energy_nj"]
                for reply, _ in zip(replies, range(ENERGY_OPS))
                if reply is not None]
    return sum(energies) / max(len(energies), 1)


# ----------------------------------------------------------------------
# ingest_durable: writes beside reads on a durable server
# ----------------------------------------------------------------------
REPLAY_WRITES = 64
SNAPSHOT_EVERY = 256
#: ingest_durable: queries between consecutive writes
READS_PER_WRITE = 2


def ingest_durable(run: Run, *, setups: int = SETUPS, trace=None,
                   n_bits: int = 1 << 20) -> Outcome:
    """1 Mi rows, 8 columns on ``repro serve --data-dir``.  One
    closed-loop client alternates a write on a binary connection (a
    4 Ki-bit slice; every 32nd write replaces a whole column) with
    ``READS_PER_WRITE`` queries on a JSON connection over the columns
    being written.  Between parts of the timed window (after it, in a
    traced run) the server is SIGKILLed with exactly ``REPLAY_WRITES``
    records to replay, restarted on the same data directory, and every
    column is read back."""
    out = Outcome()
    names = [f"c{i}" for i in range(8)]
    columns = oracle.make_columns(run.seed, names + ["w"], n_bits)
    rng = random.Random(run.seed)
    pool = [oracle.random_expr(rng, names, rng.randint(2, 4))
            for _ in range(24)]
    order = [rng.randrange(len(pool)) for _ in range(4096)]
    server, args, times = _set_up(
        run, lambda: ["--bits", str(n_bits), "--data-dir",
                      tempfile.mkdtemp(prefix="data", dir=run.workdir)],
        columns, setups, trace)

    log: list = []          # acknowledged writes: (name, word offset, words)
    current = {name: columns[name].copy() for name in names}
    cycle = READS_PER_WRITE + 1
    extra = iter(range(1 << 30, 1 << 31))  # write indices outside the stream

    def prepare(index):
        gen = np.random.default_rng([run.seed, 1, index])
        name = names[index % len(names)]
        if index % 32 == 31:
            return name, 0, gen.integers(0, 2, n_bits, dtype=np.uint8)
        offset = SLICE_BITS * int(gen.integers(n_bits // SLICE_BITS))
        return name, offset, _slice_bits(gen, SLICE_BITS)

    def write(index):
        name, offset, bits = prepare(index)
        if offset == 0 and bits.size == n_bits:
            reply = writer.update_column(name, bits)
        else:
            reply = writer.write_slice(name, offset, bits)
        words = oracle.pack(bits)
        log.append((name, offset // 64, words))
        current[name][offset // 64:offset // 64 + words.size] = words
        return reply

    def operation(index):
        if index % cycle == 0:
            return "write", write(index // cycle)
        token = order[(index - index // cycle - 1) % len(order)]
        applied = len(log)
        reply = reader.query(oracle.render(pool[token]))
        return "read", (token, applied, reply)

    def roll():
        # Roll the WAL over to a fresh snapshot, then leave exactly
        # REPLAY_WRITES records for recovery to replay.
        pending = writer.stats()["durability"]["mutations_since_snapshot"]
        for _ in range((SNAPSHOT_EVERY - pending) % SNAPSHOT_EVERY
                       + REPLAY_WRITES):
            write(next(extra))
            out.attempted += 1
        tail = writer.stats()["durability"]["mutations_since_snapshot"]
        out.fail(int(tail != REPLAY_WRITES),
                 f"{tail} WAL barriers pending, not {REPLAY_WRITES}")

    recovery: dict = {}

    def first_restart(restarted):
        # This restart replays exactly REPLAY_WRITES records.
        with _client(restarted, "binary") as client:
            recovery.update(client.stats()["durability"]["last_recovery"])
        restarted.dump_spans()

    def read_back(server) -> None:
        # Every column, bit for bit, against the acknowledged writes.
        with _client(server, "binary") as client:
            out.fail(sum(not np.array_equal(
                _read_column(client, name, n_bits), current[name])
                for name in names),
                "column after kill -9 and recovery differs from the "
                "shadow of acknowledged writes")

    recoveries: list = []
    try:
        writer = _client(server, "binary")
        reader = _client(server, "json")

        def recover(spans=None):
            nonlocal server, writer, reader
            roll()
            writer.close()
            reader.close()
            server, elapsed = _relaunch(
                run, server, args, columns, 1, upload=False, trace=spans,
                on_first=None if recoveries else first_restart)
            recoveries.extend(elapsed)
            read_back(server)
            writer = _client(server, "binary")
            reader = _client(server, "json")

        probe = Probe(run.cpus, lambda: server.cpu_s(), own_cpu_s)
        records, windows = _timed(run, operation, probe, recover,
                                  1 if trace else RECOVERIES + 1)
        stats = writer.stats()
        _complete_prefix(records, operation, cycle * ENERGY_OPS)
        rss = server.vmhwm_mb()
        server.dump_spans()
        while len(recoveries) < RECOVERIES:  # traced runs recover here
            recover(trace + ".recovery" if trace and not recoveries
                    else None)
        writer.close()
        reader.close()
        read_back(server)
    finally:
        server.stop()

    # -- checks ------------------------------------------------------
    done, read_lat, write_lat, answered, energy = [], [], [], [], []
    hits = reads = writes = 0
    for t0, t1, index, reply, error in records:
        if error is not None:
            out.fail(1, error)
            continue
        kind, answer = reply
        timed = _inside(windows, t1)
        if kind == "write":
            energy.append(answer)
            if timed:
                done.append(t1)
                read_lat.append(None)
                write_lat.append(t1 - t0)
                writes += 1
            continue
        answered.append(answer)
        if timed:
            done.append(t1)
            read_lat.append(t1 - t0)
            write_lat.append(None)
            hits += bool(answer[2]["cache_hit"])
            reads += 1
    out.attempted += len(records)
    state = {name: columns[name].copy() for name in names}
    out.fail(_check_reads(answered, pool, state, log),
             "read count differs from the state it saw")
    window = summarise(done, read_lat, _length(windows))
    wwin = summarise(done, write_lat, _length(windows))
    # Energy per write: each write's charge; which reads execute
    # rather than hit the result cache is what writes invalidate.
    _end_to_end(out, setups=times, window=window, writes=wwin,
                energy=_prefix_energy(energy),
                recoveries=recoveries, rss_mb=rss)
    out.notes.append(f"recovery: {recovery['records_replayed']} WAL "
                     f"records replayed in "
                     f"{recovery['elapsed_s'] * 1e3:.1f} ms")
    out.trace = {"lo": windows[0][0], "hi": windows[-1][1],
                 "ops": reads + writes, "queries": reads,
                 "writes": writes, "probe": probe,
                 "hit_ratio": hits / max(reads, 1), "stats": stats,
                 "recovery": recovery}
    return out


def _check_reads(answered, pool, state, log) -> int:
    """Replay the acknowledged writes over ``state`` (in place) and
    count reads whose answer differs from the state they saw: a read
    ``(token, applied, reply)`` was made after ``applied`` writes were
    acknowledged and before the next was sent."""
    answered = sorted(answered, key=lambda read: read[1])
    wrong = position = 0
    for applied in range(len(log) + 1):
        if applied:
            name, word, words = log[applied - 1]
            state[name][word:word + words.size] = words
        memo: dict = {}
        while position < len(answered) \
                and answered[position][1] == applied:
            token, _, answer = answered[position]
            if token not in memo:
                memo[token] = oracle.count(pool[token], state)
            wrong += memo[token] != answer["count"]
            position += 1
    return wrong + len(answered) - position


# ----------------------------------------------------------------------
# apps_bulk: the paper's applications as in-process programs
# ----------------------------------------------------------------------
#: (workload, data bytes); the rotation runs bnn three times per crc8
#: so the latency median sits inside bnn's mode and p90 inside crc8's
APPS = (("bnn", 1 << 18), ("crc8", 1 << 14))
ROTATION = (0, 0, 0, 1)


def apps_bulk(run: Run, *, setups: int = SETUPS,
              recorder: SpanRecorder | None = None) -> Outcome:
    """``bnn`` (252 statements) and ``crc8`` (1544 statements) through
    ``BitwiseService.run_program``, the ``repro workload`` path."""
    from repro.service import BitwiseService
    from repro.workloads import PROGRAM_WORKLOADS
    from repro.workloads.programs import generate_inputs

    out = Outcome()
    programs = [PROGRAM_WORKLOADS[name](size).as_program(seed=run.seed)
                for name, size in APPS]
    inputs = [generate_inputs(wp, seed=run.seed) for wp in programs]
    references = [wp.reference(data)
                  for wp, data in zip(programs, inputs)]
    expected = [{name: int(np.count_nonzero(ref))
                 for name, ref in refs.items()} for refs in references]

    def build():
        services = []
        try:
            for wp, data in zip(programs, inputs):
                service = BitwiseService(n_bits=wp.n_lanes)
                services.append(service)
                for name, bits in data.items():
                    service.create_column(name, bits)
                service.compile_program(wp.program)
                service.run_program(wp.program)
            services[0].create_column(
                "w", np.zeros(programs[0].n_lanes, dtype=np.uint8))
        except BaseException:
            for service in services:
                service.close()
            raise
        return services

    times = []
    for attempt in range(setups):
        gc.collect()  # each measured interval starts from the same heap
        t0 = CLOCK()
        services = build()
        times.append(CLOCK() - t0)
        if attempt < setups - 1:
            for service in services:
                service.close()
    # A traced run keeps one life, so that its spans are the window's.
    per_life = APP_RUNS_PER_LIFE if recorder is None else 0
    recoveries: list = []
    if recorder is not None:
        install_repro_probes(recorder)
    try:
        records, first, wrecs, pauses = [], {}, [], []
        lanes = programs[0].n_lanes
        shadow = np.zeros(lanes // 64, dtype=np.uint64)
        wrng = np.random.default_rng([run.seed, 7])
        probe = Probe(run.cpus, own_cpu_s)
        timing = False

        def warm_up():
            for slot in ROTATION:
                services[slot].run_program(programs[slot].program)
            gc.collect()  # each measured interval starts from the same heap

        def check_written():
            out.fail(int(not np.array_equal(
                oracle.pack(services[0].column_bits("w")), shadow)),
                "written column differs from the shadow of its writes")

        def recover():
            # A crash: the services and everything in them are lost and
            # rebuilt from the inputs.
            nonlocal services
            paused = CLOCK()
            if timing:
                probe.stop()
            check_written()
            for service in services:
                service.close()
            gc.collect()
            t0 = CLOCK()
            services = build()
            recoveries.append(CLOCK() - t0)
            shadow[:] = 0
            warm_up()
            if timing:
                probe.start()
            pauses.append((paused, CLOCK()))

        def step():
            # One program run, then one 4 Ki-bit write on a column no
            # program reads, so write latency samples the same stretch
            # of host time as the programs do.
            if per_life and records and len(records) % per_life == 0:
                recover()
            slot = ROTATION[len(records) % len(ROTATION)]
            t0 = CLOCK()
            result = services[slot].run_program(programs[slot].program)
            records.append((slot, t0, CLOCK(), result.counts,
                            result.energy_j))
            first.setdefault(slot, result)
            offset = SLICE_BITS * int(wrng.integers(lanes // SLICE_BITS))
            bits = _slice_bits(wrng, SLICE_BITS)
            t0 = CLOCK()
            services[0].write_slice("w", offset, bits)
            wrecs.append((t0, CLOCK()))
            shadow[offset // 64:(offset + SLICE_BITS) // 64] = \
                oracle.pack(bits)

        warm_up()
        timing = True
        probe.start()
        lo = CLOCK()
        while not records or \
                records[-1][2] - lo - _length(pauses) < run.seconds:
            step()
        hi = records[-1][2]
        probe.stop()
        timing = False
        window_s = hi - lo - _length(pauses)
        timed = len(records)
        while len(records) < ENERGY_OPS:  # the rest of energy's prefix
            step()
        out.attempted += len(wrecs)
        check_written()
    finally:
        if recorder is not None:
            recorder.restore()
        for service in services:
            service.close()
    while len(recoveries) < RECOVERIES:
        gc.collect()
        t0 = CLOCK()
        for service in build():
            service.close()
        recoveries.append(CLOCK() - t0)

    for slot, result in first.items():
        ok = all(np.array_equal(result.outputs[name][:ref.size],
                                ref.astype(np.uint8))
                 for name, ref in references[slot].items())
        out.fail(int(not ok), f"{APPS[slot][0]} outputs differ from "
                              "the numpy reference")
    wrong = sum(counts != expected[slot]
                for slot, _, _, counts, _ in records)
    out.fail(wrong, "program output popcounts differ from the reference")
    out.attempted += len(records)
    window = summarise([r[2] for r in records[:timed]],
                       [r[2] - r[1] for r in records[:timed]], window_s)
    writes = summarise([t1 for _, t1 in wrecs[:timed]],
                       [t1 - t0 for t0, t1 in wrecs[:timed]], window_s)
    _end_to_end(out, setups=times, window=window, writes=writes,
                energy=_prefix_energy({"energy_nj": 1e9 * r[4]}
                                      for r in records),
                recoveries=recoveries, rss_mb=own_vmhwm_mb())
    out.trace = {
        "lo": lo, "hi": hi, "ops": timed, "queries": 0,
        "writes": 0, "hit_ratio": 0.0, "stats": None, "probe": probe,
        "lanes": sum(programs[r[0]].n_lanes for r in records[:timed]),
    }
    return out
