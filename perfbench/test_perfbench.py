"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

They check that every workload emits every metric BENCHMARK.json
names, that the oracle flags a corrupted answer, and the span
self-time arithmetic.  Run from the repository root.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import layers
import oracle
import spans
import workloads
from loadgen import choose_cpus, summarise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as doc:
        return json.load(doc)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "RECOVERIES", 1)
    monkeypatch.setattr(workloads, "WARMUP_S", 0.1)
    monkeypatch.setattr(workloads, "RESTART_WARMUP_S", 0.05)
    monkeypatch.setattr(workloads, "APP_RUNS_PER_LIFE", 4)
    monkeypatch.setattr(workloads, "ENERGY_OPS", 16)
    return workloads.Run(seed=3, seconds=0.4, workdir=str(tmp_path),
                         cpus=choose_cpus())


SMALL = {"adhoc_scan": {"n_bits": 1 << 16},
         "ingest_durable": {"n_bits": 1 << 16}, "apps_bulk": {}}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_emits_every_end_to_end_metric(name, tiny, spec):
    out = getattr(workloads, name)(tiny, setups=1, **SMALL[name])
    assert out.failed == 0, out.notes
    assert out.attempted > 0
    assert set(out.metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in out.metrics.values()), out.metrics


def test_traced_pass_emits_every_per_layer_metric(tiny, spec):
    path = os.path.join(tiny.workdir, "spans.json")
    out = workloads.ingest_durable(tiny, setups=1, trace=path,
                                   n_bits=1 << 16)
    with open(path) as doc:
        spans_doc = json.load(doc)
    with open(path + ".recovery") as doc:
        recovery_doc = json.load(doc)
    metrics = layers.layer_metrics(out, memcpy_gbps=1.0,
                                   spans_doc=spans_doc,
                                   recovery_doc=recovery_doc,
                                   untraced=out)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["durability.replay_records"] == workloads.REPLAY_WRITES
    assert metrics["durability.replay_us_per_record"] > 0
    assert metrics["durability.log_us"] > 0
    assert 0 < metrics["durability.fsyncs_per_write"] < 2
    assert metrics["durability.wal_bytes_per_write"] > 512
    assert metrics["server.self_us"] > 0
    assert metrics["wire.decode_us"] > 0


def test_metric_names_and_units_are_well_formed(spec):
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"]
    assert spec["end_to_end"][0]["name"] == "setup_s"


@pytest.mark.parametrize("name", ["adhoc_scan", "apps_bulk"])
def test_energy_depends_on_the_seed_only(name, tiny):
    energy = []
    for seconds in (0.2, 0.6):
        tiny.seconds = seconds
        out = getattr(workloads, name)(tiny, setups=1, **SMALL[name])
        assert out.failed == 0, out.notes
        energy.append(out.metrics["energy_nj_per_op"])
    assert energy[0] == energy[1]


def test_oracle_flags_a_corrupted_answer(tiny, monkeypatch):
    calls = []
    real = workloads._call

    def corrupting(client, request):
        reply = real(client, request)
        calls.append(1)
        if len(calls) == 40 and "count" in reply:
            reply["count"] += 1
        return reply

    monkeypatch.setattr(workloads, "_call", corrupting)
    out = workloads.adhoc_scan(tiny, setups=1, n_bits=1 << 16)
    assert out.failed == 1
    assert any("oracle" in note for note in out.notes)


def test_read_check_compares_each_read_with_the_state_it_saw():
    import numpy as np

    cols = {"a": np.array([0b1011], dtype=np.uint64),
            "b": np.array([0b0110], dtype=np.uint64)}
    node = ("and", ("col", "a"), ("col", "b"))
    log = [("a", 0, np.array([0b1111], dtype=np.uint64)),   # a&b -> 2 bits
           ("b", 0, np.array([0b1111], dtype=np.uint64))]   # a&b -> 4 bits
    # (token, writes acknowledged before the read, reply)
    seen = [(0, 2, {"count": 4}), (0, 0, {"count": 1}),
            (0, 1, {"count": 2})]
    state = {k: v.copy() for k, v in cols.items()}
    assert workloads._check_reads(seen, [node], state, log) == 0
    stale = [(0, 2, {"count": 2}), (0, 1, {"count": 1})]
    state = {k: v.copy() for k, v in cols.items()}
    assert workloads._check_reads(stale, [node], state, log) == 2


def test_oracle_matches_hand_computed_counts():
    import numpy as np

    cols = {"a": np.array([0b1100], dtype=np.uint64),
            "b": np.array([0b1010], dtype=np.uint64),
            "c": np.array([0b0110], dtype=np.uint64)}
    assert oracle.count(("maj", ("col", "a"), ("col", "b"),
                         ("col", "c")), cols) == 3
    assert oracle.count(("match", ("a", "b"), "10"), cols) == 1
    assert oracle.count(("match", ("a", "b"), "x0"), cols) == 64 - 2
    assert oracle.render(("xor", ("not", ("col", "a")), ("col", "b"))) \
        == "(~a ^ b)"


def test_self_time_subtracts_direct_children():
    # (id, parent, name, layer, t0, t1, arg)
    tree = [(1, 0, "p", "x", 0.0, 10.0, 0),
            (2, 1, "c1", "y", 1.0, 3.0, 0),
            (3, 2, "g", "z", 1.5, 2.5, 0),
            (4, 1, "c2", "y", 5.0, 6.0, 0)]
    own = spans.self_times(tree)
    assert own == {1: 7.0, 2: 1.0, 3: 1.0, 4: 1.0}
    assert spans.layer_self(tree, 0.0, 10.0) == {"x": 7.0, "y": 2.0,
                                                 "z": 1.0}
    assert spans.layer_self(tree, 4.0, 7.0) == {"y": 1.0}


def test_recorder_nests_spans_per_thread_and_restores():
    class Box:
        def outer(self):
            time.sleep(0.02)
            return self.inner()

        def inner(self):
            time.sleep(0.01)
            return 7

    recorder = spans.SpanRecorder()
    recorder.wrap(Box, "outer", "a")
    recorder.wrap(Box, "inner", "b")
    assert Box().outer() == 7
    recorder.restore()
    assert not hasattr(Box.__dict__["outer"], "__wrapped__")
    inner, outer = recorder.spans
    assert inner[1] == outer[0] and outer[1] == 0
    own = spans.self_times(recorder.spans)
    assert own[outer[0]] == pytest.approx(
        (outer[5] - outer[4]) - (inner[5] - inner[4]))
    assert 0.015 < own[outer[0]] < 0.2
    Box().outer()
    assert len(recorder.spans) == 2  # unwrapped


def test_summarise_pools_every_latency():
    done = [0.1, 0.2, 1.1, 1.2, 2.1, 2.2]
    lat = [0.001, 0.003, 0.002, 0.002, 0.005, None]
    result = summarise(done, lat, 3.0)
    assert result["throughput_rps"] == 2.0
    assert result["p50_ms"] == pytest.approx(2.0)
    assert result["p90_ms"] == pytest.approx(4.2)
    assert result["samples"] == 5
