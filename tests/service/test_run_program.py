"""Service program execution: backends pinned via the differential
harness, interleaving with single queries, counting mode, caching."""

import numpy as np
import pytest

from repro.arch.commands import Stats
from repro.arch.primitives import default_spec
from repro.arch.program import Program, parse_program
from repro.errors import QueryError
from repro.service import BitwiseService
from tests.support.differential import (
    assert_program_equivalent,
    assert_program_runs_equivalent,
    numpy_program_eval,
)

N_BITS = 10_000  # not a multiple of 64 * shards

PROGRAMS = {
    "single": Program([("out", "a ^ b")]),
    "chain": Program([("t", "a & b"), ("u", "t | ~c"),
                      ("v", "maj(t, u, d)")], outputs=["u", "v"]),
    "shadowing": Program([("t", "a & b"), ("u", "t | c"), ("t", "~t"),
                          ("v", "t ^ u")], outputs=["u", "v"]),
    "cse_across_statements": Program([
        ("t", "(a & b) | c"), ("u", "(b & a) | d"), ("w", "t ^ u")],
        outputs=["t", "u", "w"]),
    "parity_heavy": Program([
        ("x", "~a & ~b"), ("y", "nor(a, c)"), ("z", "x ^ ~y"),
        ("out", "andnot(z, d)")], outputs=["out"]),
    "constants": Program([("t", "a & ~a"), ("u", "t | 1"),
                          ("v", "u ^ b")], outputs=["t", "v"]),
    "alias_output": Program([("t", "a & b"), ("u", "t")],
                            outputs=["t", "u"]),
}


@pytest.fixture
def table(rng):
    return {name: rng.integers(0, 2, N_BITS, dtype=np.uint8)
            for name in "abcd"}


class TestProgramBackendEquivalence:
    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    @pytest.mark.parametrize("label", sorted(PROGRAMS))
    def test_programs_bit_and_stats_exact(self, technology, label,
                                          table):
        assert_program_equivalent(PROGRAMS[label], table,
                                  technology=technology)

    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_equivalent_from_evolved_flag_state(self, technology,
                                                table):
        """Queries before the program leave re-encoded column flags;
        the analytic program coster must start from that state."""
        assert_program_equivalent(
            PROGRAMS["chain"], table, technology=technology,
            warmup_queries=["~a & ~b", "nor(c, d)", "a ^ ~b"])

    def test_counting_mode_stats_match(self, table):
        assert_program_equivalent(PROGRAMS["chain"], table,
                                  functional=False)


class TestRunProgramSemantics:
    def test_outputs_match_numpy(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            program = PROGRAMS["shadowing"]
            result = svc.run_program(program)
            expected = numpy_program_eval(program, table)
            for name, bits in expected.items():
                assert np.array_equal(result.outputs[name], bits)
                assert result.counts[name] == int(bits.sum())
            assert result.backend == "vector"
            assert result.shards == 3
            assert [s.name for s in result.statements] == \
                ["t", "u", "t", "v"]
        finally:
            svc.close()

    def test_interleaved_queries_and_programs(self, table):
        """Program runs and single queries share one cost state
        (column flags + FeRAM control-rewrite counters): an
        interleaved sequence must stay Stats-exact across backends."""
        services = {}
        for backend in ("reference", "vector"):
            svc = BitwiseService("feram-2tnc", n_bits=N_BITS,
                                 n_shards=3, backend=backend)
            for name, bits in table.items():
                svc.create_column(name, bits)
            services[backend] = svc
        try:
            sequence = [
                ("query", "~a & ~b"),
                ("program", PROGRAMS["chain"]),
                ("query", "a ^ ~c"),
                ("program", PROGRAMS["parity_heavy"]),
                ("query", "nor(a, d)"),
            ]
            for kind, payload in sequence:
                if kind == "query":
                    ref = services["reference"].query(
                        payload, use_cache=False)
                    vec = services["vector"].query(
                        payload, use_cache=False)
                    assert np.array_equal(ref.bits, vec.bits)
                    assert ref.cycles == vec.cycles, payload
                else:
                    ref = services["reference"].run_program(payload)
                    vec = services["vector"].run_program(payload)
                    assert ref.cycles == vec.cycles
                    for rs, vs in zip(ref.statements, vec.statements):
                        assert rs.stats.allclose(vs.stats)
            ref_stats = services["reference"].stats()
            vec_stats = services["vector"].stats()
            assert ref_stats["cycles_total"] == vec_stats["cycles_total"]
            assert ref_stats["programs_run"] == \
                vec_stats["programs_run"] == 2
        finally:
            for svc in services.values():
                svc.close()

    def test_program_plan_cache_reused(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            program = PROGRAMS["chain"]
            first = svc.compile_program(program)
            # A structurally identical re-build hits the same plan.
            clone = Program([(n, str(e)) for n, e in program.statements],
                            program.outputs)
            assert svc.compile_program(clone) is first
            svc.run_program(program)
            svc.run_program(clone)
            assert svc.stats()["programs_run"] == 2
        finally:
            svc.close()

    def test_unknown_column_rejected(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            svc.create_column("a", table["a"])
            with pytest.raises(QueryError, match="unbound"):
                svc.run_program(Program([("t", "a & nope")]))
        finally:
            svc.close()

    def test_wrong_polarity_compiled_program_rejected(self, table):
        from repro.arch.program import compile_program

        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            cprog = compile_program(PROGRAMS["single"], inverting=False)
            with pytest.raises(QueryError, match="polarity"):
                svc.run_program(cprog)
        finally:
            svc.close()

    def test_columns_unchanged_after_program(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3,
                             backend="reference")
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            svc.run_program(PROGRAMS["shadowing"])
            for name, bits in table.items():
                assert np.array_equal(svc.column_bits(name), bits)
        finally:
            svc.close()

    def test_parse_program_round_trip(self, table):
        program = parse_program("t = a & b\nout = t ^ c")
        assert_program_equivalent(program, table)


class TestProgramChargeMemo:
    """The whole-program charge memo: warm runs are charged from one
    memoized entry per cost state, exactly as a fresh expansion."""

    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_memo_tracks_reference_through_tba_cycles(self, technology,
                                                      table):
        """Twice round the FeRAM TBA-offset cycle (and the column flag
        evolution), every run matches the engine replay."""
        period = default_spec(technology).control_rewrite_period
        cprog = assert_program_runs_equivalent(
            PROGRAMS["parity_heavy"], table, technology=technology,
            runs=2 * period + 3)
        # The runs revisited memoized states instead of growing it.
        assert len(cprog._charge_memo) <= period

    def test_mutating_a_result_cannot_reach_the_memo(self, table):
        """Results hand out private Stats: scribbling over one run's
        attribution leaves every later (memo-served) run unchanged."""
        program = PROGRAMS["chain"]
        scribbled = BitwiseService("feram-2tnc", n_bits=N_BITS,
                                   n_shards=3)
        clean = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        try:
            for svc in (scribbled, clean):
                for name, bits in table.items():
                    svc.create_column(name, bits)
            period = default_spec("feram-2tnc").control_rewrite_period
            for _ in range(2 * period):
                mine = scribbled.run_program(program)
                theirs = clean.run_program(program)
                assert mine.statements == theirs.statements
                assert mine.detail == theirs.detail
                for stmt in mine.statements:
                    stmt.stats.energy_j["compute"] += 1.0
                    stmt.stats.cycles["compute"] += 7
                    stmt.stats.counts.clear()
                mine.statements.clear()
                mine.detail.clear()
            assert scribbled._ledger == clean._ledger
        finally:
            scribbled.close()
            clean.close()

    def test_warm_run_merges_do_not_grow_with_program_length(
            self, table, monkeypatch):
        """On a memo hit the compute accounting is one ledger merge,
        whatever the statement count (write-back scrub charges are
        per read by design and counted apart)."""
        merges = []

        def counting(name):
            original = getattr(Stats, name)

            def wrapper(stats, *args):
                merges.append(stats)
                return original(stats, *args)
            return wrapper

        def merges_of_warm_run(n_statements):
            program = Program(
                [("t0", "a & b")]
                + [(f"t{i}", f"t{i - 1} ^ c")
                   for i in range(1, n_statements)])
            svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
            try:
                for name, bits in table.items():
                    svc.create_column(name, bits)
                cprog = svc.compile_program(program)
                period = default_spec("feram-2tnc").control_rewrite_period
                for _ in range(2 * period):
                    svc.run_program(program)
                entries = len(cprog._charge_memo)
                merges.clear()
                with monkeypatch.context() as patch:
                    for name in ("iadd", "iadd_scaled"):
                        patch.setattr(Stats, name, counting(name))
                    result = svc.run_program(program)
                assert len(cprog._charge_memo) == entries  # a memo hit
                assert len(result.statements) == n_statements
                return sum(stats is not svc._writeback.stats
                           for stats in merges)
            finally:
                svc.close()

        assert merges_of_warm_run(4) == merges_of_warm_run(256) == 1
