"""Write-back economics tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.writeback import WritebackPolicy, compare_writeback_policies
from repro.errors import ArchitectureError


@pytest.fixture(scope="module")
def policies():
    return compare_writeback_policies()


class TestPolicies:
    def test_destructive_restores_every_read(self, policies):
        destructive, _ = policies
        assert destructive.reads_per_writeback == 1
        assert destructive.write_cycles_per_read == 1.0

    def test_qnro_supports_many_reads(self, policies):
        _, qnro = policies
        assert qnro.reads_per_writeback >= 10

    def test_qnro_cheaper_per_read(self, policies):
        destructive, qnro = policies
        assert qnro.energy_per_read_j < destructive.energy_per_read_j

    def test_endurance_gain_equals_period(self, policies):
        _, qnro = policies
        gain = qnro.endurance_reads(1e6) / 1e6
        assert gain == pytest.approx(qnro.reads_per_writeback)

    def test_stronger_read_shrinks_period(self):
        _, gentle = compare_writeback_policies(v_read=0.45)
        _, harsh = compare_writeback_policies(v_read=0.6)
        assert harsh.reads_per_writeback < gentle.reads_per_writeback

    def test_safety_factor_shrinks_period(self):
        _, loose = compare_writeback_policies(safety_factor=1.0)
        _, tight = compare_writeback_policies(safety_factor=4.0)
        assert tight.reads_per_writeback < loose.reads_per_writeback

    def test_validation(self):
        with pytest.raises(ArchitectureError):
            compare_writeback_policies(safety_factor=0.5)

    def test_infinite_endurance_without_writes(self):
        policy = WritebackPolicy("x", 10, 1e-9, 0.0)
        assert policy.endurance_reads(1e6) == float("inf")


def _accountant(period: int, shard_rows=(3, 5, 2)):
    from repro.arch.spec import FERAM_2TNC_8GB
    from repro.arch.writeback import ScrubAccountant

    return ScrubAccountant(FERAM_2TNC_8GB, list(shard_rows),
                           policy=WritebackPolicy("p", period, 1e-9, 0.1))


def _ledger(accountant) -> tuple:
    return (accountant._reads, accountant.stats, accountant.scrubs,
            accountant.scrub_rows, accountant.scrub_energy_j,
            accountant.reads_noted)


class TestNoteReads:
    """``note_reads`` is exactly a per-occurrence ``note_read`` loop."""

    @given(period=st.integers(1, 12),
           calls=st.lists(st.tuples(
               st.lists(st.sampled_from("abcde"), max_size=30),
               st.lists(st.tuples(st.sampled_from("abcde"),
                                  st.lists(st.integers(0, 2), min_size=3,
                                           max_size=3)),
                        max_size=2)),
               min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_occurrence_loop(self, period, calls):
        batched, looped = _accountant(period), _accountant(period)
        for reads, writes in calls:
            scrubbed = batched.note_reads(reads)
            assert scrubbed == sum(looped.note_read(col) for col in reads)
            for column, rows in writes:  # resets interleave with reads
                assert batched.note_write(column, rows) == \
                    looped.note_write(column, rows)
            assert _ledger(batched) == _ledger(looped)
            for column in "abcde":
                assert batched.reads_since_scrub(column) == \
                    looped.reads_since_scrub(column)

    def test_crossing_in_a_batch_charges_scrubs(self):
        batched, looped = _accountant(4), _accountant(4)
        reads = ["a", "b", "a"] * 5
        for _ in range(3):
            batched.note_reads(reads)
            for column in reads:
                looped.note_read(column)
        assert batched.scrubs > 0
        assert _ledger(batched) == _ledger(looped)

    def test_forget_drops_deferred_reads(self):
        accountant = _accountant(1000)
        accountant.note_reads(["a", "a", "b"])
        accountant.forget("a")
        assert accountant._reads == {"b": [1, 1, 1]}
        accountant.note_reads(["a"])
        assert accountant.reads_since_scrub("a") == [1, 1, 1]

    def test_restored_counters_bound_the_fast_path(self):
        accountant, looped = _accountant(5), _accountant(5)
        accountant._reads = {"a": [4, 0, 0]}
        looped._reads = {"a": [4, 0, 0]}
        assert accountant.note_reads(["a"]) == looped.note_read("a") == 1
        assert _ledger(accountant) == _ledger(looped)
