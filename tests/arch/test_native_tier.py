"""Native kernel tier vs numpy interpreter: every word, padding included.

The native tier (:mod:`repro.arch.native`) links a VectorProgram into
one C call; the numpy interpreter stays the reference.  These tests
run the same programs on both tiers and require identical matrices —
padding words and tail bits included — for random expressions and
random multi-statement programs (fused and unfused), the edge cases
the linker special-cases, shard-row slices, concurrent runs, and a
failed build, which must leave a working service on the numpy tier.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import native
from repro.arch.expr import Col, Match, VectorProgram, compile_expr, parse
from repro.arch.program import Program, compile_program
from repro.service import BitwiseService
from repro.service.columnstore import ColumnStore, MatrixPool
from tests.arch.test_program_property import expressions, programs

N_BITS = 777  # 3 shards of 5/4/4 words: padding rows and tail bits
COLS = ("a", "b", "c", "d")


@pytest.fixture(autouse=True)
def _always_native(native_tier):
    """Every test here runs every program on the native tier from its
    first run (TestSelection re-checks the real selection rules)."""


@pytest.fixture(scope="module")
def store():
    rng = np.random.default_rng(2024)
    store = ColumnStore(N_BITS, 3)
    for name in COLS:
        store.add(name, rng.integers(0, 2, N_BITS, dtype=np.uint8))
    return store


@contextmanager
def numpy_only():
    saved = native._state
    native._state = (None, "disabled by numpy_only")
    try:
        yield
    finally:
        native._state = saved


def both_tiers(run):
    """``(native result, numpy result)`` of ``run()``."""
    fast = run()
    with numpy_only():
        slow = run()
    return fast, slow


@contextmanager
def counting_native_runs():
    calls = []
    original = native.run

    def counted(*args):
        calls.append(args)
        return original(*args)

    native.run = counted
    try:
        yield calls
    finally:
        native.run = original


def run_query(program, store, **kwargs):
    return program.run(store.snapshot(), shape=store.shape,
                       addresses=store.addresses, **kwargs)


def match_exprs(names):
    cols = st.lists(st.sampled_from(names), min_size=1, max_size=3)
    return cols.flatmap(lambda picked: st.text(
        "01x", min_size=len(picked), max_size=len(picked)).map(
        lambda key: Match(*map(Col, picked), key="0b" + key)))


class TestRandomDifferential:
    @pytest.mark.parametrize("fused", [False, True])
    @given(expr=st.one_of(expressions(list(COLS)), match_exprs(COLS)),
           inverting=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_expressions(self, store, fused, expr, inverting):
        program = compile_expr(expr, inverting=inverting) \
            .vector_program(fused=fused)
        with counting_native_runs() as calls:
            fast, slow = both_tiers(lambda: run_query(program, store))
        assert len(calls) == 1
        assert np.array_equal(fast, slow), str(expr)

    @pytest.mark.parametrize("fused", [False, True])
    @given(program=programs(), inverting=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_programs(self, store, fused, program, inverting):
        # programs() reads columns a, b, c and may shadow 'a'
        vprog = compile_program(program, inverting=inverting) \
            .vector_program(fused=fused)
        fast, slow = both_tiers(lambda: vprog.run_outputs(
            store.snapshot(), shape=store.shape,
            addresses=store.addresses))
        assert fast.keys() == slow.keys()
        for name in fast:
            assert np.array_equal(fast[name], slow[name]), name
            for other in fast:  # shared registers stay shared
                assert (fast[name] is fast[other]) == \
                    (slow[name] is slow[other])


class TestEdgeCases:
    @pytest.mark.parametrize("query", ["a", "~a"])
    def test_bare_column(self, store, query):
        program = compile_expr(query).vector_program(fused=True)
        fast, slow = both_tiers(lambda: run_query(program, store))
        assert np.array_equal(fast, slow)
        assert fast is not store.matrix("a")  # a copy the caller owns

    @pytest.mark.parametrize("query", ["0", "1", "a & ~a", "a | ~a"])
    def test_constant_only(self, store, query):
        program = compile_expr(query).vector_program(fused=True)
        with counting_native_runs() as calls:
            fast, slow = both_tiers(
                lambda: program.run({}, shape=store.shape))
        assert len(calls) == 1
        assert np.array_equal(fast, slow)
        fill = np.uint64(0xFFFFFFFFFFFFFFFF) if query in ("1", "a | ~a") \
            else np.uint64(0)
        assert (fast == fill).all()  # padding words included

    def test_outputs_sharing_a_register(self, store):
        program = Program([("x", parse("a & b")), ("y", parse("x")),
                           ("z", parse("~x"))], outputs=("x", "y", "z"))
        vprog = compile_program(program).vector_program(fused=True)
        assert vprog.out_regs["x"] == vprog.out_regs["y"]
        fast, slow = both_tiers(lambda: vprog.run_outputs(
            store.snapshot(), shape=store.shape))
        assert fast["x"] is fast["y"]
        for name in ("x", "z"):
            assert np.array_equal(fast[name], slow[name])

    def test_match_maj4_and_steal_steps(self, store):
        query = ("match(a, b, c, 0b1x0) | maj(a ^ b, ~c, d) "
                 "| (maj(a, b, c) & ~d)")
        program = compile_expr(query).vector_program(fused=True)
        ops = {op[0] for step in program.steps for op in step[2]}
        assert "maj4" in ops
        assert any(step[4] is not None for step in program.steps)
        fast, slow = both_tiers(lambda: run_query(program, store))
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("rows", [(0, 1), (1, 3), (2, 3)])
    def test_shard_row_slices(self, store, rows):
        lo, hi = rows
        program = compile_expr("maj(a, ~b, c) ^ (d & ~a)") \
            .vector_program(fused=True)
        columns = {name: store.matrix(name)[lo:hi] for name in COLS}
        shape = (hi - lo, store.shape[1])
        with counting_native_runs() as calls:
            fast, slow = both_tiers(
                lambda: program.run(columns, shape=shape))
        assert len(calls) == 1
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, run_query(program, store)[lo:hi])

    def test_threads_share_one_program(self):
        """More threads than cores run one program at once (ctypes
        releases the GIL): per-thread scratch keeps every result exact."""
        rng = np.random.default_rng(5)
        big = ColumnStore(1 << 20, 4)
        for name in COLS:
            big.add(name, rng.integers(0, 2, 1 << 20, dtype=np.uint8))
        program = compile_expr(
            "maj(a, b, c) ^ (a & ~d) ^ nor(b, c, d) ^ xnor(a, c)"
        ).vector_program(fused=True)
        with numpy_only():
            expected = run_query(program, big)
        pool = MatrixPool(big.shape)
        mismatches, done = [], []

        def worker():
            for _ in range(20):
                out = run_query(program, big, pool=pool)
                if not np.array_equal(out, expected):
                    mismatches.append(out)
                pool.give(out)
            done.append(True)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counting_native_runs() as calls:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == 4 and len(calls) == 80
        assert not mismatches


class TestSelection:
    def test_small_first_run_defers_the_link(self, store, monkeypatch):
        monkeypatch.setattr(native, "EAGER_LINK_WORDS", 1 << 14)
        assert store.shape[0] * store.shape[1] < native.EAGER_LINK_WORDS
        program = compile_expr("maj(a, b, c) ^ d").vector_program()
        with counting_native_runs() as calls:
            first = run_query(program, store)
            assert not calls and program._linked is None
            second = run_query(program, store)
            assert len(calls) == 1 and program._linked
        assert np.array_equal(first, second)

    def test_large_first_run_links_at_once(self, monkeypatch):
        monkeypatch.setattr(native, "EAGER_LINK_WORDS", 1 << 14)
        big = ColumnStore(1 << 20, 4)  # exactly 16 Ki words
        for name in "ab":
            big.add(name, np.ones(1 << 20, dtype=np.uint8))
        program = compile_expr("a ^ b").vector_program()
        with counting_native_runs() as calls:
            out = run_query(program, big)
        assert len(calls) == 1 and not out.any()

    def test_one_instruction_stays_on_numpy(self, store, monkeypatch):
        monkeypatch.setattr(native, "MIN_INSTRUCTIONS", 2)
        single = compile_expr("a & b").vector_program()
        double = compile_expr("(a & b) ^ c").vector_program()
        with counting_native_runs() as calls:
            out = run_query(single, store)
            assert not calls
            run_query(double, store)
            assert len(calls) == 1
        assert np.array_equal(out, store.matrix("a") & store.matrix("b"))

    def test_node_cache_keeps_numpy(self, store):
        program = compile_expr("a & b").vector_program(fused=True)
        with counting_native_runs() as calls:
            run_query(program, store, node_cache={})
        assert not calls

    @pytest.mark.parametrize("bad", ["strided", "int64", "shape"])
    def test_unqualified_inputs_fall_back(self, store, bad):
        columns = store.snapshot()
        if bad == "strided":
            wide = np.zeros((store.shape[0], 2 * store.shape[1]),
                            dtype=np.uint64)
            wide[:, ::2] = columns["a"]
            columns["a"] = wide[:, ::2]
        elif bad == "int64":
            columns["a"] = columns["a"].view(np.int64)
        else:
            columns["a"] = columns["a"][:1]
        program = compile_expr("a ^ b").vector_program(fused=True)

        def outcome():
            try:
                return program.run(columns, shape=store.shape)
            except TypeError as exc:  # numpy refuses int64 ^ uint64
                return type(exc)

        with counting_native_runs() as calls:
            fast, slow = both_tiers(outcome)
        assert not calls
        if isinstance(slow, np.ndarray):
            assert np.array_equal(fast, slow)
        else:
            assert fast is slow

    def test_store_addresses_skip_inspection(self, store, monkeypatch):
        program = compile_expr("a & ~b").vector_program(fused=True)
        inspected = []
        real = native.column_addresses

        def spy(matrices, shape, known=None):
            out = real(matrices, shape, known)
            inspected.append(all(id(m) in (known or {}) for m in matrices))
            return out

        monkeypatch.setattr(native, "column_addresses", spy)
        run_query(program, store)
        assert inspected == [True]

    @pytest.mark.parametrize("steps", [
        [(None, 0, (("bogus", 0, ("col", "a")),), ())],       # opcode
        [(None, 0, (("not", 0, ("reg", 1)),), ())],           # unset reg
        [(None, 0, (("and", 0, ("col", "a"), ("col", "b")),), ()),
         (None, 0, (("not", 0, ("reg", 0)),), ())],           # live dst
        [(None, 5, (("copy", 5, ("col", "a")),), ())],        # reg range
        [(None, 0, (("xor", 0, ("col", "a")),), ())],         # arity
    ])
    def test_link_rejects_invalid_programs(self, steps):
        assert native.link(VectorProgram(steps, 2, 0)) is None

    def test_live_rewrite_runs_on_numpy(self, store):
        """A hand-written in-place rewrite keeps numpy semantics."""
        program = VectorProgram([
            (None, 0, (("and", 0, ("col", "a"), ("col", "b")),), ()),
            (None, 0, (("andn", 0, ("reg", 0), ("col", "c")),), ()),
        ], 1, 0)
        with counting_native_runs() as calls:
            out = run_query(program, store)
            again = run_query(program, store)
        assert not calls and program._linked is False
        assert np.array_equal(out, again)
        # numpy's andn expansion writes ~c over its own operand first
        assert np.array_equal(out, ~store.matrix("c"))


class TestLoader:
    def test_build_lands_in_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_state", None)
        assert native.kernel() is not None
        built = list((tmp_path / "repro").glob("kernels-*.so"))
        assert len(built) == 1
        stamp = built[0].stat().st_mtime_ns
        monkeypatch.setattr(native, "_state", None)
        assert native.kernel() is not None  # a hit: no rebuild
        assert built[0].stat().st_mtime_ns == stamp
        assert not list((tmp_path / "repro").glob(".kernels-*"))

    def test_missing_compiler_serves_on_numpy(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_state", None)
        monkeypatch.setattr(native, "COMPILERS", ("no-such-cc-0",))
        rng = np.random.default_rng(3)
        bits = {name: rng.integers(0, 2, 300, dtype=np.uint8)
                for name in "ab"}
        with BitwiseService(n_bits=300, n_shards=2) as svc:
            for name, column in bits.items():
                svc.create_column(name, column)
            result = svc.query("a & ~b")
            executor = svc.stats()["executor"]
        assert result.count == int((bits["a"] & (1 - bits["b"])).sum())
        assert executor["kernel_tier"] == "numpy"
        assert "no C compiler" in executor["kernel_fallback"]

    def test_service_reports_native(self):
        with BitwiseService(n_bits=128) as svc:
            executor = svc.stats()["executor"]
        assert executor["kernel_tier"] == "native"
        assert executor["kernel_fallback"] is None
