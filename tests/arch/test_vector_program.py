"""Register-machine bytecode: bit-exactness against numpy references.

Exactness tests run on both executor tiers (the ``tier`` fixture): the
native single-pass kernel and the numpy interpreter.
"""

import numpy as np
import pytest

from repro.arch.expr import compile_expr, parse
from repro.errors import QueryError
from repro.service.columnstore import ColumnStore, MatrixPool

N_BITS = 777  # non-multiple of 64: exercises masking/tails
QUERIES = [
    "a",
    "~a",
    "a & b",
    "~(a & b)",
    "a | b",
    "~a & ~b",
    "~a | ~b",
    "a & ~b",
    "a ^ b",
    "~a ^ b",
    "a ^ a",
    "a & ~a",
    "a | ~a",
    "andnot(a, a)",
    "maj(a, b, c)",
    "maj(~a, b, c)",
    "maj(a, a, b)",
    "sel(a, b, c)",
    "sel(~a, b, ~c)",
    "(a & b & ~c) | (c & d)",
    "(a & b & ~c) | (a & b & d) | (c & ~d)",
    "a ^ b ^ c ^ d",
    "xnor(a, b)",
    "nor(a, b, c)",
    "nand(a, b)",
    "~(a ^ (b | ~c))",
    "0",
    "1",
    "a & 1",
    "a & 0",
]


def numpy_eval(expr, table):
    """Bit-level reference evaluation of the raw AST."""
    from repro.arch import expr as e

    if isinstance(expr, e.Col):
        return table[expr.name]
    if isinstance(expr, e.Const):
        return np.full(N_BITS, expr.bit, dtype=np.uint8)
    kids = [numpy_eval(k, table) for k in expr.children()]
    if isinstance(expr, e.Not):
        return 1 - kids[0]
    if isinstance(expr, (e.And, e.Nand)):
        out = kids[0]
        for k in kids[1:]:
            out = out & k
        return 1 - out if isinstance(expr, e.Nand) else out
    if isinstance(expr, (e.Or, e.Nor)):
        out = kids[0]
        for k in kids[1:]:
            out = out | k
        return 1 - out if isinstance(expr, e.Nor) else out
    if isinstance(expr, (e.Xor, e.Xnor)):
        out = kids[0]
        for k in kids[1:]:
            out = out ^ k
        return 1 - out if isinstance(expr, e.Xnor) else out
    if isinstance(expr, e.AndNot):
        return kids[0] & (1 - kids[1])
    if isinstance(expr, e.Maj):
        return ((kids[0].astype(int) + kids[1] + kids[2]) >= 2
                ).astype(np.uint8)
    if isinstance(expr, e.Select):
        return (kids[0] & kids[1]) | ((1 - kids[0]) & kids[2])
    raise AssertionError(type(expr))


@pytest.fixture
def table(rng):
    return {name: rng.integers(0, 2, N_BITS, dtype=np.uint8)
            for name in "abcd"}


@pytest.fixture
def store(table):
    store = ColumnStore(N_BITS, 3)
    for name, bits in table.items():
        store.add(name, bits)
    return store


class TestProgramExactness:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("inverting", [True, False])
    def test_matches_numpy(self, store, table, query, inverting, tier):
        plan = compile_expr(query, inverting=inverting)
        program = plan.vector_program()
        matrix = program.run(store.snapshot(), shape=store.shape)
        expected = numpy_eval(parse(query), table)
        assert np.array_equal(store.unpack(matrix), expected), query
        assert int(store.popcounts(matrix).sum()) == int(expected.sum())

    def test_program_is_cached_on_plan(self):
        plan = compile_expr("a & b")
        assert plan.vector_program() is plan.vector_program()

    def test_constant_program_needs_shape(self, tier):
        plan = compile_expr("1")
        with pytest.raises(QueryError, match="shape"):
            plan.vector_program().run({})

    def test_columns_never_written(self, store, table, tier):
        before = {name: store.matrix(name).copy() for name in table}
        for query in QUERIES:
            plan = compile_expr(query, inverting=True)
            plan.vector_program().run(store.snapshot(),
                                      shape=store.shape)
        for name in table:
            assert np.array_equal(store.matrix(name), before[name]), name


class TestNodeCache:
    def test_shared_subexpression_reused(self, store, table):
        cache = {}
        plan1 = compile_expr("(a & b) | c")
        plan2 = compile_expr("(b & a) | d")  # commuted: same AIG node
        m1 = plan1.vector_program().run(store.snapshot(),
                                        shape=store.shape,
                                        node_cache=cache)
        keys_after_first = set(cache)
        m2 = plan2.vector_program().run(store.snapshot(),
                                        shape=store.shape,
                                        node_cache=cache)
        # The a&b node was computed once and shared.
        shared = [key for key in keys_after_first if "&" in key]
        assert shared
        assert np.array_equal(store.unpack(m1),
                              table["a"] & table["b"] | table["c"])
        assert np.array_equal(store.unpack(m2),
                              table["a"] & table["b"] | table["d"])

    def test_cached_matrices_not_corrupted(self, store, table):
        """Later queries must not overwrite cache-shared matrices."""
        cache = {}
        plan = compile_expr("a & b")
        first = plan.vector_program().run(store.snapshot(),
                                          shape=store.shape,
                                          node_cache=cache)
        snapshot = first.copy()
        # A negated consumer of the same node, plus unrelated queries.
        for query in ("~(a & b)", "(a & b) ^ c", "maj(a, b, c) | ~d"):
            compile_expr(query).vector_program().run(
                store.snapshot(), shape=store.shape, node_cache=cache)
        assert np.array_equal(first, snapshot)

    def test_pool_never_hands_out_cached_matrices(self, store, table):
        """Donated matrices must not be recycled as scratch while the
        batch cache is alive (they would be overwritten)."""
        cache = {}
        pool = MatrixPool(store.shape)
        results = {}
        for query in ("a & b", "(a & b) | c", "(a & b) ^ d",
                      "~(a & b)", "maj(a, b, c)"):
            matrix = compile_expr(query).vector_program().run(
                store.snapshot(), shape=store.shape, pool=pool,
                node_cache=cache)
            results[query] = (matrix, store.unpack(matrix).copy())
        for query, (matrix, bits) in results.items():
            assert np.array_equal(store.unpack(matrix), bits), query
