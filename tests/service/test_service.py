"""Sharded bulk-bitwise query service tests."""

import io
import itertools
import json
import socket
import threading

import numpy as np
import pytest

from repro.errors import QueryError
from repro.service import BitwiseService, run_repl, serve_tcp

N_BITS = 10_000  # deliberately not a multiple of 64 * shards


@pytest.fixture
def table(rng):
    return {
        "a": rng.integers(0, 2, N_BITS, dtype=np.uint8),
        "b": rng.integers(0, 2, N_BITS, dtype=np.uint8),
        "c": rng.integers(0, 2, N_BITS, dtype=np.uint8),
    }


@pytest.fixture
def service(table):
    svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
    for name, bits in table.items():
        svc.create_column(name, bits)
    yield svc
    svc.close()


class TestColumns:
    def test_create_and_read_back(self, service, table):
        for name, bits in table.items():
            assert np.array_equal(service.column_bits(name), bits)

    def test_width_validation(self, service):
        with pytest.raises(QueryError, match="bits"):
            service.create_column("bad", np.zeros(12, dtype=np.uint8))

    def test_duplicate_rejected(self, service, table):
        with pytest.raises(QueryError, match="exists"):
            service.create_column("a", table["a"])

    def test_drop(self, service):
        service.drop_column("c")
        assert "c" not in service.columns
        with pytest.raises(QueryError, match="unbound"):
            service.query("c & a")

    def test_shard_spans_cover_table(self):
        spans = BitwiseService._spans(N_BITS, 3)
        assert spans[0][0] == 0 and spans[-1][1] == N_BITS
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
            assert stop % 64 == 0

    def test_narrow_table_uses_fewer_shards(self):
        svc = BitwiseService(n_bits=100, n_shards=8)
        try:
            assert svc.n_shards == 2  # two 64-bit words
        finally:
            svc.close()


class TestQueries:
    def test_query_matches_numpy(self, service, table):
        result = service.query("(a & b) | ~c")
        expected = (table["a"] & table["b"]) | (1 - table["c"])
        assert result.count == int(expected.sum())
        assert np.array_equal(result.bits, expected)
        assert result.shards == service.n_shards

    def test_batch_matches_numpy(self, service, table):
        queries = ["a & b", "a ^ c", "maj(a, b, c)", "a & ~b"]
        refs = [table["a"] & table["b"], table["a"] ^ table["c"],
                ((table["a"] + table["b"] + table["c"]) >= 2
                 ).astype(np.uint8),
                table["a"] & (1 - table["b"])]
        for result, ref in zip(service.execute(queries), refs):
            assert np.array_equal(result.bits, ref), result.query

    def test_columns_survive_many_queries(self, service, table):
        for _ in range(3):
            service.execute(["a & ~b", "~a & b", "a ^ b", "~(a | c)"],
                            use_cache=False)
        for name, bits in table.items():
            assert np.array_equal(service.column_bits(name), bits)

    def test_concurrent_clients(self, service, table):
        """Many threads hammering shared columns stay bit-exact."""
        expected = {
            "a & ~b": table["a"] & (1 - table["b"]),
            "b & ~a": table["b"] & (1 - table["a"]),
            "a ^ b": table["a"] ^ table["b"],
            "maj(a, b, c)": ((table["a"] + table["b"] + table["c"])
                             >= 2).astype(np.uint8),
        }
        failures = []

        def client(query, ref):
            for _ in range(5):
                result = service.query(query, use_cache=False)
                if not np.array_equal(result.bits, ref):
                    failures.append(query)

        threads = [threading.Thread(target=client, args=item)
                   for item in expected.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_per_query_attribution(self, service):
        result = service.query("a & b", use_cache=False)
        assert result.energy_j > 0
        assert result.cycles > 0
        # One AND per shard row; a 10k-bit table is 1 row per shard.
        assert result.primitives_per_row == 1

    def test_unknown_column(self, service):
        with pytest.raises(QueryError, match="unbound"):
            service.query("nope & a")

    def test_constant_query_spans_table(self, service):
        result = service.query("a | ~a")
        assert result.count == N_BITS
        assert result.bits.size == N_BITS

    def test_counting_mode(self):
        svc = BitwiseService(n_bits=1 << 20, n_shards=2,
                             functional=False)
        try:
            svc.create_column("x")
            svc.create_column("y")
            result = svc.query("x & ~y")
            assert result.bits is None and result.count is None
            assert result.cycles > 0
        finally:
            svc.close()


class TestCache:
    def test_hit_on_repeat(self, service):
        first = service.query("a & b")
        again = service.query("a & b")
        assert not first.cache_hit and again.cache_hit
        assert again.count == first.count

    def test_hit_on_canonical_equivalent(self, service):
        first = service.query("a & b")
        commuted = service.query("b & a")
        demorganed = service.query("~(~a | ~b)")
        assert commuted.cache_hit and demorganed.cache_hit
        assert commuted.count == first.count

    def test_invalidated_on_column_change(self, service, table):
        service.query("a & b")
        service.drop_column("a")
        service.create_column("a", table["a"])
        assert not service.query("a & b").cache_hit

    def test_unrelated_drop_preserves_cache(self, service):
        """Dependency-aware invalidation: dropping c keeps a&b hot."""
        service.query("a & b")
        service.drop_column("c")
        assert service.query("a & b").cache_hit

    def test_lru_eviction(self, table):
        svc = BitwiseService(n_bits=N_BITS, n_shards=2, cache_size=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            svc.query("a & b")
            svc.query("a & c")
            svc.query("b & c")   # evicts "a & b"
            assert not svc.query("a & b").cache_hit
            assert svc.query("b & c").cache_hit
        finally:
            svc.close()

    def test_plan_cache_is_bounded(self, rng):
        """Distinct queries must not grow the compiled-plan cache past
        its cap; an evicted plan recompiles to the same bits and Stats
        as a twin service that never evicted it."""
        width = 1024
        cols = {f"c{k}": rng.integers(0, 2, width, dtype=np.uint8)
                for k in range(17)}
        # 5k distinct canonical functions: ANDs of three literals (every
        # column triple, every polarity pattern).
        queries = [" & ".join(f"~c{k}" if signs >> bit & 1 else f"c{k}"
                              for bit, k in enumerate(triple))
                   for triple in itertools.combinations(range(17), 3)
                   for signs in range(8)][:5000]
        services = []
        try:
            for _ in range(2):
                svc = BitwiseService(n_bits=width, n_shards=2)
                for name, bits in cols.items():
                    svc.create_column(name, bits)
                services.append(svc)
            bounded, twin = services
            twin._plans_cap = twin._plans_by_text_cap = len(queries)
            for start in range(0, len(queries), 250):
                for svc in services:
                    svc.execute(queries[start:start + 250],
                                use_cache=False)
            assert len(bounded._plans) <= bounded._plans_cap == 1024
            assert len(bounded._plans_by_text) <= 1024
            assert len(twin._plans) == len(queries)
            evicted = twin.compile(queries[0]).key
            assert evicted not in bounded._plans
            fresh = bounded.query(queries[0], use_cache=False)
            kept = twin.query(queries[0], use_cache=False)
            assert np.array_equal(fresh.bits, kept.bits)
            assert np.array_equal(
                fresh.bits, cols["c0"] & cols["c1"] & cols["c2"])
            assert fresh.detail == kept.detail
            assert (fresh.energy_j, fresh.cycles) == \
                (kept.energy_j, kept.cycles)
            assert bounded._ledger == twin._ledger
        finally:
            for svc in services:
                svc.close()

    def test_cache_hit_bits_are_private(self, service):
        first = service.query("a & b")
        count = first.count
        first.bits[:] = 0  # caller mutates its result
        again = service.query("a & b")
        assert again.cache_hit
        assert again.count == count
        assert int(again.bits.sum()) == count

    def test_concurrent_duplicate_create_is_serialized(self, service,
                                                       table):
        rows_before = service.stats()["rows_used"]
        errors = []

        def creator():
            try:
                service.create_column("dup", table["a"])
            except QueryError:
                errors.append(1)

        threads = [threading.Thread(target=creator) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 3  # exactly one create wins
        assert service.stats()["rows_used"] == \
            rows_before + service.n_shards

    def test_batch_deduplicates(self, service):
        results = service.execute(["a ^ b", "b ^ a"], use_cache=False)
        assert results[0].key == results[1].key
        # ...but each position keeps its own label and private bits.
        assert results[1].query == "b ^ a"
        assert results[0].bits is not results[1].bits
        results[0].bits[:] = 0
        assert int(results[1].bits.sum()) == results[1].count

    def test_stale_result_not_cached_across_mutation(self, service,
                                                     table):
        """A result computed before a column mutation must not land in
        the freshly invalidated cache (per-column generation check)."""
        with service._cache_lock:
            snapshot = (service._epoch,
                        {"a": service._col_generation.get("a", 0),
                         "b": service._col_generation.get("b", 0)})
        stale = service.query("a & b", use_cache=False)
        service.drop_column("b")
        service.create_column("b", 1 - table["b"])
        service._cache_put(stale.key, stale, snapshot, None, ("a", "b"))
        fresh = service.query("a & b")
        assert not fresh.cache_hit
        expected = int((table["a"] & (1 - table["b"])).sum())
        assert fresh.count == expected


class TestFrontends:
    def test_repl_session(self):
        svc = BitwiseService(n_bits=256, n_shards=2)
        out = io.StringIO()
        commands = "\n".join([
            "col x random 0.5 1",
            "col y random 0.5 2",
            "cols",
            "query x & ~y",
            "explain (x & y) | (y & x)",
            "stats",
            "bogus",
            "quit",
        ]) + "\n"
        code = run_repl(svc, io.StringIO(commands), out)
        svc.close()
        text = out.getvalue()
        assert code == 0
        assert '"count"' in text
        assert '"primitives_per_row"' in text
        assert "error:" in text  # the bogus command

    def test_repl_survives_malformed_numbers(self):
        svc = BitwiseService(n_bits=64, n_shards=1)
        out = io.StringIO()
        commands = "col x random abc\ncol y random 0.5 1\nquit\n"
        code = run_repl(svc, io.StringIO(commands), out)
        svc.close()
        assert code == 0
        assert "error:" in out.getvalue()

    def test_tcp_roundtrip(self):
        svc = BitwiseService(n_bits=512, n_shards=2)
        server = serve_tcp(svc, 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=5)
            stream = sock.makefile("rw")

            def call(request):
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                return json.loads(stream.readline())

            assert call({"op": "create_column", "name": "x",
                         "seed": 1})["ok"]
            assert call({"op": "create_column", "name": "y",
                         "seed": 2})["ok"]
            response = call({"op": "query", "expr": "x ^ y"})
            assert response["ok"] and response["count"] >= 0
            batch = call({"op": "batch", "exprs": ["x & y", "x | y"]})
            assert batch["ok"] and len(batch["results"]) == 2
            error = call({"op": "query", "expr": "zzz"})
            assert not error["ok"] and "unbound" in error["error"]
            sock.close()
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_cli_query(self, capsys):
        from repro.cli import main
        assert main(["query", "a & ~b", "--bits", "4096",
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "hits" in out

    def test_cli_usage_mentions_service(self, capsys):
        from repro.cli import main
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "serve" in out and "query" in out
