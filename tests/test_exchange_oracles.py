"""The queries whose route depends on ``BROADCAST_BYTES`` match their
DuckDB oracles on the exchange route too: ``tools/check_correctness.py
--budget 0`` at sf0.001."""

import importlib.util
import pathlib

import __ray_entry__ as entry
import georay.partition

BUDGET_QUERIES = [
    "minhash_pairs", "minhash_pairs_join", "simhash_pairs", "dedup_resolve", "dedup_apply",
    "segment_revenue", "embed_lsh_pairs", "cell_agg", "distinct_segments",
]


def test_budget_dependent_queries_match_their_oracles_at_budget_zero(ray_session, monkeypatch, capsys):
    path = pathlib.Path(__file__).parents[1] / "tools" / "check_correctness.py"
    spec = importlib.util.spec_from_file_location("check_correctness", path)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    # the run sets the budget; monkeypatch puts it back afterwards
    monkeypatch.setattr(georay.partition, "BROADCAST_BYTES", georay.partition.BROADCAST_BYTES)
    # fresh session memos: nothing built at the default budget is reused
    monkeypatch.setattr(entry, "_MEMO", {})
    monkeypatch.setattr(entry, "_READ_CACHE", {})
    exchanges, started = [], set()
    real_exchange, real_queries = georay.partition._exchange, entry.queries

    def spy_exchange(*args, **kwargs):
        exchanges.append(1)
        return real_exchange(*args, **kwargs)

    def spied(name, fn):
        def run(sf_dir):
            before = len(exchanges)
            out = fn(sf_dir)
            if len(exchanges) > before:
                started.add(name)
            return out

        return run

    monkeypatch.setattr(georay.partition, "_exchange", spy_exchange)
    monkeypatch.setattr(entry, "queries", lambda: {n: spied(n, f) for n, f in real_queries().items()})

    assert check.main([entry.SF001, *BUDGET_QUERIES, "--budget", "0"]) == 0
    out = capsys.readouterr().out
    ok = sorted(line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("OK"))
    assert ok == sorted(BUDGET_QUERIES)
    # minhash_pairs_join reads the pairs minhash_pairs left in the session memo
    assert set(BUDGET_QUERIES) - started == {"minhash_pairs_join"}
