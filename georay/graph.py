"""Distributed graph ranking over an edge-list dataset: PageRank.

Crawl-curation pipelines rank hosts/documents by link structure to
weight or filter training data (quality ~ centrality).  PageRank is an
iterative fixed-point: K synchronous rounds, each an all-to-all exchange
of (destination, contribution) partials.

Architecture — Pregel-style BSP on an actor set, NOT a Ray Data shuffle
per round.  This is the one shape in this repo where the Dataset API
genuinely can't express the semantics efficiently: a Dataset groupby is
a full sort-based shuffle whose fixed cost is paid EVERY round (measured
~5 s/round on a 15 k-edge graph at 32 CPUs — 22 s for 3 rounds of
trivial data), and rank state would be re-shuffled from scratch each
round even though the edge partitioning never changes.  Instead:

  setup   ONE hash partition of the edge list (``hash_partition``)
          and one of the node list; each partition block is handed BY
          REF to a stateful actor (blocks never visit the driver — a
          peek task reads each block's partition id where it lives);
  round   every actor computes its partitions' contributions from its
          resident rank state (vectorized: searchsorted gather, segment
          pre-aggregation per destination) and scatters P pre-aggregated
          arrow blocks via ``num_returns=P`` — each block is fetched
          ONLY by its destination actor, worker-to-worker through the
          object store; a gather barrier ends the round;
  finish  each actor emits its (node, pr) block; the result Dataset is
          assembled with ``from_arrow_refs`` — no driver materialization.

Per-round traffic is the pre-aggregated contribution partials only
(<= min(|V|, distinct dsts) rows per source partition); rank state and
the edge partition never move after setup.  Actor count scales with the
cluster (``P``: ~200k edges per actor, at most one per CPU, at
least 4), state per actor is O(|V| + |E| / P).

Arithmetic is integer fixed-point (rank scaled by ``SCALE``) so every
sum is order-independent and the result is EXACTLY reproducible — and
exactly mirrorable in SQL (floating-point PageRank would hash-mismatch
any oracle whose reduction order differs).  With damping d = 85/100:

    r_0(v)   = SCALE // N
    r_{t+1}(v) = (15 * (SCALE // N)) // 100
                 + sum over edges (u -> v) of (85 * r_t(u) // 100) // outdeg(u)

Dangling mass handling is selectable: ``dangling="keep"`` (default)
leaks the rank of nodes without outlinks, as in the simplified
formulation; ``dangling="redistribute"`` adds the damped dangling mass
uniformly each round — share_t = (85 * D_t // 100) // N with
D_t = sum of r_t over outdegree-0 nodes — still integer-exact and
mirrored 1:1 in SQL (a node's rank state and its outgoing edges are
hash-co-partitioned on the same key, so each actor knows its own
dangling sum; the driver reduces P scalars per round).  An optional
``tol`` stops early once max_v |r_{t+1}(v) - r_t(v)| <= tol (the
per-partition max delta rides the gather barrier — no extra round
trip).  The node set is the distinct endpoints of the edge list.

No analog in the reference (a geometry utility library); this is the
mandated large-scale curation surface, same tier as dedup/ANN.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.partition import hash_partition, part_of

SCALE = 10**12

#: synthetic outlink multipliers (tests/bench only; real pipelines bring
#: their own edge list).  dst_j = (src * A + j * B) % num_nodes for
#: j = 1..k — valid while num_nodes * A < 2**63 (num_nodes < ~3.5e9),
#: enough for every test scale; the operator itself has no such bound.
LINK_A = 2654435761
LINK_B = 40503


def synthesize_outlinks_batch(batch: pa.Table, num_nodes: int, k: int = 3,
                              id_col: str = "doc_id") -> pa.Table:
    """Deterministic k-outlink edge rows per document (vectorized).
    SQL mirror: (doc_id*A + (j+1)*B) % num_nodes over range(k)."""
    src = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    srcs = np.repeat(src, k)
    j = np.tile(np.arange(1, k + 1, dtype=np.int64), len(src))
    dst = (srcs * LINK_A + j * LINK_B) % num_nodes
    return pa.table({"src": pa.array(srcs, pa.int64()),
                     "dst": pa.array(dst, pa.int64())})


def _hash_partition_refs(ds, key_col: str, p: int, cols: list[str]):
    """Hash-partition ``ds`` on ``key_col`` (projected to ``cols``) and
    return {part: [block refs]} without pulling rows to the caller.
    Every output block of :func:`georay.partition.hash_partition` lies
    inside one partition; a peek task reads its partition id from its
    first row where the block lives.  The refs are the dataset's own
    blocks, owned by the process that ran it, so no short-lived task
    owns what the actors fetch."""
    import ray as _ray

    refs = hash_partition(ds, key_col, lambda t: t.select(cols), p).materialize().to_arrow_refs()

    @_ray.remote(num_cpus=0)
    def part_of_block(t: pa.Table) -> int:
        return int(part_of(t.column(key_col).slice(0, 1), p)[0]) if t.num_rows else -1

    by_part: dict[int, list] = {}
    for q, ref in zip(_ray.get([part_of_block.remote(r) for r in refs]), refs):
        if q >= 0:
            by_part.setdefault(q, []).append(ref)
    return by_part


class _PRPartition:
    """One BSP partition: owns the nodes with hash(node) == q (rank
    state) and the edges with hash(src) == q (outgoing adjacency)."""

    def __init__(self, q: int, p: int, node_refs, edge_refs):
        import ray as _ray

        self.q, self.p = q, p
        self.base = 0
        nt = _ray.get(list(node_refs))
        self.owned = (np.unique(np.concatenate(
            [t.column("node").to_numpy(zero_copy_only=False) for t in nt]))
            if nt else np.empty(0, np.int64))
        self.rank = np.zeros(len(self.owned), np.int64)
        et = _ray.get(list(edge_refs))
        if et:
            src = np.concatenate(
                [t.column("src").to_numpy(zero_copy_only=False) for t in et])
            dst = np.concatenate(
                [t.column("dst").to_numpy(zero_copy_only=False) for t in et])
        else:
            src = dst = np.empty(0, np.int64)
        # sort edges by src once; per-src outdeg repeated per edge
        order = np.argsort(src, kind="stable")
        self.src, self.dst = src[order], dst[order]
        # owned nodes with no outgoing edges (edges are co-partitioned on
        # hash(src) == hash(node), so membership is partition-local)
        if len(self.src):
            i = np.searchsorted(self.src, self.owned)
            has_out = (i < len(self.src)) & (self.src[np.minimum(
                i, len(self.src) - 1)] == self.owned)
            self.no_out = ~has_out
        else:
            self.no_out = np.ones(len(self.owned), bool)
        if len(self.src):
            starts = np.r_[0, np.flatnonzero(self.src[1:] != self.src[:-1]) + 1]
            counts = np.diff(np.r_[starts, len(self.src)])
            self.outdeg = np.repeat(counts, counts).astype(np.int64)
            # destination partition + per-(dstpart) grouping, fixed per run
            self.dst_part = part_of(self.dst, self.p)
        else:
            self.outdeg = np.empty(0, np.int64)
            self.dst_part = np.empty(0, np.int32)

    def n_owned(self) -> int:
        """Owned-node count (the pieces of N = |distinct endpoints| —
        the global distinct is the sum over partitions, so no
        sort-aggregate over |V| groups ever runs)."""
        return len(self.owned)

    def seed(self, r0: int, base: int):
        self.base = base
        self.rank = np.full(len(self.owned), r0, np.int64)
        return self.q

    def scatter(self):
        """Contribution blocks for every destination partition (list of
        P arrow tables; callers use num_returns=P so each is fetched only
        by its destination)."""
        out = []
        if len(self.src):
            r_src = self.rank[np.searchsorted(self.owned, self.src)]
            contrib = (85 * r_src // 100) // self.outdeg
            for q in range(self.p):
                m = self.dst_part == q
                if not m.any():
                    out.append(None)
                    continue
                d = self.dst[m]
                uniq, inv = np.unique(d, return_inverse=True)
                sums = np.zeros(len(uniq), np.int64)
                np.add.at(sums, inv, contrib[m])
                out.append(pa.table({
                    "node": pa.array(uniq, pa.int64()),
                    "contrib": pa.array(sums, pa.int64()),
                }))
        else:
            out = [None] * self.p
        return tuple(out)

    def dangling_sum(self) -> int:
        """Sum of current rank over this partition's outdegree-0 nodes
        (exact: int64 partial, Python-int reduced on the driver)."""
        return int(self.rank[self.no_out].sum())

    def gather(self, extra: int, *blocks):
        """Apply one round: r' = base + extra + received contributions.
        Returns this partition's max |r' - r| (the convergence signal
        rides the existing barrier)."""
        new = np.full(len(self.owned), self.base + extra, np.int64)
        for b in blocks:
            if b is None or b.num_rows == 0:
                continue
            idx = np.searchsorted(self.owned, b.column("node").to_numpy(
                zero_copy_only=False))
            np.add.at(new, idx, b.column("contrib").to_numpy(
                zero_copy_only=False))
        delta = int(np.abs(new - self.rank).max()) if len(new) else 0
        self.rank = new
        return delta

    def collect(self) -> pa.Table:
        return pa.table({"node": pa.array(self.owned, pa.int64()),
                         "pr": pa.array(self.rank, pa.int64())})


def pagerank(edges_ds, iters: int = 3, dangling: str = "keep", tol: int | None = None):
    """Edge-list dataset (src, dst int64) -> (node, pr) integer
    fixed-point PageRank after at most ``iters`` synchronous BSP rounds
    (module docstring has the full architecture).

    dangling: "keep" (leak outdegree-0 mass, default) or "redistribute"
    (uniform damped dangling share each round, integer-exact).
    tol: if set, stop after the first round whose global max rank delta
    is <= tol (exact integer comparison)."""
    import ray as _ray
    import ray.data as _rd

    if dangling not in ("keep", "redistribute"):
        raise ValueError(f"dangling must be 'keep' or 'redistribute', got {dangling!r}")

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "pr": pa.array([], pa.int64())})
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return _rd.from_arrow(empty)
    # size the actor set to the measured edge count (~200k edges per
    # partition), capped by the cluster — a tiny graph doesn't pay
    # 32 actor startups + P^2 exchange refs per round
    cpus = int(_ray.cluster_resources().get("CPU", 4))
    p = max(4, min(cpus, -(-n_edges // 200_000)))

    def endpoints(b: pa.Table) -> pa.Table:
        # per-block pre-dedup only; the GLOBAL distinct happens inside
        # the actors (np.unique over each partition's received rows) —
        # a sort-aggregate over |V| groups measured 49 s at 2M nodes,
        # two orders slower than the partition sort it replaces
        u = b.column("src").to_numpy(zero_copy_only=False)
        v = b.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(
            np.unique(np.concatenate([u, v])), pa.int64())})

    nodes = edges_ds.map_batches(endpoints, batch_format="pyarrow")
    node_parts = _hash_partition_refs(nodes, "node", p, ["node"])
    edge_parts = _hash_partition_refs(edges_ds, "src", p, ["src", "dst"])

    Actor = _ray.remote(num_cpus=1)(_PRPartition)
    actors = [
        Actor.remote(q, p, node_parts.get(q, []), edge_parts.get(q, []))
        for q in range(p)
    ]
    try:
        # N = sum of per-partition owned counts (partitions are disjoint)
        n = sum(_ray.get([a.n_owned.remote() for a in actors]))
        r0 = SCALE // n
        base = (15 * (SCALE // n)) // 100
        _ray.get([a.seed.remote(r0, base) for a in actors])
        for _ in range(iters):
            share = 0
            if dangling == "redistribute":
                d = sum(_ray.get([a.dangling_sum.remote() for a in actors]))
                share = (85 * d // 100) // n
            outs = [a.scatter.options(num_returns=p).remote() for a in actors]
            if p == 1:
                outs = [[o] for o in outs]
            deltas = _ray.get([
                actors[q].gather.remote(share, *[outs[i][q] for i in range(p)])
                for q in range(p)
            ])
            if tol is not None and max(deltas) <= tol:
                break
        # re-own each result block via a passthrough task so the dataset
        # outlives the actors — blocks stay IN the object store, the
        # driver never materializes them
        @_ray.remote(num_cpus=0)
        def reown(t: pa.Table) -> pa.Table:
            return t

        blocks = [reown.remote(a.collect.remote()) for a in actors]
        _ray.wait(blocks, num_returns=len(blocks))
    finally:
        for a in actors:
            _ray.kill(a)
    return _rd.from_arrow_refs(blocks).map_batches(
        lambda b: b if b.num_rows else empty, batch_format="pyarrow"
    )
