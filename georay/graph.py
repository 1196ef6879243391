"""Iterative graph programs on one BSP engine: PageRank and connected
components (FastSV).

Crawl-curation pipelines rank hosts/documents by link structure to
weight or filter training data (quality ~ centrality), and dedup
resolves its candidate pairs into components.  Both are iterative
fixed-points: synchronous rounds, each an all-to-all exchange of
per-node messages.

Architecture — Pregel-style BSP (Malewicz et al., SIGMOD 2010) on an
actor set, NOT a Ray Data shuffle per round.  A Dataset exchange pays a
full sort-based shuffle EVERY round (measured ~5 s/round on a 15 k-edge
graph at 32 CPUs — 22 s for 3 rounds of trivial data), and re-ships the
edges and node state from scratch each round even though the edge
partitioning never changes.  Instead:

  setup      ONE hash partition (``hash_partition``) of the edge rows on
             ``src``, with one more row per distinct ``dst`` so every
             endpoint has an owner; each partition's blocks are handed
             BY REF to a stateful actor (:class:`_Partition`), which owns
             the nodes with ``part_of(node) == q`` and the edges with
             ``part_of(src) == q`` (blocks never visit the driver — a
             peek task reads each block's partition id where it lives);
  superstep  every actor sends ``(node, value)`` offers, pre-reduced per
             node with a ufunc and cut into one block per destination
             partition, via ``num_returns=P`` — each block is fetched
             ONLY by its destination actor, worker-to-worker through the
             object store — and each destination applies its blocks to
             its node state with ``ufunc.at``;
  finish     each actor emits its (node, value) block; the result
             Dataset is assembled with ``from_arrow_refs`` — no driver
             materialization.

Node state and the edge partition never move after setup; each round
ships messages only.  Actor count scales with the cluster (``P``: ~200k
edges per actor, at least 4, never more than the CPU slots, since each
actor holds one), state per actor is O(|V| / P + |E| / P).

PageRank (``np.add``): one superstep a round — each edge sends its
source's contribution to ``dst``, at most min(|E|/P, distinct dsts)
rows per source partition.  Arithmetic is integer fixed-point (rank
scaled by ``SCALE``) so every sum is order-independent and the result
is EXACTLY reproducible — and exactly mirrorable in SQL
(floating-point PageRank would hash-mismatch any oracle whose reduction
order differs).  With damping d = 85/100:

    r_0(v)   = SCALE // N
    r_{t+1}(v) = (15 * (SCALE // N)) // 100
                 + sum over edges (u -> v) of (85 * r_t(u) // 100) // outdeg(u)

Dangling mass handling is selectable: ``dangling="keep"`` (default)
leaks the rank of nodes without outlinks, as in the simplified
formulation; ``dangling="redistribute"`` adds the damped dangling mass
uniformly each round — share_t = (85 * D_t // 100) // N with
D_t = sum of r_t over outdegree-0 nodes — still integer-exact and
mirrored 1:1 in SQL (a node and its outgoing edges share a partition,
so each actor knows its own dangling sum; the driver reduces P scalars
per round).  An optional ``tol`` stops early once
max_v |r_{t+1}(v) - r_t(v)| <= tol (the per-partition max delta rides
the gather barrier — no extra round trip).  The node set is the
distinct endpoints of the edge list.

Connected components (``np.minimum``): FastSV (Zhang, Azad and Hu,
SIAM PP 2020) over both-direction edges, :func:`fastsv_labels`' rounds
exactly, so the engine returns the driver kernel's labels in the same
number of rounds.  Each node holds its parent ``f`` and grandparent
``gf``; a round is four message exchanges, each at most one row per
edge or owned node of the sending partition:

  1. each edge (v, u) offers gf[v] to u: u's minimum neighbour
     grandparent m[u];
  2. each node offers m[u] to the owner of f[u] (stochastic hooking,
     with the round-start f);
  3. aggressive hooking and shortcutting are local
     (f[u] = min(f[u], m[u], gf[u])); each partition then asks the
     owner of each distinct parent f[u] for f[f[u]] ...
  4. ... which replies, so gf = f[f].

Rounds stop when no gf changes, in O(log n) rounds whatever the id
order.  Every value is a node id of the same component, so the labels
are the component-minimum ids.
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

#: the engine's setup rows: an edge (``edge`` true) or an endpoint
_ROWS = pa.schema([("src", pa.int64()), ("dst", pa.int64()), ("edge", pa.bool_())])


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


def _not_converged(max_iter: int) -> RuntimeError:
    return RuntimeError(
        f"connected_components did not converge in {max_iter} rounds; "
        "refusing to return non-minimal survivors (raise max_iter)"
    )


def fastsv_labels(u: np.ndarray, v: np.ndarray, n: int, max_iter: int) -> np.ndarray:
    """Component-minimum label of each of ``n`` dense node indices, from
    the undirected edges ``(u[i], v[i])``: the FastSV kernel (Zhang, Azad
    and Hu, SIAM PP 2020) on one process.

    ``f`` is a parent forest and ``gf = f[f]``.  Each round, per edge,
    stochastic hooking ``f[f[u]] = min(f[f[u]], gf[v])`` hangs ``u``'s
    parent below the smallest grandparent seen across the edge,
    aggressive hooking ``f[u] = min(f[u], gf[v])`` hangs ``u`` itself, and
    shortcutting ``f[u] = min(f[u], gf[u])`` halves every path.  All
    three take minima, so a component's smallest index is the root its
    trees end in; rounds stop at the fixpoint where ``gf`` no longer
    changes, then every node points at that root.  A path of any id
    order takes O(log n) rounds.  If ``max_iter`` rounds end without the
    fixpoint it raises rather than return non-minimal labels."""
    u, v = np.concatenate([u, v]), np.concatenate([v, u])
    f = np.arange(n)
    gf = f.copy()
    for _ in range(max_iter):
        np.minimum.at(f, f[u], gf[v])
        np.minimum.at(f, u, gf[v])
        np.minimum(f, gf, out=f)
        nxt = f[f]
        if np.array_equal(nxt, gf):
            return gf
        gf = nxt
    raise _not_converged(max_iter)


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


def _setup_rows(b: pa.Table) -> pa.Table:
    """A block's edges, plus one non-edge row per distinct ``dst``: the
    partition on ``src`` then gives every endpoint an owner."""
    src = b.column("src").to_numpy(zero_copy_only=False)
    dst = b.column("dst").to_numpy(zero_copy_only=False)
    ends = np.unique(dst)
    return pa.table({
        "src": np.concatenate([src, ends]),
        "dst": np.concatenate([dst, ends]),
        "edge": np.r_[np.ones(len(src), bool), np.zeros(len(ends), bool)],
    }, schema=_ROWS)


class _Partition:
    """One resident BSP partition ``q`` of ``p``, set up from the refs of
    its setup rows: the nodes with ``part_of(node) == q`` (sorted,
    ``owned``) and the edges with ``part_of(src) == q`` (``at``, each
    edge's source index in ``owned``, and ``dst``).  A program subclasses
    it with its node state and methods built on the superstep primitive
    :meth:`_send` / :meth:`_recv`."""

    def __init__(self, p: int, refs):
        import ray as _ray

        self.p = p
        t = pa.concat_tables([_ROWS.empty_table(), *_ray.get(list(refs))])
        key = t.column("src").to_numpy()
        edge = t.column("edge").to_numpy()
        self.owned = np.unique(key)
        self.at = np.searchsorted(self.owned, key[edge])
        self.dst = t.column("dst").to_numpy()[edge]

    def _post(self, blocks):
        # with num_returns=1 Ray would hand the receiver the whole tuple
        return tuple(blocks) if self.p > 1 else blocks[0]

    def _send(self, node: np.ndarray, value: np.ndarray, ufunc):
        """``(node, value)`` offers reduced per node with ``ufunc`` and cut
        into one ``(nodes, values)`` block per owning partition (``None``
        where none goes): the return of a method run with
        ``num_returns=P``."""
        if not len(node):
            return self._post([None] * self.p)
        order = np.argsort(node)
        node, value = node[order], value[order]
        starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        node, value = node[starts], ufunc.reduceat(value, starts)
        # hash the distinct nodes only; a stable sort keeps each block sorted
        part = part_of(node, self.p)
        order = np.argsort(part, kind="stable")
        node, value, part = node[order], value[order], part[order]
        cuts = np.searchsorted(part, np.arange(self.p + 1))
        return self._post([(node[a:b], value[a:b]) if b > a else None
                           for a, b in zip(cuts[:-1], cuts[1:])])

    def _recv(self, into: np.ndarray, ufunc, blocks) -> None:
        """Apply received offers to ``into`` (one value per owned node)."""
        for b in blocks:
            if b is not None:
                ufunc.at(into, np.searchsorted(self.owned, b[0]), b[1])


class _PageRank(_Partition):
    """Rank state of the owned nodes (module docstring)."""

    def __init__(self, p: int, refs):
        super().__init__(p, refs)
        deg = np.bincount(self.at, minlength=len(self.owned))
        self.outdeg, self.no_out = deg[self.at], deg == 0
        self.rank = np.zeros(len(self.owned), np.int64)
        self.base = 0

    def n_owned(self) -> int:
        """Owned-node count (the pieces of N = |distinct endpoints| —
        the global distinct is the sum over partitions, so no
        sort-aggregate over |V| groups ever runs)."""
        return len(self.owned)

    def seed(self, r0: int, base: int):
        self.base = base
        self.rank = np.full(len(self.owned), r0, np.int64)

    def scatter(self):
        """Each edge's contribution, summed per destination node."""
        return self._send(self.dst, (85 * self.rank[self.at] // 100) // self.outdeg, np.add)

    def dangling_sum(self) -> int:
        """Sum of current rank over this partition's outdegree-0 nodes
        (exact: int64 partial, Python-int reduced on the driver)."""
        return int(self.rank[self.no_out].sum())

    def gather(self, extra: int, *blocks):
        """Apply one round: r' = base + extra + received contributions.
        Returns this partition's max |r' - r| (the convergence signal
        rides the existing barrier)."""
        new = np.full(len(self.owned), self.base + extra, np.int64)
        self._recv(new, np.add, blocks)
        delta = int(np.abs(new - self.rank).max()) if len(new) else 0
        self.rank = new
        return delta

    def collect(self) -> pa.Table:
        return pa.table({"node": pa.array(self.owned, pa.int64()),
                         "pr": pa.array(self.rank, pa.int64())})


class _FastSV(_Partition):
    """Parent ``f`` and grandparent ``gf`` of the owned nodes, both the
    node itself at the start; one method per step of a round (module
    docstring)."""

    def __init__(self, p: int, refs):
        super().__init__(p, refs)
        self.f, self.gf = self.owned.copy(), self.owned.copy()

    def offer(self):
        """Step 1: each edge (v, u) offers gf[v] to u."""
        return self._send(self.dst, self.gf[self.at], np.minimum)

    def hook(self, *offers):
        """Step 2: m[u] = min(gf[u], the offers) goes to f[u]'s owner.
        Taking gf[u] in changes no hook, since f[f[u]] <= gf[u]."""
        self.m = self.gf.copy()
        self._recv(self.m, np.minimum, offers)
        return self._send(self.f, self.m, np.minimum)

    def ask(self, *offers):
        """Step 3: the stochastic hooks land; f = min(f, m) is the
        aggressive hooking and the shortcut; ask each parent's owner."""
        self._recv(self.f, np.minimum, offers)
        np.minimum(self.f, self.m, out=self.f)
        return self._send(self.f, self.f, np.minimum)

    def answer(self, *asks):
        """Step 4: f of each asked node, back to the partition that asked."""
        return self._post([None if b is None else (b[0], self.f[np.searchsorted(self.owned, b[0])])
                           for b in asks])

    def pull(self, *replies) -> bool:
        """gf = f[f] from the replies; whether any gf changed."""
        got = [b for b in replies if b is not None]
        keys = np.concatenate([np.empty(0, np.int64), *(b[0] for b in got)])
        vals = np.concatenate([np.empty(0, np.int64), *(b[1] for b in got)])
        order = np.argsort(keys)
        gf = vals[order][np.searchsorted(keys[order], self.f)]
        changed = not np.array_equal(gf, self.gf)
        self.gf = gf
        return changed

    def collect(self) -> pa.Table:
        return pa.table({"node": pa.array(self.owned, pa.int64()),
                         "label": pa.array(self.gf, pa.int64())})


def _step(actors, method: str, sent=(), *args, num_returns: int = 1):
    """Call ``method`` on every actor with ``args`` and the blocks
    addressed to it in ``sent`` (the per-actor returns of a call that
    sent); a method that sends runs with ``num_returns=P``."""
    if len(actors) == 1:
        sent = [[s] for s in sent]
    return [getattr(a, method).options(num_returns=num_returns).remote(*args, *(s[q] for s in sent))
            for q, a in enumerate(actors)]


def _run(program, edges_ds, rounds, empty: pa.Table):
    """Set up the actors of ``program`` (a :class:`_Partition` subclass)
    over the edge list (``src``, ``dst`` int64), run ``rounds(actors)``,
    and return the actors' ``collect`` tables as a Dataset (``empty``
    when there are no edges).  The actors are killed on every exit."""
    import ray as _ray
    import ray.data as _rd

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return _rd.from_arrow(empty)
    # ~200k edges per actor, so a tiny graph doesn't pay 32 actor
    # startups + P^2 exchange refs per round; each actor holds a CPU
    # slot, so more actors than slots would wait forever to be placed
    p = min(int(_ray.cluster_resources().get("CPU", 4)), max(4, -(-n_edges // 200_000)))
    rows = edges_ds.map_batches(_setup_rows, batch_format="pyarrow")
    parts = _hash_partition_refs(rows, "src", p, _ROWS.names)
    actor = _ray.remote(num_cpus=1)(program)
    actors = [actor.remote(p, parts.get(q, [])) for q in range(p)]
    try:
        rounds(actors)

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
    # after the kill: reading the blocks' metadata takes CPU slots
    return _rd.from_arrow_refs(blocks).map_batches(
        lambda b: b if b.num_rows else empty, batch_format="pyarrow"
    )


def pagerank(edges_ds, iters: int = 3, dangling: str = "keep", tol: int | None = None):
    """Edge-list dataset (src, dst int64) -> (node, pr) integer
    fixed-point PageRank after at most ``iters`` synchronous BSP rounds
    (module docstring has the full architecture).

    dangling: "keep" (leak outdegree-0 mass, default) or "redistribute"
    (uniform damped dangling share each round, integer-exact).
    tol: if set, stop after the first round whose global max rank delta
    is <= tol (exact integer comparison)."""
    import ray as _ray

    if dangling not in ("keep", "redistribute"):
        raise ValueError(f"dangling must be 'keep' or 'redistribute', got {dangling!r}")

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "pr": pa.array([], pa.int64())})

    def rounds(actors):
        # N = sum of per-partition owned counts (partitions are disjoint)
        n = sum(_ray.get(_step(actors, "n_owned")))
        _ray.get(_step(actors, "seed", (), SCALE // n, (15 * (SCALE // n)) // 100))
        for _ in range(iters):
            share = 0
            if dangling == "redistribute":
                share = (85 * sum(_ray.get(_step(actors, "dangling_sum"))) // 100) // n
            sent = _step(actors, "scatter", num_returns=len(actors))
            deltas = _ray.get(_step(actors, "gather", sent, share))
            if tol is not None and max(deltas) <= tol:
                break

    return _run(_PageRank, edges_ds, rounds, empty)


def components(edges_ds, max_iter: int):
    """Both-direction edge-list dataset (src, dst int64) -> (node, label)
    with label the component-minimum id: FastSV on the engine (module
    docstring).  Raises ``RuntimeError`` if ``max_iter`` rounds end
    without the fixpoint, as :func:`fastsv_labels` does."""
    import ray as _ray

    def rounds(actors):
        p = len(actors)
        for _ in range(max_iter):
            sent = _step(actors, "offer", num_returns=p)
            for method in ("hook", "ask", "answer"):
                sent = _step(actors, method, sent, num_returns=p)
            if not any(_ray.get(_step(actors, "pull", sent))):
                return
        raise _not_converged(max_iter)

    return _run(_FastSV, edges_ds, rounds, pa.table({"node": pa.array([], pa.int64()),
                                                     "label": pa.array([], pa.int64())}))
