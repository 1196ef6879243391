"""CLI entry point: ``python -m georay <command>`` (ray-job-submit friendly).

Commands:
  flagship   run the end-to-end spatial pipeline and write outputs
  resume     checkpointed flagship over an input directory (skips finished
             partitions — the north_rule resumability path)
  dedup      near-dup dedup: candidates -> verify -> resolve -> survivors
  bench      alias for the repo-root bench harness

Owns its Ray session (scripts only — the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from georay.sources import (
    PLAN_BLOCK_BYTES, append_output, filesystem, parquet_rows, read_parquet_grouped, remove_dir,
    write_output,
)


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False)
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    return ray


def cmd_flagship(args):
    ray = _init_ray(args.num_cpus)
    from georay.pipelines.flagship import flagship
    from georay.pipelines.pages import read_pages

    pages = read_pages(args.sf_dir, sink=args.out is not None)
    out = flagship(pages, res=args.res, predicate=args.predicate, out_dir=args.out)
    if args.out:
        join_rows, cells = out["join_rows"]["rows"], parquet_rows(f"{args.out}/cell_agg")
    else:
        join_rows, cells = out[0].count(), out[1].count()
    print(json.dumps({"join_rows": join_rows, "cells": cells, "out": args.out}))
    ray.shutdown()


def cmd_resume(args):
    """The flagship's join rows per input file group, each group
    checkpointed under its own ``--out/part-*`` directory."""
    ray = _init_ray(args.num_cpus)
    import ray.data

    from georay.pipelines.flagship import flagship
    from georay.pipelines.pages import synthesize_pages_batch
    from georay.state.checkpoint import resumable_run

    def build(files):
        pages = ray.data.read_parquet(files)
        if args.synthesize:
            pages = pages.map_batches(synthesize_pages_batch, batch_format="pyarrow")
        return flagship(pages, res=args.res, predicate=args.predicate)[0]

    if os.path.isfile(args.input):
        files = [args.input]
    else:
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not files:
        # a silent 0-partition "success" would look like a finished run
        print(f"error: no parquet files found under {args.input!r}", file=sys.stderr)
        ray.shutdown()
        sys.exit(2)
    stats = resumable_run(files, args.out, build, group_size=args.group_size)
    print(json.dumps(stats))
    ray.shutdown()


def cmd_dedup(args):
    """End-to-end near-dup dedup over a documents parquet, in two corpus
    passes: MinHash+LSH candidate pairs (the first), then one split pass
    (``split_candidates``) that writes every doc no pair names to
    ``survivors/`` and keeps the pairs' docs, the candidates.  Exact
    integer-Jaccard verification, connected-components resolution (written
    to ``resolution/`` for audit) and the survivor anti-filter then run
    over the candidates alone, and their survivors are added to
    ``survivors/``: one file from the driver while they are a driver
    table, else an appending write.  The survivors are never
    materialized, and ``_candidates/`` is deleted even when a step
    raises."""
    ray = _init_ray(args.num_cpus)
    from georay import dedup
    from georay.partition import broadcast_or_none

    docs = read_parquet_grouped(args.input, ["doc_id", "text"])
    # each read's own context (the Datasets derived from it share it),
    # so their tasks start together; Ray's global context keeps its default
    docs.context.target_max_block_size = PLAN_BLOCK_BYTES
    pairs, n_trunc = dedup.candidate_pairs(docs)
    # hot-bucket truncation fails loudly: its flags and marker rows would
    # otherwise vanish in the verify join behind a clean-looking summary
    if n_trunc:
        print(
            f"warning: {n_trunc} candidate rows flagged truncated — near-dup "
            "recall is partial for oversized clusters (raise max_bucket)",
            file=sys.stderr,
        )
    full_docs = read_parquet_grouped(args.input)
    full_docs.context.target_max_block_size = PLAN_BLOCK_BYTES
    n_docs = full_docs.count()  # parquet metadata count — no scan
    surv_dir = os.path.join(args.out, "survivors")
    try:
        cands = dedup.split_candidates(full_docs, pairs, args.out)
        verified = dedup.jaccard_verify_pairs(
            pairs, cands, threshold_num=args.threshold_num, threshold_den=args.threshold_den,
        )
        # a resolution within BROADCAST_BYTES is a driver table: it is
        # written there, and apply_dedup takes it, without a plan
        _, resolution = broadcast_or_none(dedup.connected_components(verified))
        write_output(resolution, os.path.join(args.out, "resolution"))
        append_output(dedup.apply_dedup(cands, resolution), surv_dir)
    finally:
        remove_dir(os.path.join(args.out, "_candidates"))
    # the survivors' count comes from the footers of the files written
    n_out = parquet_rows(surv_dir)
    print(json.dumps({
        "input_docs": n_docs,
        "clustered_docs": resolution.count(),
        "survivors": n_out,
        "dropped": n_docs - n_out,
        "truncated_candidates": int(n_trunc),
        "out": args.out,
    }))
    ray.shutdown()


def cmd_curate(args):
    """Training-data curation in ONE streaming pass: annotate (quality
    score + language ID, fused kernels) -> threshold/language filter ->
    exact content dedup (128-bit key, min-doc_id survivor) -> per-language
    deterministic stratified sample -> survivors parquet partitioned by
    detected language.

    Scale shape: the only shuffle is the 16-byte dedup-key aggregate; the
    survivor-id semi join (``keyed_join``) streams the corpus past the
    broadcast survivor ids, or co-partitions with them past the budget;
    everything else is stateless map_batches.  The sample decision is a
    pure hash of doc_id (re-run stable), so a resumed/repeated run
    selects identical documents."""
    ray = _init_ray(args.num_cpus)
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from georay.dedup import text_key_batch
    from georay.partition import keyed_join
    from georay.sample import stratified_sample_batch
    from georay.stages.aggregate import keyed_agg
    from georay.text import detect_language, quality_batch

    docs = read_parquet_grouped(args.input, ["doc_id", "text"])
    n_in = docs.count()  # parquet metadata, no scan

    langs = set(args.langs.split(",")) if args.langs else None
    lang_arr = pa.array(sorted(langs)) if langs else None
    min_q, min_t = args.min_quality_bp, args.min_tokens

    def annotate_filter(b: pa.Table) -> pa.Table:
        q = quality_batch(b)
        lang = detect_language(b.column("text").combine_chunks())
        b = b.append_column("quality_bp", q.column("quality_bp"))
        b = b.append_column("n_tokens", q.column("n_tokens"))
        b = b.append_column("lang_pred", pa.array(lang, pa.string()))
        m = pc.and_(
            pc.greater_equal(b.column("quality_bp"), min_q),
            pc.greater_equal(b.column("n_tokens"), min_t),
        )
        if lang_arr is not None:
            m = pc.and_(m, pc.is_in(b.column("lang_pred"), value_set=lang_arr))
        b = b.filter(m)
        k = text_key_batch(b)
        b = b.append_column("h1", k.column("h1"))
        return b.append_column("h2", k.column("h2"))

    filt = docs.map_batches(annotate_filter, batch_format="pyarrow")

    # The DAG branches below (survivor aggregate + join left side) — without
    # a checkpoint each consumer re-executes quality/langid/hash over the
    # full corpus.  Write the annotated rows through parquet ONCE
    # (streaming, disk-backed; an in-object-store materialize would pin
    # the whole filtered corpus), beside --out: every worker can reach
    # it, where a driver-local temp dir would keep each node's files on
    # that node and the re-read would drop their rows.
    ann_dir = args.out.rstrip("/") + ".checkpoint"
    remove_dir(ann_dir)  # a crashed run's files would be read twice
    try:
        if write_output(filt, ann_dir):
            filt = read_parquet_grouped(ann_dir)
            # exact dedup: survivor ids from a 16-byte-key aggregate, then a
            # semi join back (the full rows never shuffle through the key
            # aggregate)
            survivors = keyed_agg(filt, ["h1", "h2"], {"keep_id": ("doc_id", "min")})

            def keep_survivors(L: pa.Table, R: pa.Table) -> pa.Table:
                keep_ids = R.column("keep_id").combine_chunks()
                return L.filter(pc.is_in(L.column("doc_id"), value_set=keep_ids))

            deduped = keyed_join(filt, survivors, "doc_id", "keep_id", keep_survivors)

            sampled = deduped.map_batches(
                lambda b: stratified_sample_batch(
                    b, rates_bp={}, default_bp=args.rate_bp, key_col="lang_pred"
                ),
                batch_format="pyarrow",
            )
            write_output(sampled, args.out, partition_cols=["lang_pred"])
        else:
            # the filter kept no document; still replace an earlier run's
            # output, which the counts below would otherwise read
            write_output(ray.data.from_items([]), args.out)
    finally:
        remove_dir(ann_dir)

    per_lang = _partition_rows(args.out, "lang_pred")
    print(json.dumps({
        "input_docs": n_in,
        "survivors": sum(per_lang.values()),
        "per_lang": per_lang,
        "min_quality_bp": min_q,
        "min_tokens": min_t,
        "rate_bp": args.rate_bp,
        "out": args.out,
    }))
    ray.shutdown()


def _partition_rows(path: str, col: str) -> dict:
    """``{value: rows}`` of each ``col=value`` directory directly under
    the directory ``path`` (a local path or a filesystem URI), counted
    from the parquet footers."""
    import pyarrow.fs as pafs

    fs, p = filesystem(path)
    return {
        i.base_name.split("=", 1)[1]: parquet_rows(path.rstrip("/") + "/" + i.base_name)
        for i in fs.get_file_info(pafs.FileSelector(p))
        if i.type == pafs.FileType.Directory and i.base_name.startswith(col + "=")
    }


def cmd_pack(args):
    """Sequence-packing index over a curated corpus: the distributed
    exclusive token prefix-scan (georay.pack) written as parquet
    partitioned by training-sequence bin RANGE (bin // bins_per_file),
    so a downstream tokenizer/packer reads one file per contiguous
    sequence range and a failed run resumes per partition."""
    ray = _init_ray(args.num_cpus)
    import pyarrow as pa

    import ray.data

    from georay.pack import pack_sequences

    docs = read_parquet_grouped(args.input, ["doc_id", "text"])
    packed = pack_sequences(docs, seq_len=args.seq_len)

    bpf = args.bins_per_file

    def add_range(b: pa.Table) -> pa.Table:
        import numpy as np

        r = b.column("bin").to_numpy(zero_copy_only=False) // bpf
        return b.append_column("bin_range", pa.array(r, pa.int64()))

    ranged = packed.map_batches(add_range, batch_format="pyarrow")
    write_output(ranged, args.out, partition_cols=["bin_range"])
    out_ds = ray.data.read_parquet(args.out)
    n = out_ds.count()
    n_bins = out_ds.max("bin")
    total = out_ds.sum("n_tokens")
    print(json.dumps({
        "docs": n,
        "total_tokens": int(total) if total is not None else 0,
        "seq_len": args.seq_len,
        "sequences": (int(n_bins) + 1) if n_bins is not None else 0,
        "out": args.out,
    }))
    ray.shutdown()


def main(argv=None):
    ap = argparse.ArgumentParser(prog="georay")
    sub = ap.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("flagship", help="end-to-end spatial pipeline")
    f.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    f.add_argument("--out", default=None)
    f.add_argument("--res", type=int, default=7)
    f.add_argument("--predicate", default="INTERSECTS")
    f.add_argument("--num-cpus", type=int, default=None)
    f.set_defaults(fn=cmd_flagship)

    r = sub.add_parser("resume", help="checkpointed run over an input dir")
    r.add_argument("--input", required=True, help="directory of input parquet files")
    r.add_argument("--out", required=True)
    r.add_argument("--res", type=int, default=7)
    r.add_argument("--predicate", default="INTERSECTS")
    r.add_argument("--group-size", type=int, default=8)
    r.add_argument("--synthesize", action="store_true", help="input is a documents table; synthesize pages")
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_resume)

    d = sub.add_parser("dedup", help="near-dup dedup: candidates -> verify -> resolve -> survivors")
    d.add_argument("--input", required=True, help="documents parquet (file or directory)")
    d.add_argument("--out", required=True)
    d.add_argument("--threshold-num", type=int, default=1)
    d.add_argument("--threshold-den", type=int, default=2, help="keep pairs with Jaccard >= num/den")
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_dedup)

    b = sub.add_parser("bench", help="run the repo bench harness (same flags as bench.py)")
    b.add_argument("rest", nargs=argparse.REMAINDER)
    def cmd_bench(args):
        import runpy
        import sys as _sys

        _sys.argv = ["bench.py"] + [a for a in args.rest if a != "--"]
        runpy.run_path(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench.py"), run_name="__main__")
    b.set_defaults(fn=cmd_bench)

    c = sub.add_parser(
        "curate",
        help="training-data curation: quality/lang filter -> exact dedup -> stratified sample",
    )
    c.add_argument("--input", required=True, help="documents parquet (doc_id, text)")
    c.add_argument("--out", required=True)
    c.add_argument("--min-quality-bp", type=int, default=4000,
                   help="drop docs scoring below this (basis points, 0-10000)")
    c.add_argument("--min-tokens", type=int, default=5)
    c.add_argument("--langs", default=None,
                   help="comma list of detected languages to keep (default: all)")
    c.add_argument("--rate-bp", type=int, default=10000,
                   help="per-language keep rate in basis points (10000 = keep all)")
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_curate)

    pk = sub.add_parser(
        "pack",
        help="sequence-packing index: global token offsets + training bins",
    )
    pk.add_argument("--input", required=True, help="documents parquet (doc_id, text)")
    pk.add_argument("--out", required=True)
    pk.add_argument("--seq-len", type=int, default=2048)
    pk.add_argument("--bins-per-file", type=int, default=1024,
                    help="training-sequence bins per output partition")
    pk.add_argument("--num-cpus", type=int, default=None)
    pk.set_defaults(fn=cmd_pack)

    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
