"""End-to-end training-data curation pipeline: the composition a
100 TB corpus run would execute, built entirely from this engine's
operators.

    read -> exact dedup (128-bit content key) -> vectorized quality
    filter -> parquet part-file encode (smart codecs + lineage) ->
    per-language stats

Scale shape: dedup is ONE shuffle of the rows keyed by the 128-bit
content hash (survivor rows come straight out of the groupby — no
second join, no driver-side id set); the quality filter is an
Arrow-kernel map_batches; the encode is the part-file writer (no
driver byte path); the stats aggregate moves one row per
(lang, partial).
"""
from __future__ import annotations

import os
from functools import partial
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..core.options import WriteOptions
from ..functions.dedup import exact_dedup_rows
from ..functions.text import quality_score_batch
from .write import write_parquet_dataset



def _quality_filter(batch: pa.Table, text_col: str, min_tokens: int,
                    max_token_len: int) -> pa.Table:
    """Vectorized quality filter shared by both curation entry points.
    0-row blocks still get the quality columns appended so every
    downstream block carries one schema."""
    if batch.num_columns == 0:
        return batch
    scored = quality_score_batch(batch, text_col)
    keep = pc.and_(
        pc.greater_equal(scored.column("n_tokens"), min_tokens),
        pc.less_equal(scored.column("max_token_len"), max_token_len),
    )
    return scored.filter(pc.fill_null(keep, False))


def curate_documents(
    ds,
    out_dir: Optional[str] = None,
    *,
    min_tokens: int = 10,
    max_token_len: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
    opts: Optional[WriteOptions] = None,
    num_partitions: int = 8,  # retained for API stability (dedup is join-free now)
):
    """Dedup + quality-filter ``ds``; optionally encode the survivors
    to ``out_dir`` as parquet parts. Returns the curated Dataset
    (columns unchanged plus the quality signals).

    ``out_dir`` (when given) is OWNED by this call: every pre-existing
    ``*.parquet`` file in it and its lineage records are DELETED
    before the fresh encode, because parts are content-hash named and a
    previous run with different parameters would otherwise leave stale
    parts polluting the returned ``read_parquet``. Do not point it at a
    directory holding unrelated parquet data (same contract as
    ``mixture_export``)."""
    # join-free dedup: the survivors' full rows come straight out of
    # the single content-hash shuffle
    survivors = exact_dedup_rows(ds, key=text_col, id_col=id_col)

    curated = survivors.map_batches(
        partial(_quality_filter, text_col=text_col, min_tokens=min_tokens,
                max_token_len=max_token_len),
        batch_format="pyarrow", zero_copy_batch=True)
    if out_dir is not None:
        # fresh (resume=False) semantics: parts are content-hash named,
        # so a rerun with different parameters would otherwise leave the
        # previous run's parts polluting the returned read_parquet
        from ..state import fsio
        from ..state.lineage import LineageLog

        fsio.makedirs(out_dir)
        for stale in fsio.glob_in(out_dir, "*.parquet"):
            fsio.remove(stale)
        LineageLog(out_dir).clear()
        write_parquet_dataset(
            curated, out_dir, opts or WriteOptions(auto_codec="smart"), resume=False
        )
        curated = fsio.read_parquet_dataset(out_dir)
    return curated


def curate_near_duplicates(
    ds,
    pairs,
    *,
    min_tokens: int = 10,
    max_token_len: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
):
    """Near-duplicate curation: given a candidate-pair list (from
    MinHash-LSH / n-gram Jaccard / embedding LSH), resolve duplicate
    CLUSTERS (connected components, keep the min-id representative),
    anti-join the corpus against the drop list, then apply the same
    vectorized quality filter as ``curate_documents``. Every stage is
    a constant-bucket shuffle; nothing is broadcast. ``num_buckets``
    sizes the anti-join shuffle: default 64 for web-scale corpora;
    each bucket costs one task per stage, so size it down for small
    filtered subsets (the iterative component rounds self-adapt to the
    pair-graph size)."""
    from ..functions.graph import drop_near_duplicates

    survivors = drop_near_duplicates(ds, pairs, id_col=id_col,
                                     num_buckets=num_buckets)

    return survivors.map_batches(
        partial(_quality_filter, text_col=text_col, min_tokens=min_tokens,
                max_token_len=max_token_len),
        batch_format="pyarrow", zero_copy_batch=True)


def lang_stats(curated) -> "object":
    """Per-language (count, token sum) over a curated Dataset — the
    partial collapses each batch before the tiny lang-keyed shuffle."""

    def partial_fn(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.large_string()),
                             "n_docs": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64())})
        langs = batch.column("lang").cast(pa.large_string())
        toks = batch.column("n_tokens").cast(pa.int64())
        agg = pa.table({"lang": langs, "n_tokens": toks}).group_by("lang").aggregate(
            [("lang", "count"), ("n_tokens", "sum")]
        )
        return pa.table({
            "lang": agg.column("lang"),
            "n_docs": agg.column("lang_count"),
            "n_tokens": agg.column("n_tokens_sum"),
        })

    partials = curated.map_batches(partial_fn, batch_format="pyarrow", zero_copy_batch=True)
    agg = partials.groupby("lang").sum(["n_docs", "n_tokens"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch.column("lang"),
            "n_docs": batch.column("sum(n_docs)"),
            "n_tokens": batch.column("sum(n_tokens)"),
        })

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True).sort("lang")
