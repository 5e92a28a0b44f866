"""Pretraining mixture export: the end-to-end composition of the
engine's quality/mixing/packing/encode stages —

    bigram LM score  ->  keep the best-quality quantile
    ->  big-x-big hash join back to the corpus rows
    ->  deterministic seeded shuffle (epoch order)
    ->  token-budgeted sequence packing
    ->  CRC-checksummed parquet part output with lineage

Every stage is individually oracle-gated elsewhere (text_lm_score,
join_shuffle_hash, shuffle_export, pack_sequences, roundtrip gates);
this pipeline proves they COMPOSE: one streaming pass over the corpus
with exactly two shuffles (the LM bucket pass and the join bucket pass
— the shuffle sort is the deliberate epoch-order exchange), a
vocabulary-bounded broadcast, and no driver byte path for the corpus
rows.
"""
from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc


def export_training_mixture(
    ds,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_quantile: float = 0.75,
    pack_budget: int = 512,
    seed: int = 0,
    exact_threshold: bool = False,
    threshold_alpha: float = 0.005,
    resume: bool = False,
    score_dir: str | None = None,
):
    """Run the full mixture-export composition over a documents
    dataset. Returns ``(survivors_ds, packs_ds, write_stats)``: the
    surviving (id, n_bigrams, xent) Dataset, the pack-manifest
    Dataset, and the part-writer stats dict — both Datasets stay
    distributed (the score table is corpus-sized at cluster scale;
    only the quantile threshold and write stats touch the driver).

    ``id_col`` must be int64-castable: ``lm_score`` emits int64 doc
    ids, so the survivors/packs Datasets carry int64 ids regardless of
    the corpus column's exact integer width.

    The quantile threshold defaults to the repo's DDSketch
    (``threshold_alpha`` relative error on the threshold VALUE, ranks
    exact, O(log-range/alpha) driver state) — on a continuous xent
    column every double is distinct, so the exact value-histogram
    path would shuffle one row per document. Pass
    ``exact_threshold=True`` to opt back into ``exact_quantiles``.

    ``out_dir`` is OWNED by this export: any pre-existing parquet
    parts, lineage records and score checkpoint in it are removed
    first, because parts are content-hash-named — a previous run with
    different parameters would otherwise leave stale state that
    silently pollutes the exported epoch. ``resume=True`` skips that
    cleanup and resumes a KILLED run of the SAME input/parameters:
    the score table is checkpointed to ``score_dir`` (default
    ``out_dir/_scores``) as parquet (durable, ``_DONE``-marked), so a
    rerun skips the train+score corpus scans, and the part writer's
    lineage records skip parts already on disk. ``score_dir`` may be
    an fsspec URI (``s3://…``) so the checkpoint has a home on a
    multi-node cluster without a POSIX mount (state/fsio.py); it is
    owned by this export under the same cleanup contract."""
    import ray.data  # noqa: F401  (Dataset inputs)

    from ..core.options import WriteOptions
    from ..functions.dedup import _checkpoint_dataset
    from ..functions.joins import hash_join
    from ..functions.lm import lm_score, train_bigram_lm
    from ..functions.packing import pack_sequences
    from ..functions.shuffle import deterministic_shuffle
    from ..functions.sketches import dd_quantile_estimate, dd_quantile_sketch
    from ..functions.stats import exact_quantiles
    from ..state import fsio
    from ..state.lineage import LineageLog
    from .write import write_parquet_dataset

    fsio.makedirs(out_dir)
    if score_dir is None:
        score_dir = fsio.join(out_dir, "_scores")
    if not resume:
        for stale in fsio.glob_in(out_dir, "*.parquet"):
            fsio.remove(stale)
        LineageLog(out_dir).clear()
        fsio.rm_tree(score_dir)

    # 1. quality model + exact vocab, fused into ONE corpus scan;
    # scores are checkpointed to PARQUET (durable, resumable — a
    # killed run rerun with resume=True skips the corpus scans), and
    # the checkpoint feeds the three consumers below
    if not fsio.exists(fsio.join(score_dir, "_DONE")):
        model, V = train_bigram_lm(ds, text_col=text_col)
        _checkpoint_dataset(
            lm_score(ds, model, V, text_col=text_col, id_col=id_col),
            score_dir)
    score_files = fsio.glob_in(score_dir, "*.parquet")
    # row count from the checkpoint FOOTERS — no data scan
    n_scored = sum(fsio.parquet_num_rows(f) for f in score_files)
    if n_scored == 0:  # no document had >= 2 tokens
        # int64 matches the non-empty path: survivors come from the
        # scores checkpoint, whose ids lm_score emits as int64 (the
        # pipeline-wide id contract — see the docstring)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_bigrams": pa.array([], pa.int64()),
                          "xent": pa.array([], pa.float64())})
        return (ray.data.from_arrow(empty),
                ray.data.from_arrow(pa.table({"pack_id": pa.array([], pa.int64())})),
                {"rows": 0, "out_dir": out_dir})

    # 2. keep the best `keep_quantile` of documents by cross-entropy.
    # Default: DDSketch threshold (rank rule exact, threshold value
    # within threshold_alpha relative of the exact quantile_disc
    # value); exact_threshold opts into the exact value histogram
    # (O(distinct xent) shuffle rows — on continuous data, O(rows)).
    # the threshold pass reads ONLY the xent column of the checkpoint
    # (column-pruned); the full 3-column read streams to the two
    # downstream consumers. Re-reading the narrow checkpoint beats
    # pinning a corpus-sized score table in the object store at scale;
    # durability (kill-resume) comes from the parquet files themselves.
    xent_only = fsio.read_parquet_dataset(score_files, columns=["xent"])
    if exact_threshold:
        th = exact_quantiles(
            xent_only, "xent", qs=(keep_quantile,)
        ).column("value").to_pylist()[0]
    else:
        sk = dd_quantile_sketch(xent_only, "xent", alpha=threshold_alpha)
        # inflate by alpha so sketch underestimation can only ADMIT a
        # few extra near-threshold docs, never drop a clear keeper
        th = dd_quantile_estimate(sk, (keep_quantile,))[0] \
            * (1.0 + threshold_alpha)
    scored = fsio.read_parquet_dataset(score_files)
    survivors = scored.map_batches(
        lambda b: b.filter(pc.less_equal(b.column("xent"),
                                         pa.scalar(th))),
        batch_format="pyarrow", zero_copy_batch=True)

    # 3. join scores back onto the corpus rows (big-x-big: at cluster
    # scale the score table is corpus-sized — no broadcast)
    joined = hash_join(
        ds, survivors, on=id_col,
        right_cols=["n_bigrams", "xent"], how="inner")

    # 4. reproducible epoch order, then CRC-checksummed part output
    shuffled = deterministic_shuffle(joined, id_col=id_col, seed=seed)
    stats = write_parquet_dataset(
        shuffled, out_dir, WriteOptions(page_crc=True),
        concurrency=(1, 4))

    # 5. token-budgeted packing manifest over the survivors
    packs = pack_sequences(survivors, id_col=id_col,
                           tokens_col="n_bigrams", budget=pack_budget)
    return survivors, packs, stats


def verify_mixture_output(out_dir: str) -> list[pa.Table]:
    """Re-read every part with page-CRC verification enabled and
    return one table per part (raises on any corrupted page). Parts
    are content-hash-named, so global epoch order is reconstructed by
    range: rows are sorted within each part and part key-ranges are
    disjoint (the caller asserts both)."""
    import pyarrow.parquet as pq

    from ..state import fsio

    out = []
    for f in fsio.glob_in(out_dir, "*.parquet"):
        fs, p = fsio.arrow_fs(f)
        with pq.ParquetFile(p, filesystem=fs, page_checksum_verification=True) as pf:
            out.append(pf.read())
    return out
