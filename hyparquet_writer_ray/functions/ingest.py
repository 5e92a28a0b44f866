"""Incremental-ingest deduplication: filter a new batch of rows against
a PREVIOUSLY WRITTEN parquet dataset using its split-block bloom
filters — the "what have we already crawled" pass of a continuously
ingesting web pipeline.

Scale shape: only the prior files' FOOTERS and bloom byte ranges are
read (never data pages — at 100 TB the prior corpus is petabytes, its
blooms are ~1/10000 of that), loaded once on the driver and broadcast
via ``ray.put``; every new batch then does one vectorized xxhash64 +
one vectorized SBBF probe per prior row group. Semantics: bloom
filters have NO false negatives, so every truly-seen key is dropped;
~fpp of genuinely new keys are dropped as collateral (bounded by the
fpp the prior writer chose). Shuffle-free, streaming, resume-safe.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..core.bloom import hash_values, load_bloom_words, sbbf_check_many
from ..core.types import ParquetType, SchemaElement

_ARROW_OF = {
    ParquetType.INT32: pa.int32(),
    ParquetType.INT64: pa.int64(),
    ParquetType.FLOAT: pa.float32(),
    ParquetType.DOUBLE: pa.float64(),
}


class SeenFilter:
    """Stateful stage: prior bloom words fetched ONCE per actor."""

    def __init__(self, blooms_ref, ptype: int, type_length, column: str,
                 invert: bool) -> None:
        import ray

        self.blooms: list[np.ndarray] = ray.get(blooms_ref)
        self.element = SchemaElement(name=column, type=ParquetType(ptype),
                                     type_length=type_length)
        self.column = column
        self.invert = invert

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return batch
        from ..core.arrays import single_chunk

        col = single_chunk(batch.column(self.column))
        target = _ARROW_OF.get(self.element.type)
        if target is not None and col.type != target:
            col = col.cast(target)
        if col.null_count:
            raise ValueError(
                f"filter_seen: null {self.column!r} values cannot be "
                f"probed (parquet blooms index non-null values only)")
        hashes = hash_values(col, self.element)
        if hashes is None:
            raise TypeError(
                f"filter_seen: column type {col.type} is not bloom-hashable")
        seen = np.zeros(batch.num_rows, dtype=bool)
        for words in self.blooms:
            rest = ~seen
            if not rest.any():
                break
            seen[rest] |= sbbf_check_many(words, hashes[rest])
        keep = seen if self.invert else ~seen
        return batch.filter(pa.array(keep))


def filter_seen(ds, prior, column: str, *, invert: bool = False,
                concurrency=(1, 4)):
    """Drop rows of ``ds`` whose ``column`` value is possibly present in
    the ``prior`` parquet dataset (a directory, file path, or list of
    paths whose files carry bloom filters on ``column``). With
    ``invert=True`` keep ONLY the possibly-seen rows (the re-crawl /
    refresh selection).

    Every truly-seen key is dropped (blooms have no false negatives);
    at most ~fpp of new keys are dropped as collateral. Footer-only IO
    against the prior corpus; no shuffle."""
    import ray

    from ..state import fsio

    if isinstance(prior, (str, os.PathLike)):
        prior = os.fspath(prior)
        paths = fsio.glob_in(prior, "**/*.parquet") if fsio.isdir(prior) else [prior]
    else:
        paths = list(prior)
    if not paths:
        raise ValueError("filter_seen: no prior parquet files found")
    ptype = tlen = None
    blooms: list[np.ndarray] = []
    for p in paths:
        with fsio.open_input(p) as f:
            pt, tl, words = load_bloom_words(f, column)
        if ptype is None:
            ptype, tlen = pt, tl
        elif (pt, tl) != (ptype, tlen):
            raise ValueError(
                f"filter_seen: prior files disagree on {column!r} physical "
                f"type ({ptype} vs {pt})")
        blooms.extend(words)
    blooms_ref = ray.put(blooms)
    return ds.map_batches(
        SeenFilter,
        fn_constructor_kwargs=dict(blooms_ref=blooms_ref, ptype=int(ptype),
                                   type_length=tlen, column=column,
                                   invert=invert),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency,
    )
