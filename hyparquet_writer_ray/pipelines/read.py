"""The Ray Data read behind :func:`.write.read_parquet_fused`: one read
task per input file, built on the driver without running a Ray task.

``ray.data.read_parquet`` prefetches footers and samples inputs in
remote tasks before it returns a Dataset, and the fused route of
``write_parquet_dataset`` never executes the read (each part task reads
its own file), so that build was pure overhead. A content-named part
hashes the blocks of the read it came from, and a single-file
checkpoint id hashes them too, so this read keeps Ray 2.49's blocks
byte for byte: it samples the same inputs in-process to reach the same
read batch size, and scans each input with the same ``pyarrow.dataset``
fragment call as Ray's ``read_fragments``. Each input is opened on the
filesystem that ``fsio.arrow_fs``, the one resolver, gives it on the
driver (pyarrow's own ``LocalFileSystem`` for a local path, as Ray
reads it), and that filesystem ships with its read task.
"""
from __future__ import annotations

from functools import cached_property, partial
from typing import Iterator, Optional
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
from ray.data._internal.datasource.parquet_datasource import (
    PARQUET_ENCODING_RATIO_ESTIMATE_MAX_NUM_SAMPLES,
    PARQUET_ENCODING_RATIO_ESTIMATE_MIN_NUM_SAMPLES,
    PARQUET_ENCODING_RATIO_ESTIMATE_SAMPLING_RATIO,
    PARQUET_READER_ROW_BATCH_SIZE,
    SerializedFragment,
    _sample_fragment,
)
from ray.data.block import BlockMetadata
from ray.data.context import DataContext
from ray.data.datasource import Datasource, ReadTask

from ..state import fsio


def _fragment(fs, path: str) -> pads.ParquetFileFragment:
    return pads.ParquetFileFormat().make_fragment(path, fs)


def _read_file(fs, path: str, columns, batch_rows) -> Iterator[pa.Table]:
    """One read task's blocks: ``path`` on ``fs`` scanned like Ray's
    ``read_fragments``, one table per non-empty batch."""
    # registers Ray's tensor extension types, as Ray's read task does
    from ray.data.extensions.tensor_extension import ArrowTensorType  # noqa: F401

    # No schema: Ray scans with only a ``schema=`` given to read_parquet,
    # so each block keeps its own file's schema (metadata, field order
    # and nullability), as in Ray's read. Ray passes the mean batch
    # size itself, which pyarrow truncates.
    kw = {} if batch_rows is None else {"batch_size": int(batch_rows)}
    for b in _fragment(fs, path).to_batches(use_threads=False, columns=columns, **kw):
        if b.num_rows:
            yield pa.Table.from_batches([b])


class _ReadFile:
    """A read task's body. Ray pickles it on the driver when it ships
    the task to run, and only then is the read batch size sampled: a
    read that never runs (the fused route's) never decodes a sample."""

    def __init__(self, source: "FileRead", i: int) -> None:
        self.source, self.i = source, i

    def __call__(self) -> Iterator[pa.Table]:
        fn, args = self.__reduce__()
        return fn(*args)()

    def __reduce__(self):
        src = self.source
        return partial, (_read_file, *src._files[self.i], src._columns, src._batch_rows)


class FileRead(Datasource):
    """One read task per input file, named ``Parquet`` so the operator
    stays ``ReadParquet`` and fuses into the next ``map_batches``.

    Built on the driver with no Ray task: every input's footer gives
    its task's row count, so ``Dataset.count()`` runs no read; the
    schema is the first footer's (pruned to ``columns``); sizes come
    from one :func:`fsio.identities` call, scaled by the first footer's
    decoded bytes per file byte.
    Ray's read batch size is sampled from the inputs Ray samples,
    against the block target current at construction, when a read task
    is first shipped (:class:`_ReadFile`). A directory among ``paths``
    raises IsADirectoryError: its files are Ray's to list."""

    def __init__(self, paths: list[str], columns: Optional[list[str]] = None):
        self._paths = list(paths)
        self._files = [fsio.arrow_fs(p) for p in self._paths]
        self._columns = columns
        self._target = DataContext.get_current().target_max_block_size
        self._sizes = [size for _, size, _ in fsio.identities(self._paths)]
        frags = [_fragment(*f) for f in self._files]
        self._rows = [f.metadata.num_rows for f in frags]
        first = frags[0]
        schema = first.physical_schema
        if columns:
            schema = pa.schema([schema.field(c) for c in columns], schema.metadata)
        self._schema = schema
        md = first.metadata
        raw = sum(md.row_group(g).total_byte_size for g in range(md.num_row_groups))
        self._ratio = max(1.0, raw / self._sizes[0]) if self._sizes[0] else 1.0

    @cached_property
    def _batch_rows(self) -> Optional[float]:
        """Ray's read batch size: the mean over the inputs Ray samples of
        the rows of each sample's bytes per row in a tenth of the block
        target, clamped to [1, PARQUET_READER_ROW_BATCH_SIZE] (an empty
        or all-null sample counts the maximum); None without a block
        target. Each sample is Ray's own ``_sample_fragment``, run here."""
        if self._target is None:
            return None
        n = len(self._paths)
        k = max(min(int(n * PARQUET_ENCODING_RATIO_ESTIMATE_SAMPLING_RATIO),
                    min(PARQUET_ENCODING_RATIO_ESTIMATE_MAX_NUM_SAMPLES, n)),
                min(PARQUET_ENCODING_RATIO_ESTIMATE_MIN_NUM_SAMPLES, n))
        bprs = [_sample_fragment({}, self._columns, None,
                                 SerializedFragment(_fragment(*self._files[i])))
                .actual_bytes_per_row
                for i in np.linspace(0, n - 1, k).astype(int).tolist()]
        return np.mean([max(1, min(PARQUET_READER_ROW_BATCH_SIZE, (self._target // 10) // b))
                        if b else PARQUET_READER_ROW_BATCH_SIZE for b in bprs])

    def estimate_inmemory_data_size(self) -> int:
        return int(sum(self._sizes) * self._ratio)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [ReadTask(_ReadFile(self, i),
                         BlockMetadata(num_rows=r, size_bytes=int(s * self._ratio),
                                       input_files=[p], exec_stats=None),
                         schema=self._schema)
                for i, (p, s, r) in enumerate(zip(self._paths, self._sizes, self._rows))]

    def get_name(self) -> str:
        return "Parquet"

    @property
    def supports_distributed_reads(self) -> bool:
        # Ray pins a read to the driver's node only for its own
        # local:// scheme
        return not all(urlsplit(p).scheme == "local" for p in self._paths)
