"""Column-chunk encoding: codec decision, dictionary page, page loop,
statistics, page indexes — the pure-function core of the engine
(reference: src/column.js:22-199, src/datapage.js:17-101).

``encode_chunk`` returns a relocatable blob whose internal offsets are
all relative to the blob start; the assembler rebases them
(SURVEY.md §7.0 invariant 1). Flat and nested columns share one "slot"
model: ``def/rep`` level arrays cover every Dremel slot, pages are slot
ranges aligned to row starts, and the leaf values are read once per
chunk (:class:`_Values`); a page takes them by slot wherever there is
one entry per slot, and by value otherwise.
"""
from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import _kernel
from . import arrays as A
from .bufwriter import BufWriter
from .compress import compress
from .delta import delta_binary_pack, delta_byte_array, delta_length_byte_array
from .nested import LeveledValues
from .options import ColumnSpec, WriteOptions
from .pages import write_data_page_v2_header, write_dictionary_page_header
from .plain import plain_boolean, plain_byte_array, plain_fixed, plain_flba
from .rle import bit_width_of, encode_rle_hybrid, write_rle_run
from .splitstream import byte_stream_split
from .statistics import Stats, compute_statistics, fold_statistics, slot_statistics
from .types import (BoundaryOrder, Codec, Encoding, FIXED_WIDTH, LeafInfo, ParquetType,
                    SchemaElement)

DICT_SAMPLE = 1000  # sample size for the dictionary decision (src/dictionary.js:80)
DICT_MAX_RATIO = 0.5  # more than half of the sample distinct rejects: 2 * distinct > n

log = logging.getLogger("hyparquet_writer_ray")


@dataclass
class PageLocation:
    rel_offset: int  # page start relative to chunk blob start
    compressed_page_size: int  # header + levels + body
    first_row_index: int


@dataclass
class ColumnIndexData:
    null_pages: list = field(default_factory=list)
    min_values: list = field(default_factory=list)  # bytes (b'' for all-null pages)
    max_values: list = field(default_factory=list)
    null_counts: list = field(default_factory=list)
    boundary_order: int = int(BoundaryOrder.UNORDERED)


@dataclass
class ChunkMeta:
    path: list[str]
    ptype: int
    encodings: list[int]
    codec: int
    num_values: int  # total slots (levels count)
    total_compressed_size: int
    total_uncompressed_size: int
    data_page_offset: int  # relative to chunk start
    dictionary_page_offset: Optional[int]
    stats: Optional[Stats]
    encoding_stats: Optional[list[tuple[int, int, int]]]
    column_index: Optional[ColumnIndexData]
    offset_index: Optional[list[PageLocation]]
    bloom: Optional[bytes]
    kv_metadata: Optional[list] = None  # per-chunk key/value (e.g. hpw_fsst)
    geo_stats: Optional[object] = None  # GeoStats for GEOMETRY columns


def _prepare(col, leaf: LeafInfo) -> "tuple[LeveledValues, _Values]":
    """Normalize input (flat arrow column or LeveledValues) to the slot
    model, and build the chunk's one view of its values."""
    if isinstance(col, LeveledValues):
        return col, _Values(col.values, leaf, col.def_levels == col.max_def
                            if col.null_count else None)
    arr = A.single_chunk(col)
    max_def, n = leaf.max_definition_level, len(arr)
    if max_def == 0 and arr.null_count:
        raise ValueError(f"null value in REQUIRED column {'.'.join(leaf.path)}")
    mask = A.validity_mask(arr)
    def_levels = None if max_def == 0 else (
        np.full(n, max_def, np.uint8) if mask is None else mask.astype(np.uint8) * max_def)
    # a string/binary leaf keeps its slots (_Values)
    values = arr if mask is None or A.offset_dtype(arr.type) is not None else A.drop_null_fast(arr)
    lv = LeveledValues(values, def_levels, None, max_def, 0, n, arr.null_count)
    return lv, _Values(values, leaf, mask)


class _Values:
    """A chunk's values, read once for every reader in the chunk:
    ``arr``, the leaf's values; ``valid``, which slots hold one (None:
    all) and ``vcum``, the values before each slot; for a BYTE_ARRAY
    leaf, ``slots``, their one check (``arrays.byte_slots``).

    A flat string/binary leaf keeps its slots, nulls in place, and is
    compacted at most once: PLAIN, FSST and DELTA_LENGTH pages, bloom,
    the page sizes and the equal-width test read ``slots``; the
    compacted values (built on first use) serve an accepted dictionary,
    equal-width keys, geo and DELTA_BYTE_ARRAY pages; the dictionary
    trial and the FSST sample share one compacted prefix, the slots
    the larger of their first values needs. Other leaves' values hold
    no nulls (nested ones: :mod:`nested`)."""

    def __init__(self, arr: pa.Array, leaf: LeafInfo, valid: "np.ndarray | None" = None):
        self.arr, self.valid = arr, valid
        self.vcum = range(len(arr) + 1) if valid is None else \
            np.concatenate([[0], np.cumsum(valid, dtype=np.int64)])
        self.slots = A.byte_slots(arr) if leaf.element.type == ParquetType.BYTE_ARRAY else None
        self._compacted = self._prefix = None

    def compacted(self) -> "tuple[pa.Array, A.ByteSlots | None]":
        """The non-null values and their slots."""
        if self._compacted is None:
            self._compacted = A.compacted(self.arr, self.slots, self.valid)
        return self._compacted

    def first(self, k: int) -> "tuple[pa.Array, A.ByteSlots | None]":
        """The first ``k`` non-null values (all of them if there are
        fewer) and their slots: of the compacted values where those are
        built or the ``k`` values need every slot, else of the last
        compacted slot prefix where that holds them, else of the
        shortest slot prefix that does, compacted and kept."""
        arr, slots = self.arr, self.slots
        if arr.null_count:
            end = min(int(np.searchsorted(self.vcum, k)), len(arr))
            if self._compacted is not None or end == len(arr):
                arr, slots = self.compacted()
            else:
                if self._prefix is None or len(self._prefix[0]) < k:
                    self._prefix = A.compacted(arr.slice(0, end), slots.slice(
                        0, end, end - int(self.vcum[end])), self.valid[:end])
                arr, slots = self._prefix
        return arr.slice(0, k), slots and slots.slice(0, k, 0)


def _encode_values(arr: pa.Array, slots: "A.ByteSlots | None", leaf: LeafInfo,
                   encoding: Encoding, out: "np.ndarray | None" = None
                   ) -> "tuple[bytes | memoryview, tuple[int, int] | None]":
    """The page body of the non-null values ``arr``, or, for a
    BYTE_ARRAY leaf, of their checked ``slots``, whose nulls a PLAIN or
    DELTA_LENGTH_BYTE_ARRAY page skips, and the slots of the page's
    smallest and largest value where the body's own pass found them
    (:func:`plain_byte_array`), else None. ``out`` is the buffer those
    two byte-array bodies may be written into."""
    el = leaf.element
    t = el.type
    if t == ParquetType.BYTE_ARRAY and encoding == Encoding.PLAIN:
        return plain_byte_array(slots, out)
    if t == ParquetType.BYTE_ARRAY and encoding == Encoding.DELTA_LENGTH_BYTE_ARRAY:
        return delta_length_byte_array(slots, out)
    return _other_body(arr, slots, el, encoding), None


def _other_body(arr: pa.Array, slots: "A.ByteSlots | None", el: SchemaElement,
                encoding: Encoding) -> "bytes | memoryview":
    """:func:`_encode_values`'s body of every other page: one whose
    statistics come from another pass."""
    t = el.type
    if encoding == Encoding.PLAIN:
        if t == ParquetType.BOOLEAN:
            return plain_boolean(A.fixed_values(arr))
        if t == ParquetType.FIXED_LEN_BYTE_ARRAY:
            return plain_flba(A.flba_values(arr, el.type_length))
        return plain_fixed(A.fixed_values(arr), t)
    if encoding == Encoding.BYTE_STREAM_SPLIT:
        if t == ParquetType.FIXED_LEN_BYTE_ARRAY:
            return byte_stream_split(A.flba_values(arr, el.type_length))
        if t not in FIXED_WIDTH:
            raise ValueError("BYTE_STREAM_SPLIT unsupported for this type")
        v = np.ascontiguousarray(A.fixed_values(arr))
        width = FIXED_WIDTH[t]
        if v.dtype.itemsize != width:
            # narrow arrow ints (int8/16, uint8/16/32) split at the
            # parquet PHYSICAL width, not their arrow width
            v = v.astype(f"<i{width}" if v.dtype.kind == "i" else f"<u{width}")
        return byte_stream_split(v)
    page = BufWriter()
    if encoding == Encoding.RLE:
        if t != ParquetType.BOOLEAN:
            raise ValueError("RLE encoding only supported for BOOLEAN type")
        body = BufWriter()
        encode_rle_hybrid(body, A.fixed_values(arr).astype(np.uint8), 1)
        page.u32(body.offset)  # u32 byte-length prefix (src/datapage.js:45)
        page.write(body.view())
    elif encoding == Encoding.DELTA_BINARY_PACKED:
        if t not in (ParquetType.INT32, ParquetType.INT64):
            raise ValueError("DELTA_BINARY_PACKED only supports INT32/INT64")
        delta_binary_pack(page, A.fixed_values(arr))
    elif encoding == Encoding.DELTA_LENGTH_BYTE_ARRAY:
        raise ValueError("DELTA_LENGTH_BYTE_ARRAY only supports BYTE_ARRAY")
    elif encoding == Encoding.DELTA_BYTE_ARRAY:
        if t != ParquetType.BYTE_ARRAY:
            raise ValueError("DELTA_BYTE_ARRAY only supports BYTE_ARRAY")
        delta_byte_array(page, slots.lengths, slots.span())
    else:
        raise ValueError(f"unsupported encoding {encoding}")
    return page.view()


def _value_sizes(values: _Values, leaf: LeafInfo):
    """One width for every value, or each value's byte length (one per
    entry of ``values``: per slot where the leaf keeps its slots)."""
    t = leaf.element.type
    if t == ParquetType.BYTE_ARRAY:
        return values.slots.lengths.astype(np.float64)
    if t == ParquetType.FIXED_LEN_BYTE_ARRAY:
        return float(leaf.element.type_length)
    return 0.125 if t == ParquetType.BOOLEAN else float(FIXED_WIDTH[t])


def _page_bounds(lv: LeveledValues, values: _Values, leaf: LeafInfo, n_slots: int,
                 page_size: int, value_size: "float | None" = None) -> "list[tuple[int, int]]":
    """Slot-range pages aligned to row starts."""
    if not page_size or n_slots == 0:
        return [(0, n_slots)]

    sizes = value_size if value_size is not None else _value_sizes(values, leaf)
    has_val = values.valid
    if isinstance(sizes, float):
        slot_sizes = None
        per_page = max(1, int(page_size / max(sizes, 1e-9)))
    elif has_val is None:
        slot_sizes = sizes
    else:
        # scatter per-value sizes onto their slots: the valid slots'
        # lengths, where a leaf keeps its slots (a null slot's own
        # bytes are not written)
        slot_sizes = np.zeros(n_slots, dtype=np.float64)
        slot_sizes[has_val] = sizes[has_val] if len(sizes) == n_slots else sizes
    # every slot is a row start where there are no repetition levels
    row_starts = None if lv.rep_levels is None else np.nonzero(lv.rep_levels == 0)[0]
    if slot_sizes is None and row_starts is None:
        # fixed width, flat: uniform split
        return [(s, min(s + per_page, n_slots)) for s in range(0, n_slots, per_page)]

    bounds = []
    cum = np.cumsum(slot_sizes) if slot_sizes is not None else None
    start = 0
    base = 0.0
    while start < n_slots:
        if cum is None:
            cut = start + per_page - 1
        else:
            cut = int(np.searchsorted(cum, base + page_size))
        end = min(cut + 1, n_slots)
        if row_starts is not None:
            # round end down to a row start > start (pages begin at rows)
            j = int(np.searchsorted(row_starts, end))
            if j < len(row_starts):
                cand = int(row_starts[j - 1]) if j > 0 else 0
                end = cand if cand > start else int(row_starts[j])
            else:
                end = n_slots
        end = max(end, start + 1)
        end = min(end, n_slots)
        bounds.append((start, end))
        if cum is not None:
            base = float(cum[end - 1])
        start = end
    return bounds


def _try_dictionary(values: _Values, leaf: LeafInfo, spec: ColumnSpec, opts: WriteOptions
                    ) -> "tuple[pa.Array, np.ndarray] | None":
    """Reference dictionary decision (src/dictionary.js:72-135): the
    dictionary, in the chunk's own type, and the uint32 index of each
    value, or None for no dictionary. The compiled kernel's
    ``dict_encode`` runs the trial and the encode in one pass where it
    can (:func:`_kernel_dictionary`); Arrow's ``count_distinct`` and
    ``dictionary_encode`` do elsewhere: the trial over the first
    values, the dictionary over the compacted ones."""
    el = leaf.element
    forced = spec.encoding == Encoding.RLE_DICTIONARY
    if spec.encoding is not None and not forced:
        return None
    if el.type == ParquetType.BOOLEAN:
        if forced:
            raise TypeError(
                "ColumnSpec(encoding=RLE_DICTIONARY) is unsupported for "
                "BOOLEAN columns"
            )
        return None
    # sample-based auto decision; an explicit request bypasses it
    arr = values.arr
    n_sample = min(len(arr) - arr.null_count, DICT_SAMPLE)
    if not forced and n_sample == 0:
        return None
    got = _kernel_dictionary(values, leaf, 0 if forced else n_sample)
    if got is None and not forced:
        distinct = pc.count_distinct(values.first(n_sample)[0]).as_py()
        got = distinct if distinct == 0 or 2 * distinct > n_sample else None
    if isinstance(got, int):
        log.debug("dictionary rejected for column %s: distinct_ratio "
                  "%.4f > %s", ".".join(leaf.path), got / n_sample,
                  DICT_MAX_RATIO)
        return None
    if got is None:
        try:
            dict_arr = pc.dictionary_encode(values.compacted()[0])
        except pa.ArrowNotImplementedError:
            if forced:
                raise TypeError(
                    f"ColumnSpec(encoding=RLE_DICTIONARY) requested but type "
                    f"{arr.type} cannot be dictionary-encoded"
                )
            log.debug("dictionary rejected for column %s: type %s cannot be "
                      "dictionary-encoded", ".".join(leaf.path), arr.type)
            return None
        got = dict_arr.dictionary, A.fixed_values(dict_arr.indices).astype(np.uint32)
    dictionary, indices = got
    if el.type == ParquetType.BYTE_ARRAY:
        dict_bytes = dictionary.nbytes
    elif el.type == ParquetType.FIXED_LEN_BYTE_ARRAY:
        dict_bytes = len(dictionary) * (el.type_length or 0)
    else:
        dict_bytes = len(dictionary) * FIXED_WIDTH.get(el.type, 8)
    if not forced and opts.page_size and dict_bytes > opts.page_size:
        log.debug("dictionary rejected for column %s: dict_bytes %d > "
                  "page_size %d", ".".join(leaf.path), dict_bytes, opts.page_size)
        return None
    if opts.dict_sort_frequency and len(dictionary):
        return _sort_dict_by_frequency(dictionary, indices)
    return dictionary, indices


_KERNEL_TYPES = (ParquetType.INT32, ParquetType.INT64, ParquetType.FLOAT, ParquetType.DOUBLE)
_HANDED_BACK = {_kernel.DICT_NAN: "NaN", _kernel.DICT_SIGNED_ZERO: "signed zero"}


def _kernel_dictionary(values: _Values, leaf: LeafInfo, trial: int
                       ) -> "tuple[pa.Array, np.ndarray] | int | None":
    """``_try_dictionary``'s dictionary and indices from the compiled
    kernel's ``dict_encode``, with the reference trial over the first
    ``trial`` values (0: none), or the sample's distinct count if the
    trial rejects the chunk. None leaves the chunk to Arrow: without
    the kernel, for FLBA and variable-width byte arrays, and, with one
    DEBUG record naming the reason, for a fixed-width chunk the kernel
    cannot take (a type ``fixed_values`` cannot view, or a float NaN or
    -0.0, which Arrow places by its hash)."""
    if _kernel.get_kernel() is None:
        return None
    t, arr = leaf.element.type, values.arr
    if t == ParquetType.BYTE_ARRAY:
        keys = _equal_width_keys(values)
        if keys is None:
            return None
    elif t in _KERNEL_TYPES:
        try:
            keys = A.fixed_values(arr)
        except TypeError:
            return _handed_back(leaf, f"unsupported type {arr.type}")
    else:
        return None
    status, indices, dictionary = _kernel.dict_encode(keys, trial)
    if status == _kernel.DICT_REJECTED:
        return len(dictionary)
    if status:
        return _handed_back(leaf, _HANDED_BACK[status])
    return _key_dictionary(arr.type, dictionary), indices


def _handed_back(leaf: LeafInfo, reason: str) -> None:
    log.debug("dictionary of column %s left to Arrow: %s", ".".join(leaf.path), reason)


_KEY_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _equal_width_keys(values: _Values) -> "np.ndarray | None":
    """The value bytes of a string/binary chunk whose non-null values
    are all 1, 2, 4 or 8 bytes long, as one unsigned integer per value
    (a view of the compacted chunk); None for any other chunk.

    Equal-width values are equal exactly when their bytes, read as one
    unsigned integer, are; so the kernel's ``dict_encode`` over the keys
    gives the strings' first-occurrence dictionary and indices, as
    ``pc.dictionary_encode`` does, without a per-value offset walk."""
    arr, lengths = values.arr, values.slots.lengths
    if len(arr) == arr.null_count:
        return None
    if arr.null_count:
        # null slots may own bytes: the valid slots' widths decide
        # before the chunk is compacted
        lengths = lengths[values.valid]
    width = int(lengths[0])
    if width not in _KEY_DTYPES or (lengths != width).any():
        return None
    slots = values.compacted()[1]
    start = int(slots.offsets[0])
    return slots.data[start:start + len(lengths) * width].view(_KEY_DTYPES[width])


def _key_dictionary(t: pa.DataType, keys: np.ndarray) -> pa.Array:
    """The dictionary of type ``t`` whose values' bytes are ``keys``: the
    fixed-width values themselves, or equal-width strings/binaries."""
    odt = A.offset_dtype(t)
    if odt is None:
        return pa.Array.from_buffers(t, len(keys), [None, pa.py_buffer(keys)])
    offsets = np.arange(len(keys) + 1, dtype=odt) * keys.dtype.itemsize
    return pa.Array.from_buffers(
        t, len(keys), [None, pa.py_buffer(offsets), pa.py_buffer(keys)])


def _sort_dict_by_frequency(dictionary: pa.Array, indices: np.ndarray
                            ) -> tuple[pa.Array, np.ndarray]:
    """Reorder dictionary entries by descending frequency (ties by
    original order) and remap indices — hot values get small indices,
    which pack into fewer bits per RLE run (reference TODO,
    src/dictionary.js:133)."""
    counts = np.bincount(indices, minlength=len(dictionary))
    order = np.argsort(-counts, kind="stable")
    remap = np.empty(len(order), np.uint32)
    remap[order] = np.arange(len(order))
    return dictionary.take(pa.array(order)), remap[indices]


_DELTA_TYPES = (ParquetType.INT32, ParquetType.INT64)


def _smart_encoding(values: pa.Array, leaf: LeafInfo, n_slots: int) -> Encoding:
    """Extended auto-selection ('smart' mode): delta for integer columns with
    small deltas (sorted-ish ids/timestamps), delta-length for text,
    byte-stream-split for floats, RLE for booleans of more than 16 slots.
    Samples the first 1000 values — deterministic per chunk. Logs the
    choice and the rule that made it, once per chunk."""
    el = leaf.element
    if el.type in _DELTA_TYPES:
        sample = values.slice(0, DICT_SAMPLE)
        encoding = Encoding.PLAIN
        rule = f"max-delta rule: {len(sample)} sampled values, fewer than 8"
        if len(sample) >= 8:
            v = A.fixed_values(sample).astype(np.int64)
            deltas = np.abs(np.diff(v.astype(np.uint64)).view(np.int64))
            bits = int(np.max(deltas)).bit_length() if len(deltas) else 0
            width = FIXED_WIDTH[el.type] * 8
            small = bits + 8 < width
            if small:
                encoding = Encoding.DELTA_BINARY_PACKED
            rule = (f"max-delta rule: sampled max delta of {bits} bits + 8 "
                    f"{'<' if small else '>='} width {width}")
    elif el.type == ParquetType.BYTE_ARRAY:
        encoding, rule = Encoding.DELTA_LENGTH_BYTE_ARRAY, "byte-array rule"
    elif el.type in (ParquetType.FLOAT, ParquetType.DOUBLE):
        encoding, rule = Encoding.BYTE_STREAM_SPLIT, "float rule"
    elif el.type == ParquetType.BOOLEAN and n_slots > 16:
        encoding, rule = Encoding.RLE, "boolean rule: more than 16 slots"
    else:
        encoding, rule = Encoding.PLAIN, "PLAIN default"
    log.debug("smart encoding for column %s: %s (%s)", ".".join(leaf.path),
              encoding.name, rule)
    return encoding


def _boundary_order(pages: list[Stats]) -> int:
    """ASCENDING when no page that holds a value has a smaller min or max
    than the one before it, else DESCENDING when none has a larger one,
    else UNORDERED."""
    bounds = [(p.min_raw, p.max_raw) for p in pages if p.min_bytes is not None]
    steps = list(zip(bounds, bounds[1:]))
    if not any(b[0] < a[0] or b[1] < a[1] for a, b in steps):
        return int(BoundaryOrder.ASCENDING)
    if not any(b[0] > a[0] or b[1] > a[1] for a, b in steps):
        return int(BoundaryOrder.DESCENDING)
    return int(BoundaryOrder.UNORDERED)


def encode_chunk(
    col,
    leaf: LeafInfo,
    spec: ColumnSpec,
    opts: WriteOptions,
) -> tuple[memoryview, ChunkMeta]:
    """Encode one column chunk (one row group x one leaf column)."""
    lv, values = _prepare(col, leaf)
    el = leaf.element
    n_slots = len(lv.def_levels) if lv.def_levels is not None else lv.num_rows
    codec = spec.codec if spec.codec is not None else opts.codec

    w = BufWriter()
    encodings: list[int] = []
    enc_stats: list[tuple[int, int, int]] = []

    geo_stats = None
    if spec.geospatial and opts.statistics:
        from .geo import geospatial_statistics
        if el.type != ParquetType.BYTE_ARRAY:
            raise ValueError("geospatial stats require a BYTE_ARRAY (WKB) column")
        geo_stats = geospatial_statistics(values.compacted()[0].to_pylist())

    # FSST (opt-in, north-rule extension): train one symbol table per
    # chunk on a head sample of the value bytes; pages carry the table
    # inline and the chunk codec is recorded UNCOMPRESSED + marked via
    # key_value_metadata (not standard-parquet-readable; see core/fsst.py)
    fsst_table = None
    if spec.fsst:
        if el.type != ParquetType.BYTE_ARRAY:
            raise ValueError("fsst only supported for BYTE_ARRAY columns")
        if lv.max_rep or lv.max_def > 1:
            raise ValueError(
                "fsst is only supported on top-level (flat) BYTE_ARRAY "
                "columns: the hpw_fsst reader decodes flat pages only")
        if spec.encoding == Encoding.DELTA_BYTE_ARRAY:
            raise ValueError(
                "fsst is not supported on DELTA_BYTE_ARRAY pages: the "
                "hpw_fsst reader decodes PLAIN, DELTA_LENGTH_BYTE_ARRAY "
                "and dictionary pages only")
        from . import fsst as F
        sample = values.first(2000)[1].span()[:F.TRAIN_SAMPLE_BYTES].tobytes()  # all train reads
        fsst_table = F.train(sample)
        # every page carries the table inline: serialize it once
        fsst_header = fsst_table.serialize()
        log.debug("fsst table trained for column %s: %d sample bytes, %d "
                  "symbols", ".".join(leaf.path), len(sample),
                  len(fsst_table.symbols))
        codec = Codec.UNCOMPRESSED
    bloom = None
    if spec.bloom_filter:
        from .bloom import build_bloom
        bloom_opts = spec.bloom_filter if isinstance(spec.bloom_filter, dict) else {}
        bloom = build_bloom(values.arr, el, values.slots, **bloom_opts)

    # --- encoding decision -------------------------------------------------
    dictionary = idx_np_all = None
    enc = _try_dictionary(values, leaf, spec, opts)
    dictionary_page_offset: Optional[int] = None
    dict_uncomp = 0
    bit_width = 0
    if enc is not None:
        dictionary, idx_np_all = enc
        encoding = Encoding.RLE_DICTIONARY
        dictionary_page_offset = w.offset
        raw = _encode_values(dictionary, _Values(dictionary, leaf).slots, leaf, Encoding.PLAIN)[0]
        comp = compress(raw, codec, opts.compressors, opts.codec_level)
        write_dictionary_page_header(
            w, uncompressed_page_size=len(raw), compressed_page_size=len(comp),
            num_values=len(dictionary),
            crc=zlib.crc32(comp) if opts.page_crc else None,
        )
        w.write(comp)
        dict_uncomp = (w.offset - dictionary_page_offset) - len(comp) + len(raw)
        enc_stats.append((2, int(Encoding.PLAIN), 1))
        bit_width = bit_width_of(max(len(dictionary) - 1, 0))
    else:
        if spec.encoding is not None:
            encoding = spec.encoding
        elif opts.auto_codec == "smart":
            encoding = _smart_encoding(values.arr, leaf, n_slots)
        else:
            encoding = (
                Encoding.RLE
                if el.type == ParquetType.BOOLEAN and n_slots > 16
                else Encoding.PLAIN
            )
    encodings.append(int(encoding))
    # DELTA_BYTE_ARRAY pages are slices of the compacted values
    arr, slots = values.compacted() if encoding == Encoding.DELTA_BYTE_ARRAY else \
        (values.arr, values.slots)

    # --- page loop ---------------------------------------------------------
    # dictionary chunks write RLE index runs, not raw values: size pages
    # from the index width or a repetitive 1 GB byte-array column would
    # split into thousands of near-empty pages (each paying a header,
    # statistics, and column/offset-index entries)
    dict_value_size = max(bit_width, 1) / 8.0 if idx_np_all is not None else None
    bounds = _page_bounds(lv, values, leaf, n_slots, opts.page_size, dict_value_size)
    data_page_offset = w.offset
    col_index = ColumnIndexData() if spec.column_index and len(bounds) > 1 else None
    off_index = [] if spec.offset_index and len(bounds) > 1 else None
    # a page's statistics, for the column index or, where the page's
    # own pass found its bounds, for the chunk's
    page_stats: list[Stats] = []
    uncomp_acc = dict_uncomp
    def_bw = bit_width_of(lv.max_def)
    rep_bw = bit_width_of(lv.max_rep)
    # the rows before each slot (a page's num_rows, its first_row_index)
    row_cum = range(n_slots + 1) if lv.rep_levels is None else \
        np.concatenate([[0], np.cumsum(lv.rep_levels == 0, dtype=np.int64)])
    # a page's values: by slot where there is one entry per slot (a leaf
    # that keeps its slots, or one with a value in every slot), else by value
    by_slot = len(arr) == n_slots
    # one buffer for every PLAIN or DELTA_LENGTH byte-array page:
    # codecs, FSST and BufWriter.write all copy out of it
    page_buf = None
    reuse = el.type == ParquetType.BYTE_ARRAY and encoding in (
        Encoding.PLAIN, Encoding.DELTA_LENGTH_BYTE_ARRAY)

    for (s0, s1) in bounds:
        page_start = w.offset
        nslots = s1 - s0
        v0, v1 = int(values.vcum[s0]), int(values.vcum[s1])
        num_nulls = nslots - (v1 - v0)
        # the page's values and a slice of the chunk's checked slots
        a, b, nulls = (s0, s1, num_nulls) if by_slot else (v0, v1, 0)
        page = arr.slice(a, b - a)
        page_slots = slots and slots.slice(a, b, nulls)

        lvl = BufWriter()
        rep_len = 0
        if lv.rep_levels is not None:
            rep_len = encode_rle_hybrid(lvl, lv.rep_levels[s0:s1], rep_bw)
        def_len = 0
        if lv.def_levels is not None:
            if lv.null_count == 0 and nslots >= 8:
                # no nulls: the levels are one run, as the encoder would write
                def_len = write_rle_run(lvl, lv.max_def, nslots, def_bw)
            else:
                def_len = encode_rle_hybrid(lvl, lv.def_levels[s0:s1], def_bw)

        if idx_np_all is not None:
            body = BufWriter()
            body.u8(bit_width)
            encode_rle_hybrid(body, idx_np_all[v0:v1], bit_width)
            raw, slot_bounds = body.view(), None
        else:
            raw, slot_bounds = _encode_values(page, page_slots, leaf, encoding, page_buf)
            if reuse:
                page_buf = raw.obj

        if fsst_table is not None:
            from . import fsst as F
            comp = (fsst_header, F.compress(raw, fsst_table))
        else:
            comp = (compress(raw, codec, opts.compressors, opts.codec_level),)
        comp_len = sum(map(len, comp))
        lvl_bytes = lvl.view()
        crc = None
        if opts.page_crc:
            # spec: V2 page CRC covers the page as written after the
            # header — uncompressed level runs then compressed values
            crc = zlib.crc32(lvl_bytes)
            for part in comp:
                crc = zlib.crc32(part, crc)
        write_data_page_v2_header(
            w,
            uncompressed_page_size=lvl.offset + len(raw),
            compressed_page_size=lvl.offset + comp_len,
            num_values=nslots,
            num_nulls=num_nulls,
            num_rows=int(row_cum[s1] - row_cum[s0]),
            encoding=encoding,
            definition_levels_byte_length=def_len,
            repetition_levels_byte_length=rep_len,
            is_compressed=codec != Codec.UNCOMPRESSED or fsst_table is not None,
            crc=crc,
        )
        w.write(lvl_bytes)
        for part in comp:
            w.write(part)
        uncomp_acc += (w.offset - page_start) - comp_len + len(raw)

        if col_index is not None or (
                slot_bounds is not None and opts.statistics and not spec.geospatial):
            pstats = compute_statistics(page, el, null_count=num_nulls) if slot_bounds is None \
                else slot_statistics(page_slots, slot_bounds, arr.type, el, num_nulls)
            page_stats.append(pstats)
        if col_index is not None:
            col_index.null_pages.append(pstats.min_bytes is None)
            col_index.min_values.append(pstats.min_bytes or b"")
            col_index.max_values.append(pstats.max_bytes or b"")
            col_index.null_counts.append(pstats.null_count)
        if off_index is not None:
            off_index.append(PageLocation(rel_offset=page_start,
                                          compressed_page_size=w.offset - page_start,
                                          first_row_index=int(row_cum[s0])))

    if col_index is not None:
        col_index.boundary_order = _boundary_order(page_stats)
    # chunk statistics, once, from the cheapest exact source
    # (core/statistics.py)
    stats = None
    if opts.statistics:
        enc_stats.append((3, int(encoding), len(bounds)))
        if spec.geospatial:
            # parquet spec: geometry columns carry no byte min/max
            stats = Stats(None, None, lv.null_count, None, None)
        elif len(page_stats) == len(bounds):
            stats = fold_statistics(page_stats, arr.type, el, lv.null_count)
        else:
            stats = compute_statistics(
                dictionary if dictionary is not None else arr,
                el, null_count=lv.null_count,
            )

    blob = w.view()
    meta = ChunkMeta(
        path=leaf.path,
        ptype=int(el.type),
        encodings=encodings,
        codec=int(codec),
        num_values=n_slots,
        total_compressed_size=len(blob),
        total_uncompressed_size=uncomp_acc,
        data_page_offset=data_page_offset,
        dictionary_page_offset=dictionary_page_offset,
        stats=stats,
        encoding_stats=enc_stats if opts.statistics else None,
        column_index=col_index,
        offset_index=off_index,
        bloom=bloom,
        kv_metadata=[("hpw_fsst", "1")] if fsst_table is not None else None,
        geo_stats=geo_stats,
    )
    return blob, meta
