"""Minimal parquet reader: the package's one footer parse and column
resolver, and a column decoder for formats generic readers can't
decode: FSST-compressed BYTE_ARRAY chunks (and a plain/delta-length
decode path used by tests as an extra byte-level oracle).

Not a general reader — pyarrow/duckdb are the oracles for standard
output; this covers the hpw_fsst extension (core/fsst.py).
"""
from __future__ import annotations

import io

import numpy as np

from .compress import decompress as codec_decompress
from .fsst import decode_fsst_page
from .thrift import CompactReader
from .types import Codec, Encoding, iter_dfs_leaves


def read_footer(f) -> dict:
    """Parsed FileMetaData struct of the parquet file open as the
    seekable binary handle ``f``; reads only the footer's bytes."""
    f.seek(0, 2)
    size = f.tell()
    f.seek(max(size - 8, 0))
    tail = f.read(8)
    if tail[4:] != b"PAR1":
        raise ValueError("not a parquet file: no trailing PAR1")
    flen = int.from_bytes(tail[:4], "little")
    f.seek(size - 8 - flen)
    return CompactReader(f.read(flen)).read_struct()


def top_level_leaf(schema, column: str) -> tuple:
    """(chunk ordinal, physical type, type_length) of the TOP-LEVEL
    primitive column named ``column`` in a footer's flat ``schema``
    list. Column chunks are ordered by DFS leaf order, but the name
    resolves only among direct children of the root: a nested leaf
    sharing a bare name (a struct field, a map's 'value') must neither
    shadow the column nor shift its chunk ordinal. Raises ``KeyError``
    for a missing or ambiguous name."""
    hits = [(i, el) for i, el, top in iter_dfs_leaves(
                schema[0].get(5),
                ((e, e.get(5), e.get(1) is not None and not e.get(5))
                 for e in schema[1:]))
            if top and el[4].decode() == column]
    if not hits:
        raise KeyError(f"no top-level primitive column named {column!r}")
    if len(hits) > 1:
        raise KeyError(f"ambiguous column name {column!r}")
    i, el = hits[0]
    return i, el[1], el.get(2)


def decode_rle_hybrid(data, bit_width: int, count: int) -> np.ndarray:
    out = np.empty(count, dtype=np.uint32)
    pos = 0
    filled = 0
    nbytes = (bit_width + 7) >> 3
    mv = memoryview(data)
    while filled < count:
        r = CompactReader(mv, pos)
        header = r.varint()
        pos = r.pos
        if header & 1:
            groups = header >> 1
            nb = groups * bit_width
            if bit_width == 0:
                # a 1-entry dictionary packs at width 0: the run carries
                # groups*8 implicit zeros and NO payload bytes (without
                # this the loop would make no progress and read past the
                # buffer)
                decoded = np.zeros(groups * 8, dtype=np.uint32)
            else:
                bits = np.unpackbits(
                    np.frombuffer(mv[pos : pos + nb], np.uint8),
                    bitorder="little",
                )
                decoded = (bits.reshape(-1, bit_width) *
                           (1 << np.arange(bit_width, dtype=np.uint32))
                           ).sum(axis=1).astype(np.uint32)
            take = min(len(decoded), count - filled)
            out[filled : filled + take] = decoded[:take]
            filled += take
            pos += nb
        else:
            run = header >> 1
            v = int.from_bytes(bytes(mv[pos : pos + nbytes]), "little") if nbytes else 0
            pos += nbytes
            take = min(run, count - filled)
            out[filled : filled + take] = v
            filled += take
    return out


def decode_delta_binary_packed(data, pos: int = 0) -> tuple[np.ndarray, int]:
    r = CompactReader(data, pos)
    block = r.varint()
    minis = r.varint()
    count = r.varint()
    if count == 0:
        r.varint()
        return np.empty(0, np.int64), r.pos
    first = r.zigzag()
    out = np.empty(count, dtype=np.int64)
    out[0] = first
    mb_values = block // minis
    idx = 1
    while idx < count:
        min_delta = r.zigzag()
        bws = [r.data[r.pos + i] for i in range(minis)]
        r.pos += minis
        for m in range(minis):
            if idx >= count:
                break
            bw = bws[m]
            if bw == 0:
                deltas = np.zeros(mb_values, dtype=np.uint64)
            else:
                nb = mb_values * bw // 8
                bits = np.unpackbits(
                    np.frombuffer(r.data[r.pos : r.pos + nb], np.uint8),
                    bitorder="little",
                )
                weights = (1 << np.arange(bw, dtype=np.uint64))
                deltas = (bits.reshape(-1, bw) * weights).sum(axis=1)
                r.pos += nb
            take = min(mb_values, count - idx)
            vals = (deltas[:take].astype(np.uint64) + np.uint64(min_delta & 0xFFFFFFFFFFFFFFFF))
            out[idx : idx + take] = (
                out[idx - 1] + np.cumsum(vals.view(np.int64))
            )
            idx += take
    return out, r.pos


def _decode_byte_array_body(body, encoding: int, num_values: int) -> list[bytes]:
    mv = memoryview(body)
    if encoding == Encoding.PLAIN:
        out = []
        pos = 0
        for _ in range(num_values):
            ln = int.from_bytes(mv[pos : pos + 4], "little")
            pos += 4
            out.append(bytes(mv[pos : pos + ln]))
            pos += ln
        return out
    if encoding == Encoding.DELTA_LENGTH_BYTE_ARRAY:
        lengths, pos = decode_delta_binary_packed(mv)
        out = []
        for ln in lengths:
            out.append(bytes(mv[pos : pos + int(ln)]))
            pos += int(ln)
        return out
    raise NotImplementedError(f"reader: encoding {encoding}")


def read_byte_array_column(buf: bytes, column: str) -> list:
    """Decode the top-level BYTE_ARRAY column ``column`` (all row
    groups) of the file ``buf``, including FSST-marked chunks. Returns
    python values with None for nulls."""
    footer = read_footer(io.BytesIO(buf))
    col_idx = top_level_leaf(footer[2], column)[0]
    values: list = []
    for rg in footer[4]:
        chunk = rg[1][col_idx]
        md = chunk[3]
        codec = md[4]
        kv = {e[1].decode(): e[2].decode() for e in md.get(8, [])}
        is_fsst = kv.get("hpw_fsst") == "1"
        pos = md.get(11) or md[9]  # dictionary page first if present
        end = pos + md[7]
        dictionary = None
        mv = memoryview(buf)
        while pos < end:
            r = CompactReader(mv, pos)
            header = r.read_struct()
            page_type = header[1]
            comp_size = header[3]
            data_start = r.pos
            if page_type == 2:  # dictionary page
                raw = codec_decompress(
                    bytes(mv[data_start : data_start + comp_size]), Codec(codec), header[2]
                )
                dictionary = _decode_byte_array_body(raw, Encoding.PLAIN, header[7][1])
                pos = data_start + comp_size
                continue
            assert page_type == 3, f"unexpected page type {page_type}"
            h2 = header[8]
            num_vals, num_nulls, _num_rows = h2[1], h2[2], h2[3]
            enc = h2[4]
            def_len, rep_len = h2[5], h2[6]
            levels_end = data_start + rep_len + def_len
            body_comp = mv[levels_end : data_start + comp_size]
            if is_fsst:
                body = decode_fsst_page(body_comp)
            else:
                body = codec_decompress(
                    bytes(body_comp), Codec(codec), header[2] - rep_len - def_len
                )
            n_present = num_vals - num_nulls
            if enc == Encoding.RLE_DICTIONARY:
                bw = body[0]
                idxs = decode_rle_hybrid(memoryview(body)[1:], bw, n_present)
                present = [dictionary[i] for i in idxs]
            else:
                present = _decode_byte_array_body(body, enc, n_present)
            if def_len:
                defs = decode_rle_hybrid(
                    mv[data_start + rep_len : levels_end], 1, num_vals
                )
                it = iter(present)
                values.extend(next(it) if d else None for d in defs)
            else:
                values.extend(present)
            pos = data_start + comp_size
    return values
