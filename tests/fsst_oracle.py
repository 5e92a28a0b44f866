"""A frozen FSST page decoder, sharing no code with ``core.fsst`` or
``core.reader``: the oracle the writer's FSST pages are read back with.

An FSST page body is the symbol table (one byte giving the symbol
count, then each symbol as one length byte and its bytes) followed by
the codes: a code below 255 stands for its symbol, 255 escapes the byte
after it. The decoded body is the PLAIN BYTE_ARRAY layout of the page's
non-null values (a u32 little-endian length, then the bytes).

:func:`read_fsst_column` walks every page of one column with its own
Thrift compact-protocol reader; pyarrow's footer parse supplies only
where each column chunk starts and how long it is."""
from __future__ import annotations

import io
import struct

import pyarrow.parquet as pq

ESCAPE = 255


def decode_page(page) -> tuple[bytes, int]:
    """The decoded bytes of one FSST page body and its escape count."""
    page = bytes(page)
    nsym, pos = page[0], 1
    symbols = []
    for _ in range(nsym):
        size = page[pos]
        symbols.append(page[pos + 1:pos + 1 + size])
        pos += 1 + size
    out = bytearray()
    escapes = 0
    while pos < len(page):
        code = page[pos]
        if code == ESCAPE:
            out.append(page[pos + 1])
            escapes += 1
            pos += 2
        else:
            out += symbols[code]
            pos += 1
    return bytes(out), escapes


def _varint(b: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        byte = b[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, pos


def _zigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _value(b: bytes, pos: int, kind: int, in_list: bool = False):
    if kind in (1, 2):  # a struct field's bool is in its type nibble
        if in_list:
            return b[pos] == 1, pos + 1
        return kind == 1, pos
    if kind == 3:
        return b[pos], pos + 1
    if kind in (4, 5, 6):
        v, pos = _varint(b, pos)
        return _zigzag(v), pos
    if kind == 7:
        return struct.unpack_from("<d", b, pos)[0], pos + 8
    if kind == 8:
        size, pos = _varint(b, pos)
        return b[pos:pos + size], pos + size
    if kind in (9, 10):
        head = b[pos]
        pos += 1
        count, elem = head >> 4, head & 0x0F
        if count == 15:
            count, pos = _varint(b, pos)
        items = []
        for _ in range(count):
            item, pos = _value(b, pos, elem, in_list=True)
            items.append(item)
        return items, pos
    if kind == 12:
        return _struct(b, pos)
    raise ValueError(f"thrift type {kind} is not in a page header")


def _struct(b: bytes, pos: int) -> tuple[dict, int]:
    fields, last = {}, 0
    while True:
        head = b[pos]
        pos += 1
        if head == 0:
            return fields, pos
        delta, kind = head >> 4, head & 0x0F
        if delta:
            fid = last + delta
        else:
            raw, pos = _varint(b, pos)
            fid = _zigzag(raw)
        fields[fid], pos = _value(b, pos, kind)
        last = fid


def _plain_values(body: bytes) -> list[bytes]:
    out, pos = [], 0
    while pos < len(body):
        (size,) = struct.unpack_from("<I", body, pos)
        out.append(body[pos + 4:pos + 4 + size])
        pos += 4 + size
    return out


def read_fsst_column(buf: bytes, column: str) -> tuple[list[bytes], int, int, int]:
    """The non-null values of the flat FSST column ``column`` of the
    parquet file ``buf``, in order, with the page count, the null count
    the page headers declare and the escapes in their codes. Every page
    must be a v2 data page of PLAIN values."""
    md = pq.ParquetFile(io.BytesIO(buf)).metadata
    col = md.schema.names.index(column)
    values, pages, nulls, escapes = [], 0, 0, 0
    for g in range(md.num_row_groups):
        cc = md.row_group(g).column(col)
        pos = cc.data_page_offset
        end = pos + cc.total_compressed_size
        while pos < end:
            header, pos = _struct(buf, pos)
            v2 = header.get(8)
            if header[1] != 3 or v2 is None or v2[4] != 0:
                raise ValueError(f"page at {pos} is not a PLAIN v2 data page")
            levels = v2[5] + v2[6]  # definition + repetition level bytes
            body, n_escapes = decode_page(buf[pos + levels:pos + header[3]])
            page_values = _plain_values(body)
            if len(page_values) != v2[1] - v2[2]:
                raise ValueError(f"page at {pos}: {len(page_values)} values, header "
                                 f"says {v2[1] - v2[2]}")
            values += page_values
            pages += 1
            nulls += v2[2]
            escapes += n_escapes
            pos += header[3]
    return values, pages, nulls, escapes
