"""Thrift TCompactProtocol serialization (and a reader for tests).

Wire format per the Thrift compact protocol spec as used by Parquet
(reference behavior: src/thrift.js:26-149). Structs are represented as
``dict[int, value]`` keyed by field id; Python types map to compact
types as: bool→TRUE/FALSE, int→I32, I64(v)→I64, float→DOUBLE,
bytes/str→BINARY, list→LIST, dict→STRUCT. Bools inside lists are
written as single bytes 1/0 (matches the reference and is accepted by
Thrift C++/Java readers, which compare against CT_BOOLEAN_TRUE == 1).
"""
from __future__ import annotations

import struct

from .bufwriter import BufWriter

STOP = 0
CT_TRUE = 1
CT_FALSE = 2
CT_BYTE = 3
CT_I16 = 4
CT_I32 = 5
CT_I64 = 6
CT_DOUBLE = 7
CT_BINARY = 8
CT_LIST = 9
CT_STRUCT = 12


class I64(int):
    """Marker for a value that must be written as thrift i64."""

    __slots__ = ()


class Byte(int):
    """Marker for a value that must be written as thrift byte."""

    __slots__ = ()


class I16(int):
    """Marker for a value that must be written as thrift i16."""

    __slots__ = ()


def _compact_type(value) -> int:
    if value is True:
        return CT_TRUE
    if value is False:
        return CT_FALSE
    if isinstance(value, I64):
        return CT_I64
    if isinstance(value, Byte):
        return CT_BYTE
    if isinstance(value, I16):
        return CT_I16
    if isinstance(value, int):
        return CT_I32
    if isinstance(value, float):
        return CT_DOUBLE
    if isinstance(value, (bytes, bytearray, memoryview, str)):
        return CT_BINARY
    if isinstance(value, list):
        return CT_LIST
    if isinstance(value, dict):
        return CT_STRUCT
    raise TypeError(f"cannot determine thrift compact type for {value!r}")


def _list_elem_type(items: list) -> int:
    elem = 0
    for v in items:
        t = _compact_type(v)
        if t == CT_TRUE:
            t = CT_FALSE  # bools in lists share one type code
        if not elem:
            elem = t
        elif t != elem:
            raise TypeError(f"mixed thrift list element types: {t} vs {elem}")
    return elem or CT_BYTE


def _write_value(w: BufWriter, ctype: int, value) -> None:
    if ctype in (CT_TRUE, CT_FALSE):
        return  # encoded in the field header
    if ctype == CT_BYTE:
        w.u8(int(value))
    elif ctype in (CT_I16, CT_I32, CT_I64):
        w.zigzag(int(value))
    elif ctype == CT_DOUBLE:
        w.f64(float(value))
    elif ctype == CT_BINARY:
        data = value.encode("utf-8") if isinstance(value, str) else value
        w.varint(len(data))
        w.write(data)
    elif ctype == CT_LIST:
        elem = _list_elem_type(value)
        if len(value) > 14:
            w.u8(0xF0 | elem)
            w.varint(len(value))
        else:
            w.u8((len(value) << 4) | elem)
        if elem == CT_FALSE:
            for v in value:
                w.u8(1 if v else 0)
        else:
            for v in value:
                _write_value(w, elem, v)
    elif ctype == CT_STRUCT:
        write_struct(w, value)
    else:
        raise TypeError(f"bad thrift compact type {ctype}")


def write_struct(w: BufWriter, fields: dict[int, object]) -> None:
    """Write one struct: fields keyed by field id; None values skipped."""
    last_fid = 0
    for fid in sorted(fields):
        value = fields[fid]
        if value is None:
            continue
        ctype = _compact_type(value)
        delta = fid - last_fid
        if 0 < delta <= 15:
            w.u8((delta << 4) | ctype)
        else:
            w.u8(ctype)
            w.zigzag(fid)
        _write_value(w, ctype, value)
        last_fid = fid
    w.u8(STOP)


def serialize(fields: dict[int, object]) -> bytes:
    w = BufWriter()
    write_struct(w, fields)
    return w.getvalue()


# ---------------------------------------------------------------------------
# Compact-protocol reader (used by tests and the lineage/inspection tools to
# independently decode our own footers, page indexes, and bloom headers).
# ---------------------------------------------------------------------------


class CompactReader:
    def __init__(self, data, pos: int = 0) -> None:
        self.data = memoryview(data)
        self.pos = pos

    def varint(self) -> int:
        result = shift = 0
        while True:
            b = self.data[self.pos]
            self.pos += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7

    def zigzag(self) -> int:
        n = self.varint()
        return (n >> 1) ^ -(n & 1)

    def read_value(self, ctype: int):
        if ctype == CT_TRUE:
            return True
        if ctype == CT_FALSE:
            return False
        if ctype == CT_BYTE:
            b = self.data[self.pos]
            self.pos += 1
            return b
        if ctype in (CT_I16, CT_I32, CT_I64):
            return self.zigzag()
        if ctype == CT_DOUBLE:
            (v,) = struct.unpack_from("<d", self.data, self.pos)
            self.pos += 8
            return v
        if ctype == CT_BINARY:
            n = self.varint()
            v = bytes(self.data[self.pos : self.pos + n])
            self.pos += n
            return v
        if ctype == CT_LIST:
            header = self.data[self.pos]
            self.pos += 1
            size = header >> 4
            elem = header & 0x0F
            if size == 15:
                size = self.varint()
            if elem in (CT_TRUE, CT_FALSE):
                out = []
                for _ in range(size):
                    out.append(self.data[self.pos] == 1)
                    self.pos += 1
                return out
            return [self.read_value(elem) for _ in range(size)]
        if ctype == CT_STRUCT:
            return self.read_struct()
        raise ValueError(f"bad compact type {ctype}")

    def read_struct(self) -> dict[int, object]:
        out: dict[int, object] = {}
        last_fid = 0
        while True:
            header = self.data[self.pos]
            self.pos += 1
            if header == STOP:
                return out
            ctype = header & 0x0F
            delta = header >> 4
            fid = last_fid + delta if delta else self.zigzag()
            out[fid] = self.read_value(ctype)
            last_fid = fid
