"""Growable little-endian byte sink (reference: src/bytewriter.js:10-175).

``offset`` is the total number of bytes written; all encoders append here
and record offsets *relative* to their own start so chunks stay
relocatable (SURVEY.md §7.0 invariant 1).
"""
from __future__ import annotations

import struct


class BufWriter:
    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def offset(self) -> int:
        return len(self._buf)

    def u8(self, v: int) -> None:
        self._buf.append(v & 0xFF)

    def u32(self, v: int) -> None:
        self._buf += struct.pack("<I", v & 0xFFFFFFFF)

    def f64(self, v: float) -> None:
        self._buf += struct.pack("<d", v)

    def write(self, data) -> None:
        self._buf.extend(data)  # any buffer's bytes (an ndarray's ``+=`` adds)

    # -- varint / zigzag (ULEB128) --------------------------------------
    def varint(self, v: int) -> None:
        if v < 0:
            raise ValueError("varint requires non-negative value")
        buf = self._buf
        while v >= 0x80:
            buf.append((v & 0x7F) | 0x80)
            v >>= 7
        buf.append(v)

    def zigzag(self, v: int) -> None:
        self.varint((v << 1) ^ (v >> 63) if v < 0 else v << 1)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def view(self) -> memoryview:
        return memoryview(self._buf)
