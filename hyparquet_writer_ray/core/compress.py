"""Page compression codec registry.

Built-ins go through pyarrow's C codecs (raw block formats, exactly what
parquet pages need). Users may register extra codecs per the reference's
``compressors`` plug-in map (src/types.d.ts:3-4): a callable
``bytes -> bytes`` keyed by codec name. Pages arrive as views of the
page body; only a plug-in is handed a ``bytes`` copy. A built-in
codec's output is returned as a view of pyarrow's buffer, not copied
into ``bytes``.
"""
from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa

from .types import Codec

_PA_NAME = {
    Codec.SNAPPY: "snappy",
    Codec.GZIP: "gzip",
    Codec.BROTLI: "brotli",
    Codec.LZ4_RAW: "lz4_raw",
    Codec.ZSTD: "zstd",
}

_codec_cache: dict[tuple, pa.Codec] = {}


def _codec(codec: Codec, level: Optional[int] = None) -> pa.Codec:
    """pyarrow's codec for ``codec`` at ``level``, built once per process
    and shared by both directions."""
    key = (codec, level)
    if key not in _codec_cache:
        _codec_cache[key] = pa.Codec(_PA_NAME[codec], compression_level=level)
    return _codec_cache[key]


def compress(data: "bytes | memoryview", codec: Codec,
             compressors: Optional[dict[str, Callable[[bytes], bytes]]] = None,
             level: Optional[int] = None) -> "bytes | memoryview":
    if codec == Codec.UNCOMPRESSED:
        return data
    if compressors and codec.name in compressors:
        return compressors[codec.name](bytes(data))
    if codec not in _PA_NAME:
        raise ValueError(f"no compressor for codec {codec.name}")
    buf = _codec(codec, level).compress(data, asbytes=False)
    # a pyarrow buffer's own memoryview has signed items and its capacity
    # as its shape: cast to bytes and trimmed, its len is the output's
    return memoryview(buf).cast("B")[:buf.size]


def decompress(data: bytes, codec: Codec, uncompressed_size: int,
               decompressors: Optional[dict[str, Callable[[bytes, int], bytes]]] = None) -> bytes:
    """Inverse of :func:`compress`. ``decompressors`` mirrors the
    ``compressors`` plug-in map: ``name -> fn(data, uncompressed_size)``
    for codecs pyarrow has no block decoder for (e.g. legacy
    hadoop-framed LZ4) or for overridden built-ins."""
    if codec == Codec.UNCOMPRESSED:
        return data
    if decompressors and codec.name in decompressors:
        return decompressors[codec.name](data, uncompressed_size)
    if codec not in _PA_NAME:
        raise ValueError(
            f"no decompressor for codec {codec.name}: a file written "
            f"through the compressors plug-in map needs a matching "
            f"entry in decompressors")
    return _codec(codec).decompress(data, uncompressed_size, asbytes=True)
