"""Optional compiled FSST scan kernel.

Greedy longest-match FSST encode/decode is an inherently sequential
byte-chase; a ~60-line C kernel runs it at hundreds of MB/s where any
Python-level scan (regex or numpy passes) tops out at tens. The kernel
is compiled ON DEMAND with the system C compiler into a per-user cache
dir and loaded via ctypes; when no compiler is available the caller
falls back to the pure-Python paths in :mod:`fsst` — output semantics
are identical (same greedy longest-match parse).
"""
from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile

import numpy as np

_C_SRC = r"""
#include <stdint.h>
#include <string.h>

/* Greedy longest-match parse, identical to the Python paths, but with
   O(1)-ish dispatch: symbols of length >= 3 live in CONTIGUOUS
   per-bucket runs keyed by their FIRST TWO BYTES, each run in priority
   order (longest first, code ascending — at any position only one
   2-byte prefix group can match, so per-run order equals the global
   greedy order) and terminated by a `last` flag; candidates compare as
   a single u64 masked load, and the linear run avoids the pointer-
   chase of a chained layout (~1.8x measured). Length-2 symbols sit in
   a direct 65536-entry table probed AFTER the run (they are the unique
   shortest in their bucket, so greedy priority is preserved) — buckets
   holding only a 2-gram skip the run walk entirely. Length-1 symbols
   sit in a 256-entry direct table. The caller guarantees 8 readable
   bytes past data+n (zero padding); the `len <= rem` guard keeps
   padding from ever matching. */
typedef struct { uint64_t val; uint64_t mask; uint8_t code; uint8_t len; uint8_t last; uint8_t pad; } Cand;

size_t fsst_compress(const uint8_t* data, size_t n,
                     const uint8_t* sym_bytes /* 255*8, zero padded */,
                     const uint8_t* sym_len, int nsym, uint8_t* out) {
    static _Thread_local int16_t head[65536];
    static _Thread_local int16_t code2[65536];
    static _Thread_local Cand pool[255];
    uint8_t code1[256];
    memset(head, 0xFF, sizeof head);
    memset(code2, 0xFF, sizeof code2);
    memset(code1, 0xFF, sizeof code1);
    /* global priority order of the len>=3 symbols (runs); len==2 go to
       the direct table (symbols are distinct so at most one per f2) */
    int order[255]; int m = 0;
    for (int L = 8; L >= 3; L--)
        for (int c = 0; c < nsym; c++)
            if (sym_len[c] == L) order[m++] = c;
    for (int c = 0; c < nsym; c++)
        if (sym_len[c] == 2) {
            uint16_t f2 = (uint16_t)(sym_bytes[c * 8] | (sym_bytes[c * 8 + 1] << 8));
            if (code2[f2] < 0) code2[f2] = (int16_t)c;
        }
    /* group into contiguous bucket runs, preserving priority order
       within each run (O(m^2) over <=255 symbols — negligible) */
    uint8_t placed[255]; memset(placed, 0, sizeof placed);
    int pos = 0;
    for (int i = 0; i < m; i++) {
        if (placed[i]) continue;
        uint64_t raw0; memcpy(&raw0, sym_bytes + order[i] * 8, 8);
        uint16_t f2 = (uint16_t)(raw0 & 0xFFFF);
        head[f2] = (int16_t)pos;
        int lastpos = pos;
        for (int j = i; j < m; j++) {
            if (placed[j]) continue;
            int c = order[j];
            uint64_t raw; memcpy(&raw, sym_bytes + c * 8, 8);
            if ((uint16_t)(raw & 0xFFFF) != f2) continue;
            int L = sym_len[c];
            uint64_t mask = (L == 8) ? ~0ULL : ((1ULL << (8 * L)) - 1);
            pool[pos].val = raw & mask; pool[pos].mask = mask;
            pool[pos].code = (uint8_t)c; pool[pos].len = (uint8_t)L; pool[pos].last = 0;
            lastpos = pos; pos++; placed[j] = 1;
        }
        pool[lastpos].last = 1;
    }
    for (int c = 0; c < nsym; c++)
        if (sym_len[c] == 1 && code1[sym_bytes[c * 8]] == 0xFF)
            code1[sym_bytes[c * 8]] = (uint8_t)c;
    size_t o = 0, p = 0;
    while (p < n) {
        size_t rem = n - p;
        uint64_t word; memcpy(&word, data + p, 8);
        if (rem >= 2) {
            uint16_t f2 = (uint16_t)(word & 0xFFFF);
            int16_t i = head[f2];
            if (i >= 0) {
                const Cand* cd = &pool[i];
                for (;;) {
                    if (cd->len <= rem && (word & cd->mask) == cd->val) {
                        out[o++] = cd->code;
                        p += cd->len;
                        goto matched;
                    }
                    if (cd->last) break;
                    cd++;
                }
            }
            int16_t c2 = code2[f2];
            if (c2 >= 0) {
                out[o++] = (uint8_t)c2;
                p += 2;
                goto matched;
            }
        }
        {
            uint8_t b0 = (uint8_t)word;
            if (code1[b0] != 0xFF) {
                out[o++] = code1[b0];
                p++;
            } else {
                out[o++] = 255;          /* ESCAPE */
                out[o++] = b0;
                p++;
            }
        }
      matched: ;
    }
    return o;
}

size_t fsst_decompress(const uint8_t* codes, size_t n,
                       const uint8_t* sym_bytes, const uint8_t* sym_len,
                       uint8_t* out) {
    size_t o = 0, i = 0;
    while (i < n) {
        uint8_t c = codes[i];
        if (c == 255) {
            if (i + 1 >= n) return (size_t)-1;  /* truncated escape */
            out[o++] = codes[i + 1];
            i += 2;
        } else {
            uint8_t L = sym_len[c];
            memcpy(out + o, sym_bytes + c * 8, 8);  /* overshoot is fine: cap has slack */
            o += L;
            i += 1;
        }
    }
    return o;
}
"""

_lib = None
_tried = False


def _build() -> "ctypes.CDLL | None":
    if __import__("sys").byteorder != "little":
        # the kernel's masked u64 loads assume little-endian layout
        return None
    uid = getattr(os, "getuid", lambda: 0)()  # no getuid on Windows
    cache = os.path.join(tempfile.gettempdir(), f"hpw_fsst_kernel_{uid}")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    try:
        st = os.stat(cache)
        if (hasattr(os, "getuid") and st.st_uid != os.getuid()) or \
                (st.st_mode & 0o022):
            # a pre-existing world/group-writable or foreign-owned dir
            # under /tmp could be .so-planted; never load from it
            return None
    except OSError:
        return None
    so = os.path.join(cache, "fsst_kernel_v6.so")
    if not os.path.exists(so):
        src = os.path.join(cache, "fsst_kernel.c")
        # the one builtin open outside state/fsio: cc reads this source
        # and ctypes loads the .so from local disk, never from a store
        with open(src, "w") as f:
            f.write(_C_SRC)
        tmp = so + f".build{os.getpid()}"
        try:
            subprocess.run(
                ["cc", "-O3", "-shared", "-fPIC", "-o", tmp, src],
                check=True, capture_output=True, timeout=60,
            )
            os.replace(tmp, so)  # atomic: concurrent workers race safely
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(so)
    except OSError:
        return None
    lib.fsst_compress.restype = ctypes.c_size_t
    lib.fsst_compress.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int,
        ctypes.c_void_p,
    ]
    lib.fsst_decompress.restype = ctypes.c_size_t
    lib.fsst_decompress.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.c_char_p, ctypes.c_char_p,
        ctypes.c_char_p,
    ]
    return lib


def get_kernel():
    """The loaded kernel library, or None if no C compiler works here."""
    global _lib, _tried
    if not _tried:
        _tried = True
        _lib = _build()
    return _lib


def _packed(table) -> tuple[bytes, bytes, int]:
    packed = getattr(table, "_packed", None)
    if packed is None:
        nsym = len(table.symbols)
        if nsym > 255:
            raise ValueError(f"FSST table has {nsym} symbols (max 255)")
        sb = bytearray(255 * 8)
        sl = bytearray(255)
        for i, s in enumerate(table.symbols):
            if not 1 <= len(s) <= 8:
                # the kernels assume 8-byte slots; an oversized symbol
                # would heap-overflow fsst_decompress's output buffer
                raise ValueError(
                    f"FSST symbol length {len(s)} outside 1..8")
            sb[i * 8 : i * 8 + len(s)] = s
            sl[i] = len(s)
        packed = (bytes(sb), bytes(sl), nsym)
        table._packed = packed
    return packed


def compress(data: "bytes | bytearray | memoryview", table) -> "bytes | None":
    lib = get_kernel()
    if lib is None:
        return None
    sb, sl, nsym = _packed(table)
    src = np.frombuffer(data, dtype=np.uint8)
    n = src.size
    # one copy, into a buffer whose 8 zero bytes of slack let the kernel
    # read a full u64 at the tail (a view's next bytes could be anything)
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = src
    out = np.empty(2 * n + 8, dtype=np.uint8)  # worst case: all escapes
    m = lib.fsst_compress(padded.ctypes.data, n, sb, sl, nsym, out.ctypes.data)
    return out[:m].tobytes()


def decompress(codes, table) -> "bytes | None":
    lib = get_kernel()
    if lib is None:
        return None
    sb, sl, _ = _packed(table)
    out = ctypes.create_string_buffer(8 * len(codes) + 16)
    n = lib.fsst_decompress(bytes(codes), len(codes), sb, sl, out)
    if n == ctypes.c_size_t(-1).value:
        raise ValueError("FSST page ends with a truncated escape "
                         "sequence — corrupt data")
    return out.raw[:n]
