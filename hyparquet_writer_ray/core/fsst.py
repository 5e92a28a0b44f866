"""FSST: Fast Static Symbol Table string compression (Boncz, Neumann,
Leis — "FSST: Fast Random Access String Compression", VLDB 2020).

A 255-entry table of 1-8 byte symbols + escape code 255 (next byte is a
literal). The table is trained per column chunk on a sample via
iterative pair-merging generations, matching the paper's scheme in
spirit.

This is the north-rule extension codec (not in the reference writer,
SURVEY.md §7.2 step 6): opt-in per column. Encoded pages carry their
symbol table inline (varint length + table + payload), so every page is
self-contained and decodable without file-level state. Note FSST is not
a parquet-spec encoding: columns written with it are readable by this
library (see decode_fsst), not by generic parquet readers — the chunk
is marked via ColumnMetaData key_value_metadata {"hpw_fsst": "1"}.

Training and encoding run in the compiled kernel (``_kernel``, C
built on demand with the system compiler — greedy longest-match is a
sequential byte-chase that C runs 30-50x faster than any Python-level
scan, and ``fsst_train`` runs the generations around it). The Python
code here is the fallback for hosts without a C compiler: ``train``'s
body, and for encoding the longest-first trie-factored regex
alternation (the scan runs in C inside ``re``, Python only touches
match boundaries). Both give the same table and the same greedy parse.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import _kernel

ESCAPE = 255
MAX_SYMBOL_LEN = 8
MAX_SYMBOLS = 255
TRAIN_SAMPLE_BYTES = 1 << 16
GENERATIONS = 4


@dataclass
class SymbolTable:
    symbols: list[bytes]  # up to 255 entries; code i = symbols[i]

    def serialize(self) -> bytes:
        out = bytearray([len(self.symbols)])
        for s in self.symbols:
            out.append(len(s))
            out += s
        return bytes(out)

    @classmethod
    def deserialize(cls, data, pos: int = 0) -> tuple["SymbolTable", int]:
        n = data[pos]
        pos += 1
        if n > MAX_SYMBOLS:
            raise ValueError(f"FSST table declares {n} symbols (max "
                             f"{MAX_SYMBOLS}) — corrupt or crafted page")
        syms = []
        for _ in range(n):
            ln = data[pos]
            pos += 1
            if not 1 <= ln <= MAX_SYMBOL_LEN:
                # the C kernel sizes its output buffer for <=8-byte
                # symbols: an unvalidated length is a heap overwrite
                raise ValueError(
                    f"FSST symbol length {ln} outside 1..{MAX_SYMBOL_LEN}"
                    " — corrupt or crafted page")
            sym = bytes(data[pos : pos + ln])
            if len(sym) != ln:
                raise ValueError("FSST table truncated")
            syms.append(sym)
            pos += ln
        return cls(syms), pos


def _count_stream(codes: bytes, table: "SymbolTable"):
    """Per-generation symbol/pair counting of the fallback trainer.

    Returns ``(sym_counts, pair_counts)`` dicts whose INSERTION ORDER is
    first-encounter order in the code stream — ``train``'s tie-breaking
    (stable sort over dict iteration order) depends on it, and the
    kernel's ``fsst_train`` reproduces it exactly."""
    pair_counts: dict[bytes, int] = {}
    sym_counts: dict[bytes, int] = {}
    i = 0
    prev_sym = None
    n = len(codes)
    while i < n:
        c = codes[i]
        if c == ESCAPE:
            sym = bytes([codes[i + 1]])
            i += 2
        else:
            sym = table.symbols[c]
            i += 1
        sym_counts[sym] = sym_counts.get(sym, 0) + 1
        if prev_sym is not None:
            merged = prev_sym + sym
            if len(merged) <= MAX_SYMBOL_LEN:
                pair_counts[merged] = pair_counts.get(merged, 0) + 1
        prev_sym = sym
    return sym_counts, pair_counts


def train(sample: bytes) -> SymbolTable:
    """Iterative symbol-table construction: start from frequent single
    bytes, then repeatedly merge adjacent symbol pairs that maximize
    gain (count x extra bytes saved), capped at 8-byte symbols.

    The compiled kernel's ``fsst_train`` runs these generations when a C
    compiler works; the Python body below is the fallback without one,
    and the two return the same table."""
    sample = sample[:TRAIN_SAMPLE_BYTES]
    if not sample:
        return SymbolTable([])
    symbols = _kernel.train(sample)
    if symbols is not None:
        return SymbolTable(symbols)
    # generation 0: frequent single bytes (first-encounter dict order =
    # the old scalar loop's, so stable-sort tie-breaking is unchanged)
    import numpy as np

    arr = np.frombuffer(sample, dtype=np.uint8)
    uniq, first = np.unique(arr, return_index=True)
    bc = np.bincount(arr)
    counts: dict[bytes, int] = {
        bytes([int(u)]): int(bc[u]) for u in uniq[np.argsort(first, kind="stable")]
    }
    symbols = sorted(counts, key=lambda s: -counts[s])[:MAX_SYMBOLS]
    table = SymbolTable(symbols)

    for _ in range(GENERATIONS):
        sym_counts, pair_counts = _count_stream(compress(sample, table), table)
        # gain = count * (len - 1): bytes saved vs one code per symbol
        candidates: dict[bytes, int] = {}
        for sym, cnt in sym_counts.items():
            candidates[sym] = max(candidates.get(sym, 0), cnt * max(len(sym) - 1, 1))
        for sym, cnt in pair_counts.items():
            candidates[sym] = max(candidates.get(sym, 0), cnt * (len(sym) - 1))
        # always keep every distinct single byte of the sample: full
        # single-byte coverage enables the gap-free findall fast path in
        # compress() (escapes then only occur for bytes unseen at train
        # time)
        distinct = sorted(set(sample))
        multis = sorted(
            (s for s in candidates if len(s) > 1), key=lambda s: -candidates[s]
        )
        if multis and len(distinct) > MAX_SYMBOLS - 32:
            # near-saturated byte alphabet: keeping EVERY single would
            # crowd out all multi-byte symbols (zero compression);
            # reserve slots for the best multis and keep the
            # highest-frequency singles (rare bytes fall back to escapes)
            reserve = min(32, len(multis))
            from collections import Counter

            byte_counts = Counter(sample)
            distinct = sorted(distinct, key=lambda b: (-byte_counts[b], b))
            distinct = sorted(distinct[: MAX_SYMBOLS - reserve])
        singles = [bytes([b]) for b in distinct]
        new_symbols = (singles + multis)[:MAX_SYMBOLS]
        if len(new_symbols) < MAX_SYMBOLS:
            extra = [s for s in sorted(candidates, key=lambda s: -candidates[s])
                     if s not in set(new_symbols)]
            new_symbols += extra[: MAX_SYMBOLS - len(new_symbols)]
        table = SymbolTable(new_symbols)
    return table


def _trie_pattern(symbols: list[bytes]) -> re.Pattern:
    """Trie-factored regex: shared prefixes collapse the 255-way
    alternation into one branch per distinct byte, with greedy optional
    continuations — still longest-match, ~4x faster than a flat
    alternation in CPython's re."""
    root: dict = {}
    for s in symbols:
        d = root
        for b in s:
            d = d.setdefault(b, {})
        d[None] = True  # terminal

    def emit(node: dict) -> bytes:
        alts = []
        for b, child in node.items():
            if b is None:
                continue
            e = re.escape(bytes([b]))
            has_term = None in child
            has_kids = any(k is not None for k in child)
            if has_kids:
                cont = emit(child)
                alts.append(e + (b"(?:" + cont + b")?" if has_term else cont))
            else:
                alts.append(e)
        if len(alts) == 1:
            return alts[0]
        return b"(?:" + b"|".join(alts) + b")"

    return re.compile(emit(root), re.DOTALL)


def _pattern(table: SymbolTable) -> re.Pattern:
    return _trie_pattern(table.symbols)


def compress(data: bytes, table: SymbolTable) -> bytes:
    """Greedy longest-match encode; unmatched bytes become escape pairs.

    Fast path: when the table's single-byte coverage leaves no gaps
    (training keeps every sample byte), ``findall`` + a bulk code map
    avoids per-match span bookkeeping (~4x)."""
    if not table.symbols:
        out = bytearray()
        for b in data:
            out += bytes([ESCAPE, b])
        return bytes(out)
    fast = _kernel.compress(data, table)
    if fast is not None:
        return fast
    code_of = {s: i for i, s in enumerate(table.symbols)}
    pat = _pattern(table)
    # ONE regex scan: bulk-map when gap-free, else weave in escapes
    ms = list(pat.finditer(data))
    if sum(m.end() - m.start() for m in ms) == len(data):
        return bytes(map(code_of.__getitem__, (m.group(0) for m in ms)))
    out = bytearray()
    pos = 0
    for m in ms:
        s, e = m.span()
        while pos < s:  # escape the gap bytes
            out += bytes([ESCAPE, data[pos]])
            pos += 1
        out.append(code_of[m.group(0)])
        pos = e
    while pos < len(data):
        out += bytes([ESCAPE, data[pos]])
        pos += 1
    return bytes(out)


def decompress(codes, table: SymbolTable) -> bytes:
    if table.symbols:
        fast = _kernel.decompress(codes, table)
        if fast is not None:
            return fast
    out = bytearray()
    syms = table.symbols
    i = 0
    n = len(codes)
    while i < n:
        c = codes[i]
        if c == ESCAPE:
            if i + 1 >= n:
                # same error the C kernel raises for this corruption
                raise ValueError("FSST page ends with a truncated "
                                 "escape sequence — corrupt data")
            out.append(codes[i + 1])
            i += 2
        else:
            out += syms[c]
            i += 1
    return bytes(out)


# --- page-level framing -----------------------------------------------------


def encode_fsst_page(body: bytes, table: SymbolTable | None = None) -> bytes:
    """Self-contained FSST page: [table][payload]."""
    if table is None:
        table = train(body)
    return table.serialize() + compress(body, table)


def decode_fsst_page(data) -> bytes:
    table, pos = SymbolTable.deserialize(data, 0)
    return decompress(memoryview(data)[pos:], table)
