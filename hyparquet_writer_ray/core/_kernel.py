"""The package's compiled kernel: FSST, the integer page encoders, the
byte-array layouts, bloom hashing and the dictionary encoder.

One C source (``_C_SRC``) is compiled ON DEMAND with the system C
compiler into a per-user cache dir, as a file named by the source's
hash, and loaded via ctypes; the dir keeps the few builds used last,
so checkouts of different sources do not rebuild in turn. Its entry
points:

- ``fsst_compress`` / ``fsst_decompress``: FSST's greedy longest-match
  scan and its inverse. It is an inherently sequential byte-chase,
  which C runs at hundreds of MB/s where any Python-level scan (regex
  or numpy passes) tops out at tens. An 8-byte symbol, the most common
  step on web text, is found by one hashed probe of the 8 bytes at
  hand before the walk of the candidates that share their first two
  bytes. The parse is the greedy one still: no shorter symbol can
  precede a matching 8-byte one, and a symbol the table cannot place
  stays among those candidates (the C comment says why);
- ``fsst_train``: ``fsst.train``'s generations (each one compresses the
  sample with ``fsst_compress``, counts symbols and pairs, ranks them
  by gain), returning the same table as the Python trainer;
- ``rle_hybrid``: the whole RLE / bit-packed hybrid stream of
  ``rle.encode_rle_hybrid``;
- ``delta_binary_pack``: the whole DELTA_BINARY_PACKED stream of
  ``delta.delta_binary_pack``, header through the last block;
- ``compact_byte_array``: ``drop_null`` of a string/binary array whose
  null slots own bytes, one copy per run of values;
- ``plain_byte_array``: the PLAIN BYTE_ARRAY layout (u32 length, bytes)
  of a string/binary array's valid slots, read from its own offsets,
  validity bitmap and value buffer (no compacted copy first) and
  written once, into a reused page buffer ``fsst_compress`` can scan
  in place;
- ``delta_length_byte_array``: the DELTA_LENGTH_BYTE_ARRAY body of the
  same slots (``delta_binary_pack`` of their lengths, then their bytes)
  into the same kind of buffer. It and ``plain_byte_array`` also return
  the page's bounds, its first slots holding the smallest and the
  largest value in ``pc.min_max``'s order, found in the copy loop
  through an 8-byte big-endian key per value, so the page's statistics
  need no second pass;
- ``xxhash64_slots``: ``bloom.xxhash64`` of each valid slot. These
  four read the slots as ``arrays.byte_slots`` checked them;
- ``dict_encode``: ``pc.dictionary_encode`` of 1-, 2-, 4- or 8-byte keys
  (fixed-width values, or equal-width strings read as integers) in one
  hash pass that also runs the reference dictionary trial, writing the
  uint32 indices the RLE page loop reads.

The page loop calls the two integer encoders once per page, mostly on
a few hundred values, so in numpy their cost is fixed per-call
overhead; in C it is the work.

Every entry point reproduces its Python counterpart byte for byte.
When no compiler works (or the host is big-endian, or the cache dir is
unsafe) the wrappers below return None, one DEBUG record says why, and
each caller runs its own fallback: the Python paths in :mod:`fsst`,
the numpy bodies of :mod:`rle` and :mod:`delta`, Arrow's ``drop_null``
in :mod:`arrays`, the Arrow join of the slots in :mod:`plain` (with
``pc.min_max`` for the page bounds), the scalar ``xxhash64`` in
:mod:`bloom`, and Arrow's ``count_distinct`` and ``dictionary_encode``
in :mod:`chunk`.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

log = logging.getLogger("hyparquet_writer_ray")

_C_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
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
   padding from ever matching. Output bound: 2 * n bytes, every byte
   escaped.

   8-byte symbols, the most common step on web text (76% of steps on
   text_fsst pages), are found by ONE hashed probe of the whole word
   instead: an open-addressed table of H8_SLOTS + 1 slots keyed by a
   multiply-shift hash of the u64 already loaded at p, each symbol in
   the first free of its two adjacent slots (code 255 marks a free
   one). While 8 bytes are left the scan probes both slots before the
   run walk; a hit emits that code and advances 8 bytes. The parse is
   the same: an 8-byte symbol is the longest, and symbols are distinct,
   so at most one equals the word and the run walk would have taken it
   first. Symbols go in in code order, and one that finds both slots
   taken stays in its run, where the walk still finds it; a placed
   symbol leaves its run. With no symbol placed the scan is the probe-
   free loop alone (`scan_from`). The probe made the scan about 2.3x as
   fast on web text and 1.6x on urls (tools/fsst_scan_ab.py, best of 9
   on a 1-vCPU host).

   The tables are thread-local. In a -fPIC build each use of a
   thread-local name may call __tls_get_addr, and gcc re-derives the
   address per byte rather than keep it in a register; the empty asm
   makes the pointers opaque, so it takes each address once per call
   (+12-20% MB/s on web text, +17-40% on urls: interleaved runs against
   the per-byte form on a 1-vCPU host). */
typedef struct { uint64_t val; uint64_t mask; uint8_t code; uint8_t len; uint8_t last; uint8_t pad; } Cand;
#define H8_SLOTS 1024
#define H8(w) ((size_t)(((w) * 0x9E3779B97F4A7C15ULL) >> 54))  /* top 10 bits */

/* One greedy step without the 8-byte probe, at p with `rem` bytes left
   and `word` their first 8: the run walk, then the 2- and 1-byte
   tables, else an escape. It ends at the label `done`. A macro, not a
   function: as an inline function the probe-free loop ran about 25%
   slower on random bytes. */
#define GREEDY_STEP(done) \
    if (rem >= 2) { \
        uint16_t f2 = (uint16_t)(word & 0xFFFF); \
        int16_t i = head[f2]; \
        if (i >= 0) { \
            const Cand* cd = &pool[i]; \
            for (;;) { \
                if (cd->len <= rem && (word & cd->mask) == cd->val) { \
                    out[o++] = cd->code; \
                    p += cd->len; \
                    goto done; \
                } \
                if (cd->last) break; \
                cd++; \
            } \
        } \
        int16_t c2 = code2[f2]; \
        if (c2 >= 0) { \
            out[o++] = (uint8_t)c2; \
            p += 2; \
            goto done; \
        } \
    } \
    { \
        uint8_t b0 = (uint8_t)word; \
        if (code1[b0] != 0xFF) { \
            out[o++] = code1[b0]; \
            p++; \
        } else { \
            out[o++] = 255;          /* ESCAPE */ \
            out[o++] = b0; \
            p++; \
        } \
    } \
  done: ;

/* The probe-free parse from p to n; returns the output length. Kept out
   of line, so the probing loop does not change its code. */
static __attribute__((noinline))
size_t scan_from(const uint8_t* data, size_t n, size_t p, size_t o, const int16_t* head,
                 const int16_t* code2, const Cand* pool, const uint8_t* code1, uint8_t* out) {
    while (p < n) {
        size_t rem = n - p;
        uint64_t word; memcpy(&word, data + p, 8);
        GREEDY_STEP(step)
    }
    return o;
}

size_t fsst_compress(const uint8_t* data, size_t n,
                     const uint8_t* sym_bytes /* 255*8, zero padded */,
                     const uint8_t* sym_len, int nsym, uint8_t* out) {
    static _Thread_local int16_t head_tls[65536];
    static _Thread_local int16_t code2_tls[65536];
    static _Thread_local Cand pool_tls[255];
    static _Thread_local uint64_t val8_tls[H8_SLOTS + 1];
    static _Thread_local uint8_t code8_tls[H8_SLOTS + 1];
    int16_t* head = head_tls; int16_t* code2 = code2_tls; Cand* pool = pool_tls;
    uint64_t* val8 = val8_tls; uint8_t* code8 = code8_tls;
    __asm__("" : "+r"(head), "+r"(code2), "+r"(pool), "+r"(val8), "+r"(code8));
    uint8_t code1[256];
    memset(head, 0xFF, sizeof head_tls);
    memset(code2, 0xFF, sizeof code2_tls);
    memset(code1, 0xFF, sizeof code1);
    memset(code8, 0xFF, sizeof code8_tls);
    /* 8-byte symbols, in code order, each into the first free of its two
       slots; one that finds both taken stays in its run */
    uint8_t hashed[255]; memset(hashed, 0, sizeof hashed);
    int n8 = 0;
    for (int c = 0; c < nsym; c++) {
        if (sym_len[c] != 8) continue;
        uint64_t raw; memcpy(&raw, sym_bytes + c * 8, 8);
        size_t h = H8(raw);
        if (code8[h] != 255) h++;
        if (code8[h] != 255) continue;
        val8[h] = raw; code8[h] = (uint8_t)c; hashed[c] = 1; n8++;
    }
    /* global priority order of the len>=3 symbols (runs); len==2 go to
       the direct table (symbols are distinct so at most one per f2) */
    int order[255]; int m = 0;
    for (int L = 8; L >= 3; L--)
        for (int c = 0; c < nsym; c++)
            if (sym_len[c] == L && !hashed[c]) order[m++] = c;
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
    size_t end8 = n8 && n >= 8 ? n - 7 : 0;  /* p < end8: 8 bytes left */
    while (p < end8) {
        uint64_t word; memcpy(&word, data + p, 8);
        size_t h = H8(word);
        if (val8[h] != word || code8[h] == 255) h++;
        if (val8[h] == word && code8[h] != 255) {
            out[o++] = code8[h];
            p += 8;
            continue;
        }
        size_t rem = n - p;
        GREEDY_STEP(step)
    }
    return scan_from(data, n, p, o, head, code2, pool, code1, out);
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

/* fsst_train: the generational trainer of fsst.train, byte for byte.
   Every rule below mirrors a line of the Python fallback, whose dicts
   iterate in insertion order and whose sorts are stable; ties are
   therefore broken by first-encounter position, reproduced here as an
   explicit `ord` key. A symbol is (val, len): its bytes as a
   little-endian u64, zero above len. Pairs are counted by their
   merged bytes, and a pair spelling a symbol merges into it; the
   greedy parse never produces either case (a longer symbol would have
   matched), but keeping both makes the two trainers agree on any
   parse. */
#define TRAIN_SAMPLE_BYTES 65536
#define GENERATIONS 4
#define MAX_SYMBOLS 255

typedef struct { uint64_t val; int64_t gain; uint32_t ord; uint8_t len; } TCand;
typedef struct { uint64_t val; uint32_t cnt; uint32_t slot; uint8_t len; uint8_t is_sym; } TPair;

static int tcand_cmp(const void* a, const void* b) {
    const TCand* x = (const TCand*)a; const TCand* y = (const TCand*)b;
    if (x->gain != y->gain) return x->gain > y->gain ? -1 : 1;
    return x->ord < y->ord ? -1 : (x->ord > y->ord);
}

/* a ranks before b in fsst.train's stable sort by descending gain */
static int tbefore(const TCand* a, const TCand* b) {
    return a->gain != b->gain ? a->gain > b->gain : a->ord < b->ord;
}

/* heap of k candidates whose root ranks last */
static void tsift(TCand* h, uint32_t k, uint32_t i) {
    for (;;) {
        uint32_t w = i, l = 2 * i + 1, r = l + 1;
        if (l < k && tbefore(&h[w], &h[l])) w = l;
        if (r < k && tbefore(&h[w], &h[r])) w = r;
        if (w == i) return;
        TCand t = h[i]; h[i] = h[w]; h[w] = t;
        i = w;
    }
}

/* moves the best k of c[0..n) to c[0..k) in rank order and returns how
   many that is: k <= 255, so a heap spares the full sort of the n */
static uint32_t ttop(TCand* c, uint32_t n, uint32_t k) {
    if (k > n) k = n;
    if (k < n) {
        for (uint32_t i = k / 2; i-- > 0;) tsift(c, k, i);
        for (uint32_t j = k; k && j < n; j++)
            if (tbefore(&c[j], &c[0])) { c[0] = c[j]; tsift(c, k, 0); }
    }
    qsort(c, k, sizeof(TCand), tcand_cmp);
    return k;
}

static uint32_t thash(uint64_t val, uint8_t len, int bits) {
    return (uint32_t)(((val ^ ((uint64_t)len << 59)) * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

/* slot of (val, len) in the pair table, or of the empty slot it takes */
static uint32_t tfind(const int32_t* slots, const TPair* ents, int bits,
                      uint64_t val, uint8_t len) {
    uint32_t mask = (1u << bits) - 1, h = thash(val, len, bits);
    while (slots[h] >= 0 && !(ents[slots[h]].val == val && ents[slots[h]].len == len))
        h = (h + 1) & mask;
    return h;
}

/* entry of the pair (val, len), inserted with count 0 on first sight;
   the table starts small and doubles past half full, within the slots
   allocated for the largest sample */
static int32_t tpair(int32_t* slots, TPair* ents, uint32_t* nents, int* bits,
                     uint64_t val, uint8_t len) {
    uint32_t h = tfind(slots, ents, *bits, val, len);
    if (slots[h] < 0 && 2 * (*nents + 1) > (1u << *bits)) {
        (*bits)++;
        memset(slots, 0xFF, sizeof(int32_t) << *bits);
        for (uint32_t k = 0; k < *nents; k++) {
            ents[k].slot = tfind(slots, ents, *bits, ents[k].val, ents[k].len);
            slots[ents[k].slot] = (int32_t)k;
        }
        h = tfind(slots, ents, *bits, val, len);
    }
    if (slots[h] < 0) {
        TPair* p = &ents[*nents];
        p->val = val; p->len = len; p->cnt = 0; p->slot = h; p->is_sym = 0;
        slots[h] = (int32_t)(*nents)++;
    }
    return slots[h];
}

static void tput(uint8_t* sb, uint8_t* sl, int c, uint64_t val, uint8_t len) {
    memcpy(sb + c * 8, &val, 8);
    sl[c] = len;
}

int fsst_train(const uint8_t* sample, size_t n,
               uint8_t* sb /* out: 255*8 */, uint8_t* sl /* out: 255 */) {
    /* pair entry + 1 of each code pair (prev << 8 | cur), 0 unseen, -1
       longer than 8 bytes: most stream steps end at this lookup */
    static _Thread_local int32_t cpair_tls[65536];
    int32_t* cpair = cpair_tls;
    __asm__("" : "+r"(cpair));  /* one address per call, as above */
    if (n > TRAIN_SAMPLE_BYTES) n = TRAIN_SAMPLE_BYTES;
    memset(sb, 0, MAX_SYMBOLS * 8);
    memset(sl, 0, MAX_SYMBOLS);
    if (n == 0) return 0;
    int maxbits = 4, bits = 10;
    while ((1u << maxbits) < 2 * n) maxbits++;
    if (bits > maxbits) bits = maxbits;
    uint8_t* padded = calloc(n + 8, 1);
    uint8_t* codes = malloc(2 * n + 8);
    int32_t* slots = malloc(sizeof(int32_t) << maxbits);
    TPair* pairs = malloc(sizeof(TPair) * n);
    TCand* cands = malloc(sizeof(TCand) * (n + 2 * 256));
    if (!padded || !codes || !slots || !pairs || !cands) {
        free(padded); free(codes); free(slots); free(pairs); free(cands);
        return -1;
    }
    memcpy(padded, sample, n);
    memset(slots, 0xFF, sizeof(int32_t) << bits);

    /* generation 0: single bytes by count, ties by first encounter */
    int64_t bcount[256] = {0};
    int32_t first[256];
    for (int b = 0; b < 256; b++) first[b] = -1;
    for (size_t i = 0; i < n; i++) {
        if (first[sample[i]] < 0) first[sample[i]] = (int32_t)i;
        bcount[sample[i]]++;
    }
    TCand g0[256]; int ndistinct = 0;
    for (int b = 0; b < 256; b++)
        if (bcount[b]) {
            g0[ndistinct].val = (uint64_t)b; g0[ndistinct].len = 1;
            g0[ndistinct].gain = bcount[b]; g0[ndistinct].ord = (uint32_t)first[b];
            ndistinct++;
        }
    qsort(g0, ndistinct, sizeof(TCand), tcand_cmp);
    int nsym = ndistinct < MAX_SYMBOLS ? ndistinct : MAX_SYMBOLS;
    for (int c = 0; c < nsym; c++) tput(sb, sl, c, g0[c].val, 1);
    /* the near-saturated rule ranks singles by (-count, byte) */
    for (int k = 0; k < ndistinct; k++) g0[k].ord = (uint32_t)g0[k].val;
    qsort(g0, ndistinct, sizeof(TCand), tcand_cmp);

    for (int gen = 0; gen < GENERATIONS; gen++) {
        size_t m = fsst_compress(padded, n, sb, sl, nsym, codes);
        uint64_t symval[MAX_SYMBOLS];
        for (int c = 0; c < nsym; c++) memcpy(&symval[c], sb + c * 8, 8);
        /* symbol ids: code c, or MAX_SYMBOLS + b for an escaped byte b
           (a byte is escaped only when no 1-byte symbol holds it) */
        int64_t scount[MAX_SYMBOLS + 256] = {0};
        int sorder[MAX_SYMBOLS + 256]; int nsorder = 0;
        uint32_t npairs = 0;
        memset(cpair, 0, sizeof cpair_tls);
        int pid = -1; uint64_t pval = 0; uint8_t plen = 0;
        for (size_t i = 0; i < m; ) {
            int id; uint64_t val; uint8_t len;
            if (codes[i] == 255) {
                id = MAX_SYMBOLS + codes[i + 1]; val = codes[i + 1]; len = 1; i += 2;
            } else {
                id = codes[i]; val = symval[id]; len = sl[id]; i += 1;
            }
            if (scount[id]++ == 0) sorder[nsorder++] = id;
            /* merged bytes, not code pairs, key the count: two code
               pairs spelling the same bytes share the entry made at the
               first of them */
            if (pid >= 0) {
                int32_t* e = pid < MAX_SYMBOLS && id < MAX_SYMBOLS
                    ? &cpair[pid << 8 | id] : NULL;
                int32_t k = e ? *e : 0;
                if (k == 0) {
                    k = plen + len <= 8
                        ? tpair(slots, pairs, &npairs, &bits,
                                pval | (val << (8 * plen)), (uint8_t)(plen + len)) + 1
                        : -1;
                    if (e) *e = k;
                }
                if (k > 0) pairs[k - 1].cnt++;
            }
            pid = id; pval = val; plen = len;
        }
        /* candidates: symbols in first-encounter order, then the pairs
           that are not already a symbol; a pair equal to a symbol keeps
           the symbol's place and the larger gain */
        uint32_t nc = 0;
        for (int k = 0; k < nsorder; k++) {
            int id = sorder[k];
            TCand* cd = &cands[nc];
            if (id >= MAX_SYMBOLS) { cd->val = (uint64_t)(id - MAX_SYMBOLS); cd->len = 1; }
            else { cd->val = symval[id]; cd->len = sl[id]; }
            cd->gain = scount[id] * (cd->len > 1 ? cd->len - 1 : 1);
            if (cd->len > 1) {
                uint32_t h = tfind(slots, pairs, bits, cd->val, cd->len);
                if (slots[h] >= 0) {
                    TPair* p = &pairs[slots[h]];
                    int64_t g = (int64_t)p->cnt * (p->len - 1);
                    if (g > cd->gain) cd->gain = g;
                    p->is_sym = 1;
                }
            }
            cd->ord = nc++;
        }
        for (uint32_t k = 0; k < npairs; k++) {
            if (pairs[k].is_sym) continue;
            TCand* cd = &cands[nc];
            cd->val = pairs[k].val; cd->len = pairs[k].len;
            cd->gain = (int64_t)pairs[k].cnt * (pairs[k].len - 1);
            cd->ord = nc++;
        }
        /* multis stay in cands, in order; 1-byte candidates (at most
           one per byte value) move to ones */
        TCand ones[256]; int nones = 0; uint32_t nmulti = 0;
        for (uint32_t k = 0; k < nc; k++) {
            if (cands[k].len > 1) cands[nmulti++] = cands[k];
            else ones[nones++] = cands[k];
        }
        /* singles: every sample byte, unless the alphabet is near
           saturated and would crowd out the multi-byte symbols */
        uint8_t single[256] = {0};
        if (nmulti && ndistinct > MAX_SYMBOLS - 32) {
            int reserve = nmulti < 32 ? (int)nmulti : 32;
            for (int k = 0; k < MAX_SYMBOLS - reserve && k < ndistinct; k++)
                single[g0[k].val] = 1;
        } else {
            for (int b = 0; b < 256; b++) single[b] = bcount[b] > 0;
        }
        nsym = 0;
        for (int b = 0; b < 256 && nsym < MAX_SYMBOLS; b++)
            if (single[b]) tput(sb, sl, nsym++, (uint64_t)b, 1);
        /* multis by gain, then the `extra` fill: with room left every
           multi is in, so only 1-byte candidates outside the singles
           can still be added */
        uint32_t ntop = ttop(cands, nmulti, (uint32_t)(MAX_SYMBOLS - nsym));
        for (uint32_t k = 0; k < ntop; k++)
            tput(sb, sl, nsym++, cands[k].val, cands[k].len);
        if (nsym < MAX_SYMBOLS) {
            qsort(ones, nones, sizeof(TCand), tcand_cmp);
            for (int k = 0; k < nones && nsym < MAX_SYMBOLS; k++)
                if (!single[ones[k].val]) tput(sb, sl, nsym++, ones[k].val, 1);
        }
        for (int c = nsym; c < MAX_SYMBOLS; c++) { memset(sb + c * 8, 0, 8); sl[c] = 0; }
        for (uint32_t k = 0; k < npairs; k++) slots[pairs[k].slot] = -1;
    }
    free(padded); free(codes); free(slots); free(pairs); free(cands);
    return nsym;
}
/* ---- integer page encoders ------------------------------------------- */

static size_t put_varint(uint8_t* out, uint64_t v) {
    size_t o = 0;
    while (v >= 0x80) { out[o++] = (uint8_t)(v | 0x80); v >>= 7; }
    out[o++] = (uint8_t)v;
    return o;
}

static uint64_t zigzag64(int64_t x) {
    return ((uint64_t)x << 1) ^ (0 - ((uint64_t)x >> 63));
}

/* rle._pack_bits: cnt values of bw bits (bw <= 64, cnt * bw a multiple
   of 8) packed LSB-first into cnt * bw / 8 bytes, through a 64-bit
   accumulator that is stored whenever it fills */
#define PACK_BITS(NAME, T)                                                \
static size_t NAME(const T* v, size_t cnt, int bw, uint8_t* out) {       \
    uint64_t acc = 0; int nb = 0; size_t o = 0;                           \
    if (bw == 0) return 0;                                                \
    for (size_t i = 0; i < cnt; i++) {                                    \
        acc |= (uint64_t)v[i] << nb;                                      \
        nb += bw;                                                         \
        if (nb >= 64) {                                                   \
            memcpy(out + o, &acc, 8); o += 8;                             \
            nb -= 64;                                                     \
            acc = nb ? (uint64_t)v[i] >> (bw - nb) : 0;                   \
        }                                                                 \
    }                                                                     \
    memcpy(out + o, &acc, (size_t)nb >> 3);                               \
    return o + ((size_t)nb >> 3);                                         \
}
PACK_BITS(pack_u32, uint32_t)
PACK_BITS(pack_u64, uint64_t)

/* a bit-packed literal: varint(groups << 1 | 1), then the groups of 8
   values, the last one zero-padded */
static size_t put_literal(const uint32_t* v, size_t len, int bw, uint8_t* out) {
    if (len == 0) return 0;
    size_t full = len & ~(size_t)7;
    size_t o = put_varint(out, (uint64_t)((len + 7) >> 3) << 1 | 1);
    o += pack_u32(v, full, bw, out + o);
    if (full < len) {
        uint32_t tail[8] = {0};
        memcpy(tail, v + full, (len - full) * sizeof(uint32_t));
        o += pack_u32(tail, 8, bw, out + o);
    }
    return o;
}

/* rle_hybrid: encode_rle_hybrid's stream for v[0..n), bw <= 32, byte
   for byte. Its segment plan: each maximal run of >= 8 equal values,
   in order, pads the literal before it to whole groups by stealing
   (pos - rstart) mod 8 values from its head, and is kept only if >= 8
   values remain; otherwise it folds into the literals. A kept run is
   varint(count << 1) and its value in ceil(bw / 8) little-endian
   bytes. The scan counts the equal neighbours ending at each value
   without a branch, and branches only when there are 7 (a streak of
   8): on low-entropy literals (2-3 distinct values) a branch per value
   would mispredict about every other value. */
size_t rle_hybrid(const uint32_t* v, size_t n, int bw, uint8_t* out) {
    size_t o = 0, pos = 0, same = 0;
    int vbytes = (bw + 7) >> 3;
    for (size_t k = 1; k < n; k++) {
        same = (same + 1) * (v[k] == v[k - 1]);
        if (same < 7) continue;
        size_t rstart = k - 7, j = k + 1;
        while (j < n && v[j] == v[rstart]) j++;
        size_t steal = (8 - (rstart - pos) % 8) % 8;
        if (j - rstart >= 8 + steal) {
            o += put_literal(v + pos, rstart + steal - pos, bw, out + o);
            o += put_varint(out + o, (uint64_t)(j - rstart - steal) << 1);
            for (int b = 0; b < vbytes; b++) out[o++] = (uint8_t)(v[rstart] >> (8 * b));
            pos = j;
        }
        k = j;  /* v[j] starts a new streak */
        same = 0;
    }
    return o + put_literal(v + pos, n - pos, bw, out + o);
}

/* delta_binary_pack: delta.delta_binary_pack's stream for count int32
   (wide == 0) or int64 values, byte for byte. Deltas wrap at that
   width; each block of 128 (the last one padded with the width's max,
   which never lowers the min) writes zigzag(min_delta) as an int64, its
   4 miniblock widths (the bit length of each miniblock's max, padding
   packing as zeros), and every miniblock at 4 * width bytes. */
size_t delta_binary_pack(const void* values, size_t count, int wide, uint8_t* out) {
    const int32_t* v32 = (const int32_t*)values;
    const int64_t* v64 = (const int64_t*)values;
    size_t o = put_varint(out, 128);
    o += put_varint(out + o, 4);
    o += put_varint(out + o, count);
    o += put_varint(out + o, zigzag64(count == 0 ? 0 : wide ? v64[0] : v32[0]));
    uint64_t mask = wide ? ~0ULL : 0xFFFFFFFFULL;
    int64_t d[128];
    uint64_t mb[128];
    for (size_t b0 = 0; b0 + 1 < count; b0 += 128) {
        size_t m = count - 1 - b0 < 128 ? count - 1 - b0 : 128;
        int64_t mn = wide ? INT64_MAX : INT32_MAX;
        if (wide)
            for (size_t k = 0; k < m; k++)
                d[k] = (int64_t)((uint64_t)v64[b0 + k + 1] - (uint64_t)v64[b0 + k]);
        else
            for (size_t k = 0; k < m; k++)
                d[k] = (int32_t)((uint32_t)v32[b0 + k + 1] - (uint32_t)v32[b0 + k]);
        for (size_t k = 0; k < m; k++) if (d[k] < mn) mn = d[k];
        o += put_varint(out + o, zigzag64(mn));
        uint8_t* widths = out + o;
        o += 4;
        for (int q = 0; q < 4; q++) {
            uint64_t any = 0;  /* its bit length is the max's */
            for (size_t k = 32 * q; k < 32 * q + 32; k++) {
                mb[k] = k < m ? ((uint64_t)d[k] - (uint64_t)mn) & mask : 0;
                any |= mb[k];
            }
            int bw = any ? 64 - __builtin_clzll(any) : 0;
            widths[q] = (uint8_t)bw;
            o += pack_u64(mb + 32 * q, 32, bw, out + o);
        }
    }
    return o;
}

/* ---- byte-array layouts ---------------------------------------------- */

/* Both read a string/binary array's slots as arrays.byte_slots checked
   them: off[0..n] are the n slots' offsets into data (int32, or int64
   when wide), never decreasing, off[0] and off[n] inside data; slot i
   is valid when bit bit_offset + i of bitmap is set, and every slot is
   when bitmap is NULL. A null slot writes nothing, whatever bytes it
   owns, and no byte outside off[0]..off[n] is read. */
#define VALID(i) (!bitmap || (bitmap[(bit_offset + (i)) >> 3] >> ((bit_offset + (i)) & 7)) & 1)

/* compact_byte_array: drop_null's values. Writes the result's offsets,
   from 0, to out_off (same width, one more than the valid slots) and
   its bytes to out, one memcpy per run of valid slots (a run's bytes
   are contiguous in data). Output bound: out receives exactly the
   bytes of the valid slots, at most off[n] - off[0], and that count is
   returned. */
#define COMPACT(NAME, T)                                                  \
static size_t NAME(const T* off, const uint8_t* bitmap, size_t bit_offset, \
                   size_t n, const uint8_t* data, T* out_off, uint8_t* out) { \
    size_t o = 0, k = 0, i = 0;                                           \
    out_off[0] = 0;                                                       \
    while (i < n) {                                                       \
        if (!VALID(i)) { i++; continue; }                                 \
        size_t j = i;                                                     \
        T shift = (T)o - off[i];                                          \
        for (; j < n && VALID(j); j++) out_off[++k] = off[j + 1] + shift; \
        memcpy(out + o, data + off[i], (size_t)(off[j] - off[i]));        \
        o += (size_t)(off[j] - off[i]);                                   \
        i = j;                                                            \
    }                                                                     \
    return o;                                                             \
}
COMPACT(compact32, int32_t)
COMPACT(compact64, int64_t)

size_t compact_byte_array(const void* off, int wide, const uint8_t* bitmap, size_t bit_offset,
                          size_t n, const uint8_t* data, void* out_off, uint8_t* out) {
    return wide ? compact64(off, bitmap, bit_offset, n, data, out_off, out)
                : compact32(off, bitmap, bit_offset, n, data, out_off, out);
}

/* A page's bounds, found while its values are copied: the first valid
   slot holding the smallest value and the first holding the largest,
   in pc.min_max's order (unsigned bytes, a prefix before any longer
   value), -1 while none is valid. Each value is compared through its
   8-byte big-endian key (its first 8 bytes, zero padded), which decides
   unless the keys are equal; only then does memcmp read the rest. Both
   read the value's copy in the page, which always has 8 more bytes of
   the output buffer after it (a later value or the slack), so the key
   is one load. */
typedef struct { uint64_t key; const uint8_t* p; size_t len; int64_t slot; } Bound;

static inline uint64_t bound_key(const uint8_t* p, size_t len) {
    uint64_t w; memcpy(&w, p, 8);
    w = __builtin_bswap64(w);
    return len >= 8 ? w : len ? w & ~(~0ULL >> (8 * len)) : 0;
}

/* the order of the value (p, len) against b when their keys are equal:
   then their first 8 bytes are equal, or the shorter one ends within
   them and the other has only zero bytes up to byte 8, so the rest of
   their common length decides, and then the length */
static int bound_tie(const uint8_t* p, size_t len, const Bound* b) {
    size_t m = len < b->len ? len : b->len;
    int c = m > 8 ? memcmp(p + 8, b->p + 8, m - 8) : 0;
    return c ? c : (len > b->len) - (len < b->len);
}

static inline void bound_value(Bound* lo, Bound* hi, int64_t slot, const uint8_t* p,
                               size_t len) {
    uint64_t key = bound_key(p, len);
    if (lo->slot < 0) {
        lo->key = key; lo->p = p; lo->len = len; lo->slot = slot;
        *hi = *lo;
        return;
    }
    if (key < lo->key || (key == lo->key && bound_tie(p, len, lo) < 0)) {
        lo->key = key; lo->p = p; lo->len = len; lo->slot = slot;
    }
    if (key > hi->key || (key == hi->key && bound_tie(p, len, hi) > 0)) {
        hi->key = key; hi->p = p; hi->len = len; hi->slot = slot;
    }
}

/* plain_byte_array: PLAIN BYTE_ARRAY of the valid slots, each value's
   u32 little-endian length then its bytes, read straight from the
   array's own buffers: no compacted copy of the values comes first.
   bounds[0..1] receive the page's bounds. Output bound: 4 per valid
   slot plus its bytes, at most 4 * (valid slots) + off[n] - off[0],
   and out must hold 8 bytes more; the count written is returned. */
#define PLAIN(NAME, T)                                                    \
static size_t NAME(const T* off, const uint8_t* bitmap, size_t bit_offset, \
                   size_t n, const uint8_t* data, uint8_t* out, int64_t* bounds) { \
    size_t o = 0;                                                         \
    Bound lo = {0, NULL, 0, -1}, hi = lo;                                 \
    for (size_t i = 0; i < n; i++) {                                      \
        if (!VALID(i)) continue;                                          \
        size_t len = (size_t)(off[i + 1] - off[i]);                       \
        uint32_t len32 = (uint32_t)len;                                   \
        memcpy(out + o, &len32, 4);                                       \
        memcpy(out + o + 4, data + off[i], len);                          \
        bound_value(&lo, &hi, (int64_t)i, out + o + 4, len);              \
        o += 4 + len;                                                     \
    }                                                                     \
    bounds[0] = lo.slot; bounds[1] = hi.slot;                             \
    return o;                                                             \
}
PLAIN(plain32, int32_t)
PLAIN(plain64, int64_t)

size_t plain_byte_array(const void* off, int wide, const uint8_t* bitmap, size_t bit_offset,
                        size_t n, const uint8_t* data, uint8_t* out, int64_t* bounds) {
    return wide ? plain64(off, bitmap, bit_offset, n, data, out, bounds)
                : plain32(off, bitmap, bit_offset, n, data, out, bounds);
}

/* delta_length_byte_array: DELTA_LENGTH_BYTE_ARRAY of the valid slots,
   delta_binary_pack of their lengths as int32, then their bytes, with
   the page's bounds in bounds[0..1]. Output bound: delta_binary_pack's
   for the valid slots plus their bytes, and out must hold 8 bytes more;
   the count written is returned, or (size_t)-1 if the lengths could
   not be allocated. */
#define DELTA_LENGTH(NAME, T)                                             \
static size_t NAME(const T* off, const uint8_t* bitmap, size_t bit_offset, \
                   size_t n, const uint8_t* data, uint8_t* out, int64_t* bounds) { \
    int32_t* lens = malloc(n * sizeof(int32_t) + 1);                      \
    if (!lens) return (size_t)-1;                                         \
    size_t k = 0;                                                         \
    for (size_t i = 0; i < n; i++)                                        \
        if (VALID(i)) lens[k++] = (int32_t)(off[i + 1] - off[i]);         \
    size_t o = delta_binary_pack(lens, k, 0, out);                        \
    free(lens);                                                           \
    Bound lo = {0, NULL, 0, -1}, hi = lo;                                 \
    for (size_t i = 0; i < n; i++) {                                      \
        if (!VALID(i)) continue;                                          \
        size_t len = (size_t)(off[i + 1] - off[i]);                       \
        memcpy(out + o, data + off[i], len);                              \
        bound_value(&lo, &hi, (int64_t)i, out + o, len);                  \
        o += len;                                                         \
    }                                                                     \
    bounds[0] = lo.slot; bounds[1] = hi.slot;                             \
    return o;                                                             \
}
DELTA_LENGTH(delta_length32, int32_t)
DELTA_LENGTH(delta_length64, int64_t)

size_t delta_length_byte_array(const void* off, int wide, const uint8_t* bitmap,
                               size_t bit_offset, size_t n, const uint8_t* data,
                               uint8_t* out, int64_t* bounds) {
    return wide ? delta_length64(off, bitmap, bit_offset, n, data, out, bounds)
                : delta_length32(off, bitmap, bit_offset, n, data, out, bounds);
}

/* ---- bloom hashing ---------------------------------------------------- */

/* xxhash64_slots: XXH64 (seed 0) of each valid slot's bytes, in slot
   order, into out (one per valid slot); the count is returned. */
#define XP1 0x9E3779B185EBCA87ULL
#define XP2 0xC2B2AE3D27D4EB4FULL
#define XP3 0x165667B19E3779F9ULL
#define XP4 0x85EBCA77C2B2AE63ULL
#define XP5 0x27D4EB2F165667C5ULL

static inline uint64_t rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

static inline uint64_t xxh_round(uint64_t acc, uint64_t lane) {
    return rotl64(acc + lane * XP2, 31) * XP1;
}

static uint64_t xxh64(const uint8_t* p, size_t n) {
    const uint8_t* end = p + n;
    uint64_t h, lane;
    if (n >= 32) {
        uint64_t v1 = XP1 + XP2, v2 = XP2, v3 = 0, v4 = 0 - XP1;
        for (; p + 32 <= end; p += 32) {
            memcpy(&lane, p, 8); v1 = xxh_round(v1, lane);
            memcpy(&lane, p + 8, 8); v2 = xxh_round(v2, lane);
            memcpy(&lane, p + 16, 8); v3 = xxh_round(v3, lane);
            memcpy(&lane, p + 24, 8); v4 = xxh_round(v4, lane);
        }
        h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
        h = (h ^ xxh_round(0, v1)) * XP1 + XP4;
        h = (h ^ xxh_round(0, v2)) * XP1 + XP4;
        h = (h ^ xxh_round(0, v3)) * XP1 + XP4;
        h = (h ^ xxh_round(0, v4)) * XP1 + XP4;
    } else {
        h = XP5;
    }
    h += (uint64_t)n;
    for (; p + 8 <= end; p += 8) {
        memcpy(&lane, p, 8);
        h = rotl64(h ^ xxh_round(0, lane), 27) * XP1 + XP4;
    }
    if (p + 4 <= end) {
        uint32_t w; memcpy(&w, p, 4);
        h = rotl64(h ^ (uint64_t)w * XP1, 23) * XP2 + XP3;
        p += 4;
    }
    for (; p < end; p++) h = rotl64(h ^ *p * XP5, 11) * XP1;
    h ^= h >> 33; h *= XP2;
    h ^= h >> 29; h *= XP3;
    return h ^ (h >> 32);
}

#define XXHASH(NAME, T)                                                   \
static size_t NAME(const T* off, const uint8_t* bitmap, size_t bit_offset, \
                   size_t n, const uint8_t* data, uint64_t* out) {        \
    size_t k = 0;                                                         \
    for (size_t i = 0; i < n; i++)                                        \
        if (VALID(i)) out[k++] = xxh64(data + off[i], (size_t)(off[i + 1] - off[i])); \
    return k;                                                             \
}
XXHASH(xxhash32, int32_t)
XXHASH(xxhash64w, int64_t)

size_t xxhash64_slots(const void* off, int wide, const uint8_t* bitmap, size_t bit_offset,
                      size_t n, const uint8_t* data, uint64_t* out) {
    return wide ? xxhash64w(off, bitmap, bit_offset, n, data, out)
                : xxhash32(off, bitmap, bit_offset, n, data, out);
}

/* ---- dictionary encoder ---------------------------------------------- */

#define DICT_OK 0
#define DICT_REJECTED 1
#define DICT_NAN 2
#define DICT_SIGNED_ZERO 3

/* a float key Arrow's hash-dependent equality would decide: a NaN
   (fkind 4: float32 bits, 8: float64 bits) or -0.0 */
static int dict_float_key(uint64_t k, int fkind) {
    if (fkind == 4) {
        if ((k & 0x7FFFFFFFu) > 0x7F800000u) return DICT_NAN;
        if (k == 0x80000000u) return DICT_SIGNED_ZERO;
    } else if (fkind == 8) {
        if ((k & 0x7FFFFFFFFFFFFFFFULL) > 0x7FF0000000000000ULL) return DICT_NAN;
        if (k == 0x8000000000000000ULL) return DICT_SIGNED_ZERO;
    }
    return DICT_OK;
}

static size_t dict_slot(uint64_t key, int bits) {
    key ^= key >> 32;
    return (size_t)((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

/* dict_encode: pc.dictionary_encode of n keys compared by their bits,
   in one open-addressing pass. dict receives each new key in first-seen
   order and idx[i] the position of v[i] in it; *count is the number of
   keys. With trial > 0 the reference trial runs in the same pass: after
   the first min(n, trial) values, more than half of them distinct is
   DICT_REJECTED, *count then being that sample's distinct count. A key
   that is a float NaN or -0.0 returns DICT_NAN or DICT_SIGNED_ZERO the
   moment it would be inserted, the output left unfinished; -1 is an
   allocation failure. The table (slot = dict position + 1, 0 empty)
   starts at 64 slots and doubles past half full, so a chunk of few
   distinct keys clears only a few cache lines. */
#define DICT_ENCODE(NAME, T)                                              \
static int NAME(const T* v, size_t n, int fkind, size_t trial,            \
                uint32_t* idx, T* dict, size_t* count) {                  \
    int bits = 6;                                                         \
    uint32_t* slots = calloc((size_t)1 << bits, sizeof(uint32_t));        \
    if (!slots) return -1;                                                \
    size_t k = 0, i = 0, end = trial && trial < n ? trial : n;            \
    for (;;) {                                                            \
        for (; i < end; i++) {                                            \
            T key = v[i];                                                 \
            size_t mask = ((size_t)1 << bits) - 1;                        \
            size_t h = dict_slot(key, bits);                              \
            uint32_t s;                                                   \
            while ((s = slots[h]) && dict[s - 1] != key) h = (h + 1) & mask; \
            if (!s) {                                                     \
                int bad = fkind ? dict_float_key(key, fkind) : DICT_OK;   \
                if (bad) { free(slots); return bad; }                     \
                if (2 * (k + 1) > ((size_t)1 << bits)) {                  \
                    free(slots);                                          \
                    slots = calloc((size_t)1 << ++bits, sizeof(uint32_t)); \
                    if (!slots) return -1;                                \
                    mask = ((size_t)1 << bits) - 1;                       \
                    for (size_t j = 0; j < k; j++) {                      \
                        h = dict_slot(dict[j], bits);                     \
                        while (slots[h]) h = (h + 1) & mask;              \
                        slots[h] = (uint32_t)(j + 1);                     \
                    }                                                     \
                    h = dict_slot(key, bits);                             \
                    while (slots[h]) h = (h + 1) & mask;                  \
                }                                                         \
                dict[k] = key;                                            \
                s = slots[h] = (uint32_t)++k;                             \
            }                                                             \
            idx[i] = s - 1;                                               \
        }                                                                 \
        if (trial) {                                                      \
            if (2 * k > end) { free(slots); *count = k; return DICT_REJECTED; } \
            trial = 0;                                                    \
        }                                                                 \
        if (end == n) break;                                              \
        end = n;                                                          \
    }                                                                     \
    free(slots);                                                          \
    *count = k;                                                           \
    return DICT_OK;                                                       \
}
DICT_ENCODE(dict8, uint8_t)
DICT_ENCODE(dict16, uint16_t)
DICT_ENCODE(dict32, uint32_t)
DICT_ENCODE(dict64, uint64_t)

int dict_encode(const void* keys, size_t n, int width, int fkind, size_t trial,
                uint32_t* idx, void* dict, size_t* count) {
    switch (width) {
    case 1: return dict8(keys, n, fkind, trial, idx, dict, count);
    case 2: return dict16(keys, n, fkind, trial, idx, dict, count);
    case 4: return dict32(keys, n, fkind, trial, idx, dict, count);
    case 8: return dict64(keys, n, fkind, trial, idx, dict, count);
    }
    return -1;
}
"""

_lib = None
_tried = False
# every library (and leftover source) name a version of _C_SRC has been
# built under; a build in progress (``*.so.build<pid>``) never matches
_BUILT = re.compile(r"(fsst_)?kernel(_\w+)?\.(so|c)")
# libraries a build leaves in the cache dir, those loaded last: two
# checkouts or package versions sharing the dir each keep their own
_KEEP_BUILDS = 4
# zero bytes a page buffer from ``plain_byte_array`` or
# ``delta_length_byte_array`` holds past its view:
# ``fsst_compress`` reads a full u64 at every position, so it scans such
# a view in place where any other input is copied into a padded buffer
SLACK = 8


def _unavailable(reason: str) -> None:
    log.debug("compiled kernel unavailable (%s): FSST, the page encoders, "
              "the byte-array layouts, bloom hashing and the dictionary "
              "encoder run their fallbacks", reason)


def _evict(cache: str) -> None:
    """Unlinks every build in ``cache`` but the ``_KEEP_BUILDS`` libraries
    used last, and any leftover source. Unlinked, not overwritten, since
    a running process may still have one mapped."""
    built = {}
    for name in os.listdir(cache):
        if _BUILT.fullmatch(name):
            with contextlib.suppress(OSError):  # another build removed it
                built[name] = os.path.getmtime(os.path.join(cache, name))
    libs = sorted((n for n in built if n.endswith(".so")), key=built.get, reverse=True)
    for name in built.keys() - set(libs[:_KEEP_BUILDS]):
        with contextlib.suppress(OSError):
            os.remove(os.path.join(cache, name))


def _build() -> "ctypes.CDLL | None":
    if sys.byteorder != "little":
        # the kernel's masked u64 loads assume little-endian layout
        return _unavailable("big-endian host")
    uid = getattr(os, "getuid", lambda: 0)()  # no getuid on Windows
    # the dir keeps the name it had when the kernel was FSST-only, so a
    # build also finds the libraries older sources left there
    cache = os.path.join(tempfile.gettempdir(), f"hpw_fsst_kernel_{uid}")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
    except OSError as e:
        return _unavailable(f"no cache dir: {e}")
    if (hasattr(os, "getuid") and st.st_uid != os.getuid()) or (st.st_mode & 0o022):
        # a pre-existing world/group-writable or foreign-owned dir
        # under /tmp could be .so-planted; never load from it
        return _unavailable(f"cache dir {cache} is foreign-owned or "
                            "group/world-writable")
    # named by the source's hash: an edited kernel never loads a stale build
    name = f"kernel_{hashlib.sha256(_C_SRC.encode()).hexdigest()[:16]}.so"
    so = os.path.join(cache, name)
    if not os.path.exists(so):
        # per-process names: a worker building at the same time never
        # truncates the source another worker's cc is reading
        tmp = so + f".build{os.getpid()}"
        src = tmp + ".c"
        try:
            # the one builtin open outside state/fsio: cc reads this source
            # and ctypes loads the .so from local disk, never from a store
            with open(src, "w") as f:
                f.write(_C_SRC)
            subprocess.run(
                ["cc", "-O3", "-shared", "-fPIC", "-o", tmp, src],
                check=True, capture_output=True, timeout=60,
            )
            os.replace(tmp, so)  # atomic: concurrent workers race safely
        except (OSError, subprocess.SubprocessError) as e:
            return _unavailable(f"cc failed: {e}")
        finally:
            with contextlib.suppress(OSError):
                os.remove(src)
        _evict(cache)
    else:
        with contextlib.suppress(OSError):
            os.utime(so)  # its mtime is its last use: _evict keeps it
    try:
        lib = ctypes.CDLL(so)
    except OSError as e:
        return _unavailable(f"cannot load {so}: {e}")
    lib.fsst_compress.restype = ctypes.c_size_t
    lib.fsst_compress.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int,
        ctypes.c_void_p,
    ]
    lib.fsst_decompress.restype = ctypes.c_size_t
    lib.fsst_decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_char_p, ctypes.c_char_p,
        ctypes.c_char_p,
    ]
    lib.fsst_train.restype = ctypes.c_int
    lib.fsst_train.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_char_p,
    ]
    lib.rle_hybrid.restype = ctypes.c_size_t
    lib.rle_hybrid.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_void_p,
    ]
    lib.delta_binary_pack.restype = ctypes.c_size_t
    lib.delta_binary_pack.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_void_p,
    ]
    lib.compact_byte_array.restype = ctypes.c_size_t
    lib.compact_byte_array.argtypes = [
        ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_size_t, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    # the slots (offsets, wide, bitmap, bit offset, n, data), the output
    # and, for a page layout, its bounds
    slots = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_size_t,
             ctypes.c_size_t, ctypes.c_void_p, ctypes.c_void_p]
    for fn, bounds in ((lib.plain_byte_array, True), (lib.delta_length_byte_array, True),
                       (lib.xxhash64_slots, False)):
        fn.restype = ctypes.c_size_t
        fn.argtypes = slots + [ctypes.c_void_p] * bounds
    lib.dict_encode.restype = ctypes.c_int
    lib.dict_encode.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_size_t),
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


def _slack_follows(data, src: np.ndarray) -> bool:
    """Whether ``SLACK`` bytes past the end of ``src`` (the bytes of
    ``data``) lie inside the numpy array ``data`` is a view of, as they
    do for the page views of ``plain_byte_array`` and
    ``delta_length_byte_array``."""
    base = getattr(data, "obj", None)
    return (isinstance(base, np.ndarray) and base.flags.c_contiguous
            and src.ctypes.data + src.nbytes + SLACK <= base.ctypes.data + base.nbytes)


def compress(data: "bytes | bytearray | memoryview", table) -> "memoryview | None":
    lib = get_kernel()
    if lib is None:
        return None
    sb, sl, nsym = _packed(table)
    src = np.frombuffer(data, dtype=np.uint8)
    n = src.size
    if not _slack_follows(data, src):
        # one copy, into a buffer whose slack lets the kernel read a
        # full u64 at the tail (a view's next bytes could be anything)
        padded = np.zeros(n + SLACK, dtype=np.uint8)
        padded[:n] = src
        src = padded
    out = np.empty(2 * n + 8, dtype=np.uint8)  # worst case: all escapes
    return out.data[:lib.fsst_compress(src.ctypes.data, n, sb, sl, nsym, out.ctypes.data)]


def decompress(codes, table) -> "bytes | None":
    lib = get_kernel()
    if lib is None:
        return None
    sb, sl, _ = _packed(table)
    src = np.frombuffer(codes, dtype=np.uint8)
    out = ctypes.create_string_buffer(8 * src.size + 16)
    n = lib.fsst_decompress(src.ctypes.data, src.size, sb, sl, out)
    if n == ctypes.c_size_t(-1).value:
        raise ValueError("FSST page ends with a truncated escape "
                         "sequence — corrupt data")
    return ctypes.string_at(out, n)


def train(sample: bytes) -> "list[bytes] | None":
    """``fsst.train``'s symbols, trained by ``fsst_train``."""
    lib = get_kernel()
    if lib is None:
        return None
    src = np.frombuffer(sample, dtype=np.uint8)
    sb = ctypes.create_string_buffer(255 * 8)
    sl = ctypes.create_string_buffer(255)
    nsym = lib.fsst_train(src.ctypes.data, src.size, sb, sl)
    if nsym < 0:
        raise MemoryError("fsst_train could not allocate its buffers")
    raw, lens = sb.raw, sl.raw
    return [raw[i * 8 : i * 8 + lens[i]] for i in range(nsym)]


def rle_bound(n: int, bit_width: int) -> int:
    """Worst-case size of ``rle_hybrid``'s stream of n values: at most
    n // 8 runs and one literal before each plus a trailing one, each
    segment at most two 5-byte varints and a 4-byte run value, and at
    most n // 8 + 1 groups of ``bit_width`` packed bytes."""
    return (n // 8 + 2) * (bit_width + 14)


def rle_hybrid(values: np.ndarray, bit_width: int) -> "memoryview | None":
    """``rle.encode_rle_hybrid``'s bytes for ``values`` (unsigned, each
    below ``2**bit_width``), or None without the kernel or past 32 bits."""
    lib = get_kernel()
    if lib is None or bit_width > 32:
        return None
    # held for the call: the kernel reads the converted copy, if any
    v = np.ascontiguousarray(values, dtype=np.uint32)
    out = np.empty(rle_bound(v.size, bit_width), np.uint8)
    return out.data[:lib.rle_hybrid(v.ctypes.data, v.size, bit_width, out.ctypes.data)]


def delta_bound(count: int) -> int:
    """Worst-case size of ``delta_binary_pack``'s stream of count values:
    a header of at most 23 bytes, and per block of 128 a 10-byte varint,
    4 width bytes and 4 miniblocks of 32 64-bit values."""
    return (count + 127) // 128 * 1038 + 40


def delta_binary_pack(values: np.ndarray) -> "memoryview | None":
    """``delta.delta_binary_pack``'s bytes for ``values``, or None
    without the kernel. Values of 4 bytes or fewer wrap as int32, wider
    ones as int64."""
    lib = get_kernel()
    if lib is None:
        return None
    wide = values.dtype.itemsize > 4
    # held for the call: the kernel reads the converted copy, if any
    v = np.ascontiguousarray(values, dtype=np.int64 if wide else np.int32)
    out = np.empty(delta_bound(v.size), np.uint8)
    return out.data[:lib.delta_binary_pack(v.ctypes.data, v.size, wide, out.ctypes.data)]


def _slot_args(slots) -> tuple:
    """The C arguments of a string/binary array's checked slots
    (``arrays.byte_slots``): offsets, their width, bitmap, bit offset,
    count and value bytes."""
    offs = slots.offsets
    bits = None if slots.bitmap is None else slots.bitmap.ctypes.data
    return (offs.ctypes.data, offs.dtype.itemsize == 8, bits, slots.bit_offset,
            len(slots.lengths), slots.data.ctypes.data)


def compact_byte_array(slots) -> "tuple[np.ndarray, np.ndarray] | None":
    """The offsets and bytes of ``drop_null`` of a string/binary array
    from its checked slots (``arrays.byte_slots``), or None without the
    kernel: offsets of the slots' width, and exactly the valid slots'
    bytes, in a buffer sized for all of the slots' bytes."""
    lib = get_kernel()
    if lib is None:
        return None
    offs = slots.offsets
    out_off = np.empty(len(slots.lengths) - slots.null_count + 1, offs.dtype)
    out = np.empty(offs.item(-1) - offs.item(0), np.uint8)
    size = lib.compact_byte_array(*_slot_args(slots), out_off.ctypes.data, out.ctypes.data)
    return out_off, out[:size]


def _page(entry: str, slots, head: int, out: "np.ndarray | None"
          ) -> "tuple[memoryview, tuple[int, int]] | None":
    """``(body, (lo, hi))``: the page layout ``entry`` writes of the
    valid slots, at most ``head`` bytes before their values, and the
    slots of its smallest and largest value (-1 when none is valid);
    None without the kernel. The body is a view of ``out`` when that
    uint8 array holds the bound plus ``SLACK``, else of a new buffer;
    the ``SLACK`` bytes after it are zero, so FSST scans the page in
    place."""
    lib = get_kernel()
    if lib is None:
        return None
    bound = head + slots.offsets.item(-1) - slots.offsets.item(0)
    if out is None or out.size < bound + SLACK:
        out = np.empty(bound + SLACK, np.uint8)
    bounds = (ctypes.c_int64 * 2)()
    size = getattr(lib, entry)(*_slot_args(slots), out.ctypes.data, bounds)
    if size == ctypes.c_size_t(-1).value:
        raise MemoryError(f"{entry} could not allocate its lengths")
    out[size:size + SLACK] = 0
    return out.data[:size], (bounds[0], bounds[1])


def plain_byte_array(slots, out: "np.ndarray | None" = None
                     ) -> "tuple[memoryview, tuple[int, int]] | None":
    """``plain.plain_byte_array``'s bytes for a string/binary array's
    checked slots (``arrays.byte_slots``), with the slots of its smallest
    and largest value (:func:`_page`), or None without the kernel: its
    valid slots, read from its own offsets, validity bitmap and value
    buffer, so a slice of a column whose null slots own bytes needs no
    compacted copy first."""
    return _page("plain_byte_array", slots, 4 * (len(slots.lengths) - slots.null_count), out)


def delta_length_byte_array(slots, out: "np.ndarray | None" = None
                            ) -> "tuple[memoryview, tuple[int, int]] | None":
    """``delta.delta_length_byte_array``'s bytes for a string/binary
    array's checked slots, with the slots of its smallest and largest
    value (:func:`_page`), or None without the kernel: the
    ``delta_binary_pack`` of the valid slots' lengths, then their bytes,
    read from the array's own buffers."""
    return _page("delta_length_byte_array", slots,
                 delta_bound(len(slots.lengths) - slots.null_count), out)


def xxhash64_slots(slots) -> "np.ndarray | None":
    """``bloom.xxhash64`` of each valid slot's bytes of a string/binary
    array's checked slots, as uint64 in slot order, or None without the
    kernel."""
    lib = get_kernel()
    if lib is None:
        return None
    out = np.empty(len(slots.lengths) - slots.null_count, np.uint64)
    lib.xxhash64_slots(*_slot_args(slots), out.ctypes.data)
    return out


# dict_encode's outcomes besides a dictionary: the trial rejected the
# chunk, or a float key that only Arrow can place
DICT_REJECTED, DICT_NAN, DICT_SIGNED_ZERO = 1, 2, 3


def dict_encode(keys: np.ndarray, trial: int
                ) -> "tuple[int, np.ndarray, np.ndarray] | None":
    """``(status, indices, dictionary)`` of ``keys`` (one dimension, 1, 2,
    4 or 8 bytes each, compared by their bits), or None without the
    kernel. Status 0: ``indices`` (uint32, one per key) and
    ``dictionary`` (the keys in first-seen order) are
    ``pc.dictionary_encode``'s. With ``trial`` > 0 the first
    ``min(len(keys), trial)`` keys decide first: more than half of them
    distinct is ``DICT_REJECTED``, ``dictionary`` then holding that
    sample's distinct keys. A float NaN or -0.0, whose place in Arrow's
    dictionary depends on its hash, is ``DICT_NAN`` or
    ``DICT_SIGNED_ZERO`` and nothing else is valid."""
    lib = get_kernel()
    if lib is None:
        return None
    width = keys.dtype.itemsize
    if keys.ndim != 1 or width not in (1, 2, 4, 8) or keys.dtype.kind not in "iuf" \
            or keys.size >= 1 << 32 or trial < 0:
        raise ValueError(f"dict_encode takes 1-d 1/2/4/8-byte numbers, not {keys.dtype} "
                         f"x {keys.shape} (trial {trial})")
    fkind = width if keys.dtype.kind == "f" else 0
    # held for the call: the kernel reads the copy, if any
    v = np.ascontiguousarray(keys).view(f"<u{width}")
    idx = np.empty(v.size, np.uint32)
    dictionary = np.empty(v.size, v.dtype)
    count = ctypes.c_size_t()
    status = lib.dict_encode(v.ctypes.data, v.size, width, fkind, trial,
                             idx.ctypes.data, dictionary.ctypes.data, ctypes.byref(count))
    if status < 0:
        raise MemoryError("dict_encode could not allocate its table")
    return status, idx, dictionary[:count.value]
