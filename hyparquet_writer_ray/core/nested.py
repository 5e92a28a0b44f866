"""Dremel definition/repetition level computation for nested columns
(struct / list / map), from Arrow offset & validity buffers
(reference: src/dremel.js:16-163).

One recursive path for every struct/list/map nesting: it walks the
Arrow child arrays level by level down to each leaf, array-at-a-time
(the recursion is over schema depth, not rows).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .arrays import drop_null_fast, single_chunk, validity_mask
from .types import LeafInfo


@dataclass
class LeveledValues:
    """A leaf's Dremel encoding: flattened values + level arrays."""

    # the non-null leaf values; a flat string/binary leaf keeps its slots
    # instead, nulls in place, one entry per slot (chunk._Values)
    values: pa.Array
    def_levels: np.ndarray | None  # uint8 per slot (None when max_def == 0)
    rep_levels: np.ndarray | None  # uint8 per slot (None when max_rep == 0)
    max_def: int
    max_rep: int
    num_rows: int
    null_count: int  # slots with def < max_def


# ---------------------------------------------------------------------------
# generic recursion over the arrow type tree
# ---------------------------------------------------------------------------


@dataclass
class _Slots:
    """Intermediate state while descending: one entry per Dremel slot.

    ``present`` marks slots that still carry a value at this depth;
    ``def_`` / ``rep`` are the levels emitted so far; ``index`` maps
    present slots to positions in the current arrow array.
    """

    def_: np.ndarray  # uint8, all slots
    rep: np.ndarray  # uint8, all slots
    present: np.ndarray  # bool, all slots
    index: np.ndarray  # int64, len == present.sum(); positions into `arr`
    arr: pa.Array


def _list_offsets(arr: pa.Array) -> np.ndarray:
    t = arr.type
    dt = np.int64 if (pa.types.is_large_list(t)) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=dt, count=arr.offset + len(arr) + 1)
    return off[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)


def _descend_optional(s: _Slots, arr: pa.Array) -> _Slots:
    """Consume one OPTIONAL nesting level: null slots terminate here."""
    valid = validity_mask(arr)[s.index] if arr.null_count else np.ones(len(s.index), bool)
    new_def = s.def_.copy()
    present_idx = np.nonzero(s.present)[0]
    new_def[present_idx[valid]] += 1
    new_present = s.present.copy()
    new_present[present_idx[~valid]] = False
    return _Slots(new_def, s.rep, new_present, s.index[valid], arr)


def _expand_repeated(s: _Slots, offsets: np.ndarray, rep_level: int, child: pa.Array) -> _Slots:
    """Consume one REPEATED level (a list's inner repetition): each present
    slot expands to its elements; empty lists terminate as a single slot."""
    n_slots = len(s.def_)
    lens = np.zeros(n_slots, dtype=np.int64)
    present_idx = np.nonzero(s.present)[0]
    row_lens = offsets[s.index + 1] - offsets[s.index]
    lens[present_idx] = row_lens
    counts = np.maximum(lens, 1)  # absent/empty slots still emit one record
    total = int(counts.sum())
    starts = np.zeros(n_slots, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])

    new_def = np.repeat(s.def_, counts)
    new_rep = np.repeat(s.rep, counts)
    # elements after the first within a list carry this repetition level
    first_slot = np.zeros(total, dtype=bool)
    first_slot[starts] = True
    expanded_present = np.repeat(s.present & (lens > 0), counts)
    new_rep[~first_slot & expanded_present] = rep_level
    # non-first slots of non-present rows can't exist (count==1), fine

    # present slots with len>0: def +1 (the repeated element exists)
    new_def[expanded_present] += 1
    new_present = expanded_present

    # child indices: concatenated ranges per present row
    pr_lens = row_lens[row_lens > 0]
    pr_starts = offsets[s.index][row_lens > 0]
    child_idx = (
        np.repeat(pr_starts, pr_lens)
        + np.arange(int(pr_lens.sum()), dtype=np.int64)
        - np.repeat(np.concatenate([[0], np.cumsum(pr_lens)])[:-1], pr_lens)
    ) if len(pr_lens) else np.empty(0, np.int64)
    return _Slots(new_def, new_rep, new_present, child_idx, child)


def _walk(s: _Slots, leaf: LeafInfo, depth: int, rep_depth: int) -> LeveledValues:
    """Descend from the current arrow array to the leaf, consuming the
    schema path elements below ``depth``."""
    arr = s.arr
    t = arr.type
    if pa.types.is_struct(t):
        # the struct's own optionality was consumed by caller; descend into
        # the child field named by the path
        child_name = leaf.path[depth]
        field_idx = t.get_field_index(child_name)
        child = arr.field(field_idx)
        f = t.field(field_idx)
        s2 = _Slots(s.def_, s.rep, s.present, s.index, child)
        if f.nullable:
            s2 = _descend_optional(s2, child)
        return _walk(s2, leaf, depth + 1, rep_depth)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        offsets = _list_offsets(arr)
        child = arr.values
        s2 = _expand_repeated(s, offsets, rep_depth + 1, child)
        f = t.value_field
        if f.nullable:
            s2 = _descend_optional(s2, child)
        # path consumed: group name + 'list' + 'element' → depth + 2
        return _walk(s2, leaf, depth + 2, rep_depth + 1)
    if pa.types.is_map(t):
        offsets = _list_offsets(arr)
        entries = arr.values  # struct<key, value>
        s2 = _expand_repeated(s, offsets, rep_depth + 1, entries)
        # depth points at 'key_value'; next path element is 'key' or 'value'
        child_name = leaf.path[depth + 1]
        child = entries.field(0 if child_name == "key" else 1)
        s3 = _Slots(s2.def_, s2.rep, s2.present, s2.index, child)
        if child_name == "value":
            s3 = _descend_optional(s3, child)
        return _walk(s3, leaf, depth + 2, rep_depth + 1)

    # leaf: gather values at surviving (non-null) slot indices
    if len(s.index) == len(arr) and (len(arr) == 0 or bool((s.index == np.arange(len(arr))).all())):
        vals = arr
    else:
        vals = arr.take(pa.array(s.index, type=pa.int64()))
    if vals.null_count:
        # dropping a null whose def level says "value present" (a null
        # under a non-nullable field) would shift every later value
        # across rows — a silently corrupt file; raise like the flat
        # path (_prepare) does
        expected = int((s.def_ == leaf.max_definition_level).sum())
        if len(vals) - vals.null_count != expected:
            raise ValueError(
                f"column {'.'.join(leaf.path)}: null values under a "
                f"non-nullable field; declare the field nullable")
        vals = drop_null_fast(vals)
    null_count = int(len(s.def_) - (s.def_ == leaf.max_definition_level).sum())
    num_rows = int((s.rep == 0).sum()) if leaf.max_repetition_level else len(s.def_)
    return LeveledValues(
        values=vals,
        def_levels=s.def_ if leaf.max_definition_level else None,
        rep_levels=s.rep if leaf.max_repetition_level else None,
        max_def=leaf.max_definition_level,
        max_rep=leaf.max_repetition_level,
        num_rows=num_rows,
        null_count=null_count,
    )


def compute_levels(col, leaf: LeafInfo) -> LeveledValues:
    """Dremel-encode one top-level column down to ``leaf``."""
    arr = single_chunk(col)
    n = len(arr)
    s = _Slots(
        def_=np.zeros(n, dtype=np.uint8),
        rep=np.zeros(n, dtype=np.uint8),
        present=np.ones(n, dtype=bool),
        index=np.arange(n, dtype=np.int64),
        arr=arr,
    )
    if leaf.top_optional:
        s = _descend_optional(s, arr)
    return _walk(s, leaf, 1, 0)


def nested_leaf_arrays(col, leaves: list[LeafInfo]) -> list[LeveledValues]:
    return [compute_levels(col, leaf) for leaf in leaves]
