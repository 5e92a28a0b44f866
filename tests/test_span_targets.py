"""The traced benchmark (``perfbench/spans.py``) patches each call site
by name in the module or class that calls it. A call site renamed or
dropped by a refactor breaks ``perfbench/run.py --trace 1`` (``install``
looks every name up) or silently empties a per-layer metric, so every
target must resolve to a function its owner still holds."""
from __future__ import annotations

import inspect
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import spans  # noqa: E402

TARGETS = spans._targets()


@pytest.mark.parametrize("owner,attr,kind", [t[:3] for t in TARGETS],
                         ids=[f"{getattr(t[0], '__name__', t[0])}.{t[1]}" for t in TARGETS])
def test_every_span_target_resolves(owner, attr, kind):
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert fn is not None, f"{owner} has no {attr}"
    fn = getattr(fn, "__perfbench_orig__", fn)
    assert callable(fn)
    assert inspect.isgeneratorfunction(fn) == (kind == "gen"), (owner, attr)


def test_chunk_call_sites_are_called_by_the_page_loop():
    """The ``core.chunk`` names the spans wrap are the ones
    ``encode_chunk`` and its helpers call, not just imported."""
    from hyparquet_writer_ray.core import chunk

    source = inspect.getsource(chunk)
    for owner, attr, *_ in TARGETS:
        if owner is chunk:
            # a bare call, not a method of another module (``F.compress``)
            assert re.search(rf"(?<![\w.]){attr}\(", source), attr
