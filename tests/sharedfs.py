"""``sharedfs://``: an fsspec-only protocol that Ray workers can use.

The in-memory stores of ``faultfs.py`` live in one process, so a Ray
worker sees them empty. This protocol maps ``sharedfs://<path>`` onto
a local directory, :attr:`SharedFS.root`, which the test sets; an
instance pickles with its directory, and a worker imports this module
as ``tests.sharedfs`` (Ray puts the driver's working directory, the
repository root, on the workers' path), so it needs no registration
there. pyarrow knows no ``sharedfs`` scheme, so only a reader that
resolves URIs through fsspec can read it."""
from __future__ import annotations

import fsspec
from fsspec.implementations.dirfs import DirFileSystem
from fsspec.implementations.local import LocalFileSystem


class SharedFS(DirFileSystem):
    protocol = "sharedfs"
    cachable = False  # an instance holds the root of its time
    root = ""

    def __init__(self, path: str = "", **kw) -> None:
        super().__init__(path=path or self.root, fs=LocalFileSystem(), **kw)

    def __reduce__(self):
        return type(self), (self.path,)


fsspec.register_implementation("sharedfs", SharedFS, clobber=True)
