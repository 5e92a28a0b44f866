"""Fault-injecting in-memory fsspec filesystems for storage tests.

Two backend classes, each registered under a test-only protocol:

- ``faultmv://`` (:class:`RenameFS`): a rename-based filesystem. Like
  any real filesystem it shows a file at its name from the moment it
  is opened for writing.
- ``faultput://`` (:class:`PutFS`): an atomic-PUT object store. Its
  protocol tuple includes ``s3``, so ``fsio.fs_rename_based`` classes
  it as a store. A write becomes visible only when its file closes,
  ``discard()`` aborts it, ``mv`` raises, and objects have no mtime.

Either can be told to fail the N-th ``write`` call from now
(:meth:`FaultMixin.fail_write`), which is how a test kills a writer
mid-part. Every class keeps its own store; :meth:`FaultMixin.reset`
empties it. ``calls`` counts metadata lookups (``info``, which
``exists``/``size`` go through), listings (``find``, which ``glob``
goes through), whole-object reads (``cat_file``) and, on
``faultput://``, completed PUTs (``put``).
"""
from __future__ import annotations

import io
from collections import Counter

import fsspec
from fsspec.implementations.memory import MemoryFile, MemoryFileSystem


class FaultMixin:
    _countdown: int | None = None
    calls: Counter

    @classmethod
    def fail_write(cls, n: int) -> None:
        """Make the ``n``-th write call from now raise ``OSError``."""
        cls._countdown = n

    @classmethod
    def reset(cls) -> None:
        cls.store.clear()
        cls.pseudo_dirs[:] = [""]
        cls._countdown = None
        cls.calls = Counter()

    @classmethod
    def _tick(cls) -> None:
        if cls._countdown is None:
            return
        cls._countdown -= 1
        if cls._countdown == 0:
            cls._countdown = None
            raise OSError("injected write failure")

    @classmethod
    def _strip_protocol(cls, path):
        for proto in cls.protocol:
            path = path.removeprefix(proto + "://")
        return super()._strip_protocol(path)

    def info(self, path, **kwargs):
        self.calls["info"] += 1
        return super().info(path, **kwargs)

    def find(self, path, *args, **kwargs):
        self.calls["find"] += 1
        return super().find(path, *args, **kwargs)

    def cat_file(self, path, *args, **kwargs):
        self.calls["cat_file"] += 1
        return super().cat_file(path, *args, **kwargs)


class _VisibleFile(MemoryFile):
    def write(self, data):
        self.fs._tick()
        return super().write(data)


class RenameFS(FaultMixin, MemoryFileSystem):
    protocol = ("faultmv",)
    store: dict = {}
    pseudo_dirs = [""]
    calls = Counter()

    def _open(self, path, mode="rb", **kwargs):
        if "w" not in mode:
            return super()._open(path, mode, **kwargs)
        f = _VisibleFile(self, self._strip_protocol(path))
        f.commit()  # at its name from open, like any filesystem
        return f


class _PutFile(io.BytesIO):
    def __init__(self, fs, path):
        super().__init__()
        self.fs, self.path, self._aborted = fs, path, False

    def write(self, data):
        self.fs._tick()
        return super().write(data)

    def discard(self):
        self._aborted = True

    def close(self):
        if not self.closed and not self._aborted:
            self.fs.store[self.path] = MemoryFile(self.fs, self.path,
                                                  self.getvalue())
            self.fs.calls["put"] += 1
        super().close()


class PutFS(FaultMixin, MemoryFileSystem):
    protocol = ("faultput", "s3")
    store: dict = {}
    pseudo_dirs = [""]
    calls = Counter()

    def _open(self, path, mode="rb", **kwargs):
        if "w" not in mode:
            return super()._open(path, mode, **kwargs)
        return _PutFile(self, self._strip_protocol(path))

    def mv(self, *args, **kwargs):
        raise NotImplementedError("an object store has no rename")

    def modified(self, path):
        raise NotImplementedError("no mtime")


fsspec.register_implementation("faultmv", RenameFS, clobber=True)
fsspec.register_implementation("faultput", PutFS, clobber=True)

# each store class by its protocol, for tests run on both
STORES = {"faultmv": RenameFS, "faultput": PutFS}
