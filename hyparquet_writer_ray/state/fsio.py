"""One storage code path for output, lineage and checkpoint state.

Every path resolves to ``(fsspec filesystem, in-fs path)``: fsspec URIs
(``s3://…``, ``memory://…``, ``file://…``) through :func:`url_fs`, plain
local paths through fsspec's ``LocalFileSystem``. Each primitive below
is then the same filesystem call on every backend. The backend class
(:func:`fs_rename_based`) is the only fork, and only three places
consult it: the atomic sink, the atomic put built on it, and the tmp
sweep.

- Filesystems (local, file://, sftp, hdfs, memory, …) show a file at
  its name while it is being written. :func:`atomic_sink` writes a
  unique tmp name and commits it with one ``fs.mv``.
- Object stores (s3, gcs, az) make a PUT visible only once it is
  complete. The sink writes the final name directly and aborts the
  upload on failure, so the previous object survives.

Either way a kill at any instant never leaves a torn object at a final
name. The one tmp name is ``<name>.inprogress-*`` (:func:`tmp_name`);
:func:`clean_stale_tmps` and :func:`clean_dest_tmps` remove the aged
ones a killed run left and log each at DEBUG. The tmp names of older
versions are ``hyparquet_writer_ray/migrate.py``'s to remove, not
every run's. Single-file writers open their sink with
:func:`open_output`.
Markers, lineage records and checkpoint blobs all go through
:func:`write_marker`, the atomic put. A marker is written
only AFTER its directory's data files are complete, and a directory
with data but no marker is treated as a crashed partial write and
cleared.

Arrow-side I/O resolves through :func:`arrow_fs` alone: pyarrow's
native ``LocalFileSystem`` for a local path or ``file://``, the fsspec
filesystem behind ``FSSpecHandler`` for any other URI. Each Arrow
helper below, and every pyarrow open in the package, is one resolve
and one pyarrow or Ray call.

Inputs get the same resolver: :func:`identity` is the one
``(path, size, version)`` of an input file that resume and compaction
key on, and :func:`within` the one "does this path lie in that
directory" test. These two ask the OS directly for a local path,
because fsspec has no form of what they need there: an mtime in
nanoseconds, and symlink resolution.

Windows note: ``C://scratch`` parses as a one-letter scheme and is
treated as a LOCAL path (ADVICE r4: the old substring test
false-positived on it); real fsspec schemes are 2+ characters.
"""
from __future__ import annotations

import glob as _glob
import logging
import os
import posixpath
import stat as _stat
import tempfile
import time
import uuid
from contextlib import contextmanager
from urllib.parse import urlsplit

import pyarrow.parquet as pq

log = logging.getLogger("hyparquet_writer_ray")

__all__ = [
    "is_uri", "url_fs", "join", "exists", "makedirs", "remove",
    "rm_file", "rm_tree", "glob", "glob_in", "listdir", "isdir", "size", "identity",
    "identities", "location", "within", "fs_rename_based", "tmp_name",
    "atomic_sink", "write_marker", "read_bytes", "read_marker",
    "open_input", "open_output", "clean_dest_tmps", "clean_stale_tmps", "mkdtemp",
    "arrow_fs", "pq_read_table", "pq_write_table", "parquet_num_rows",
    "read_parquet_dataset", "write_parquet_dataset_dir",
]


def is_uri(path) -> bool:
    """True for fsspec URIs (``s3://…``, ``memory://…``, ``file://…``):
    a scheme of 2+ characters followed by ``://``. One-letter schemes
    are Windows drive prefixes, and a local path with a colon in its
    first segment (``ab:cd/out``, a timestamped ``…T04:00/out``) has
    no ``://``, so neither is a URI. ``path`` may be an ``os.PathLike``."""
    path = os.fspath(path)
    n = len(urlsplit(path).scheme)
    return n > 1 and path[n : n + 3] == "://"


def url_fs(path: str):
    """(fsspec filesystem, in-fs path) for a URI."""
    import fsspec.core

    return fsspec.core.url_to_fs(path)


def _fs(path: str):
    """(fsspec filesystem, in-fs path) for any path (``os.PathLike``
    too)."""
    path = os.fspath(path)
    if is_uri(path):
        return url_fs(path)
    from fsspec.implementations.local import LocalFileSystem

    return LocalFileSystem(), path


def _is_local(fs) -> bool:
    from fsspec.implementations.local import LocalFileSystem

    return isinstance(fs, LocalFileSystem)


def join(base: str, *parts: str) -> str:
    if is_uri(base):
        return posixpath.join(base, *parts)
    return os.path.join(base, *parts)


# Object stores: a PUT is invisible until complete and atomic at close,
# while "rename" would be copy+delete, so these write final names
# directly. Every other protocol (file, sftp, hdfs, webhdfs, memory, …)
# writes through a filesystem, visible while in progress, and gets
# tmp + mv. An unknown protocol therefore defaults to the
# torn-write-safe side.
_ATOMIC_PUT_FS = frozenset(("s3", "s3a", "gs", "gcs", "az", "abfs", "abfss"))


def fs_rename_based(fs) -> bool:
    proto = fs.protocol
    protos = (proto,) if isinstance(proto, str) else proto
    return not any(p in _ATOMIC_PUT_FS for p in protos)


def exists(path: str) -> bool:
    fs, p = _fs(path)
    return fs.exists(p)


def makedirs(path: str) -> None:
    fs, p = _fs(path)
    fs.makedirs(p, exist_ok=True)


def size(path: str) -> int | None:
    """Size in bytes of the file at ``path``, None when it is missing."""
    fs, p = _fs(path)
    try:
        return fs.size(p)
    except FileNotFoundError:
        return None


def isdir(path: str) -> bool:
    fs, p = _fs(path)
    return fs.isdir(p)


# info() keys that carry an object's version on fsspec stores, in order
# of preference: s3 and azure report an etag, gcs a generation too
_VERSION_KEYS = ("ETag", "etag", "generation", "mtime")


def identity(path: str) -> tuple[str, int, str]:
    """``(path, size, version)`` of the input file at ``path``: what
    resume and compaction key an input on, from one metadata lookup and
    no read. ``path`` comes back absolute for a local path and as given
    for a URI, so the identity does not depend on the working directory.

    Locally (and for ``file://``) the version is ``st_mtime_ns``:
    fsspec's ``info()["mtime"]`` is float seconds and loses the low
    digits. On other backends it is the first of etag, generation or
    mtime that ``info()`` reports, or ``""`` when there is none (an
    in-memory filesystem). So a rewrite that keeps the size AND the
    version goes unseen: a same-size in-place edit within one mtime
    tick, or any same-size rewrite on a backend with no version. A
    directory raises IsADirectoryError: its own metadata does not
    change when a file inside it is rewritten in place."""
    fs, p = _fs(path)
    key = path if is_uri(path) else os.path.abspath(path)
    if _is_local(fs):
        st = os.stat(p)
        if _stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(path)
        return key, st.st_size, str(st.st_mtime_ns)
    return _identity_of(path, fs.info(p))


def _identity_of(path: str, info: dict) -> tuple[str, int, str]:
    if info["type"] == "directory":
        raise IsADirectoryError(path)
    version = next((info[k] for k in _VERSION_KEYS if info.get(k) is not None), "")
    return path, int(info["size"]), str(version)


def listdir(path: str) -> dict[str, dict]:
    """The files directly inside the directory ``path``, each name
    mapped to its ``info()`` entry (``size`` and the version fields),
    from one fresh listing: no metadata request per file. Empty when
    ``path`` is missing."""
    fs, p = _fs(path)
    fs.invalidate_cache(p)
    return {posixpath.basename(k): v
            for k, v in fs.find(p, maxdepth=1, detail=True).items()
            if v.get("type") == "file"}


def identities(paths) -> list[tuple[str, int, str]]:
    """:func:`identity` of each of ``paths``, in order. URIs that share
    a directory are looked up with one listing of it (:func:`listdir`),
    not one metadata request each; a URI alone in its directory or
    missing from the listing gets its own lookup. A local path
    (``file://`` too) is one ``stat`` each."""
    by_dir: dict[str, list[str]] = {}
    for p in paths:
        if not _is_local(_fs(p)[0]):
            by_dir.setdefault(posixpath.dirname(p), []).append(p)
    listed = {}
    for d, group in by_dir.items():
        if len(group) < 2:
            continue
        entries = listdir(d)
        for p in group:
            info = entries.get(posixpath.basename(p))
            if info:
                listed[p] = _identity_of(p, info)
    return [listed.get(p) or identity(p) for p in paths]


def location(path: str) -> tuple[str, str]:
    """Where ``path`` points, spelled one way, so two spellings of one
    file compare equal: a local path (``file://`` too) is its realpath,
    any other its protocol and normalised in-fs path."""
    fs, p = _fs(path)
    if _is_local(fs):
        return "file", os.path.realpath(p)
    proto = fs.protocol if isinstance(fs.protocol, str) else fs.protocol[0]
    return proto, posixpath.normpath(p)


def within(path: str, base: str) -> bool:
    """True when ``path`` lies inside the directory ``base``. Local
    paths (``file://`` included) compare with symlinks resolved; other
    backends compare their in-fs paths, and never match across
    backends."""
    fs, p = _fs(path)
    base_fs, b = _fs(base)
    if _is_local(fs) and _is_local(base_fs):
        p, b = os.path.realpath(p), os.path.realpath(b)
    elif fs.protocol != base_fs.protocol:
        return False
    return p.startswith(b.rstrip("/") + "/")


def _kind(fs, p: str) -> str | None:
    try:
        return fs.info(p)["type"]
    except FileNotFoundError:
        return None


def remove(path: str) -> None:
    """Delete one file if present (missing is not an error; any OTHER
    failure raises — checkpoint cleanup that silently leaves a stale
    file behind turns into duplicated rows on the next read). A
    directory raises, after one metadata request (:func:`rm_file` has
    none)."""
    if _kind(*_fs(path)) == "directory":
        raise IsADirectoryError(path)
    rm_file(path)


def rm_file(path: str) -> None:
    """Delete the file at ``path``, missing-ok, with no metadata
    request: for a path that a listing returned as a file."""
    fs, p = _fs(path)
    try:
        fs.rm_file(p)
    except FileNotFoundError:
        pass


def rm_tree(path: str) -> None:
    """Recursive delete, missing-ok. Real failures (EACCES, EBUSY, a
    file pinned by nfs silly-rename, a file where a directory was
    expected) RAISE: _checkpoint_dataset clears a crashed partial
    checkpoint and then appends fresh files, so a silently half-cleared
    directory would double rows under a _DONE marker that resume then
    trusts."""
    fs, p = _fs(path)
    kind = _kind(fs, p)
    if kind == "file":
        raise NotADirectoryError(path)
    if kind is None:
        return
    try:
        fs.rm(p, recursive=True)
    except FileNotFoundError:
        pass


def glob(pattern: str) -> list[str]:
    """Glob that returns paths in the caller's namespace: full URIs for
    URI patterns, plain paths for local ones. The WHOLE argument is a
    pattern — when the directory part is a literal path that may
    contain metacharacters (``run[1]/``), use :func:`glob_in`."""
    fs, p = _fs(pattern)
    # ``pattern`` and its in-fs form differ only in a prefix (a scheme,
    # or the cwd of a relative local path): map matches back through it
    full = fs._strip_protocol(p)
    common = len(os.path.commonprefix([pattern[::-1], full[::-1]]))
    head, fs_head = pattern[: len(pattern) - common], full[: len(full) - common]
    return sorted(head + m[len(fs_head):] for m in fs.glob(p))


def glob_in(base: str, pattern: str) -> list[str]:
    """Glob ``pattern`` inside the LITERAL directory ``base``:
    metacharacters in ``base`` are escaped, so an out_dir named
    ``run[1]`` cannot silently match nothing (which would read as
    "no completed parts" and break resume)."""
    return glob(join(_glob.escape(base), pattern))


def tmp_name(path: str) -> str:
    """In-flight name for a file that becomes ``path`` by rename:
    ``<path>.inprogress-<pid>-<random>``, the one name the tmp sweeps
    match. The random part keeps two writers with one pid (on hosts
    sharing an nfs/sftp namespace) or one process writing the same name
    twice from clobbering each other's tmp."""
    return f"{path}.inprogress-{os.getpid()}-{os.urandom(4).hex()}"


@contextmanager
def atomic_sink(path: str):
    """The one streaming atomic sink: after a failure or a kill at any
    instant, ``path`` holds its previous object (or nothing), never a
    torn one.

    Filesystems write ``<path>.inprogress-*`` (:func:`tmp_name`) and
    commit it with one ``fs.mv``; the name is unique per attempt, so
    two tasks producing the same content-addressed part never
    interleave into one tmp (the loser's commit would find it renamed
    away). Object stores write ``path`` directly: a PUT is invisible
    until it completes, and a failed one is discarded."""
    fs, p = _fs(path)
    if fs_rename_based(fs):
        tmp = tmp_name(p)
        try:
            with fs.open(tmp, "wb") as f:
                yield f
            fs.mv(tmp, p)
        finally:
            if fs.exists(tmp):
                fs.rm(tmp)
        return
    f = fs.open(p, "wb")
    try:
        yield f
    except BaseException:
        for abort in (f.discard, f.close):  # nothing is committed
            try:
                abort()
            except Exception:
                pass
        raise
    f.close()


def write_marker(path: str, data: bytes | str = b"ok") -> None:
    """The one atomic small-object put, through :func:`atomic_sink`.
    Completion markers, lineage records and checkpoint blobs are
    TRUSTED on resume, so a kill mid-write must never leave a torn one
    at its name."""
    with atomic_sink(path) as f:
        f.write(data.encode() if isinstance(data, str) else data)


def read_bytes(path: str, start: int | None = None) -> bytes:
    """The bytes of ``path``; from ``start`` on if given, counted from
    the end when negative."""
    fs, p = _fs(path)
    return fs.cat_file(p, start=start)


def read_marker(path: str) -> str:
    return read_bytes(path).decode()


def open_input(path: str):
    """Binary read handle (a context manager) for ``path``."""
    fs, p = _fs(path)
    return fs.open(p, "rb")


@contextmanager
def open_output(sink):
    """Binary write handle (a context manager) for a single-file
    writer's ``sink``: a path (a ``str`` or an ``os.PathLike``) is
    swept of aged tmps (:func:`clean_dest_tmps`) and written through
    :func:`atomic_sink`; a file object is used as is, and left open."""
    if not isinstance(sink, (str, os.PathLike)):
        yield sink
        return
    clean_dest_tmps(sink)
    with atomic_sink(sink) as f:
        yield f


def parquet_num_rows(path) -> int:
    """Footer-only row count (no data scan)."""
    fs, p = arrow_fs(path)
    return pq.read_metadata(p, filesystem=fs).num_rows


STALE_TMP_AGE_SEC = 3600.0


def _fs_mtime(fs, path: str) -> float | None:
    """Modification time in epoch seconds, or None when the backend
    exposes none. fsspec's sftp/ftp filesystems don't implement
    ``fs.modified`` (AbstractFileSystem raises NotImplementedError) but
    DO populate an mtime in ``fs.info`` — fall through to it so the
    age-gated tmp sweeps actually run there."""
    try:
        return fs.modified(path).timestamp()
    except Exception:
        pass
    try:
        m = fs.info(path).get("mtime")
    except Exception:
        return None
    if m is None:
        return None
    return m.timestamp() if hasattr(m, "timestamp") else float(m)


def _sweep_tmps(base: str, pattern: str, max_age: float) -> list[str]:
    """Remove the tmps matching ``base`` (a literal path) + ``pattern``
    that are older than ``max_age`` and return their in-fs paths.
    Object stores write no tmps; a backend with no mtime keeps them.
    Age-gated because a concurrent writer's live tmp must survive — a
    healthy writer finishes a part in seconds, so an hour-old tmp is a
    crashed run's, not a live one's."""
    fs, p = _fs(base)
    if not fs_rename_based(fs):
        return []
    cutoff = time.time() - max_age
    removed = []
    for f in fs.glob(_glob.escape(p) + pattern):
        try:
            mt = _fs_mtime(fs, f)
            if mt is not None and mt < cutoff:
                fs.rm(f)
                removed.append(f)
        except Exception:
            pass
    return removed


def clean_dest_tmps(path: str, max_age: float = STALE_TMP_AGE_SEC) -> None:
    """Remove aged ``<path>.inprogress-*`` orphans left by hard-killed
    single-file writes (each attempt uses a fresh random tmp name, and
    a SIGKILL skips the sink's cleanup; the dataset writers sweep via
    clean_stale_tmps, but a single-file destination has no out_dir
    sweep)."""
    for f in _sweep_tmps(path, ".inprogress-*", max_age):
        log.debug("removed aged tmp %s", f)


def clean_stale_tmps(out_dir: str, max_age: float = STALE_TMP_AGE_SEC) -> None:
    """Remove .inprogress-* leftovers of previous killed runs anywhere
    under ``out_dir``, lineage records and checkpoint blobs included
    (the current run's tmps don't exist yet when this is called). Two
    live writers may share one out_dir (the compaction lineage
    namespace explicitly supports it), hence the age gate."""
    for f in _sweep_tmps(out_dir, "/**/*.inprogress-*", max_age):
        log.debug("removed aged tmp %s", f)


def mkdtemp(prefix: str, base: str | None = None) -> str:
    """Unique fresh directory ``base/<prefix><uuid>`` (uuid4 collisions
    are not a practical concern); under the system temp dir when
    ``base`` is unset."""
    if not base:
        return tempfile.mkdtemp(prefix=prefix)
    d = join(base, f"{prefix}{uuid.uuid4().hex}")
    makedirs(d)
    return d


def arrow_fs(path):
    """(pyarrow FileSystem, path in it) for ``path``, a ``str`` or an
    ``os.PathLike``: pyarrow's native ``LocalFileSystem`` and the
    absolute path for a local path or ``file://``, as Ray reads them;
    for any other URI its fsspec filesystem behind ``FSSpecHandler``,
    which pickles, so it ships to Ray workers."""
    from pyarrow.fs import FSSpecHandler, LocalFileSystem, PyFileSystem

    fs, p = _fs(path)
    if _is_local(fs):
        return LocalFileSystem(), os.path.abspath(p)
    return PyFileSystem(FSSpecHandler(fs)), p


def pq_read_table(path, **kw):
    fs, p = arrow_fs(path)
    return pq.read_table(p, filesystem=fs, **kw)


def pq_write_table(table, path, **kw) -> None:
    fs, p = arrow_fs(path)
    pq.write_table(table, p, filesystem=fs, **kw)


def read_parquet_dataset(path_or_paths, **kw):
    """``ray.data.read_parquet`` of a directory, a file or a list of
    them, on the first one's filesystem (:func:`arrow_fs`). Each path
    goes in as its fsspec in-fs path, not made absolute, so a relative
    local input keeps its spelling in ``include_paths`` and in the
    blocks hashed from them."""
    import ray.data

    if isinstance(path_or_paths, (str, os.PathLike)):
        path_or_paths = [path_or_paths]
    kw = {"filesystem": arrow_fs(path_or_paths[0])[0], **kw}
    return ray.data.read_parquet([_fs(p)[1] for p in path_or_paths], **kw)


def write_parquet_dataset_dir(ds, path) -> None:
    """``ds.write_parquet`` into the directory ``path``."""
    fs, p = arrow_fs(path)
    ds.write_parquet(p, filesystem=fs)
