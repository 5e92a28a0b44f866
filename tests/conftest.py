from __future__ import annotations

import io

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=4, include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@pytest.fixture
def no_kernel(monkeypatch):
    """The compiled kernel disabled for one test: FSST, the page
    encoders, the byte-array layouts, bloom hashing and the dictionary
    encoder run their fallbacks."""
    from hyparquet_writer_ray.core import _kernel

    monkeypatch.setattr(_kernel, "_tried", True)
    monkeypatch.setattr(_kernel, "_lib", None)


def roundtrip(table: pa.Table, opts=None) -> pa.Table:
    """Write with our engine, read back with pyarrow (independent oracle)."""
    from hyparquet_writer_ray import write_table_to_bytes

    buf = write_table_to_bytes(table, opts)
    return pq.read_table(io.BytesIO(buf))


def assert_roundtrip(table: pa.Table, opts=None) -> bytes:
    from hyparquet_writer_ray import write_table_to_bytes

    buf = write_table_to_bytes(table, opts)
    got = pq.read_table(io.BytesIO(buf))
    if got.schema != table.schema:
        got = got.cast(table.schema)
    assert got.equals(table), f"roundtrip mismatch:\n{table.to_pydict()}\nvs\n{got.to_pydict()}"
    return buf


def duckdb_roundtrip(table: pa.Table, opts=None) -> None:
    """Cross-check with a second independent reader."""
    import tempfile

    import duckdb

    from hyparquet_writer_ray import write_table_to_bytes

    buf = write_table_to_bytes(table, opts)
    with tempfile.NamedTemporaryFile(suffix=".parquet") as f:
        f.write(buf)
        f.flush()
        got = duckdb.sql(f"SELECT * FROM '{f.name}'").arrow()
    got = got.cast(table.schema)
    assert got.equals(table)
