"""Geospatial tests: GeoJSON<->WKB roundtrip, bbox/type-code stats,
footer field (reference test/wkb.test.js, test/geospatial.test.js)."""
from __future__ import annotations

import io
import math

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import assert_roundtrip
from hyparquet_writer_ray import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core import geo
from hyparquet_writer_ray.core.thrift import CompactReader

GEOMS = [
    {"type": "Point", "coordinates": [1.0, 2.0]},
    {"type": "Point", "coordinates": [1.0, 2.0, 3.0]},
    {"type": "LineString", "coordinates": [[0.0, 0.0], [1.0, 1.0]]},
    {"type": "Polygon", "coordinates": [[[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 0.0]]]},
    {"type": "MultiPoint", "coordinates": [[1.0, 1.0], [2.0, 2.0]]},
    {"type": "MultiLineString", "coordinates": [[[0.0, 0.0], [1.0, 0.0]], [[2.0, 2.0], [3.0, 3.0]]]},
    {"type": "MultiPolygon", "coordinates": [[[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]]]},
    {"type": "GeometryCollection", "geometries": [
        {"type": "Point", "coordinates": [5.0, 6.0]},
        {"type": "LineString", "coordinates": [[0.0, 0.0], [-1.0, -2.0]]},
    ]},
]


@pytest.mark.parametrize("g", GEOMS, ids=[g["type"] for g in GEOMS])
def test_wkb_roundtrip(g):
    wkb = geo.geojson_to_wkb(g)
    back, consumed = geo.wkb_to_geojson(wkb)
    assert consumed == len(wkb)
    assert back == g


def test_wkb_point_bytes():
    # Point(1,2) LE: 01 01000000 x y
    wkb = geo.geojson_to_wkb({"type": "Point", "coordinates": [1.0, 2.0]})
    assert wkb[:5] == b"\x01\x01\x00\x00\x00"
    assert len(wkb) == 21


def test_wkb_z_type_code():
    wkb = geo.geojson_to_wkb({"type": "Point", "coordinates": [1.0, 2.0, 3.0]})
    assert int.from_bytes(wkb[1:5], "little") == 1001  # Point Z


def test_geospatial_statistics():
    st = geo.geospatial_statistics([
        geo.geojson_to_wkb({"type": "Point", "coordinates": [1.0, 5.0]}),
        None,
        geo.geojson_to_wkb({"type": "LineString", "coordinates": [[-3.0, 2.0], [10.0, 7.0]]}),
        geo.geojson_to_wkb({"type": "Point", "coordinates": [0.0, 0.0, 9.0]}),
    ])
    assert (st.xmin, st.xmax, st.ymin, st.ymax) == (-3.0, 10.0, 0.0, 7.0)
    assert (st.zmin, st.zmax) == (9.0, 9.0)
    assert st.geospatial_types == [1, 2, 1001]


def test_nan_skipped_per_dimension():
    st = geo.geospatial_statistics([
        geo.geojson_to_wkb({"type": "Point", "coordinates": [float("nan"), 2.0]}),
        geo.geojson_to_wkb({"type": "Point", "coordinates": [1.0, float("nan")]}),
    ])
    assert (st.xmin, st.ymin) == (1.0, 2.0)


def test_geometry_column_in_file():
    wkbs = [geo.geojson_to_wkb(g) for g in GEOMS] + [None]
    t = pa.table({"geom": pa.array(wkbs, type=pa.binary()), "id": pa.array(range(9), pa.int64())})
    opts = WriteOptions(column_specs={"geom": ColumnSpec(geospatial=True)})
    buf = assert_roundtrip(t, opts)
    # footer: GeospatialStatistics struct on the geom chunk; no byte min/max
    flen = int.from_bytes(buf[-8:-4], "little")
    fmeta = CompactReader(buf[-8 - flen : -8]).read_struct()
    md = fmeta[4][0][1][0][3]
    assert 17 in md, "geospatial stats missing"
    gst = md[17]
    bbox = gst[1]
    assert bbox[1] == -3.0 or bbox[1] <= 0.0  # xmin
    assert sorted(gst[2]) == gst[2]
    stats = md.get(12, {})
    assert 5 not in stats and 6 not in stats  # no min/max for geometry
    assert stats.get(3) == 1  # null_count preserved


def test_geometry_schema_override_in_footer():
    """``geometry_schema_override`` marks a WKB column GEOMETRY with its
    crs, next to its geospatial statistics. pyarrow cannot read such a
    file, so the package's own footer reader is the oracle."""
    from hyparquet_writer_ray import write_table_to_bytes
    from hyparquet_writer_ray.core.reader import read_footer, top_level_leaf

    t = pa.table({"g": pa.array(
        [geo.geojson_to_wkb({"type": "Point", "coordinates": [3.0, -4.0]})], pa.binary())})
    buf = write_table_to_bytes(t, WriteOptions(
        schema_overrides={"g": geo.geometry_schema_override("OGC:CRS84")},
        column_specs={"g": ColumnSpec(geospatial=True)}))
    fmeta = read_footer(io.BytesIO(buf))
    el = fmeta[2][1]
    assert el[4] == b"g" and el[10] == {17: {1: b"OGC:CRS84"}}
    ci = top_level_leaf(fmeta[2], "g")[0]
    bbox = fmeta[4][0][1][ci][3][17][1]
    assert (bbox[1], bbox[2], bbox[3], bbox[4]) == (3.0, 3.0, -4.0, -4.0)
