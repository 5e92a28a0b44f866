"""CLI: distributed parquet encode, runnable directly or as the script
of a ``ray job submit`` (the cluster deployment shape of the north
rule — on a real cluster Ray is initialized by the job runtime; here
we attach to the local cluster if none exists).

Examples:
  python -m hyparquet_writer_ray encode --input /data/in --output /data/out
  python -m hyparquet_writer_ray encode --input /data/in/*.parquet \
      --output /data/out --mode files --codec zstd --codec-level 12
  ray job submit --working-dir . -- \
      python -m hyparquet_writer_ray encode --input s3://... --output ...

An out_dir or checkpoint dir written by an older version is upgraded
once, before it is resumed (hyparquet_writer_ray/migrate.py):
  python -m hyparquet_writer_ray migrate /data/out [--input /data/in]
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _build_opts(args):
    from .core.options import ColumnSpec, WriteOptions
    from .core.types import Codec

    specs = {}
    for col in args.fsst or []:
        specs[col] = ColumnSpec(fsst=True)
    for col in args.bloom or []:
        specs.setdefault(col, ColumnSpec()).bloom_filter = True
    return WriteOptions(
        codec=Codec[args.codec.upper()],
        codec_level=args.codec_level,
        auto_codec=args.auto_codec,
        column_specs=specs,
    )


def _expand_inputs(patterns, recursive: bool) -> list[str]:
    """The input files of ``--input``: a directory stands for its
    ``*.parquet`` files, in its subdirectories too when ``recursive``
    (a hive-partitioned input keeps its ``key=value`` columns); anything
    else is a file or a glob, local or an fsspec URI. A pattern that
    matches nothing is an error."""
    from .state import fsio

    paths = []
    for pat in patterns:
        if fsio.isdir(pat):
            found = fsio.glob_in(pat, "**/*.parquet" if recursive else "*.parquet")
        else:
            found = fsio.glob(pat)
        if not found:
            raise SystemExit(f"--input {pat}: no parquet files found")
        paths += found
    return sorted(paths)


def cmd_encode(args) -> int:
    import ray

    # dataset modes read a directory's subdirectories, as
    # ray.data.read_parquet does; files mode maps top-level files
    paths = _expand_inputs(args.input, recursive=args.mode != "files")
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)

    from .pipelines.write import (
        read_parquet_fused,
        write_parquet_dataset,
        write_parquet_files,
        write_parquet_single_file,
    )

    opts = _build_opts(args)
    t0 = time.perf_counter()
    if args.mode == "files":
        stats = write_parquet_files(
            paths, args.output, opts, resume=not args.no_resume,
            columns=args.columns,
        )
    else:
        ds = read_parquet_fused(paths, columns=args.columns)
        if args.mode == "single-file":
            stats = write_parquet_single_file(ds, args.output, opts)
        else:
            stats = write_parquet_dataset(
                ds, args.output, opts, resume=not args.no_resume,
                repartition_blocks=args.repartition,
            )
    stats["wall_sec"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(stats))
    ray.shutdown()
    return 0


def cmd_migrate(args) -> int:
    from .migrate import migrate

    inputs = _expand_inputs(args.input, recursive=False) if args.input else None
    try:
        summary = migrate(args.dir, inputs)
    except FileNotFoundError as e:
        raise SystemExit(f"migrate: {e}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hyparquet_writer_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    enc = sub.add_parser("encode", help="re-encode parquet input with this engine")
    enc.add_argument("--input", nargs="+", required=True,
                     help="input parquet files/dirs/globs")
    enc.add_argument("--output", required=True, help="output file or directory")
    enc.add_argument("--mode", choices=["dataset", "files", "single-file"],
                     default="dataset")
    enc.add_argument("--codec", default="snappy",
                     choices=["uncompressed", "snappy", "gzip", "zstd", "lz4_raw", "brotli"])
    enc.add_argument("--codec-level", type=int, default=None)
    enc.add_argument("--auto-codec", choices=["reference", "smart"], default="smart")
    enc.add_argument("--columns", nargs="*", default=None, help="column pruning")
    enc.add_argument("--fsst", nargs="*", default=None, help="FSST-compress these columns")
    enc.add_argument("--bloom", nargs="*", default=None, help="bloom filters on these columns")
    enc.add_argument("--repartition", type=int, default=None)
    enc.add_argument("--no-resume", action="store_true")
    enc.set_defaults(fn=cmd_encode)
    mig = sub.add_parser("migrate", help="upgrade a dir written by an older "
                         "version, once, so it can be resumed")
    mig.add_argument("dir", help="an out_dir or a checkpoint_dir")
    mig.add_argument("--input", nargs="+", default=None,
                     help="the inputs of a files-mode run into dir: "
                     "their legacy-named parts are removed")
    mig.set_defaults(fn=cmd_migrate)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
