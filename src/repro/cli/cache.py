"""``repro cache``: maintenance of the content-addressed artifact
store (:mod:`repro.pipeline.maintenance`)."""

from __future__ import annotations

import argparse
import os
import sys


def cmd_cache(args: argparse.Namespace) -> int:
    import json as json_mod

    from ..pipeline import ArtifactStore, parse_age, parse_size
    from ..pipeline.maintenance import clear, entries, gc

    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        print(
            "error: no cache directory (pass --cache-dir or set "
            "REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    store = ArtifactStore(root)

    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(json_mod.dumps(stats, indent=2))
            return 0
        print(f"cache {stats['root']}")
        print(f"  entries: {stats['entries']} ({stats['bytes']} bytes)")
        for stage, agg in sorted(stats["by_stage"].items()):
            print(f"    {stage:<14} {agg['count']:>4} entr(ies)  {agg['bytes']:>8}B")
        if stats["quarantine_files"]:
            print(f"  quarantined files: {stats['quarantine_files']}")
        if stats["entries"]:
            print(f"  age span: {stats['age_span_s']:.0f}s")
        return 0

    if args.cache_command == "ls":
        count = 0
        for entry in sorted(entries(store), key=lambda e: e.mtime):
            print(entry.describe())
            count += 1
        if count == 0:
            print("(empty)")
        return 0

    if args.cache_command == "gc":
        max_bytes = parse_size(args.max_bytes) if args.max_bytes else None
        max_age_s = parse_age(args.max_age) if args.max_age else None
        if max_bytes is None and max_age_s is None:
            print(
                "error: gc needs --max-bytes and/or --max-age",
                file=sys.stderr,
            )
            return 2
        report = gc(store, max_bytes=max_bytes, max_age_s=max_age_s)
        if args.json:
            print(json_mod.dumps(report.to_json(), indent=2))
        else:
            print(
                f"gc: evicted {report.evicted} entr(ies) "
                f"({report.evicted_bytes} bytes), kept {report.kept} "
                f"({report.kept_bytes} bytes)"
            )
        return 0

    if args.cache_command == "clear":
        removed = clear(store)
        print(f"cleared {removed} entr(ies) from {store.root}")
        return 0

    print("error: unknown cache command", file=sys.stderr)  # pragma: no cover
    return 2  # pragma: no cover


def _parser_cache(sub: "argparse._SubParsersAction") -> None:
    p_c = sub.add_parser(
        "cache", help="inspect and maintain the pipeline artifact cache"
    )
    p_c.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache_sub = p_c.add_subparsers(dest="cache_command", required=True)
    p_cs = cache_sub.add_parser("stats", help="entry/byte totals per stage")
    p_cs.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_sub.add_parser("ls", help="list entries, oldest first")
    p_cg = cache_sub.add_parser(
        "gc", help="evict expired entries, then oldest-first to a size bound"
    )
    p_cg.add_argument(
        "--max-bytes",
        metavar="SIZE",
        help="size bound after collection (e.g. 500M, 2G, plain bytes)",
    )
    p_cg.add_argument(
        "--max-age",
        metavar="AGE",
        help="evict entries older than this (e.g. 7d, 12h, plain seconds)",
    )
    p_cg.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_sub.add_parser("clear", help="remove every entry")
    p_c.set_defaults(func=cmd_cache)
