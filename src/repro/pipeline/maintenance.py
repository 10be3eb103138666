"""Inventory and eviction of the content-addressed artifact store.

A synthesis run only reads and writes entries
(:class:`~repro.pipeline.store.ArtifactStore`); listing, collection and
clearing live here, off the synthesis path, for ``repro cache`` and
:meth:`ArtifactStore.stats`.  Eviction is the only multi-file mutation,
so :func:`gc` and :func:`clear` hold the store's ``gc.lock``: an
``O_EXCL`` lock file with stale-lock takeover, so a crashed collector
cannot wedge the store.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterator

from ..obs import get_metrics
from .store import META_SCHEMA, ArtifactStore

#: seconds after which another process's gc.lock is presumed dead
_LOCK_STALE_S = 300.0
#: seconds a gc waits for a live lock before giving up
_LOCK_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact, as seen by ``repro cache ls``."""

    key: str
    stage: str
    version: int
    name: str
    root: str
    size: int
    created_utc: str
    mtime: float

    def describe(self) -> str:
        return (
            f"{self.key[:12]}  {self.stage:<14} v{self.version}  "
            f"{self.size:>8}B  {self.name}"
        )


@dataclass
class GcReport:
    """What one collection pass removed and why."""

    scanned: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "scanned": self.scanned,
            "evicted": self.evicted,
            "evicted_bytes": self.evicted_bytes,
            "kept": self.kept,
            "kept_bytes": self.kept_bytes,
            "by_reason": dict(self.by_reason),
        }


def parse_size(text: str | int) -> int:
    """``"500M"``/``"2G"``/``"64k"``/plain bytes → bytes."""
    if isinstance(text, int):
        return text
    s = text.strip().lower()
    mult = 1
    for suffix, m in (("k", 1 << 10), ("m", 1 << 20), ("g", 1 << 30)):
        if s.endswith(suffix + "b"):
            s, mult = s[:-2], m
            break
        if s.endswith(suffix):
            s, mult = s[:-1], m
            break
    return int(float(s) * mult)


def parse_age(text: str | float | int) -> float:
    """``"7d"``/``"12h"``/``"30m"``/``"45s"``/plain seconds → seconds."""
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip().lower()
    mult = 1.0
    for suffix, m in (("d", 86400.0), ("h", 3600.0), ("m", 60.0), ("s", 1.0)):
        if s.endswith(suffix):
            s, mult = s[:-1], m
            break
    return float(s) * mult


# ----------------------------------------------------------------------
# inventory
# ----------------------------------------------------------------------
def entries(store: ArtifactStore) -> Iterator[CacheEntry]:
    """Sound entries on disk (defective ones are quarantined as
    they are encountered)."""
    objects = os.path.join(store.root, "objects")
    if not os.path.isdir(objects):
        return
    for shard in sorted(os.listdir(objects)):
        shard_dir = os.path.join(objects, shard)
        if not os.path.isdir(shard_dir):
            continue
        for fname in sorted(os.listdir(shard_dir)):
            if not fname.endswith(".json"):
                continue
            key = fname[:-5]
            meta_path = os.path.join(shard_dir, fname)
            payload_path = os.path.join(shard_dir, key + ".pkl")
            try:
                with open(meta_path) as f:
                    meta = json.load(f)
                if meta.get("schema") != META_SCHEMA:
                    raise ValueError("bad envelope")
                size = os.path.getsize(payload_path)
                mtime = os.path.getmtime(payload_path)
            except Exception:
                store.quarantine(key)
                continue
            yield CacheEntry(
                key=key,
                stage=str(meta.get("stage", "?")),
                version=int(meta.get("version", 0)),
                name=str(meta.get("name", "")),
                root=str(meta.get("root", "")),
                size=size,
                created_utc=str(meta.get("created_utc", "")),
                mtime=mtime,
            )


def stats(store: ArtifactStore) -> dict:
    """:meth:`ArtifactStore.stats`: disk inventory plus the store's
    session counters."""
    by_stage: dict[str, dict] = {}
    count = 0
    total = 0
    oldest = newest = None
    for e in entries(store):
        count += 1
        total += e.size
        agg = by_stage.setdefault(e.stage, {"count": 0, "bytes": 0})
        agg["count"] += 1
        agg["bytes"] += e.size
        oldest = e.mtime if oldest is None else min(oldest, e.mtime)
        newest = e.mtime if newest is None else max(newest, e.mtime)
    qdir = os.path.join(store.root, "quarantine")
    quarantine_files = len(os.listdir(qdir)) if os.path.isdir(qdir) else 0
    return {
        "root": store.root,
        "entries": count,
        "bytes": total,
        "by_stage": {k: by_stage[k] for k in sorted(by_stage)},
        "quarantine_files": quarantine_files,
        "age_span_s": round(newest - oldest, 3) if count else 0.0,
        "session": {
            "hits": store.hits,
            "misses": store.misses,
            "evictions": store.evictions,
            "quarantined": store.quarantined,
        },
    }


# ----------------------------------------------------------------------
# eviction
# ----------------------------------------------------------------------
def _evict(
    store: ArtifactStore, entry: CacheEntry, report: GcReport, reason: str
) -> None:
    for path in (store._payload_path(entry.key), store._meta_path(entry.key)):
        try:
            os.remove(path)
        except OSError:
            pass
    report.evicted += 1
    report.evicted_bytes += entry.size
    report.by_reason[reason] = report.by_reason.get(reason, 0) + 1
    store.evictions += 1
    get_metrics().counter("cache.evict").add(1)


def gc(
    store: ArtifactStore,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    now: float | None = None,
) -> GcReport:
    """Evict expired entries, then oldest-first down to the size
    bound.  Holds the gc lock; leftover ``tmp/`` staging files older
    than the stale window are swept too."""
    report = GcReport()
    now = time.time() if now is None else now
    with _LockGuard(store):
        live = sorted(entries(store), key=lambda e: e.mtime)
        report.scanned = len(live)
        kept: list[CacheEntry] = []
        for e in live:
            if max_age_s is not None and now - e.mtime > max_age_s:
                _evict(store, e, report, "expired")
            else:
                kept.append(e)
        if max_bytes is not None:
            total = sum(e.size for e in kept)
            # oldest first: kept is already mtime-sorted
            idx = 0
            while total > max_bytes and idx < len(kept):
                e = kept[idx]
                _evict(store, e, report, "size")
                total -= e.size
                idx += 1
            kept = kept[idx:]
        report.kept = len(kept)
        report.kept_bytes = sum(e.size for e in kept)
        tmp_dir = os.path.join(store.root, "tmp")
        if os.path.isdir(tmp_dir):
            for fname in os.listdir(tmp_dir):
                path = os.path.join(tmp_dir, fname)
                try:
                    if now - os.path.getmtime(path) > _LOCK_STALE_S:
                        os.remove(path)
                except OSError:
                    pass
    return report


def clear(store: ArtifactStore) -> int:
    """Remove every entry (objects + quarantine); returns the
    number of entries removed."""
    removed = 0
    with _LockGuard(store):
        report = GcReport()
        for e in list(entries(store)):
            _evict(store, e, report, "clear")
            removed += 1
        qdir = os.path.join(store.root, "quarantine")
        if os.path.isdir(qdir):
            for fname in os.listdir(qdir):
                try:
                    os.remove(os.path.join(qdir, fname))
                except OSError:
                    pass
    return removed


class _LockGuard:
    """The store's ``gc.lock``: an ``O_EXCL`` lock file with stale-lock
    takeover."""

    def __init__(self, store: ArtifactStore) -> None:
        self.path = os.path.join(store.root, "gc.lock")

    def __enter__(self) -> "_LockGuard":
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        deadline = time.monotonic() + _LOCK_TIMEOUT_S
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()} {time.time()}\n".encode())
                os.close(fd)
                return self
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(self.path)
                except OSError:
                    continue  # raced with the release: retry at once
                if age > _LOCK_STALE_S:
                    try:  # takeover: the owner is presumed dead
                        os.remove(self.path)
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"gc lock {self.path} held for {age:.0f}s"
                    ) from None
                time.sleep(0.05)

    def __exit__(self, *exc) -> None:
        try:
            os.remove(self.path)
        except OSError:
            pass
