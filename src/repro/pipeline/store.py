"""Persistent content-addressed artifact store.

One entry per stage output, keyed by the 64-hex sha256 the DAG derives
(:mod:`repro.pipeline.dag`).  Layout under the store root::

    objects/<key[:2]>/<key>.json   # metadata envelope (stage, deps, …)
    objects/<key[:2]>/<key>.pkl    # pickled stage artifact
    quarantine/                    # corrupt entries, moved aside
    tmp/                           # staging area for atomic writes
    gc.lock                        # mutual exclusion for gc/clear

Concurrency discipline:

* **writes are atomic renames** — payload and metadata are staged under
  ``tmp/`` and ``os.replace``d into place (payload first, metadata
  last, so a visible metadata file implies a complete payload).  Two
  processes racing on the same key both write the same content; last
  rename wins and nothing tears;
* **reads never crash the pipeline** — a corrupt, truncated or
  checksum-mismatching entry is *quarantined* (moved under
  ``quarantine/``) and reported as a miss, so one bad byte on disk
  costs a recompute, not a traceback;
* **gc holds a lock file** — eviction is the only multi-file mutation,
  guarded by an ``O_EXCL`` lock with stale-lock takeover so a crashed
  collector cannot wedge the store.

The store counts its own session traffic (``hits``/``misses``/
``evictions``/``quarantined``) and mirrors the counts into the ambient
:mod:`repro.obs.metrics` registry as ``cache.hit`` / ``cache.miss`` /
``cache.evict`` / ``cache.quarantine``.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Iterator

from ..obs import get_metrics

__all__ = ["ArtifactStore", "CacheEntry", "GcReport", "parse_age", "parse_size"]

#: metadata envelope version (bump on layout changes; old entries are
#: quarantined as unreadable rather than misinterpreted)
META_SCHEMA = "repro-artifact/1"

#: seconds after which another process's gc.lock is presumed dead
_LOCK_STALE_S = 300.0


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


class ArtifactStore:
    """The on-disk cache rooted at one directory (created lazily)."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _shard(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2])

    def _meta_path(self, key: str) -> str:
        return os.path.join(self._shard(key), key + ".json")

    def _payload_path(self, key: str) -> str:
        return os.path.join(self._shard(key), key + ".pkl")

    def _tmp_path(self) -> str:
        tmp_dir = os.path.join(self.root, "tmp")
        os.makedirs(tmp_dir, exist_ok=True)
        return os.path.join(tmp_dir, os.urandom(16).hex())

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, artifact)`` on a sound hit, else ``(False, None)``.

        Any defect — missing payload, torn JSON, checksum mismatch,
        unpicklable bytes — quarantines the entry and reports a miss.
        """
        meta_path = self._meta_path(key)
        try:
            with open(meta_path) as f:
                meta = json.load(f)
            if meta.get("schema") != META_SCHEMA or meta.get("key") != key:
                raise ValueError("bad envelope")
            with open(self._payload_path(key), "rb") as f:
                blob = f.read()
            if sha256(blob).hexdigest() != meta.get("payload_sha256"):
                raise ValueError("payload checksum mismatch")
            value = pickle.loads(blob)
        except FileNotFoundError:
            self.misses += 1
            get_metrics().counter("cache.miss").add(1)
            return False, None
        except Exception:
            self.quarantine(key)
            self.misses += 1
            get_metrics().counter("cache.miss").add(1)
            return False, None
        # LRU timestamp for gc: a hit refreshes the entry's age
        now = time.time()
        for path in (self._payload_path(key), meta_path):
            try:
                os.utime(path, (now, now))
            except OSError:
                pass
        self.hits += 1
        get_metrics().counter("cache.hit").add(1)
        return True, value

    def put(self, key: str, value: Any, meta: dict | None = None) -> None:
        """Store one artifact atomically; concurrent same-key writers
        are benign (identical content, last rename wins)."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = dict(meta or {})
        envelope.update(
            schema=META_SCHEMA,
            key=key,
            payload_sha256=sha256(blob).hexdigest(),
            size=len(blob),
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )
        os.makedirs(self._shard(key), exist_ok=True)
        # payload first, metadata last: metadata visibility implies a
        # complete payload for every reader ordering
        tmp = self._tmp_path()
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, self._payload_path(key))
        tmp = self._tmp_path()
        with open(tmp, "w") as f:
            json.dump(envelope, f, indent=1)
            f.write("\n")
        os.replace(tmp, self._meta_path(key))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._meta_path(key))

    def quarantine(self, key: str) -> None:
        """Move a defective entry aside (never delete: the bytes are
        evidence) and count it."""
        qdir = os.path.join(self.root, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        moved = False
        for path in (self._meta_path(key), self._payload_path(key)):
            if os.path.exists(path):
                dest = os.path.join(
                    qdir, f"{os.urandom(4).hex()}-{os.path.basename(path)}"
                )
                try:
                    os.replace(path, dest)
                    moved = True
                except OSError:
                    pass
        if moved:
            self.quarantined += 1
            get_metrics().counter("cache.quarantine").add(1)

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[CacheEntry]:
        """Sound entries on disk (defective ones are quarantined as
        they are encountered)."""
        objects = os.path.join(self.root, "objects")
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
                    self.quarantine(key)
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

    def stats(self) -> dict:
        """Disk inventory plus this process's session counters."""
        by_stage: dict[str, dict] = {}
        count = 0
        total = 0
        oldest = newest = None
        for e in self.entries():
            count += 1
            total += e.size
            agg = by_stage.setdefault(e.stage, {"count": 0, "bytes": 0})
            agg["count"] += 1
            agg["bytes"] += e.size
            oldest = e.mtime if oldest is None else min(oldest, e.mtime)
            newest = e.mtime if newest is None else max(newest, e.mtime)
        qdir = os.path.join(self.root, "quarantine")
        quarantine_files = (
            len(os.listdir(qdir)) if os.path.isdir(qdir) else 0
        )
        return {
            "root": self.root,
            "entries": count,
            "bytes": total,
            "by_stage": {k: by_stage[k] for k in sorted(by_stage)},
            "quarantine_files": quarantine_files,
            "age_span_s": round(newest - oldest, 3) if count else 0.0,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
            },
        }

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _evict(self, entry: CacheEntry, report: GcReport, reason: str) -> None:
        for path in (self._payload_path(entry.key), self._meta_path(entry.key)):
            try:
                os.remove(path)
            except OSError:
                pass
        report.evicted += 1
        report.evicted_bytes += entry.size
        report.by_reason[reason] = report.by_reason.get(reason, 0) + 1
        self.evictions += 1
        get_metrics().counter("cache.evict").add(1)

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        now: float | None = None,
    ) -> GcReport:
        """Evict expired entries, then oldest-first down to the size
        bound.  Holds the gc lock; leftover ``tmp/`` staging files older
        than the stale window are swept too."""
        report = GcReport()
        now = time.time() if now is None else now
        with self._gc_lock():
            live = sorted(self.entries(), key=lambda e: e.mtime)
            report.scanned = len(live)
            kept: list[CacheEntry] = []
            for e in live:
                if max_age_s is not None and now - e.mtime > max_age_s:
                    self._evict(e, report, "expired")
                else:
                    kept.append(e)
            if max_bytes is not None:
                total = sum(e.size for e in kept)
                # oldest first: kept is already mtime-sorted
                idx = 0
                while total > max_bytes and idx < len(kept):
                    e = kept[idx]
                    self._evict(e, report, "size")
                    total -= e.size
                    idx += 1
                kept = kept[idx:]
            report.kept = len(kept)
            report.kept_bytes = sum(e.size for e in kept)
            tmp_dir = os.path.join(self.root, "tmp")
            if os.path.isdir(tmp_dir):
                for fname in os.listdir(tmp_dir):
                    path = os.path.join(tmp_dir, fname)
                    try:
                        if now - os.path.getmtime(path) > _LOCK_STALE_S:
                            os.remove(path)
                    except OSError:
                        pass
        return report

    def clear(self) -> int:
        """Remove every entry (objects + quarantine); returns the
        number of entries removed."""
        removed = 0
        with self._gc_lock():
            report = GcReport()
            for e in list(self.entries()):
                self._evict(e, report, "clear")
                removed += 1
            qdir = os.path.join(self.root, "quarantine")
            if os.path.isdir(qdir):
                for fname in os.listdir(qdir):
                    try:
                        os.remove(os.path.join(qdir, fname))
                    except OSError:
                        pass
        return removed

    # ------------------------------------------------------------------
    # lock
    # ------------------------------------------------------------------
    def _gc_lock(self) -> "_LockGuard":
        return _LockGuard(os.path.join(self.root, "gc.lock"))


class _LockGuard:
    """``O_EXCL`` lock file with stale-lock takeover."""

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self.path = path
        self.timeout = timeout

    def __enter__(self) -> "_LockGuard":
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        deadline = time.monotonic() + self.timeout
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
