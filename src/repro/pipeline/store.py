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
* **gc holds a lock file** — see :mod:`repro.pipeline.maintenance`,
  which lists and evicts entries off the synthesis path.

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
from hashlib import sha256
from typing import Any

from ..obs import get_metrics

__all__ = ["ArtifactStore"]

#: metadata envelope version (bump on layout changes; old entries are
#: quarantined as unreadable rather than misinterpreted)
META_SCHEMA = "repro-artifact/1"


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
    def stats(self) -> dict:
        """Disk inventory plus this process's session counters
        (:func:`repro.pipeline.maintenance.stats`)."""
        from .maintenance import stats

        return stats(self)
