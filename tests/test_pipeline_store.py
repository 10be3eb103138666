"""The persistent artifact store: atomic writes, defect quarantine,
concurrent writers, and garbage collection.

These tests deliberately corrupt on-disk state — the store's contract
is that *no* defect on disk ever surfaces as an exception, only as a
cache miss (plus a quarantined file kept as evidence).
"""

import json
import multiprocessing
import os
import pickle
from hashlib import sha256

import pytest

from repro.pipeline.maintenance import clear, entries, gc, parse_age, parse_size
from repro.obs import get_metrics
from repro.obs.readout import snapshot
from repro.pipeline import ArtifactStore
from repro.stg import elaborate, parse_g

from tests.conftest import C_ELEMENT_G, legacy_pickle

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "cache"))


class TestPutGet:
    def test_roundtrip(self, store):
        store.put(KEY_A, {"x": [1, 2, 3]}, meta={"stage": "sg-build"})
        found, value = store.get(KEY_A)
        assert found and value == {"x": [1, 2, 3]}
        assert store.hits == 1 and store.misses == 0

    def test_missing_key_is_a_miss(self, store):
        found, value = store.get(KEY_A)
        assert not found and value is None
        assert store.misses == 1

    def test_contains(self, store):
        assert KEY_A not in store
        store.put(KEY_A, 1)
        assert KEY_A in store

    def test_overwrite_same_key(self, store):
        store.put(KEY_A, "first")
        store.put(KEY_A, "second")
        assert store.get(KEY_A) == (True, "second")

    def test_counters_mirrored_to_metrics(self, store):
        before = snapshot(get_metrics())["counters"]
        store.get(KEY_A)  # miss
        store.put(KEY_A, 1)
        store.get(KEY_A)  # hit
        after = snapshot(get_metrics())["counters"]
        assert after.get("cache.miss", 0) == before.get("cache.miss", 0) + 1
        assert after.get("cache.hit", 0) == before.get("cache.hit", 0) + 1

    def test_no_stale_tmp_left_behind(self, store):
        store.put(KEY_A, list(range(100)))
        tmp_dir = os.path.join(store.root, "tmp")
        assert os.listdir(tmp_dir) == []


class TestQuarantine:
    """One bad byte costs a recompute, never a traceback."""

    def _quarantine_count(self, store) -> int:
        qdir = os.path.join(store.root, "quarantine")
        return len(os.listdir(qdir)) if os.path.isdir(qdir) else 0

    def test_torn_metadata_json(self, store):
        store.put(KEY_A, "payload")
        meta = store._meta_path(KEY_A)
        with open(meta, "w") as f:
            f.write('{"schema": "repro-artifact/1", "key')  # truncated
        found, _ = store.get(KEY_A)
        assert not found
        assert self._quarantine_count(store) >= 1
        assert store.quarantined == 1
        # the defective entry is gone from the object tree
        assert not os.path.exists(meta)

    def test_truncated_payload(self, store):
        store.put(KEY_A, list(range(1000)))
        payload = store._payload_path(KEY_A)
        blob = open(payload, "rb").read()
        with open(payload, "wb") as f:
            f.write(blob[: len(blob) // 2])
        found, _ = store.get(KEY_A)
        assert not found
        assert self._quarantine_count(store) >= 1

    def test_bitflipped_payload_fails_checksum(self, store):
        store.put(KEY_A, list(range(1000)))
        payload = store._payload_path(KEY_A)
        blob = bytearray(open(payload, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(payload, "wb") as f:
            f.write(bytes(blob))
        found, _ = store.get(KEY_A)
        assert not found

    def test_missing_payload_with_metadata(self, store):
        store.put(KEY_A, "payload")
        os.remove(store._payload_path(KEY_A))
        found, _ = store.get(KEY_A)
        assert not found

    def test_wrong_schema_version(self, store):
        store.put(KEY_A, "payload")
        meta_path = store._meta_path(KEY_A)
        meta = json.load(open(meta_path))
        meta["schema"] = "repro-artifact/999"
        json.dump(meta, open(meta_path, "w"))
        found, _ = store.get(KEY_A)
        assert not found

    def test_key_mismatch_in_envelope(self, store):
        store.put(KEY_A, "payload")
        meta_path = store._meta_path(KEY_A)
        meta = json.load(open(meta_path))
        meta["key"] = KEY_B
        json.dump(meta, open(meta_path, "w"))
        found, _ = store.get(KEY_A)
        assert not found

    def test_recovery_after_quarantine(self, store):
        """The canonical crash-recovery loop: corrupt → miss →
        recompute → put → hit."""
        store.put(KEY_A, "good")
        with open(store._meta_path(KEY_A), "w") as f:
            f.write("not json at all")
        assert store.get(KEY_A) == (False, None)
        store.put(KEY_A, "recomputed")
        assert store.get(KEY_A) == (True, "recomputed")

    def test_unpicklable_payload_bytes(self, store):
        store.put(KEY_A, "payload")
        blob = b"\x80\x05garbage-not-a-pickle"
        with open(store._payload_path(KEY_A), "wb") as f:
            f.write(blob)
        # fix the checksum so only unpickling fails
        meta_path = store._meta_path(KEY_A)
        meta = json.load(open(meta_path))
        from hashlib import sha256

        meta["payload_sha256"] = sha256(blob).hexdigest()
        json.dump(meta, open(meta_path, "w"))
        found, _ = store.get(KEY_A)
        assert not found

    def test_state_graph_in_an_older_layout(self, store):
        """A state graph pickled in an older layout (the id-keyed dicts,
        a storage tuple of ids, or one of per-state arc lists) is
        refused and quarantined, not returned half built."""
        sg = elaborate(parse_g(C_ELEMENT_G))
        layouts = (("dicts", b"_succ"), ("ids", b"Marking"), ("lists", b"storage"))
        for n, (layout, mark) in enumerate(layouts, 1):
            blob = legacy_pickle(sg, layout)
            assert mark in blob and b"StateGraph" in blob
            store.put(KEY_A, "payload")
            with open(store._payload_path(KEY_A), "wb") as f:
                f.write(blob)
            meta_path = store._meta_path(KEY_A)
            meta = json.load(open(meta_path))
            meta["payload_sha256"] = sha256(blob).hexdigest()
            json.dump(meta, open(meta_path, "w"))
            assert store.get(KEY_A) == (False, None)
            assert store.quarantined == n
            assert self._quarantine_count(store) == 2 * n


def _hammer(root: str, n: int, worker: int) -> None:
    st = ArtifactStore(root)
    for i in range(n):
        key = f"{i % 7:02d}" + f"{i % 7:062d}"
        st.put(key, {"i": i % 7, "payload": list(range(200))},
               meta={"stage": "sg-build"})
        st.get(key)


class TestConcurrentWriters:
    def test_parallel_same_key_writers_never_tear(self, tmp_path):
        """Several processes hammering the same small key set: every
        surviving entry must read back sound (same-key writers race on
        the two-file rename, which the payload-first ordering and the
        checksum make benign)."""
        root = str(tmp_path / "cache")
        procs = [
            multiprocessing.Process(target=_hammer, args=(root, 40, w))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        st = ArtifactStore(root)
        listed = list(entries(st))
        assert len(listed) == 7
        for e in listed:
            found, value = st.get(e.key)
            assert found and value["i"] == int(e.key[:2])
        assert st.quarantined == 0


class TestGc:
    def _fill(self, store, n=6):
        for i in range(n):
            key = f"{i:02d}" + "e" * 62
            store.put(key, "x" * 1000, meta={"stage": "sg-build", "name": f"c{i}"})
            # deterministic, well-separated ages (i=0 oldest)
            t = 1_000_000.0 + i * 100
            os.utime(store._payload_path(key), (t, t))
            os.utime(store._meta_path(key), (t, t))
        return 1_000_000.0 + (n - 1) * 100

    def test_size_bound_evicts_oldest_first(self, store):
        self._fill(store, 6)
        sizes = [e.size for e in entries(store)]
        keep = sum(sizes[:2]) + 1  # room for two entries
        report = gc(store, max_bytes=keep)
        assert report.scanned == 6
        assert report.evicted == 4
        assert report.kept == 2
        assert report.by_reason == {"size": 4}
        survivors = sorted(e.key[:2] for e in entries(store))
        assert survivors == ["04", "05"]  # the two newest

    def test_age_bound(self, store):
        newest = self._fill(store, 6)
        report = gc(store, max_age_s=250.0, now=newest)
        # entries older than 250s relative to the newest: i=0..2
        assert report.by_reason == {"expired": 3}
        assert report.kept == 3

    def test_combined_bounds(self, store):
        newest = self._fill(store, 6)
        report = gc(store, max_bytes=1, max_age_s=250.0, now=newest)
        assert report.evicted == 6
        assert report.kept == 0
        assert sorted(report.by_reason) == ["expired", "size"]

    def test_gc_report_json(self, store):
        self._fill(store, 2)
        doc = gc(store, max_bytes=0).to_json()
        assert doc["evicted"] == 2 and doc["kept"] == 0
        assert doc["evicted_bytes"] > 0
        json.dumps(doc)  # must be serializable as-is

    def test_no_bounds_evicts_nothing(self, store):
        self._fill(store, 3)
        report = gc(store)
        assert report.evicted == 0 and report.kept == 3

    def test_hit_refreshes_lru_age(self, store):
        self._fill(store, 3)
        oldest_key = "00" + "e" * 62
        store.get(oldest_key)  # refresh: now the newest
        one_entry = max(e.size for e in entries(store))
        report = gc(store, max_bytes=one_entry)  # keep exactly one
        assert report.kept == 1
        (survivor,) = entries(store)
        assert survivor.key == oldest_key

    def test_clear_removes_everything(self, store):
        self._fill(store, 4)
        store.put(KEY_A, "x")
        with open(store._meta_path(KEY_A), "w") as f:
            f.write("junk")
        store.get(KEY_A)  # quarantines
        removed = clear(store)
        assert removed == 4
        stats = store.stats()
        assert stats["entries"] == 0
        assert stats["quarantine_files"] == 0

    def test_gc_lock_released(self, store):
        self._fill(store, 1)
        gc(store, max_bytes=0)
        assert not os.path.exists(os.path.join(store.root, "gc.lock"))

    def test_stale_lock_takeover(self, store):
        self._fill(store, 1)
        lock = os.path.join(store.root, "gc.lock")
        with open(lock, "w") as f:
            f.write("99999 0\n")
        os.utime(lock, (1.0, 1.0))  # ancient: presumed-dead owner
        report = gc(store, max_bytes=0)  # must not dead-lock
        assert report.evicted == 1


class TestStats:
    def test_stats_shape(self, store):
        store.put(KEY_A, "x", meta={"stage": "sg-build"})
        store.put(KEY_B, "y", meta={"stage": "covers"})
        store.get(KEY_A)
        s = store.stats()
        assert s["entries"] == 2
        assert s["bytes"] > 0
        assert set(s["by_stage"]) == {"covers", "sg-build"}
        assert s["by_stage"]["sg-build"]["count"] == 1
        assert s["session"]["hits"] == 1
        assert s["session"]["misses"] == 0
        json.dumps(s)

    def test_empty_store_stats(self, store):
        s = store.stats()
        assert s["entries"] == 0 and s["bytes"] == 0
        assert s["age_span_s"] == 0.0


class TestParsers:
    @pytest.mark.parametrize(
        "text,expect",
        [("512", 512), ("2k", 2048), ("2K", 2048), ("3M", 3 << 20),
         ("1g", 1 << 30), ("1.5k", 1536), ("500MB", 500 << 20), (42, 42)],
    )
    def test_parse_size(self, text, expect):
        assert parse_size(text) == expect

    @pytest.mark.parametrize(
        "text,expect",
        [("45", 45.0), ("45s", 45.0), ("30m", 1800.0), ("12h", 43200.0),
         ("7d", 604800.0), (9.5, 9.5)],
    )
    def test_parse_age(self, text, expect):
        assert parse_age(text) == expect
