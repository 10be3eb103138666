"""Append-only run-history registry — the perf trajectory's ledger.

``benchmarks/history/`` accumulates every benchmark / regression run
as one immutable JSON file plus one line in ``index.jsonl``.  Entries
are keyed by the run's git SHA and an environment-fingerprint digest
(python/platform/machine/cpu subset of the bench harness's ``env``
block), so a perf delta can always be attributed to code vs machine.

Rules of the store:

* **append-only** — files are created with ``open(..., "x")`` and
  never rewritten; the index is only ever appended to.  Removing or
  editing an entry is a deliberate git operation, not an API;
* **self-describing** — each file wraps the stored document with the
  ``repro-run-history/1`` envelope (kind, created_utc, git_sha,
  env_digest), so a file found outside the index is still
  interpretable;
* **tolerant reader** — malformed index lines are skipped, not fatal:
  a half-written line from a crashed run must not brick the registry.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_HISTORY_DIR",
    "RunEntry",
    "RunHistory",
    "fingerprint_digest",
]

HISTORY_SCHEMA = "repro-run-history/1"
DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "history")

#: env keys that identify a *machine*, not a run (argv and git_sha are
#: deliberately excluded — same box, same digest)
_FINGERPRINT_KEYS = ("python", "implementation", "platform", "machine", "cpu_count")


def fingerprint_digest(env: dict | None) -> str:
    """Stable 12-hex digest of the machine part of an env fingerprint."""
    core = {k: (env or {}).get(k) for k in _FINGERPRINT_KEYS}
    blob = json.dumps(core, sort_keys=True, default=str).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


@dataclass(frozen=True)
class RunEntry:
    """One line of the registry index."""

    file: str
    kind: str
    created_utc: str
    git_sha: str | None
    env_digest: str
    schema: str | None = None

    def describe(self) -> str:
        sha = (self.git_sha or "nosha")[:7]
        return f"{self.created_utc} {sha} {self.kind} -> {self.file}"

    @property
    def identity(self) -> tuple[str, str, str | None, str]:
        """The dedup key: same run recorded twice looks exactly alike."""
        return (self.kind, self.created_utc, self.git_sha, self.env_digest)


class RunHistory:
    """The append-only store rooted at one directory."""

    def __init__(self, root: str = DEFAULT_HISTORY_DIR) -> None:
        self.root = root

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, kind: str, doc: dict) -> RunEntry:
        """Persist ``doc`` as one immutable run of the given kind.

        The git SHA and environment fingerprint are read from the
        document's ``env``/``current`` block when present (bench and
        regress documents both carry one).  Returns the index entry.

        Appends are deduplicated: when the index already holds an entry
        of the same kind with identical git SHA, environment digest,
        and creation timestamp, that entry is returned as-is — no new
        file, no new index line.  (A retried CI step or a double-armed
        ``--history`` flag would otherwise litter the ledger with
        byte-identical runs.)
        """
        if not kind or any(c in kind for c in "/\\ "):
            raise ValueError(f"bad history kind {kind!r}")
        env = doc.get("env")
        if not isinstance(env, dict):
            env = (doc.get("current") or {}).get("env")
        if not isinstance(env, dict):
            env = {}
        sha = env.get("git_sha")
        created = str(doc.get("created_utc") or "")
        if not created:
            import datetime

            created = datetime.datetime.now(datetime.timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )
        entry = RunEntry(
            file="",  # filled below once the filename is reserved
            kind=kind,
            created_utc=created,
            git_sha=sha,
            env_digest=fingerprint_digest(env),
            schema=doc.get("schema"),
        )
        for existing in self.entries(kind):
            if (
                existing.created_utc == entry.created_utc
                and existing.git_sha == entry.git_sha
                and existing.env_digest == entry.env_digest
            ):
                return existing  # duplicate run: keep the ledger clean
        os.makedirs(self.root, exist_ok=True)
        stem = "{}_{}_{}".format(
            created.replace("-", "").replace(":", ""),
            (sha or "nosha")[:7],
            kind,
        )
        wrapper = {
            "schema": HISTORY_SCHEMA,
            "kind": kind,
            "created_utc": created,
            "git_sha": sha,
            "env_digest": entry.env_digest,
            "doc": doc,
        }
        # reserve an unused filename atomically ("x" = append-only)
        for n in range(1000):
            name = f"{stem}.json" if n == 0 else f"{stem}-{n}.json"
            path = os.path.join(self.root, name)
            try:
                with open(path, "x") as f:
                    json.dump(wrapper, f, indent=2)
                    f.write("\n")
            except FileExistsError:
                continue
            entry = RunEntry(**{**asdict(entry), "file": name})
            break
        else:  # pragma: no cover - 1000 same-second same-sha runs
            raise RuntimeError(f"cannot reserve a history filename for {stem}")
        # a writer that crashed mid-line leaves the index unterminated;
        # start on a fresh line so the torn line stays isolated
        prefix = ""
        try:
            with open(self.index_path, "rb") as f:
                f.seek(0, os.SEEK_END)
                if f.tell():
                    f.seek(-1, os.SEEK_END)
                    if f.read(1) != b"\n":
                        prefix = "\n"
        except FileNotFoundError:
            pass
        with open(self.index_path, "a") as f:
            f.write(prefix + json.dumps(asdict(entry)) + "\n")
        return entry

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def scan(self, kind: str | None = None) -> tuple[list[RunEntry], int]:
        """Index entries in append order plus the torn-line count.

        Malformed (half-written) index lines are skipped but *counted*,
        so callers that care about ledger integrity — the analytics
        loader, ``repro history`` — can report them instead of silently
        pretending the ledger is whole.
        """
        out: list[RunEntry] = []
        torn = 0
        try:
            with open(self.index_path) as f:
                lines = f.readlines()
        except FileNotFoundError:
            return out, torn
        known = set(RunEntry.__dataclass_fields__)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                entry = RunEntry(**{k: v for k, v in d.items() if k in known})
            except (ValueError, TypeError):
                torn += 1  # tolerate a torn line from a crashed writer
                continue
            if kind is None or entry.kind == kind:
                out.append(entry)
        return out, torn

    def entries(self, kind: str | None = None) -> list[RunEntry]:
        """Index entries in append order (oldest first)."""
        return self.scan(kind)[0]

    def load(self, entry: RunEntry | str) -> dict:
        """Read one stored run back; returns the full envelope dict."""
        name = entry.file if isinstance(entry, RunEntry) else entry
        with open(os.path.join(self.root, name)) as f:
            doc = json.load(f)
        if doc.get("schema") != HISTORY_SCHEMA:
            raise ValueError(
                f"{name}: not a {HISTORY_SCHEMA} envelope "
                f"(got {doc.get('schema')!r})"
            )
        return doc
