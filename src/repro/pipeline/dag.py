"""Content-addressed execution of the stage DAG.

A :class:`PipelineRun` is one specification's session with the
pipeline, and the only way the synthesis flow runs.  With a store
attached it canonicalizes the spec text into a root digest
(:func:`repro.sg.sgformat.spec_digest`) and derives one sha256 cache
key per stage by hashing ::

    {schema, stage, STAGE_VERSIONS[stage], root digest,
     env fingerprint digest, stage params, upstream stage keys}

It pulls artifacts demand-driven: memoized in-process, then the
:class:`~repro.pipeline.store.ArtifactStore` (when one is attached),
then a real computation whose result is written back.  Without a store
no key is computed, and a run rooted at an in-memory SG never renders
or hashes it.  Because every
key chains the keys of its dependencies, editing the spec, bumping a
stage version or moving to a different machine invalidates exactly the
downstream cone and nothing upstream.

Every stage resolution emits one ``pipeline.stage`` span (attrs:
``stage``, ``circuit``, ``outcome`` = ``hit``/``miss``) through
``obs/trace.py``; the store emits ``cache.hit``/``cache.miss``/
``cache.evict``/``cache.quarantine`` counters through ``obs/metrics.py``.

:func:`cache_bypass` suspends store traffic on the current thread —
the differential fuzzer wraps crash-contained flows in it so an
outcome produced moments before a crash (or under a watchdog) is never
recorded as cached truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from contextlib import contextmanager
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterator

from ..netlist import DEFAULT_LIBRARY, Library
from ..obs import trace_span
from ..sg.graph import StateGraph
from ..sg.sgformat import canonicalize_spec, write_sg
from .stages import STAGES, STAGE_VERSIONS, Classification, CoverBundle
from .store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.certify import Certificate
    from ..core.sop_derivation import SopSpec
    from ..core.synthesizer import NShotCircuit
    from ..core.verify import VerificationSummary

__all__ = [
    "KEY_SCHEMA",
    "PipelineRun",
    "cache_bypass",
    "cache_bypassed",
    "resolve_store",
]

KEY_SCHEMA = "repro-pipeline/2"

_BYPASS = threading.local()

#: the machine's digest, computed once per process.  It hashes the same
#: five machine-identity fields as the run-history fingerprint
#: (``obs.registry.fingerprint_digest``), read from ``sys`` and
#: ``os.uname()``: ``platform.platform()`` would fork ``uname -p``
_ENV_DIGEST: str | None = None


def default_env_digest() -> str:
    global _ENV_DIGEST
    if _ENV_DIGEST is None:
        u = os.uname()
        env = {
            "python": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "platform": f"{u.sysname}-{u.release}-{u.machine}",
            "machine": u.machine,
            "cpu_count": os.cpu_count() or 1,
        }
        blob = json.dumps(env, sort_keys=True).encode()
        _ENV_DIGEST = hashlib.sha1(blob).hexdigest()[:12]
    return _ENV_DIGEST


@contextmanager
def cache_bypass() -> Iterator[None]:
    """Suspend artifact-store reads *and* writes on this thread.

    Used by crash-contained flows (differential fuzzing, fault
    campaigns): computations that may be killed mid-flight must never
    publish partial conclusions into a shared cache.
    """
    prev = getattr(_BYPASS, "on", False)
    _BYPASS.on = True
    try:
        yield
    finally:
        _BYPASS.on = prev


def cache_bypassed() -> bool:
    return getattr(_BYPASS, "on", False)


def resolve_store(
    cache_dir: str | None = None, no_cache: bool = False
) -> ArtifactStore | None:
    """CLI policy: ``--no-cache`` wins, then ``--cache-dir``, then the
    ``REPRO_CACHE_DIR`` environment variable, else no cache."""
    if no_cache:
        return None
    root = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return ArtifactStore(root) if root else None


class PipelineRun:
    """One spec's demand-driven walk of the stage DAG.

    Construct with :meth:`from_file`, :meth:`from_text` or
    :meth:`from_sg`; pull artifacts with :meth:`artifact` or the named
    conveniences (:meth:`sg`, :meth:`synthesize`, :meth:`verify`, …).
    Artifacts are memoized per run, so e.g. ``repro compare`` sharing
    one run between six flows parses and builds the SG exactly once.
    """

    def __init__(
        self,
        text: str | None,
        *,
        name: str = "nshot",
        store: ArtifactStore | None = None,
        dialect: str | None = None,
        source_sg: StateGraph | None = None,
        method: str = "espresso",
        library: Library = DEFAULT_LIBRARY,
        mhs_tau: float = 1.2,
        delay_spread: float = 0.0,
        share_products: bool = True,
        env_digest: str | None = None,
    ) -> None:
        self._text = text
        self.dialect = dialect or (
            "sg" if ".state graph" in text else "g"
        )
        self.name = name
        self.store = store
        #: in-memory SG (from_sg); content-addressed by its .sg rendering
        self.source_sg = source_sg
        self.params: dict[str, Any] = {
            "name": name,
            "method": method,
            "share_products": bool(share_products),
            "spread": float(delay_spread),
            "mhs_tau": float(mhs_tau),
            "library": {
                "level_delay": library.level_delay,
                "pair_area": library.pair_area,
            },
        }
        if env_digest:
            self.env_digest = env_digest
        self.verify_params: dict[str, Any] | None = None
        self._memo: dict[str, Any] = {}
        self._outcomes: dict[str, str] = {}  # memo key -> "hit" | "miss"
        #: stage names actually computed (cache misses), in order — the
        #: invalidation tests spy on this
        self.executed: list[str] = []

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str, **kw: Any) -> "PipelineRun":
        return cls(text, **kw)

    @classmethod
    def from_file(cls, path: str, **kw: Any) -> "PipelineRun":
        with open(path) as f:
            text = f.read()
        if "dialect" not in kw:
            kw["dialect"] = (
                "sg"
                if path.endswith(".sg") or ".state graph" in text
                else "g"
            )
        if "name" not in kw:
            # same naming the CLI always used: .sg files go by filename,
            # .g files by their .model/.name directive
            if kw["dialect"] == "sg":
                kw["name"] = os.path.splitext(os.path.basename(path))[0]
            else:
                kw["name"] = "stg"
                for raw in text.splitlines():
                    parts = raw.split("#", 1)[0].split()
                    if parts and parts[0] in (".model", ".name") and len(parts) > 1:
                        kw["name"] = parts[1]
                        break
        return cls(text, **kw)

    @classmethod
    def from_sg(cls, sg: StateGraph, *, name: str = "nshot", **kw: Any) -> "PipelineRun":
        """Root a run at an already-built in-memory SG.

        The SG's ``.sg`` serialization is the content address (rendered
        only when a store needs a key); the in-memory object itself is
        what a cold ``sg-build`` returns, so no parse round-trip
        perturbs the artifacts.
        """
        return cls(None, name=name, dialect="sg", source_sg=sg, **kw)

    # ------------------------------------------------------------------
    # keys — computed on first use (a store key, or the parse stage)
    # ------------------------------------------------------------------
    @property
    def root_text(self) -> str:
        if self._text is None:
            self._text = write_sg(self.source_sg, self.name)
        return self._text

    @cached_property
    def canonical_text(self) -> str:
        return canonicalize_spec(self.root_text)

    @cached_property
    def root_digest(self) -> str:
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()

    @cached_property
    def env_digest(self) -> str:
        return default_env_digest()

    def key_of(self, stage: str, extra: dict[str, Any] | None = None) -> str:
        """The content-addressed cache key of one stage's artifact."""
        sdef = STAGES[stage]
        doc = {
            "schema": KEY_SCHEMA,
            "stage": stage,
            "version": STAGE_VERSIONS[stage],
            "root": self.root_digest,
            "env": self.env_digest,
            "deps": [self.key_of(d) for d in sdef.deps],
            "params": {
                **{k: self.params[k] for k in sdef.params},
                **(extra or {}),
            },
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def artifact(self, stage: str, extra: dict[str, Any] | None = None) -> Any:
        """Resolve one stage: memo, then store, then compute-and-publish."""
        memo_key = stage if extra is None else stage + "?" + json.dumps(
            extra, sort_keys=True
        )
        if memo_key in self._memo:
            return self._memo[memo_key]
        store = None if cache_bypassed() else self.store
        key = self.key_of(stage, extra) if store is not None else ""
        with trace_span("pipeline.stage", stage=stage, circuit=self.name) as sp:
            found = False
            value: Any = None
            if store is not None:
                found, value = store.get(key)
            if not found:
                value = STAGES[stage].fn(self)
                self.executed.append(stage)
                if store is not None:
                    store.put(
                        key,
                        value,
                        meta={
                            "stage": stage,
                            "version": STAGE_VERSIONS[stage],
                            "name": self.name,
                            "root": self.root_digest,
                            "env": self.env_digest,
                        },
                    )
            sp.set(outcome="hit" if found else "miss")
        self._outcomes[memo_key] = "hit" if found else "miss"
        self._memo[memo_key] = value
        return value

    # ------------------------------------------------------------------
    # named pulls
    # ------------------------------------------------------------------
    def sg(self) -> StateGraph:
        return self.artifact("sg-build")

    def classification(self) -> Classification:
        return self.artifact("classify")

    def regions(self):
        return self.artifact("regions")

    def sop(self) -> "SopSpec":
        return self.artifact("sop-derivation")

    def covers(self) -> CoverBundle:
        return self.artifact("covers")

    def architecture(self):
        return self.artifact("netlist")

    def certify(self) -> "Certificate":
        """The circuit's static hazard certificate (``certify`` stage)."""
        return self.artifact("certify")

    def ensure_valid(self) -> None:
        """Raise :class:`SynthesisError` when the SG fails the Theorem 2
        preconditions (the ``classify`` stage verdict)."""
        cls = self.classification()
        if not cls.ok:
            from ..core.synthesizer import SynthesisError

            raise SynthesisError(cls.message, diagnostics=cls.diagnostics)

    def circuit(self) -> "NShotCircuit":
        """The final :class:`NShotCircuit` (no Theorem-2 gate)."""
        return self.synthesize(validate=False)

    def synthesize(self, validate: bool = True) -> "NShotCircuit":
        """The N-SHOT circuit, gated on :meth:`ensure_valid` unless
        ``validate=False``; one ``synthesize`` span covers both."""
        if "delays" in self._memo:
            if validate:
                self.ensure_valid()
            return self._memo["delays"]
        with trace_span(
            "synthesize", circuit=self.name, method=self.params["method"]
        ) as sp:
            if validate:
                self.ensure_valid()
            c = self.artifact("delays")
            sp.set(
                states=c.sg.num_states,
                cubes=len(c.cover),
                gates=len(c.netlist.gates),
            )
        return c

    def verify(
        self,
        runs: int = 5,
        jitter: float | None = None,
        max_transitions: int = 200,
        max_time: float = 4000.0,
        base_seed: int = 0,
        input_delay: tuple[float, float] = (0.1, 6.0),
        max_events: int = 500_000,
        static_first: bool = False,
        **probes: Any,
    ) -> "VerificationSummary":
        """Monte-Carlo hazard verification through the ``verify`` stage.

        Instrumented requests (``telemetry=``, ``coverage=``,
        ``recorder=``, ``keep_traces=``) carry run-local probe objects
        whose observations are the point, so they bypass the cache and
        call the verifier directly on the (possibly cached) circuit.

        ``static_first`` pulls the content-addressed ``certify``
        artifact first: a fully-proved certificate licenses skipping
        the Monte-Carlo sweep entirely (the returned summary carries
        the certificate and ``static_skip=True``); otherwise the sweep
        runs as usual with the certificate attached.
        """
        cert = None
        if static_first:
            cert = self.certify()
            if cert.fully_proved:
                from ..core.verify import VerificationSummary

                return VerificationSummary(
                    certificate=cert.to_json(), static_skip=True
                )
        if any(probes.values()):
            from ..core.verify import verify_hazard_freeness

            summary = verify_hazard_freeness(
                self.circuit(),
                runs=runs,
                jitter=jitter,
                max_transitions=max_transitions,
                max_time=max_time,
                base_seed=base_seed,
                input_delay=input_delay,
                max_events=max_events,
                **probes,
            )
        else:
            params = {
                "runs": runs,
                "jitter": jitter,
                "max_transitions": max_transitions,
                "max_time": max_time,
                "base_seed": base_seed,
                "input_delay": list(input_delay),
                "max_events": max_events,
            }
            self.verify_params = params
            summary = self.artifact("verify", extra=params)
        if cert is not None and summary.certificate is None:
            summary.certificate = cert.to_json()
        return summary

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Per-run cache behavior: totals plus per-stage outcomes."""
        hits = sum(1 for o in self._outcomes.values() if o == "hit")
        misses = len(self._outcomes) - hits
        stages = {
            k.split("?", 1)[0]: v for k, v in sorted(self._outcomes.items())
        }
        return {
            "hits": hits,
            "misses": misses,
            "stages": stages,
            "executed": list(self.executed),
        }
