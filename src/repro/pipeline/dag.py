"""Content-addressed execution of the stage DAG.

A :class:`PipelineRun` is one specification's session with the
pipeline, and the only way the synthesis flow runs.  With a store
attached it canonicalizes the spec text into a root digest
(:func:`spec_digest`) and derives one sha256 cache key per stage by
hashing ::

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
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import cached_property
from typing import TYPE_CHECKING, Any

from ..obs import trace_span
from .stages import (
    STAGES,
    STAGE_VERSIONS,
    Classification,
    CoverBundle,
    SynthesisResult,
)
from .store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.certify import Certificate
    from ..core.sop_derivation import SopSpec
    from ..core.synthesizer import NShotCircuit
    from ..core.verify import VerificationSummary
    from ..netlist import Library
    from ..sg.graph import StateGraph

__all__ = [
    "KEY_SCHEMA",
    "PipelineRun",
    "canonicalize_spec",
    "resolve_store",
    "spec_digest",
]

KEY_SCHEMA = "repro-pipeline/2"

#: ``verify`` settings that no caller varies, kept in the stage's key
#: document so that the keys stay those of the stores already written
_VERIFY_KEY_CONSTANTS: dict[str, Any] = {
    "base_seed": 0,
    "jitter": None,
    "max_time": 4000.0,
    "input_delay": [0.1, 6.0],
    "max_events": 500_000,
}

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


def canonicalize_spec(text: str) -> str:
    """Canonical form of a ``.g`` STG or ``.sg`` state-graph spec.

    The canonical form is invariant under the *cosmetic* freedoms of
    the formats — the things an author can change without changing
    what circuit is specified:

    * ``#`` comments and blank lines;
    * whitespace runs and indentation;
    * the order of names in (possibly repeated) ``.inputs`` /
      ``.outputs`` / ``.internal`` declarations;
    * the order of graph lines, and for ``.g`` the grouping of
      successors on one line (``a+ b+ c+`` ≡ ``a+ b+`` + ``a+ c+``);
    * the order of ``.marking`` tokens, ``.coding`` lines and
      ``.initial`` assignments.

    Semantic content — which arcs exist, the marking, the model name
    (it names the synthesized module), signal polarity — survives into
    the canonical text, so any edit that changes the specified behavior
    changes the canonical form.  Implicit defaults are made explicit
    (an ``.sg`` file without a ``.marking`` takes its first arc's
    source as the initial state, which the arc *order* pins down —
    canonicalization freezes that choice before sorting the arcs).

    This is the content-addressed pipeline's root: the cache key of
    every derived artifact starts from :func:`spec_digest`.
    """
    model = ""
    decls: dict[str, set[str]] = {".inputs": set(), ".outputs": set(), ".internal": set()}
    graph_pairs: list[str] = []  # .g dialect: one "src dst" pair per arc
    sg_arcs: list[str] = []  # .sg dialect: "src label dst" triples
    codings: list[str] = []
    markings: list[str] = []
    initials: list[str] = []
    is_sg = False
    in_graph = False
    first_sg_src: str | None = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if line.startswith("."):
            key = parts[0]
            if key in (".model", ".name"):
                model = parts[1] if len(parts) > 1 else model
                in_graph = False
            elif key in decls:
                decls[key].update(parts[1:])
                in_graph = False
            elif key == ".graph":
                in_graph = True
            elif key == ".state":
                is_sg = True  # ".state graph"
                in_graph = True
            elif key == ".coding":
                codings.append(" ".join(parts[1:]))
                in_graph = False
            elif key == ".marking":
                body = line[len(".marking"):].strip().strip("{} \t")
                markings.extend(_split_marking_tokens(body))
                in_graph = False
            elif key == ".initial":
                initials.extend(parts[1:])
                in_graph = False
            else:  # .end, .dummy, unknown: parser rejects or ignores
                in_graph = False
            continue
        if in_graph:
            if is_sg:
                if first_sg_src is None:
                    first_sg_src = parts[0]
                sg_arcs.append(" ".join(parts))
            else:
                src = parts[0]
                for dst in parts[1:]:
                    graph_pairs.append(f"{src} {dst}")

    if is_sg and not markings and first_sg_src is not None:
        # freeze the implicit "first arc's source" initial state before
        # the arc lines lose their order below
        markings.append(first_sg_src)

    lines = [f".model {model}"]
    for key in (".inputs", ".outputs", ".internal"):
        if decls[key]:
            lines.append(key + " " + " ".join(sorted(decls[key])))
    lines.append(".state graph" if is_sg else ".graph")
    lines.extend(sorted(sg_arcs if is_sg else graph_pairs))
    for c in sorted(codings):
        lines.append(".coding " + c)
    lines.append(".marking { " + " ".join(sorted(markings)) + " }")
    if initials:
        lines.append(".initial " + " ".join(sorted(initials)))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _split_marking_tokens(body: str) -> list[str]:
    """Marking tokens, keeping ``<a+,b+>`` pairs together and
    normalizing the whitespace inside them."""
    tokens: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "<":
            j = body.index(">", i)
            inner = body[i + 1 : j]
            tokens.append("<" + ",".join(p.strip() for p in inner.split(",")) + ">")
            i = j + 1
        else:
            j = i
            while j < len(body) and not body[j].isspace():
                j += 1
            tokens.append(body[i:j])
            i = j
    return tokens


def spec_digest(text: str) -> str:
    """sha256 hex digest of :func:`canonicalize_spec` — the pipeline's
    content-addressed root key.  Cosmetic edits (comments, whitespace,
    declaration order) preserve it; semantic edits change it."""
    return hashlib.sha256(canonicalize_spec(text).encode()).hexdigest()


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

    Construct over spec text, or with :meth:`from_file` or
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
        library: "Library | None" = None,
        mhs_tau: float = 1.2,
        delay_spread: float = 0.0,
        share_products: bool = True,
        env_digest: str | None = None,
    ) -> None:
        if library is None:
            from ..netlist import DEFAULT_LIBRARY

            library = DEFAULT_LIBRARY
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
        self._memo: dict[str, Any] = {}
        self._outcomes: dict[str, str] = {}  # memo key -> "hit" | "miss"
        #: stage names actually computed (cache misses), in order — the
        #: invalidation tests spy on this
        self.executed: list[str] = []

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
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
    # keys — computed on first use (only a store needs one)
    # ------------------------------------------------------------------
    @property
    def root_text(self) -> str:
        if self._text is None:
            from ..sg.sgformat import write_sg

            self._text = write_sg(self.source_sg, self.name)
        return self._text

    @cached_property
    def root_digest(self) -> str:
        return spec_digest(self.root_text)

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
        key = self.key_of(stage, extra) if self.store is not None else ""
        with trace_span("pipeline.stage", stage=stage, circuit=self.name) as sp:
            found = False
            value: Any = None
            if self.store is not None:
                found, value = self.store.get(key)
                if found and isinstance(value, SynthesisResult):
                    value.recompute = lambda: self._recompute(stage, key)
            if not found:
                fn = STAGES[stage].fn
                value = fn(self) if extra is None else fn(self, extra)
                self.executed.append(stage)
                if self.store is not None:
                    self.store.put(
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

    def _recompute(self, stage: str, key: str) -> Any:
        """Quarantine the stored entry of ``stage`` whose lazily decoded
        part failed to decode, and resolve the stage again."""
        self.store.quarantine(key)
        del self._memo[stage]
        return self.artifact(stage)

    # ------------------------------------------------------------------
    # named pulls
    # ------------------------------------------------------------------
    def sg(self) -> StateGraph:
        return self.artifact("sg-build")

    def classification(self) -> Classification:
        return self.artifact("classify")

    def sop(self) -> "SopSpec":
        return self.artifact("sop-derivation")

    def covers(self) -> CoverBundle:
        return self.artifact("covers")

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
        """The N-SHOT circuit of :meth:`synthesis_result`."""
        return self.synthesis_result(validate).circuit

    def synthesis_result(self, validate: bool = True) -> SynthesisResult:
        """The ``delays`` artifact, gated on :meth:`ensure_valid` unless
        ``validate=False``; one ``synthesize`` span covers both.  Its
        counts and text need no decoding of a stored circuit."""
        if "delays" in self._memo:
            if validate:
                self.ensure_valid()
            return self._memo["delays"]
        with trace_span(
            "synthesize", circuit=self.name, method=self.params["method"]
        ) as sp:
            if validate:
                self.ensure_valid()
            result = self.artifact("delays")
            sp.set(states=result.states, cubes=result.cubes, gates=result.gates)
        return result

    def verify(
        self,
        runs: int = 5,
        max_transitions: int = 200,
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
                max_transitions=max_transitions,
                **probes,
            )
        else:
            params = {
                "runs": runs,
                "max_transitions": max_transitions,
                **_VERIFY_KEY_CONSTANTS,
            }
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
