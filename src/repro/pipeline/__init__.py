"""Content-addressed pipeline DAG with a persistent artifact cache.

The synthesis flow is modeled as an explicit DAG of stages (``sg-build
→ classify / sop-derivation → covers → delays → verify / certify``),
each keyed on
``sha256(spec canonical digest + upstream artifact keys + stage
version + env fingerprint)`` and serialized to an on-disk
:class:`ArtifactStore` with atomic rename writes, corrupt-entry
quarantine and lock-safe garbage collection.

See ``docs/PIPELINE.md`` for the model, key derivation, cache layout
and the ``repro cache`` CLI.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".store": "ArtifactStore CacheEntry GcReport parse_age parse_size",
        ".stages": "Classification CoverBundle STAGES STAGE_VERSIONS StageDef",
        ".dag": "KEY_SCHEMA PipelineRun resolve_store",
    },
)
