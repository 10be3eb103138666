"""Benchmark suite and Table 2 regeneration machinery."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".circuits": (
            "DISTRIBUTIVE_BENCHMARKS NONDISTRIBUTIVE_BENCHMARKS "
            "TABLE2_CIRCUITS build_distributive build_nondistributive"
        ),
        ".runner": "BenchmarkRow run_benchmark run_table2 sg_of",
    },
)
