"""Benchmark suite and Table 2 regeneration machinery."""

from .circuits import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    TABLE2_CIRCUITS,
    build_distributive,
    build_nondistributive,
)
from .fault_suite import FAULT_SUITE, fault_circuit, fault_circuit_names
from .runner import BenchmarkRow, run_benchmark, run_table2, sg_of

__all__ = [
    "FAULT_SUITE",
    "fault_circuit",
    "fault_circuit_names",
    "DISTRIBUTIVE_BENCHMARKS",
    "NONDISTRIBUTIVE_BENCHMARKS",
    "TABLE2_CIRCUITS",
    "build_distributive",
    "build_nondistributive",
    "BenchmarkRow",
    "run_benchmark",
    "run_table2",
    "sg_of",
]
