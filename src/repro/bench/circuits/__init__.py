"""Benchmark circuit reconstructions (see DESIGN.md §3 for the
substitution rationale): the paper's figure examples, the 19
distributive Table 2 benchmarks, and the 6 non-distributive industrial
designs."""

from .handshakes import (
    ring,
    fork_join,
    muller_pipeline,
    choice_server,
    converter_2phase_4phase,
    phased_cycle,
    parallel_stgs,
)
from .paper_examples import (
    figure1_sg,
    figure1_csc_sg,
    figure2_sg,
    figure7a_sg,
    figure7b_sg,
)
from .distributive import DISTRIBUTIVE_BENCHMARKS, build_distributive
from .nondistributive import (
    NONDISTRIBUTIVE_BENCHMARKS,
    build_nondistributive,
    or_element,
)

#: every paper-suite circuit in Table 2 order (distributive part first)
TABLE2_CIRCUITS = (*DISTRIBUTIVE_BENCHMARKS, *NONDISTRIBUTIVE_BENCHMARKS)

__all__ = [
    "ring",
    "fork_join",
    "muller_pipeline",
    "choice_server",
    "converter_2phase_4phase",
    "phased_cycle",
    "parallel_stgs",
    "figure1_sg",
    "figure1_csc_sg",
    "figure2_sg",
    "figure7a_sg",
    "figure7b_sg",
    "DISTRIBUTIVE_BENCHMARKS",
    "build_distributive",
    "NONDISTRIBUTIVE_BENCHMARKS",
    "build_nondistributive",
    "or_element",
    "TABLE2_CIRCUITS",
]
