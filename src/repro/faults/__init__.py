"""Fault models: the oracle-sensitivity test bed.

Composable, frozen-dataclass ways to break a synthesized circuit
(:mod:`~repro.faults.models`): structural netlist transforms, MHS
parameter changes and mid-traversal transient injections.  The
oracle's hazard-freeness verdicts are only meaningful because these
faults flip them on broken circuits (``tests/test_fault_injection.py``
and the coverage sweep in ``tests/test_faults_campaign.py``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".models": (
            "FaultModel StuckAtFault InvertedLiteralFault "
            "SwappedSetResetFault DeletedAckGateFault TransientPulseFault "
            "DelayViolationFault OmegaMarginFault enumerate_faults "
            "rebuild_netlist"
        ),
    },
)
