"""Fault-injection campaign subsystem.

Robustness evidence for the verification oracle: composable fault
models (:mod:`~repro.faults.models`), a watchdog-guarded campaign
runner with multiprocessing fan-out (:mod:`~repro.faults.campaign`),
and structured JSON/text reporting (:mod:`~repro.faults.report`).
The oracle's hazard-freeness verdicts are only meaningful because the
campaign shows they flip on broken circuits.
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
        ".campaign": "FaultCampaign WatchdogLimits run_campaign",
        ".report": (
            "CampaignResult FaultOutcome PointRecord CAMPAIGN_SCHEMA "
            "CAMPAIGN_SCHEMAS parse_campaign_json"
        ),
    },
)
